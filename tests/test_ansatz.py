"""Configuration window, cutoff, and the layer ansatz z with its rho-derivative."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellwave.ansatz import (
    AnsatzParams,
    build_z,
    build_z_and_zdot,
    build_zdot,
    cutoff,
    grid_for,
)
from shellwave.exceptions import ConfigError, OutOfConfigurationSet
from shellwave.potentials import PotentialSpec


def make_params(eps=0.4, rho=21.0, **kw):
    spec = PotentialSpec.sine()
    defaults = dict(gamma=0.6, eps_max=0.5)
    defaults.update(kw)
    return AnsatzParams.make(2, 3.0, eps, rho, spec, 0.5, 1.5, **defaults), spec


def test_omega_window():
    params, _ = make_params()
    lo, hi = params.omega_window
    e3 = 0.4**3
    assert lo == pytest.approx(0.5 / (2 * e3), rel=1e-14)
    assert hi == pytest.approx(2 * 1.5 / e3, rel=1e-14)


def test_rho_outside_window_rejected():
    with pytest.raises(OutOfConfigurationSet):
        make_params(rho=2.0)
    with pytest.raises(OutOfConfigurationSet):
        make_params(rho=100.0)
    params, _ = make_params()
    with pytest.raises(OutOfConfigurationSet):
        params.with_rho(100.0)


def test_parameter_validation():
    spec = PotentialSpec.sine()
    with pytest.raises(ConfigError):
        AnsatzParams.make(1, 3.0, 0.4, 21.0, spec, 0.5, 1.5)
    with pytest.raises(ConfigError):
        AnsatzParams.make(2, 1.01, 0.4, 21.0, spec, 0.5, 1.5)


def test_beta_floor_guard():
    # with eps above the calibration eps_max, beta can dip below lambda0
    with pytest.raises(OutOfConfigurationSet):
        make_params(eps=0.5, rho=35.0, eps_max=0.3)


@given(shift=st.floats(min_value=-0.5, max_value=0.5))
@settings(max_examples=25, deadline=None)
def test_cutoff_ramp(shift):
    params, _ = make_params()
    lo = params.C1 / (16.0 * params.eps**3)
    hi = params.C1 / (8.0 * params.eps**3)
    r = np.array([0.0, lo * (0.5 + 0.4 * shift), lo, hi, hi * 1.5, 50.0])
    z = cutoff(params, r)
    assert np.all((0.0 <= z) & (z <= 1.0))
    assert z[0] == 0.0 and z[2] == pytest.approx(0.0, abs=1e-14)
    assert z[3] == pytest.approx(1.0, abs=1e-14) and z[5] == 1.0
    # monotone through the ramp
    ramp = np.linspace(lo, hi, 101)
    vals = cutoff(params, ramp)
    assert np.all(np.diff(vals) >= -1e-14)


def test_build_z_peak_and_amplitude():
    params, spec = make_params()
    grid = grid_for(params, 0.01)
    z = build_z(params, spec, grid)
    i = int(np.argmax(z))
    assert abs(grid.nodes[i] - params.rho) <= 2 * grid.h
    beta = params.beta(spec)
    amp = ((params.p + 1.0) * beta**2 / 2.0) ** (1.0 / (params.p - 1.0))
    assert z[i] == pytest.approx(amp, rel=1e-4)
    ops_positive = z >= 0.0
    assert ops_positive.all()


def test_build_zdot_matches_fd():
    params, spec = make_params()
    grid = grid_for(params, 0.02)
    zdot = build_zdot(params, spec, grid)
    d = 1e-5 * params.rho
    z_hi = build_z(params.with_rho(params.rho + d), spec, grid)
    z_lo = build_z(params.with_rho(params.rho - d), spec, grid)
    fd = (z_hi - z_lo) / (2 * d)
    denom = np.max(np.abs(fd))
    assert np.max(np.abs(zdot - fd)) / denom < 1e-6


def test_grid_for_leaves_decay_room():
    params, _ = make_params()
    grid = grid_for(params, 0.02)
    assert grid.nodes[-1] == pytest.approx(params.rho + 40.0 / params.lambda0,
                                           abs=2 * grid.h)
    wide = grid_for(params, 0.02, rho_max=params.omega_window[1])
    assert wide.nodes[-1] > params.omega_window[1]


# build_z and build_zdot written out as plain formulas, each profile
# evaluation separate and pow applied to every node of the cutoff
def plain_cutoff(params, r):
    lo = params.C1 / (16.0 * params.eps**3)
    hi = params.C1 / (8.0 * params.eps**3)
    t = np.clip((np.asarray(r, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    return t**3 * (10.0 - 15.0 * t + 6.0 * t**2)


def plain_value(p, lam, s):
    amp = float(((p + 1.0) * lam**2 / 2.0) ** (1.0 / (p - 1.0)))
    ax = np.abs(0.5 * (p - 1.0) * lam * s)
    return amp * np.exp(2.0 / (p - 1.0) * (np.log(2.0) - ax - np.log1p(np.exp(-2.0 * ax))))


def plain_derivative(p, lam, s):
    rate = 0.5 * (p - 1.0) * lam
    return -(2.0 / (p - 1.0)) * rate * np.tanh(rate * s) * plain_value(p, lam, s)


def plain_dvalue_dlambda_sq(p, lam, s):
    pref = lam ** (2.0 / (p - 1.0) - 2.0)
    return pref * (plain_value(p, 1.0, lam * s) / (p - 1.0)
                   + 0.5 * lam * s * plain_derivative(p, 1.0, lam * s))


def plain_build_z(params, spec, grid):
    s = grid.nodes - params.rho
    return plain_cutoff(params, grid.nodes) * plain_value(params.p, params.beta(spec), s)


def plain_build_zdot(params, spec, grid):
    lam = params.beta(spec)
    s = grid.nodes - params.rho
    dlam2 = params.eps**3 * float(spec.Vp(params.eps * params.rho))
    drift = dlam2 * plain_dvalue_dlambda_sq(params.p, lam, s) if dlam2 != 0.0 else 0.0
    return plain_cutoff(params, grid.nodes) * (drift - plain_derivative(params.p, lam, s))


@pytest.mark.parametrize("family", ["zero", "sine"])
@pytest.mark.parametrize("n,p", [(2, 3.0), (3, 3.0), (2, 6.0), (3, 6.0)])
@pytest.mark.parametrize("edge", [False, True])
def test_z_and_zdot_bitwise(family, n, p, edge):
    # edge puts the layer on the window's lower edge, where its core
    # overlaps the cutoff ramp
    spec = getattr(PotentialSpec, family)()
    eps = 0.5
    rho = 0.5 / (2.0 * eps**3) if edge else 17.0
    params = AnsatzParams.make(n, p, eps, rho, spec, 0.5, 1.5, gamma=0.6)
    grid = grid_for(params, 0.02)
    z, zdot = build_z_and_zdot(params, spec, grid)
    want_z, want_zdot = plain_build_z(params, spec, grid), plain_build_zdot(params, spec, grid)
    assert z.tobytes() == want_z.tobytes()
    assert zdot.tobytes() == want_zdot.tobytes()
    assert build_z(params, spec, grid).tobytes() == want_z.tobytes()
    assert build_zdot(params, spec, grid).tobytes() == want_zdot.tobytes()
    cut = plain_cutoff(params, grid.nodes)
    ramp = (cut > 0.0) & (cut < 1.0)
    assert bool(np.abs(z[ramp]).max() > 1e-3) is edge
    assert (family == "zero") is (float(spec.Vp(eps * rho)) == 0.0)
