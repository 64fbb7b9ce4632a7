"""Ground-state profile, constants, and linearization checks.

The closed-form soliton is the oracle throughout: every [derived] constant
is either checked against an independently computed integral or against the
ODE residual of the profile itself.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import eigh_tridiagonal

from shellwave import ground_state
from shellwave._lapack import dstebz
from shellwave.exceptions import EigensolverError
from shellwave.ground_state import (
    GroundStateProfile,
    _floor_pencil,
    _ground_state_constants,
    ground_state_constants,
    identity_spread,
    linearized_spectrum,
    nondegeneracy_report,
    sphere_area,
)

FROZEN_P3_LAM1 = {
    # exact sech-integral values for p=3, lam=1
    "mass_full": 4.0,
    "kinetic_half": 2.0 / 3.0,
    "lp1_full": 16.0 / 3.0,
    "energy_const": 4.0 / 3.0,
    "mass_const": 4.0,
}


def test_amplitude_formula():
    for p in (2.0, 3.0, 5.0):
        for lam in (0.5, 1.0, 2.0):
            prof = GroundStateProfile(p=p, lam=lam)
            want = ((p + 1.0) * lam**2 / 2.0) ** (1.0 / (p - 1.0))
            assert prof.value(0.0) == pytest.approx(want, rel=1e-14)
            assert prof.amplitude == pytest.approx(want, rel=1e-14)


@given(
    p=st.floats(min_value=1.6, max_value=6.0),
    lam=st.floats(min_value=0.4, max_value=2.5),
    x=st.floats(min_value=-8.0, max_value=8.0),
)
@settings(max_examples=60, deadline=None)
def test_profile_solves_the_ode(p, lam, x):
    # -Q'' + lam^2 Q = Q^p, checked with a high-order central stencil
    prof = GroundStateProfile(p=p, lam=lam)
    h = 1e-4
    offsets = np.array([-2, -1, 0, 1, 2], dtype=float)
    vals = prof.value(x + h * offsets)
    d2 = (-vals[0] + 16 * vals[1] - 30 * vals[2] + 16 * vals[3] - vals[4]) / (
        12 * h * h
    )
    res = -d2 + lam**2 * vals[2] - vals[2] ** p
    assert abs(res) <= 1e-6 * max(1.0, prof.amplitude**p)


def test_profile_derivatives_match_fd():
    prof = GroundStateProfile(p=3.0, lam=1.3)
    x = np.linspace(-6.0, 6.0, 41)
    h = 1e-6
    d1 = (prof.value(x + h) - prof.value(x - h)) / (2 * h)
    d2 = (prof.value(x + h) - 2 * prof.value(x) + prof.value(x - h)) / h**2
    assert np.max(np.abs(prof.derivative(x) - d1)) < 1e-8
    # Q'' = lam^2 Q - Q^p, straight from the defining ODE
    q = prof.value(x)
    assert np.max(np.abs(prof.lam**2 * q - q**prof.p - d2)) < 1e-3


def test_constants_p3_lam1_frozen():
    c = ground_state_constants(GroundStateProfile(p=3.0, lam=1.0), n=2)
    for name, want in FROZEN_P3_LAM1.items():
        assert getattr(c, name) == pytest.approx(want, abs=1e-10), name
    assert c.B_const == pytest.approx(sphere_area(2) * 4.0, rel=1e-12)


def test_constants_lambda_scaling():
    # int Q_lam^2 = lam^(4/(p-1) - 1) int Q_1^2 and friends
    for p in (2.0, 3.0, 4.0):
        base = ground_state_constants(GroundStateProfile(p=p, lam=1.0), n=2)
        for lam in (0.7, 1.8):
            c = ground_state_constants(GroundStateProfile(p=p, lam=lam), n=2)
            s_mass = lam ** (4.0 / (p - 1.0) - 1.0)
            s_kin = lam ** (4.0 / (p - 1.0) + 1.0)
            s_lp1 = lam ** (2.0 * (p + 1.0) / (p - 1.0) - 1.0)
            assert c.mass_full == pytest.approx(s_mass * base.mass_full, rel=1e-9)
            assert c.kinetic_half == pytest.approx(s_kin * base.kinetic_half, rel=1e-9)
            assert c.lp1_full == pytest.approx(s_lp1 * base.lp1_full, rel=1e-9)


def test_constants_cached_per_p_and_n():
    # the audits ask for the same (p, n) constants once per family member
    c = ground_state_constants(GroundStateProfile(p=3.0, lam=1.0), n=2)
    assert ground_state_constants(GroundStateProfile(p=3.0, lam=1.0), n=2) is c
    fresh = _ground_state_constants.__wrapped__(3.0, 1.0, 2)
    assert fresh == c
    # an int exponent shares the float key and never leaks its type
    for p in (3, 3.0, 2.5, 2):
        got = ground_state_constants(GroundStateProfile(p=p, lam=1.0), n=2)
        assert type(got.p) is float and type(got.lam) is float
    assert ground_state_constants(GroundStateProfile(p=3, lam=1), n=2) is c


def test_half_line_identities_agree():
    # int Q'^2, int (Q^(p+1) - lam^2 Q^2), lam^2 int Q^2 - 2 int Q^(p+1)/(p+1)
    # coincide on the half line for every admissible (p, lam)
    for p in (2.0, 3.0, 4.0, 5.0, 7.0):
        for lam in (1.0, 2.0):
            c = ground_state_constants(GroundStateProfile(p=p, lam=lam), n=2)
            q1, q2, q3, spread = identity_spread(c)
            assert q1 == c.kinetic_half
            assert q2 == 0.5 * c.lp1_full - 0.5 * lam**2 * c.mass_full
            assert q3 == 0.5 * lam**2 * c.mass_full - c.lp1_full / (p + 1.0)
            assert spread <= 1e-8


def test_derived_constants_consistency():
    # energy_const = 2 kinetic_half, mass_const = 2 (p+3)/(p-1) kinetic_half
    for p in (2.0, 3.0, 5.0):
        c = ground_state_constants(GroundStateProfile(p=p, lam=1.0), n=3)
        assert c.energy_const == pytest.approx(2.0 * c.kinetic_half, rel=1e-9)
        assert c.mass_const == pytest.approx(
            2.0 * (p + 3.0) / (p - 1.0) * c.kinetic_half, rel=1e-9)
        assert c.B_const == pytest.approx(sphere_area(3) * c.mass_full, rel=1e-12)


def test_sphere_area():
    assert sphere_area(2) == pytest.approx(2.0 * np.pi, rel=1e-15)
    assert sphere_area(3) == pytest.approx(4.0 * np.pi, rel=1e-15)
    assert sphere_area(4) == pytest.approx(2.0 * np.pi**2, rel=1e-14)


def _integrate_shot(p, lam, amp, step, s_end):
    """Explicit midpoint integration of u'' = lam^2 u - |u|^(p-1) u from
    (amp, 0).  Returns (verdict, trajectory): verdict +1 if u crossed zero
    (overshoot), -1 if u' turned positive (undershoot), 0 if neither
    happened by s_end; the trajectory holds u at every node, valid up to
    the event."""
    nsteps = int(round(s_end / step))
    u, v = amp, 0.0
    lam2 = lam * lam
    traj = np.empty(nsteps + 1)
    traj[0] = u
    for i in range(1, nsteps + 1):
        fu = lam2 * u - abs(u) ** (p - 1.0) * u
        um = u + 0.5 * step * v
        vm = v + 0.5 * step * fu
        fum = lam2 * um - abs(um) ** (p - 1.0) * um
        u += step * vm
        v += step * fum
        traj[i] = u
        if u < 0.0:
            traj[i:] = 0.0
            return 1, traj
        if v > 0.0:
            traj[i:] = u
            return -1, traj
    return 0, traj


def shoot_ground_state(p, lam):
    """Shooting construction of the even ground state on [0, 10/lam] with
    step 1e-3, independent of the closed form: bisects the initial
    amplitude between undershoot (the orbit turns back up) and overshoot
    (it crosses zero), starting just above the equilibrium lam^(2/(p-1)).
    Second order, so it deviates from the exact profile by O(step^2).
    Returns (nodes, values, amplitude)."""
    step = 1e-3
    s_out = 10.0 / lam
    s_end = s_out + 5.0 / lam
    lo = 1.02 * lam ** (2.0 / (p - 1.0))
    assert _integrate_shot(p, lam, lo, step, s_end)[0] == -1, "no undershoot"
    hi = lo
    for _ in range(40):
        hi *= 1.5
        if _integrate_shot(p, lam, hi, step, s_end)[0] == 1:
            break
    else:
        raise AssertionError("no overshoot amplitude found")
    for _ in range(200):
        if hi - lo <= 1e-15 * hi:
            break
        mid = 0.5 * (lo + hi)
        verdict = _integrate_shot(p, lam, mid, step, s_end)[0]
        if verdict == 0:
            break
        if verdict == 1:
            hi = mid
        else:
            lo = mid
    amp = 0.5 * (lo + hi)
    traj = _integrate_shot(p, lam, amp, step, s_end)[1]
    n_out = int(round(s_out / step))
    return step * np.arange(n_out + 1), traj[: n_out + 1], amp


def test_shooting_recovers_closed_form():
    prof = GroundStateProfile(p=3.0, lam=1.0)
    nodes, values, amplitude = shoot_ground_state(p=3.0, lam=1.0)
    assert np.max(np.abs(values - prof.value(nodes))) < 5e-6
    assert amplitude == pytest.approx(prof.amplitude, rel=1e-5)


def test_linearized_spectrum_poschl_teller():
    # p=3, lam=1: the linearized operator has eigenvalues -3 and 0
    prof = GroundStateProfile(p=3.0, lam=1.0)
    vals, vecs, nodes = linearized_spectrum(prof)
    assert vals[0] == pytest.approx(-3.0, abs=1e-3)
    assert vals[1] == pytest.approx(0.0, abs=1e-3)
    qp = prof.derivative(nodes)
    cos = abs(vecs[:, 1] @ qp) / (np.linalg.norm(vecs[:, 1]) * np.linalg.norm(qp))
    assert cos >= 0.9999


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("lam", [0.8, 1.0])
@pytest.mark.parametrize("p", [1.5, 2.0, 7.0 / 3.0, 3.0, 5.0])
def test_linearized_spectrum_bitwise_equals_eigh_tridiagonal(p, lam, k, monkeypatch):
    # the direct dstebz/dstein calls are eigh_tridiagonal(select="i")'s own
    # path, so on the same matrix every bit agrees
    seen = []

    def recording(d, e, *args):
        seen.append((d.copy(), e.copy()))
        return dstebz(d, e, *args)

    monkeypatch.setattr(ground_state, "dstebz", recording)
    vals, vecs, nodes = linearized_spectrum(GroundStateProfile(p=p, lam=lam), k=k)
    (d, e), = seen
    ref_vals, ref_vecs = eigh_tridiagonal(d, e, select="i", select_range=(0, k - 1))
    for j in range(k):
        i = int(np.argmax(np.abs(ref_vecs[:, j])))
        if ref_vecs[i, j] < 0:
            ref_vecs[:, j] = -ref_vecs[:, j]
    assert np.array_equal(vals, ref_vals)
    assert np.array_equal(vecs, ref_vecs)
    # default half width 20/lam and step 1e-2: one node per matrix row
    assert np.array_equal(nodes, -20.0 / lam + 1e-2 * np.arange(1, len(d) + 1))


@pytest.mark.parametrize("routine", ["dstebz", "dstein"])
def test_linearized_spectrum_names_the_failing_routine(routine, monkeypatch):
    real = getattr(ground_state, routine)

    def failing(*args):
        *out, _ = real(*args)
        return (*out, -3)

    monkeypatch.setattr(ground_state, routine, failing)
    with pytest.raises(EigensolverError, match=f"{routine} failed with info=-3"):
        linearized_spectrum(GroundStateProfile(p=3.0))


def test_nondegeneracy_report_structure():
    rep = nondegeneracy_report(GroundStateProfile(p=3.0, lam=1.0))
    assert rep.eigenvalues[0] < 0.0 < rep.complement_floor
    assert abs(rep.eigenvalues[1]) < 1e-3
    assert rep.kernel_cosine >= 0.9999
    # quadratic form at Q equals (1-p) int Q^(p+1)
    assert rep.quad_form_qq == pytest.approx(rep.quad_form_qq_ref, rel=1e-6)
    assert rep.quad_form_qq == pytest.approx(-2.0 * 16.0 / 3.0, rel=1e-6)


@pytest.mark.parametrize("p, floor", [
    (3.0, 0.4995103912581916), (6.0, 0.5862154398419588),
    (2.0, 0.39982026534111165), (7.0 / 3.0, 0.44417247292923034),
])
def test_complement_floor_bitwise(p, floor):
    # the spectrum stage's floor (half width 20/lam, step 0.05), pinned to
    # the last bit: the shifted bordered solves of its inverse iteration
    # must keep their arithmetic
    assert nondegeneracy_report(GroundStateProfile(p=p, lam=1.0)).complement_floor == floor


@pytest.mark.parametrize("p", [2.0, 3.0, 6.0])
def test_complement_floor_matches_dense(p, complement_min_dense):
    # the banded shift-invert floor against the dense null-space eigh, on
    # the same L and B the report builds (half width 20/lam, step 0.05)
    prof = GroundStateProfile(p=p, lam=1.0)
    dense = complement_min_dense(*_floor_pencil(prof, 20.0, 0.05))
    floor = nondegeneracy_report(prof).complement_floor
    assert floor == pytest.approx(dense, rel=1e-10)
