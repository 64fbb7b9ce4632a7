"""Potential families, the effective weight M, and critical radius search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from shellwave import config, potentials
from shellwave.exceptions import (
    ConfigError,
    EllipticityViolation,
    NoCriticalPoint,
    SolverError,
)
from shellwave.grids import DiscreteOperators, RadialGrid
from shellwave.potentials import (
    PotentialSpec,
    eval_M,
    find_critical_radius,
)


def test_family_values():
    r = np.linspace(0.1, 20.0, 57)
    assert np.all(PotentialSpec.zero().V(r) == 0.0)
    s = PotentialSpec.sine(amplitude=0.3, frequency=2.0, phase=0.5)
    assert np.allclose(s.V(r), 0.3 * np.sin(2.0 * r + 0.5), rtol=1e-15)


def test_bounds_are_bounds():
    r = np.linspace(0.0, 60.0, 4001)
    for spec in (
        PotentialSpec.sine(amplitude=0.4, frequency=3.0),
        PotentialSpec.sine(amplitude=1.2, phase=np.pi / 2),
    ):
        assert np.max(np.abs(spec.V(r))) <= spec.bound_V + 1e-12


@pytest.mark.parametrize("family", list(config._POTENTIALS))
def test_every_family_is_differentiated_and_searched(family):
    # each family the config accepts, at its default parameters
    spec = config.build_potential({"family": family})
    r = np.linspace(0.5, 20.0, 40)
    h = 1e-5
    fd1 = (spec.V(r + h) - spec.V(r - h)) / (2 * h)
    fd2 = (spec.Vp(r + h) - spec.Vp(r - h)) / (2 * h)
    assert np.allclose(spec.Vp(r), fd1, rtol=1e-7, atol=1e-9)
    assert np.allclose(spec.Vpp(r), fd2, rtol=1e-7, atol=1e-9)
    n, p, eps = 2, 3.0, 0.4
    fdm = (eval_M(spec, n, p, eps, r + h).Mp - eval_M(spec, n, p, eps, r - h).Mp) / (2 * h)
    assert np.allclose(eval_M(spec, n, p, eps, r).Mpp, fdm, rtol=1e-7, atol=1e-9)
    # the search returns a root or names why not, as a solver error
    try:
        res = find_critical_radius(spec, n, p, eps, (1.0, 30.0))
    except SolverError:
        return
    assert 1.0 <= res.t_eps <= 30.0


@given(
    r=st.floats(min_value=0.5, max_value=40.0),
    eps=st.floats(min_value=0.1, max_value=0.6),
    n=st.integers(min_value=2, max_value=4),
    p=st.floats(min_value=1.5, max_value=6.0),
)
@settings(max_examples=50, deadline=None)
def test_eval_M_derivatives_match_fd(r, eps, n, p):
    spec = PotentialSpec.sine(amplitude=0.8)
    h = 1e-5 * max(1.0, r)
    pt = eval_M(spec, n, p, eps, r)
    hi = eval_M(spec, n, p, eps, r + h)
    lo = eval_M(spec, n, p, eps, r - h)
    fd1 = (hi.M - lo.M) / (2 * h)
    fd2 = (hi.M - 2 * pt.M + lo.M) / h**2
    scale = max(1.0, abs(float(pt.M))) / max(h, 1e-12)
    assert float(pt.Mp) == pytest.approx(float(fd1), abs=1e-7 * scale)
    assert float(pt.Mpp) == pytest.approx(float(fd2), rel=1e-4, abs=1e-3)


def test_eval_M_zero_potential_closed_form():
    r = np.linspace(1.0, 10.0, 19)
    for n in (2, 3):
        pt = eval_M(PotentialSpec.zero(), n, 3.0, 0.4, r)
        pref = 0.4 ** (2 * (n - 2))
        assert np.allclose(pt.M, pref * r ** (n - 1), rtol=1e-14)
        assert np.allclose(pt.Mp, pref * (n - 1) * r ** (n - 2), rtol=1e-14)


def test_ellipticity_violation_raised():
    spec = PotentialSpec.sine(amplitude=1.0)
    with pytest.raises(EllipticityViolation):
        eval_M(spec, 2, 3.0, 1.2, np.linspace(1.0, 20.0, 200))


def test_weight_is_one_plus_eps_squared_V_and_never_nan():
    t = np.linspace(0.0, 20.0, 41)
    spec = PotentialSpec.sine(0.5, 2.0, 0.3)
    assert np.array_equal(spec.W(0.4, t), 1.0 + 0.4**2 * spec.V(t))
    # a NaN phase makes every W NaN: W > 0 fails there, where W <= 0 holds nowhere
    nan = PotentialSpec.sine(phase=float("nan"))
    with pytest.raises(EllipticityViolation):
        DiscreteOperators(RadialGrid.make(2, 30.0, 0.05), 0.4, nan, 3.0)
    with pytest.raises(EllipticityViolation):
        find_critical_radius(nan, 2, 3.0, 0.4, (7.5, 9.5))


def test_critical_radius_sine_independent_equation():
    # n=2, p=3: M'(t) = 0 reduces to 1 + e^2 sin t + (3/2) e^2 t cos t = 0
    spec = PotentialSpec.sine()
    for eps in (0.5, 0.4, 0.3):
        res = find_critical_radius(spec, 2, 3.0, eps, (7.5, 9.5))
        t = res.t_eps
        g = 1.0 + eps**2 * np.sin(t) + 1.5 * eps**2 * t * np.cos(t)
        assert abs(g) < 1e-9
        assert 7.5 <= t <= 9.5
        assert res.curvature != 0.0
        # returned root is a genuine sign change of M'
        d = 1e-3
        mp_lo = float(eval_M(spec, 2, 3.0, eps, t - d).Mp)
        mp_hi = float(eval_M(spec, 2, 3.0, eps, t + d).Mp)
        assert mp_lo * mp_hi < 0.0


def test_critical_radius_frozen_value():
    # frozen from an independent bisection of the reduced equation above
    res = find_critical_radius(PotentialSpec.sine(), 2, 3.0, 0.4, (7.5, 9.5))
    assert res.t_eps == pytest.approx(8.446843652, abs=1e-8)


def test_no_critical_point_for_flat_weight():
    # n=2, V=0: M = r has no interior critical point
    with pytest.raises(NoCriticalPoint):
        find_critical_radius(PotentialSpec.zero(), 2, 3.0, 0.4, (1.0, 30.0))


def test_critical_radius_rejects_bad_bracket():
    with pytest.raises(ConfigError):
        find_critical_radius(PotentialSpec.sine(), 2, 3.0, 0.4, (9.5, 7.5))


def stationarity_identity(spec, n, p, eps, t):
    """Scalar form of M'(t) = 0 after dividing out the radial power,

        2 (n-1) W^((p+3)/(2(p-1))) + ((p+3)/(p-1)) W^(2/(p-1) - 1/2) eps^2 t V'(t),

    with W = 1 + eps^2 V(t): it vanishes exactly at critical radii."""
    W = 1.0 + eps**2 * spec.V(t)
    e1 = (p + 3.0) / (2.0 * (p - 1.0))
    e2 = 2.0 / (p - 1.0) - 0.5
    return 2.0 * (n - 1) * W**e1 + (p + 3.0) / (p - 1.0) * W**e2 * eps**2 * t * spec.Vp(t)


def test_stationarity_identity_vanishes_at_root():
    spec = PotentialSpec.sine()
    res = find_critical_radius(spec, 2, 3.0, 0.4, (7.5, 9.5))
    val = stationarity_identity(spec, 2, 3.0, 0.4, res.t_eps)
    off = stationarity_identity(spec, 2, 3.0, 0.4, res.t_eps + 0.3)
    assert abs(val) < 1e-9
    assert abs(off) > 1e-3


# t_eps of configs/sine_n2.json (schedule, t_bracket [7.5, 9.5]) as the
# earlier brentq root finder returned it after the same Newton polish
SINE_N2_T_EPS = {
    0.5: "0x1.08629e93183d3p+3",
    0.45: "0x1.0ad32c3dc77bap+3",
    0.4: "0x1.0e4c8b0f1a1d7p+3",
    0.35: "0x1.139bd0cee33dep+3",
    0.3: "0x1.1d0332e92ea43p+3",
}


def test_critical_radius_bitwise_on_shipped_schedule():
    spec = PotentialSpec.sine()
    for eps, t_hex in SINE_N2_T_EPS.items():
        res = find_critical_radius(spec, 2, 3.0, eps, (7.5, 9.5))
        assert res.t_eps.hex() == t_hex, eps


def test_critical_radius_work_count(monkeypatch):
    # one vectorized scan, then per root the Illinois steps down to
    # neighbouring floats and one curvature read; bisecting each sign
    # change of the scan down to 1e-13 alone takes about 31 calls.  At
    # eps = 0.5001182162470026 the second Illinois point lands one float
    # above the root and every later secant point rounds onto it: stepping
    # to its neighbour settles the root in one call, where midpoint steps
    # took 31 more.  The scan and the Illinois steps read M' alone and the
    # curvature reads call eval_M, and both go through _slope, so counting
    # _slope counts every evaluation of M
    calls = []
    real = potentials._slope

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(potentials, "_slope", counted)
    spec = PotentialSpec.sine()
    for eps in (*SINE_N2_T_EPS, 0.5001182162470026):
        calls.clear()
        find_critical_radius(spec, 2, 3.0, eps, (7.5, 9.5))
        assert len(calls) <= 10, (eps, len(calls))


def _next_to_its_sign_change(spec, n, p, eps, t):
    """t is next to a sign change of the computed M', with the smaller |M'|
    of the pair (the smaller t on ties), or M'(t) is exactly zero."""
    def mp(x):
        return float(eval_M(spec, n, p, eps, np.array([x])).Mp[0])

    below, at, above = mp(np.nextafter(t, 0.0)), mp(t), mp(np.nextafter(t, np.inf))
    return at == 0.0 or (at * above < 0.0 and abs(at) <= abs(above)) or (
        below * at < 0.0 and abs(at) < abs(below))


def test_critical_radius_last_bit_is_the_sign_change():
    # t_eps is the float next to the sign change of the computed M' with
    # the smaller |M'| (the smaller t on ties), whatever bracket the scan
    # starts from: a wide bracket gives the same root as the shipped one
    spec = PotentialSpec.sine()
    for bracket in ((7.5, 9.5), (2.0, 33.0)):
        res = find_critical_radius(spec, 2, 3.0, 0.3, bracket)
        assert res.t_eps.hex() == SINE_N2_T_EPS[0.3]
    t = res.t_eps
    mp = [float(eval_M(spec, 2, 3.0, 0.3, x).Mp)
          for x in (np.nextafter(t, 0.0), t, np.nextafter(t, np.inf))]
    # M' changes sign just above t, with |M'| tied across it
    assert mp[1] * mp[2] < 0.0 < mp[0] * mp[1]
    assert abs(mp[1]) == abs(mp[2])
    # on wide brackets over many roots, where a Newton polish from the
    # Illinois root ended one float off the sign change
    for spec, n, p in ((PotentialSpec.sine(phase=np.pi / 2), 4, 6.0),
                       (PotentialSpec.sine(0.5, 2.0, 0.3), 4, 2.0)):
        res = find_critical_radius(spec, n, p, 0.4, (2.0, 33.0))
        assert len(res.roots) > 1
        for t in res.roots:
            assert _next_to_its_sign_change(spec, n, p, 0.4, t), t.hex()


def test_critical_radius_keeps_the_root_a_wild_polish_leaves():
    # V'' of the wrong sign and a tenth of its size: at eps = 0.5 the
    # computed M'' is +0.04 where the true one is -3.43, so each step of a
    # Newton polish on M' would multiply the distance to the root by about
    # 86, and nine of them would carry t out of [7.5, 9.5]; the root comes
    # from M' alone, and M'' is only read there
    wrong = PotentialSpec("sine", 1.0, np.sin, np.cos, lambda r: 0.1 * np.sin(r))
    res = find_critical_radius(wrong, 2, 3.0, 0.5, (7.5, 9.5), beta_floor=0.01)
    want = float.fromhex(SINE_N2_T_EPS[0.5])
    assert res.t_eps == pytest.approx(want, rel=1e-13, abs=0.0)
    assert res.roots == (res.t_eps,)
    assert res.curvature == pytest.approx(0.0403, abs=1e-4)
    # a polish from that root does leave the bracket
    t = res.t_eps
    for _ in range(9):
        pt = eval_M(wrong, 2, 3.0, 0.5, np.array([t]))
        t -= pt.Mp[0] / pt.Mpp[0]
    assert not 7.5 <= t <= 9.5
