"""Full radial solves, integral audits, truncation, and continuation."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from shellwave.ansatz import AnsatzParams, build_z, grid_for
from shellwave.exceptions import ConfigError, ConvergedToZero, NewtonDivergence
from shellwave.forces import PowerForce, TruncatedForce
from shellwave.full_solver import (
    _newton_step,
    _newton_strong,
    asymptotic_terms_check,
    continuation_in_eps,
    is_supercritical,
    pohozaev_audit,
    pohozaev_refinement_check,
    solve_full,
    tail_decay_check,
)
from shellwave.grids import DiscreteOperators, RadialGrid
from shellwave.potentials import PotentialSpec


def member_at(family, eps):
    for m in family.members:
        if m.eps == pytest.approx(eps):
            return m
    raise AssertionError(f"eps={eps} not in family")


def test_supercritical_predicate():
    assert not is_supercritical(2, 3.0)
    assert not is_supercritical(3, 5.0)
    assert is_supercritical(3, 6.0)
    assert is_supercritical(4, 3.5)


def test_truncated_force_matches_power_below_cap():
    tf = TruncatedForce(3.0, 2.0)
    pf = PowerForce(3.0)
    u = np.linspace(-1.9, 1.9, 77)
    assert np.allclose(tf.f(u), pf.f(u), rtol=0, atol=0)
    assert np.allclose(tf.fp(u), pf.fp(u), rtol=0, atol=0)
    assert not tf.active_on(u)


def test_truncated_force_cap_behavior():
    tf = TruncatedForce(3.0, 2.0)
    big = np.linspace(3.01, 50.0, 50)
    vals = tf.f(big)
    assert np.all(np.diff(vals) == 0.0)  # constant above K+1
    assert np.all(tf.fp(big) == 0.0)
    # C^1 match at the cap
    d = 1e-7
    left = (tf.f(2.0) - tf.f(2.0 - d)) / d
    right = (tf.f(2.0 + d) - tf.f(2.0)) / d
    assert left == pytest.approx(right, rel=1e-5)
    assert tf.active_on(np.array([0.5, 2.5]))
    # odd
    u = np.linspace(0.1, 5.0, 23)
    assert np.allclose(tf.f(-u), -tf.f(u), rtol=1e-14)


def test_family_members_accepted(sine_family):
    for m in sine_family.members:
        f = m.full
        assert f.profile[:-1].min() >= 0.0
        assert f.pohozaev_1 <= 1e-6 and f.pohozaev_2 <= 1e-6
        assert not f.truncation_active
        assert abs(f.peak_rho - m.rho_star) < 0.05 * m.rho_star


def test_peak_tracks_critical_radius(sine_family, sine_spec):
    for m in sine_family.members:
        assert abs(m.eps * m.rho_star - m.t_value) < 1e-12
        assert abs(m.t_value - 8.26) < 1.0  # same branch throughout


def test_pohozaev_refinement_shrink(sine_family, sine_spec):
    m = member_at(sine_family, 0.5)
    coarse, fine, ratios = pohozaev_refinement_check(m.full, sine_spec)
    assert coarse is m.full.audit  # reused, not recomputed
    assert min(ratios) >= 3.5
    assert fine.defect_1 < coarse.defect_1
    assert fine.defect_2 < coarse.defect_2


def test_asymptotic_terms_at_layer(sine_family, sine_spec):
    m = member_at(sine_family, 0.4)
    rows = asymptotic_terms_check(m.full, sine_spec)
    names = {r.name for r in rows}
    assert names == {"kinetic", "mass", "power", "v-moment"}
    for r in rows:
        assert not r.skipped
        assert r.rel_err <= 0.05, (r.name, r.rel_err)


def test_v_moment_skipped_where_v_prime_vanishes(sine_family, sine_spec):
    # evaluating at a radius with V'(eps rho) = 0 degenerates the v-moment
    # prediction, which must be marked skipped rather than divided through
    m = member_at(sine_family, 0.4)
    rho0 = (0.5 * np.pi + 2.0 * np.pi) / 0.4  # cos(eps rho0) = 0
    rows = asymptotic_terms_check(m.full, sine_spec, rho=rho0)
    vrow = [r for r in rows if r.name == "v-moment"][0]
    assert vrow.skipped


def test_tail_decay_matches_beta(sine_family, sine_spec):
    m = member_at(sine_family, 0.3)
    slope, beta, rel = tail_decay_check(m.full, sine_spec)
    assert slope < 0
    assert rel <= 0.02


def test_converged_to_zero_guard(sine_spec):
    grid = RadialGrid.make(2, 30.0, 0.01)
    seed = 1e-8 * np.exp(-((grid.nodes - 15.0) ** 2))
    with pytest.raises(ConvergedToZero):
        solve_full(2, 3.0, 0.4, sine_spec, seed, grid)


def test_stall_above_roundoff_floor_diverges(sine_family, sine_spec):
    # one Newton step from the bare ansatz never reaches the tolerance or
    # the roundoff floor, so the accept rule must still refuse it
    m = member_at(sine_family, 0.5)
    params = AnsatzParams.make(2, 3.0, 0.5, m.rho_star, sine_spec, 0.5, 1.5,
                               gamma=0.6)
    seed = build_z(params, sine_spec, m.full.grid)
    with pytest.raises(NewtonDivergence):
        solve_full(2, 3.0, 0.5, sine_spec, seed, m.full.grid, max_iter=1)


def test_supercritical_acceptance(supercritical_family):
    m = supercritical_family.members[0]
    f = m.full
    assert f.force_cap == 3.0
    assert f.profile.max() < f.force_cap
    assert not f.truncation_active


def test_supercritical_cap_doubling_bitwise(supercritical_family, sine_spec):
    m = supercritical_family.members[0]
    f = m.full
    params = AnsatzParams.make(3, 6.0, 0.5, m.rho_star, sine_spec, 0.5, 3.0)
    seed = build_z(params, sine_spec, f.grid)
    a = solve_full(3, 6.0, 0.5, sine_spec, seed, f.grid, trunc_K=3.0)
    b = solve_full(3, 6.0, 0.5, sine_spec, seed, f.grid, trunc_K=6.0)
    assert np.max(np.abs(a.profile - b.profile)) <= 1e-12


def test_schedule_validation(sine_spec):
    with pytest.raises(ConfigError):
        continuation_in_eps(2, 3.0, sine_spec, (0.4, 0.5), 0.5, 1.5, (7.5, 9.5))
    with pytest.raises(ConfigError):
        continuation_in_eps(2, 3.0, sine_spec, (0.5, 0.2), 0.5, 1.5, (7.5, 9.5))
    with pytest.raises(ConfigError):
        continuation_in_eps(2, 3.0, sine_spec, (), 0.5, 1.5, (7.5, 9.5))


def test_continuation_prefix_on_failure(sine_spec):
    # a bracket with no multiplier root fails on the first member and
    # reports an empty prefix with the failing eps
    res = continuation_in_eps(2, 3.0, sine_spec, (0.4,), 0.5, 1.5, (8.8, 9.2))
    assert not res.completed
    assert res.failed_eps == pytest.approx(0.4)
    assert res.members == ()
    assert "NoSignChange" in res.failure


def test_pohozaev_audit_scales(sine_family, sine_spec):
    # defects are relative: invariant under the eps^n volume prefactor
    m = member_at(sine_family, 0.5)
    audit = pohozaev_audit(2, 3.0, 0.5, sine_spec, m.full.grid, m.full.profile)
    assert audit.defect_1 == pytest.approx(m.full.pohozaev_1, rel=1e-12)
    assert audit.defect_2 == pytest.approx(m.full.pohozaev_2, rel=1e-12)
    assert audit.kinetic > 0 and audit.potential > 0


def test_newton_work_count(sine_family):
    # the first failed line search ends the loop and halving stops once the
    # step no longer moves u; the loop that repeated failed line searches
    # spent 66 residual evaluations on this member
    f = member_at(sine_family, 0.5).full
    assert f.residual_evals <= 20
    assert f.newton_iters >= 1
    assert f.residual_max <= max(1e-10 * (1.0 + f.profile.max() ** 3),
                                 f.roundoff_floor)
    assert f.roundoff_floor == 2.0 * np.finfo(float).eps * f.profile.max() / f.grid.h**2


def test_newton_step_matches_solve_banded(sine_family, sine_spec):
    m = member_at(sine_family, 0.5)
    params = AnsatzParams.make(2, 3.0, 0.5, m.rho_star, sine_spec, 0.5, 1.5,
                               gamma=0.6)
    grid = m.full.grid
    ops = DiscreteOperators(grid, 0.5, sine_spec, 3.0)
    u = build_z(params, sine_spec, grid)
    R = ops.strong_residual(u)
    want = solve_banded((1, 1), ops.strong_jacobian(u), R)
    J, du = np.empty((3, grid.size)), np.empty(grid.size)
    got = _newton_step(ops, ops.force, u, R, J, du)
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("scale", [np.nan, 1e120])
def test_non_finite_seed_diverges(sine_family, sine_spec, scale):
    # NaN used to escape as a bare ValueError from solve_banded and the
    # scaled seed as an OverflowError; both are solver failures (exit 3)
    m = member_at(sine_family, 0.5)
    seed = m.full.profile.copy()
    if np.isnan(scale):
        seed[len(seed) // 2] = np.nan
    else:
        seed *= scale
    with pytest.raises(NewtonDivergence, match="not finite"):
        solve_full(2, 3.0, 0.5, sine_spec, seed, m.full.grid)


class _Slope(PowerForce):
    """Power force whose derivative is replaced by fixed values."""

    def __init__(self, p, first, rest):
        super().__init__(p)
        self.first, self.rest = first, rest

    def fp(self, u, out=None):
        if np.ndim(u) == 0:
            return self.first
        out[...] = self.rest
        return out


def test_non_finite_jacobian_diverges():
    grid = RadialGrid.make(2, 10.0, 0.05)
    ops = DiscreteOperators(grid, 0.4, PotentialSpec.zero(), 3.0)
    seed = np.exp(-((grid.nodes - 5.0) ** 2))
    with pytest.raises(NewtonDivergence, match="Jacobian is not finite"):
        _newton_strong(ops, _Slope(3.0, 0.0, np.nan), seed, 1e-10, 80)


def test_singular_jacobian_diverges():
    # nodes 0, 0.5, 1 with V = 0, n = 2: the stencil gives the rows
    # [17 - f'0, -16, 0], [-2, 9 - f'1, -6], [0, 0, 1]; f' = (19, 25) makes
    # the diagonal (-2, -16), so the leading 2x2 block is exactly singular
    # and dgtsv meets a zero pivot without row interchange
    grid = RadialGrid.make(2, 1.0, 0.5)
    ops = DiscreteOperators(grid, 0.4, PotentialSpec.zero(), 3.0)
    seed = np.array([1.0, 0.5, 0.0])
    with pytest.raises(NewtonDivergence, match="singular"):
        _newton_strong(ops, _Slope(3.0, 19.0, 25.0), seed, 1e-10, 80)
