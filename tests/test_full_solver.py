"""Full radial solves, integral audits, truncation, and continuation."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import solve_banded

from shellwave.ansatz import AnsatzParams, build_z, grid_for
from shellwave.exceptions import (ConfigError, ConvergedToZero, NewtonDivergence,
                                  TruncationSaturated)
from shellwave.forces import PowerForce, TruncatedForce
import shellwave.full_solver as full_solver
from shellwave.full_solver import (
    MAX_ITER,
    SHRINK_BAND,
    _Collocation,
    _newton_step,
    _newton_strong,
    _sup,
    asymptotic_terms_check,
    continuation_in_eps,
    is_supercritical,
    member_seed,
    pohozaev_audit,
    pohozaev_refinement_check,
    solve_full,
    solve_member,
    tail_decay_check,
)
from shellwave.config import first_bracket
from shellwave.grids import ARRAYS_PER_NODE, DiscreteOperators, RadialGrid
from shellwave.potentials import PotentialSpec, eval_M, find_critical_radius

from conftest import SINE_C1, SINE_C2, SINE_SCHEDULE, SINE_T_BRACKET, banded_jacobian


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


class NestedWhereTruncatedForce:
    """TruncatedForce's formulas as nested np.where over every node: the
    power, the blend and the cap each evaluated everywhere."""

    def __init__(self, p, K):
        self.p, self.K = p, K
        self._slope = p * K ** (p - 1.0)
        self._cap = K**p + self._slope / 3.0

    def f(self, u):
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        tau = np.clip(a - self.K, 0.0, 1.0)
        blend = self.K**self.p + self._slope * (tau - tau**2 + tau**3 / 3.0)
        mag = np.where(a <= self.K, a ** (self.p - 1.0) * a,
                       np.where(a <= self.K + 1.0, blend, self._cap))
        return np.multiply(np.sign(u), mag)

    def fp(self, u):
        u = np.asarray(u, dtype=float)
        a = np.abs(u)
        tau = np.clip(a - self.K, 0.0, 1.0)
        return np.where(a <= self.K, self.p * a ** (self.p - 1.0),
                        np.where(a <= self.K + 1.0, self._slope * (1.0 - tau) ** 2, 0.0))


@pytest.mark.parametrize("p", [3.0, 6.0, 7.0 / 3.0])
def test_truncated_force_bitwise_against_nested_where(p):
    # the supercritical config's K = 3, on arrays, into out, and on the 0-d
    # and scalar values the collocation origin row passes
    tf, plain = TruncatedForce(p, 3.0), NestedWhereTruncatedForce(p, 3.0)
    edges = [0.0, -0.0, 3.0, -3.0, np.nextafter(3.0, 4.0), 4.0, -4.0, np.nextafter(4.0, 5.0)]
    u = np.concatenate([np.random.default_rng(5).uniform(-6.0, 6.0, 20_001), edges])
    below = np.linspace(-2.9, 2.9, 1001)
    for v in (u, below):
        for got, want in ((tf.f(v), plain.f(v)), (tf.fp(v), plain.fp(v)),
                          (tf.f(v, out=np.empty_like(v)), plain.f(v)),
                          (tf.fp(v, out=np.empty_like(v)), plain.fp(v))):
            assert got.tobytes() == want.tobytes()
    for x in [*edges, 0.5, -2.9, 3.5, -7.0, np.float64(1.7), np.asarray(-3.3), np.asarray(2.2)]:
        assert np.float64(tf.f(x)).tobytes() == np.float64(plain.f(x)).tobytes()
        assert np.float64(tf.fp(x)).tobytes() == np.float64(plain.fp(x)).tobytes()


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
    assert fine is m.full.audit  # reused, not recomputed
    assert coarse.h == 2.0 * fine.h
    assert min(ratios) >= 3.5
    assert fine.defect_1 < coarse.defect_1
    assert fine.defect_2 < coarse.defect_2


def _half_step_shrink(f, spec):
    """(d_1, d_2) shrink from h to h/2: f re-solved on the half-step grid
    from its interpolated profile."""
    half = RadialGrid.make(f.n, f.grid.s_max, f.grid.h / 2.0)
    g = solve_full(f.n, f.p, f.eps, spec, np.interp(half.nodes, f.grid.nodes, f.profile),
                   half, trunc_K=f.force_cap, polish=False)
    return f.pohozaev_1 / g.pohozaev_1, f.pohozaev_2 / g.pohozaev_2


def test_coarse_pair_certifies_second_order_like_the_half_step_pair(
        sine_family, supercritical_family, sine_spec, monkeypatch):
    # the 2h re-solve runs on the member's even-indexed nodes, and both grid
    # pairs read the h^2 law: (2h, h) 3.9997-3.9999, (h, h/2) 3.9999-4.0003;
    # the eps = 0.3 member's 2h grid has an odd interval count, so one node
    # past s_max is added, where the seed is zero
    members = (member_at(sine_family, 0.4), member_at(sine_family, 0.3),
               supercritical_family.members[0])
    for m in members:
        f = m.full
        (coarse,) = _refined_solves([m], sine_spec, monkeypatch)
        assert coarse.grid.h == 2.0 * f.grid.h
        even = f.grid.nodes[::2]
        assert coarse.grid.nodes[:even.size].tobytes() == even.tobytes()
        assert coarse.grid.size - even.size == (even.size - 1) % 2
        _, _, ratios = pohozaev_refinement_check(f, sine_spec)
        for shrink in (*ratios, *_half_step_shrink(f, sine_spec)):
            assert 3.9 <= shrink <= 4.1, (m.eps, f.n, shrink)


def test_shrink_rule_refuses_a_perturbed_profile(sine_family, sine_spec):
    # a smooth bump on the eps = 0.5 profile moves its own defects, and the
    # 2h re-solve converges back to the layer so its defects do not follow:
    # a bump of height 1e-3 makes them large and the shrink falls to about
    # (0.002, 0.02); one of 1e-7 lowers the first and the shrink rises to
    # about (4.83, 4.09).  Either way the solve stage's defects_shrink flag
    # reads False
    f = member_at(sine_family, 0.5).full
    s = f.grid.nodes
    ops = DiscreteOperators(f.grid, f.eps, sine_spec, f.p)
    lo, hi = SHRINK_BAND
    for height, outside in ((1e-3, lambda r: r < lo), (1e-7, lambda r: r > hi)):
        profile = f.profile + height * np.exp(-((s - f.peak_rho - 3.0) / 2.0) ** 2)
        bumped = dataclasses.replace(f, profile=profile, audit=pohozaev_audit(ops, profile))
        _, fine, ratios = pohozaev_refinement_check(bumped, sine_spec)
        assert fine is bumped.audit
        assert any(outside(r) for r in ratios), (height, ratios)


def test_asymptotic_terms_at_layer(sine_family, sine_spec):
    m = member_at(sine_family, 0.4)
    rows = asymptotic_terms_check(m.full, sine_spec)
    names = {r.name for r in rows}
    assert names == {"kinetic", "mass", "power", "v-moment"}
    for r in rows:
        assert not r.skipped
        assert r.rel_err <= 0.05, (r.name, r.rel_err)


def test_v_moment_skipped_where_v_prime_vanishes(sine_family):
    # V'(eps rho) = 0 at the layer degenerates the v-moment prediction,
    # which must be marked skipped rather than divided through; V = 0 makes
    # V' vanish everywhere
    m = member_at(sine_family, 0.4)
    rows = asymptotic_terms_check(m.full, PotentialSpec.zero())
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


@pytest.mark.parametrize("n, p", [(2, 3.0), (3, 6.0)])
def test_zero_seed_converges_to_zero(sine_spec, n, p):
    # supercritical with no trunc_K used to build a force capped at 0 and
    # raise a bare ValueError; subcritical it lost positivity
    grid = RadialGrid.make(n, 30.0, 0.01)
    with pytest.raises(ConvergedToZero, match="zero solution"):
        solve_full(n, p, 0.5, sine_spec, np.zeros(grid.size), grid)


def test_dimension_other_than_the_grids_is_refused(sine_family, sine_spec):
    # an n = 3 solve on an n = 2 grid returned the 2-D profile tagged n = 3
    f = member_at(sine_family, 0.5).full
    with pytest.raises(ConfigError, match="n=3 does not match the grid's dimension 2"):
        solve_full(3, 3.0, 0.5, sine_spec, f.profile, f.grid)


def test_stall_above_roundoff_floor_diverges(sine_family, sine_spec, monkeypatch):
    # one Newton step from the bare ansatz never reaches the tolerance or
    # the roundoff floor, so the accept rule must still refuse it
    m = member_at(sine_family, 0.5)
    seed = build_z(m.params, sine_spec, m.full.grid)
    monkeypatch.setattr(full_solver, "MAX_ITER", 1)
    with pytest.raises(NewtonDivergence):
        solve_full(2, 3.0, 0.5, sine_spec, seed, m.full.grid)


def test_supercritical_acceptance(supercritical_family):
    m = supercritical_family.members[0]
    f = m.full
    assert f.force_cap == 3.0
    assert f.profile.max() < f.force_cap
    assert not f.truncation_active


def test_supercritical_cap_doubling_bitwise(supercritical_family, sine_spec):
    m = supercritical_family.members[0]
    f = m.full
    seed = build_z(m.params, sine_spec, f.grid)
    a = solve_full(3, 6.0, 0.5, sine_spec, seed, f.grid, trunc_K=3.0)
    b = solve_full(3, 6.0, 0.5, sine_spec, seed, f.grid, trunc_K=6.0)
    assert np.max(np.abs(a.profile - b.profile)) <= 1e-12


def test_cap_below_the_solution_peak_saturates(sine_spec):
    # the n = 3, p = 6 solution at eps = 0.5 peaks at 1.33: with K = 1 the
    # truncated problem is not the original one, and the solve says so
    eps = 0.5
    t_eps = find_critical_radius(sine_spec, 3, 6.0, eps, (2.0, 12.0)).t_eps
    params = AnsatzParams.make(3, 6.0, eps, t_eps / eps, sine_spec, 0.5, 3.0)
    grid = grid_for(params, 2e-3)
    seed = build_z(params, sine_spec, grid)
    with pytest.raises(TruncationSaturated, match=r"peak 1\.33\d+ reached the force cap 1\.0"):
        solve_full(3, 6.0, eps, sine_spec, seed, grid, trunc_K=1.0)


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
    ops = DiscreteOperators(m.full.grid, 0.5, sine_spec, 3.0)
    audit = pohozaev_audit(ops, m.full.profile)
    assert audit.defect_1 == pytest.approx(m.full.pohozaev_1, rel=1e-12)
    assert audit.defect_2 == pytest.approx(m.full.pohozaev_2, rel=1e-12)
    assert audit.kinetic > 0 and audit.potential > 0


def test_audits_reuse_the_solve_operators(sine_family, sine_spec, monkeypatch):
    # solve_full audits on its own operators and asymptotic_terms_check
    # reads the solve's integrals, so neither builds another DiscreteOperators
    m = member_at(sine_family, 0.5)
    built = []
    init = DiscreteOperators.__init__

    def counting(self, *args, **kwargs):
        built.append(args[0])
        init(self, *args, **kwargs)

    monkeypatch.setattr(DiscreteOperators, "__init__", counting)
    full = solve_full(2, 3.0, m.eps, sine_spec, m.full.profile, m.full.grid)
    assert built == [m.full.grid]
    rows = asymptotic_terms_check(full, sine_spec)
    assert len(built) == 1
    # fresh operators on the same grid give the same audit
    ops = DiscreteOperators(full.grid, m.eps, sine_spec, 3.0)
    public = pohozaev_audit(ops, full.profile)
    assert (public.defect_1, public.defect_2) == (full.pohozaev_1, full.pohozaev_2)
    assert public == full.audit
    # the rows' integrals are the operators' quadratures of the solution
    u, s = full.profile, full.grid.nodes
    measured = {r.name: r.measured for r in rows}
    assert measured["mass"] == m.eps**2 * ops.quad(u * u)
    assert measured["v-moment"] == m.eps**5 * ops.quad(
        s * sine_spec.Vp(m.eps * s) * (u * u))


def test_asymptotic_terms_take_no_new_integrals(sine_family, sine_spec, monkeypatch):
    # the rows read the integrals solve_full took: no derivative of u again
    m = member_at(sine_family, 0.4)
    want = asymptotic_terms_check(m.full, sine_spec)

    def refuse(*args, **kwargs):
        raise AssertionError("deriv4 called")

    monkeypatch.setattr(full_solver, "deriv4", refuse)
    assert asymptotic_terms_check(m.full, sine_spec) == want
    assert [r.measured for r in want] == [
        m.full.audit.kinetic, m.eps**2 * m.full.mass_weighted,
        m.full.audit.potential, 2.0 * m.full.audit.v_moment]


def test_newton_work_count(sine_family):
    # once the iterate is acceptable a rejected full step ends the loop; the
    # loop that repeated failed line searches spent 66 residual evaluations
    # on this member, and halving down to an unchanged u spent 8
    f = member_at(sine_family, 0.5).full
    assert f.residual_evals <= 5
    assert f.newton_iters >= 1
    assert f.newton_stop == "roundoff"
    assert f.residual_max <= max(1e-10 * (1.0 + f.profile.max() ** 3),
                                 f.roundoff_floor)
    assert f.roundoff_floor == 2.0 * np.finfo(float).eps * f.profile.max() / f.grid.h**2


def test_strong_residual_order_two():
    # manufactured solution: plug a smooth profile into the operator on two
    # grids; the residual against the analytic right-hand side must drop 4x
    spec = PotentialSpec.sine(amplitude=0.5)
    eps, p, n = 0.4, 3.0, 2

    def residual_sup(h):
        grid = RadialGrid.make(n, 30.0, h)
        ops = DiscreteOperators(grid, eps, spec, p)
        s = grid.nodes
        u = np.exp(-((s - 15.0) / 2.0) ** 2)
        # analytic L[u] = -u'' - (n-1)/s u' + w u - u^3
        up = -2.0 * (s - 15.0) / 4.0 * u
        upp = (-0.5 + ((s - 15.0) / 2.0) ** 2) * u
        w = 1.0 + eps**2 * spec.V(eps * s)
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = np.where(s > 0, (n - 1) / np.where(s > 0, s, 1.0) * up, 0.0)
        lu = -upp - curv + w * u - u**3
        res = _Collocation(grid, ops.w, ops.force).residual(u) - lu
        return np.max(np.abs(res[1:-1]))

    r1, r2 = residual_sup(0.02), residual_sup(0.01)
    assert r2 <= r1 / 3.5


def test_solve_strong_linear_manufactured():
    spec = PotentialSpec.zero()
    grid = RadialGrid.make(2, 40.0, 0.01)
    ops = DiscreteOperators(grid, 0.4, spec, 3.0)
    s = grid.nodes
    u_exact = np.exp(-((s - 20.0) / 3.0) ** 2)
    colloc = _Collocation(grid, ops.w, ops.force)
    # the residual includes -u^3; add it back to isolate the linear part,
    # whose matrix is the Jacobian at zero
    rhs = colloc.residual(u_exact) + u_exact**3
    ab = banded_jacobian(colloc, np.zeros_like(rhs))
    u = solve_banded((1, 1), ab, rhs)
    assert np.max(np.abs(u - u_exact)) < 1e-12


def test_newton_step_matches_solve_banded(sine_family, sine_spec):
    m = member_at(sine_family, 0.5)
    grid = m.full.grid
    ops = DiscreteOperators(grid, 0.5, sine_spec, 3.0)
    colloc = _Collocation(grid, ops.w, ops.force)
    u = build_z(m.params, sine_spec, grid)
    R = colloc.residual(u)
    want = solve_banded((1, 1), banded_jacobian(colloc, u), R)
    m = grid.size
    got = _newton_step(colloc, u, R, np.empty(m - 1), np.empty(m), np.empty(m - 1))
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
        _newton_strong(_Collocation(grid, ops.w, _Slope(3.0, 0.0, np.nan)), seed, 1e-10,
                       True)


def test_singular_jacobian_diverges():
    # nodes 0, 0.5, 1 with V = 0, n = 2: the stencil gives the rows
    # [17 - f'0, -16, 0], [-2, 9 - f'1, -6], [0, 0, 1]; f' = (19, 25) makes
    # the diagonal (-2, -16), so the leading 2x2 block is exactly singular
    # and dgtsv meets a zero pivot without row interchange
    grid = RadialGrid.make(2, 1.0, 0.5)
    ops = DiscreteOperators(grid, 0.4, PotentialSpec.zero(), 3.0)
    seed = np.array([1.0, 0.5, 0.0])
    with pytest.raises(NewtonDivergence, match="singular"):
        _newton_strong(_Collocation(grid, ops.w, _Slope(3.0, 19.0, 25.0)), seed, 1e-10,
                       True)


def _halving_newton_strong(colloc, u, tol_coeff):
    """The full-solve Newton loop before the settled-iterate rule: every
    line search halves t until Armijo holds or the step stops moving u."""
    u[-1] = 0.0
    R, Rc, cand, diag = (np.empty_like(u) for _ in range(4))
    iters = 0
    with np.errstate(over="ignore", invalid="ignore"):
        rmax = _sup(colloc.residual(u, out=R))
        evals = 1
        while iters < MAX_ITER:
            thr = tol_coeff * (1.0 + _sup(u) ** colloc.force.p)
            if rmax <= 0.02 * thr:
                break
            du = _newton_step(colloc, u, R, Rc[:-1], diag, cand[:-1])
            t, ok = 1.0, False
            while t > 1e-8:
                np.multiply(du, t, out=cand)
                np.subtract(u, cand, out=cand)
                if np.array_equal(cand, u):
                    break
                rc = _sup(colloc.residual(cand, out=Rc))
                evals += 1
                if rc <= (1.0 - 1e-4 * t) * rmax:
                    ok = True
                    break
                t /= 2.0
            if not ok:
                break
            u, cand = cand, u
            R, Rc = Rc, R
            rmax = rc
            iters += 1
    floor = 2.0 * np.finfo(float).eps * _sup(u) / colloc.grid.h**2
    return u, rmax, iters, evals, floor, "halving"


@pytest.fixture(scope="module")
def halving_families(sine_spec):
    """The shipped families solved by the halving loop."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(full_solver, "_newton_strong",
                      lambda colloc, u, tol_coeff, polish:
                      _halving_newton_strong(colloc, u, tol_coeff))
        sine = continuation_in_eps(
            2, 3.0, sine_spec, SINE_SCHEDULE, SINE_C1, SINE_C2, SINE_T_BRACKET,
            gamma=0.6)
        sup = continuation_in_eps(
            3, 6.0, sine_spec, (0.5,), 0.5, 3.0, (2.0, 12.0), trunc_K=3.0)
    return sine, sup


def test_settled_stop_matches_halving_loop(sine_family, supercritical_family,
                                           halving_families):
    # the halving that follows a rejected full step of an acceptable iterate
    # only finds noise-level decreases, so stopping there moves nothing
    # beyond roundoff
    pairs = list(zip(sine_family.members, halving_families[0].members))
    pairs += list(zip(supercritical_family.members, halving_families[1].members))
    assert len(pairs) == len(SINE_SCHEDULE) + 1
    for new, old in pairs:
        a, b = new.full, old.full
        assert b.newton_stop == "halving" and a.newton_stop == "roundoff"
        assert new.rho_star == old.rho_star
        assert np.max(np.abs(a.profile - b.profile)) <= 1e-13 * np.max(b.profile)
        assert abs(a.pohozaev_1 - b.pohozaev_1) <= 1e-14
        assert abs(a.pohozaev_2 - b.pohozaev_2) <= 1e-14
        assert a.residual_evals <= b.residual_evals
    sup_new, sup_old = pairs[-1][0].full, pairs[-1][1].full
    assert sup_new.profile.tobytes() == sup_old.profile.tobytes()


def _refined_solves(members, spec, monkeypatch):
    """The re-solves pohozaev_refinement_check makes for members."""
    refined = []
    solve = full_solver.solve_full

    def recording(*args, **kwargs):
        refined.append(solve(*args, **kwargs))
        return refined[-1]

    monkeypatch.setattr(full_solver, "solve_full", recording)
    for m in members:
        pohozaev_refinement_check(m.full, spec)
    monkeypatch.setattr(full_solver, "solve_full", solve)
    assert len(refined) == len(members)
    return refined


def _accepted(f):
    thr = 1e-10 * (1.0 + f.profile.max() ** f.p)
    return f.residual_max <= max(thr, f.roundoff_floor)


def test_family_newton_work(sine_family, sine_spec, monkeypatch):
    # the halving loop spent 87 evaluations on the coarse members and up to
    # 20 on one half-step refinement re-solve; seeding members after the
    # first from the previous profile shifted by the change in rho* spent
    # 32.  The 2h re-solve's first full step is acceptable, as the half-step
    # one's was (polishing that took 4-5)
    assert sum(m.full.residual_evals for m in sine_family.members) <= 27
    for f in _refined_solves(sine_family.members, sine_spec, monkeypatch):
        assert f.residual_evals <= 2, (f.eps, f.residual_evals)
        assert f.newton_stop == "acceptable" and _accepted(f)


def test_supercritical_resolve_stops_at_first_acceptable(
        supercritical_family, sine_spec, monkeypatch):
    # one step leaves the 2h grid's residual above the accept rule, so the
    # re-solve takes a second step and stops there
    (f,) = _refined_solves(supercritical_family.members, sine_spec, monkeypatch)
    assert (f.newton_iters, f.residual_evals) == (2, 3)
    assert f.newton_stop == "acceptable" and _accepted(f)
    monkeypatch.setattr(full_solver, "MAX_ITER", 1)
    with pytest.raises(NewtonDivergence, match="stayed above"):
        pohozaev_refinement_check(supercritical_family.members[0].full, sine_spec)


def test_resolve_from_converged_profile(sine_family, sine_spec):
    # an acceptable seed costs one residual and one rejected full step
    for m in sine_family.members:
        f = solve_full(2, 3.0, m.eps, sine_spec, m.full.profile, m.full.grid)
        assert f.residual_evals <= 2, (m.eps, f.residual_evals)
        assert f.profile.tobytes() == m.full.profile.tobytes()
        assert f.audit == m.full.audit


@pytest.mark.parametrize("delta", [-6e-8, -3e-8, 3e-8, 6e-8])
def test_member_work_stable_under_seed_shift(sine_family, sine_spec, delta):
    # a seed from a neighbour's profile shifted to a predicted radius, like
    # this eps = 0.35 profile shifted by the change in rho* to the eps = 0.3
    # member; moving that shift by the last bits of rho* took the halving
    # loop from 10 to 51 residual evaluations.  Such a seed is far, so its
    # approach runs on the coarse grid: 6-8 evaluations without it
    prev, m = sine_family.members[-2], sine_family.members[-1]
    shift = m.rho_star - prev.rho_star + delta * m.rho_star
    seed = np.interp(m.full.grid.nodes - shift, prev.full.grid.nodes,
                     prev.full.profile, left=0.0, right=0.0)
    f = solve_full(2, 3.0, m.eps, sine_spec, seed, m.full.grid)
    assert f.residual_evals == 4
    assert max(f.pohozaev_1, f.pohozaev_2) <= 1e-6


@pytest.mark.parametrize("delta", [-1e-15, 1e-15, -1e-14, 1e-14, -1e-13, 1e-13, -1e-12,
                                   1e-12, 1e-11, 1e-10, 1e-9, 1e-8, -1e-7, 1e-7])
def test_polish_ignores_the_seeds_last_bits(sine_family, sine_spec, delta):
    # the eps = 0.3 member seeded at rho*(1 + delta): an Armijo test on
    # max|R| at the roundoff floor stopped 8 of these 14 solves one step
    # short, with the defects 1.49e-12 off
    m = sine_family.members[-1]
    seed = member_seed(m.params.with_rho(m.rho_star * (1.0 + delta)), sine_spec,
                       m.reduced, m.full.grid)
    f = solve_full(2, 3.0, m.eps, sine_spec, seed, m.full.grid)
    assert f.newton_stop == "roundoff"
    assert abs(f.pohozaev_1 - m.full.pohozaev_1) <= 1e-14
    assert abs(f.pohozaev_2 - m.full.pohozaev_2) <= 1e-14


@pytest.fixture(scope="module")
def escaping_member(sine_spec):
    """The eps = 0.16 member of the branch whose t grows like 1/eps^2."""
    res = continuation_in_eps(2, 3.0, sine_spec, (0.16,), SINE_C1, SINE_C2, (27.5, 28.5),
                              gamma=0.6)
    assert res.completed, res.failure
    return res.members[0]


def test_polish_takes_at_most_one_step(sine_family, supercritical_family, escaping_member,
                                       sine_spec):
    # polishing until a full step failed Armijo took up to two steps more
    # than the first acceptable iterate (eps = 0.45)
    for m in (*sine_family.members, *supercritical_family.members, escaping_member):
        f = m.full
        first = solve_full(f.n, f.p, f.eps, sine_spec,
                           member_seed(m.params, sine_spec, m.reduced, f.grid), f.grid,
                           trunc_K=f.force_cap, polish=False)
        assert f.newton_iters <= first.newton_iters + 1, m.eps


def test_every_member_seeded_from_its_own_reduction(sine_family, sine_spec):
    # members after the first used to be seeded from the previous profile
    # shifted by the change in rho*
    for m in sine_family.members:
        seed = member_seed(m.params, sine_spec, m.reduced, m.full.grid)
        f = solve_full(2, 3.0, m.eps, sine_spec, seed, m.full.grid)
        assert f.profile.tobytes() == m.full.profile.tobytes(), m.eps


def test_default_solve_polishes_the_first_acceptable_iterate(
        sine_family, supercritical_family, sine_spec):
    # without the option every member polishes on to a failed full step
    # and keeps its bits: the default solve is its first acceptable
    # iterate followed by the full steps from there
    cases = [(m, None) for m in sine_family.members]
    cases.append((supercritical_family.members[0], 3.0))
    for m, trunc_K in cases:
        f = m.full
        seed = member_seed(m.params, sine_spec, m.reduced, f.grid)
        first = solve_full(f.n, f.p, f.eps, sine_spec, seed, f.grid,
                           trunc_K=trunc_K, polish=False)
        assert first.newton_stop == "acceptable" and _accepted(first)
        polished = solve_full(f.n, f.p, f.eps, sine_spec, first.profile, f.grid,
                              trunc_K=trunc_K)
        assert f.newton_stop == polished.newton_stop == "roundoff"
        assert polished.profile.tobytes() == f.profile.tobytes(), m.eps
        assert first.newton_iters + polished.newton_iters == f.newton_iters


# ---- coarse start --------------------------------------------------------


def _cold_seed(spec, eps, h=2e-3, rho=None):
    """z at rho (default t_eps/eps, as the audit workload seeds) on its own
    grid of step h."""
    if rho is None:
        rho = find_critical_radius(spec, 2, 3.0, eps, SINE_T_BRACKET).t_eps / eps
    params = AnsatzParams.make(2, 3.0, eps, rho, spec, SINE_C1, SINE_C2, gamma=0.6,
                               eps_max=SINE_SCHEDULE[0])
    grid = grid_for(params, h)
    return build_z(params, spec, grid), grid


def _without_coarse_start(*args, **kwargs):
    """solve_full with no seed counted far."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(full_solver, "FAR", np.inf)
        return solve_full(*args, **kwargs)


@pytest.fixture(scope="module")
def cold_solves(sine_spec):
    """Each sine member's cold solve, with the coarse start and without."""
    out = []
    for eps in SINE_SCHEDULE:
        seed, grid = _cold_seed(sine_spec, eps)
        out.append((solve_full(2, 3.0, eps, sine_spec, seed, grid),
                    _without_coarse_start(2, 3.0, eps, sine_spec, seed, grid)))
    return out


def test_coarse_start_lands_on_the_same_solution(cold_solves):
    # measured: profiles within 3.1e-16 max u, defects within 3.5e-16
    for a, b in cold_solves:
        assert np.max(np.abs(a.profile - b.profile)) <= 1e-13 * np.max(b.profile), a.eps
        assert abs(a.pohozaev_1 - b.pohozaev_1) <= 1e-14
        assert abs(a.pohozaev_2 - b.pohozaev_2) <= 1e-14
        assert a.newton_stop == b.newton_stop == "roundoff"


def test_coarse_start_work_count(cold_solves):
    # from the bare seed the fine loop took 5-8 steps and 6-18 evaluations
    for a, b in cold_solves:
        assert a.coarse_iters >= 1 and b.coarse_iters == 0
        assert a.newton_iters <= 3 and a.residual_evals <= 4, \
            (a.eps, a.newton_iters, a.residual_evals)
        assert b.newton_iters >= 5


def test_near_seeds_skip_the_coarse_start(sine_family, supercritical_family, sine_spec):
    # every member's own seed and every converged profile is near: the
    # solve is the one without the coarse start, bit for bit
    for m in (*sine_family.members, *supercritical_family.members):
        f = m.full
        assert f.coarse_iters == 0
        seed = member_seed(m.params, sine_spec, m.reduced, f.grid)
        b = _without_coarse_start(f.n, f.p, f.eps, sine_spec, seed, f.grid,
                                  trunc_K=f.force_cap)
        assert f.profile.tobytes() == b.profile.tobytes(), m.eps
        again = solve_full(f.n, f.p, f.eps, sine_spec, f.profile, f.grid,
                           trunc_K=f.force_cap)
        assert again.coarse_iters == 0
        assert again.profile.tobytes() == f.profile.tobytes(), m.eps


def test_failed_coarse_loop_starts_from_the_seed(cold_solves, sine_spec, monkeypatch):
    seed, grid = _cold_seed(sine_spec, 0.3)
    real = full_solver._newton_strong

    def coarse_fails(colloc, *args, **kwargs):
        if colloc.grid is not grid:
            raise NewtonDivergence("the coarse loop failed")
        return real(colloc, *args, **kwargs)

    monkeypatch.setattr(full_solver, "_newton_strong", coarse_fails)
    f = solve_full(2, 3.0, 0.3, sine_spec, seed, grid)
    b = cold_solves[-1][1]
    assert f.coarse_iters == 0
    assert f.profile.tobytes() == b.profile.tobytes()
    assert (f.newton_iters, f.residual_evals, f.audit) == \
        (b.newton_iters, b.residual_evals, b.audit)


@pytest.mark.parametrize("eps, rho, h", [(0.5, 17.0, 0.02), (0.4, 21.0, 0.01),
                                         (0.3, 29.7, 0.005), (0.3, None, 2e-3)])
def test_coarse_grid_is_every_sixteenth_node(sine_spec, monkeypatch, eps, rho, h):
    # a power-of-two step scales without rounding, so the coarse nodes are
    # the fine ones and reading w there is evaluating V there; on these
    # coarser grids the coarse step reaches 0.32 and the peak still lands
    # where the solve without the coarse start puts it
    seed, grid = _cold_seed(sine_spec, eps, h, rho)
    seen = []
    real = full_solver._newton_strong

    def recording(colloc, *args, **kwargs):
        seen.append((colloc.grid, colloc.w))
        return real(colloc, *args, **kwargs)

    monkeypatch.setattr(full_solver, "_newton_strong", recording)
    f = solve_full(2, 3.0, eps, sine_spec, seed, grid)
    (coarse, w), (fine, _) = seen
    assert fine is grid and f.coarse_iters >= 1
    k = (grid.size - 1) // 16
    k -= k % 2
    assert coarse.h == 16 * grid.h and coarse.size == k + 1
    assert coarse.nodes.tobytes() == grid.nodes[:16 * k + 1:16].tobytes()
    assert w.tobytes() == DiscreteOperators(coarse, eps, sine_spec, 3.0).w.tobytes()
    monkeypatch.setattr(full_solver, "_newton_strong", real)
    b = _without_coarse_start(2, 3.0, eps, sine_spec, seed, grid)
    assert abs(f.peak_rho - b.peak_rho) <= 1e-11 * b.peak_rho
    assert f.newton_iters < b.newton_iters


def test_far_solve_builds_one_scheme_per_grid(sine_spec, monkeypatch):
    # the far probe's scheme is the coarse loop's, and the fine loop's is
    # built once
    seed, grid = _cold_seed(sine_spec, 0.5, 0.02, 17.0)
    built = []

    class Recorded(_Collocation):
        def __init__(self, *args):
            super().__init__(*args)
            built.append(self.grid)

    monkeypatch.setattr(full_solver, "_Collocation", Recorded)
    f = solve_full(2, 3.0, 0.5, sine_spec, seed, grid)
    assert f.coarse_iters >= 1
    fine, coarse = built
    assert fine is grid and coarse.h == 16 * grid.h


def _peak_arrays(fn, size):
    """Peak traced memory of fn() above its start, in float64 arrays of size."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        fn()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return (peak - base) / (8.0 * size)


def test_full_solve_holds_few_grid_sized_arrays(sine_family, sine_spec):
    # the eps = 0.3 member's grid, built afresh so no quadrature factor is
    # cached on it, seeded with the member's own profile; the memory peak
    # is the Newton loop's (u, R, Rc, cand, the Jacobian's diagonal, w and
    # the collocation workspace's curv and fwd); the audit re-solves on the
    # 2h grid, about half the nodes, so its peak (the same arrays plus the
    # seed and the 2h grid's nodes) is about 5 of the member's grid
    full = member_at(sine_family, 0.3).full
    grid = RadialGrid.make(2, full.grid.s_max, full.grid.h)
    assert np.array_equal(grid.nodes, full.grid.nodes)
    seed = full.profile.copy()
    solve = _peak_arrays(lambda: solve_full(2, 3.0, 0.3, sine_spec, seed, grid),
                         grid.size)
    assert solve <= 9.0, solve
    audit = _peak_arrays(lambda: pohozaev_refinement_check(full, sine_spec),
                         grid.size)
    assert audit <= 5.1, audit


@pytest.mark.parametrize("eps", [0.5, 0.3])
def test_cold_solve_keeps_no_copy_of_its_start(sine_spec, eps):
    # the Newton loop overwrites the coarse start's interpolated array, so
    # a cold solve peaks at the near seed's 8.14 arrays (9.14 with a copy)
    seed, grid = _cold_seed(sine_spec, eps)
    out = []
    peak = _peak_arrays(lambda: out.append(solve_full(2, 3.0, eps, sine_spec, seed, grid)),
                        grid.size)
    assert out[0].coarse_iters >= 1
    assert peak <= 8.2, peak


def test_member_solve_holds_at_most_the_node_budgets_arrays(sine_family, sine_spec):
    # the eps = 0.3 member solved again from its own ansatz and bracket has
    # the continuation's bits; its peak is the full solve's 8.1 arrays plus
    # the seed, the grid's nodes and the rho* search's smaller grid (10.3
    # measured), which grids.ARRAYS_PER_NODE must cover
    m = member_at(sine_family, 0.3)
    out = []
    peak = _peak_arrays(lambda: out.append(solve_member(
        m.params.with_rho(m.bracket[0]), sine_spec, m.bracket, trunc_K=None,
        h_reduce=0.02, h_solve=2e-3, tol_coeff=1e-10)), m.full.grid.size)
    assert peak <= ARRAYS_PER_NODE, peak
    assert out[0].full.profile.tobytes() == m.full.profile.tobytes()


def test_first_member_bracket_is_clipped_to_the_window(sine_spec):
    # at eps = 0.17 the shipped t_bracket starts below the configuration
    # window: the rho* search runs on the clipped bracket and names its own
    # cause instead of leaving the window
    res = continuation_in_eps(2, 3.0, sine_spec, [0.17], SINE_C1, SINE_C2, SINE_T_BRACKET,
                              gamma=0.6)
    lo, hi = first_bracket(0.17, SINE_C1, SINE_C2, SINE_T_BRACKET)
    assert lo == SINE_C1 / (2.0 * 0.17**3) > SINE_T_BRACKET[0] / 0.17
    assert (res.members, res.failed_eps) == ((), 0.17)
    assert res.failure.startswith("NoSignChange") and f"[{lo!r}, {hi!r}]" in res.failure
    # a bracket the window leaves empty is a config error naming eps
    with pytest.raises(ConfigError, match="t_bracket: window empty at eps=0.17"):
        continuation_in_eps(2, 3.0, sine_spec, [0.17], SINE_C1, SINE_C2, (7.5, 8.0))


def test_later_member_outside_the_window_keeps_the_family(sine_spec):
    # with C1 = 2 the window's lower end at eps = 0.3 is 37.04, above the
    # re-centred bracket (8.635 + 1.5)/0.3 = 33.78: the family ends there
    # with the cause named and keeps the members at eps = 0.5 and 0.35
    res = continuation_in_eps(2, 3.0, sine_spec, [0.5, 0.35, 0.3], C1=2.0, C2=1.5,
                              t_bracket=SINE_T_BRACKET, gamma=0.6)
    assert (res.completed, res.failed_eps) == (False, 0.3)
    assert [m.eps for m in res.members] == [0.5, 0.35]
    assert res.failure == (
        "OutOfConfigurationSet: t in [7.13498, 10.135] leaves no rho in the "
        "configuration window [37.037, 111.111] at eps=0.3")


def test_branch_switch_ends_the_continuation(sine_spec):
    # started on the partner root (M'' > 0) at eps = 0.3, the re-centred
    # window at eps = 0.29 also holds the shipped branch's root, which the
    # rho* search takes
    res = continuation_in_eps(2, 3.0, sine_spec, (0.3, 0.29, 0.28), SINE_C1, SINE_C2,
                              (9.9, 10.6), gamma=0.6)
    assert not res.completed
    assert res.failed_eps == 0.29
    [m] = res.members
    assert (m.branch_sign, round(m.t_value, 3)) == (1, 10.196)
    assert res.failure.startswith("BranchSwitch: t=9.04613 has sign(M'')=-1")
    assert "t=10.196 and sign(M'')=+1" in res.failure


def test_shipped_families_keep_one_branch(sine_family, supercritical_family, sine_spec):
    for family in (sine_family, supercritical_family):
        assert family.completed
        for m in family.members:
            n, p = m.full.n, m.full.p
            curvature = eval_M(sine_spec, n, p, m.eps, m.t_value).Mpp
            assert m.branch_sign == np.sign(curvature) == -1
