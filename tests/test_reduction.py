"""Projected solves, the bordered spectral gap, the energy scan, and rho*."""

import dataclasses

import numpy as np
import pytest

from shellwave import reduction
from shellwave.ansatz import AnsatzParams, build_z, build_zdot, grid_for
from shellwave.exceptions import (ConfigError, HessianSingular, NewtonDivergence, NoSignChange,
                                  OutOfConfigurationSet)
from shellwave.grids import (
    DiscreteOperators,
    RadialGrid,
    bordered_solve,
    constrained_min_eig,
    tridiag_mul,
)
from shellwave.potentials import PotentialSpec, _illinois, find_critical_radius
from shellwave.reduction import (
    calibrate_gamma,
    find_rho_star,
    reduced_energy_scan,
    solve_projected,
)

EPS, RHO = 0.4, 21.0


@pytest.fixture(scope="module")
def setup():
    spec = PotentialSpec.sine()
    params = AnsatzParams.make(2, 3.0, EPS, RHO, spec, 0.5, 1.5,
                               gamma=0.6, eps_max=0.5)
    grid = grid_for(params, 0.02, rho_max=params.omega_window[1])
    return params, spec, grid


def test_orthogonality_both_modes(setup):
    params, spec, grid = setup
    ops = DiscreteOperators(grid, EPS, spec, 3.0)
    zdot = build_zdot(params, spec, grid)
    nzd = ops.norm(zdot)
    for mode in ("newton", "fixed-point"):
        sol = solve_projected(params, spec, grid, mode=mode)
        assert sol.converged
        rel = abs(ops.inner(sol.omega, zdot)) / (nzd * max(ops.norm(sol.omega), 1e-30))
        assert rel <= 1e-12


def test_modes_agree(setup):
    params, spec, grid = setup
    ops = DiscreteOperators(grid, EPS, spec, 3.0)
    a = solve_projected(params, spec, grid, mode="newton")
    b = solve_projected(params, spec, grid, mode="fixed-point")
    assert ops.norm(a.omega - b.omega) <= 1e-8
    assert abs(a.alpha - b.alpha) <= 1e-8


def test_envelope_with_calibrated_gamma(setup):
    params, spec, grid = setup
    ops = DiscreteOperators(grid, EPS, spec, 3.0)
    gamma = calibrate_gamma(params, spec)
    sol = solve_projected(params, spec, grid)
    z = build_z(params, spec, grid)
    assert ops.norm(sol.omega) <= gamma * EPS**3 * ops.norm(z)


def test_fixed_point_contracts(setup):
    params, spec, grid = setup
    sol = solve_projected(params, spec, grid, mode="fixed-point")
    ratios = sol.contraction_ratios
    assert len(ratios) >= 1
    assert max(ratios) < 0.5


def test_residual_small(setup):
    params, spec, grid = setup
    sol = solve_projected(params, spec, grid)
    assert sol.residual_norm <= 1e-10


def _gap_pencil(params, spec, grid):
    """Operators, z, the banded J''(z) and the border G [z, zdot] of the
    projected Hessian's spectral gap: the smallest eigenvalue of
    J''(z) v = theta G v on the G-orthogonal complement of z and zdot."""
    ops = DiscreteOperators(grid, params.eps, spec, params.p)
    z = build_z(params, spec, grid)
    border = np.column_stack([ops.gram_mul(z), ops.gram_mul(build_zdot(params, spec, grid))])
    return ops, z, ops.hess_banded(z), border


def test_spectral_gap_dense_vs_sparse(setup, complement_min_dense):
    params, spec, _ = setup
    coarse = grid_for(params, 0.25, rho_max=params.rho + 10.0)
    ops, _, hess, border = _gap_pencil(params, spec, coarse)
    dense = complement_min_dense(hess, ops.gram_banded, border)
    sparse = constrained_min_eig(hess, ops.gram_banded, border)
    assert sparse == pytest.approx(dense, rel=1e-6)


def test_spectral_gap_properties(setup):
    params, spec, _ = setup
    grid = grid_for(params, 0.04, rho_max=params.rho + 25.0)
    ops, z, hess, border = _gap_pencil(params, spec, grid)
    complement_min = constrained_min_eig(hess, ops.gram_banded, border)
    form_zz = float(z @ tridiag_mul(hess, z))
    form_zz_ref = (1.0 - params.p) * ops.quad(np.abs(z) ** (params.p + 1))
    assert complement_min >= 0.02
    assert form_zz < 0.0
    assert form_zz == pytest.approx(form_zz_ref, rel=0.05)
    ops, _, hess, border = _gap_pencil(
        params, spec, RadialGrid.make(grid.n, grid.s_max, grid.h / 2.0, grid.s_min))
    fine = constrained_min_eig(hess, ops.gram_banded, border)
    assert fine >= complement_min - 1e-6


def test_scan_needs_enough_samples(setup):
    params, spec, _ = setup
    with pytest.raises(ConfigError):
        reduced_energy_scan(params, spec, 7)


def test_scan_alpha_sign_change(setup):
    params, spec, _ = setup
    curve = reduced_energy_scan(params, spec, 9)
    rho = np.asarray(curve.rho)
    assert np.all(np.diff(rho) > 0)
    lo, hi = params.omega_window
    assert rho[0] >= lo - 1e-9 and rho[-1] <= hi + 1e-9
    alpha = np.asarray(curve.alpha)
    ok = np.asarray(curve.ok, dtype=bool)
    pairs = [(alpha[i], alpha[i + 1]) for i in range(len(alpha) - 1)
             if ok[i] and ok[i + 1]]
    assert any(a * b < 0 for a, b in pairs)


def test_find_rho_star_quality(setup):
    params, spec, grid = setup
    res = find_rho_star(params, spec, (7.5 / EPS, 9.5 / EPS))
    ops = DiscreteOperators(grid, EPS, spec, 3.0)
    zdot = build_zdot(params.with_rho(res.rho_star), spec, grid)
    assert abs(res.alpha) <= 1e-9 * ops.norm(zdot)
    # the multiplier root tracks the critical radius of the weight
    crit = find_critical_radius(spec, 2, 3.0, EPS, (7.5, 9.5))
    assert abs(EPS * res.rho_star - crit.t_eps) <= 0.1 * crit.t_eps
    assert res.dpsi_ok
    assert abs(res.dpsi_drho) <= 1e-6 * abs(res.psi)
    lo, hi = params.omega_window
    assert lo < res.rho_star < hi


def test_find_rho_star_no_sign_change(setup):
    params, spec, _ = setup
    with pytest.raises(NoSignChange):
        find_rho_star(params, spec, (22.0, 23.0))


def _plain_projected_newton(params, spec, grid, tol=1e-10, max_iter=60):
    """The projected Newton solve written out plainly: its own operators,
    a residual evaluated at the top of every iteration and again for the
    returned iterate, the best iterate kept, and a forced short step after
    a failed line search.  Returns (omega, alpha, residual, loop iterations,
    accepted steps, accepted steps before the first failed line search)."""
    ops = DiscreteOperators(grid, params.eps, spec, params.p)
    z = build_z(params, spec, grid)
    zdot = build_zdot(params, spec, grid)
    gzd = ops.gram_mul(zdot)
    nzd2 = float(np.dot(zdot, gzd))
    nzd = np.sqrt(nzd2)

    def measure(omega, alpha):
        r1 = ops.grad(z + omega) - alpha * gzd
        return r1, ops.dual_norm(r1) + abs(float(np.dot(gzd, omega))) / nzd

    def project(omega):
        return omega - (float(np.dot(gzd, omega)) / nzd2) * zdot

    omega = np.zeros(len(z))
    alpha = 0.0
    best = (omega, alpha, np.inf)
    stall = accepted = 0
    at_first_failure = None
    for it in range(max_iter):
        r1, res = measure(omega, alpha)
        if res < best[2]:
            best, stall = (omega.copy(), alpha, res), 0
        else:
            stall += 1
        if res <= tol or stall >= 3:
            break
        step = bordered_solve(ops.hess_banded(z + omega), -gzd, gzd,
                              np.concatenate([r1, [float(np.dot(gzd, omega))]]))
        t, ok = 1.0, False
        while t > 1e-8:
            _, cres = measure(project(omega - t * step[:-1]), alpha - t * step[-1])
            if cres <= (1.0 - 1e-4 * t) * res:
                ok = True
                break
            t /= 2
        if ok:
            accepted += 1
        else:
            stall += 1
            if at_first_failure is None:
                at_first_failure = accepted
        omega = project(omega - t * step[:-1])
        alpha = alpha - t * step[-1]
    omega, alpha, _ = best
    if at_first_failure is None:
        at_first_failure = accepted
    return omega, alpha, measure(omega, alpha)[1], it + 1, accepted, at_first_failure


def test_cold_projected_solve_bitwise_with_shared_ops():
    spec = PotentialSpec.sine()
    params = AnsatzParams.make(2, 3.0, 0.5, 16.0, spec, 0.5, 1.5,
                               gamma=0.6, eps_max=0.5)
    grid = grid_for(params, 0.02, rho_max=params.omega_window[1])
    ops = DiscreteOperators(grid, 0.5, spec, 3.0)
    # rho = 2.0 sits on the window edge, where the solve stalls unconverged:
    # the plain loop's best iterate is the one its first line search failed
    # from, so stopping there returns it, after 6 steps instead of 7
    for rho, converged in ((16.0, True), (2.0, False), (17.25, True)):
        p = params.with_rho(rho)
        sol = solve_projected(p, spec, grid, ops=ops)
        omega, alpha, res, loops, accepted, before_failure = _plain_projected_newton(
            p, spec, grid)
        assert sol.converged is converged
        assert np.array_equal(sol.omega, omega)
        assert (sol.alpha, sol.residual_norm) == (alpha, res)
        # newton_iters counts accepted steps up to the first failed line
        # search; a converged plain loop also counted the final check
        assert sol.newton_iters == before_failure
        if converged:
            assert before_failure == accepted and loops == accepted + 1
        else:
            assert (before_failure, accepted) == (6, 7)
        cold = solve_projected(p, spec, grid)
        assert np.array_equal(cold.omega, sol.omega)
        assert (cold.psi, cold.remainder_ratio) == (sol.psi, sol.remainder_ratio)


def _halving_newton_iterates(ops, ws, z, zdot, gzd, nzd2, residual_measure, omega,
                             alpha, start):
    """reduction._newton_iterates with every line search halving from 1:
    the reference the resumed halving must match bit for bit."""
    r1, res = start
    spare = ws.residual[1]
    accepted = 0
    neg_gzd = -gzd
    while res > reduction.TOL and accepted < reduction.MAX_ITER - 1:
        hess = ops.hess_banded(np.add(z, omega, out=ws.u), out=ws.hess)
        rhs = np.concatenate([r1, [float(np.dot(gzd, omega))]])
        step = bordered_solve(hess, neg_gzd, gzd, rhs)
        t = 1.0
        while True:
            cand_o = reduction._project_out(omega - t * step[:-1], zdot, gzd, nzd2)
            cand_a = alpha - t * step[-1]
            cand_r1, cand_res = residual_measure(cand_o, cand_a, spare)
            if cand_res <= (1.0 - 1e-4 * t) * res:
                break
            t /= 2
            if t <= 1e-8:
                return omega, alpha, res, accepted, False, ()
        omega, alpha, res = cand_o, cand_a, cand_res
        r1, spare = cand_r1, r1
        accepted += 1
    return omega, alpha, res, accepted, bool(res <= reduction.TOL), ()


def test_stalled_scan_samples_work_count(monkeypatch):
    # the two samples of the shipped eps = 0.5 scan (33 radii on [2, 24])
    # whose solves stall: halving every line search from 1/2 takes 114 and
    # 166 residual evaluations; resuming at the step length the last search
    # accepted skips lengths that failed one iterate earlier, and lands on
    # the same iterates
    spec = PotentialSpec.sine()
    params = AnsatzParams.make(2, 3.0, 0.5, 2.0, spec, 0.5, 1.5,
                               gamma=0.6, eps_max=0.5)
    grid = grid_for(params, 0.02, rho_max=params.omega_window[1])
    ops = DiscreteOperators(grid, 0.5, spec, 3.0)
    evals = 0
    dual_norm = ops.dual_norm

    def counting(g):
        nonlocal evals
        evals += 1
        return dual_norm(g)

    def solve(rho):
        nonlocal evals
        evals = 0
        return solve_projected(params.with_rho(rho), spec, grid, ops=ops, measure=False)

    ops.dual_norm = counting
    for rho, halving, resumed in ((2.0, 114, 39), (2.6875, 166, 49)):
        sol = solve(rho)
        assert not sol.converged
        assert evals <= resumed, (rho, evals)
        with monkeypatch.context() as patch:
            patch.setattr(reduction, "_newton_iterates", _halving_newton_iterates)
            ref = solve(rho)
        assert evals == halving, (rho, evals)
        assert np.array_equal(sol.omega, ref.omega)
        assert (sol.alpha, sol.residual_norm, sol.newton_iters) == (
            ref.alpha, ref.residual_norm, ref.newton_iters)


def test_operators_and_warm_start_must_match_the_grid(setup):
    params, spec, grid = setup
    other = DiscreteOperators(grid, 0.45, spec, 3.0)
    with pytest.raises(ConfigError):
        solve_projected(params, spec, grid, ops=other)
    coarse = grid_for(params, 0.04, rho_max=params.omega_window[1])
    elsewhere = solve_projected(params, spec, coarse)
    with pytest.raises(ConfigError):
        solve_projected(params, spec, grid, warm=elsewhere)
    # as many nodes as grid, further apart: a shape check let this through
    h = 1.01 * grid.h
    stretched = RadialGrid.make(grid.n, h * (grid.size - 1), h)
    assert stretched.size == grid.size
    elsewhere = solve_projected(params, spec, stretched)
    with pytest.raises(ConfigError):
        solve_projected(params, spec, grid, warm=elsewhere)


def test_warm_and_cold_solves_agree(setup, monkeypatch):
    params, spec, grid = setup
    ops = DiscreteOperators(grid, EPS, spec, 3.0)
    # the step find_rho_star takes for its dpsi check
    near = solve_projected(params.with_rho(RHO - 3e-4 * RHO), spec, grid, ops=ops)
    warm = solve_projected(params, spec, grid, ops=ops, warm=near)
    cold = solve_projected(params, spec, grid, ops=ops)
    assert warm.converged and cold.converged
    assert warm.newton_iters < cold.newton_iters
    assert warm.residual_norm <= 1e-10
    assert ops.norm(warm.omega - cold.omega) <= 1e-10
    assert abs(warm.alpha - cold.alpha) <= 1e-10
    assert abs(warm.psi - cold.psi) <= 1e-12 * abs(cold.psi)
    # MAX_ITER = 1 returns the starting iterate: shifting omega by the change
    # in rho starts closer than reusing it in place or starting cold
    monkeypatch.setattr(reduction, "MAX_ITER", 1)
    start = [solve_projected(params, spec, grid, ops=ops, warm=w)
             for w in (near, dataclasses.replace(near, rho=RHO), None)]
    assert start[0].residual_norm < start[1].residual_norm < start[2].residual_norm


def test_rho_star_work_count(sine_family):
    # the two ends of the window around M_eps's critical radius, Illinois
    # steps on it and the two dPsi probes; the pre-scan over the whole
    # bracket took [9, 12, 12, 12, 12], bisection 25-27
    evals = [m.reduced.evaluations for m in sine_family.members]
    assert evals == [6, 8, 8, 8, 8]


def test_rho_star_window_and_its_fallback(sine_family, supercritical_family, sine_spec,
                                          monkeypatch):
    # every sine member's root lies in its window; the supercritical
    # member's window holds no sign change of alpha, so its search widens
    # to the pre-scan.  Both reach the root the pre-scan alone finds
    assert [m.reduced.widened for m in sine_family.members] == [False] * 5
    (sup,) = supercritical_family.members
    assert sup.reduced.widened
    monkeypatch.setattr(reduction, "_critical_roots", lambda *args: [])
    for m in (*sine_family.members, sup):
        scan = find_rho_star(m.params.with_rho(m.bracket[0]), sine_spec, m.bracket)
        assert scan.widened
        assert m.rho_star == pytest.approx(scan.rho_star, rel=2.5e-7), m.eps


def test_root_steps_superlinear_on_convex_alpha(setup, monkeypatch):
    # alpha = exp(rho - 20.3) - 1 bends strongly across the bracket, so
    # plain regula falsi keeps one end and takes 182 solves to reach the
    # stopping rule, bisection 33, the Illinois steps 13 (the two bracket
    # ends included); the dpsi check then adds its two solves
    params, spec, _ = setup

    def fake(p, spec, grid, ops=None, warm=None, measure=True):
        return reduction.ReducedSolution(
            eps=p.eps, rho=p.rho, grid=grid, omega=np.zeros(grid.size),
            alpha=float(np.expm1(p.rho - 20.3)), psi=0.0, newton_iters=0,
            residual_norm=0.0, converged=True, zdot_norm=1.0,
            remainder_ratio=0.0)

    monkeypatch.setattr(reduction, "solve_projected", fake)
    monkeypatch.setattr(reduction, "PRE_SCAN", 2)
    res = find_rho_star(params, spec, (18.75, 23.75))
    assert abs(res.alpha) <= 1e-9
    assert res.rho_star == pytest.approx(20.3, abs=1e-8)
    assert res.evaluations - 2 <= 15

    # the shared root finder itself, as find_critical_radius calls it: down
    # to neighbouring floats, the two bracket ends included
    xs = []

    def alpha(rho):
        xs.append(rho)
        return float(np.expm1(rho - 20.3))

    root = _illinois(alpha, 18.75, alpha(18.75), 23.75, alpha(23.75))
    assert root == pytest.approx(20.3, abs=1e-12)
    assert len(xs) <= 15, len(xs)


def _fail_warm_starts(monkeypatch, how, limit):
    """Make the first `limit` warm-started solves fail; returns the call log."""
    calls = []
    real = reduction.solve_projected

    def patched(*args, warm=None, **kwargs):
        calls.append(warm is not None)
        if warm is not None and sum(calls) <= limit:
            if how == "raises":
                raise HessianSingular("injected")
            if how == "nonfinite":  # overflows the starting residual
                return real(*args, warm=dataclasses.replace(warm, omega=warm.omega * 1e200),
                            **kwargs)
            sol = real(*args, warm=warm, **kwargs)
            return dataclasses.replace(sol, converged=False)
        return real(*args, warm=warm, **kwargs)

    monkeypatch.setattr(reduction, "solve_projected", patched)
    return calls


@pytest.mark.parametrize("how", ["unconverged", "raises", "nonfinite"])
def test_failed_warm_start_retries_cold(setup, monkeypatch, how):
    params, spec, _ = setup
    bracket = (7.5 / EPS, 9.5 / EPS)
    plain = find_rho_star(params, spec, bracket)
    calls = _fail_warm_starts(monkeypatch, how, limit=1)
    res = find_rho_star(params, spec, bracket)
    assert res.evaluations == len(calls)
    # the second solve was warm, failed, and was retried cold
    assert calls[:3] == [False, True, False]
    assert abs(res.alpha) <= 1e-9 * res.solution.zdot_norm
    assert res.rho_star == pytest.approx(plain.rho_star, rel=1e-7)


def test_cold_retry_that_stalls_raises(setup, monkeypatch):
    params, spec, _ = setup
    real = reduction.solve_projected
    calls = []

    def patched(*args, **kwargs):
        sol = real(*args, **kwargs)
        calls.append(sol)
        return sol if len(calls) == 1 else dataclasses.replace(sol, converged=False)

    monkeypatch.setattr(reduction, "solve_projected", patched)
    with pytest.raises(NewtonDivergence):
        find_rho_star(params, spec, (7.5 / EPS, 9.5 / EPS))
    assert len(calls) == 3  # cold, then warm and its cold retry at the second radius


def test_rho_star_on_the_bracket_edge_raises(setup, monkeypatch):
    # without refinement rho* is the pre-scan's last radius, 1e-6 rho* past
    # the root: no room is left above it for the dPsi probe
    params, spec, _ = setup
    root = find_rho_star(params, spec, (7.5 / EPS, 9.5 / EPS)).rho_star
    monkeypatch.setattr(reduction, "_illinois", lambda *args, **kwargs: None)
    with pytest.raises(OutOfConfigurationSet, match="no room for the dPsi probes"):
        find_rho_star(params, spec, (root - 1.0, root * (1.0 + 1e-6)))


@pytest.mark.parametrize("mode", ["newton", "fixed-point"])
def test_nonfinite_start_raises_newton_divergence(mode):
    # a warm start whose residual overflows is a named solver failure (exit
    # 3) in either mode, not a bare ValueError from the Gram solve's finite
    # check or a singular-system error from the bordered solve
    spec = PotentialSpec.sine()
    params = AnsatzParams.make(2, 3.0, 0.5, 16.5, spec, 0.5, 1.5, gamma=0.6, eps_max=0.5)
    grid = grid_for(params, 0.02, rho_max=17.0)
    ops = DiscreteOperators(grid, 0.5, spec, 3.0)
    base = solve_projected(params, spec, grid, ops=ops)
    huge = dataclasses.replace(base, omega=base.omega * 1e200)
    with pytest.raises(NewtonDivergence, match="not finite"):
        solve_projected(params.with_rho(16.6), spec, grid, mode=mode, ops=ops, warm=huge)


def test_nonfinite_candidate_fails_its_armijo_trial(setup):
    # poison the residual of the first full step: the line search halves
    # and the solve still converges
    params, spec, grid = setup
    ops = DiscreteOperators(grid, EPS, spec, 3.0)
    plain = solve_projected(params, spec, grid, ops=ops)
    real_grad = ops.grad
    calls = []

    def grad(u, out=None):
        calls.append(u.copy())  # u is the solve's scratch array
        g = real_grad(u, out=out)
        return g * np.inf if len(calls) == 2 else g

    ops.grad = grad
    sol = solve_projected(params, spec, grid, ops=ops)
    assert sol.converged and sol.residual_norm <= 1e-10
    assert abs(sol.alpha - plain.alpha) <= 1e-10
    # the trial after the poisoned one took half the first step
    half = 0.5 * (calls[0] + calls[1])
    assert np.allclose(calls[2], half, rtol=0.0, atol=1e-12 * np.abs(half).max())


def test_energy_only_where_read(setup, monkeypatch):
    # rho* and the two dpsi solves read Psi; the other 5 solves do not
    params, spec, _ = setup
    calls = []
    real = DiscreteOperators.energy

    def energy(self, u):
        calls.append(u)
        return real(self, u)

    monkeypatch.setattr(DiscreteOperators, "energy", energy)
    res = find_rho_star(params, spec, (7.5 / EPS, 9.5 / EPS))
    assert res.evaluations == 8
    assert len(calls) <= 3
    # what it did compute is what a measured solve computes
    grid, ops = res.solution.grid, DiscreteOperators(res.solution.grid, EPS, spec, 3.0)
    z = build_z(params.with_rho(res.rho_star), spec, grid)
    assert res.psi == res.solution.psi == ops.energy(z + res.solution.omega)
    assert res.solution.remainder_ratio == \
        ops.norm(res.solution.omega) / (EPS**3 * ops.norm(z))


def test_unmeasured_solve_keeps_only_its_own_arrays(setup):
    params, spec, grid = setup
    ops = DiscreteOperators(grid, EPS, spec, 3.0)
    measured = solve_projected(params, spec, grid, ops=ops)
    bare = solve_projected(params, spec, grid, ops=ops, measure=False)
    assert np.isnan(bare.psi) and np.isnan(bare.remainder_ratio)
    assert np.array_equal(bare.omega, measured.omega) and bare.alpha == measured.alpha
    arrays = [f.name for f in dataclasses.fields(bare)
              if isinstance(getattr(bare, f.name), np.ndarray)]
    assert arrays == ["omega"]
    assert not any(isinstance(getattr(bare, f.name), DiscreteOperators)
                   for f in dataclasses.fields(bare))

