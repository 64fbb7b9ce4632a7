"""Projected solve orthogonal to the manifold tangent, the reduced energy,
and the critical-radius equation alpha(rho) = 0.

The stationarity system in the unknowns (omega, alpha) is

    grad J(z + omega) - alpha * G zdot = 0,      zdot^T G omega = 0,

with G the Gram matrix of the weighted inner product, so alpha is the
multiplier of the tangent constraint and omega the remainder.  The default
path is a bordered Newton iteration; a fixed-point mode iterating
omega <- -[P J''(z)]^{-1} P(J'(z) + higher-order terms) is kept as a
fidelity check, and both must agree at the common fixed point.

Both modes solve the bordered system [[J'', -G zdot], [(G zdot)^T, 0]]
with grids.bordered_solve: one tridiagonal elimination plus block
elimination of the border, guarded by the backward error of each solve
(zdot is a near-kernel direction of J''), which raises HessianSingular
above roundoff level.

A solve can record the reduced energy Psi = J(z + omega) and
remainder_ratio = ||omega|| / (eps^3 ||z||), the quantity the remainder set
||omega|| <= gamma eps^3 ||z|| bounds.  The rho* search reads them for
three of its solves (6-8 per shipped sine member) and computes them only
for those.  It searches a window around the smallest critical radius of
M_eps in its bracket first, since alpha vanishes next to one, and scans
the whole bracket only when alpha keeps its sign across the window.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .ansatz import AnsatzParams, build_z, build_z_and_zdot, grid_for
from .config import check_rho_samples
from .exceptions import (
    ConfigError,
    NewtonDivergence,
    NoSignChange,
    OutOfConfigurationSet,
    SolverError,
)
from .grids import DiscreteOperators, RadialGrid, bordered_solve, tridiag_mul
from .ground_state import GroundStateProfile, ground_state_constants
from .potentials import PotentialSpec, _critical_roots, _illinois, eval_M

# residual norm at which a projected solve has converged
TOL = 1e-10
# iterates a projected solve visits at most, the start included
MAX_ITER = 60
# radii find_rho_star samples across its bracket, ends included, before
# refining the first sign change of alpha
PRE_SCAN = 9
# half-width in t = eps rho of find_rho_star's first window, around the
# smallest critical radius of M_eps in the bracket: 1.3x the largest offset
# |eps rho* - t_eps| of the shipped family (0.038 at eps = 0.3); escaping
# members' offsets are at most 0.0245
WINDOW = 0.05

__all__ = [
    "ReducedSolution",
    "solve_projected",
    "ScanCurve",
    "reduced_energy_scan",
    "RhoStarResult",
    "find_rho_star",
    "calibrate_gamma",
]


@dataclass(frozen=True)
class ReducedSolution:
    """One projected solve: the remainder omega on grid and the multiplier
    alpha at (eps, rho).

    psi and remainder_ratio are NaN when the solve was not measured
    (solve_projected with measure=False).  A solution holds no operators
    and no z, so keeping it keeps only its own arrays.
    """

    eps: float
    rho: float
    grid: RadialGrid          # the grid omega lives on
    omega: np.ndarray
    alpha: float
    newton_iters: int         # accepted Newton steps (fixed-point mode: iterations)
    residual_norm: float
    converged: bool
    zdot_norm: float
    contraction_ratios: tuple[float, ...] = ()
    psi: float = np.nan       # J(z + omega)
    remainder_ratio: float = np.nan  # ||omega|| / (eps^3 ||z||)


def solve_projected(
    params: AnsatzParams,
    spec: PotentialSpec,
    grid: RadialGrid,
    mode: str = "newton",
    ops: DiscreteOperators | None = None,
    warm: ReducedSolution | None = None,
    measure: bool = True,
) -> ReducedSolution:
    """Remainder omega and multiplier alpha at params.rho on grid.

    Converged means a residual norm at or below TOL.  Newton stops at its
    first failed line search; MAX_ITER bounds the iterates it visits, the
    start included, so MAX_ITER = 1 would return the starting iterate.
    One Newton iteration assembles J''(z + omega) into the solve's
    scratch arrays, solves the bordered system for the step
    (grids.bordered_solve: one dgtsv for the border column and the
    residual together, a scalar Schur complement, a backward-error
    check), and measures each line-search trial with one gradient and one
    Gram solve for its dual norm.

    ops are the operators of (grid, params.eps, spec, params.p), built here
    when not given; solves on one grid may share them, which changes no
    bit.  Without warm the iteration starts from omega = 0, alpha = 0;
    with warm, a solution on this grid object at another radius, it starts
    from warm's omega shifted by params.rho - warm.rho (projected back onto
    the constraint) and warm's alpha.  A start whose residual is not finite
    raises NewtonDivergence in either mode.  measure=False leaves psi and
    remainder_ratio NaN, which saves an energy and two norms per solve.
    """
    if ops is None:
        ops = DiscreteOperators(grid, params.eps, spec, params.p)
    elif ops.grid is not grid or ops.eps != params.eps or ops.p != params.p:
        raise ConfigError("operators belong to another grid, eps or p")
    z, zdot = build_z_and_zdot(params, spec, grid)
    gzd = ops.gram_mul(zdot)
    nzd2 = float(np.dot(zdot, gzd))
    nzd = np.sqrt(nzd2)
    ws = _NewtonWork(grid.size)

    def residual_measure(omega: np.ndarray, alpha: float,
                         out: np.ndarray) -> tuple[np.ndarray, float]:
        # an iterate whose residual overflows measures inf or nan, which
        # fails Newton's Armijo test like any other poor candidate
        with np.errstate(over="ignore", invalid="ignore"):
            r1 = ops.grad(np.add(z, omega, out=ws.u), out=out)
            r1 -= np.multiply(alpha, gzd, out=ws.u)
            return r1, ops.dual_norm(r1) + abs(float(np.dot(gzd, omega))) / nzd

    if mode == "newton":
        solver = _newton_iterates
    elif mode == "fixed-point":
        solver = _fixed_point_iterates
    else:
        raise ConfigError(f"unknown mode {mode!r}")

    if warm is None:
        omega0, alpha0 = np.zeros(grid.size), 0.0
    elif warm.grid is not grid:
        raise ConfigError("warm start comes from another grid")
    else:
        shifted = np.interp(grid.nodes - (params.rho - warm.rho), grid.nodes, warm.omega)
        omega0, alpha0 = _project_out(shifted, zdot, gzd, nzd2), warm.alpha
    start = residual_measure(omega0, alpha0, ws.residual[0])
    if not np.isfinite(start[1]):
        raise NewtonDivergence("residual of the starting iterate is not finite")
    omega, alpha, res, iters, converged, ratios = solver(
        ops, ws, z, zdot, gzd, nzd2, residual_measure, omega0, alpha0, start
    )
    sol = ReducedSolution(
        eps=params.eps,
        rho=params.rho,
        grid=grid,
        omega=omega,
        alpha=float(alpha),
        newton_iters=iters,
        residual_norm=float(res),
        converged=converged,
        zdot_norm=float(nzd),
        contraction_ratios=tuple(ratios),
    )
    return _measured(sol, ops, z) if measure else sol


def _measured(sol: ReducedSolution, ops: DiscreteOperators, z: np.ndarray) -> ReducedSolution:
    """sol with psi and remainder_ratio; z is the manifold element at sol.rho."""
    return replace(
        sol,
        psi=float(ops.energy(z + sol.omega)),
        remainder_ratio=float(ops.norm(sol.omega) / (sol.eps**3 * ops.norm(z))),
    )


def _project_out(omega: np.ndarray, zdot: np.ndarray, gzd: np.ndarray, nzd2: float) -> np.ndarray:
    return omega - (float(np.dot(gzd, omega)) / nzd2) * zdot


class _NewtonWork:
    """Scratch arrays one projected solve reuses in every iteration.

    u holds z + omega, hess the banded Hessian, and the two residual arrays
    the residual of the current iterate and that of a line-search trial,
    which trade places when the trial is accepted.
    """

    def __init__(self, m: int):
        self.u = np.empty(m)
        self.hess = np.empty((2, m))
        self.residual = (np.empty(m), np.empty(m))


def _newton_iterates(ops, ws, z, zdot, gzd, nzd2, residual_measure, omega, alpha, start):
    # Armijo makes every accepted iterate strictly better than the last, so
    # the current iterate is the best one and a failed search ends the loop.
    # A search tries the full step, then halves from the step length the
    # last search accepted: the lengths between failed one iterate earlier.
    r1, res = start
    spare = ws.residual[1]
    accepted = 0
    last = 1.0
    neg_gzd = -gzd
    while res > TOL and accepted < MAX_ITER - 1:
        hess = ops.hess_banded(np.add(z, omega, out=ws.u), out=ws.hess)
        rhs = np.concatenate([r1, [float(np.dot(gzd, omega))]])
        step = bordered_solve(hess, neg_gzd, gzd, rhs)
        t = 1.0
        while True:
            cand_o = _project_out(omega - t * step[:-1], zdot, gzd, nzd2)
            cand_a = alpha - t * step[-1]
            cand_r1, cand_res = residual_measure(cand_o, cand_a, spare)
            if cand_res <= (1.0 - 1e-4 * t) * res:
                break
            t = last if t > last else t / 2
            if t <= 1e-8:
                return omega, alpha, res, accepted, False, ()
        last = t
        omega, alpha, res = cand_o, cand_a, cand_res
        r1, spare = cand_r1, r1
        accepted += 1
    return omega, alpha, res, accepted, bool(res <= TOL), ()


def _fixed_point_iterates(ops, ws, z, zdot, gzd, nzd2, residual_measure, omega, alpha,
                          _start):
    hess, neg_gzd = ops.hess_banded(z), -gzd
    deltas: list[float] = []
    converged = False
    for it in range(MAX_ITER):
        # J'(z+omega) = J''(z) omega + (J'(z) + higher order); feed the
        # frozen-Hessian bordered system the full nonlinear right-hand side
        rhs1 = -(ops.grad(z + omega) - tridiag_mul(hess, omega))
        sol = bordered_solve(hess, neg_gzd, gzd, np.concatenate([rhs1, [0.0]]))
        new_omega = _project_out(sol[:-1], zdot, gzd, nzd2)
        alpha = float(sol[-1])
        deltas.append(ops.norm(new_omega - omega))
        omega = new_omega
        if deltas[-1] <= TOL:
            converged = True
            break
        if len(deltas) >= 3 and deltas[-1] > deltas[-2] > deltas[-3]:
            break  # expanding; not a contraction here
    ratios = tuple(
        deltas[k] / deltas[k - 1] for k in range(1, len(deltas)) if deltas[k - 1] > 0
    )
    _, res = residual_measure(omega, alpha, ws.residual[1])
    return omega, alpha, res, it + 1, converged, ratios


@dataclass(frozen=True)
class ScanCurve:
    eps: float
    rho: np.ndarray
    psi: np.ndarray
    alpha: np.ndarray
    discrepancy: np.ndarray
    residual: np.ndarray       # final residual norm; NaN where the solve raised
    cause: tuple[str, ...]     # "", "unconverged", or the exception class name
    ok: np.ndarray


def reduced_energy_scan(
    params: AnsatzParams,
    spec: PotentialSpec,
    rho_samples: int,
    h: float = 0.02,
) -> ScanCurve:
    """Psi, alpha, and the leading-order discrepancy over the rho window,
    with each sample's final residual and, where it failed, the cause."""
    check_rho_samples("rho_samples", rho_samples)
    lo, hi = params.omega_window
    rhos = np.linspace(lo, hi, rho_samples)
    grid = grid_for(params, h, rho_max=hi)
    ops = DiscreteOperators(grid, params.eps, spec, params.p)
    consts = ground_state_constants(GroundStateProfile(p=params.p, lam=1.0), params.n)
    eps = params.eps
    psi = np.full(rho_samples, np.nan)
    alpha = np.full(rho_samples, np.nan)
    disc = np.full(rho_samples, np.nan)
    residual = np.full(rho_samples, np.nan)
    cause = [""] * rho_samples
    ok = np.zeros(rho_samples, dtype=bool)
    for i, rho in enumerate(rhos):
        try:
            sol = solve_projected(params.with_rho(rho), spec, grid, ops=ops)
        except SolverError as exc:
            cause[i] = type(exc).__name__
            continue
        residual[i] = sol.residual_norm
        if not sol.converged:
            cause[i] = "unconverged"
            continue
        psi[i] = sol.psi
        alpha[i] = sol.alpha
        M = eval_M(spec, params.n, params.p, eps, eps * rho).M
        disc[i] = abs(eps ** (3 * params.n - 3) * sol.psi - consts.energy_const * eps**2 * M)
        ok[i] = True
    return ScanCurve(eps=eps, rho=rhos, psi=psi, alpha=alpha, discrepancy=disc,
                     residual=residual, cause=tuple(cause), ok=ok)


@dataclass(frozen=True)
class RhoStarResult:
    rho_star: float
    alpha: float
    psi: float
    dpsi_drho: float
    dpsi_ok: bool
    solution: ReducedSolution
    evaluations: int
    widened: bool  # the pre-scan ran: alpha kept its sign across the window,
                   # or M' has no root in the bracket


def find_rho_star(
    params: AnsatzParams,
    spec: PotentialSpec,
    bracket: tuple[float, float],
    h: float = 0.02,
) -> RhoStarResult:
    """Root of alpha(rho) in the bracket, down to |alpha| <= 1e-9 ||zdot||.

    The search starts in a window: t_c +- WINDOW in t = eps rho, over eps
    and clipped to the bracket, where t_c is the smallest critical radius
    of M_eps in eps * bracket (potentials._critical_roots, the scan and
    Illinois steps of find_critical_radius).  When alpha changes sign
    between the window's ends the root is refined on the window.
    Otherwise, or when M' has no root in the bracket, the search widens
    (widened): a scan of PRE_SCAN radii walks the bracket and the root is
    refined on the first subinterval with an alpha sign change, so
    brackets enclosing an even number of roots (wide windows over an
    oscillatory potential) still resolve; the scan order makes the choice
    deterministic and keeps continuation runs on the branch nearest the
    lower edge.

    The refinement is the Illinois variant of regula falsi on
    alpha / ||zdot|| (potentials._illinois, which find_critical_radius
    also uses for M').  Every solve is a solve_projected on one grid with
    one set of operators.  The first is cold; each later one is
    warm-started from the evaluated solution nearest in rho (the earliest
    on ties).  A warm start that fails or does not converge is retried
    cold, and both count in evaluations.  Two more solves, 3e-4 rho* on
    either side (less where the bracket ends nearer, OutOfConfigurationSet
    where rho* is on its edge), check that Psi is stationary there
    (dpsi_ok).  Psi and the remainder ratio are computed for rho* and
    those two solves only.
    """
    a, b = float(bracket[0]), float(bracket[1])
    eps = params.eps
    grid = grid_for(params, h, rho_max=b)
    ops = DiscreteOperators(grid, params.eps, spec, params.p)
    solved: list[ReducedSolution] = []
    best: ReducedSolution | None = None  # smallest |alpha| so far
    evals = 0

    def at(rho: float, measure: bool = False) -> ReducedSolution:
        nonlocal best, evals
        rp = params.with_rho(rho)
        sol = None
        if solved:
            evals += 1
            warm = min(solved, key=lambda s: abs(s.rho - rho))
            try:
                sol = solve_projected(rp, spec, grid, ops=ops, warm=warm, measure=measure)
            except SolverError:
                pass
        if sol is None or not sol.converged:
            evals += 1
            sol = solve_projected(rp, spec, grid, ops=ops, measure=measure)
            if not sol.converged:
                raise NewtonDivergence(f"projected solve stalled at rho={rho}")
        solved.append(sol)
        if best is None or abs(sol.alpha) < abs(best.alpha):
            best = sol
        return sol

    widened = True
    roots = _critical_roots(spec, params.n, params.p, eps, eps * a, eps * b)
    if roots:
        wa, wb = max(a, (roots[0] - WINDOW) / eps), min(b, (roots[0] + WINDOW) / eps)
        sa, sb = at(wa), at(wb)
        if np.sign(sa.alpha) != np.sign(sb.alpha):
            a, b, widened = wa, wb, False
    if widened:
        sa, sb = at(a), None
        for rho in np.linspace(a, b, PRE_SCAN)[1:]:
            cand = at(float(rho))
            if np.sign(cand.alpha) != np.sign(sa.alpha):
                b, sb = float(rho), cand
                break
            a, sa = float(rho), cand
        if sb is None:
            raise NoSignChange(
                f"alpha keeps the sign of alpha({bracket[0]})={sa.alpha:.3e} "
                f"across [{bracket[0]}, {bracket[1]}] ({evals} samples)"
            )

    def scaled_alpha(rho: float) -> float:
        sx = at(rho)
        return sx.alpha / sx.zdot_norm

    _illinois(scaled_alpha, a, sa.alpha / sa.zdot_norm, b, sb.alpha / sb.zdot_norm,
              done=lambda: abs(best.alpha) <= 1e-9 * best.zdot_norm)
    star = _measured(best, ops, build_z(params.with_rho(best.rho), spec, grid))
    # the probes stay in the bracket, which the grid covers
    delta = min(3e-4 * star.rho, bracket[1] - star.rho, star.rho - bracket[0])
    if not delta > 0.0:
        raise OutOfConfigurationSet(
            f"rho*={star.rho!r} leaves no room for the dPsi probes in "
            f"[{bracket[0]}, {bracket[1]}]")
    up = at(star.rho + delta, measure=True)
    dn = at(star.rho - delta, measure=True)
    dpsi = (up.psi - dn.psi) / (up.rho - dn.rho)
    return RhoStarResult(
        rho_star=star.rho,
        alpha=star.alpha,
        psi=star.psi,
        dpsi_drho=float(dpsi),
        dpsi_ok=bool(abs(dpsi) <= 1e-6 * abs(star.psi)),
        solution=star,
        evaluations=evals,
        widened=widened,
    )


def calibrate_gamma(params: AnsatzParams, spec: PotentialSpec) -> float:
    """Fix the remainder-set radius at twice the ||omega||/(eps^3 ||z||)
    observed on the h = 0.02 grid."""
    sol = solve_projected(params, spec, grid_for(params, 0.02))
    if not sol.converged:
        raise NewtonDivergence("projected solve stalled during gamma calibration")
    return float(2.0 * sol.remainder_ratio)
