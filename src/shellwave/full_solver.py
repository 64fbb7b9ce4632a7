"""Damped Newton solver for the radial layer equation, with integral audits.

Solves the collocation system

    -u'' - (n-1)/s u' + (1 + eps^2 V(eps s)) u = f(u),   u'(0) = 0, u(L) = 0,

where f is the pure power or, above the Sobolev-critical exponent, its
C^2-truncated version (the truncation must stay inactive on the returned
solution).  Seeds come from the projected reduction (z + omega) or from a
shifted previous family member; cold seeds far from the layer radius are
outside the Newton basin for supercritical powers.

The audits re-express the two integral identities of the layer equation
(equation pairing with u, and the dilation identity) in the unrescaled
radial variable and report defects normalized by the largest participating
term; both shrink like h^2 on refinement, which is the discretization-error
certificate for an accepted solve.

Newton accepts a residual max-norm below max(tol_coeff (1 + max|u|^p),
2 eps_mach max|u| / h^2).  The second term is the roundoff floor of the
three-point residual of a float64 iterate, which exceeds the tolerance on
the refinement audit's h = 1e-3 grid; stalls above both raise
NewtonDivergence.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.linalg import solve_banded

from .ansatz import AnsatzParams, build_z, grid_for
from .exceptions import (
    ConfigError,
    ConvergedToZero,
    NewtonDivergence,
    SolverError,
    TruncationSaturated,
)
from .forces import PowerForce, TruncatedForce
from .grids import DiscreteOperators, RadialGrid, deriv4
from .ground_state import GroundStateProfile, ground_state_constants
from .potentials import PotentialSpec
from .reduction import RhoStarResult, find_rho_star

__all__ = [
    "FullSolution",
    "solve_full",
    "is_supercritical",
    "PohozaevAudit",
    "pohozaev_audit",
    "pohozaev_refinement_check",
    "AsymptoticTermRow",
    "asymptotic_terms_check",
    "tail_decay_check",
    "FamilyMember",
    "ContinuationResult",
    "continuation_in_eps",
]


def is_supercritical(n: int, p: float) -> bool:
    return n > 2 and p > (n + 2) / (n - 2)


@dataclass(frozen=True)
class FullSolution:
    eps: float
    n: int
    p: float
    grid: RadialGrid
    profile: np.ndarray
    residual_max: float
    peak_rho: float
    mass_weighted: float
    pohozaev_1: float
    pohozaev_2: float
    truncation_active: bool
    newton_iters: int
    force_cap: float | None


def _peak_location(grid: RadialGrid, u: np.ndarray) -> float:
    i = int(np.argmax(u))
    if 0 < i < grid.size - 1:
        # vertex of the parabola through the three nodes around the max
        d1 = 0.5 * (u[i + 1] - u[i - 1])
        d2 = u[i + 1] - 2.0 * u[i] + u[i - 1]
        if d2 < 0.0:
            return float(grid.nodes[i] - grid.h * d1 / d2)
    return float(grid.nodes[i])


def _newton_strong(ops: DiscreteOperators, force, u0: np.ndarray,
                   tol_coeff: float, max_iter: int):
    u = np.array(u0, dtype=float)
    u[-1] = 0.0
    seed_peak = float(np.abs(u).max())
    best_u, best_r = u.copy(), np.inf
    stall = 0
    it = 0
    for it in range(max_iter):
        R = ops.strong_residual(u, force=force)
        rmax = float(np.abs(R).max())
        if rmax < best_r:
            best_u, best_r = u.copy(), rmax
            stall = 0
        else:
            stall += 1
        thr = tol_coeff * (1.0 + float(np.abs(best_u).max()) ** ops.p)
        if best_r <= 0.02 * thr or stall >= 3:
            break
        du = solve_banded((1, 1), ops.strong_jacobian(u, force=force), R)
        t, ok = 1.0, False
        while t > 1e-8:
            cand = u - t * du
            rc = float(np.abs(ops.strong_residual(cand, force=force)).max())
            if rc <= (1.0 - 1e-4 * t) * rmax:
                ok = True
                break
            t /= 2.0
        if ok:
            u = u - t * du
        else:
            stall += 1
    peak = float(np.abs(best_u).max())
    if peak < 1e-3 * seed_peak:
        raise ConvergedToZero("iterates collapsed toward the zero solution")
    thr = tol_coeff * (1.0 + peak**ops.p)
    # kappa = 2: rounding each stored node by eps_mach/2 |u| moves the second
    # difference by up to (1 + 2 + 1) eps_mach/2 max|u| / h^2 (measured
    # stalls on the refinement grid sit at 1.2 eps_mach max|u| / h^2)
    floor = 2.0 * np.finfo(float).eps * peak / ops.h**2
    if best_r > max(thr, floor):
        raise NewtonDivergence(
            f"residual {best_r:.3e} stayed above the tolerance {thr:.3e} "
            f"and the roundoff floor {floor:.3e}"
        )
    return best_u, best_r, it + 1


def solve_full(
    n: int,
    p: float,
    eps: float,
    spec: PotentialSpec,
    seed: np.ndarray,
    grid: RadialGrid,
    trunc_K: float | None = None,
    tol_coeff: float = 1e-10,
    max_iter: int = 80,
) -> FullSolution:
    if len(seed) != grid.size:
        raise ConfigError("seed length does not match the grid")
    ops = DiscreteOperators(grid, eps, spec, p)
    if is_supercritical(n, p):
        K = trunc_K if trunc_K is not None else 2.0 * float(np.abs(seed).max())
        force = TruncatedForce(p, K)
    else:
        K = None
        force = ops.force
    u, rmax, iters = _newton_strong(ops, force, seed, tol_coeff, max_iter)
    if float(u[:-1].min()) <= 0.0:
        raise SolverError("solution lost positivity")
    if K is not None and float(u.max()) >= K:
        raise TruncationSaturated(
            f"solution peak {u.max():.6f} reached the force cap {K}"
        )
    audit = pohozaev_audit(n, p, eps, spec, grid, u)
    return FullSolution(
        eps=eps,
        n=n,
        p=p,
        grid=grid,
        profile=u,
        residual_max=rmax,
        peak_rho=_peak_location(grid, u),
        mass_weighted=ops.quad(u * u),
        pohozaev_1=audit.defect_1,
        pohozaev_2=audit.defect_2,
        truncation_active=bool(K is not None and np.any(force.active_on(u))),
        newton_iters=iters,
        force_cap=K,
    )


# ---- integral audits ----------------------------------------------------


@dataclass(frozen=True)
class PohozaevAudit:
    eps: float
    h: float
    kinetic: float        # eps^n int s^(n-1) u'^2
    mass_w: float         # eps^n int s^(n-1) w u^2
    potential: float      # eps^n int s^(n-1) u^(p+1)
    v_moment: float       # eps^n (eps^3/2) int s^n V'(eps s) u^2
    defect_1: float
    defect_2: float


def pohozaev_audit(
    n: int, p: float, eps: float, spec: PotentialSpec, grid: RadialGrid, u: np.ndarray
) -> PohozaevAudit:
    """Defects of the two integral identities, in unrescaled variables.

    identity 1 (pairing with u):   K + W - P = 0
    identity 2 (dilation):         K - (eps^3/2) int s^n V' u^2
                                     - n (1/2 - 1/(p+1)) P = 0
    normalized by the largest term entering each.
    """
    ops = DiscreteOperators(grid, eps, spec, p)
    du = deriv4(grid, u)
    scale = eps**n
    K1 = scale * ops.quad(du * du)
    W1 = scale * ops.quad(ops.w * u * u)
    P1 = scale * ops.quad(np.abs(u) ** (p + 1))
    vm = scale * (eps**3 / 2.0) * ops.quad(
        u * u, extra=grid.nodes * spec.deriv(eps * grid.nodes)
    )
    d1 = abs(K1 + W1 - P1) / max(K1, W1, P1)
    t2 = n * (0.5 - 1.0 / (p + 1.0)) * P1
    d2 = abs(K1 - vm - t2) / max(K1, abs(vm), abs(t2))
    return PohozaevAudit(
        eps=eps, h=grid.h, kinetic=K1, mass_w=W1, potential=P1, v_moment=vm,
        defect_1=float(d1), defect_2=float(d2),
    )


def pohozaev_refinement_check(
    full: FullSolution,
    spec: PotentialSpec,
    trunc_K: float | None = None,
    tol_coeff: float = 1e-10,
) -> tuple[PohozaevAudit, PohozaevAudit, tuple[float, float]]:
    """Re-solve on the half-step grid and report the defect shrink factors."""
    fine = full.grid.refine()
    seed = np.interp(fine.nodes, full.grid.nodes, full.profile)
    refined = solve_full(
        full.n, full.p, full.eps, spec, seed, fine,
        trunc_K=trunc_K if trunc_K is not None else full.force_cap,
        tol_coeff=tol_coeff,
    )
    coarse_audit = pohozaev_audit(full.n, full.p, full.eps, spec, full.grid, full.profile)
    fine_audit = pohozaev_audit(full.n, full.p, full.eps, spec, fine, refined.profile)
    ratios = (
        coarse_audit.defect_1 / max(fine_audit.defect_1, np.finfo(float).tiny),
        coarse_audit.defect_2 / max(fine_audit.defect_2, np.finfo(float).tiny),
    )
    return coarse_audit, fine_audit, ratios


@dataclass(frozen=True)
class AsymptoticTermRow:
    name: str
    measured: float
    predicted: float
    rel_err: float
    skipped: bool = False


def asymptotic_terms_check(
    full: FullSolution, spec: PotentialSpec, rho: float | None = None
) -> list[AsymptoticTermRow]:
    """Leading-order layer predictions for the four integral quantities.

    All in the unrescaled radial variable r = eps*s; the layer sits at
    r = eps*rho with the local soliton scale beta(eps*rho).
    """
    n, p, eps = full.n, full.p, full.eps
    grid, u = full.grid, full.profile
    if rho is None:
        rho = full.peak_rho
    ops = DiscreteOperators(grid, eps, spec, p)
    beta = float(np.sqrt(1.0 + eps**2 * spec.value(eps * rho)))
    consts = ground_state_constants(GroundStateProfile(p=p, lam=1.0), n=n)
    A = consts.kinetic_half
    du = deriv4(grid, u)
    shell = eps**n * rho ** (n - 1)
    e1 = (p + 3.0) / (p - 1.0)
    e2 = 4.0 / (p - 1.0) - 1.0

    rows = []
    meas = eps**2 * eps ** (n - 2) * ops.quad(du * du)
    pred = 2.0 * A * beta**e1 * shell
    rows.append(AsymptoticTermRow("kinetic", meas, pred, abs(meas - pred) / abs(pred)))

    meas = eps**n * ops.quad(u * u)
    pred = 2.0 * (p + 3.0) / (p - 1.0) * A * beta**e2 * shell
    rows.append(AsymptoticTermRow("mass", meas, pred, abs(meas - pred) / abs(pred)))

    meas = eps**n * ops.quad(np.abs(u) ** (p + 1))
    pred = 4.0 * (p + 1.0) / (p - 1.0) * A * beta**e1 * shell
    rows.append(AsymptoticTermRow("power", meas, pred, abs(meas - pred) / abs(pred)))

    vp = float(spec.deriv(eps * rho))
    meas = eps ** (3 + n) * ops.quad(
        u * u, extra=grid.nodes * spec.deriv(eps * grid.nodes)
    )
    if abs(vp) < 1e-12:
        rows.append(AsymptoticTermRow("v-moment", meas, 0.0, np.nan, skipped=True))
    else:
        pred = 2.0 * (p + 3.0) / (p - 1.0) * A * beta**e2 * eps ** (3 + n) * rho**n * vp
        rows.append(AsymptoticTermRow("v-moment", meas, pred, abs(meas - pred) / abs(pred)))
    return rows


def tail_decay_check(
    full: FullSolution, spec: PotentialSpec
) -> tuple[float, float, float]:
    """Log-slope of the outer tail against the local decay rate beta.

    Fits on [rho + 5/beta, rho + 20/beta]; returns (slope, beta, rel_err).
    """
    grid, u = full.grid, full.profile
    rho = full.peak_rho
    beta = float(np.sqrt(1.0 + full.eps**2 * spec.value(full.eps * rho)))
    lo, hi = rho + 5.0 / beta, rho + 20.0 / beta
    mask = (grid.nodes >= lo) & (grid.nodes <= hi) & (u > 0.0)
    if mask.sum() < 10:
        raise SolverError("tail window leaves the grid")
    slope = float(np.polyfit(grid.nodes[mask], np.log(u[mask]), 1)[0])
    return slope, beta, abs(slope + beta) / beta


# ---- continuation in eps -------------------------------------------------


@dataclass(frozen=True)
class FamilyMember:
    eps: float
    rho_star: float
    t_value: float
    reduced: RhoStarResult
    full: FullSolution


@dataclass(frozen=True)
class ContinuationResult:
    members: tuple[FamilyMember, ...]
    completed: bool
    failed_eps: float | None
    failure: str | None


def _validate_schedule(schedule) -> np.ndarray:
    sched = np.asarray(schedule, dtype=float)
    if len(sched) < 1 or np.any(sched <= 0.0):
        raise ConfigError("eps schedule must be positive")
    if np.any(np.diff(sched) >= 0.0):
        raise ConfigError("eps schedule must be strictly decreasing")
    ratios = sched[1:] / sched[:-1]
    if np.any(ratios < 0.7):
        raise ConfigError(
            f"eps schedule steps too aggressive (min ratio {ratios.min():.3f} < 0.7)"
        )
    return sched


def continuation_in_eps(
    n: int,
    p: float,
    spec: PotentialSpec,
    schedule,
    C1: float,
    C2: float,
    t_bracket: tuple[float, float],
    gamma: float = 2.0,
    trunc_K: float | None = None,
    h_reduce: float = 0.02,
    h_solve: float = 2e-3,
    local_width: float = 1.5,
    tail: float = 40.0,
    tol_coeff: float = 1e-10,
) -> ContinuationResult:
    """Track the layer family down the eps schedule.

    The first member brackets the critical radius inside t_bracket; later
    members re-center the search in a window of half-width local_width
    around the previous t to stay on the same branch of M'(t) = 0, and the
    full solve is seeded from the previous profile shifted to the new
    radius (interpolation beyond the old grid pads with zeros).  tail sets
    the grids' decay room (AnsatzParams.tail) and tol_coeff the full
    solves' Newton tolerance.
    """
    sched = _validate_schedule(schedule)
    eps_max = float(sched[0])
    members: list[FamilyMember] = []
    prev: FamilyMember | None = None
    for eps in sched:
        try:
            e3 = eps**3
            lo, hi = C1 / (2.0 * e3), 2.0 * C2 / e3
            params = AnsatzParams.make(
                n=n, p=p, eps=eps, rho=0.5 * (lo + hi), spec=spec, C1=C1, C2=C2,
                gamma=gamma, eps_max=eps_max, tail=tail,
            )
            if prev is None:
                bracket = (t_bracket[0] / eps, t_bracket[1] / eps)
            else:
                bracket = (
                    max((prev.t_value - local_width) / eps, lo),
                    min((prev.t_value + local_width) / eps, hi),
                )
            red = find_rho_star(params.with_rho(0.5 * (bracket[0] + bracket[1])),
                                spec, bracket, h=h_reduce)
            rho_star = red.rho_star
            star_params = params.with_rho(rho_star)
            fine = grid_for(star_params, h_solve)
            if prev is None:
                seed = build_z(star_params, spec, fine)
                coarse = grid_for(star_params, h_reduce, rho_max=bracket[1])
                seed = seed + np.interp(
                    fine.nodes, coarse.nodes, red.solution.omega, left=0.0, right=0.0
                )
            else:
                shift = rho_star - prev.rho_star
                seed = np.interp(
                    fine.nodes - shift,
                    prev.full.grid.nodes,
                    prev.full.profile,
                    left=0.0,
                    right=0.0,
                )
            full = solve_full(n, p, eps, spec, seed, fine, trunc_K=trunc_K,
                              tol_coeff=tol_coeff)
            member = FamilyMember(
                eps=eps, rho_star=rho_star, t_value=eps * rho_star,
                reduced=red, full=full,
            )
        except SolverError as exc:
            return ContinuationResult(
                members=tuple(members), completed=False,
                failed_eps=float(eps), failure=f"{type(exc).__name__}: {exc}",
            )
        members.append(member)
        prev = member
    return ContinuationResult(
        members=tuple(members), completed=True, failed_eps=None, failure=None
    )
