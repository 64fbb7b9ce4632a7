"""Damped Newton solver for the radial layer equation, with integral audits.

Solves the collocation system

    -u'' - (n-1)/s u' + (1 + eps^2 V(eps s)) u = f(u),   u'(0) = 0, u(L) = 0,

where f is the pure power or, above the Sobolev-critical exponent, its
C^1-truncated version (the truncation must stay inactive on the returned
solution).  solve_member solves one family member: rho* in a bracket, the
branch tag and the full solve, seeded from the member's own reduction (z at
rho* plus the projected remainder omega, member_seed); cold seeds far from
the layer radius are outside the Newton basin for supercritical powers.
continuation_in_eps chooses each member's bracket and calls it.

The audits re-express the two integral identities of the layer equation
(equation pairing with u, and the dilation identity) in the unrescaled
radial variable and report defects normalized by the largest participating
term; both shrink like h^2 on refinement, which is the discretization-error
certificate for an accepted solve.  pohozaev_refinement_check reads that
shrink from the (2h, h) grid pair: it re-solves on every other node of the
solve's own grid.

Newton accepts a residual max-norm below max(tol_coeff (1 + max|u|^p),
2 eps_mach max|u| / h^2).  The second term is the roundoff floor of the
three-point residual of a float64 iterate.  It grows like h^-2 and exceeds
the tolerance on grids of step 1e-3 and finer; at the shipped step 2e-3 it
is 2.5-3.8x below it, and on the refinement audit's 2h grid 4x lower
still.  Stalls above both raise NewtonDivergence, and so does a non-finite
seed, residual or Jacobian.

Stopping rules.  Until the iterate is acceptable each Newton step is
damped by an Armijo line search, so every accepted iterate has a strictly
smaller residual than the one before.  The search halves t from 1, and
halving stops once u - t du equals u bit for bit: rounding is monotone,
so no smaller t can move u again.  A line search that fails ends the loop
(repeating it from the same u would repeat it exactly), as do a residual
below 2% of the tolerance and MAX_ITER accepted steps.  The first
acceptable iterate is polished (below), and the polish ends the loop too;
a solve that does not polish stops at that iterate instead.  newton_stop
records which: "tolerance" (the 2% rule), "roundoff" (a failed line
search or the polish), "acceptable" (the unpolished stop) or "max_iter".

The polish stops on the Newton correction, not on the residual
(Deuflhard's error-oriented test): at the roundoff floor a residual
comparison is a coin flip.  When max|du| <= POLISH_ULPS eps_mach max|u|
the iterate is kept; otherwise the full step is taken once, with no line
search, and kept if its result is acceptable.  Either way newton_stop is
"roundoff": the correction is at roundoff.  An Armijo polish made the
eps = 0.3 member, a soft mode, stop one step short on 8 of 14 seeds at
rho*(1 + d), |d| <= 1e-7, with its defects 1.5e-12 off; the correction
rule lands all 14 within 1.3e-15, so rho* may move within its accepted
band.  One step, not steps until the correction is at roundoff: on the
eps = 0.1 escaping member the soft mode keeps the corrections above the
threshold, and that rule took 19 steps instead of 8.

Which solves polish.  Every solve whose profile is an output
(continuation members, the solve stage, cold solves) polishes.  The 2h
re-solve of pohozaev_refinement_check does not: its only output is a
shrink ratio of about 4, so it returns its first acceptable iterate, with
newton_stop "acceptable".

Coarse start.  A polished solve first asks whether its seed is far:
whether its first Newton correction du on the coarse grid of every
COARSEN-th node exceeds FAR max|seed| there.  Those nodes are the grid's
own bit for bit (16h j and h 16j round alike), so the coarse level reads
w there instead of evaluating V again.  A far seed makes its Newton
approach on the coarse grid (nested iteration, Hackbusch 1985), in the
scheme the probe built, up to the first acceptable iterate, which is
interpolated linearly back onto the grid, zero past the coarse end; the
loop on the grid starts there, overwriting that fresh array, and on the
audit workload's bare build_z seeds takes 3 steps instead of 5-8 and
lands within 3.1e-16 max u of the solve without the coarse start.  A
near seed (every member's own seed, every converged profile) goes to the
loop on the grid unchanged, so it keeps its path and bits and a
converged profile stays a fixed point; so does a seed whose correction
cannot be formed, so that the loop on the grid raises its named error,
and one the coarse loop fails from.  An unpolished solve starts from its
seed.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from ._lapack import dgtsv
from .ansatz import AnsatzParams, build_z, grid_for
from .config import check_schedule, first_bracket, is_supercritical, rho_bracket
from .exceptions import (
    BranchSwitch,
    ConfigError,
    ConvergedToZero,
    NewtonDivergence,
    SolverError,
    TruncationSaturated,
)
from .forces import TruncatedForce
from .grids import DiscreteOperators, RadialGrid, deriv4
from .ground_state import GroundStateProfile, ground_state_constants
from .potentials import PotentialSpec, eval_M
from .reduction import RhoStarResult, find_rho_star

# accepted Newton steps after which a full solve stops
MAX_ITER = 80

# a polished solve stops where max|du| <= POLISH_ULPS eps_mach max|u|: at
# the first acceptable iterate of the shipped members converged corrections
# read 0.4-10.6 ulps of max|u|, unconverged ones 43-5,800
POLISH_ULPS = 16

# a polished solve from a far seed makes its Newton approach on every
# COARSEN-th node of its grid (module docstring, "Coarse start"); a power
# of two, so those nodes are the coarse grid's bit for bit.  At 8 the
# audit workload's cold solves gained 15-17% of the job instead of 23-24%,
# at 32 they needed more steps on the fine grid
COARSEN = 16

# a seed is far when its first Newton correction on the coarse grid exceeds
# FAR max|seed| there: members, their converged profiles and escaping
# members down to eps = 0.07 read 7.2e-5 to 5.0e-4, the audit workload's
# cold build_z seeds 2.4e-2 to 1.1e-1, so FAR sits 6x above every near
# seed and 8x below every far one
FAR = 3e-3

# half-width of the t-interval around the previous member's t in which a
# continuation searches a later member
RECENTRE = 1.5

# the (2h, h) defect shrink of both identities that certifies second order
SHRINK_BAND = (3.5, 4.5)

__all__ = [
    "FullSolution",
    "solve_full",
    "PohozaevAudit",
    "pohozaev_audit",
    "pohozaev_refinement_check",
    "AsymptoticTermRow",
    "asymptotic_terms_check",
    "tail_decay_check",
    "FamilyMember",
    "ContinuationResult",
    "member_seed",
    "solve_member",
    "continuation_in_eps",
]


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
    audit: PohozaevAudit
    truncation_active: bool
    newton_iters: int         # accepted Newton steps
    coarse_iters: int         # accepted Newton steps of the coarse start, 0 if none
    residual_evals: int       # residual evaluations, line searches included
    roundoff_floor: float     # 2 eps_mach max|u| / h^2
    newton_stop: str          # "tolerance", "roundoff" (polished: the correction
                              # is at roundoff), "acceptable" or "max_iter"
    force_cap: float | None

    @property
    def pohozaev_1(self) -> float:
        return self.audit.defect_1

    @property
    def pohozaev_2(self) -> float:
        return self.audit.defect_2


def _peak_location(grid: RadialGrid, u: np.ndarray) -> float:
    i = int(np.argmax(u))
    if 0 < i < grid.size - 1:
        # vertex of the parabola through the three nodes around the max
        d1 = 0.5 * (u[i + 1] - u[i - 1])
        d2 = u[i + 1] - 2.0 * u[i] + u[i - 1]
        if d2 < 0.0:
            return float(grid.nodes[i] - grid.h * d1 / d2)
    return float(grid.nodes[i])


def _sup(v: np.ndarray) -> float:
    """max|v| without a temporary; NaN propagates through max and min."""
    return float(max(v.max(), -v.min()))


class _Collocation:
    """The three-point collocation scheme on one grid: the residual, its
    tridiagonal Jacobian and their workspace, with w and the force bound.

    The first row is the symmetric limit -n u''(0) (mirror node, so the
    grid must start at the origin) and the last the Dirichlet condition
    u(s_max) = 0.  curv = (n-1)/s is the residual's transport factor; the
    scratch array fwd is overwritten by every call.  A solve builds one per
    grid it solves on, and the workspace dies with the Newton loop.
    """

    def __init__(self, grid: RadialGrid, w: np.ndarray, force):
        if grid.s_min != 0.0:
            raise ConfigError("collocation residual requires a grid starting at 0")
        self.grid, self.w, self.force = grid, w, force
        self.curv = (grid.n - 1) / grid.nodes[1:-1]
        self.fwd = np.empty(grid.size - 1)

    def residual(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Pointwise residual of -u'' - (n-1)/s u' + w u - f(u) with the
        boundary rows, written into out when given (out must not share
        memory with u).  The second difference and the transport term are
        formed in the interior of the result and w u and f(u) in fwd, so
        one residual allocates at most its result.
        """
        h, n = self.grid.h, self.grid.n
        R = np.empty_like(u) if out is None else out
        # difference-of-differences: on monotone stretches the first
        # differences are exact, so the evaluation floor is ~eps*|u''|
        # instead of ~eps*|u|/h^2 (matters for the residual invariant)
        fwd = np.subtract(u[1:], u[:-1], out=self.fwd)
        lap = np.subtract(fwd[1:], fwd[:-1], out=R[1:-1])
        lap /= h**2
        # fwd is free once lap is formed: it holds the transport, w u, f(u)
        transport = np.subtract(u[2:], u[:-2], out=fwd[1:])
        transport *= self.curv
        transport /= 2.0 * h
        lap += transport
        # w u - lap - f(u), in the rounding order of -lap + w u - f(u)
        wu = np.multiply(self.w[1:-1], u[1:-1], out=fwd[1:])
        mid = np.subtract(wu, lap, out=lap)
        mid -= self.force.f(u[1:-1], out=fwd[1:])
        R[0] = -2.0 * n * (u[1] - u[0]) / h**2 + self.w[0] * u[0] - self.force.f(u[0])
        R[-1] = u[-1]
        return R

    def jacobian(self, u: np.ndarray, dl: np.ndarray, d: np.ndarray,
                 du: np.ndarray) -> None:
        """Tridiagonal Jacobian of residual, written into the caller's
        sub-, main and superdiagonal buffers (LAPACK dgtsv's dl, d and du:
        lengths m-1, m, m-1).

        Writes every entry of the three, so they need no zeroing, and reads
        none, so they may hold anything; the banded (3, m) layout of
        solve_banded((1, 1), ...) is the views (du, d, dl) = (J[0, 1:],
        J[1], J[2, :-1]) with J[0, 0] = J[2, -1] = 0.  The transport
        coefficients (n-1)/(2 h s) are formed in dl before the
        off-diagonals are, and f'(u) in fwd.
        """
        h, n = self.grid.h, self.grid.n
        transport = np.multiply(2.0 * h, self.grid.nodes[1:-1], out=dl[:-1])
        np.divide(n - 1, transport, out=transport)
        du[0] = -2.0 * n / h**2
        np.subtract(-1.0 / h**2, transport, out=du[1:])
        np.add(-1.0 / h**2, transport, out=dl[:-1])
        dl[-1] = 0.0
        diag = np.add(2.0 / h**2, self.w[1:-1], out=d[1:-1])
        diag -= self.force.fp(u[1:-1], out=self.fwd[1:])
        d[0] = 2.0 * n / h**2 + self.w[0] - self.force.fp(np.asarray(u[0]))
        d[-1] = 1.0


def _newton_step(colloc: _Collocation, u: np.ndarray, R: np.ndarray,
                 dl: np.ndarray, d: np.ndarray, du: np.ndarray) -> np.ndarray:
    """Newton direction J(u)^-1 R, solved in place on R.

    dl, d and du take colloc.jacobian's three diagonals, and dgtsv
    overwrites them, so they may be any scratch arrays of lengths m-1, m
    and m-1 that are free until the call returns; the Newton loop passes
    its line-search buffers for dl and du.  R is dgtsv's right-hand side
    and comes back holding the step, so the residual at u is gone after
    the call; the Newton loop reads only its max-norm, which it kept.
    LAPACK dgtsv on those diagonals is the routine solve_banded((1, 1),
    ...) calls, so the step has the same bits.
    """
    colloc.jacobian(u, dl, d, du)
    if not np.isfinite(_sup(d)):
        raise NewtonDivergence("Newton Jacobian is not finite")
    *_, step, info = dgtsv(dl, d, du, R, overwrite_dl=1, overwrite_d=1,
                           overwrite_du=1, overwrite_b=1)
    if info > 0:
        raise NewtonDivergence(f"Newton Jacobian is singular (zero pivot at row {info})")
    return step


def _accept_bounds(colloc: _Collocation, u: np.ndarray,
                   tol_coeff: float) -> tuple[float, float, float]:
    """(max|u|, tolerance, roundoff floor) of colloc's accept rule at u.

    kappa = 2 in the floor: rounding each stored node by eps_mach/2 |u| moves
    the second difference by up to (1 + 2 + 1) eps_mach/2 max|u| / h^2
    (measured stalls on grids of step 1e-3 sit at 1.2 eps_mach max|u| / h^2).
    """
    peak = _sup(u)
    return (peak, tol_coeff * (1.0 + peak**colloc.force.p),
            2.0 * np.finfo(float).eps * peak / colloc.grid.h**2)


def _newton_strong(colloc: _Collocation, u: np.ndarray, tol_coeff: float, polish: bool):
    """Damped Newton on colloc's system from u, a float64 array of its grid's
    size that the loop overwrites (module docstring, "Stopping rules").
    Returns (u, max|R(u)|, accepted steps, residual evaluations, roundoff
    floor, newton_stop)."""
    u[-1] = 0.0
    seed_peak = _sup(u)
    if not np.isfinite(seed_peak):
        raise NewtonDivergence("Newton seed is not finite")
    R, Rc, cand, diag = (np.empty_like(u) for _ in range(4))
    iters, stop = 0, "max_iter"
    # overflow in a rejected candidate is expected; a non-finite state raises
    with np.errstate(over="ignore", invalid="ignore"):
        rmax = _sup(colloc.residual(u, out=R))
        evals = 1
        if not np.isfinite(rmax):
            raise NewtonDivergence("residual of the Newton seed is not finite")
        while iters < MAX_ITER:
            peak, thr, floor = _accept_bounds(colloc, u, tol_coeff)
            if rmax <= 0.02 * thr:
                stop = "tolerance"
                break
            settled = rmax <= max(thr, floor)
            if settled and not polish:
                stop = "acceptable"
                break
            # the line search rewrites Rc and cand, so they can take the
            # Jacobian's off-diagonals
            du = _newton_step(colloc, u, R, Rc[:-1], diag, cand[:-1])
            if settled:
                # the polish: one full step unless the correction is at
                # roundoff, kept if acceptable, whatever its residual
                stop = "roundoff"
                if _sup(du) <= POLISH_ULPS * np.finfo(float).eps * peak:
                    break
                np.subtract(u, du, out=cand)
                rc = _sup(colloc.residual(cand, out=Rc))
                evals += 1
                _, thr, floor = _accept_bounds(colloc, cand, tol_coeff)
                if np.isfinite(rc) and rc <= max(thr, floor):
                    u, rmax = cand, rc
                    iters += 1
                break
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
                stop = "roundoff"
                break
            u, cand = cand, u
            R, Rc = Rc, R
            rmax = rc
            iters += 1
    peak, thr, floor = _accept_bounds(colloc, u, tol_coeff)
    if peak < 1e-3 * seed_peak:
        raise ConvergedToZero("iterates collapsed toward the zero solution")
    if rmax > max(thr, floor):
        raise NewtonDivergence(
            f"residual {rmax:.3e} stayed above the tolerance {thr:.3e} "
            f"and the roundoff floor {floor:.3e}"
        )
    return u, rmax, iters, evals, floor, stop


def _coarse_start(fine: _Collocation, seed: np.ndarray,
                  tol_coeff: float) -> tuple[np.ndarray, int] | None:
    """The fine loop's start, a fresh array, and the coarse loop's accepted
    steps; None unless seed is far (module docstring, "Coarse start").  The
    coarse grid takes an even interval count of COARSEN h intervals."""
    grid = fine.grid
    k = (grid.size - 1) // COARSEN
    k -= k % 2
    if k < 2:
        return None
    end = COARSEN * k + 1
    coarse = RadialGrid.make(grid.n, float(grid.nodes[end - 1]), COARSEN * grid.h,
                             grid.s_min)
    u = np.array(seed[:end:COARSEN], dtype=float)
    u[-1] = 0.0
    colloc = _Collocation(coarse, fine.w[:end:COARSEN], fine.force)
    m = coarse.size
    with np.errstate(over="ignore", invalid="ignore"):
        R = colloc.residual(u)
        if not np.isfinite(_sup(R)):
            return None
        try:
            du = _newton_step(colloc, u, R, np.empty(m - 1), np.empty(m), np.empty(m - 1))
        except NewtonDivergence:
            return None
        if not _sup(du) > FAR * _sup(u):
            return None
    try:
        u, _, iters, *_ = _newton_strong(colloc, u, tol_coeff, polish=False)
    except SolverError:
        return None
    return np.interp(grid.nodes, coarse.nodes, u, right=0.0), iters


def solve_full(
    n: int,
    p: float,
    eps: float,
    spec: PotentialSpec,
    seed: np.ndarray,
    grid: RadialGrid,
    trunc_K: float | None = None,
    tol_coeff: float = 1e-10,
    *,
    polish: bool = True,
) -> FullSolution:
    """Newton solve of the collocation system from seed on grid.

    A polished solve from a far seed starts its Newton loop on grid from
    the coarse start's result instead (module docstring, "Coarse start");
    coarse_iters counts the coarse loop's accepted steps, newton_iters and
    residual_evals the loop on grid.  With polish False the solve returns
    its first acceptable iterate instead of taking at most one full step
    from it (module docstring, "Stopping rules"), and always starts from
    seed; only pohozaev_refinement_check sets it.
    """
    if len(seed) != grid.size:
        raise ConfigError("seed length does not match the grid")
    if n != grid.n:
        raise ConfigError(f"n={n} does not match the grid's dimension {grid.n}")
    seed_peak = float(np.abs(seed).max())
    if seed_peak == 0.0:
        raise ConvergedToZero("the Newton seed is the zero solution")
    ops = DiscreteOperators(grid, eps, spec, p)
    if is_supercritical(n, p):
        K = trunc_K if trunc_K is not None else 2.0 * seed_peak
        force = TruncatedForce(p, K)
    else:
        K = None
        force = ops.force
    # the scheme and the start's array die with the loop, before the audit
    colloc = _Collocation(grid, ops.w, force)
    start = None
    if polish and np.isfinite(seed_peak):
        start = _coarse_start(colloc, seed, tol_coeff)
    u, coarse_iters = start or (np.array(seed, dtype=float), 0)
    del start
    u, rmax, iters, evals, floor, stop = _newton_strong(colloc, u, tol_coeff, polish)
    del colloc
    if float(u[:-1].min()) <= 0.0:
        raise SolverError("solution lost positivity")
    if K is not None and float(u.max()) >= K:
        raise TruncationSaturated(
            f"solution peak {u.max():.6f} reached the force cap {K}"
        )
    audit = pohozaev_audit(ops, u)
    return FullSolution(
        eps=eps,
        n=n,
        p=p,
        grid=grid,
        profile=u,
        residual_max=rmax,
        peak_rho=_peak_location(grid, u),
        mass_weighted=ops.quad(u * u),
        audit=audit,
        truncation_active=bool(K is not None and np.any(force.active_on(u))),
        newton_iters=iters,
        coarse_iters=coarse_iters,
        residual_evals=evals,
        roundoff_floor=float(floor),
        newton_stop=stop,
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


def pohozaev_audit(ops: DiscreteOperators, u: np.ndarray) -> PohozaevAudit:
    """Defects of the two integral identities of u, in unrescaled variables.

    ops are the operators of u's grid, eps, potential and p; solve_full
    passes those of its own solve.

    identity 1 (pairing with u):   K + W - P = 0
    identity 2 (dilation):         K - (eps^3/2) int s^n V' u^2
                                     - n (1/2 - 1/(p+1)) P = 0
    normalized by the largest term entering each.
    """
    grid, eps, spec, p = ops.grid, ops.eps, ops.spec, ops.p
    n = grid.n
    du = deriv4(grid, u)
    scale = eps**n
    K1 = scale * ops.quad(du * du)
    W1 = scale * ops.quad(ops.w * u * u)
    P1 = scale * ops.quad(np.abs(u) ** (p + 1))
    vm = scale * (eps**3 / 2.0) * ops.quad(
        grid.nodes * spec.Vp(eps * grid.nodes) * (u * u))
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
    """Re-solve on the grid of step 2h and report the defect shrink factors.

    The 2h grid's nodes are full's even-indexed nodes bit for bit (2h k and
    h 2k round alike), plus one node past s_max where Simpson's even
    interval count needs it, so the seed is full.profile[::2] with a zero
    there.  Returns (coarse audit, fine audit, (d_1, d_2) shrink), the
    shrink being defect(2h) / defect(h), about 4 for a second-order
    solution; the fine audit is full's own.  The pair checks the same h^2
    law as (h, h/2) on a quarter of the re-solve's nodes, and a
    pre-asymptotic h^4 term moves its ratio about 4x further from 4.  The
    re-solve stops at its first acceptable iterate (polish=False): the
    shrink ratio does not see the bits the polish would move.
    """
    grid = full.grid
    coarse_grid = RadialGrid.make(grid.n, grid.s_max, 2.0 * grid.h, grid.s_min)
    even = full.profile[::2]
    seed = np.zeros(coarse_grid.size)
    seed[:even.size] = even
    coarse = solve_full(
        full.n, full.p, full.eps, spec, seed, coarse_grid,
        trunc_K=trunc_K if trunc_K is not None else full.force_cap,
        tol_coeff=tol_coeff, polish=False,
    ).audit
    tiny = np.finfo(float).tiny
    ratios = (
        coarse.defect_1 / max(full.audit.defect_1, tiny),
        coarse.defect_2 / max(full.audit.defect_2, tiny),
    )
    return coarse, full.audit, ratios


@dataclass(frozen=True)
class AsymptoticTermRow:
    name: str
    measured: float
    predicted: float
    rel_err: float
    skipped: bool = False


def asymptotic_terms_check(
    full: FullSolution, spec: PotentialSpec
) -> list[AsymptoticTermRow]:
    """Leading-order layer predictions for the four integral quantities.

    All in the unrescaled radial variable r = eps*s; the layer sits at
    r = eps*rho, rho the peak radius, with the local soliton scale
    beta(eps*rho).  The measured integrals are the ones solve_full took for
    its audit and mass.  Where V'(eps*rho) vanishes the v-moment prediction
    is zero, and its row is marked skipped instead of divided through.
    """
    n, p, eps = full.n, full.p, full.eps
    audit = full.audit
    rho = full.peak_rho
    beta = float(np.sqrt(spec.W(eps, eps * rho)))
    consts = ground_state_constants(GroundStateProfile(p=p, lam=1.0), n=n)
    A = consts.kinetic_half
    shell = eps**n * rho ** (n - 1)
    e1 = (p + 3.0) / (p - 1.0)
    e2 = 4.0 / (p - 1.0) - 1.0

    rows = []
    meas = audit.kinetic
    pred = 2.0 * A * beta**e1 * shell
    rows.append(AsymptoticTermRow("kinetic", meas, pred, abs(meas - pred) / abs(pred)))

    meas = eps**n * full.mass_weighted
    pred = 2.0 * (p + 3.0) / (p - 1.0) * A * beta**e2 * shell
    rows.append(AsymptoticTermRow("mass", meas, pred, abs(meas - pred) / abs(pred)))

    meas = audit.potential
    pred = 4.0 * (p + 1.0) / (p - 1.0) * A * beta**e1 * shell
    rows.append(AsymptoticTermRow("power", meas, pred, abs(meas - pred) / abs(pred)))

    vp = float(spec.Vp(eps * rho))
    meas = 2.0 * audit.v_moment
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
    beta = float(np.sqrt(spec.W(full.eps, full.eps * rho)))
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
    branch_sign: int          # sign of M_eps'' at t_value: the branch's tag
    params: AnsatzParams      # the ansatz at rho_star
    bracket: tuple[float, float]  # the rho interval the rho* search ran on
    reduced: RhoStarResult
    full: FullSolution


@dataclass(frozen=True)
class ContinuationResult:
    members: tuple[FamilyMember, ...]
    completed: bool
    failed_eps: float | None
    failure: str | None


def member_seed(params: AnsatzParams, spec: PotentialSpec, reduced: RhoStarResult,
                grid: RadialGrid) -> np.ndarray:
    """A member's full-solve seed on grid: z at params.rho (its rho*) plus the
    reduction's omega interpolated onto grid, zero past the reduction grid."""
    red = reduced.solution
    return build_z(params, spec, grid) + np.interp(
        grid.nodes, red.grid.nodes, red.omega, left=0.0, right=0.0)


def solve_member(params: AnsatzParams, spec: PotentialSpec, bracket: tuple[float, float],
                 *, trunc_K: float | None, h_reduce: float, h_solve: float,
                 tol_coeff: float, after: FamilyMember | None = None) -> FamilyMember:
    """One family member: rho* in bracket, its branch tag, and the full solve.

    params is the ansatz at bracket[0].  The member is tagged with the sign
    of M_eps'' at its own t = eps rho*, from one eval_M call.  When after
    (the member before it) carries the other tag, the member has left the
    branch and BranchSwitch is raised before the full solve.  The full
    solve runs on the grid of step h_solve from member_seed, so a member
    depends on the one before only through its bracket and that tag.
    """
    eps, n, p = params.eps, params.n, params.p
    red = find_rho_star(params, spec, bracket, h=h_reduce)
    t = eps * red.rho_star
    sign = int(np.sign(eval_M(spec, n, p, eps, t).Mpp))
    if after is not None and sign != after.branch_sign:
        raise BranchSwitch(
            f"t={t:.6g} has sign(M'')={sign:+d}, the member before it "
            f"t={after.t_value:.6g} and sign(M'')={after.branch_sign:+d}"
        )
    star = params.with_rho(red.rho_star)
    grid = grid_for(star, h_solve)
    full = solve_full(n, p, eps, spec, member_seed(star, spec, red, grid), grid,
                      trunc_K=trunc_K, tol_coeff=tol_coeff)
    return FamilyMember(eps=eps, rho_star=red.rho_star, t_value=t, branch_sign=sign,
                        params=star, bracket=bracket, reduced=red, full=full)


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
    tol_coeff: float = 1e-10,
    known=(),
) -> ContinuationResult:
    """Track the layer family down the eps schedule, one solve_member each.

    The first member brackets the critical radius inside t_bracket, later
    members within RECENTRE of the previous t to stay on the same branch
    of M'(t) = 0; either interval is clipped to the member's configuration
    window (config.rho_bracket).  A first bracket with nothing left is a
    ConfigError; a later one ends the family with OutOfConfigurationSet
    and keeps the members before it, as does any other SolverError,
    BranchSwitch included.  tol_coeff sets the full solves' Newton
    tolerance.

    known holds members solved before, in schedule order (a stored family,
    family_store).  The k-th is taken in place of a solve when every member
    before it was taken and its eps, bracket and params equal the ones
    derived here, params at its own rho*; from the first that differs on,
    every member is solved.
    """
    sched = check_schedule(schedule)
    members: list[FamilyMember] = []
    for eps in sched:
        prev = members[-1] if members else None
        try:
            if prev is None:
                bracket = first_bracket(eps, C1, C2, t_bracket)
            else:
                t = prev.t_value
                bracket = rho_bracket(eps, C1, C2, (t - RECENTRE, t + RECENTRE))
            params = AnsatzParams.make(n, p, eps, bracket[0], spec, C1, C2, gamma=gamma,
                                       eps_max=float(sched[0]))
            k = len(members)
            stored = known[k] if k < len(known) else None
            if stored is not None and (stored.eps, stored.bracket, stored.params) == (
                    eps, bracket, replace(params, rho=stored.rho_star)):
                members.append(stored)
            else:
                known = ()
                members.append(solve_member(
                    params, spec, bracket, trunc_K=trunc_K, h_reduce=h_reduce,
                    h_solve=h_solve, tol_coeff=tol_coeff, after=prev))
        except SolverError as exc:
            return ContinuationResult(tuple(members), False, float(eps),
                                      f"{type(exc).__name__}: {exc}")
    return ContinuationResult(tuple(members), True, None, None)
