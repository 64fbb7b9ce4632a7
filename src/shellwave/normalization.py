"""Back to the original eigenvalue problem and its necessary conditions.

A layer profile u on the stretched grid (radial variable s = x/eps) turns
into the unit-mass solution of

    -Laplace(u_a) + V(x) u_a = a u_a^p + mu u_a,     int u_a^2 dx = 1,

through u_a(x) = c u(x/eps) with c = (eps^n m)^(-1/2), m the full n-dim
mass of u, which forces a = (m eps^(n - 4/(p-1)))^((p-1)/2) and
mu = -1/eps^2.  mass_check recomputes the mass with the amplitude
k = (a eps^2)^(-1/(p-1)) that the equation's scaling ties to a, so it
tests mass_to_a rather than restating c.  Everything here is bookkeeping
on top of solved profiles: no new discretization enters, so the
original-equation residual inherits the collocation residual through
E(eps s) = c eps^{-2} R(s).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .exceptions import InsufficientFamily
from .full_solver import FullSolution
from .ground_state import GroundStateProfile, ground_state_constants, sphere_area
from .potentials import PotentialSpec, eval_M

__all__ = [
    "NormalizedRecord",
    "to_original",
    "ScalingLawReport",
    "scaling_law_check",
    "NecessaryConditionsReport",
    "necessary_conditions_report",
]


@dataclass(frozen=True)
class NormalizedRecord:
    eps: float
    n: int
    p: float
    a: float
    mu: float
    mass_check: float
    rho: float            # layer radius in the stretched variable
    rho_orig: float       # eps * rho, the radius of the original solution
    m_prime_abs: float
    v_prime_abs: float
    eq1_residual: float


def mass_to_a(mass_full_nd: float, eps: float, n: int, p: float) -> float:
    """Nonlinearity coefficient forced by unit L^2 mass."""
    return float((mass_full_nd * eps ** (n - 4.0 / (p - 1.0))) ** ((p - 1.0) / 2.0))


def to_original(full: FullSolution, spec: PotentialSpec) -> NormalizedRecord:
    """Unit-mass record of full, with the layer at its peak radius."""
    n, p, eps = full.n, full.p, full.eps
    rho = full.peak_rho
    area = sphere_area(n)
    m_nd = area * full.mass_weighted
    a = mass_to_a(m_nd, eps, n, p)
    k = (a * eps**2) ** (-1.0 / (p - 1.0))
    mass_check = k**2 * eps**n * m_nd
    peak = float(np.abs(full.profile).max())
    eq1_rel = full.residual_max / peak
    t = eps * rho
    point = eval_M(spec, n, p, eps, t)
    return NormalizedRecord(
        eps=eps,
        n=n,
        p=p,
        a=a,
        mu=-1.0 / eps**2,
        mass_check=float(mass_check),
        rho=float(rho),
        rho_orig=float(t),
        m_prime_abs=abs(float(point.Mp)),
        v_prime_abs=abs(float(spec.Vp(t))),
        eq1_residual=float(eq1_rel),
    )


@dataclass(frozen=True)
class ScalingLawReport:
    eps: tuple[float, ...]
    ratios: tuple[float, ...]
    in_band_at_smallest: bool
    deviation_decreasing: bool


def scaling_law_check(records: list[NormalizedRecord]) -> ScalingLawReport:
    """Compare a^(2/(p-1)) with its shell prediction across the family.

    The prediction is C_mass * area * t^(n-1) * eps^(1 - 4/(p-1)) with
    t = eps rho; the ratio tends to 1 like beta(t)^(4/(p-1) - 1), and the
    smallest eps is in band when its ratio lies in [0.85, 1.15].
    """
    if len(records) < 3:
        raise InsufficientFamily(
            f"scaling-law trend needs at least 3 family members, got {len(records)}"
        )
    recs = sorted(records, key=lambda r: -r.eps)
    n, p = recs[0].n, recs[0].p
    consts = ground_state_constants(GroundStateProfile(p=p, lam=1.0), n)
    area = sphere_area(n)
    ratios = []
    for r in recs:
        denom = consts.mass_const * area * r.rho_orig ** (n - 1) * r.eps ** (
            1.0 - 4.0 / (p - 1.0)
        )
        ratios.append(r.a ** (2.0 / (p - 1.0)) / denom)
    dev = np.abs(np.asarray(ratios) - 1.0)
    return ScalingLawReport(
        eps=tuple(r.eps for r in recs),
        ratios=tuple(float(x) for x in ratios),
        in_band_at_smallest=bool(0.85 <= ratios[-1] <= 1.15),
        deviation_decreasing=bool(np.all(np.diff(dev) < 0.0)),
    )


@dataclass(frozen=True)
class NecessaryConditionsReport:
    eps: tuple[float, ...]
    rho: tuple[float, ...]
    rho_orig: tuple[float, ...]
    a: tuple[float, ...]
    stationarity_gap: tuple[float, ...]   # min(|M'|, |V'|) at the layer radius
    rho_increasing: bool
    rho_orig_increasing: bool
    a_increasing: bool
    stationarity_tightening: bool
    vacuous: bool
    warning: str | None


def necessary_conditions_report(
    records: list[NormalizedRecord],
) -> NecessaryConditionsReport:
    """Trend checks along a family sorted by decreasing eps.

    With a single member every trend is vacuously true and flagged as such.
    """
    recs = sorted(records, key=lambda r: -r.eps)
    gaps = [min(r.m_prime_abs, r.v_prime_abs) for r in recs]
    vacuous = len(recs) < 2
    return NecessaryConditionsReport(
        eps=tuple(r.eps for r in recs),
        rho=tuple(r.rho for r in recs),
        rho_orig=tuple(r.rho_orig for r in recs),
        a=tuple(r.a for r in recs),
        stationarity_gap=tuple(gaps),
        rho_increasing=vacuous
        or bool(np.all(np.diff([r.rho for r in recs]) > 0.0)),
        rho_orig_increasing=vacuous
        or bool(np.all(np.diff([r.rho_orig for r in recs]) > 0.0)),
        a_increasing=vacuous or bool(np.all(np.diff([r.a for r in recs]) > 0.0)),
        stationarity_tightening=vacuous or bool(np.all(np.diff(gaps) <= 1e-12)),
        vacuous=vacuous,
        warning="single member: trend checks are vacuous" if vacuous else None,
    )
