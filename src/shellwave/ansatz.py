"""Layer ansatz: parameter windows, origin cutoff, the manifold element z,
its rho-derivative, and the grids that carry them.

z places a 1D ground-state profile at radius rho with local dispersion
beta = (1 + eps^2 V(eps rho))^(1/2), multiplied by a cutoff vanishing
near the origin.  rho ranges over the configuration window
[C1/(2 eps^3), 2 C2/eps^3].
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .config import P_FLOOR, omega_window
from .exceptions import ConfigError, OutOfConfigurationSet
from .grids import RadialGrid
from .ground_state import GroundStateProfile
from .potentials import PotentialSpec

__all__ = [
    "AnsatzParams",
    "build_z",
    "build_zdot",
    "build_z_and_zdot",
    "grid_for",
]

# decay room, in lengths 1/lambda0, that every grid keeps past the layer
TAIL = 40.0


@dataclass(frozen=True)
class AnsatzParams:
    """Frozen parameter bundle for one (eps, rho) manifold element.

    gamma is the remainder-set radius, ||omega|| <= gamma eps^3 ||z||.
    """

    n: int
    p: float
    eps: float
    rho: float
    C1: float
    C2: float
    gamma: float
    lambda0: float

    @classmethod
    def make(
        cls,
        n: int,
        p: float,
        eps: float,
        rho: float,
        spec: PotentialSpec,
        C1: float,
        C2: float,
        gamma: float = 2.0,
        eps_max: float | None = None,
    ) -> "AnsatzParams":
        if p <= P_FLOOR:
            raise ConfigError(
                f"p={p} rejected: the decay window (lambda0/min(p,2), lambda0) "
                f"nearly closes for p near 1 (floor {P_FLOOR})"
            )
        if n < 2:
            raise ConfigError(f"need n >= 2, got {n}")
        if not (eps > 0 and C1 > 0 and C2 > 0 and gamma > 0):
            raise ConfigError("eps, C1, C2, gamma must be positive")
        lam0 = spec.lambda0(eps_max if eps_max is not None else eps)
        params = cls(
            n=int(n), p=float(p), eps=float(eps), rho=float(rho),
            C1=float(C1), C2=float(C2), gamma=float(gamma),
            lambda0=float(lam0),
        )
        params._check_rho()
        beta = params.beta(spec)
        if beta < lam0 - 1e-12:
            raise OutOfConfigurationSet(
                f"beta(eps rho)={beta} dips below lambda0={lam0}"
            )
        return params

    def _check_rho(self) -> None:
        lo, hi = self.omega_window
        if not (lo <= self.rho <= hi):
            raise OutOfConfigurationSet(
                f"rho={self.rho} outside [{lo}, {hi}] at eps={self.eps}"
            )

    @property
    def omega_window(self) -> tuple[float, float]:
        return omega_window(self.eps, self.C1, self.C2)

    def with_rho(self, rho: float) -> "AnsatzParams":
        out = replace(self, rho=float(rho))
        out._check_rho()
        return out

    def beta(self, spec: PotentialSpec) -> float:
        return math.sqrt(spec.W(self.eps, self.eps * self.rho))

    def profile(self, spec: PotentialSpec) -> GroundStateProfile:
        return GroundStateProfile(p=self.p, lam=self.beta(spec))


def grid_for(params: AnsatzParams, h: float, rho_max: float | None = None) -> RadialGrid:
    """Grid from the origin past the layer, with TAIL/lambda0 of decay room."""
    top = params.rho if rho_max is None else rho_max
    return RadialGrid.make(params.n, top + TAIL / params.lambda0, h)


def cutoff(params: AnsatzParams, r):
    """Quintic smoothstep ramp from 0 at C1/(16 eps^3) to 1 at C1/(8 eps^3)."""
    lo = params.C1 / (16.0 * params.eps**3)
    hi = params.C1 / (8.0 * params.eps**3)
    t = np.clip((np.asarray(r, dtype=float) - lo) / (hi - lo), 0.0, 1.0)
    # off the ramp t is 0 or 1, and so is the polynomial exactly: floor(t)
    # gives it there, and the costly t**3 runs on the ramp's nodes only
    out = np.floor(t)
    on = (t > 0.0) & (t < 1.0)
    ramp = t[on]
    out[on] = ramp**3 * (10.0 - 15.0 * ramp + 6.0 * ramp**2)
    return out


def _coverage_check(params: AnsatzParams, grid: RadialGrid) -> None:
    need = params.rho + TAIL / params.lambda0
    if grid.s_max < need - 1e-9:
        raise ConfigError(
            f"grid ends at {grid.s_max}, needs to cover rho + tail/lambda0 = {need}"
        )
    if grid.s_min != 0.0:
        raise ConfigError("ansatz grids start at the origin")


def build_z(params: AnsatzParams, spec: PotentialSpec, grid: RadialGrid) -> np.ndarray:
    """Manifold element z(s) = cutoff(s) * Q_beta(s - rho)."""
    params._check_rho()
    _coverage_check(params, grid)
    prof = params.profile(spec)
    return cutoff(params, grid.nodes) * prof.value(grid.nodes - params.rho)


def build_zdot(params: AnsatzParams, spec: PotentialSpec, grid: RadialGrid) -> np.ndarray:
    """d z / d rho: dispersion drift through beta(eps rho) plus translation.

    The dispersion term differentiates the closed-form profile in lambda^2
    (lambda^2 = 1 + eps^2 V(eps rho), so d lambda^2/d rho = eps^3 V'(eps rho)).
    build_z_and_zdot returns it with z, bit for bit, for less work.
    """
    return build_z_and_zdot(params, spec, grid)[1]


def build_z_and_zdot(params: AnsatzParams, spec: PotentialSpec,
                     grid: RadialGrid) -> tuple[np.ndarray, np.ndarray]:
    """build_z and build_zdot from one cutoff and two sech powers.

    The translation term reuses Q_beta(s - rho) from z, and the drift term
    evaluates Q_1 once; every expression keeps its rounding order, so both
    arrays equal the separate evaluations bit for bit.
    """
    params._check_rho()
    _coverage_check(params, grid)
    prof = params.profile(spec)
    s = grid.nodes - params.rho
    cut = cutoff(params, grid.nodes)
    q = prof.value(s)
    dlam2 = params.eps**3 * float(spec.Vp(params.eps * params.rho))
    drift = dlam2 * prof.dvalue_dlambda_sq(s) if dlam2 != 0.0 else 0.0
    return cut * q, cut * (drift - prof.derivative(s, q))
