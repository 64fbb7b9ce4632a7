"""Bounded radial potentials and the effective concentration weight.

A solution layer sitting on the sphere of radius r feels the weight
W = 1 + eps^2 V(r) (PotentialSpec.W) and the effective weight

    M_eps(r) = eps^(2(n-2)) * r^(n-1) * W^((p+3)/(2(p-1))),

and layers can only equilibrate where M_eps'(r) = 0 with nonzero curvature.
This module owns the two potential families, W and its ellipticity check,
the evaluation of M and its derivatives, and the critical radius search:
Illinois steps on M' down to neighbouring floats, whose end with the
smaller |M'| is the root.  The families are sine, an oscillating V whose
slope can balance a layer at any radius, so its critical radii reach
t ~ c/eps^2 as eps falls (a cosine is a sine at phase + pi/2), and zero,
the control without a potential.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field

import numpy as np

from .exceptions import (
    ConfigError,
    DegenerateCriticalPoint,
    EllipticityViolation,
    NoCriticalPoint,
)

__all__ = [
    "PotentialSpec",
    "EffectivePotentialPoint",
    "CriticalRadiusResult",
    "eval_M",
    "find_critical_radius",
]


@dataclass(frozen=True, eq=False)
class PotentialSpec:
    """A bounded potential V on [0, inf) with declared bounds.

    Each of the two constructors below, zero and sine, defines its
    family's V, V' and V'' once, as functions of a float or float array,
    and sets bound_V >= sup |V| from the family parameters.
    W(eps, t) = 1 + eps^2 V(t) raises EllipticityViolation where it is
    not positive; the uniform floor 1 + eps^2 V >= lambda0^2 > 0 is
    enforced through lambda0(eps_max).
    """

    family: str
    bound_V: float
    V: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    Vp: Callable[[np.ndarray], np.ndarray] = field(repr=False)
    Vpp: Callable[[np.ndarray], np.ndarray] = field(repr=False)

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls) -> "PotentialSpec":
        return cls("zero", 0.0, np.zeros_like, np.zeros_like, np.zeros_like)

    @classmethod
    def sine(cls, amplitude: float = 1.0, frequency: float = 1.0, phase: float = 0.0):
        return cls(
            "sine", abs(amplitude),
            lambda r: amplitude * np.sin(frequency * r + phase),
            lambda r: amplitude * frequency * np.cos(frequency * r + phase),
            lambda r: -amplitude * frequency**2 * np.sin(frequency * r + phase),
        )

    # -- evaluation ---------------------------------------------------

    def W(self, eps: float, t):
        """1 + eps^2 V(t), or EllipticityViolation unless every value is > 0 (NaN fails)."""
        w = 1.0 + eps**2 * self.V(t)
        if not np.all(w > 0.0):
            raise EllipticityViolation(f"1 + eps^2 V <= 0 or NaN (eps={eps}, {self.family})")
        return w

    def lambda0(self, eps_max: float) -> float:
        """Uniform ellipticity floor: 1 + eps^2 V >= lambda0^2 for eps <= eps_max.

        Config validation, the --eps override and AnsatzParams all check
        the rule 1 - eps_max^2 bound_V > 0 here; a ConfigError names the
        eps at which the floor vanishes.
        """
        floor = 1.0 - eps_max**2 * self.bound_V
        if floor <= 0.0:
            raise ConfigError(
                f"ellipticity floor 1 - eps^2 sup|V| vanishes at eps={eps_max:g}")
        return float(np.sqrt(floor))


@dataclass(frozen=True)
class EffectivePotentialPoint:
    r: np.ndarray
    M: np.ndarray
    Mp: np.ndarray
    Mpp: np.ndarray


def _slope(spec: PotentialSpec, n: int, p: float, eps: float, r) -> tuple:
    """M_eps' at r, and the terms eval_M reuses for M and M'':
    (M', r, q, pref, W, V', r^(n-1), r^(n-2)).  The critical-radius scan
    and its Illinois steps read M' alone, without V'' and M''."""
    r = np.asarray(r, dtype=float)
    q = (p + 3.0) / (2.0 * (p - 1.0))
    pref = eps ** (2 * (n - 2))

    W = spec.W(eps, r)
    Vp = spec.Vp(r)

    rn1 = r ** (n - 1)
    rn2 = r ** (n - 2)
    Mp = pref * ((n - 1) * rn2 * W**q + rn1 * q * W ** (q - 1.0) * eps**2 * Vp)
    return Mp, r, q, pref, W, Vp, rn1, rn2


def eval_M(
    spec: PotentialSpec, n: int, p: float, eps: float, r
) -> EffectivePotentialPoint:
    """Effective weight M_eps and its first two radial derivatives, each
    analytic through the chain rule on the family's V, V' and V''."""
    Mp, r, q, pref, W, Vp, rn1, rn2 = _slope(spec, n, p, eps, r)
    Vpp = spec.Vpp(r)
    M = pref * rn1 * W**q
    term0 = (n - 1) * (n - 2) * r ** (n - 3) * W**q if n > 2 else np.zeros_like(r)
    Mpp = pref * (
        term0
        + 2.0 * (n - 1) * rn2 * q * W ** (q - 1.0) * eps**2 * Vp
        + rn1
        * (
            q * (q - 1.0) * W ** (q - 2.0) * eps**4 * Vp**2
            + q * W ** (q - 1.0) * eps**2 * Vpp
        )
    )

    return EffectivePotentialPoint(r=r, M=M, Mp=Mp, Mpp=Mpp)


def _illinois(f, a: float, fa: float, b: float, fb: float, done=None) -> float:
    """Illinois regula falsi (Dowell & Jarratt, BIT 11, 1971) on [a, b].

    fa = f(a) and fb = f(b) differ in sign.  Each step evaluates f at the
    secant root of the two ends, keeps the sign change, and halves the
    value at an end kept twice in a row (superlinear, order about 1.44);
    a secant point that rounds onto an end is replaced by the float next
    to that end inside the bracket, which settles a root within an ulp of
    it in one step where a midpoint would bisect down to it.  Stops
    when done() holds, at a point where f is exactly zero (returned), or
    when a and b are neighbouring floats.  Returns the end with the
    smaller true |f|, the smaller x on ties.
    """
    ga, gb = fa, fb  # f at a and b; fa and fb are the values the steps halve
    kept = 0  # -1: a was kept by the last step, +1: b was
    while done is None or not done():
        x = (a * fb - b * fa) / (fb - fa)
        if not a < x < b:
            # the secant point rounds onto an end: try that end's neighbour
            x = float(np.nextafter(b, a) if x >= b else np.nextafter(a, b))
            if x in (a, b):
                break
        fx = f(x)
        if fx == 0.0:
            return x
        if np.sign(fx) == np.sign(fa):
            a, fa, ga, fb = x, fx, fx, 0.5 * fb if kept == 1 else fb
            kept = 1
        else:
            b, fb, gb, fa = x, fx, fx, 0.5 * fa if kept == -1 else fa
            kept = -1
    return a if abs(ga) <= abs(gb) else b


def _critical_roots(spec: PotentialSpec, n: int, p: float, eps: float,
                    lo: float, hi: float) -> list[float]:
    """Roots of M'_eps in [lo, hi], ascending: Illinois steps down to
    neighbouring floats on every sign change of a 10,000-point scan of M',
    and the scan points where M' is exactly zero.  find_critical_radius and
    reduction.find_rho_star share it."""
    grid = np.linspace(lo, hi, 10_000)
    mp = _slope(spec, n, p, eps, grid)[0]
    sign = np.sign(mp)
    roots = [_illinois(lambda r: float(_slope(spec, n, p, eps, np.array([r]))[0][0]),
                       float(grid[i]), float(mp[i]), float(grid[i + 1]), float(mp[i + 1]))
             for i in np.nonzero(sign[:-1] * sign[1:] < 0)[0]]
    roots += [float(grid[i]) for i in np.nonzero(sign == 0)[0]]
    return sorted(roots)


@dataclass(frozen=True)
class CriticalRadiusResult:
    t_eps: float
    curvature: float           # M''(t_eps)
    roots: tuple[float, ...]   # every root located on the scan grid
    bracket: tuple[float, float]


def find_critical_radius(
    spec: PotentialSpec,
    n: int,
    p: float,
    eps: float,
    bracket: tuple[float, float],
    beta_floor: float = 0.05,
) -> CriticalRadiusResult:
    """Locate the smallest nondegenerate critical radius of M_eps in bracket.

    The roots are _critical_roots': a scan of M' on a uniform grid of
    10,000 points and Illinois steps on every sign change of the scan until
    its ends are neighbouring floats.  A root is the float next to the sign
    change of the computed M' with the smaller |M'|, the smaller t on ties,
    so brackets that share a root return it alike.  Its curvature M'' is
    read there once.  Roots whose |M''| falls below beta_floor are reported
    but not eligible.  Raises NoCriticalPoint when the scan finds no sign
    change, DegenerateCriticalPoint when roots exist but all are flatter
    than the floor.
    """
    lo, hi = float(bracket[0]), float(bracket[1])
    if not (0.0 < lo < hi):
        raise ConfigError(f"invalid bracket {bracket}")
    uniq: list[tuple[float, float]] = []
    for t in _critical_roots(spec, n, p, eps, lo, hi):
        curv = float(eval_M(spec, n, p, eps, np.array([t])).Mpp[0])
        if not uniq or abs(t - uniq[-1][0]) > 1e-7 * (hi - lo):
            uniq.append((t, curv))

    if not uniq:
        raise NoCriticalPoint(
            f"M' has no sign change in [{lo}, {hi}] (eps={eps}, family={spec.family})"
        )

    eligible = [(t, curv) for t, curv in uniq if abs(curv) >= beta_floor]
    if not eligible:
        raise DegenerateCriticalPoint(
            f"all critical radii in [{lo}, {hi}] have |M''| < {beta_floor}"
        )
    t_star, curv = eligible[0]
    return CriticalRadiusResult(
        t_eps=t_star, curvature=curv, roots=tuple(t for t, _ in uniq), bracket=(lo, hi)
    )
