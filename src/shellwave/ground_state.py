"""One-dimensional ground state of -u'' + lam^2 u = u^p and its linearization.

The profile has the closed form

    Q_lam(s) = ((p+1) lam^2 / 2)^(1/(p-1)) * sech((p-1) lam s / 2)^(2/(p-1)),

positive, even, exponentially decaying like exp(-lam |s|).  Everything else
in the package is built on top of this profile: quadrature constants, the
linearized operator -d^2/ds^2 + lam^2 - p Q^(p-1) and its spectrum.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from ._lapack import dstebz, dstein
from .exceptions import ConfigError, EigensolverError, ToleranceNotReached
from .grids import constrained_min_eig, tridiag_mul

__all__ = [
    "GroundStateProfile",
    "GroundStateConstants",
    "NondegeneracyReport",
    "sphere_area",
    "ground_state_constants",
    "identity_spread",
    "nondegeneracy_report",
]

# the spectral audit's interval (-W, W), W = SPECTRUM_HALF_WIDTH / lam, and step
SPECTRUM_HALF_WIDTH = 20.0
SPECTRUM_STEP = 1e-2


def sphere_area(n: int) -> float:
    """Surface measure of the unit sphere in R^n: 2 pi^(n/2) / Gamma(n/2)."""
    if n < 1:
        raise ConfigError(f"dimension must be >= 1, got {n}")
    return float(2.0 * np.pi ** (n / 2.0) / math.gamma(n / 2.0))


@dataclass(frozen=True)
class GroundStateProfile:
    """Closed-form even positive solution of -u'' + lam^2 u = u^p on R."""

    p: float
    lam: float = 1.0

    def __post_init__(self) -> None:
        if not self.p > 1.0:
            raise ConfigError(f"exponent p must exceed 1, got {self.p}")
        if not self.lam > 0.0:
            raise ConfigError(f"lam must be positive, got {self.lam}")

    @property
    def amplitude(self) -> float:
        """Peak value Q_lam(0) = ((p+1) lam^2 / 2)^(1/(p-1))."""
        return float(((self.p + 1.0) * self.lam**2 / 2.0) ** (1.0 / (self.p - 1.0)))

    @property
    def sech_rate(self) -> float:
        """Argument rate kappa = (p-1) lam / 2 inside the sech."""
        return 0.5 * (self.p - 1.0) * self.lam

    @property
    def sech_power(self) -> float:
        return 2.0 / (self.p - 1.0)

    def _sech_pow(self, x: np.ndarray, m: float) -> np.ndarray:
        # sech(x)^m written in exponentials so large |x| underflows cleanly
        # instead of overflowing cosh.
        ax = np.abs(x)
        return np.exp(m * (np.log(2.0) - ax - np.log1p(np.exp(-2.0 * ax))))

    def value(self, s) -> np.ndarray:
        s = np.asarray(s, dtype=float)
        return self.amplitude * self._sech_pow(self.sech_rate * s, self.sech_power)

    def derivative(self, s, value=None) -> np.ndarray:
        """Q_lam'(s); value, when given, is value(s), which then is not
        evaluated again."""
        s = np.asarray(s, dtype=float)
        x = self.sech_rate * s
        if value is None:
            value = self.value(s)
        return -self.sech_power * self.sech_rate * np.tanh(x) * value

    def dvalue_dlambda_sq(self, s) -> np.ndarray:
        """Derivative of the profile with respect to lam^2 at fixed s.

        Writing U_V(s) = V^(1/(p-1)) Q_1(sqrt(V) s) with V = lam^2 gives

            dU/dV = lam^(2/(p-1)-2) [ Q_1(lam s)/(p-1) + (lam s / 2) Q_1'(lam s) ].
        """
        s = np.asarray(s, dtype=float)
        base = GroundStateProfile(self.p, 1.0)
        pref = self.lam ** (2.0 / (self.p - 1.0) - 2.0)
        y = self.lam * s
        q = base.value(y)
        return pref * (q / (self.p - 1.0) + 0.5 * self.lam * s * base.derivative(y, q))


@dataclass(frozen=True)
class GroundStateConstants:
    """Quadrature constants of a profile, plus derived prefactors.

    mass_full    = int_R Q^2
    kinetic_half = int_0^inf (Q')^2
    lp1_full     = int_R Q^(p+1)
    energy_const = (1/2 - 1/(p+1)) lp1_full      (equals 2*kinetic_half)
    mass_const   = 2 (p+3)/(p-1) kinetic_half    (equals mass_full)
    B_const      = sphere_area(n) * mass_full
    """

    p: float
    lam: float
    n: int
    mass_full: float
    kinetic_half: float
    lp1_full: float
    energy_const: float
    mass_const: float
    B_const: float


def _simpson(vals: np.ndarray, h: float) -> float:
    # composite Simpson; vals must have an odd length (even interval count)
    if len(vals) % 2 == 0:
        raise ValueError("Simpson rule needs an even number of intervals")
    acc = vals[0] + vals[-1] + 4.0 * vals[1:-1:2].sum() + 2.0 * vals[2:-2:2].sum()
    return float(acc * h / 3.0)


def ground_state_constants(profile: GroundStateProfile, n: int) -> GroundStateConstants:
    """Integrate the profile on [0, 40/lam], halving the step from 1e-3 until
    the integrals agree to 1e-10.

    The tail bound exp(-2 lam S) with S = 40/lam is far below that
    tolerance, so the truncation never dominates.  Raises
    ToleranceNotReached if halving the step three times fails to stabilize
    the integrals.  Results are cached per (p, lam, n); p and lam are keyed
    as floats, so the returned p field is a float whatever type the caller
    passed.
    """
    return _ground_state_constants(float(profile.p), float(profile.lam), int(n))


@functools.lru_cache(maxsize=None)
def _ground_state_constants(p: float, lam: float, n: int) -> GroundStateConstants:
    profile = GroundStateProfile(p, lam)
    S = 40.0 / lam
    tol = 1e-10

    def integrals(h: float) -> tuple[float, float, float]:
        m = int(np.ceil(S / h))
        m += m % 2
        s = np.linspace(0.0, S, m + 1)
        hh = s[1] - s[0]
        q = profile.value(s)
        qp = profile.derivative(s)
        return (
            2.0 * _simpson(q**2, hh),
            _simpson(qp**2, hh),
            2.0 * _simpson(q ** (profile.p + 1.0), hh),
        )

    h = 1e-3
    prev = integrals(h)
    for _ in range(3):
        h /= 2.0
        cur = integrals(h)
        err = max(abs(a - b) / max(1.0, abs(b)) for a, b in zip(prev, cur))
        if err <= tol:
            break
        prev = cur
    else:
        raise ToleranceNotReached(
            f"ground-state quadrature did not stabilize to {tol}"
        )

    mass_full, kinetic_half, lp1_full = cur
    return GroundStateConstants(
        p=p,
        lam=lam,
        n=n,
        mass_full=mass_full,
        kinetic_half=kinetic_half,
        lp1_full=lp1_full,
        energy_const=(0.5 - 1.0 / (p + 1.0)) * lp1_full,
        mass_const=2.0 * (p + 3.0) / (p - 1.0) * kinetic_half,
        B_const=sphere_area(n) * mass_full,
    )


def identity_spread(c: GroundStateConstants) -> tuple[float, float, float, float]:
    """The three half-line quantities that coincide by the 1d identities,

        q1 = int_0^inf Q'^2,
        q2 = (int_R Q^(p+1) - lam^2 int_R Q^2) / 2,
        q3 = lam^2 int_R Q^2 / 2 - int_R Q^(p+1) / (p+1),

    and their relative spread (max - min) / |q1|, zero up to quadrature error.
    """
    lam2 = c.lam**2
    q1 = c.kinetic_half
    q2 = 0.5 * c.lp1_full - 0.5 * lam2 * c.mass_full
    q3 = 0.5 * lam2 * c.mass_full - c.lp1_full / (c.p + 1.0)
    return q1, q2, q3, (max(q1, q2, q3) - min(q1, q2, q3)) / max(abs(q1), 1e-300)


def _linearized_operator(
    profile: GroundStateProfile, half_width: float, step: float
) -> tuple[np.ndarray, np.ndarray]:
    """The interior nodes of (-W, W) at the given step, and L = -d^2/ds^2 +
    lam^2 - p Q^(p-1) on them by second differences with zero BCs, in
    upper-banded storage: L[1] the diagonal, L[0, 1:] the off-diagonal."""
    m = int(round(2.0 * half_width / step))
    nodes = -half_width + step * np.arange(1, m)
    L = np.zeros((2, m - 1))
    L[0, 1:] = -1.0 / step**2
    L[1] = 2.0 / step**2 + profile.lam**2 - profile.p * profile.value(nodes) ** (profile.p - 1.0)
    return nodes, L


def linearized_spectrum(
    profile: GroundStateProfile, k: int = 2
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Lowest k eigenpairs of -d^2/ds^2 + lam^2 - p Q^(p-1) with zero BCs.

    Discretized by second differences on (-W, W), W = SPECTRUM_HALF_WIDTH
    / lam, with step SPECTRUM_STEP; returns (eigenvalues, eigenvectors,
    nodes) with eigenvectors l2-normalized, sign fixed so the
    largest-magnitude component is positive.
    """
    nodes, L = _linearized_operator(profile, SPECTRUM_HALF_WIDTH / profile.lam,
                                    SPECTRUM_STEP)
    diag, off = L[1], L[0, 1:]
    # eigh_tridiagonal(select="i")'s own path: dstebz bisects for the
    # eigenvalues of 1-based index 1..k (range 2, so vl and vu are unused;
    # tol 0 is LAPACK's default) in block order, dstein finds their vectors
    # by inverse iteration, then both are sorted by eigenvalue
    count, vals, block, split, info = dstebz(diag, off, 2, 0.0, 1.0, 1, k, 0.0, "B")
    if info != 0:
        raise EigensolverError(f"dstebz failed with info={info}")
    vals = vals[:count]
    vecs, info = dstein(diag, off, vals, block, split)
    if info != 0:
        raise EigensolverError(f"dstein failed with info={info}")
    order = np.argsort(vals)
    vals, vecs = vals[order], vecs[:, order]
    for j in range(vecs.shape[1]):
        i = int(np.argmax(np.abs(vecs[:, j])))
        if vecs[i, j] < 0:
            vecs[:, j] = -vecs[:, j]
    return vals, vecs, nodes


@dataclass(frozen=True)
class NondegeneracyReport:
    """Numerical check of the kernel structure of the linearized operator."""

    quad_form_qq: float          # quadratic form evaluated at Q itself
    quad_form_qq_ref: float      # closed-form reference (1-p) * lp1_full
    eigenvalues: np.ndarray      # lowest two eigenvalues
    kernel_cosine: float         # |cos| between the second eigenvector and Q'
    complement_floor: float      # min Rayleigh quotient orthogonal to {Q, Q'}


def _floor_pencil(
    profile: GroundStateProfile, half_width: float, step: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """L and the flat H^1 Gram matrix B on the interior nodes of (-W, W), in
    upper-banded storage, and the border B [Q, Q'] whose null space is the
    H^1-orthogonal complement of span{Q, Q'}."""
    nodes, L = _linearized_operator(profile, half_width, step)
    B = L.copy()
    B[1] = 2.0 / step**2 + 1.0
    border = np.column_stack([tridiag_mul(B, profile.value(nodes)),
                              tridiag_mul(B, profile.derivative(nodes))])
    return L, B, border


def nondegeneracy_report(profile: GroundStateProfile) -> NondegeneracyReport:
    """Spectral audit of L = -d^2/ds^2 + lam^2 - p Q^(p-1).

    Reports the quadratic form at Q (strictly negative), the lowest two
    eigenvalues (one negative, one numerically zero with eigenfunction
    parallel to Q'), and the minimum H^1 Rayleigh quotient on the complement
    of span{Q, Q'}, which must be strictly positive.  Orthogonality and the
    quotient both use the flat H^1 inner product int(v'w' + vw); the
    quotient's minimum comes from a coarser grid of step 0.05.
    """
    # quadratic form at Q by quadrature
    S = SPECTRUM_HALF_WIDTH / profile.lam
    m = int(np.ceil(2 * S / SPECTRUM_STEP))
    m += m % 2
    s = np.linspace(-S, S, m + 1)
    h = s[1] - s[0]
    q = profile.value(s)
    qp = profile.derivative(s)
    integrand = qp**2 + profile.lam**2 * q**2 - profile.p * q ** (profile.p + 1.0)
    form_qq = _simpson(integrand, h)
    lp1 = _simpson(q ** (profile.p + 1.0), h)
    form_ref = (1.0 - profile.p) * lp1

    vals, vecs, nodes = linearized_spectrum(profile, k=2)
    qp_nodes = profile.derivative(nodes)
    cos = float(
        abs(np.dot(vecs[:, 1], qp_nodes))
        / (np.linalg.norm(vecs[:, 1]) * np.linalg.norm(qp_nodes))
    )

    # complement Rayleigh floor on a coarser grid
    L, B, border = _floor_pencil(profile, S, 0.05)
    floor = constrained_min_eig(L, B, border)

    return NondegeneracyReport(
        quad_form_qq=form_qq,
        quad_form_qq_ref=form_ref,
        eigenvalues=vals,
        kernel_cosine=cos,
        complement_floor=floor,
    )
