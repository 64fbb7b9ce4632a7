"""Radial grids, weighted quadrature and the discrete energy.

All rescaled computations live on a uniform grid in the stretched radial
variable s, carrying the measure s^(n-1) ds.

Two discrete pictures coexist and are kept strictly separate:

* the energy picture (energy, gradient, Hessian, Gram matrix of the
  weighted inner product), used by the reduction.  The kinetic term uses
  first differences weighted at interval midpoints and the mass terms use
  the trapezoid rule, so the Euler-Lagrange system of the discrete energy
  is the standard conservative three-point scheme: pointwise consistent,
  tridiagonal, no odd-even decoupling.  (Simpson weights inside the
  quadratic forms look more accurate but make the discrete gradient
  inconsistent at O(1): the kinetic part of row i carries the neighbours'
  alternating coefficients while the mass part carries the node's own, so
  the cancellation between -u'' and (w u - u^p) fails node by node.)
* the collocation picture (pointwise residual of the radial ODE with a
  mirror node at the origin and Dirichlet at s_max), which the full
  Newton solver owns (full_solver._Collocation); it reads only w from
  here.

Scalar integrals of known samples (masses, Pohozaev terms, asymptotic
checks) go through composite Simpson, which is a quadrature question only
and free to be higher order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import _heap  # noqa: F401  -- on import, keeps freed arrays in the heap
from ._lapack import dgtsv, dpttrf, dpttrs
from .exceptions import ConfigError, EigensolverError, EllipticityViolation, HessianSingular
from .forces import PowerForce
from .potentials import PotentialSpec

# largest grid RadialGrid.make builds: 64 MiB per float64 array; a family
# member's solve holds fewer than ARRAYS_PER_NODE of them, its seed and its
# grid's nodes included (10.3 measured, 8.1 of them the full solve's), and
# its refinement audit, which re-solves on the 2h grid, about 5 (README)
MAX_NODES = 2**23
ARRAYS_PER_NODE = 11

# relative slack, in units of eps_mach, below which (s_max - s_min)/h is
# taken as a whole number of intervals
SLACK_ULPS = 4

__all__ = [
    "RadialGrid",
    "DiscreteOperators",
    "tridiag_mul",
    "bordered_solve",
    "constrained_min_eig",
    "deriv4",
]


@dataclass(frozen=True, eq=False)
class RadialGrid:
    """Uniform radial grid on [s_min, s_max] with an even interval count."""

    n: int
    s_min: float
    s_max: float
    h: float
    nodes: np.ndarray

    @classmethod
    def make(cls, n: int, s_max: float, h: float, s_min: float = 0.0) -> "RadialGrid":
        if n < 2 or int(n) != n:
            raise ConfigError(f"dimension must be an integer >= 2, got {n}")
        if not (h > 0 and s_max > s_min >= 0):
            raise ConfigError(f"bad grid request: [{s_min}, {s_max}], h={h}")
        # the quotient's rounding error grows with it, so its slack is
        # relative: a grid re-made from its own s_max keeps its nodes
        quotient = (s_max - s_min) / h
        intervals = float(np.ceil(quotient * (1.0 - SLACK_ULPS * np.finfo(float).eps)))
        # Simpson wants an even number of intervals
        count = intervals + intervals % 2 + 1 if intervals < np.inf else np.inf
        if not count <= MAX_NODES:
            gib = ARRAYS_PER_NODE * 8 * count / 2**30
            raise ConfigError(
                f"grid on [{s_min}, {s_max}] with h={h} needs {count:,.0f} nodes, "
                f"over the budget of {MAX_NODES:,}: a full solve would hold about "
                f"{ARRAYS_PER_NODE} float64 arrays of that size, {gib:,.1f} GiB"
            )
        nodes = s_min + h * np.arange(int(count))
        return cls(n=int(n), s_min=s_min, s_max=float(nodes[-1]), h=h, nodes=nodes)

    @property
    def size(self) -> int:
        return len(self.nodes)

    # The quadrature factors are rebuilt on each read: every
    # DiscreteOperators caches the products it uses, and a cached factor
    # would live as long as the grid, which each FullSolution keeps.

    @property
    def simpson_coeffs(self) -> np.ndarray:
        c = np.full(len(self.nodes), 2.0)
        c[1::2] = 4.0
        c[0] = c[-1] = 1.0
        c *= self.h / 3.0
        return c

    @property
    def trapezoid_coeffs(self) -> np.ndarray:
        c = np.full(len(self.nodes), self.h)
        c[0] = c[-1] = self.h / 2.0
        return c

    @property
    def radial_weight(self) -> np.ndarray:
        return self.nodes ** (self.n - 1)

    @property
    def mid_weight(self) -> np.ndarray:
        """s^(n-1) at interval midpoints."""
        return (self.nodes[:-1] + self.h / 2.0) ** (self.n - 1)


def tridiag_mul(ab: np.ndarray, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Product of a symmetric tridiagonal matrix in upper-banded storage with
    v, written into out when given."""
    out = np.multiply(ab[1], v, out=out)
    out[1:] += ab[0, 1:] * v[:-1]
    out[:-1] += ab[0, 1:] * v[1:]
    return out


# Block elimination is not backward stable for nearly singular A, so a
# bordered solve whose normwise backward error exceeds this raises.  With a
# near-kernel border (zdot for J'') x = A^{-1} f - A^{-1} C y cancels and the
# test suite's solves reach 3.1e-13; 1e-10 flags six digits lost.
BACKWARD_TOL = 1e-10


def bordered_solve(ab: np.ndarray, cols: np.ndarray, rows: np.ndarray,
                   rhs: np.ndarray) -> np.ndarray:
    """Solution of [[A, C], [R^T, 0]] [x; y] = [f; g] by block elimination.

    A is symmetric tridiagonal in upper-banded (2, m) storage, C and R are
    (m, k) borders with small k (a 1-d array is one column); the transposed
    system is the same call with C and R swapped.  One LAPACK dgtsv
    eliminates A for C and f together, y solves the k x k Schur complement
    R^T A^{-1} C, which for one border column (the projected Newton
    system) is a division, and x = A^{-1} f - A^{-1} C y (Keller 1977).  A
    zero pivot of A, a singular complement, or a normwise backward error
    above BACKWARD_TOL raises HessianSingular.
    """
    m = ab.shape[1]
    cols = np.asarray(cols, dtype=float).reshape(m, -1)
    rows = np.asarray(rows, dtype=float).reshape(m, -1)
    k = cols.shape[1]
    b = np.empty((m, k + 1), order="F")
    b[:, :k], b[:, k] = cols, rhs[:m]
    *_, b, info = dgtsv(ab[0, 1:], ab[1], ab[0, 1:], b, overwrite_b=True)
    if info > 0:
        raise HessianSingular(f"zero pivot at row {info} of the tridiagonal block")
    w, x = b[:, :k], b[:, k]  # A^{-1} C and A^{-1} f
    f, g = rhs[:m], rhs[m:]
    if k == 1:
        c, r, w = cols[:, 0], rows[:, 0], w[:, 0]
        schur = float(np.dot(r, w))
        if schur == 0.0:
            raise HessianSingular("singular Schur complement")
        y = (float(np.dot(r, x)) - g[0]) / schur
        sol = np.empty(m + 1)
        sol[m] = y
        x = np.subtract(x, np.multiply(w, y, out=sol[:m]), out=sol[:m])
        res = tridiag_mul(ab, x)
        res += c * y
        res -= f
        res_max = np.maximum(np.abs(res).max(), abs(np.dot(r, x) - g[0]))
    else:
        try:
            y = np.linalg.solve(rows.T @ w, rows.T @ x - g)
        except np.linalg.LinAlgError as exc:
            raise HessianSingular(f"singular Schur complement: {exc}") from exc
        sol = np.concatenate([x - w @ y, y])
        x = sol[:m]
        res_max = np.abs(np.concatenate([tridiag_mul(ab, x) + cols @ y - f,
                                         rows.T @ x - g])).max()
    # the backward error is res_max / (norm * max|sol| + max|rhs|), at most
    # res_max / max|rhs|; the norm is formed only when that bound does not
    # settle the test, which then decides as the full one does
    tiny = np.finfo(float).tiny
    rhs_max = np.abs(rhs).max()
    if not res_max / max(rhs_max, tiny) <= BACKWARD_TOL:
        norm = _bordered_norm(ab, cols, rows)
        backward = res_max / max(norm * np.abs(sol).max() + rhs_max, tiny)
        if not backward <= BACKWARD_TOL:
            raise HessianSingular(f"bordered solve left backward error {backward:.2e}")
    return sol


def _bordered_norm(ab: np.ndarray, cols: np.ndarray, rows: np.ndarray) -> float:
    """Largest absolute row sum of [[A, C], [R^T, 0]], A's read off its two
    diagonals."""
    a = np.abs(ab)
    row_sums = a[1]
    row_sums[1:] += a[0, 1:]
    row_sums[:-1] += a[0, 1:]
    row_sums += np.abs(cols).sum(axis=1)
    return max(row_sums.max(), np.abs(rows).sum(axis=0).max())


def constrained_min_eig(A: np.ndarray, B: np.ndarray, border: np.ndarray) -> float:
    """Smallest eigenvalue of A v = theta B v on {v : border^T v = 0}.

    A and B are symmetric tridiagonal in upper-banded storage, B positive
    definite, and border holds the constraint columns (for B-orthogonality
    to Y, border = B Y).  Shift-invert inverse iteration on the bordered
    pencil [[A - sigma B, border], [border^T, 0]], which enforces the
    constraints exactly, until theta settles to 1e-11 relative within 60
    iterations.
    """
    m = A.shape[1]
    shifted = A
    pad = np.zeros(np.size(border) // m)
    v = np.ones(m)
    v /= np.sqrt(max(float(v @ tridiag_mul(B, v)), np.finfo(float).tiny))
    theta_prev = np.inf
    for it in range(60):
        w = bordered_solve(shifted, border, border, np.concatenate([tridiag_mul(B, v), pad]))[:m]
        nw = np.sqrt(float(w @ tridiag_mul(B, w)))
        if not np.isfinite(nw) or nw == 0.0:
            raise EigensolverError("constrained inverse iteration collapsed")
        v = w / nw
        theta = float(v @ tridiag_mul(A, v))
        if abs(theta - theta_prev) <= 1e-11 * max(1.0, abs(theta)):
            return theta
        theta_prev = theta
        if it % 6 == 5:  # Rayleigh re-shift; cubic convergence from here
            shifted = A - theta * B
    raise EigensolverError("constrained inverse iteration did not settle")


def deriv4(grid: RadialGrid, u: np.ndarray) -> np.ndarray:
    """Fourth-order first derivative, used only by integral audits.

    Assumes an even extension through s=0 when the grid starts at the origin
    (mirror node), and degrades to low order at the far end where profiles
    have already decayed to roundoff.
    """
    h = grid.h
    du = np.empty_like(u)
    du[2:-2] = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * h)
    if grid.s_min == 0.0:
        du[0] = 0.0
        du[1] = (-u[3] + 8.0 * u[2] - 8.0 * u[0] + u[1]) / (12.0 * h)
    else:
        du[0] = (u[1] - u[0]) / h
        du[1] = (u[2] - u[0]) / (2.0 * h)
    du[-2] = (u[-1] - u[-3]) / (2.0 * h)
    du[-1] = (u[-1] - u[-2]) / h
    return du


class DiscreteOperators:
    """Cached discrete calculus for one (grid, eps, potential, p) quadruple.

    Only w is built eagerly.  The Simpson weights omega are built by the
    first quad, which in a full solve is its audit, after the Newton
    buffers are freed; the energy-picture weights and the Gram matrix,
    which a full solve never reads, on first use.
    """

    def __init__(self, grid: RadialGrid, eps: float, spec: PotentialSpec, p: float):
        self.grid = grid
        self.eps = float(eps)
        self.spec = spec
        self.p = float(p)
        self.force = PowerForce(p)
        self.w = spec.W(eps, eps * grid.nodes)

    @cached_property
    def omega(self) -> np.ndarray:
        return self.grid.simpson_coeffs * self.grid.radial_weight

    @cached_property
    def mass_w(self) -> np.ndarray:
        return self.grid.trapezoid_coeffs * self.grid.radial_weight

    @cached_property
    def kin_w(self) -> np.ndarray:
        return self.grid.mid_weight / self.grid.h

    @cached_property
    def gram_banded(self) -> np.ndarray:
        m = self.grid.size
        kin = self.kin_w
        ab = np.zeros((2, m))
        ab[1] = self.mass_w * self.w
        ab[1, :-1] += kin
        ab[1, 1:] += kin
        ab[0, 1:] = -kin
        return ab

    @cached_property
    def _gram_ldl(self) -> tuple[np.ndarray, np.ndarray]:
        # the Gram matrix is symmetric positive definite and tridiagonal, so
        # LAPACK dpttrf factors it as L D L^T in O(m)
        d, e, info = dpttrf(self.gram_banded[1], self.gram_banded[0, 1:])
        if info != 0:
            raise EllipticityViolation(f"Gram matrix not positive definite (pivot {info})")
        return d, e

    # ---- weighted inner product and Gram matrix ----------------------

    def quad(self, f: np.ndarray) -> float:
        """integral of f(s) s^(n-1) ds over the grid by composite Simpson."""
        return float(np.dot(self.omega, f))

    def kinetic_form(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        du = np.diff(u)
        dv = du if v is None else np.diff(v)
        return float(np.dot(self.kin_w, du * dv))

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.kinetic_form(u, v) + float(np.dot(self.mass_w * self.w, u * v))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def gram_mul(self, v: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        return tridiag_mul(self.gram_banded, v, out=out)

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """Representative of the functional v -> g.v in the weighted product.

        Solves G w = g with the L D L^T factor of the Gram matrix, built once
        per set of operators (LAPACK dpttrf/dpttrs).  g is not checked: a
        non-finite g gives a non-finite w.
        """
        return dpttrs(*self._gram_ldl, g)[0]

    def dual_norm(self, g: np.ndarray) -> float:
        return float(np.sqrt(max(np.dot(g, self.riesz(g)), 0.0)))

    # ---- energy picture ----------------------------------------------

    def energy(self, u: np.ndarray) -> float:
        return float(
            0.5 * self.kinetic_form(u)
            + 0.5 * np.dot(self.mass_w * self.w, u * u)
            - np.dot(self.mass_w, self.force.energy_density(u))
        )

    def grad(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Vector g with <J'(u), v> = g . v for every grid direction v,
        written into out when given."""
        f = self.force.f(u)
        f *= self.mass_w
        g = self.gram_mul(u, out=out)
        g -= f
        return g

    def hess_banded(self, u: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Upper banded (tridiagonal) form of the symmetric discrete J''(u),
        written into out when given."""
        fp = self.force.fp(u)
        fp *= self.mass_w
        ab = np.empty_like(self.gram_banded) if out is None else out
        ab[0] = self.gram_banded[0]
        np.subtract(self.gram_banded[1], fp, out=ab[1])
        return ab
