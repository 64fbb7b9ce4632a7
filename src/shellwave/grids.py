"""Radial grids, weighted quadrature, discrete energy and residuals.

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
  mirror node at the origin and Dirichlet at s_max), used by the full
  Newton solver.

Scalar integrals of known samples (masses, Pohozaev terms, asymptotic
checks) go through composite Simpson, which is a quadrature question only
and free to be higher order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from .exceptions import ConfigError, EigensolverError, EllipticityViolation, HessianSingular
from .forces import PowerForce
from .potentials import PotentialSpec

__all__ = [
    "RadialGrid",
    "DiscreteOperators",
    "quadrature",
    "tridiag_mul",
    "BorderedTridiagonal",
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
        m = int(np.ceil((s_max - s_min) / h - 1e-12))
        m += m % 2  # Simpson wants an even number of intervals
        nodes = s_min + h * np.arange(m + 1)
        return cls(n=int(n), s_min=s_min, s_max=float(nodes[-1]), h=h, nodes=nodes)

    @property
    def size(self) -> int:
        return len(self.nodes)

    @cached_property
    def simpson_coeffs(self) -> np.ndarray:
        m = len(self.nodes) - 1
        c = np.empty(m + 1)
        if m % 2 == 0:
            c[:] = 2.0
            c[1::2] = 4.0
            c[0] = c[-1] = 1.0
            c *= self.h / 3.0
        else:
            # composite Simpson on the first m-3 intervals, 3/8 rule on the rest
            c[:] = 0.0
            head = m - 3
            ch = np.full(head + 1, 2.0)
            ch[1::2] = 4.0
            ch[0] = ch[-1] = 1.0
            c[: head + 1] += ch * self.h / 3.0
            c[head:] += np.array([1.0, 3.0, 3.0, 1.0]) * 3.0 * self.h / 8.0
        return c

    @cached_property
    def trapezoid_coeffs(self) -> np.ndarray:
        c = np.full(len(self.nodes), self.h)
        c[0] = c[-1] = self.h / 2.0
        return c

    @cached_property
    def radial_weight(self) -> np.ndarray:
        return self.nodes ** (self.n - 1)

    @cached_property
    def mid_weight(self) -> np.ndarray:
        """s^(n-1) at interval midpoints."""
        return (self.nodes[:-1] + self.h / 2.0) ** (self.n - 1)

    def refine(self) -> "RadialGrid":
        """Same span, half the step."""
        return RadialGrid.make(self.n, self.s_max, self.h / 2.0, self.s_min)


def quadrature(grid: RadialGrid, samples: np.ndarray) -> float:
    """integral of f(s) s^(n-1) ds over the grid by composite Simpson."""
    samples = np.asarray(samples, dtype=float)
    if samples.shape != grid.nodes.shape:
        raise ConfigError(
            f"sample length {samples.shape} does not match grid {grid.nodes.shape}"
        )
    return float(np.dot(grid.simpson_coeffs * grid.radial_weight, samples))


def tridiag_mul(ab: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of a symmetric tridiagonal matrix in upper-banded storage with v."""
    out = ab[1] * v
    out[1:] += ab[0, 1:] * v[:-1]
    out[:-1] += ab[0, 1:] * v[1:]
    return out


class BorderedTridiagonal:
    """Solver for [[A, C], [R^T, 0]] [x; y] = [f; g] by block elimination.

    A is symmetric tridiagonal in upper-banded (2, m) storage, C and R are
    (m, k) borders with small k (a 1-d array is one column); the transposed
    system is the same solver with C and R swapped.  A is factored once
    (LAPACK dgttrf) and each solve eliminates y through the k x k Schur
    complement R^T A^{-1} C in O(m) (Keller 1977).
    """

    # Block elimination is not backward stable for nearly singular A, so a
    # solve whose normwise backward error exceeds this raises.  With a
    # near-kernel border (zdot for J'') x = A^{-1} f - A^{-1} C y cancels and
    # the test suite's solves reach 3.1e-13; 1e-10 flags six digits lost.
    BACKWARD_TOL = 1e-10

    def __init__(self, ab: np.ndarray, cols: np.ndarray, rows: np.ndarray):
        m = ab.shape[1]
        self.ab = ab
        self.cols = np.asarray(cols, dtype=float).reshape(m, -1)
        self.rows = np.asarray(rows, dtype=float).reshape(m, -1)
        self.size = m + self.cols.shape[1]
        *self._lu, info = dgttrf(ab[0, 1:], ab[1], ab[0, 1:])
        if info > 0:
            raise HessianSingular(f"zero pivot at row {info} of the tridiagonal block")
        self._w = dgttrs(*self._lu, self.cols)[0]
        self._schur = self.rows.T @ self._w
        row_sums = tridiag_mul(np.abs(ab), np.ones(m)) + np.abs(self.cols).sum(axis=1)
        self._norm = max(row_sums.max(), np.abs(self.rows).sum(axis=0).max())

    def solve(self, rhs: np.ndarray) -> np.ndarray:
        m = self.ab.shape[1]
        f, g = rhs[:m], rhs[m:]
        x = dgttrs(*self._lu, f)[0]
        try:
            y = np.linalg.solve(self._schur, self.rows.T @ x - g)
        except np.linalg.LinAlgError as exc:
            raise HessianSingular(f"singular Schur complement: {exc}") from exc
        sol = np.concatenate([x - self._w @ y, y])
        x = sol[:m]
        res = np.concatenate([tridiag_mul(self.ab, x) + self.cols @ y - f, self.rows.T @ x - g])
        scale = self._norm * np.abs(sol).max() + np.abs(rhs).max()
        backward = np.abs(res).max() / max(scale, np.finfo(float).tiny)
        if not backward <= self.BACKWARD_TOL:
            raise HessianSingular(f"bordered solve left backward error {backward:.2e}")
        return sol


def constrained_min_eig(
    A: np.ndarray,
    B: np.ndarray,
    border: np.ndarray,
    tol: float = 1e-11,
    max_iter: int = 60,
) -> float:
    """Smallest eigenvalue of A v = theta B v on {v : border^T v = 0}.

    A and B are symmetric tridiagonal in upper-banded storage, B positive
    definite, and border holds the constraint columns (for B-orthogonality
    to Y, border = B Y).  Shift-invert inverse iteration on the bordered
    pencil [[A - sigma B, border], [border^T, 0]], which enforces the
    constraints exactly.
    """
    m = A.shape[1]
    K = BorderedTridiagonal(A, border, border)
    pad = np.zeros(K.size - m)
    v = np.ones(m)
    v /= np.sqrt(max(float(v @ tridiag_mul(B, v)), np.finfo(float).tiny))
    theta_prev = np.inf
    for it in range(max_iter):
        w = K.solve(np.concatenate([tridiag_mul(B, v), pad]))[:m]
        nw = np.sqrt(float(w @ tridiag_mul(B, w)))
        if not np.isfinite(nw) or nw == 0.0:
            raise EigensolverError("constrained inverse iteration collapsed")
        v = w / nw
        theta = float(v @ tridiag_mul(A, v))
        if abs(theta - theta_prev) <= tol * max(1.0, abs(theta)):
            return theta
        theta_prev = theta
        if it % 6 == 5:  # Rayleigh re-shift; cubic convergence from here
            K = BorderedTridiagonal(A - theta * B, border, border)
    raise EigensolverError("constrained inverse iteration did not settle")


def deriv4(grid: RadialGrid, u: np.ndarray, even_origin: bool = True) -> np.ndarray:
    """Fourth-order first derivative, used only by integral audits.

    Assumes an even extension through s=0 when the grid starts at the origin
    (mirror node), and degrades to low order at the far end where profiles
    have already decayed to roundoff.
    """
    h = grid.h
    du = np.empty_like(u)
    du[2:-2] = (-u[4:] + 8.0 * u[3:-1] - 8.0 * u[1:-3] + u[:-4]) / (12.0 * h)
    if even_origin and grid.s_min == 0.0:
        du[0] = 0.0
        du[1] = (-u[3] + 8.0 * u[2] - 8.0 * u[0] + u[1]) / (12.0 * h)
    else:
        du[0] = (u[1] - u[0]) / h
        du[1] = (u[2] - u[0]) / (2.0 * h)
    du[-2] = (u[-1] - u[-3]) / (2.0 * h)
    du[-1] = (u[-1] - u[-2]) / h
    return du


class DiscreteOperators:
    """Cached discrete calculus for one (grid, eps, potential, p) quadruple."""

    def __init__(self, grid: RadialGrid, eps: float, spec: PotentialSpec, p: float):
        self.grid = grid
        self.eps = float(eps)
        self.spec = spec
        self.p = float(p)
        self.force = PowerForce(p)
        s = grid.nodes
        self.h = grid.h
        self.omega = grid.simpson_coeffs * grid.radial_weight
        self.mass_w = grid.trapezoid_coeffs * grid.radial_weight
        self.kin_w = grid.mid_weight / grid.h
        self.w = 1.0 + eps**2 * spec.value(eps * s)
        if np.any(self.w <= 0.0):
            raise EllipticityViolation(
                f"1 + eps^2 V <= 0 on the grid (eps={eps}, family={spec.family})"
            )
        self.gram_banded = self._assemble_gram()

    @cached_property
    def _gram_cho(self) -> np.ndarray:
        return cholesky_banded(self.gram_banded, lower=False)

    # ---- weighted inner product and Gram matrix ----------------------

    def quad(self, f: np.ndarray, extra: np.ndarray | None = None) -> float:
        if extra is None:
            return float(np.dot(self.omega, f))
        return float(np.dot(self.omega, extra * f))

    def kinetic_form(self, u: np.ndarray, v: np.ndarray | None = None) -> float:
        du = np.diff(u)
        dv = du if v is None else np.diff(v)
        return float(np.dot(self.kin_w, du * dv))

    def inner(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.kinetic_form(u, v) + float(np.dot(self.mass_w * self.w, u * v))

    def norm(self, u: np.ndarray) -> float:
        return float(np.sqrt(max(self.inner(u, u), 0.0)))

    def norm_eps(self, u: np.ndarray) -> float:
        """Scaled-gradient norm sqrt(int s^(n-1) (eps^2 u'^2 + u^2))."""
        val = self.eps**2 * self.kinetic_form(u) + np.dot(self.mass_w, u * u)
        return float(np.sqrt(max(val, 0.0)))

    def _assemble_gram(self) -> np.ndarray:
        m = self.grid.size
        kin = self.kin_w
        ab = np.zeros((2, m))
        ab[1] = self.mass_w * self.w
        ab[1, :-1] += kin
        ab[1, 1:] += kin
        ab[0, 1:] = -kin
        return ab

    def gram_mul(self, v: np.ndarray) -> np.ndarray:
        return tridiag_mul(self.gram_banded, v)

    def riesz(self, g: np.ndarray) -> np.ndarray:
        """Representative of the functional v -> g.v in the weighted product."""
        return cho_solve_banded((self._gram_cho, False), g)

    def dual_norm(self, g: np.ndarray) -> float:
        return float(np.sqrt(max(np.dot(g, self.riesz(g)), 0.0)))

    # ---- energy picture ----------------------------------------------

    def energy(self, u: np.ndarray) -> float:
        return float(
            0.5 * self.kinetic_form(u)
            + 0.5 * np.dot(self.mass_w * self.w, u * u)
            - np.dot(self.mass_w, self.force.energy_density(u))
        )

    def grad(self, u: np.ndarray) -> np.ndarray:
        """Vector g with <J'(u), v> = g . v for every grid direction v."""
        return self.gram_mul(u) - self.mass_w * self.force.f(u)

    def hess_banded(self, u: np.ndarray) -> np.ndarray:
        """Upper banded (tridiagonal) form of the symmetric discrete J''(u)."""
        ab = self.gram_banded.copy()
        ab[1] -= self.mass_w * self.force.fp(u)
        return ab

    def hess_mul(self, u: np.ndarray, v: np.ndarray) -> np.ndarray:
        """J''(u) v."""
        return self.gram_mul(v) - self.mass_w * self.force.fp(u) * v

    def hess_quadform(self, u: np.ndarray, v: np.ndarray) -> float:
        return self.kinetic_form(v) + float(
            np.dot(self.mass_w * (self.w - self.force.fp(u)), v * v)
        )

    # ---- collocation picture ------------------------------------------

    @cached_property
    def _colloc(self) -> "_CollocationWork":
        return _CollocationWork(self.grid, self.w)

    def strong_residual(self, u: np.ndarray, force=None,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Pointwise residual of -u'' - (n-1)/s u' + w u - f(u) with BC rows.

        Needs the grid to start at the origin; the first row uses the
        symmetric limit -n u''(0) (mirror node), and the last row is the
        Dirichlet condition u(s_max) = 0.  Writes into out when given;
        temporaries live in the operators' workspace, so one residual
        allocates at most its result.
        """
        if self.grid.s_min != 0.0:
            raise ConfigError("collocation residual requires a grid starting at 0")
        if force is None:
            force = self.force
        ws = self._colloc
        h = self.h
        n = self.grid.n
        R = np.empty_like(u) if out is None else out
        # difference-of-differences: on monotone stretches the first
        # differences are exact, so the evaluation floor is ~eps*|u''|
        # instead of ~eps*|u|/h^2 (matters for the residual invariant)
        fwd = np.subtract(u[1:], u[:-1], out=ws.fwd)
        lap = np.subtract(fwd[1:], fwd[:-1], out=ws.lap)
        lap /= ws.h2
        transport = np.subtract(u[2:], u[:-2], out=ws.tmp)
        transport *= ws.curv
        transport /= ws.two_h
        lap += transport
        # w u - lap - f(u), in the rounding order of -lap + w u - f(u)
        mid = np.multiply(self.w[1:-1], u[1:-1], out=R[1:-1])
        mid -= lap
        mid -= force.f(u[1:-1], out=ws.tmp)
        R[0] = -2.0 * n * (u[1] - u[0]) / h**2 + self.w[0] * u[0] - force.f(u[0])
        R[-1] = u[-1]
        return R

    def strong_jacobian(self, u: np.ndarray, force=None,
                        out: np.ndarray | None = None) -> np.ndarray:
        """Tridiagonal Jacobian of strong_residual in solve_banded (1,1) layout.

        Only the diagonal depends on u; the stencil part is precomputed.
        """
        if force is None:
            force = self.force
        ws = self._colloc
        J = np.empty_like(ws.jac) if out is None else out
        np.copyto(J, ws.jac)
        J[1, 1:-1] -= force.fp(u[1:-1], out=ws.tmp)
        J[1, 0] -= force.fp(np.asarray(u[0]))
        return J


class _CollocationWork:
    """Stencil coefficients and scratch arrays of the collocation kernels.

    Each coefficient is computed by the same expression the kernels used
    inline, so precomputing it changes no bit of a residual or Jacobian.
    The scratch arrays are overwritten by every kernel call.
    """

    def __init__(self, grid: RadialGrid, w: np.ndarray):
        s = grid.nodes
        h = grid.h
        n = grid.n
        m = grid.size
        self.h2 = h**2
        self.two_h = 2.0 * h
        self.curv = (n - 1) / s[1:-1]
        self.fwd = np.empty(m - 1)
        self.lap = np.empty(m - 2)
        self.tmp = np.empty(m - 2)
        transport = (n - 1) / (2.0 * h * s[1:-1])
        jac = np.zeros((3, m))
        jac[0, 2:] = -1.0 / h**2 - transport          # superdiagonal for rows 1..m-2
        jac[1, 1:-1] = 2.0 / h**2 + w[1:-1]          # minus f'(u) per call
        jac[2, :-2] = -1.0 / h**2 + transport          # subdiagonal
        jac[1, 0] = 2.0 * n / h**2 + w[0]
        jac[0, 1] = -2.0 * n / h**2
        jac[1, -1] = 1.0
        self.jac = jac
