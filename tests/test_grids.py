"""Radial grid, quadrature, weighted forms, and the strong-form residual."""

import numpy as np
import pytest
from scipy.linalg import solve_banded

from shellwave.exceptions import EllipticityViolation, HessianSingular
from shellwave.forces import PowerForce, TruncatedForce
from shellwave.grids import (
    BorderedTridiagonal,
    DiscreteOperators,
    RadialGrid,
    deriv4,
    tridiag_mul,
)
from shellwave.potentials import PotentialSpec


def make_ops(n=2, rho_max=30.0, h=0.02, eps=0.4, p=3.0, amp=0.5):
    grid = RadialGrid.make(n, rho_max, h)
    spec = PotentialSpec.sine(amplitude=amp)
    return grid, DiscreteOperators(grid, eps, spec, p)


def bump(grid, center, width=1.0, amp=1.0):
    return amp * np.exp(-((grid.nodes - center) / width) ** 2)


def test_grid_nodes():
    grid = RadialGrid.make(2, 10.0, 0.5)
    assert grid.nodes[0] == 0.0
    assert grid.nodes[-1] == pytest.approx(10.0)
    assert grid.size == 21
    fine = grid.refine()
    assert fine.h == pytest.approx(0.25)
    assert fine.nodes[-1] == pytest.approx(10.0)


def test_quadrature_exact_for_smooth_decay():
    # int_0^inf s^(n-1) e^(-s) ds = (n-1)!
    for n, want in ((2, 1.0), (3, 2.0)):
        grid = RadialGrid.make(n, 60.0, 0.01)
        ops = DiscreteOperators(grid, 0.3, PotentialSpec.zero(), 3.0)
        val = ops.quad(np.exp(-grid.nodes))
        assert val == pytest.approx(want, rel=1e-9)


def test_deriv4_accuracy():
    # radial functions are even in s, which the origin stencil assumes
    grid = RadialGrid.make(2, 20.0, 0.02)
    u = np.cos(grid.nodes)
    du = deriv4(grid, u)
    # far end intentionally degrades (profiles there sit at roundoff)
    assert np.max(np.abs(du + np.sin(grid.nodes))[:-2]) < 2e-7


def test_inner_product_matches_gram():
    grid, ops = make_ops()
    u = bump(grid, 12.0)
    v = bump(grid, 14.0, width=2.0)
    assert ops.inner(u, v) == pytest.approx(float(u @ ops.gram_mul(v)), rel=1e-12)
    assert ops.norm(u) ** 2 == pytest.approx(ops.inner(u, u), rel=1e-12)


def test_riesz_inverts_gram():
    grid, ops = make_ops()
    g = bump(grid, 10.0) - 0.3 * bump(grid, 20.0, width=3.0)
    w = ops.riesz(g)
    assert np.max(np.abs(ops.gram_mul(w) - g)) < 1e-10
    assert ops.dual_norm(g) == pytest.approx(ops.norm(w), rel=1e-10)


def test_ellipticity_guard():
    grid = RadialGrid.make(2, 30.0, 0.05)
    with pytest.raises(EllipticityViolation):
        DiscreteOperators(grid, 1.2, PotentialSpec.sine(), 3.0)


def test_gradient_matches_energy_fd():
    # first variation of the energy against central differences, 20 smooth
    # seeded directions; error must fall like t^2 down to a fixed floor
    grid, ops = make_ops(rho_max=25.0, h=0.05)
    u = bump(grid, 12.0, width=1.2, amp=1.1)
    g = ops.grad(u)
    rng = np.random.default_rng(0)
    scale = max(abs(ops.energy(u)), 1.0)
    for _ in range(20):
        k = rng.uniform(0.2, 2.0)
        c = rng.uniform(5.0, 20.0)
        a = rng.uniform(-1.0, 1.0)
        v = a * np.sin(k * grid.nodes) * np.exp(-((grid.nodes - c) / 3.0) ** 2)
        dirderiv = float(g @ v)
        errs = []
        for t in (1e-3, 5e-4):
            fd = (ops.energy(u + t * v) - ops.energy(u - t * v)) / (2 * t)
            errs.append(abs(fd - dirderiv))
        assert errs[0] <= 10.0 * scale * 1e-6 + 1e-10
        # quadratic decay with a floor
        assert errs[1] <= 0.3 * errs[0] + 1e-10 * scale


def test_hessian_matches_gradient_fd():
    grid, ops = make_ops(rho_max=25.0, h=0.05)
    u = bump(grid, 12.0, width=1.2)
    v = bump(grid, 13.0, width=2.0)
    t = 1e-6
    fd = (ops.grad(u + t * v) - ops.grad(u - t * v)) / (2 * t)
    assert np.max(np.abs(ops.hess_mul(u, v) - fd)) < 1e-7


def test_hess_quadform_consistent():
    grid, ops = make_ops(rho_max=25.0, h=0.05)
    u = bump(grid, 12.0)
    v = bump(grid, 11.0, width=1.5)
    want = float(v @ ops.hess_mul(u, v))
    assert ops.hess_quadform(u, v) == pytest.approx(want, rel=1e-12)


def test_strong_residual_order_two():
    # manufactured solution: plug a smooth profile into the operator on two
    # grids; the residual against the analytic right-hand side must drop 4x
    spec = PotentialSpec.sine(amplitude=0.5)
    eps, p, n = 0.4, 3.0, 2

    def residual_sup(h):
        grid = RadialGrid.make(n, 30.0, h)
        ops = DiscreteOperators(grid, eps, spec, p)
        s = grid.nodes
        u = np.exp(-((s - 15.0) / 2.0) ** 2)
        # analytic L[u] = -u'' - (n-1)/s u' + w u - u^3
        up = -2.0 * (s - 15.0) / 4.0 * u
        upp = (-0.5 + ((s - 15.0) / 2.0) ** 2) * u
        w = 1.0 + eps**2 * spec.value(eps * s)
        with np.errstate(divide="ignore", invalid="ignore"):
            curv = np.where(s > 0, (n - 1) / np.where(s > 0, s, 1.0) * up, 0.0)
        lu = -upp - curv + w * u - u**3
        res = ops.strong_residual(u) - lu
        return np.max(np.abs(res[1:-1]))

    r1, r2 = residual_sup(0.02), residual_sup(0.01)
    assert r2 <= r1 / 3.5


def plain_power(p, u):
    return np.abs(u) ** (p - 1.0) * u


def plain_power_slope(p, u):
    return p * np.abs(u) ** (p - 1.0)


def plain_truncated(p, K, u):
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    slope = p * K ** (p - 1.0)
    tau = np.clip(a - K, 0.0, 1.0)
    blend = K**p + slope * (tau - tau**2 + tau**3 / 3.0)
    mag = np.where(a <= K, a ** (p - 1.0) * a,
                   np.where(a <= K + 1.0, blend, K**p + slope / 3.0))
    return np.sign(u) * mag


def plain_truncated_slope(p, K, u):
    u = np.asarray(u, dtype=float)
    a = np.abs(u)
    tau = np.clip(a - K, 0.0, 1.0)
    return np.where(a <= K, p * a ** (p - 1.0),
                    np.where(a <= K + 1.0, p * K ** (p - 1.0) * (1.0 - tau) ** 2, 0.0))


def plain_residual(ops, u, f):
    """The collocation residual as one numpy expression per row, with no
    workspace: the reference the workspace kernel must match bit for bit."""
    s, h, n = ops.grid.nodes, ops.h, ops.grid.n
    R = np.empty_like(u)
    fwd = u[1:] - u[:-1]
    lap = (fwd[1:] - fwd[:-1]) / h**2 + (
        (n - 1) / s[1:-1]
    ) * (u[2:] - u[:-2]) / (2.0 * h)
    R[1:-1] = -lap + ops.w[1:-1] * u[1:-1] - f(u[1:-1])
    R[0] = -2.0 * n * (u[1] - u[0]) / h**2 + ops.w[0] * u[0] - f(u[0])
    R[-1] = u[-1]
    return R


def plain_jacobian(ops, u, fp):
    s, h, n, m = ops.grid.nodes, ops.h, ops.grid.n, ops.grid.size
    ab = np.zeros((3, m))
    transport = (n - 1) / (2.0 * h * s[1:-1])
    ab[0, 2:] = -1.0 / h**2 - transport
    ab[1, 1:-1] = 2.0 / h**2 + ops.w[1:-1] - fp(u[1:-1])
    ab[2, :-2] = -1.0 / h**2 + transport
    ab[1, 0] = 2.0 * n / h**2 + ops.w[0] - fp(np.asarray(u[0]))
    ab[0, 1] = -2.0 * n / h**2
    ab[1, -1] = 1.0
    return ab


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("p", [2.0, 7.0 / 3.0, 3.0, 6.0])
@pytest.mark.parametrize("capped", [False, True])
def test_collocation_kernels_bitwise(n, p, capped):
    grid, ops = make_ops(n=n, rho_max=30.0, h=0.01, p=p)
    # peak 3.5 against the cap K = 2 crosses the blend and the constant part
    u = bump(grid, 15.0, width=2.0, amp=3.5) - bump(grid, 22.0, amp=0.5)
    if capped:
        force = TruncatedForce(p, 2.0)
        f = lambda v: plain_truncated(p, 2.0, v)  # noqa: E731
        fp = lambda v: plain_truncated_slope(p, 2.0, v)  # noqa: E731
    else:
        force = PowerForce(p)
        f = lambda v: plain_power(p, v)  # noqa: E731
        fp = lambda v: plain_power_slope(p, v)  # noqa: E731
    first = ops.strong_residual(u, force=force)
    kept = first.copy()
    second = ops.strong_residual(0.5 * u, force=force)
    assert first.tobytes() == kept.tobytes()
    assert first.tobytes() == plain_residual(ops, u, f).tobytes()
    assert second.tobytes() == plain_residual(ops, 0.5 * u, f).tobytes()
    out = np.empty_like(u)
    assert ops.strong_residual(u, force=force, out=out) is out
    assert out.tobytes() == kept.tobytes()
    want = plain_jacobian(ops, u, fp)
    assert ops.strong_jacobian(u, force=force).tobytes() == want.tobytes()
    J = np.full((3, grid.size), np.nan)
    assert ops.strong_jacobian(u, force=force, out=J) is J
    assert J.tobytes() == want.tobytes()


def test_solve_strong_linear_manufactured():
    spec = PotentialSpec.zero()
    grid = RadialGrid.make(2, 40.0, 0.01)
    ops = DiscreteOperators(grid, 0.4, spec, 3.0)
    s = grid.nodes
    u_exact = np.exp(-((s - 20.0) / 3.0) ** 2)
    # strong_residual includes -u^3; add it back to isolate the linear part,
    # whose matrix is the Jacobian at zero
    rhs = ops.strong_residual(u_exact) + u_exact**3
    ab = ops.strong_jacobian(np.zeros_like(rhs))
    u = solve_banded((1, 1), ab, rhs)
    assert np.max(np.abs(u - u_exact)) < 1e-12


def test_norm_eps_scaling():
    grid, ops = make_ops()
    u = bump(grid, 12.0)
    full = ops.norm(u)
    eps_norm = ops.norm_eps(u)
    assert 0.0 < eps_norm < full  # eps^2 damps the kinetic part, w >= floor


def dense_bordered(ab, cols, rows):
    m = ab.shape[1]
    A = np.diag(ab[1]) + np.diag(ab[0, 1:], 1) + np.diag(ab[0, 1:], -1)
    cols, rows = cols.reshape(m, -1), rows.reshape(m, -1)
    k = cols.shape[1]
    return np.block([[A, cols], [rows.T, np.zeros((k, k))]])


@pytest.fixture(scope="module")
def bordered_case():
    # an indefinite Hessian with a near-kernel direction, bordered by
    # G-images of that direction as in the projected solve
    grid, ops = make_ops(rho_max=25.0, h=0.05)
    u = bump(grid, 12.0, width=1.2, amp=1.1)
    ab = ops.hess_banded(u)
    c1 = ops.gram_mul(np.gradient(u, grid.h))
    c2 = ops.gram_mul(u)
    return ab, c1, c2


@pytest.mark.parametrize("k", [1, 2])
def test_bordered_matches_dense(bordered_case, k):
    ab, c1, c2 = bordered_case
    cols = c1 if k == 1 else np.column_stack([c1, c2])
    rows = -c1 if k == 1 else np.column_stack([c2, -c1])
    K = BorderedTridiagonal(ab, cols, rows)
    dense = dense_bordered(ab, cols, rows)
    assert K.size == dense.shape[0]
    rhs = np.random.default_rng(k).standard_normal(K.size)
    want = np.linalg.solve(dense, rhs)
    assert np.max(np.abs(K.solve(rhs) - want)) <= 1e-10 * np.max(np.abs(want))
    # transposed system: A is symmetric, so C and R trade places
    want_t = np.linalg.solve(dense.T, rhs)
    got_t = BorderedTridiagonal(ab, rows, cols).solve(rhs)
    assert np.max(np.abs(got_t - want_t)) <= 1e-10 * np.max(np.abs(want_t))


def neumann_laplacian(m, shift=0.0):
    # exactly singular at shift 0: constants span its kernel
    ab = np.zeros((2, m))
    ab[0, 1:] = -1.0
    ab[1] = 2.0 + shift
    ab[1, 0] = ab[1, -1] = 1.0 + shift
    return ab


def test_bordered_singular_block():
    ab = neumann_laplacian(40)
    assert np.all(tridiag_mul(ab, np.ones(40)) == 0.0)
    border = np.linspace(0.0, 1.0, 40)
    with pytest.raises(HessianSingular):
        BorderedTridiagonal(ab, border, border)


def test_bordered_backward_error_guard():
    # bordering by the near-kernel direction keeps the full system well
    # conditioned (cond ~1e3), but elimination through a block this close
    # to singular cancels catastrophically; the residual check must notice
    ones = np.ones(40)
    rhs = np.linspace(-1.0, 1.0, 41)
    BorderedTridiagonal(neumann_laplacian(40, 1e-6), ones, ones).solve(rhs)
    K = BorderedTridiagonal(neumann_laplacian(40, 1e-12), ones, ones)
    with pytest.raises(HessianSingular, match="backward error"):
        K.solve(rhs)


def test_bordered_zero_border(bordered_case):
    ab = bordered_case[0]
    zero = np.zeros(ab.shape[1])
    K = BorderedTridiagonal(ab, zero, zero)
    with pytest.raises(HessianSingular):
        K.solve(np.ones(K.size))
