"""Radial grid, quadrature, weighted forms, and the strong-form residual."""

import weakref

import numpy as np
import pytest
from scipy.linalg import cho_solve_banded, cholesky_banded
from scipy.linalg.lapack import dgttrf, dgttrs

from shellwave import full_solver, grids
from shellwave.ansatz import AnsatzParams, build_z, build_zdot, grid_for
from shellwave.exceptions import ConfigError, EllipticityViolation, HessianSingular
from shellwave.forces import PowerForce, TruncatedForce
from shellwave.grids import (
    DiscreteOperators,
    RadialGrid,
    bordered_solve,
    deriv4,
    tridiag_mul,
)
from shellwave.potentials import PotentialSpec
from shellwave.reduction import solve_projected

from conftest import banded_jacobian


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
    fine = RadialGrid.make(2, grid.s_max, grid.h / 2.0)
    assert fine.h == pytest.approx(0.25)
    assert fine.nodes[-1] == pytest.approx(10.0)


@pytest.mark.parametrize("h, s_min, first", [(0.002, 0.0, 32_001), (0.002, 3.0, 32_001),
                                             (0.02, 0.0, 25_001)])
def test_grid_remade_from_its_own_ends_keeps_its_nodes(h, s_min, first):
    # s_max/h carries a rounding error that grows with the node count: at
    # h = 0.002 the supercritical member's 32,533 nodes read
    # s_max/h = 32532.000000000004, which an absolute slack of 1e-12 took
    # for one more interval (so two more nodes); each sweep meets such counts
    for count in range(first, first + 2_000, 2):
        grid = RadialGrid.make(3, s_min + h * (count - 1), h, s_min)
        assert grid.size == count
        again = RadialGrid.make(grid.n, grid.s_max, grid.h, grid.s_min)
        assert again.size == count and again.nodes[-1] == grid.nodes[-1]


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


def test_dual_norm_matches_banded_cholesky():
    # the L D L^T solve against the banded Cholesky solve it replaced; both
    # are backward stable, but the Gram matrix is ill-conditioned (its mass
    # weight vanishes at the origin), so they agree to roundoff, not bitwise
    grid, ops = make_ops()
    cho = cholesky_banded(ops.gram_banded, lower=False)
    vectors = (
        bump(grid, 10.0) - 0.3 * bump(grid, 20.0, width=3.0),
        ops.grad(bump(grid, 12.0, width=1.2, amp=1.1)),
        np.random.default_rng(3).standard_normal(grid.size),
    )
    for g in vectors:
        want = np.sqrt(np.dot(g, cho_solve_banded((cho, False), g)))
        assert abs(ops.dual_norm(g) - want) <= 1e-13 * want


QUADRATURE_FACTORS = {"simpson_coeffs", "trapezoid_coeffs", "radial_weight", "mid_weight"}


def arrays_held(obj) -> set:
    return {k for k, v in vars(obj).items() if isinstance(v, np.ndarray)}


def test_solve_full_builds_no_energy_picture(monkeypatch):
    # a full solve and its audit read only omega and w, omega not before
    # the audit's first quad, the collocation workspace stays with the
    # Newton loop (both schemes are gone when the audit runs), and the grid
    # keeps no quadrature factor.  This cold seed takes the coarse start,
    # whose Newton loop reads the same w
    made, during_newton, schemes, at_audit = [], [], [], []

    class Recorded(DiscreteOperators):
        def __init__(self, *args):
            super().__init__(*args)
            made.append(self)

    real_newton = full_solver._newton_strong
    real_audit = full_solver.pohozaev_audit

    def newton(colloc, *args, **kwargs):
        assert colloc.w is made[0].w or colloc.w.base is made[0].w
        schemes.append(weakref.ref(colloc))
        out = real_newton(colloc, *args, **kwargs)
        during_newton.append(arrays_held(made[0]))
        return out

    def audit(*args):
        at_audit.extend(ref() for ref in schemes)
        return real_audit(*args)

    monkeypatch.setattr(full_solver, "DiscreteOperators", Recorded)
    monkeypatch.setattr(full_solver, "_newton_strong", newton)
    monkeypatch.setattr(full_solver, "pohozaev_audit", audit)
    spec = PotentialSpec.sine()
    params = AnsatzParams.make(2, 3.0, 0.5, 17.0, spec, 0.5, 1.5, gamma=0.6)
    grid = grid_for(params, 0.02)
    full = full_solver.solve_full(2, 3.0, 0.5, spec, build_z(params, spec, grid), grid)
    (ops,) = made
    assert during_newton and all(held == {"w"} for held in during_newton)
    assert at_audit == [None, None]
    assert arrays_held(ops) == {"w", "omega"}
    full_solver.pohozaev_audit(ops, full.profile)
    assert {"gram_banded", "mass_w", "kin_w"}.isdisjoint(vars(ops))
    assert QUADRATURE_FACTORS.isdisjoint(vars(grid))
    assert QUADRATURE_FACTORS.isdisjoint(vars(full.grid))


def test_operators_hold_no_collocation_kernels():
    # the collocation scheme belongs to the full solver
    assert not hasattr(DiscreteOperators, "strong_residual")
    assert not hasattr(DiscreteOperators, "strong_jacobian")


def test_lazy_energy_weights_match_eager_formulas():
    grid, ops = make_ops()
    assert "omega" not in vars(ops)
    ops.quad(np.ones(grid.size))
    assert np.array_equal(vars(ops)["omega"], grid.simpson_coeffs * grid.radial_weight)
    mass_w = grid.trapezoid_coeffs * grid.radial_weight
    kin_w = grid.mid_weight / grid.h
    gram = np.zeros((2, grid.size))
    gram[1] = mass_w * ops.w
    gram[1, :-1] += kin_w
    gram[1, 1:] += kin_w
    gram[0, 1:] = -kin_w
    assert np.array_equal(ops.gram_banded, gram)
    assert np.array_equal(ops.mass_w, mass_w)
    assert np.array_equal(ops.kin_w, kin_w)


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
    # the banded Hessian the bordered solves and spectral gaps factor is
    # the derivative of the gradient
    grid, ops = make_ops(rho_max=25.0, h=0.05)
    u = bump(grid, 12.0, width=1.2)
    v = bump(grid, 13.0, width=2.0)
    t = 1e-6
    fd = (ops.grad(u + t * v) - ops.grad(u - t * v)) / (2 * t)
    assert np.max(np.abs(tridiag_mul(ops.hess_banded(u), v) - fd)) < 1e-7


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
    s, h, n = ops.grid.nodes, ops.grid.h, ops.grid.n
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
    """The (3, m) stencil template the operators once kept, minus f'(u) on
    the diagonal: the reference the collocation Jacobian must match bit for
    bit."""
    s, h, n, m = ops.grid.nodes, ops.grid.h, ops.grid.n, ops.grid.size
    ab = np.zeros((3, m))
    transport = (n - 1) / (2.0 * h * s[1:-1])
    ab[0, 2:] = -1.0 / h**2 - transport
    ab[1, 1:-1] = 2.0 / h**2 + ops.w[1:-1]
    ab[2, :-2] = -1.0 / h**2 + transport
    ab[1, 0] = 2.0 * n / h**2 + ops.w[0]
    ab[0, 1] = -2.0 * n / h**2
    ab[1, -1] = 1.0
    ab[1, 1:-1] -= fp(u[1:-1])
    ab[1, 0] -= fp(np.asarray(u[0]))
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
    colloc = full_solver._Collocation(grid, ops.w, force)
    first = colloc.residual(u)
    kept = first.copy()
    second = colloc.residual(0.5 * u)
    assert first.tobytes() == kept.tobytes()
    assert first.tobytes() == plain_residual(ops, u, f).tobytes()
    assert second.tobytes() == plain_residual(ops, 0.5 * u, f).tobytes()
    out = np.empty_like(u)
    assert colloc.residual(u, out=out) is out
    assert out.tobytes() == kept.tobytes()
    want = plain_jacobian(ops, u, fp)
    assert banded_jacobian(colloc, u).tobytes() == want.tobytes()
    # every entry of the three buffers is written, whatever they held
    J = np.full((3, grid.size), np.nan)
    colloc.jacobian(u, J[2, :-1], J[1], J[0, 1:])
    J[0, 0] = J[2, -1] = 0.0
    assert J.tobytes() == want.tobytes()


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
    dense = dense_bordered(ab, cols, rows)
    rhs = np.random.default_rng(k).standard_normal(dense.shape[0])
    want = np.linalg.solve(dense, rhs)
    got = bordered_solve(ab, cols, rows, rhs)
    assert got.shape == want.shape
    assert np.max(np.abs(got - want)) <= 1e-10 * np.max(np.abs(want))
    # transposed system: A is symmetric, so C and R trade places
    want_t = np.linalg.solve(dense.T, rhs)
    got_t = bordered_solve(ab, rows, cols, rhs)
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
    with pytest.raises(HessianSingular, match="zero pivot"):
        bordered_solve(ab, border, border, np.ones(41))


def test_bordered_backward_error_guard():
    # bordering by the near-kernel direction keeps the full system well
    # conditioned (cond ~1e3), but elimination through a block this close
    # to singular cancels catastrophically; the residual check must notice
    ones = np.ones(40)
    rhs = np.linspace(-1.0, 1.0, 41)
    bordered_solve(neumann_laplacian(40, 1e-6), ones, ones, rhs)
    with pytest.raises(HessianSingular, match="backward error"):
        bordered_solve(neumann_laplacian(40, 1e-12), ones, ones, rhs)


def test_bordered_zero_border(bordered_case):
    ab = bordered_case[0]
    zero = np.zeros(ab.shape[1])
    with pytest.raises(HessianSingular, match="Schur"):
        bordered_solve(ab, zero, zero, np.ones(ab.shape[1] + 1))


class PlainBordered:
    """The bordered solve as a kept LAPACK dgttrf factorization and one
    dgttrs per right-hand side, with every border as a 2-d block: a k x k
    np.linalg.solve for y, 2-d products, and the row sums of |A| as the
    product of |A| with a vector of ones."""

    def __init__(self, ab, cols, rows):
        m = ab.shape[1]
        self.ab = ab
        self.cols = np.asarray(cols, dtype=float).reshape(m, -1)
        self.rows = np.asarray(rows, dtype=float).reshape(m, -1)
        self.size = m + self.cols.shape[1]
        *self.lu, info = dgttrf(ab[0, 1:], ab[1], ab[0, 1:])
        assert info == 0
        self.w = dgttrs(*self.lu, self.cols)[0]
        self.schur = self.rows.T @ self.w
        row_sums = tridiag_mul(np.abs(ab), np.ones(m)) + np.abs(self.cols).sum(axis=1)
        self.norm = max(row_sums.max(), np.abs(self.rows).sum(axis=0).max())

    def solve(self, rhs):
        m = self.ab.shape[1]
        f, g = rhs[:m], rhs[m:]
        x = dgttrs(*self.lu, f)[0]
        y = np.linalg.solve(self.schur, self.rows.T @ x - g)
        sol = np.concatenate([x - self.w @ y, y])
        x = sol[:m]
        res = np.concatenate([tridiag_mul(self.ab, x) + self.cols @ y - f, self.rows.T @ x - g])
        scale = self.norm * np.abs(sol).max() + np.abs(rhs).max()
        return sol, np.abs(res).max() / scale


def assert_bordered_bitwise(ab, cols, rows, rhs):
    want, backward = PlainBordered(ab, cols, rows).solve(rhs)
    assert backward <= grids.BACKWARD_TOL
    assert bordered_solve(ab, cols, rows, rhs).tobytes() == want.tobytes()


@pytest.mark.parametrize("k", [1, 2])
def test_bordered_bitwise_on_the_fixture(bordered_case, k):
    ab, c1, c2 = bordered_case
    rng = np.random.default_rng(7 + k)
    borders = [(c1, -c1), (-c1, c1), (c1, c2)] if k == 1 else \
        [(np.column_stack([c1, c2]), np.column_stack([c2, -c1]))]
    for cols, rows in borders:
        for _ in range(3):
            assert_bordered_bitwise(ab, cols, rows, rng.standard_normal(ab.shape[1] + k))


def test_bordered_bitwise_on_a_projected_newton_system():
    # the first Newton system of a cold projected solve on the shipped
    # family's eps = 0.4 grid, and the system at its solution
    spec = PotentialSpec.sine()
    params = AnsatzParams.make(2, 3.0, 0.4, 21.0, spec, 0.5, 1.5, gamma=0.6, eps_max=0.5)
    grid = grid_for(params, 0.02, rho_max=params.omega_window[1])
    ops = DiscreteOperators(grid, 0.4, spec, 3.0)
    z, zdot = build_z(params, spec, grid), build_zdot(params, spec, grid)
    gzd = ops.gram_mul(zdot)
    sol = solve_projected(params, spec, grid, ops=ops)
    for omega, alpha in ((np.zeros(grid.size), 0.0), (sol.omega, sol.alpha)):
        rhs = np.concatenate([ops.grad(z + omega) - alpha * gzd, [float(np.dot(gzd, omega))]])
        assert_bordered_bitwise(ops.hess_banded(z + omega), -gzd, gzd, rhs)


def test_scalar_schur_division_matches_a_one_by_one_solve():
    # the k = 1 path divides by the Schur complement where the block path
    # runs LAPACK's 1 x 1 solve
    rng = np.random.default_rng(11)
    s = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-150, 150, 10_000)
    b = rng.standard_normal(10_000) * 10.0 ** rng.uniform(-150, 150, 10_000)
    with np.errstate(over="ignore", under="ignore"):
        solved = [np.linalg.solve(np.array([[si]]), np.array([bi]))[0] for si, bi in zip(s, b)]
        assert np.array(solved).tobytes() == (b / s).tobytes()


def test_bordered_solve_pivots_like_the_kept_factorization():
    # random tridiagonal blocks on which dgttrf pivots in most rows, with
    # one border column (1-d, as the projected Newton step passes it) or two
    rng = np.random.default_rng(3)
    for k in (1, 2):
        for m in (3, 40, 1001):
            ab = np.zeros((2, m))
            ab[1] = 0.1 * rng.standard_normal(m)
            ab[0, 1:] = rng.standard_normal(m - 1)
            shape = (m,) if k == 1 else (m, k)
            cols, rows = rng.standard_normal(shape), rng.standard_normal(shape)
            rhs = rng.standard_normal(m + k)
            want, _ = PlainBordered(ab, cols, rows).solve(rhs)
            assert bordered_solve(ab, cols, rows, rhs).tobytes() == want.tobytes()


def test_bordered_zero_schur_complement():
    # A = I and orthogonal borders: nonzero columns, complement r^T c = 0
    m = 12
    ab = np.zeros((2, m))
    ab[1] = 1.0
    c, r = np.eye(m)[0], np.eye(m)[1]
    with pytest.raises(HessianSingular, match="Schur"):
        bordered_solve(ab, c, r, np.ones(m + 1))
    # and a singular 2 x 2 complement
    cols, rows = np.eye(m)[:, :2], np.eye(m)[:, 1:3]
    with pytest.raises(HessianSingular, match="Schur"):
        bordered_solve(ab, cols, rows, np.ones(m + 2))


def test_node_budget_refuses_before_allocating(monkeypatch):
    from shellwave import grids

    # 2^23 nodes, 64 MiB per array, take twice the eps = 0.05 member's
    # full-solve grid (about 2.7M nodes, the largest a solve or its audit
    # builds) and refuse the eps = 0.01 scan's (150M)
    assert grids.MAX_NODES == 2**23
    assert 5_400_000 < grids.MAX_NODES < 150_002_311
    with pytest.raises(ConfigError) as err:
        RadialGrid.make(2, 3_000_046.19, 0.02)
    msg = str(err.value)
    assert "150,002,311 nodes" in msg and "8,388,608" in msg and "12.3 GiB" in msg
    # the count includes the node that makes the interval count even
    monkeypatch.setattr(grids, "MAX_NODES", 101)
    assert RadialGrid.make(2, 100 * 0.5, 0.5).size == 101
    assert RadialGrid.make(2, 99 * 0.5, 0.5).size == 101
    with pytest.raises(ConfigError, match="needs 103 nodes"):
        RadialGrid.make(2, 101 * 0.5, 0.5)
    with pytest.raises(ConfigError, match="needs inf nodes"):
        RadialGrid.make(2, np.inf, 0.5)


@pytest.mark.parametrize("shift", [1e-4, 1e-6, 1e-8, 1e-10, 1e-12])
def test_backward_error_guard_decides_as_the_full_test(shift, monkeypatch):
    # the guard first bounds the backward error by res / max|rhs| and forms
    # the matrix norm only when that bound exceeds the tolerance
    ones = np.ones(40)
    rhs = np.linspace(-1.0, 1.0, 41)
    ab = neumann_laplacian(40, shift)
    _, backward = PlainBordered(ab, ones, ones).solve(rhs)
    norms = []
    norm = grids._bordered_norm

    def counted(*args):
        norms.append(norm(*args))
        return norms[-1]

    monkeypatch.setattr(grids, "_bordered_norm", counted)
    if backward <= grids.BACKWARD_TOL:
        bordered_solve(ab, ones, ones, rhs)
    else:
        with pytest.raises(HessianSingular, match="backward error"):
            bordered_solve(ab, ones, ones, rhs)
    assert len(norms) == (shift < 1e-4)
    if norms:
        assert norms == [PlainBordered(ab, ones, ones).norm]
