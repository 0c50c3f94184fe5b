from __future__ import annotations

import dataclasses
import inspect
import math

import numpy as np
import pytest

from gnflow import (
    Base2,
    DiscrepancyFloor,
    DomainError,
    Exponential,
    FirstDiscrepancyIncrease,
    FixedSteps,
    GravimetryModel,
    GravimetryParams,
    Grid,
    GridFunction,
    GridMismatchError,
    InversePower,
    JacobianMatrix,
    NonFiniteValueError,
    NumericalError,
    OperatorModel,
    Schedule,
    SolverConfig,
    frechet_matrix,
    initial_guess,
    l2_norm,
    run_flow,
    true_interface,
    velocity,
)
from gnflow import gravimetry
from gnflow.flow import LeftFactor, StopRule
from gnflow.synthetic import DiagonalLinearModel, certified_diagonal_instance

from conftest import LinearMatrixModel, dense_oracle, identity_model, symmetrized

UNIT_SCHEDULE = Exponential(1.0, 1.0)  # alpha(0) = 1


def euler(model, schedule, t, x, x0, tau):
    """x + tau F(t, x): one Euler step composed from `velocity`."""
    d = velocity(model, schedule, t, x, x0)
    return GridFunction(model.grid, x.values + tau * d.values)


def midpoint(model, schedule, t, x, x0, tau):
    """x + tau F(t + tau/2, x + (tau/2) F(t, x)): one explicit midpoint step
    composed from `velocity`."""
    d = velocity(model, schedule, t, x, x0)
    x_half = GridFunction(model.grid, x.values + 0.5 * tau * d.values)
    d = velocity(model, schedule, t + 0.5 * tau, x_half, x0)
    return GridFunction(model.grid, x.values + tau * d.values)


STEPS = {"euler": euler, "rk": midpoint}


class CountingModel(OperatorModel):
    """Delegates to `inner` and counts its operator calls; `residual` and
    `jacobian` come from the base class, so they count as linearizations."""

    def __init__(self, inner: OperatorModel):
        self.inner = inner
        self.linearizations = 0

    @property
    def grid(self):
        return self.inner.grid

    def linearize(self, x):
        self.linearizations += 1
        return self.inner.linearize(x)


class BreakingModel(LinearMatrixModel):
    """phi(x) = A x - b for its first `finite_calls` linearizations; from
    then on every entry of b is `bad` (infinite by default), and so is
    every residual up to sign."""

    def __init__(
        self,
        grid: Grid,
        matrix: np.ndarray,
        rhs: np.ndarray,
        finite_calls: int,
        bad: float = np.inf,
    ):
        super().__init__(grid, matrix, rhs)
        self.finite_calls = finite_calls
        self.bad = bad

    def linearize(self, x):
        if self.finite_calls == 0:
            self.rhs = np.full_like(self.rhs, self.bad)
        self.finite_calls -= 1
        return super().linearize(x)


def contract_models() -> list[OperatorModel]:
    """The three kinds of model, each on Grid(1.0, 21)."""
    grid = Grid(1.0, 21)
    rng = np.random.default_rng(34)
    solution = GridFunction(grid, np.linspace(0.0, 1.0, 21))
    return [
        GravimetryModel.synthetic(GravimetryParams(node_count=21)),
        DiagonalLinearModel(solution, np.linspace(1.0, 0.1, 21)),
        LinearMatrixModel(grid, rng.standard_normal((21, 21)), rng.standard_normal(21)),
    ]


def random_jacobian(rng, n=None, l=None) -> JacobianMatrix:
    n = n if n is not None else int(rng.choice([3, 5, 7, 9, 11, 15, 19]))
    l = l if l is not None else rng.uniform(0.5, 2.0)
    grid = Grid(l, n)
    return JacobianMatrix(rng.uniform(-1, 1, size=(n, n)), grid)


def weighted_operator_norm(mat: np.ndarray, weights: np.ndarray) -> float:
    s = np.sqrt(weights)
    return float(np.linalg.norm((mat * s[:, None]) / s[None, :], ord=2))


class TestJacobianMatrix:
    def test_adjoint_identity(self):
        rng = np.random.default_rng(21)
        for _ in range(20):
            jac = random_jacobian(rng)
            w = jac.grid.weights
            f = rng.standard_normal(len(w))
            g = rng.standard_normal(len(w))
            lhs = np.sum(w * jac.apply(f) * g)
            rhs = np.sum(w * f * jac.adjoint_apply(g))
            assert lhs == pytest.approx(rhs, rel=1e-10)

    def test_normal_solve_residual(self):
        # n = 65 is full rank, so no direction of the solve may be dropped
        rng = np.random.default_rng(22)
        for n in (15, 65):
            for alpha in (1e-3, 0.1, 1.0, 10.0):
                jac = random_jacobian(rng, n=n, l=1.0)
                residual, offset = rng.standard_normal((2, n))
                d = jac.normal_solve(alpha, residual, offset)
                rhs = -(jac.adjoint_apply(residual) + alpha * offset)
                lhs = jac.adjoint_apply(jac.apply(d)) + alpha * d
                assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)

    @pytest.mark.parametrize("point", [initial_guess, true_interface])
    def test_normal_solve_matches_dense_oracle(self, point):
        # The direction of a flow stage, on the Jacobian and residual of
        # `linearize` (factored, or dense at n=201, H=1.1) with a random
        # offset x - x0, against the filter-factor solution from the SVD of
        # the dense Frechet matrix, down to the default alpha_floor.  The
        # rounding of the last product S^{-1} M^T z is about eps ||B|| times
        # ||M^T z|| <= ||f|| / (2 sqrt(alpha)), z = (K K^T + alpha I)^{-1} f,
        # so the error grows like 1/sqrt(alpha); measured worst cases over
        # this grid: 9.7e-12 at alpha = 1e-10, 1.1e-10 at 1e-12 and 3.2e-10
        # at 1e-13 (n = 801, H = 1.1, at x0).  The bound 2e-9 keeps a 6.2x
        # margin.  Forming J* phi + alpha (x - x0) first and dividing its
        # rounding by alpha misses it by up to 2.1e-4 at alpha = 1e-13.
        # Below the floor the bound scales as 2e-9 sqrt(1e-13 / alpha); the
        # refinement of the factored solve stops converging near 1e-16 and
        # the SVD solve takes over.  Measured worst cases at one OpenBLAS
        # thread: 8.8e-10 at 1e-14, 2.4e-9 at 1e-15, 1.1e-8 at 1e-16,
        # 1.3e-7 at 1e-18 and 1.6e-4 at 1e-24 (n = 801, H = 1.1, at x0), a
        # margin of 4x or more.
        rng = np.random.default_rng(25)
        for node_count in (201, 801):
            for depth in (2.0, 1.5, 1.1):
                params = GravimetryParams(node_count=node_count, depth=depth)
                model = GravimetryModel.synthetic(params)
                x = point(params)
                res, jac = model.linearize(x.values)
                oracle = dense_oracle(frechet_matrix(x, params))
                for alpha in (
                    1e-1, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13, 1e-14, 1e-15, 1e-16, 1e-18, 1e-24
                ):
                    case = (node_count, depth, alpha)
                    offset = rng.standard_normal(node_count)
                    expected = oracle(alpha, res, offset)
                    d = jac.normal_solve(alpha, res, offset)
                    bound = 2e-9 * max(1.0, math.sqrt(1e-13 / alpha))
                    assert np.linalg.norm(d - expected) <= bound * np.linalg.norm(expected), case
                    fresh = model.linearize(x.values).jacobian.normal_solve(alpha, res, offset)
                    assert np.array_equal(d, fresh), case

    @pytest.mark.parametrize("case", ["diagonal", "frechet-x0", "frechet-reference"])
    def test_identity_left_solve_matches_dense_oracle(self, case):
        # The identity-left solve applies M = S J S^{-1} = U Sigma V^T
        # through its cached SVD factors.  Against the filter-factor oracle,
        # with the run's residual and a random offset, down to the default
        # alpha_floor: the worst relative error measured is 2.7e-15 on the
        # certified diagonal model and 2.0e-12 (x0) and 8.8e-12 (reference
        # interface) on the dense Frechet matrix at n = 201, H = 1.1, all at
        # alpha = 1e-13.  The bound 1e-10 keeps an 11x margin; applying M
        # through J twice, as the factored path does, reaches 2.1e-10 at x0.
        if case == "diagonal":
            inst = certified_diagonal_instance()
            res, jac = inst.model.linearize(inst.x0.values)
        else:
            params = GravimetryParams(node_count=201, depth=1.1)
            x = (initial_guess if case == "frechet-x0" else true_interface)(params)
            res = GravimetryModel.synthetic(params).linearize(x.values).residual
            jac = frechet_matrix(x, params)
        assert jac.left is None
        oracle = dense_oracle(jac)
        rng = np.random.default_rng(26)
        for alpha in (1e-1, 1e-2, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13):
            offset = rng.standard_normal(len(res))
            expected = oracle(alpha, res, offset)
            d = jac.normal_solve(alpha, res, offset)
            assert np.linalg.norm(d - expected) <= 1e-10 * np.linalg.norm(expected), alpha

    @pytest.mark.parametrize("case", ["factored", "dense", "diagonal"])
    def test_repeated_solves_match_fresh_jacobians(self, case):
        # one Jacobian object decomposes once and serves every alpha (the
        # Gram matrix for a factored Jacobian, the SVD factors for an
        # identity left factor); each of its solves equals the solve on a
        # freshly built Jacobian
        if case == "diagonal":
            model = certified_diagonal_instance().model
            x = model.solution

            def fresh():
                return JacobianMatrix(np.diag(model.spectrum), model.grid)

        else:
            node_count, depth = (801, 2.0) if case == "factored" else (201, 1.1)
            params = GravimetryParams(node_count=node_count, depth=depth)
            model = GravimetryModel.synthetic(params)
            x = initial_guess(params)

            def fresh():
                return model.linearize(x.values).jacobian

        jac = model.linearize(x.values).jacobian
        assert (jac.left is not None) == (case == "factored")
        rng = np.random.default_rng(71)
        for alpha in (1e-1, 1e-4, 1e-6, 1e-8, 1e-10, 1e-12, 1e-13):
            residual, offset = rng.standard_normal((2, model.grid.node_count))
            other = fresh()
            assert other is not jac
            d = jac.normal_solve(alpha, residual, offset)
            assert np.array_equal(d, other.normal_solve(alpha, residual, offset))
        if case == "factored":
            assert jac.gram is jac.gram
        else:
            assert jac.decomposition is jac.decomposition

    def test_non_finite_rejected(self):
        grid = Grid(1.0, 3)
        bad = np.full((3, 3), np.nan)
        with pytest.raises(ValueError):
            JacobianMatrix(bad, grid)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_entry_found_in_any_row_block(self):
        # the factor is scanned in blocks of rows; an entry in the first,
        # a middle or the last block is found, and a finite factor passes
        grid = Grid(1.0, 201)
        JacobianMatrix(np.ones((201, 201)), grid)
        for row, value in ((0, np.nan), (63, np.inf), (64, -np.inf), (200, np.nan)):
            bad = np.ones((201, 201))
            bad[row, 7] = value
            with pytest.raises(NonFiniteValueError, match="^Jacobian contains non-finite entries"):
                JacobianMatrix(bad, grid)

    def test_read_only_factor_is_kept(self):
        # linearize hands over C as a read-only view of its read-only kernel
        # array, which the Jacobian keeps; anything else is copied and frozen
        params = GravimetryParams(node_count=201)
        left, grid = params.chebyshev_rows(36).left, params.grid
        kernel = np.random.default_rng(72).uniform(size=(45, 201))
        kernel.flags.writeable = False
        assert np.shares_memory(JacobianMatrix(kernel[:36], grid, left).matrix, kernel)
        writeable = kernel.copy()
        frozen_view = writeable[:36]
        frozen_view.flags.writeable = False
        for factor in (writeable[:36], frozen_view):
            jac = JacobianMatrix(factor, grid, left)
            assert not np.shares_memory(jac.matrix, writeable)
            assert not jac.matrix.flags.writeable
            assert np.array_equal(jac.matrix, kernel[:36])
        res, jac = GravimetryModel.synthetic(params).linearize(initial_guess(params).values)
        assert jac.left is not None and not jac.matrix.flags.owndata

    def test_dense_fallback_keeps_its_kernel_array(self, monkeypatch):
        # at n = 201, H = 1.1 linearize returns the Jacobian of
        # `_dense_frechet`, which keeps its read-only n x n Frechet array as
        # a view instead of a copy
        dense = gravimetry._dense_frechet
        built = []

        def recorded(*args):
            built.append(dense(*args))
            return built[-1]

        monkeypatch.setattr(gravimetry, "_dense_frechet", recorded)
        params = GravimetryParams(node_count=201, depth=1.1)
        res, jac = GravimetryModel.synthetic(params).linearize(initial_guess(params).values)
        assert jac is built[-1] and jac.left is None
        kernel = jac.matrix.base  # None for a copy
        assert kernel is not None and kernel.shape == (201, 201)
        assert not kernel.flags.writeable and not jac.matrix.flags.writeable

    def test_read_only_factor_with_nan_rejected(self):
        params = GravimetryParams(node_count=201)
        kernel = np.ones((45, 201))
        kernel[3, 5] = np.nan
        kernel.flags.writeable = False
        with pytest.raises(NonFiniteValueError, match="^Jacobian contains non-finite entries"):
            JacobianMatrix(kernel[:36], params.grid, params.chebyshev_rows(36).left)

    @pytest.mark.parametrize("alpha", [np.nan, np.inf, 0.0, -1e-3])
    @pytest.mark.parametrize("depth", [2.0, 1.1])  # factored, dense
    def test_normal_solve_rejects_bad_alpha(self, depth, alpha):
        params = GravimetryParams(node_count=201, depth=depth)
        res, jac = GravimetryModel.synthetic(params).linearize(initial_guess(params).values)
        assert (jac.left is None) == (depth == 1.1)
        with pytest.raises(NumericalError, match="^normal equations need 0 < alpha < inf"):
            jac.normal_solve(alpha, res, np.zeros(201))

    @pytest.mark.parametrize("alpha, lu", [(1e-3, "fails"), (1e-3, "nan"), (1e-24, "kept")])
    def test_factored_breakdown_raises_numerical_error(self, monkeypatch, alpha, lu):
        # once the fast path hands over, because its LU solve fails, because
        # a NaN solve stalls the refinement or because the refinement does
        # not converge as at alpha = 1e-24, a LinAlgError of the SVD solve is
        # a NumericalError, which run_flow reports in band
        params = GravimetryParams(node_count=201)
        res, jac = GravimetryModel.synthetic(params).linearize(initial_guess(params).values)

        def fail(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        if lu == "fails":
            monkeypatch.setattr(np.linalg, "solve", fail)
        elif lu == "nan":
            monkeypatch.setattr(np.linalg, "solve", lambda a, b: np.full_like(b, np.nan))
        monkeypatch.setattr(np.linalg, "svd", fail)
        with pytest.raises(
            NumericalError, match="^decomposition of the Jacobian failed: Singular matrix$"
        ):
            jac.normal_solve(alpha, res, np.zeros(201))

    @pytest.mark.parametrize("alpha, lu_fails", [(1e-3, True), (1e-13, True), (1e-24, False)])
    def test_factored_fallback_is_the_svd_solve(self, monkeypatch, alpha, lu_fails):
        # a failing LU solve, or a refinement that does not converge as at
        # alpha = 1e-24, hands the solve to the thin SVD
        # M = R K = U Sigma V^T, K = C S^-1 the Jacobian's factor, bit for bit:
        # d = (S^-1 V Sigma) [((Sigma V^T S) offset - (U^T Q^T S) res) / (sigma^2 + alpha)] - offset
        params = GravimetryParams(node_count=201)
        res, jac = GravimetryModel.synthetic(params).linearize(initial_guess(params).values)
        offset = np.random.default_rng(73).standard_normal(201)
        left, s = jac.left, jac.grid.sqrt_weights
        u, sigma, vt = np.linalg.svd(left.r @ jac.matrix, full_matrices=False)
        sigma_vt = sigma[:, None] * vt
        f = (sigma_vt * s) @ offset - (u.T @ left.q_t_s) @ res
        expected = (sigma_vt / s).T @ (f / (sigma**2 + alpha)) - offset
        if lu_fails:
            def fail(*args, **kwargs):
                raise np.linalg.LinAlgError("Singular matrix")

            monkeypatch.setattr(np.linalg, "solve", fail)
        assert np.array_equal(jac.normal_solve(alpha, res, offset), expected)

    def test_factored_solve_takes_one_lu_solve(self, monkeypatch):
        # at alpha = 1e-3 the bound on the remaining correction accepts the
        # first LU solve of G + alpha I, and nothing is inverted
        params = GravimetryParams(node_count=201)
        res, jac = GravimetryModel.synthetic(params).linearize(initial_guess(params).values)
        assert jac.left is not None
        calls = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)

            return call

        for name in ("solve", "inv", "svd"):
            monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
        d = jac.normal_solve(1e-3, res, np.zeros(201))
        assert np.isfinite(d).all() and calls == ["solve"]

    @pytest.mark.parametrize("alpha", [1e-1, 1e-5, 1e-9, 1e-13])
    def test_refinement_bound_covers_the_exact_correction(self, alpha):
        # for an iterate z, y = S^-1 M^T z and e = f - R (K (S y)) - alpha z, the
        # distance from y to the exact y* = S^-1 M^T (G + alpha I)^-1 f, from
        # the SVD of M, is at most ||e|| ||S^-1|| / (2 sqrt(alpha)), the bound
        # that accepts a refinement pass.  Iterates: z* plus a random error,
        # large and small, and a small error along the singular vector u_k
        # with sigma_k^2 nearest alpha, where the bound is within 0.6-0.9 of
        # the distance (measured; 5-8x below it without the ||S^-1|| factor)
        rng = np.random.default_rng(26)
        worst = 0.0
        for _ in range(10):
            n = int(rng.choice([21, 41, 61]))
            m = int(rng.integers(8, n // 2))
            grid = Grid(rng.uniform(0.5, 2.0), n)
            s = grid.sqrt_weights
            kernel = np.logspace(0, -8, m)[:, None] * rng.standard_normal((m, n))  # C
            jac = JacobianMatrix(kernel / s, grid, LeftFactor.of(rng.standard_normal((n, m)), grid))
            left = jac.left
            u, sigma, vt = np.linalg.svd(left.r @ jac.matrix, full_matrices=False)
            f = rng.standard_normal(m)
            exact = (vt.T @ (sigma / (sigma**2 + alpha) * (u.T @ f))) / s
            z_exact = np.linalg.solve(jac.gram + alpha * np.eye(m), f)
            size = np.linalg.norm(z_exact)
            k = np.argmin(np.abs(np.log(sigma**2 / alpha)))
            for dz in (
                size * rng.standard_normal(m) / math.sqrt(m),
                1e-4 * size * rng.standard_normal(m) / math.sqrt(m),
                1e-4 * size * u[:, k],
            ):
                z = z_exact + dz
                y = jac._lift(z)
                e = f - left.r @ (jac.matrix @ (s * y)) - alpha * z
                bound = np.linalg.norm(e) * math.sqrt(left.max_inverse_weight / (4 * alpha))
                distance = np.linalg.norm(exact - y)
                assert distance <= bound, (n, m, alpha)
                worst = max(worst, distance / bound)
        assert worst > 0.5

    def test_spectral_estimate_contraction(self):
        # ||(J*J + aI)^{-1} J*J|| <= 1 in the weighted operator norm
        rng = np.random.default_rng(23)
        for _ in range(25):
            jac = random_jacobian(rng)
            b = symmetrized(jac)
            m = b.T @ b
            for alpha in (1e-6, 1e-3, 1.0, 10.0):
                t = np.linalg.solve(m + alpha * np.eye(len(m)), m)
                assert np.linalg.norm(t, ord=2) <= 1.0 + 1e-10

    def test_spectral_estimate_resolvent(self):
        # ||(J*J + aI)^{-1}|| <= 1/a in the weighted operator norm
        rng = np.random.default_rng(24)
        for _ in range(25):
            jac = random_jacobian(rng)
            b = symmetrized(jac)
            m = b.T @ b
            for alpha in (1e-6, 1e-3, 1.0, 10.0):
                inv = np.linalg.inv(m + alpha * np.eye(len(m)))
                assert np.linalg.norm(inv, ord=2) <= 1.0 / alpha + 1e-10


def test_grid_owns_weights_and_jacobians_share_it():
    # the weights are cached on the grid and read-only, and every Jacobian
    # carries its model's grid object: the factored and dense branches of
    # the gravimetry linearization and the diagonal model
    grid = Grid(1.0, 21)
    for name in ("weights", "sqrt_weights"):
        a = getattr(grid, name)
        assert getattr(grid, name) is a and not a.flags.writeable
        with pytest.raises(ValueError):
            a[0] = 1.0
    models = [
        GravimetryModel.synthetic(GravimetryParams(node_count=201)),
        GravimetryModel.synthetic(GravimetryParams(node_count=201, depth=1.1)),
    ]
    for model, factored in zip(models, (True, False)):
        jac = model.linearize(initial_guess(model.params).values).jacobian
        assert (jac.left is not None) == factored and jac.grid is model.grid
    model = certified_diagonal_instance().model
    assert model.linearize(model.solution.values).jacobian.grid is model.grid


def test_model_contract_is_linearize():
    # grid and linearize are the whole contract; residual and jacobian come
    # from linearize, and no model overrides them
    assert OperatorModel.__abstractmethods__ == {"grid", "linearize"}
    for cls in (GravimetryModel, DiagonalLinearModel, LinearMatrixModel):
        assert not {"residual", "jacobian", "domain_violation"} & set(vars(cls)), cls
    grid = Grid(1.0, 5)
    model = identity_model(grid)
    x = GridFunction(grid, np.linspace(-1.0, 1.0, 5))
    assert np.array_equal(model.residual(x).values, x.values)
    assert np.array_equal(model.jacobian(x).matrix, np.eye(5))
    d = velocity(model, UNIT_SCHEDULE, 0.0, x, x)
    np.testing.assert_allclose(d.values, -x.values / 2, rtol=1e-13)
    # linearize maps nodal values to a nodal residual array, and residual
    # wraps that array bit for bit
    for model in contract_models():
        x = GridFunction(model.grid, 0.5 + 0.25 * np.cos(np.pi * model.grid.nodes))
        res = model.linearize(x.values).residual
        assert type(res) is np.ndarray, model
        assert np.array_equal(res, model.residual(x).values), model


def test_boundary_rejects_point_off_model_grid():
    # same node count, other half width: residual and jacobian raise the
    # GridMismatchError that velocity and run_flow raise
    foreign = GridFunction.constant(Grid(2.0, 21), 0.5)
    for model in contract_models():
        for call in (model.residual, model.jacobian):
            with pytest.raises(GridMismatchError):
                call(foreign)


class TestVelocity:
    def test_stationary_at_solution(self):
        grid = Grid(1.0, 5)
        sol = GridFunction(grid, np.linspace(0.2, 0.8, 5))
        model = DiagonalLinearModel(sol, np.ones(5))
        d = velocity(model, UNIT_SCHEDULE, 0.0, sol, sol)
        np.testing.assert_allclose(d.values, 0.0, atol=1e-14)

    def test_scalar_case(self):
        # phi(x) = x, alpha = 1, x = 2, x0 = 0: (1 + 1) d = -(2 + 2)
        grid = Grid(1.0, 3)
        model = identity_model(grid)
        x = GridFunction.constant(grid, 2.0)
        x0 = GridFunction.constant(grid, 0.0)
        d = velocity(model, UNIT_SCHEDULE, 0.0, x, x0)
        np.testing.assert_allclose(d.values, -2.0, rtol=1e-13)

    def test_points_toward_solution_for_small_alpha(self):
        rng = np.random.default_rng(30)
        for n in (3, 5):
            grid = Grid(1.0, n)
            a = rng.standard_normal((n, n))
            a = a @ a.T + n * np.eye(n)  # symmetric positive definite
            b = rng.standard_normal(n)
            model = LinearMatrixModel(grid, a, b)
            target = np.linalg.solve(a, b)
            x = GridFunction(grid, rng.standard_normal(n))
            x0 = GridFunction.constant(grid, 0.0)
            d = velocity(model, Exponential(1e-12, 1.0), 0.0, x, x0)
            w = model.grid.weights
            assert np.sum(w * d.values * (target - x.values)) > 0

    def test_linear_solve_residual_on_benchmark(self, benchmark_model):
        # at x0 the offset x - x0 is zero; at the reference interface it is not
        p = benchmark_model.params
        x0 = initial_guess(p)
        alpha = 0.1
        for x in (x0, true_interface(p)):
            d = velocity(benchmark_model, Exponential(alpha, 3.5), 0.0, x, x0)
            res, jac = benchmark_model.linearize(x.values)
            rhs = -(jac.adjoint_apply(res) + alpha * (x.values - x0.values))
            lhs = jac.adjoint_apply(jac.apply(d.values)) + alpha * d.values
            assert np.linalg.norm(lhs - rhs) <= 1e-10 * np.linalg.norm(rhs)


class TestSteppers:
    def test_input_point_checked(self, benchmark_model):
        # the linearization of the input point is its admissibility check
        p = benchmark_model.params
        x0 = initial_guess(p)
        too_high = GridFunction.constant(p.grid, p.depth)
        with pytest.raises(DomainError, match="^interface value 2 exceeds admissible ceiling"):
            velocity(benchmark_model, UNIT_SCHEDULE, 0.0, too_high, x0)
        foreign = GridFunction.constant(Grid(1.0, 21), 1.0)
        for x, anchor in ((foreign, x0), (x0, foreign)):
            with pytest.raises(GridMismatchError):
                velocity(benchmark_model, UNIT_SCHEDULE, 0.0, x, anchor)

    def test_euler_fixed_point(self):
        grid = Grid(1.0, 5)
        sol = GridFunction(grid, np.linspace(0.2, 0.8, 5))
        model = DiagonalLinearModel(sol, np.ones(5))
        x1 = euler(model, UNIT_SCHEDULE, 0.0, sol, sol, tau=0.7)
        np.testing.assert_allclose(x1.values, sol.values, atol=1e-14)

    def test_euler_scalar_arithmetic(self):
        grid = Grid(1.0, 3)
        model = identity_model(grid)
        x = GridFunction.constant(grid, 2.0)
        x0 = GridFunction.constant(grid, 0.0)
        x1 = euler(model, UNIT_SCHEDULE, 0.0, x, x0, tau=0.1)
        np.testing.assert_allclose(x1.values, 1.8, rtol=1e-13)
        x1 = euler(model, UNIT_SCHEDULE, 0.0, x, x0, tau=1.0)
        np.testing.assert_allclose(x1.values, 0.0, atol=1e-13)

    def test_euler_tau_one_matches_damped_gauss_newton(self):
        # one Euler step with tau = 1 equals the classic regularized iteration
        # x+ = x - (J*J + aI)^{-1} (J* phi(x) + a (x - x0)), computed here
        # independently with a dense inverse
        rng = np.random.default_rng(31)
        for k in range(10):
            n = int(rng.choice([3, 5, 7]))
            grid = Grid(1.0, n)
            a = rng.uniform(-1, 1, size=(n, n))
            b = rng.standard_normal(n)
            model = LinearMatrixModel(grid, a, b)
            x = GridFunction(grid, rng.standard_normal(n))
            x0 = GridFunction(grid, rng.standard_normal(n))
            schedule = Exponential(rng.uniform(0.05, 2.0), 1.0)
            t_k = 0.1 * k  # keep alpha moderate so conditioning noise stays tiny

            w = model.grid.weights
            alpha = schedule.alpha(t_k)
            adj = np.diag(1.0 / w) @ a.T @ np.diag(w)
            direct = x.values - np.linalg.inv(adj @ a + alpha * np.eye(n)) @ (
                adj @ (a @ x.values - b) + alpha * (x.values - x0.values)
            )
            stepped = euler(model, schedule, t_k, x, x0, tau=1.0)
            np.testing.assert_allclose(stepped.values, direct, rtol=1e-12, atol=1e-13)

    def test_rk_fixed_point(self):
        grid = Grid(1.0, 5)
        sol = GridFunction(grid, np.linspace(0.2, 0.8, 5))
        model = DiagonalLinearModel(sol, np.ones(5))
        x1 = midpoint(model, UNIT_SCHEDULE, 0.0, sol, sol, tau=0.7)
        np.testing.assert_allclose(x1.values, sol.values, atol=1e-14)

    def test_rk_against_exponential_decay(self):
        # identity model with x0 = 0 gives dx/dt = -x for any schedule
        grid = Grid(1.0, 3)
        model = identity_model(grid)
        x = GridFunction.constant(grid, 1.0)
        x0 = GridFunction.constant(grid, 0.0)
        x1 = midpoint(model, UNIT_SCHEDULE, 0.0, x, x0, tau=0.1)
        np.testing.assert_allclose(x1.values, 0.905, rtol=1e-13)
        assert abs(x1.values[0] - np.exp(-0.1)) <= 0.1**3

    def test_rk_one_step_order(self):
        grid = Grid(1.0, 3)
        model = identity_model(grid)
        x = GridFunction.constant(grid, 1.0)
        x0 = GridFunction.constant(grid, 0.0)

        def one_step_error(tau):
            x1 = midpoint(model, UNIT_SCHEDULE, 0.0, x, x0, tau=tau)
            return abs(x1.values[0] - np.exp(-tau))

        ratio = one_step_error(0.1) / one_step_error(0.05)
        assert 7.0 <= ratio <= 9.0  # third-order local error => ~8x per halving


class TestJacobianConsistency:
    @pytest.mark.parametrize("point", ["initial", "solution"])
    def test_benchmark_directional_derivatives(self, benchmark_model, point):
        params = benchmark_model.params
        x = initial_guess(params) if point == "initial" else true_interface(params)
        jac = benchmark_model.jacobian(x)
        rng = np.random.default_rng(32)
        eps = 1e-6
        for _ in range(10):
            h = rng.uniform(-1, 1, size=params.grid.node_count)
            plus = benchmark_model.residual(GridFunction(params.grid, x.values + eps * h))
            minus = benchmark_model.residual(GridFunction(params.grid, x.values - eps * h))
            fd = (plus.values - minus.values) / (2 * eps)
            jh = jac.apply(h)
            err = l2_norm(GridFunction(params.grid, fd - jh))
            scale = l2_norm(GridFunction(params.grid, jh))
            assert err <= 1e-6 * max(1.0, scale)

    def test_diagonal_model_directional_derivatives(self):
        grid = Grid(1.0, 9)
        sol = GridFunction(grid, np.linspace(0.0, 1.0, 9))
        model = DiagonalLinearModel(sol, np.linspace(1.0, 0.1, 9))
        x = GridFunction(grid, np.linspace(-1.0, 1.0, 9))
        jac = model.jacobian(x)
        rng = np.random.default_rng(33)
        eps = 1e-6
        for _ in range(5):
            h = rng.uniform(-1, 1, size=9)
            plus = model.residual(GridFunction(grid, x.values + eps * h))
            minus = model.residual(GridFunction(grid, x.values - eps * h))
            fd = (plus.values - minus.values) / (2 * eps)
            np.testing.assert_allclose(fd, jac.apply(h), rtol=1e-6, atol=1e-9)


@pytest.mark.parametrize(
    "rule, message",
    [
        ((FixedSteps, {"count": -1}), "fixed step count must be nonnegative"),
        ((DiscrepancyFloor, {"tol": -1.0}), "discrepancy floor must be nonnegative"),
        ((DiscrepancyFloor, {"tol": float("nan")}), "discrepancy floor must be nonnegative"),
        ((FirstDiscrepancyIncrease, {"patience": 0}), "patience must be >= 1"),
        ("fixed:3", "unknown stop rule 'fixed:3'"),
    ],
)
def test_solver_config_rejects_bad_stop_rule(rule, message):
    # a rule checks itself when it is built, directly or by replace(), so
    # the bad rule is built inside pytest.raises; a string is no rule
    if isinstance(rule, str):
        builds = [lambda: rule]
    else:
        cls, params = rule
        builds = [lambda: cls(**params), lambda: dataclasses.replace(cls(1), **params)]
    for build in builds:
        with pytest.raises(ValueError) as excinfo:
            SolverConfig(stop_rule=build())
        assert str(excinfo.value) == message


@pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), True, "3"])
@pytest.mark.parametrize(
    "rule, name", [(FixedSteps, "fixed step count"), (FirstDiscrepancyIncrease, "patience")]
)
def test_stop_rule_counts_must_be_integers(rule, name, value):
    # a non-integer count never equals a step index and a NaN patience is
    # never reached, so either would run silently to max_steps; True would
    # stop after one step
    with pytest.raises(ValueError) as excinfo:
        rule(value)
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


def test_stop_rule_counts_accept_numpy_integers():
    assert FixedSteps(np.int64(3)).stop_reason(3, 1.0, 0) == "fixed_steps"
    assert FirstDiscrepancyIncrease(np.int32(2)).stop_reason(5, 1.0, 2) == "discrepancy_increase"


@pytest.mark.parametrize("value", [2.5, 3.0, float("nan"), True, "3"])
@pytest.mark.parametrize("name", ["max_steps", "record_every"])
def test_solver_config_counts_must_be_integers(name, value):
    # max_steps=2.5 would stop after 3 steps, max_steps=True after 1, and
    # record_every=1.5 would record steps 0, 3, 6, 9 of a 10-step run
    with pytest.raises(ValueError) as excinfo:
        SolverConfig(**{name: value})
    assert str(excinfo.value) == f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("name", ["max_steps", "record_every"])
def test_solver_config_counts_must_be_positive(name):
    for value in (0, -1, np.int64(0)):
        with pytest.raises(ValueError) as excinfo:
            SolverConfig(**{name: value})
        assert str(excinfo.value) == f"{name} must be >= 1, got {value}"


def test_solver_config_counts_accept_numpy_integers():
    grid = Grid(1.0, 5)
    sol = GridFunction.constant(grid, 0.5)
    model = DiagonalLinearModel(sol, np.ones(5))
    config = SolverConfig(
        tau=0.1, max_steps=np.int64(10), stop_rule=FixedSteps(12), record_every=np.int32(4)
    )
    report = run_flow(model, UNIT_SCHEDULE, GridFunction.constant(grid, 1.0), config)
    assert report.stop_reason == "max_steps"
    assert [p.step for p in report.trajectory] == [0, 4, 8, 10]


def _concrete_gnflow_subclasses(*bases):
    found, todo = set(), list(bases)
    while todo:
        for cls in todo.pop().__subclasses__():
            todo.append(cls)
            if cls.__module__.startswith("gnflow.") and not inspect.isabstract(cls):
                found.add(cls)
    return sorted(found, key=lambda cls: cls.__name__)


# a valid instance of each concrete schedule and stop rule, a parameter and a bad value for it
BAD_PARAMETER = {
    type(good): (good, name, bad)
    for good, name, bad in [
        (InversePower(0.1, 1.0, 2.0), "a", -1.0),
        (Exponential(0.1, 3.5), "beta", -3.5),
        (Base2(0.1, 3.5), "alpha0", 0.0),
        (FixedSteps(3), "count", -3),
        (DiscrepancyFloor(1e-3), "tol", -1e-3),
        (FirstDiscrepancyIncrease(3), "patience", 0),
    ]
}


@pytest.mark.parametrize(
    "cls", _concrete_gnflow_subclasses(Schedule, StopRule), ids=lambda cls: cls.__name__
)
def test_every_schedule_and_stop_rule_checks_itself_when_built(cls):
    good, name, bad = BAD_PARAMETER[cls]
    with pytest.raises(ValueError):
        dataclasses.replace(good, **{name: bad})  # builds a new instance


class TestRunFlow:
    def test_starts_at_solution(self):
        grid = Grid(1.0, 5)
        sol = GridFunction(grid, np.linspace(0.2, 0.8, 5))
        model = DiagonalLinearModel(sol, np.ones(5))
        config = SolverConfig(stepper="euler", tau=0.1, max_steps=10)
        report = run_flow(model, UNIT_SCHEDULE, sol, config, reference=sol)
        assert report.steps_taken == 0
        assert report.discrepancy == 0.0
        assert report.error_sup == 0.0
        np.testing.assert_allclose(report.final_x.values, sol.values)

    def test_fixed_steps_zero_movement(self):
        grid = Grid(1.0, 5)
        sol = GridFunction(grid, np.linspace(0.2, 0.8, 5))
        model = DiagonalLinearModel(sol, np.ones(5))
        config = SolverConfig(stepper="euler", tau=0.1, max_steps=5, stop_rule=FixedSteps(1))
        report = run_flow(model, UNIT_SCHEDULE, sol, config)
        assert report.steps_taken == 1
        np.testing.assert_allclose(report.final_x.values, sol.values, atol=1e-14)

    def test_discrepancy_floor(self):
        grid = Grid(1.0, 5)
        sol = GridFunction.constant(grid, 0.5)
        model = DiagonalLinearModel(sol, np.ones(5))
        x0 = GridFunction.constant(grid, 1.0)
        config = SolverConfig(
            stepper="euler", tau=0.1, max_steps=200, stop_rule=DiscrepancyFloor(1e-3)
        )
        report = run_flow(model, UNIT_SCHEDULE, x0, config)
        assert report.stop_reason == "discrepancy_floor"
        assert report.discrepancy <= 1e-3
        assert report.steps_taken <= 200

    def test_inadmissible_start_raises(self, benchmark_model):
        params = benchmark_model.params
        too_high = GridFunction.constant(params.grid, params.depth)
        config = SolverConfig()
        with pytest.raises(DomainError):
            run_flow(benchmark_model, Exponential(0.1, 3.5), too_high, config)

    def test_divergence_reported_in_band(self):
        # exploding linear model: spectrum >> 1 makes Euler with tau=1.9/L
        # unstable once alpha is small; the run must flag, not raise
        grid = Grid(1.0, 5)
        sol = GridFunction.constant(grid, 0.0)
        model = DiagonalLinearModel(sol, np.full(5, 1.0))
        x0 = GridFunction.constant(grid, 1.0)
        config = SolverConfig(
            stepper="euler", tau=2.5, max_steps=400, stop_rule=FixedSteps(400)
        )
        report = run_flow(model, Exponential(1e-8, 1.0), x0, config, reference=sol)
        assert report.diverged or report.discrepancy > 1e3  # oscillation blows up
        assert np.all(np.isfinite(report.final_x.values))

    def test_trajectory_recording_and_thinning(self):
        grid = Grid(1.0, 5)
        sol = GridFunction.constant(grid, 0.5)
        model = DiagonalLinearModel(sol, np.ones(5))
        x0 = GridFunction.constant(grid, 1.0)
        config = SolverConfig(
            stepper="euler",
            tau=0.1,
            max_steps=10,
            stop_rule=FixedSteps(10),
            record_every=4,
        )
        report = run_flow(model, UNIT_SCHEDULE, x0, config, reference=sol)
        steps = [p.step for p in report.trajectory]
        assert steps == [0, 4, 8, 10]  # thinned, endpoint forced
        for p in report.trajectory:
            assert p.w is not None and p.error_sup is not None
            assert p.alpha == pytest.approx(UNIT_SCHEDULE.alpha(p.t))

    def test_sigma_nonincreasing_until_stop_under_increase_rule(self):
        grid = Grid(1.0, 5)
        sol = GridFunction.constant(grid, 0.5)
        model = DiagonalLinearModel(sol, np.linspace(1.0, 0.5, 5))
        x0 = GridFunction.constant(grid, 1.0)
        config = SolverConfig(
            stepper="euler",
            tau=0.1,
            max_steps=300,
            stop_rule=FirstDiscrepancyIncrease(patience=3),
        )
        report = run_flow(model, InversePower(1.0, 1.0, 1.0), x0, config, reference=sol)
        sigmas = [p.sigma for p in report.trajectory[: report.steps_taken + 1]]
        assert all(s2 <= s1 for s1, s2 in zip(sigmas, sigmas[1:]))

    @pytest.mark.parametrize("stepper, per_step", [("euler", 1), ("rk", 2)])
    def test_one_linearization_per_iterate(self, stepper, per_step):
        # x0 and every accepted iterate are linearized once, and the midpoint
        # stepper adds one at its half step; nothing else touches the operator
        params = GravimetryParams(node_count=41)
        model = CountingModel(GravimetryModel.synthetic(params))
        config = SolverConfig(stepper=stepper, tau=0.1, max_steps=150)
        report = run_flow(model, Exponential(0.1, 3.5), initial_guess(params), config)
        assert not report.diverged
        k = report.trajectory[-1].step
        assert k > 10
        assert model.linearizations == per_step * k + 1

    @pytest.mark.parametrize("stepper", ["euler", "rk"])
    @pytest.mark.parametrize("rule", [FirstDiscrepancyIncrease(3), FixedSteps(25)])
    def test_one_alpha_and_domain_check_per_point(self, monkeypatch, stepper, rule):
        # alpha is evaluated once per time point the run visits (t_k, and
        # t_k + tau/2 for the midpoint rule); the schedule checked itself
        # when built, so the run does not evaluate it again.  The domain is
        # checked once per point, by its linearization
        alpha = Exponential.alpha
        alpha_calls = []

        def counted(self, t):
            alpha_calls.append(t)
            return alpha(self, t)

        violation = GravimetryParams.admissibility_violation
        domain_checks = []

        def counted_check(self, values):
            domain_checks.append(float(np.max(values)))
            return violation(self, values)

        schedule = Exponential(0.1, 3.5)
        monkeypatch.setattr(Exponential, "alpha", counted)
        params = GravimetryParams(node_count=41)
        model = GravimetryModel.synthetic(params)
        monkeypatch.setattr(GravimetryParams, "admissibility_violation", counted_check)
        config = SolverConfig(stepper=stepper, tau=0.1, max_steps=150, stop_rule=rule)
        report = run_flow(model, schedule, initial_guess(params), config)
        assert not report.diverged
        k = report.trajectory[-1].step
        assert k > 10
        half_points = k if stepper == "rk" else 0
        assert len(alpha_calls) == (k + 1) + half_points
        assert len(domain_checks) == 1 + k + half_points

    @pytest.mark.parametrize(
        "rule, tau, schedule, reason",
        [
            (DiscrepancyFloor(1e-3), 0.1, UNIT_SCHEDULE, "discrepancy_floor"),
            (FirstDiscrepancyIncrease(2), 2.5, UNIT_SCHEDULE, "discrepancy_increase"),
            (FirstDiscrepancyIncrease(3), 0.1, Exponential(1.0, 10.0), "alpha_floor"),
            (FixedSteps(400), 2.5, Exponential(1e-8, 1.0), "diverged: "),
        ],
    )
    def test_thinned_trajectory_ends_at_last_iterate(self, rule, tau, schedule, reason):
        # an early stop records its last accepted iterate (the last, not the
        # best, under the increase rule) even off the thinning stride
        grid = Grid(1.0, 5)
        sol = GridFunction.constant(grid, 0.5 if reason != "diverged: " else 0.0)
        model = DiagonalLinearModel(sol, np.ones(5))
        x0 = GridFunction.constant(grid, 1.0)

        def run(record_every):
            config = SolverConfig(
                stepper="euler", tau=tau, max_steps=400, stop_rule=rule, record_every=record_every
            )
            return run_flow(model, schedule, x0, config, reference=sol)

        full, thinned = run(1), run(4)
        assert full.stop_reason.startswith(reason)
        last = full.trajectory[-1].step
        assert last % 4 != 0
        expected = [p for p in full.trajectory if p.step % 4 == 0 or p.step == last]
        assert thinned.trajectory == expected
        assert thinned.stop_reason == full.stop_reason
        assert thinned.steps_taken == full.steps_taken

    @pytest.mark.parametrize("stepper", ["euler", "rk"])
    def test_in_band_divergence_reasons(self, stepper):
        # x0 below the true interface: large steps push the profile, or the
        # midpoint rule's half step, above the admissible ceiling
        params = GravimetryParams(node_count=41)
        model = GravimetryModel.synthetic(params)
        schedule = Exponential(1e-3, 1.0)
        x0 = GridFunction.constant(params.grid, 0.0)
        tau = 2.0 if stepper == "euler" else 3.0
        config = SolverConfig(stepper=stepper, tau=tau, max_steps=30, stop_rule=FixedSteps(30))
        report = run_flow(model, schedule, x0, config)
        assert report.diverged and report.steps_taken >= 1
        x, t_k = report.final_x, report.steps_taken * tau
        assert params.admissibility_violation(x.values) is None
        if stepper == "euler":
            bad = euler(model, schedule, t_k, x, x0, tau)
            prefix = "diverged: "
        else:
            d1 = velocity(model, schedule, t_k, x, x0)
            bad = GridFunction(params.grid, x.values + 0.5 * tau * d1.values)
            prefix = "diverged: half-step point inadmissible: "
        reason = params.admissibility_violation(bad.values)
        assert reason.startswith("interface value ")
        assert reason.endswith(" exceeds admissible ceiling depth - epsilon = 1.999")
        assert report.stop_reason == prefix + reason

    @pytest.mark.parametrize(
        "rhs, message",
        [
            (np.array([0, 0, np.inf, 0, 0, 0, 0]), "grid function contains NaN or infinite"),
            (np.full(7, -1e200), "discrepancy at x0 is not finite: its sum of squares overflows"),
        ],
        ids=["infinite-entry", "overflowing-sum"],
    )
    # the run rejects an overflowing sum of squares at x0 without a numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_non_finite_residual_at_x0_raises(self, rhs, message):
        # the path behind the CLI's exit 1 for a non-finite linearization at
        # x0: an infinite entry, or finite entries whose sum of squares
        # overflows, raises before any step
        grid = Grid(1.0, 7)
        model = CountingModel(LinearMatrixModel(grid, np.eye(7), rhs))
        with pytest.raises(NonFiniteValueError, match=f"^{message}"):
            run_flow(model, UNIT_SCHEDULE, GridFunction.constant(grid, 0.0), SolverConfig())
        assert model.linearizations == 1

    @pytest.mark.parametrize("stepper", ["euler", "rk"])
    def test_non_finite_residual_ends_run_in_band(self, stepper):
        # the fourth linearization is infinite: x_3 for Euler, the second
        # half-step point for the midpoint rule; the report keeps the last
        # finite iterate, x_2 or x_1
        rng = np.random.default_rng(37)
        a = rng.standard_normal((7, 7)) + 7 * np.eye(7)
        b = rng.standard_normal(7)
        grid = Grid(1.0, 7)
        model = BreakingModel(grid, a, b, finite_calls=3)
        x0, tau = GridFunction.constant(grid, 0.0), 0.1
        config = SolverConfig(stepper=stepper, tau=tau, max_steps=10, stop_rule=FixedSteps(10))
        report = run_flow(model, UNIT_SCHEDULE, x0, config)
        assert report.stop_reason == "diverged: grid function contains NaN or infinite values"
        last = 2 if stepper == "euler" else 1
        assert report.steps_taken == last and report.trajectory[-1].step == last
        step = STEPS[stepper]
        x = x0
        for i in range(last):
            x = step(LinearMatrixModel(grid, a, b), UNIT_SCHEDULE, i * tau, x, x0, tau)
        assert np.array_equal(report.final_x.values, x.values)
        assert np.isfinite(report.discrepancy)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.parametrize("stepper", ["euler", "rk"])
    @pytest.mark.parametrize(
        "bad, reason",
        [
            (np.nan, "grid function contains NaN or infinite values"),
            (np.inf, "grid function contains NaN or infinite values"),
            (1e200, "non-finite discrepancy"),
        ],
    )
    def test_breakdown_at_an_iterate_keeps_its_reason(self, stepper, bad, reason):
        # the residual of x_2 is the first to break: a NaN or infinite
        # entry, or finite entries near 1e200 whose squares overflow the
        # discrepancy; the run reads both from sigma but keeps the reasons
        # apart, and reports x_1
        rng = np.random.default_rng(38)
        a = rng.standard_normal((7, 7)) + 7 * np.eye(7)
        grid = Grid(1.0, 7)
        finite_calls = 2 if stepper == "euler" else 4  # x0, (x_half,) x1, (x_half)
        model = BreakingModel(grid, a, rng.standard_normal(7), finite_calls, bad)
        x0 = GridFunction.constant(grid, 0.0)
        config = SolverConfig(stepper=stepper, tau=0.1, max_steps=10, stop_rule=FixedSteps(10))
        report = run_flow(model, UNIT_SCHEDULE, x0, config)
        assert report.stop_reason == f"diverged: {reason}"
        assert report.steps_taken == 1 and report.trajectory[-1].step == 1
        assert np.isfinite(report.discrepancy)

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_overflowing_reference_error_raises(self):
        # x0 and the reference are finite, but x0 - reference overflows, so
        # the error of the first recorded point is not a number
        grid = Grid(1.0, 5)
        x0 = GridFunction.constant(grid, 1e308)
        model = LinearMatrixModel(grid, np.eye(5), x0.values)
        reference = GridFunction.constant(grid, -1e308)
        with pytest.raises(NonFiniteValueError, match="^grid function contains NaN or infinite"):
            run_flow(model, UNIT_SCHEDULE, x0, SolverConfig(), reference=reference)

    @pytest.mark.parametrize("stepper", ["euler", "rk"])
    @pytest.mark.parametrize("problem", ["gravimetry", "dense-fallback", "diagonal", "matrix"])
    def test_run_flow_matches_manual_steps(self, stepper, problem):
        # run_flow's step routine and the steps composed from `velocity`
        # agree bit for bit
        if problem in ("gravimetry", "dense-fallback"):
            # at H = 1.1 every Jacobian of the n = 201 run is the dense one
            depth = 2.0 if problem == "gravimetry" else 1.1
            params = GravimetryParams(node_count=201, depth=depth)
            model, schedule = GravimetryModel.synthetic(params), Exponential(0.1, 3.5)
            x0, k = initial_guess(params), 12
            dense = model.linearize(x0.values).jacobian.left is None
            assert dense == (problem == "dense-fallback")
        elif problem == "matrix":
            # a model that defines only grid and linearize
            rng = np.random.default_rng(36)
            a = rng.standard_normal((7, 7)) + 7 * np.eye(7)
            model = LinearMatrixModel(Grid(1.0, 7), a, rng.standard_normal(7))
            schedule, x0, k = UNIT_SCHEDULE, GridFunction.constant(model.grid, 0.0), 10
        else:
            inst = certified_diagonal_instance()
            model, schedule, x0, k = inst.model, inst.schedule, inst.x0, 40
        tau = 0.1
        config = SolverConfig(stepper=stepper, tau=tau, max_steps=k, stop_rule=FixedSteps(k))
        report = run_flow(model, schedule, x0, config)
        assert report.steps_taken == k and not report.diverged
        step = STEPS[stepper]
        x = x0
        for i in range(k):
            x = step(model, schedule, i * tau, x, x0, tau)
        assert np.array_equal(report.final_x.values, x.values)

    @pytest.mark.parametrize("problem", ["certified-10", "certified-100", "gravimetry"])
    def test_one_grid_function_per_run(self, monkeypatch, benchmark_model, problem):
        # the loop carries nodal arrays; only the reported iterate is wrapped
        if problem == "gravimetry":
            p = benchmark_model.params
            model, schedule = benchmark_model, Exponential(0.1, 3.5)
            x0, reference = initial_guess(p), true_interface(p)
            config = SolverConfig(stepper="euler", tau=0.1, max_steps=500)
        else:
            inst = certified_diagonal_instance()
            model, schedule, x0, reference = inst.model, inst.schedule, inst.x0, inst.solution
            k = int(problem.split("-")[1])
            config = SolverConfig(stepper="rk", tau=0.1, max_steps=k, stop_rule=FixedSteps(k))
        post_init = GridFunction.__post_init__
        built = []

        def counted(self):
            built.append(self)
            post_init(self)

        monkeypatch.setattr(GridFunction, "__post_init__", counted)
        report = run_flow(model, schedule, x0, config, reference=reference)
        assert not report.diverged and report.trajectory[-1].step >= 10
        assert len(built) == 1, len(built)
        assert built[0] is report.final_x

    @pytest.mark.parametrize("stepper", ["euler", "rk"])
    def test_factored_run_calls_no_svd(self, monkeypatch, stepper):
        # every gravimetry Jacobian is solved once, so a factored solve is
        # the refined Gram solve of its alpha and nothing else is
        # decomposed: no SVD in either run, building the rungs included, so
        # no SVD fallback, and, once a first run has cached the rungs' left
        # factors, no QR of an n x m factor
        svds, warm = [], []

        def counted(calls, name, original):
            def call(*args, **kwargs):
                calls.append((name, np.shape(args[0])))
                return original(*args, **kwargs)

            return call

        monkeypatch.setattr(np.linalg, "svd", counted(svds, "svd", np.linalg.svd))
        params = GravimetryParams(node_count=201, depth=2.0)
        model = CountingModel(GravimetryModel.synthetic(params))
        config = SolverConfig(stepper=stepper, tau=0.1, max_steps=500)
        report = run_flow(model, Exponential(0.1, 3.5), initial_guess(params), config)
        assert report.stop_reason == "alpha_floor" and report.steps_taken == 79
        assert model.linearizations > 79
        assert svds == []
        monkeypatch.setattr(np.linalg, "qr", counted(warm, "qr", np.linalg.qr))
        model.linearizations = 0
        report = run_flow(model, Exponential(0.1, 3.5), initial_guess(params), config)
        assert report.stop_reason == "alpha_floor" and report.steps_taken == 79
        assert model.linearizations > 79
        assert svds == [] and warm == []

    @pytest.mark.parametrize("stepper", ["euler", "rk"])
    def test_run_below_the_floor_completes(self, stepper):
        # 150 fixed steps end at alpha = 1.6e-24, far below the 1e-13 floor,
        # where the refinement stops converging and the SVD fallback
        # carries the run; accepting the unconverged refinement instead
        # left the admissible domain at step 109 (Euler) and 107 (midpoint)
        params = GravimetryParams(node_count=201)
        config = SolverConfig(stepper=stepper, tau=0.1, max_steps=500, stop_rule=FixedSteps(150))
        report = run_flow(
            GravimetryModel.synthetic(params), Exponential(0.1, 3.5), initial_guess(params), config
        )
        assert report.stop_reason == "fixed_steps" and report.steps_taken == 150
        assert report.trajectory[-1].alpha < 1e-23

    @pytest.mark.parametrize("stepper", ["euler", "rk"])
    def test_singular_solve_ends_run_in_band(self, monkeypatch, stepper):
        # the LU solve of the fast path and the SVD of the fallback both fail
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(np.linalg, "svd", singular)
        params = GravimetryParams(node_count=201)
        config = SolverConfig(stepper=stepper)
        report = run_flow(
            GravimetryModel.synthetic(params), Exponential(0.1, 3.5), initial_guess(params), config
        )
        assert report.diverged and report.steps_taken == 0
        assert report.stop_reason == (
            "diverged: decomposition of the Jacobian failed: Singular matrix"
        )

    def test_certified_midpoint_run_factors_once(self, monkeypatch):
        # the diagonal model's Jacobian is one object per model, so the one
        # QR and one SVD behind its solves are computed once for all 2k solves
        svd = np.linalg.svd
        calls = []

        def counted(*args, **kwargs):
            calls.append(args[0].shape)
            return svd(*args, **kwargs)

        monkeypatch.setattr("gnflow.flow.np.linalg.svd", counted)
        inst = certified_diagonal_instance()
        k = 40
        config = SolverConfig(stepper="rk", tau=0.1, max_steps=k, stop_rule=FixedSteps(k))
        report = run_flow(inst.model, inst.schedule, inst.x0, config, reference=inst.solution)
        assert not report.diverged and report.steps_taken == k
        assert calls == [(21, 21)]
        assert inst.model.jacobian(inst.x0) is inst.model.jacobian(report.final_x)

    def test_benchmark_run_matches_reference_table_row(self, benchmark_model):
        # exponential schedule, alpha0=0.1, beta=3.5, tau=0.1, Euler; reference
        # row: N=85, error 1.08e-2, discrepancy 2.84e-4 (loose factors: the
        # reference stopping rule and norms are not published)
        params = benchmark_model.params
        config = SolverConfig(stepper="euler", tau=0.1, max_steps=500)
        report = run_flow(
            benchmark_model,
            Exponential(0.1, 3.5),
            initial_guess(params),
            config,
            reference=true_interface(params),
        )
        assert not report.diverged
        assert 85 * 0.5 <= report.steps_taken <= 85 * 1.5
        assert 1.08e-2 / 3 <= report.error_sup <= 1.08e-2 * 3
        assert 2.84e-4 / 10 <= report.discrepancy <= 2.84e-4 * 10

    def test_benchmark_degrades_for_fast_schedule(self, benchmark_model):
        # beta=10 decays too fast to track; replay the reference row's step
        # count (N=23, error 0.24) and require visibly degraded accuracy
        params = benchmark_model.params
        config = SolverConfig(
            stepper="euler", tau=0.1, max_steps=23, stop_rule=FixedSteps(23)
        )
        report = run_flow(
            benchmark_model,
            Exponential(0.1, 10.0),
            initial_guess(params),
            config,
            reference=true_interface(params),
        )
        assert report.error_sup >= 0.1
