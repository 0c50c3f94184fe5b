from __future__ import annotations

import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from gnflow import (
    DomainError,
    Exponential,
    GravimetryModel,
    GravimetryParams,
    GridFunction,
    SolverConfig,
    forward,
    frechet_matrix,
    initial_guess,
    run_flow,
    sup_norm,
    synthesize_data,
    true_interface,
)
from gnflow import gravimetry
from gnflow.gravimetry import INTERP_TOL

from conftest import DenseGravimetryModel

# frozen oracle: trapezoid quadrature with 400001 nodes of
# (1/4pi) * int ln[(s^2+4)/(s^2+(2-(1-s^2)^2)^2)] ds on [-1,1]
# (stable to 13 digits under 100x refinement)
ANOMALY_AT_CENTER = 0.10341241814946966


def kernel(t: float, s: float, xs: float, p: GravimetryParams) -> float:
    """Scalar oracle of the log-ratio kernel
    ln[((t-s)^2 + H^2) / ((t-s)^2 + (H - xs)^2)].

    Zero when xs = 0, symmetric in (t, s), and increasing in xs on [0, H).
    """
    reason = p.admissibility_violation(np.asarray([xs]))
    if reason is not None:
        raise DomainError(reason)
    d2 = (t - s) ** 2
    return float(np.log((d2 + p.depth**2) / (d2 + (p.depth - xs) ** 2)))


def _square_arrays(p: GravimetryParams) -> list[str]:
    """Names of the n x n values the params hold."""
    n = p.node_count
    return [name for name, value in vars(p).items() if np.shape(value) == (n, n)]


class TestKernel:
    def test_zero_interface_gives_zero(self):
        p = GravimetryParams()
        for t, s in [(0.0, 0.0), (0.3, -0.7), (1.0, 1.0)]:
            assert kernel(t, s, 0.0, p) == 0.0

    def test_coincident_points_value(self):
        p = GravimetryParams()
        assert kernel(0.5, 0.5, 1.0, p) == pytest.approx(math.log(4.0), rel=1e-12)

    def test_symmetric_in_surface_points(self):
        p = GravimetryParams()
        rng = np.random.default_rng(60)
        for _ in range(10):
            t, s = rng.uniform(-1, 1, size=2)
            xs = rng.uniform(0.0, 1.5)
            assert kernel(t, s, xs, p) == kernel(s, t, xs, p)

    def test_interface_too_close_to_surface(self):
        p = GravimetryParams()
        with pytest.raises(DomainError):
            kernel(0.0, 0.0, p.depth - p.epsilon / 2, p)


class TestForward:
    def test_zero_interface(self):
        p = GravimetryParams()
        g = forward(GridFunction.constant(p.grid, 0.0), p)
        np.testing.assert_allclose(g.values, 0.0, atol=0.0)

    def test_center_value_against_fine_trapezoid_oracle(self):
        p = GravimetryParams()
        g = forward(true_interface(p), p)
        center = p.grid.node_count // 2
        assert g.values[center] == pytest.approx(ANOMALY_AT_CENTER, rel=1e-6)

    def test_monotone_in_interface(self):
        p = GravimetryParams()
        rng = np.random.default_rng(61)
        for _ in range(5):
            base = rng.uniform(0.0, 0.8, size=p.grid.node_count)
            bump = rng.uniform(0.0, 0.5, size=p.grid.node_count)
            g_low = forward(GridFunction(p.grid, base), p)
            g_high = forward(GridFunction(p.grid, base + bump), p)
            assert np.all(g_high.values >= g_low.values)

    def test_refinement_agreement(self):
        coarse = GravimetryParams(node_count=201)
        fine = GravimetryParams(node_count=401)
        g_coarse = forward(true_interface(coarse), coarse)
        g_fine = forward(true_interface(fine), fine)
        diff = np.max(np.abs(g_coarse.values - g_fine.values[::2]))
        assert diff <= 1e-6 * np.max(np.abs(g_fine.values))

    def test_inadmissible_rejected(self, benchmark_model):
        p = benchmark_model.params
        too_high = GridFunction.constant(p.grid, p.depth)
        with pytest.raises(DomainError):
            forward(too_high, p)
        with pytest.raises(DomainError):
            benchmark_model.linearize(too_high.values)

    def test_non_integer_node_count_rejected(self):
        # the grid check runs when the params are built, not in `synthetic`
        with pytest.raises(ValueError, match="node_count must be an integer, got 201.0"):
            GravimetryParams(node_count=201.0)

    def test_wrong_grid_rejected(self):
        p = GravimetryParams()
        other = GravimetryParams(node_count=21)
        with pytest.raises(DomainError):
            forward(GridFunction.constant(other.grid, 0.5), p)


class TestFrechetMatrix:
    def test_diagonal_value_at_zero_interface(self):
        p = GravimetryParams()  # depth 2: derivative kernel 2H/H^2 = 1 at t=s
        jac = frechet_matrix(GridFunction.constant(p.grid, 0.0), p)
        w = p.grid.weights
        for i in (0, 50, 100, 200):
            expected = (p.density / (4 * np.pi)) * w[i] * 1.0
            assert jac.matrix[i, i] == pytest.approx(expected, rel=1e-12)

    def test_entries_positive_and_finite(self):
        p = GravimetryParams()
        jac = frechet_matrix(true_interface(p), p)
        assert np.all(np.isfinite(jac.matrix))
        assert np.all(jac.matrix > 0)

    def test_symmetric_up_to_weights_at_constant_interface(self):
        p = GravimetryParams()
        jac = frechet_matrix(GridFunction.constant(p.grid, 0.0), p)
        kernel_part = jac.matrix / p.grid.weights[None, :]
        np.testing.assert_allclose(kernel_part, kernel_part.T, rtol=1e-12)

    def test_singular_values_decay(self):
        # compactness proxy: the discretized derivative is severely
        # ill-conditioned (measured ratio ~1e-12; bound frozen at 1e-3)
        p = GravimetryParams()
        sv = np.linalg.svd(frechet_matrix(true_interface(p), p).matrix, compute_uv=False)
        assert sv[19] / sv[0] <= 1e-3


class TestSyntheticData:
    def test_residual_vanishes_at_true_interface(self, benchmark_model):
        res = benchmark_model.residual(true_interface(benchmark_model.params))
        assert sup_norm(res) <= 1e-12

    def test_center_anomaly_positive(self):
        p = GravimetryParams()
        y = synthesize_data(p)
        assert y.values[p.grid.node_count // 2] > 0

    def test_initial_guess(self):
        p = GravimetryParams()
        x0 = initial_guess(p)
        assert np.all(x0.values == 1.0)
        assert p.admissibility_violation(x0.values) is None
        assert sup_norm(GridFunction(p.grid, x0.values - true_interface(p).values)) == pytest.approx(1.0)

    def test_data_grid_checked(self):
        p = GravimetryParams()
        other = GravimetryParams(node_count=21)
        with pytest.raises(ValueError):
            GravimetryModel(p, synthesize_data(other))


class TestModelInterfaceContract:
    def test_domain_violation_messages(self, benchmark_model):
        # linearize is the admissibility check: it raises DomainError with
        # the reason at an inadmissible point and accepts an admissible one
        p = benchmark_model.params
        benchmark_model.linearize(initial_guess(p).values)
        bad = GridFunction.constant(p.grid, p.depth - p.epsilon / 2)
        with pytest.raises(DomainError, match="ceiling") as excinfo:
            benchmark_model.linearize(bad.values)
        assert str(excinfo.value) == p.admissibility_violation(bad.values)

    @pytest.mark.parametrize("node_count", [201, 801])
    @pytest.mark.parametrize("point", [initial_guess, true_interface])
    def test_linearize_matches_separate_calls(self, node_count, point):
        # residual and jacobian delegate to linearize, so they agree with it
        # bit for bit (also once the interpolation factors are cached); all
        # three match the dense oracle to the interpolation tolerance, with
        # a factor 100 for the Lebesgue constant and rounding
        model = GravimetryModel.synthetic(GravimetryParams(node_count=node_count))
        p = model.params
        x = point(p)
        eye = np.eye(node_count)
        res, jac = model.linearize(x.values)
        assert np.array_equal(res, model.residual(x).values)
        assert np.array_equal(jac.apply(eye), model.jacobian(x).apply(eye))
        assert jac.grid is model.grid
        bound = 100 * INTERP_TOL
        expected = forward(x, p).values - model.data.values
        assert np.max(np.abs(res - expected)) <= bound * np.max(np.abs(model.data.values))
        dense = frechet_matrix(x, p).matrix
        assert np.max(np.abs(jac.apply(eye) - dense)) <= bound * np.max(np.abs(dense))

    @pytest.mark.parametrize(
        ("node_count", "depth", "max_rows"), [(801, 2.0, 64), (201, 1.1, None), (3201, 2.0, 64)]
    )
    def test_linearization_rank(self, node_count, depth, max_rows):
        # max_rows None: the Chebyshev rows would be more than half the grid,
        # so the kernel is assembled densely (identity left factor)
        p = GravimetryParams(node_count=node_count, depth=depth)
        # zero data: the rank does not depend on it, and the dense forward
        # map would form n x n arrays at n = 3201
        model = GravimetryModel(p, GridFunction.constant(p.grid, 0.0))
        for point in (initial_guess, true_interface):
            jac = model.linearize(point(p).values).jacobian
            if max_rows is None:
                assert jac.left is None
                assert jac.matrix.shape == (node_count, node_count)
            else:
                assert jac.left.matrix.shape[0] == node_count
                assert jac.matrix.shape[0] <= max_rows
                assert jac.matrix.shape == (jac.left.matrix.shape[1], node_count)
            assert not _square_arrays(p)  # no n x n kernel kept on the params

    def test_factored_run_keeps_no_dense_distances(self):
        # the dense forward map (data synthesis), the Frechet matrix and the
        # dense fallback of `linearize` build their n x n squared distances
        # locally, so none is kept on the params
        p = GravimetryParams(node_count=801)
        model = GravimetryModel.synthetic(p)
        frechet_matrix(initial_guess(p), p)
        assert model.linearize(initial_guess(p).values).jacobian.left is not None
        assert not _square_arrays(p)
        shallow = GravimetryParams(node_count=201, depth=1.1)
        model = GravimetryModel.synthetic(shallow)
        assert model.linearize(initial_guess(shallow).values).jacobian.left is None
        assert not _square_arrays(shallow)

    def test_chebyshev_rows_carry_their_squared_distances(self):
        p = GravimetryParams(node_count=801)
        rows = p.chebyshev_rows(40)
        assert p.chebyshev_rows(40) is rows
        d2 = rows.squared_distances
        assert not d2.flags.writeable
        assert np.array_equal(d2, (rows.points[:, None] - p.grid.nodes[None, :]) ** 2)

    @pytest.mark.parametrize("point", [initial_guess, true_interface])
    def test_fused_row_kernels_match_scalar_oracle(self, point):
        # one kernel pass gives the anomaly and the Frechet entries at the
        # Chebyshev points and, in its last rows, at the check nodes, which
        # are grid nodes; every row matches the scalar kernel to 1e-13 of
        # the largest value (the anomaly subtracts two sums of about 3).
        # The Frechet rows at the points are scaled, K = C S^-1; the check
        # rows stay in C
        p = GravimetryParams(node_count=201)
        x = point(p).values
        h = p.depth - x
        rows = p.chebyshev_rows(40)
        check = np.unique(np.round(np.linspace(0, 1, 11)[1:-1] * 200).astype(int))
        assert np.array_equal(rows.points[40:], p.grid.nodes[check])
        assert np.array_equal(rows.check_left, rows.left.matrix[check])
        g, k = gravimetry._row_kernels(rows, h, p)
        scale, w = p.density / (4 * np.pi), p.grid.weights
        nodes = p.grid.nodes
        g_oracle = [
            scale * sum(wj * kernel(t, s, xs, p) for wj, s, xs in zip(w, nodes, x))
            for t in rows.points
        ]
        c_oracle = scale * w * 2 * h / ((rows.points[:, None] - nodes) ** 2 + h**2)
        k_oracle = c_oracle[:40] / p.grid.sqrt_weights
        assert np.max(np.abs(g - g_oracle)) <= 1e-13 * np.max(np.abs(g_oracle))
        for got, oracle in ((k[:40], k_oracle), (k[40:], c_oracle[40:])):
            assert np.max(np.abs(got - oracle)) <= 1e-13 * np.max(np.abs(oracle))

    @pytest.mark.parametrize("depth", [2.0, 1.5, 1.1, 1.01])
    def test_rank_estimate_matches_complex_bernstein_ellipse(self, depth):
        # the closed form L = asinh(sinh(asin(a) h_min / l) / a) against the
        # complex ln|u + sqrt(u - 1) sqrt(u + 1)| of the mapped poles
        # u = sin(asin(a) (s + i h) / l) / a, minimized over the columns:
        # equal where the smallest height sits at the centre (x0 and the
        # true interface), and at most the minimum on random admissible
        # interfaces, whose smallest height sits anywhere
        p = GravimetryParams(node_count=201, depth=depth)
        rng = np.random.default_rng(29)
        centred = (initial_guess(p).values, true_interface(p).values)
        randoms = [rng.uniform(0.0, p.depth - p.epsilon, p.node_count) for _ in range(4)]
        for m in (8, 32, 64, 216, 400):
            a = gravimetry._map_parameter(m)

            def column_min(x):
                z = (p.grid.nodes + 1j * (p.depth - x)) / p.half_width
                u = np.sin(np.arcsin(a) * z) / a
                return np.log(np.abs(u + np.sqrt(u - 1) * np.sqrt(u + 1))).min()

            def closed(x):
                return gravimetry._log_bernstein(m, (p.depth - x.max()) / p.half_width)

            for x in centred:
                assert closed(x) == pytest.approx(column_min(x), rel=1e-9), m
            for x in randoms:
                assert closed(x) <= column_min(x) * (1 + 1e-12), m

    def test_rung_rule(self):
        # the ladder is the multiples of 4 up to 64, then 32 * 2^(k/4)
        # rounded to a multiple of 8; the first rung is the smallest ladder
        # m with m >= ceil(ln(1/INTERP_TOL) / L(m)) + 2, and the rungs above
        # it follow in ladder order; nothing above the limit
        ladder = [80, 88, 104, 128, 152, 184, 216, 256, 304, 360]
        assert list(gravimetry._rungs(1.0, 400)) == [32, 36, 40, 44, 48, 52, 56, 60, 64] + ladder
        assert list(gravimetry._rungs(1.0, 40)) == [32, 36, 40]
        assert list(gravimetry._rungs(0.5, 400))[:2] == [56, 60]
        assert list(gravimetry._rungs(0.3, 400)) == ladder
        assert list(gravimetry._rungs(0.1, 400)) == [216, 256, 304, 360]
        assert list(gravimetry._rungs(1.0, 12)) == []
        assert list(gravimetry._rungs(1e-3, 400)) == []
        # a huge height neither overflows nor asks for more than 4 rows
        assert list(gravimetry._rungs(1e300, 12)) == [4, 8, 12]
        for height in (10.0, 2.0, 1.0, 0.9, 0.5, 0.3, 0.1):
            first, *_ = gravimetry._rungs(height, 400)
            estimate = {
                m: math.log(1 / INTERP_TOL) / gravimetry._log_bernstein(m, height)
                for m in [*range(4, 65, 4), *ladder]
            }
            rule = [m for m, e in estimate.items() if m >= math.ceil(e) + 2]
            assert first == rule[0], height

    @pytest.mark.parametrize(
        ("node_count", "stepper", "beta"), [(801, "euler", 3.5), (201, "rk", 1.0)]
    )
    def test_first_rung_passes_its_check(self, monkeypatch, node_count, stepper, beta):
        # every linearization of a whole run takes one Chebyshev rung, the
        # first it tries, and that rung has at most ceil(estimate) + 6 rows
        # for the estimate ln(1/INTERP_TOL) / L(m) at its own m: the rule's
        # 2 spare rows and a ladder step of 4, which the growth of L with m
        # widens by one (measured +2..+6 on both runs)
        attempts = []
        rungs = gravimetry._rungs
        rows = GravimetryParams.chebyshev_rows

        def recorded_rungs(height, limit):
            attempts.append((height, []))
            return rungs(height, limit)

        def recorded_rows(p, m):
            attempts[-1][1].append(m)
            return rows(p, m)

        monkeypatch.setattr(gravimetry, "_rungs", recorded_rungs)
        monkeypatch.setattr(GravimetryParams, "chebyshev_rows", recorded_rows)
        p = GravimetryParams(node_count=node_count)
        config = SolverConfig(stepper=stepper, tau=0.1, max_steps=500)
        model = GravimetryModel.synthetic(p)
        report = run_flow(model, Exponential(0.1, beta), initial_guess(p), config)
        assert not report.diverged
        assert len(attempts) > report.steps_taken
        for height, tried in attempts:
            assert len(tried) == 1, (height, tried)
            estimate = math.log(1 / INTERP_TOL) / gravimetry._log_bernstein(tried[0], height)
            assert tried[0] <= math.ceil(estimate) + 6, (height, tried)

    def test_adjoint_identity(self, benchmark_model):
        jac = benchmark_model.jacobian(initial_guess(benchmark_model.params))
        w = jac.grid.weights
        rng = np.random.default_rng(62)
        for _ in range(5):
            f = rng.standard_normal(len(w))
            g = rng.standard_normal(len(w))
            lhs = np.sum(w * jac.apply(f) * g)
            rhs = np.sum(w * f * jac.adjoint_apply(g))
            assert lhs == pytest.approx(rhs, rel=1e-10)


class TestScaledRows:
    """The kernel pass writes the Frechet rows at the Chebyshev points as
    K = C S^-1, S = diag(sqrt(w)), and the factored Jacobian keeps K."""

    @pytest.mark.parametrize("point", [initial_guess, true_interface])
    def test_check_on_scaled_rows_matches_unscaled_formula(self, point):
        # (P[check] K) S against the exact rows C gives the verdict of the
        # formula on C, written out here, for the first rung (32, which
        # passes, measured 3.6e-14) and the rung below it (28, which fails)
        p = GravimetryParams(node_count=801)
        h = p.depth - point(p).values
        first = next(gravimetry._rungs(h.min() / p.half_width, p.node_count // 2))
        assert first == 32
        for m, verdict in ((first, True), (first - 4, False)):
            rows = p.chebyshev_rows(m)
            g, k = gravimetry._row_kernels(rows, h, p)
            d2 = (rows.points[:, None] - p.grid.nodes[None, :]) ** 2
            c = (p.density / (2 * np.pi)) * p.grid.weights * h / (d2 + h**2)
            unscaled = all(
                np.abs(rows.check_left @ a[:m] - a[m:]).max() <= INTERP_TOL * np.abs(a[m:]).max()
                for a in (g, c)
            )
            assert gravimetry._interpolates(rows, g, k, p) == unscaled == verdict, m

    def test_rung_histogram_of_the_n801_euler_run(self, monkeypatch):
        # n = 801, H = 2, Euler, exp:alpha0=0.1,beta=3.5, tau = 0.1: the
        # rungs of the 80 linearizations, each on its first try
        tried = []
        rungs = gravimetry._rungs
        rows = GravimetryParams.chebyshev_rows

        def recorded_rungs(height, limit):
            tried.append([])
            return rungs(height, limit)

        def recorded_rows(p, m):
            tried[-1].append(m)
            return rows(p, m)

        monkeypatch.setattr(gravimetry, "_rungs", recorded_rungs)
        monkeypatch.setattr(GravimetryParams, "chebyshev_rows", recorded_rows)
        p = GravimetryParams(node_count=801)
        model = GravimetryModel.synthetic(p)
        config = SolverConfig(stepper="euler", tau=0.1, max_steps=500)
        report = run_flow(model, Exponential(0.1, 3.5), initial_guess(p), config)
        assert report.stop_reason == "alpha_floor"
        assert all(len(t) == 1 for t in tried)
        assert Counter(t[0] for t in tried) == {28: 12, 32: 60, 36: 8}

    @pytest.mark.parametrize("depth", [2.0, 1.1])
    @pytest.mark.parametrize("point", [initial_guess, true_interface])
    def test_accepted_rung_interpolates_at_every_node(self, depth, point):
        # the check covers nine nodes; at n = 801 the accepted rung's
        # residual and P K S are within INTERP_TOL of the dense forward map
        # less the data and of the dense Frechet matrix at every grid node,
        # relative to the largest exact value.  Measured: residual at most
        # 2.0e-15 and Frechet 3.6e-14 (H = 2, m = 32), 6.2e-14 (H = 1.1,
        # m = 216); the end nodes, where P has exact unit rows, 3.3e-16
        p = GravimetryParams(node_count=801, depth=depth)
        model = GravimetryModel.synthetic(p)
        x = point(p)
        res, jac = model.linearize(x.values)
        assert jac.left is not None
        exact = forward(x, p).values
        assert np.abs(res - (exact - model.data.values)).max() <= INTERP_TOL * np.abs(exact).max()
        dense = frechet_matrix(x, p).matrix
        assert np.abs(jac.apply(np.eye(p.node_count)) - dense).max() <= INTERP_TOL * dense.max()

    def test_gram_makes_no_factor_sized_array(self):
        # G = R (K K^T) R^T reads K as it is: on a fresh n = 801 Jacobian,
        # measured 0.09 of one m x n array (3 m x m products); rescaling the
        # factor first peaked at 1.28
        p = GravimetryParams(node_count=801)
        model = GravimetryModel.synthetic(p)
        x = initial_guess(p).values
        model.linearize(x)  # warm: the rung's factors are cached on the params
        jac = model.linearize(x).jacobian
        m = jac.matrix.shape[0]
        assert jac.left is not None and m < 64
        assert traced_peak(lambda: jac.gram) < 0.5 * 8 * m * p.node_count


@pytest.mark.parametrize("stepper", ["euler", "rk"])
@pytest.mark.parametrize("depth", [2.0, 1.5])
def test_factored_run_matches_dense_run(depth, stepper):
    # A whole run of the factored linearization against the same run on the
    # dense n x n forward map and Frechet matrix: Euler and midpoint at
    # n = 201, exp:alpha0=0.1,beta=3.5, tau = 0.1, increase:3.  Both stop
    # on alpha_floor after 79 steps.  Measured relative gaps over the four
    # cases: error_sup at most 4.0e-11 and the discrepancy at most 2.2e-10,
    # so the bounds 1e-9 and 5e-9 keep a 23x margin.  A solve that forms
    # J* phi + alpha (x - x0) and divides its rounding by alpha widens them
    # to 5.3e-7 and 2.1e-5.
    p = GravimetryParams(node_count=201, depth=depth)
    model = GravimetryModel.synthetic(p)
    config = SolverConfig(stepper=stepper, tau=0.1, max_steps=500)
    factored, dense = (
        run_flow(m, Exponential(0.1, 3.5), initial_guess(p), config, reference=true_interface(p))
        for m in (model, DenseGravimetryModel(model))
    )
    assert factored.stop_reason == dense.stop_reason == "alpha_floor"
    assert factored.steps_taken == dense.steps_taken == 79
    assert factored.error_sup == pytest.approx(dense.error_sup, rel=1e-9)
    assert factored.discrepancy == pytest.approx(dense.discrepancy, rel=5e-9)


def unblocked_kernels(x: np.ndarray, p: GravimetryParams) -> tuple[np.ndarray, np.ndarray]:
    """Anomaly and Frechet matrix at the nodal values x by the unblocked
    dense formulas, with the n x n squared distances, denominators and log
    ratio each a whole array: the reference of the in-place assembly."""
    h = p.depth - x
    w = p.grid.weights
    d2 = (p.grid.nodes[:, None] - p.grid.nodes[None, :]) ** 2
    den = d2 + h**2
    anomaly = (p.density / (4 * np.pi)) * (np.log((d2 + p.depth**2) / den) @ w)
    return anomaly, (p.density / (2 * np.pi)) * h * w / den


def random_interface(p: GravimetryParams) -> GridFunction:
    """Seeded admissible interface, with nodal values anywhere in
    [0, H - epsilon]."""
    values = np.random.default_rng(23).uniform(0.0, p.depth - p.epsilon, p.node_count)
    return GridFunction(p.grid, values)


def traced_peak(call) -> int:
    """Peak of the memory traced while `call()` runs, above what was traced
    before it (numpy reports its array buffers to tracemalloc)."""
    started = not tracemalloc.is_tracing()
    if started:
        tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        call()
        return tracemalloc.get_traced_memory()[1] - before
    finally:
        if started:
            tracemalloc.stop()


class TestDenseAssembly:
    """The dense forward map, the Frechet matrix and the dense fallback of
    `linearize` are assembled in place: bit for bit the unblocked formulas,
    with fewer n x n arrays alive at once."""

    @pytest.mark.parametrize("node_count", [201, 801])
    @pytest.mark.parametrize("point", [true_interface, random_interface])
    def test_forward_and_frechet_equal_unblocked_formulas(self, node_count, point):
        p = GravimetryParams(node_count=node_count)
        x = point(p)
        anomaly, frechet = unblocked_kernels(x.values, p)
        assert np.array_equal(forward(x, p).values, anomaly)
        assert np.array_equal(frechet_matrix(x, p).matrix, frechet)

    @pytest.mark.parametrize(("node_count", "depth"), [(201, 1.1), (801, 1.05)])
    @pytest.mark.parametrize("point", [true_interface, random_interface])
    def test_dense_fallback_equals_unblocked_formulas(self, node_count, depth, point):
        # at these depths the Chebyshev rows would exceed half the grid, so
        # linearize assembles the dense kernel (identity left factor)
        p = GravimetryParams(node_count=node_count, depth=depth)
        x = point(p).values
        res, jac = GravimetryModel.synthetic(p).linearize(x)
        assert jac.left is None
        anomaly, frechet = unblocked_kernels(x, p)
        data, _ = unblocked_kernels(true_interface(p).values, p)
        assert np.array_equal(res, anomaly - data)
        assert np.array_equal(jac.matrix, frechet)

    def test_forward_and_frechet_hold_one_square_array(self):
        # measured at n = 801: 1.03 and 1.13 arrays of n x n floats (the
        # Jacobian's n x n boolean finiteness mask is the 0.125); the
        # unblocked formulas peak at 3.00 and 3.13
        p = GravimetryParams(node_count=801)
        x = true_interface(p)
        square = 8 * p.node_count**2
        assert traced_peak(lambda: forward(x, p)) < 1.25 * square
        assert traced_peak(lambda: frechet_matrix(x, p)) < 1.25 * square

    def test_frechet_finiteness_scan_holds_no_square_mask(self):
        # the Jacobian scans its factor for non-finite entries 64 rows at a
        # time: measured 1.03 arrays of n x n floats at n = 801, against
        # 1.13 with one n x n boolean mask (0.125 of an array)
        p = GravimetryParams(node_count=801)
        x = true_interface(p)
        assert traced_peak(lambda: frechet_matrix(x, p)) < 1.06 * 8 * p.node_count**2

    def test_dense_fallback_holds_two_square_arrays(self):
        # the log ratio, dropped before the Frechet array is assembled:
        # measured 1.41 arrays of n x n floats at n = 201, 0.20 of it a
        # fixed 64 KB ufunc buffer; both alive at once peaked at 2.22 and
        # three arrays at 3.02
        p = GravimetryParams(node_count=201, depth=1.1)
        model = GravimetryModel.synthetic(p)
        x = initial_guess(p).values
        assert model.linearize(x).jacobian.left is None  # warm: the rank estimate and caches
        assert traced_peak(lambda: model.linearize(x)) < 2.25 * 8 * p.node_count**2
