from __future__ import annotations

import numpy as np
import pytest

from gnflow import (
    EvenNodeCountError,
    Grid,
    GridFunction,
    GridMismatchError,
    NonFiniteValueError,
    inner_product,
    integrate,
    l2_norm,
    sup_norm,
)

# frozen oracle: trapezoid quadrature of ((1-s^2)^2)^2 on [-1,1] with 100001
# nodes gives sqrt(integral) = 0.9014978717104177 (stable to 16 digits under
# 4x and 16x refinement; equals the analytic sqrt(256/315))
L2_NORM_BUMP_SQUARED = 0.9014978717104177


def grid_fn(grid, fn):
    return GridFunction(grid, fn(grid.nodes))


class TestGrid:
    def test_node_layout(self):
        g = Grid(1.0, 201)
        assert g.spacing == pytest.approx(0.01, rel=1e-15)
        assert g.nodes[0] == -1.0 and g.nodes[-1] == 1.0
        assert g.nodes[100] == 0.0
        assert np.all(np.diff(g.nodes) > 0)
        np.testing.assert_allclose(g.nodes, -g.nodes[::-1], atol=0.0)
        assert g.spacing * (g.node_count - 1) == pytest.approx(2.0, rel=1e-12)

    def test_rejects_even_node_count(self):
        with pytest.raises(EvenNodeCountError):
            Grid(1.0, 200)

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            Grid(1.0, 1)
        with pytest.raises(ValueError):
            Grid(0.0, 5)
        with pytest.raises(ValueError):
            Grid(-2.0, 5)

    @pytest.mark.parametrize("count", [5.5, 5.0, True])
    def test_rejects_non_integer_node_count(self, count):
        # a float or bool count would build and then fail in `nodes`
        with pytest.raises(ValueError) as excinfo:
            Grid(1.0, count)
        assert str(excinfo.value) == f"node_count must be an integer, got {count!r}"

    def test_accepts_numpy_integer_node_count(self):
        g = Grid(1.0, np.int64(5))
        np.testing.assert_array_equal(g.nodes, Grid(1.0, 5).nodes)


class TestGridFunction:
    def test_length_checked(self):
        g = Grid(1.0, 5)
        with pytest.raises(ValueError):
            GridFunction(g, np.zeros(4))

    def test_nan_rejected(self):
        g = Grid(1.0, 5)
        with pytest.raises(NonFiniteValueError):
            GridFunction(g, [0.0, 1.0, np.nan, 0.0, 1.0])
        with pytest.raises(NonFiniteValueError):
            GridFunction(g, [0.0, 1.0, np.inf, 0.0, 1.0])

    def test_values_frozen(self):
        f = GridFunction(Grid(1.0, 5), np.arange(5.0))
        with pytest.raises(ValueError):
            f.values[0] = 7.0


class TestSimpsonWeights:
    def test_three_point_pattern(self):
        w = Grid(1.0, 3).weights
        np.testing.assert_allclose(w, [1 / 3, 4 / 3, 1 / 3], rtol=1e-15)

    def test_pattern_structure(self):
        g = Grid(1.0, 201)
        w = g.weights
        scale = g.spacing / 3.0
        assert w[0] == pytest.approx(scale) and w[-1] == pytest.approx(scale)
        np.testing.assert_allclose(w[1:-1:2], 4.0 * scale, rtol=1e-15)
        np.testing.assert_allclose(w[2:-2:2], 2.0 * scale, rtol=1e-15)
        assert np.all(w > 0)

    @pytest.mark.parametrize("l,n", [(1.0, 3), (1.0, 201), (2.5, 41), (0.5, 9)])
    def test_weights_sum_to_interval_length(self, l, n):
        w = Grid(l, n).weights
        assert np.sum(w) == pytest.approx(2 * l, rel=1e-12)

    def test_integrates_square_exactly(self):
        g = Grid(1.0, 201)
        val = integrate(grid_fn(g, lambda s: s**2))
        assert val == pytest.approx(2.0 / 3.0, abs=1e-12)

    def test_odd_powers_vanish(self):
        for l, n in [(1.0, 201), (2.0, 21)]:
            g = Grid(l, n)
            val = integrate(grid_fn(g, lambda s: s**3))
            assert abs(val) <= 1e-12

    @pytest.mark.parametrize("l,n", [(1.0, 3), (1.0, 5), (1.0, 201), (2.0, 21)])
    def test_exact_on_cubics(self, l, n):
        rng = np.random.default_rng(42)
        g = Grid(l, n)
        for _ in range(20):
            c = rng.uniform(-10, 10, size=4)
            f = grid_fn(g, lambda s: c[0] + c[1] * s + c[2] * s**2 + c[3] * s**3)
            exact = 2 * c[0] * l + (2 / 3) * c[2] * l**3  # odd terms cancel
            assert integrate(f) == pytest.approx(exact, abs=1e-12)

    def test_fourth_order_convergence_on_exp(self):
        exact = np.exp(1) - np.exp(-1)

        def err(n):
            g = Grid(1.0, n)
            return abs(integrate(grid_fn(g, np.exp)) - exact)

        ratio = err(11) / err(21)  # halving h divides the error by ~2^4
        assert 16 * 0.8 <= ratio <= 16 * 1.2


class TestInnerProductAndNorms:
    def test_constant_one(self):
        g = Grid(1.0, 21)
        one = GridFunction.constant(g, 1.0)
        assert inner_product(one, one) == pytest.approx(2.0, rel=1e-14)
        assert l2_norm(one) == pytest.approx(np.sqrt(2.0), rel=1e-14)

    def test_zero_function(self):
        g = Grid(1.0, 21)
        zero = GridFunction.constant(g, 0.0)
        f = grid_fn(g, np.cos)
        assert inner_product(zero, f) == 0.0
        assert l2_norm(zero) == 0.0
        assert sup_norm(zero) == 0.0

    def test_odd_pairing_vanishes(self):
        g = Grid(1.0, 201)
        s = grid_fn(g, lambda t: t)
        one = GridFunction.constant(g, 1.0)
        assert abs(inner_product(s, one)) <= 1e-12

    def test_symmetry_and_bilinearity(self):
        rng = np.random.default_rng(3)
        g = Grid(1.5, 31)
        for _ in range(10):
            f = GridFunction(g, rng.standard_normal(g.node_count))
            h = GridFunction(g, rng.standard_normal(g.node_count))
            a = rng.uniform(-2, 2)
            assert inner_product(f, h) == pytest.approx(inner_product(h, f), rel=1e-13)
            fa = GridFunction(g, a * f.values)
            assert inner_product(fa, h) == pytest.approx(
                a * inner_product(f, h), rel=1e-12, abs=1e-15
            )

    def test_positive_definite(self):
        rng = np.random.default_rng(4)
        g = Grid(1.0, 21)
        for _ in range(20):
            vals = rng.standard_normal(g.node_count)
            if np.all(vals == 0):
                continue
            f = GridFunction(g, vals)
            assert inner_product(f, f) > 0

    def test_l2_norm_against_fine_trapezoid_oracle(self):
        g = Grid(1.0, 201)
        f = grid_fn(g, lambda s: (1 - s**2) ** 2)
        assert l2_norm(f) == pytest.approx(
            L2_NORM_BUMP_SQUARED, rel=1e-8
        )

    def test_l2_bounded_by_sup(self):
        rng = np.random.default_rng(5)
        for l, n in [(1.0, 21), (2.0, 41)]:
            g = Grid(l, n)
            for _ in range(10):
                f = GridFunction(g, rng.standard_normal(n))
                assert l2_norm(f) <= np.sqrt(2 * l) * sup_norm(f) * (1 + 1e-12)

    def test_grid_mismatch_rejected(self):
        f = GridFunction.constant(Grid(1.0, 21), 1.0)
        h = GridFunction.constant(Grid(1.0, 31), 1.0)
        with pytest.raises(GridMismatchError):
            inner_product(f, h)
