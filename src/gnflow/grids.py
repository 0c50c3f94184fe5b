"""Uniform grids on [-l, l] with composite Simpson quadrature.

Functions are represented by their nodal values; inner products and norms
are the weighted discrete analogs of the L2[-l, l] ones, with the Simpson
weights that each `Grid` owns, so that grid functions behave like elements
of a Hilbert space at every node count.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import EvenNodeCountError, GridMismatchError, NonFiniteValueError


@dataclass(frozen=True)
class Grid:
    """Uniform grid of `node_count` points spanning [-half_width, half_width].

    `node_count` must be an integer, odd and >= 3, so the grid splits into
    an even number of panels, as composite Simpson quadrature requires.  The
    grid owns those quadrature weights, which define every inner product,
    norm and adjoint on it.
    """

    half_width: float
    node_count: int

    def __post_init__(self):
        if not np.isfinite(self.half_width) or self.half_width <= 0:
            raise ValueError(f"half_width must be positive, got {self.half_width}")
        _check_integer(self.node_count, "node_count")
        if self.node_count < 3:
            raise ValueError(f"node_count must be >= 3, got {self.node_count}")
        if self.node_count % 2 == 0:
            raise EvenNodeCountError(
                f"node_count must be odd for Simpson quadrature, got {self.node_count}"
            )

    @property
    def spacing(self) -> float:
        return 2.0 * self.half_width / (self.node_count - 1)

    @cached_property
    def nodes(self) -> np.ndarray:
        pts = np.linspace(-self.half_width, self.half_width, self.node_count)
        # antisymmetrize so the midpoint is exactly zero and t_i = -t_{n-1-i}
        pts = 0.5 * (pts - pts[::-1])
        pts.flags.writeable = False
        return pts

    @cached_property
    def weights(self) -> np.ndarray:
        """Composite Simpson weights h/3 * (1, 4, 2, 4, ..., 2, 4, 1); exact
        on cubics."""
        w = np.full(self.node_count, 2.0)
        w[1::2] = 4.0
        w[0] = w[-1] = 1.0
        w *= self.spacing / 3.0
        w.flags.writeable = False
        return w

    @cached_property
    def sqrt_weights(self) -> np.ndarray:
        """sqrt(w), the diagonal of the symmetrizing scale S = diag(sqrt(w))."""
        s = np.sqrt(self.weights)
        s.flags.writeable = False
        return s


def _check_integer(value: object, name: str) -> None:
    """Raise ValueError unless `value` is an integer (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _finite(values: np.ndarray) -> np.ndarray:
    """values, after checking that every entry is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteValueError("grid function contains NaN or infinite values")
    return values


@dataclass(frozen=True)
class GridFunction:
    """Real-valued function sampled at the nodes of a grid.

    Values are copied, checked for finiteness, and frozen; instances are
    immutable and safe to share.
    """

    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=float)
        if vals.shape != (self.grid.node_count,):
            raise ValueError(
                f"values shape {vals.shape} does not match grid with "
                f"{self.grid.node_count} nodes"
            )
        _finite(vals)
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    @classmethod
    def constant(cls, grid: Grid, value: float) -> GridFunction:
        return cls(grid, np.full(grid.node_count, float(value)))


def integrate(f: GridFunction) -> float:
    """Quadrature approximation of the integral of f over [-l, l]."""
    return float(f.grid.weights @ f.values)


def inner_product(f: GridFunction, g: GridFunction) -> float:
    """Weighted discrete L2 inner product sum_i w_i f_i g_i."""
    if f.grid != g.grid:
        raise GridMismatchError(f"grid mismatch: {f.grid} vs {g.grid}")
    return float(f.grid.weights @ (f.values * g.values))


def l2_norm(f: GridFunction) -> float:
    """Weighted discrete L2 norm sqrt(<f, f>)."""
    return l2_norm_values(f.values, f.grid.weights)


def l2_norm_values(values: np.ndarray, weights: np.ndarray) -> float:
    """`l2_norm` of raw nodal values, for a caller whose values already
    live on the grid of the weights.  Non-finite exactly when an entry of
    `values` is, or when the weighted sum of squares overflows."""
    return math.sqrt(weights @ (values * values))


def sup_norm(f: GridFunction) -> float:
    """Maximum absolute nodal value."""
    return float(np.abs(f.values).max())
