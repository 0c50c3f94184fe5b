"""Inverse gravimetry benchmark: recover the interface between two media
from the surface gravity anomaly.

The forward operator maps an interface profile x(s) on [-l, l] to the
vertical gravity anomaly it produces at depth H with constant density rho:

    g(t) = (rho / 4 pi) * integral  ln[((t-s)^2 + H^2) / ((t-s)^2 + (H-x(s))^2)] ds.

The kernel derivative in x is square integrable, so the linearized operator
is compact and the problem is ill-posed: its discretization has rapidly
decaying singular values and needs regularization to invert stably.

Both kernels are analytic in the data coordinate t, with their nearest
singularities at s +- i (H - x(s)).  `GravimetryModel.linearize` therefore
evaluates them at m Chebyshev points only and interpolates onto the grid:
the Jacobian is the factored J = P C, with P (n x m) fixed per grid, at
O(mn) cost per linearization (Fong & Darve, J. Comput. Phys. 228, 2009;
Trefethen, Approximation Theory and Approximation Practice, ch. 8).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .flow import JacobianMatrix, LeftFactor, Linearization, OperatorModel
from .grids import Grid, GridFunction, QuadratureWeights, simpson_weights

# Largest error of the interpolated anomaly and Frechet entries, relative to
# the largest exact value, accepted at the check rows.
INTERP_TOL = 1e-13
# Grid rows, as fractions of the grid, where the interpolation is checked
# against the exact kernel.
_CHECK_FRACTIONS = np.linspace(0.0, 1.0, 11)[1:-1]
# Rows of the dense kernel that `forward` fills at a time: the squared
# distances and denominators of a block are its only temporaries.
_BLOCK_ROWS = 16


def _rungs(estimate: float, limit: int) -> Iterator[int]:
    """Chebyshev row counts m to try for an a-priori `estimate`, smallest
    first and at most `limit`.  Below an estimate of 62 they start at the
    smallest multiple of 4 at or above ceil(estimate) + 2 and step by 4 up
    to 64; the smallest count that passes the check measured
    ceil(estimate) + 0..2 on every linearization of the benchmark runs, so
    the first one tried passes.  Past 64 they come from the fixed ladder
    32 * 2^(k/4) rounded to a multiple of 8, from its first rung at or above
    the estimate: 64, 80, 88, 104, 128, ..., 184, 216, 256, 304, 360, ...,
    so shallow interfaces share few cached rungs."""
    low = estimate
    if estimate < 62:
        yield from range(4 * math.ceil((math.ceil(estimate) + 2) / 4), min(64, limit) + 1, 4)
        low = 65
    k = 0
    while (m := 8 * round(4 * 2 ** (k / 4))) <= limit:
        if m >= low:
            yield m
        k += 1


def _squared_distances(
    points: np.ndarray, nodes: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """(points_i - nodes_j)^2, written into `out` (a new array if None) with
    no other temporary of its size."""
    d2 = np.subtract.outer(points, nodes, out=out)
    return np.square(d2, out=d2)


class ChebyshevRows(NamedTuple):
    """One rung: the m Chebyshev points c_k followed by the check nodes, the
    left factor P (n x m) that interpolates from the m points onto the grid,
    the squared distances (c_k - s_j)^2 of all m + 9 points to the grid
    nodes, the x-independent anomaly numerator
    sum_j w_j ln((c_k - s_j)^2 + H^2) at each point, and the rows P[check]
    that interpolate onto the check nodes.  All read-only."""

    points: np.ndarray
    left: LeftFactor
    squared_distances: np.ndarray
    numerator: np.ndarray
    check_left: np.ndarray


def _interpolation_matrix(nodes: np.ndarray, points: np.ndarray) -> np.ndarray:
    """Barycentric interpolation from Chebyshev points of the second kind
    `points` onto `nodes` (Berrut & Trefethen, SIAM Rev. 46, 2004)."""
    lam = (-1.0) ** np.arange(len(points))
    lam[[0, -1]] *= 0.5
    diff = nodes[:, None] - points[None, :]
    hit = diff == 0
    diff[hit] = 1.0
    p = lam / diff
    p /= p.sum(axis=1, keepdims=True)
    rows = hit.any(axis=1)
    p[rows] = hit[rows]
    return p


@dataclass(frozen=True)
class GravimetryParams:
    """Geometry and discretization of the benchmark problem.

    `epsilon` is the safety margin keeping the interface away from the
    surface: x(s) <= depth - epsilon is required for admissibility.
    """

    half_width: float = 1.0
    depth: float = 2.0
    density: float = 1.0
    epsilon: float = 1e-3
    node_count: int = 201

    def __post_init__(self):
        for name in ("half_width", "depth", "density", "epsilon"):
            if not 0 < getattr(self, name) < np.inf:
                raise ValueError(f"{name} must be positive and finite")
        if self.epsilon >= self.depth:
            raise ValueError("epsilon must be smaller than the depth")
        # the kernels square distances up to 2l and heights up to H
        width = 2.0 * self.half_width
        if not math.isfinite(width * width + self.depth * self.depth):
            raise ValueError("half_width and depth are too large: squared distances overflow")
        Grid(self.half_width, self.node_count)  # fail fast on a bad grid spec

    @cached_property
    def grid(self) -> Grid:
        return Grid(self.half_width, self.node_count)

    @cached_property
    def quadrature(self) -> QuadratureWeights:
        return simpson_weights(self.grid)

    @cached_property
    def _rows_by_rung(self) -> dict[int, ChebyshevRows]:
        return {}

    def chebyshev_rows(self, m: int) -> ChebyshevRows:
        """Factors of the interpolation from m Chebyshev points of the second
        kind on [-l, l], with the rows where it is checked, built on first
        use and kept for the grid's lifetime (one entry per rung used)."""
        cache = self._rows_by_rung
        if m not in cache:
            k = np.arange(m)
            # sine form: exactly antisymmetric points, from l down to -l
            chebyshev = self.half_width * np.sin(np.pi * (m - 1 - 2 * k) / (2 * (m - 1)))
            nodes = self.grid.nodes
            check = np.unique(np.round(_CHECK_FRACTIONS * (self.node_count - 1)).astype(int))
            points = np.concatenate([chebyshev, nodes[check]])
            left = LeftFactor.of(_interpolation_matrix(nodes, chebyshev), self.quadrature)
            d2 = _squared_distances(points, nodes)
            numerator = np.log(d2 + self.depth**2) @ self.quadrature.weights
            check_left = left.matrix[check]
            for a in (points, d2, numerator, check_left):
                a.flags.writeable = False
            cache[m] = ChebyshevRows(points, left, d2, numerator, check_left)
        return cache[m]

    def admissibility_violation(self, values: np.ndarray) -> Optional[str]:
        ceiling = self.depth - self.epsilon
        worst = float(values.max())
        if worst > ceiling:
            return (
                f"interface value {worst:.6g} exceeds admissible ceiling "
                f"depth - epsilon = {ceiling:.6g}"
            )
        return None


def _heights(x: np.ndarray, p: GravimetryParams) -> np.ndarray:
    """h_j = H - x_j, after checking that the nodal values x are admissible."""
    reason = p.admissibility_violation(x)
    if reason is not None:
        raise DomainError(reason)
    return p.depth - x


def _log_ratio(d2: np.ndarray, den: np.ndarray, p: GravimetryParams) -> np.ndarray:
    """The kernel ln((d2 + H^2) / den), written over the squared distances
    `d2`, for the kernel denominator den = d2 + h^2 (left unchanged)."""
    d2 += p.depth**2
    d2 /= den
    return np.log(d2, out=d2)


def _anomaly(kernel: np.ndarray, p: GravimetryParams) -> np.ndarray:
    """Anomaly c (kernel @ w), c = rho / 4 pi, at the rows of the log-ratio
    `kernel`."""
    return (p.density / (4.0 * np.pi)) * (kernel @ p.quadrature.weights)


def _frechet_entries(den: np.ndarray, h: np.ndarray, p: GravimetryParams) -> np.ndarray:
    """Frechet matrix entries (2 c h_j w_j) / den, c = rho / 4 pi, written
    over the kernel denominator `den` in one divide."""
    return np.divide((p.density / (2.0 * np.pi)) * h * p.quadrature.weights, den, out=den)


def _row_kernels(
    rows: ChebyshevRows, h: np.ndarray, p: GravimetryParams
) -> tuple[np.ndarray, np.ndarray]:
    """Anomaly c (numerator - log(d2 + h^2) @ w) and Frechet entries at the
    Chebyshev points and check nodes of a rung, in one pass over its
    squared distances."""
    den = rows.squared_distances + h**2
    g = (p.density / (4.0 * np.pi)) * (rows.numerator - np.log(den) @ p.quadrature.weights)
    return g, _frechet_entries(den, h, p)


def _rank_estimate(h: np.ndarray, p: GravimetryParams) -> float:
    """A-priori Chebyshev row count for INTERP_TOL, log(1/INTERP_TOL) /
    log(rho_min): rho_j = a_j + sqrt(a_j^2 - 1), a_j = (|z_j - 1| + |z_j + 1|) / 2,
    is the parameter of the Bernstein ellipse through the nearest pole
    z_j = (s_j + i h_j) / l of column j, and interpolation at m points
    converges like rho_min^-m."""
    s, y = p.grid.nodes / p.half_width, h / p.half_width
    a = max(float((np.hypot(s - 1.0, y) + np.hypot(s + 1.0, y)).min()) / 2.0, 1.0)
    rho = a + math.sqrt((a - 1.0) * (a + 1.0))
    return math.log(1.0 / INTERP_TOL) / math.log(rho) if rho > 1.0 else math.inf


def _interpolates(rows: ChebyshevRows, g: np.ndarray, c: np.ndarray) -> bool:
    """Whether the anomaly `g` and Frechet entries `c` at the m Chebyshev
    points of `rows`, interpolated onto the check nodes, are within
    INTERP_TOL of the exact values there, which `g` and `c` carry in their
    last rows."""
    m = rows.check_left.shape[1]
    return all(
        np.abs(rows.check_left @ a[:m] - a[m:]).max() <= INTERP_TOL * np.abs(a[m:]).max()
        for a in (g, c)
    )


def _dense_anomaly(h: np.ndarray, p: GravimetryParams) -> np.ndarray:
    """The anomaly at heights h = H - x by Simpson quadrature on the dense
    n x n log-ratio kernel (assembled here and dropped on return).

    The kernel is the one n x n array: it is filled _BLOCK_ROWS rows at a
    time, with the squared distances and denominators of a block as
    temporaries, and then multiplied by the weights in one matvec, which
    keeps the anomaly bit-identical to the unblocked formula (a matvec per
    block would sum in another order)."""
    h2 = h**2
    nodes = p.grid.nodes
    kernel = np.empty((p.node_count, p.node_count))
    for start in range(0, p.node_count, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        d2 = _squared_distances(nodes[rows], nodes, out=kernel[rows])
        _log_ratio(d2, d2 + h2, p)
    return _anomaly(kernel, p)


def _dense_frechet(h: np.ndarray, p: GravimetryParams) -> JacobianMatrix:
    """The dense Jacobian at heights h = H - x, assembled in place in one
    n x n array (squared distances, plus h^2, divided into the weighted
    heights), which is made read-only and handed to the Jacobian as a
    view, uncopied."""
    den = _squared_distances(p.grid.nodes, p.grid.nodes)
    den += h**2
    j = _frechet_entries(den, h, p)
    j.flags.writeable = False  # so that JacobianMatrix keeps the view j[:] uncopied
    return JacobianMatrix(j[:], p.quadrature)


def forward(x: GridFunction, p: GravimetryParams) -> GridFunction:
    """Gravity anomaly produced by the interface x, by Simpson quadrature on
    the dense n x n log-ratio kernel, one n x n array."""
    if x.grid != p.grid:
        raise DomainError("interface profile is not sampled on the model grid")
    return GridFunction(p.grid, _dense_anomaly(_heights(x.values, p), p))


def frechet_matrix(x: GridFunction, p: GravimetryParams) -> JacobianMatrix:
    """Derivative of `forward` at x:

        J[i, j] = (rho / 4 pi) * w_j * 2 (H - x_j) / ((t_i - s_j)^2 + (H - x_j)^2).

    Entries are finite and positive whenever x < H.  Dense (n x n): the
    exact matrix that `GravimetryModel.linearize` factors, assembled in one
    n x n array that the Jacobian keeps uncopied.
    """
    if x.grid != p.grid:
        raise DomainError("interface profile is not sampled on the model grid")
    return _dense_frechet(_heights(x.values, p), p)


def synthesize_data(p: GravimetryParams) -> GridFunction:
    """Noise-free anomaly for the benchmark interface, generated with the
    same grid and quadrature used for inversion (a deliberate inverse crime).
    It comes from the dense `forward`, so the model's interpolated residual
    at the true interface is zero up to INTERP_TOL, not exactly; its peak
    memory is the one n x n kernel array of `forward`."""
    x_true = true_interface(p)
    return forward(x_true, p)


def true_interface(p: GravimetryParams) -> GridFunction:
    """Benchmark interface sampled on the model grid."""
    return GridFunction(p.grid, (1.0 - p.grid.nodes**2) ** 2)


def initial_guess(p: GravimetryParams) -> GridFunction:
    """Constant interface of height 1, the benchmark starting point."""
    return GridFunction.constant(p.grid, 1.0)


@dataclass(frozen=True)
class GravimetryModel(OperatorModel):
    """Operator model phi(x) = forward(x) - y for observed anomaly y."""

    params: GravimetryParams
    data: GridFunction

    def __post_init__(self):
        if self.data.grid != self.params.grid:
            raise ValueError("data must be sampled on the model grid")

    @classmethod
    def synthetic(cls, params: GravimetryParams | None = None) -> GravimetryModel:
        """Benchmark model with data synthesized from the true interface."""
        p = params if params is not None else GravimetryParams()
        return cls(p, synthesize_data(p))

    @property
    def grid(self) -> Grid:
        return self.params.grid

    @property
    def quadrature(self) -> QuadratureWeights:
        return self.params.quadrature

    def linearize(self, x: np.ndarray) -> Linearization:
        """phi(x) and the factored phi'(x) = P C from the kernel at m
        Chebyshev rows: the anomaly g_c and C are evaluated there, and the
        residual is P g_c - y.  m is the first of `_rungs` for the a-priori
        estimate whose interpolation passes the check nodes, which the same
        kernel pass evaluates exactly; the kernel array is made read-only
        and handed over as a view, which the Jacobian keeps without a copy.
        Once 2m > n the residual is the anomaly of `forward` less the data
        and the Jacobian that of `frechet_matrix`, dense with the identity
        left factor, from the same assembly at the heights checked once
        here, one n x n array alive at a time.  Raises DomainError for an x
        above the admissible ceiling."""
        p = self.params
        h = _heights(x, p)
        for m in _rungs(_rank_estimate(h, p), p.node_count // 2):
            rows = p.chebyshev_rows(m)
            g, c = _row_kernels(rows, h, p)
            c.flags.writeable = False  # so that JacobianMatrix keeps c[:m] uncopied
            if _interpolates(rows, g, c):
                res = rows.left.matrix @ g[:m]
                res -= self.data.values
                return Linearization(res, JacobianMatrix(c[:m], p.quadrature, rows.left))
        return Linearization(_dense_anomaly(h, p) - self.data.values, _dense_frechet(h, p))
