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
evaluates them at m points only and interpolates onto the grid: the
Jacobian is the factored J = P C = P K S, with P (n x m) fixed per grid
and the Frechet rows written as K = C S^-1, S = diag(sqrt(w)), at O(mn)
cost per linearization (Fong & Darve, J. Comput. Phys. 228, 2009;
Trefethen, Approximation Theory and Approximation Practice, ch. 8).  The
kernels are analytic in a strip of half-width min h about [-l, l], so the
m points are Chebyshev points spread evenly by the Kosloff-Tal-Ezer map
(J. Comput. Phys. 104, 1993; Hale & Trefethen, SIAM J. Numer. Anal. 46,
2008), and m comes from a closed-form bound on the Bernstein ellipse of
the mapped pole nearest the interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, count, dropwhile, takewhile
from typing import Iterator, NamedTuple, Optional

import numpy as np

from .errors import DomainError
from .flow import JacobianMatrix, LeftFactor, Linearization, OperatorModel
from .grids import Grid, GridFunction

# Largest error of the interpolated anomaly and Frechet entries, relative to
# the largest exact value, accepted at the check rows.
INTERP_TOL = 1e-13
_LOG_TOL = math.log(1.0 / INTERP_TOL)
# Grid rows, as fractions of the grid, where the interpolation is checked
# against the exact kernel.
_CHECK_FRACTIONS = np.linspace(0.0, 1.0, 11)[1:-1]
# Rows of the dense kernel that `forward` fills at a time: the squared
# distances and denominators of a block are its only temporaries.
_BLOCK_ROWS = 16


def _map_parameter(m: int) -> float:
    """a = sech(ln(1/INTERP_TOL) / (m - 1)) of the point map of rung m: the
    map's branch points u = +-1/a lie on the Bernstein ellipse whose
    parameter, raised to the power 1 - m, is INTERP_TOL."""
    return 1.0 / math.cosh(_LOG_TOL / (m - 1))


def _log_bernstein(m: int, height: float) -> float:
    """ln rho of the Bernstein ellipse, in the variable u of rung m's map,
    through the kernel pole s + i h at s = 0 and h = height * l:
    L = asinh(sinh(asin(a) h / l) / a).  It is the smallest over s in
    [-l, l] and grows with h, so it bounds the convergence of every column
    whose height is at least h.  The sinh argument is capped, far past any
    rung's need, so that it cannot overflow."""
    a = _map_parameter(m)
    return math.asinh(math.sinh(min(math.asin(a) * height, 700.0)) / a)


def _rungs(height: float, limit: int) -> Iterator[int]:
    """Chebyshev row counts m to try for the smallest kernel height
    `height` * l, smallest first and at most `limit`: the ladder of
    multiples of 4 up to 64, then 32 * 2^(k/4) rounded to a multiple of 8
    (80, 88, 104, 128, ..., 184, 216, 256, 304, 360, ...), from its first
    rung with m >= ceil(ln(1/INTERP_TOL) / L(m)) + 2, L = `_log_bernstein`.
    Interpolation at m mapped points converges like exp(-L (m - 1)), and
    the 2 spare rows measured enough for the check to pass on the first
    rung of every linearization of the benchmark runs."""
    ladder = chain(range(4, 65, 4), (8 * round(4 * 2 ** (k / 4)) for k in count(5)))
    rungs = takewhile(lambda m: m <= limit, ladder)
    return dropwhile(lambda m: (m - 2) * _log_bernstein(m, height) < _LOG_TOL, rungs)


def _squared_distances(
    points: np.ndarray, nodes: np.ndarray, out: Optional[np.ndarray] = None
) -> np.ndarray:
    """(points_i - nodes_j)^2, written into `out` (a new array if None) with
    no other temporary of its size."""
    d2 = np.subtract.outer(points, nodes, out=out)
    return np.square(d2, out=d2)


class ChebyshevRows(NamedTuple):
    """One rung: the m mapped Chebyshev points t_k followed by the check
    nodes, the left factor P (n x m) that interpolates from the m points
    onto the grid, the squared distances (t_k - s_j)^2 of all m + 9 points
    to the grid nodes, the x-independent anomaly numerator
    (rho / 4 pi) sum_j w_j ln((t_k - s_j)^2 + H^2) at each point, and the
    rows P[check] that interpolate onto the check nodes.  All read-only."""

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
    def _rows_by_rung(self) -> dict[int, ChebyshevRows]:
        return {}

    @cached_property
    def _row_weights(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """(rho / 4 pi) w, (rho / 2 pi) w and (rho / 2 pi) sqrt(w): the
        weights of the anomaly, of the exact Frechet entries at the check
        nodes and of the scaled Frechet rows K = C S^-1 at the Chebyshev
        points."""
        grid, frechet = self.grid, self.density / (2.0 * np.pi)
        weights = (
            (self.density / (4.0 * np.pi)) * grid.weights,
            frechet * grid.weights,
            frechet * grid.sqrt_weights,
        )
        for a in weights:
            a.flags.writeable = False
        return weights

    def chebyshev_rows(self, m: int) -> ChebyshevRows:
        """Factors of the interpolation from m mapped Chebyshev points on
        [-l, l], with the rows where it is checked, built on first use and
        kept for the grid's lifetime (one entry per rung used).  The points
        are t_k = l asin(a u_k) / asin(a), a = `_map_parameter(m)`, for the
        Chebyshev points of the second kind u_k, and P interpolates at u_k
        onto the grid nodes mapped back, sin(asin(a) s_j / l) / a."""
        cache = self._rows_by_rung
        if m not in cache:
            k = np.arange(m)
            # sine form: exactly antisymmetric points, from 1 down to -1
            chebyshev = np.sin(np.pi * (m - 1 - 2 * k) / (2 * (m - 1)))
            a = _map_parameter(m)
            arc = np.arcsin(a)
            nodes = self.grid.nodes
            check = np.unique(np.round(_CHECK_FRACTIONS * (self.node_count - 1)).astype(int))
            # asin(a) / asin(a) = 1: the end points are exactly -l and l
            mapped = self.half_width * (np.arcsin(a * chebyshev) / arc)
            points = np.concatenate([mapped, nodes[check]])
            mapped_nodes = np.sin((arc / self.half_width) * nodes) / a
            mapped_nodes[[0, -1]] = -1.0, 1.0
            left = LeftFactor.of(_interpolation_matrix(mapped_nodes, chebyshev), self.grid)
            d2 = _squared_distances(points, nodes)
            numerator = np.log(d2 + self.depth**2) @ self._row_weights[0]
            check_left = left.matrix[check]
            for array in (points, d2, numerator, check_left):
                array.flags.writeable = False
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


def _row_kernels(
    rows: ChebyshevRows, h: np.ndarray, p: GravimetryParams
) -> tuple[np.ndarray, np.ndarray]:
    """Anomaly numerator - log(d2 + h^2) @ (c w), c = rho / 4 pi, at the
    Chebyshev points and check nodes of a rung, and its Frechet rows, in one
    pass over its squared distances with the weights cached on `p`: the
    scaled entries K = C S^-1, (2 c sqrt(w_j) h_j) / (d2 + h^2), at the
    Chebyshev points, and the exact entries C, (2 c w_j h_j) / (d2 + h^2),
    at the check nodes, one divide per entry."""
    anomaly_weights, check_weights, row_weights = p._row_weights
    m = rows.check_left.shape[1]
    den = rows.squared_distances + h**2
    g = rows.numerator - np.log(den) @ anomaly_weights
    np.divide(h * row_weights, den[:m], out=den[:m])
    np.divide(h * check_weights, den[m:], out=den[m:])
    return g, den


def _interpolates(rows: ChebyshevRows, g: np.ndarray, k: np.ndarray, p: GravimetryParams) -> bool:
    """Whether the anomaly `g` and the Frechet entries at the m Chebyshev
    points of `rows`, interpolated onto the check nodes, are within
    INTERP_TOL of the exact values there, which `g` and `k` carry in their
    last rows.  `k` holds the scaled rows K = C S^-1 at the points, so the
    interpolated entries are (P[check] K) S, the P[check] C of the exact
    rows; those are positive (h >= epsilon > 0), so their largest value
    needs no abs."""
    m = rows.check_left.shape[1]
    err = rows.check_left @ g[:m]
    err -= g[m:]
    if not np.abs(err, out=err).max() <= INTERP_TOL * np.abs(g[m:]).max():
        return False
    err = rows.check_left @ k[:m]
    err *= p.grid.sqrt_weights
    err -= k[m:]
    return np.abs(err, out=err).max() <= INTERP_TOL * k[m:].max()


def _dense_anomaly(h: np.ndarray, p: GravimetryParams) -> np.ndarray:
    """The anomaly c (kernel @ w), c = rho / 4 pi, at heights h = H - x, on
    the dense log-ratio kernel ln((d2 + H^2) / (d2 + h^2)), the one n x n
    array: filled _BLOCK_ROWS rows at a time, each block's squared
    distances d2 turned into it in place with the block's denominators as
    the temporary, then multiplied by the weights in one matvec, which
    keeps the anomaly bit-identical to the unblocked formula (a matvec per
    block would sum in another order)."""
    h2 = h**2
    nodes = p.grid.nodes
    kernel = np.empty((p.node_count, p.node_count))
    for start in range(0, p.node_count, _BLOCK_ROWS):
        rows = slice(start, start + _BLOCK_ROWS)
        d2 = _squared_distances(nodes[rows], nodes, out=kernel[rows])
        den = d2 + h2
        d2 += p.depth**2
        d2 /= den
        np.log(d2, out=d2)
    return (p.density / (4.0 * np.pi)) * (kernel @ p.grid.weights)


def _dense_frechet(h: np.ndarray, p: GravimetryParams) -> JacobianMatrix:
    """The dense Jacobian (2 c h_j w_j) / (d2 + h_j^2), c = rho / 4 pi, at
    heights h = H - x, assembled in place in one n x n array (squared
    distances d2, plus h^2, divided into the weighted heights), which is
    made read-only and handed to the Jacobian as a view, uncopied."""
    den = _squared_distances(p.grid.nodes, p.grid.nodes)
    den += h**2
    np.divide((p.density / (2.0 * np.pi)) * h * p.grid.weights, den, out=den)
    den.flags.writeable = False  # so that JacobianMatrix keeps the view den[:] uncopied
    return JacobianMatrix(den[:], p.grid)


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
    """Benchmark interface sampled on the model grid.  Past a half-width of
    about 1e77 it overflows, which GridFunction rejects as non-finite."""
    with np.errstate(over="ignore"):
        values = (1.0 - p.grid.nodes**2) ** 2
    return GridFunction(p.grid, values)


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

    def linearize(self, x: np.ndarray) -> Linearization:
        """phi(x) and the factored phi'(x) = P C = P K S from the kernel at m
        mapped Chebyshev rows: the anomaly g_c and the scaled Frechet rows
        K = C S^-1 are evaluated there, and the residual is P g_c - y.  m is
        the first of `_rungs` for the smallest height whose interpolation
        passes the check nodes, which the same kernel pass evaluates
        exactly (in C, unscaled); the kernel array is made read-only
        and handed over as a view, which the Jacobian keeps without a copy.
        Once 2m > n the residual is the anomaly of `forward` less the data
        and the Jacobian that of `frechet_matrix`, dense with the identity
        left factor, from the same assembly at the heights checked once
        here, one n x n array alive at a time.  Raises DomainError for an x
        above the admissible ceiling."""
        p = self.params
        h = _heights(x, p)
        for m in _rungs(float(h.min()) / p.half_width, p.node_count // 2):
            rows = p.chebyshev_rows(m)
            g, k = _row_kernels(rows, h, p)
            k.flags.writeable = False  # so that JacobianMatrix keeps k[:m] uncopied
            if _interpolates(rows, g, k, p):
                res = rows.left.matrix @ g[:m]
                res -= self.data.values
                return Linearization(res, JacobianMatrix(k[:m], p.grid, rows.left))
        return Linearization(_dense_anomaly(h, p) - self.data.values, _dense_frechet(h, p))
