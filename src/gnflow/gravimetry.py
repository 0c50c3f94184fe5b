"""Inverse gravimetry benchmark: recover the interface between two media
from the surface gravity anomaly.

The forward operator maps an interface profile x(s) on [-l, l] to the
vertical gravity anomaly it produces at depth H with constant density rho:

    g(t) = (rho / 4 pi) * integral  ln[((t-s)^2 + H^2) / ((t-s)^2 + (H-x(s))^2)] ds.

The kernel derivative in x is square integrable, so the linearized operator
is compact and the problem is ill-posed: its discretization has rapidly
decaying singular values and needs regularization to invert stably.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .errors import DomainError
from .flow import JacobianMatrix, Linearization, OperatorModel
from .grids import Grid, GridFunction, QuadratureWeights, simpson_weights


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
        Grid(self.half_width, self.node_count)  # fail fast on a bad grid spec

    @cached_property
    def grid(self) -> Grid:
        return Grid(self.half_width, self.node_count)

    @cached_property
    def quadrature(self) -> QuadratureWeights:
        return simpson_weights(self.grid)

    @cached_property
    def squared_distances(self) -> np.ndarray:
        """(t_i - s_j)^2 over the grid nodes, shared by every kernel
        evaluation (read-only)."""
        nodes = self.grid.nodes
        d2 = (nodes[:, None] - nodes[None, :]) ** 2
        d2.flags.writeable = False
        return d2

    def admissibility_violation(self, values: np.ndarray) -> Optional[str]:
        ceiling = self.depth - self.epsilon
        worst = float(np.max(values))
        if worst > ceiling:
            return (
                f"interface value {worst:.6g} exceeds admissible ceiling "
                f"depth - epsilon = {ceiling:.6g}"
            )
        return None


def kernel(t: float, s: float, xs: float, p: GravimetryParams) -> float:
    """Log-ratio kernel ln[((t-s)^2 + H^2) / ((t-s)^2 + (H - xs)^2)].

    Zero when xs = 0, symmetric in (t, s), and increasing in xs on [0, H).
    """
    reason = p.admissibility_violation(np.asarray([xs]))
    if reason is not None:
        raise DomainError(reason)
    d2 = (t - s) ** 2
    return float(np.log((d2 + p.depth**2) / (d2 + (p.depth - xs) ** 2)))


def _denominator(x: GridFunction, p: GravimetryParams) -> np.ndarray:
    """(t_i - s_j)^2 + (H - x_j)^2, the n x n denominator shared by the
    kernel and its derivative, after checking that x is admissible.  The
    result is a fresh array the caller may overwrite."""
    if x.grid != p.grid:
        raise DomainError("interface profile is not sampled on the model grid")
    reason = p.admissibility_violation(x.values)
    if reason is not None:
        raise DomainError(reason)
    return p.squared_distances + (p.depth - x.values[None, :]) ** 2


def _anomaly(den: np.ndarray, p: GravimetryParams) -> np.ndarray:
    """Nodal anomaly values from the kernel denominator (left unchanged)."""
    # In place where possible: each n x n temporary is a fresh allocation,
    # and at a few hundred KB each they cost page faults on every call.
    k = p.squared_distances + p.depth**2
    k /= den
    np.log(k, out=k)
    return (p.density / (4.0 * np.pi)) * (k @ p.quadrature.weights)


def _frechet_entries(
    den: np.ndarray, x: GridFunction, p: GravimetryParams
) -> np.ndarray:
    """Frechet matrix entries, written over the kernel denominator `den`."""
    np.divide(2.0 * (p.depth - x.values[None, :]), den, out=den)
    den *= p.density / (4.0 * np.pi)
    den *= p.quadrature.weights[None, :]
    return den


def forward(x: GridFunction, p: GravimetryParams) -> GridFunction:
    """Gravity anomaly produced by the interface x, by Simpson quadrature."""
    return GridFunction(p.grid, _anomaly(_denominator(x, p), p))


def frechet_matrix(x: GridFunction, p: GravimetryParams) -> JacobianMatrix:
    """Derivative of `forward` at x:

        J[i, j] = (rho / 4 pi) * w_j * 2 (H - x_j) / ((t_i - s_j)^2 + (H - x_j)^2).

    Entries are finite and positive whenever x < H.
    """
    return JacobianMatrix(_frechet_entries(_denominator(x, p), x, p), p.quadrature)


def synthesize_data(p: GravimetryParams) -> GridFunction:
    """Noise-free anomaly for the benchmark interface, generated with the
    same grid and quadrature used for inversion (a deliberate inverse crime:
    the residual at the true interface is then zero by construction)."""
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

    def residual(self, x: GridFunction) -> GridFunction:
        g = forward(x, self.params)
        return GridFunction(self.grid, g.values - self.data.values)

    def jacobian(self, x: GridFunction) -> JacobianMatrix:
        return frechet_matrix(x, self.params)

    def linearize(self, x: GridFunction) -> Linearization:
        """`residual` and `jacobian` from one pass over the kernel: the
        denominator is formed once, read by the anomaly and then overwritten
        by the Frechet entries.  Same operations in the same order, so the
        result is bit-identical to the two separate calls."""
        p = self.params
        den = _denominator(x, p)
        res = GridFunction(self.grid, _anomaly(den, p) - self.data.values)
        jac = JacobianMatrix(_frechet_entries(den, x, p), p.quadrature)
        return Linearization(res, jac)

    def domain_violation(self, x: GridFunction) -> Optional[str]:
        if x.grid != self.grid:
            return "interface profile is not sampled on the model grid"
        return self.params.admissibility_violation(x.values)
