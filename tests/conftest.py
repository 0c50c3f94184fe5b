from __future__ import annotations

import numpy as np
import pytest

from gnflow import (
    Grid,
    GridFunction,
    GravimetryModel,
    GravimetryParams,
    JacobianMatrix,
    Linearization,
    OperatorModel,
    forward,
    frechet_matrix,
    simpson_weights,
)


class LinearMatrixModel(OperatorModel):
    """phi(x) = A x - b for a dense matrix A on a shared grid (test helper)."""

    def __init__(self, grid: Grid, matrix: np.ndarray, rhs: np.ndarray):
        self._grid = grid
        self._quad = simpson_weights(grid)
        self.matrix = np.asarray(matrix, dtype=float)
        self.rhs = np.asarray(rhs, dtype=float)

    @property
    def grid(self):
        return self._grid

    @property
    def quadrature(self):
        return self._quad

    def linearize(self, x: np.ndarray) -> Linearization:
        return Linearization(self.matrix @ x - self.rhs, JacobianMatrix(self.matrix, self._quad))


def identity_model(grid: Grid) -> LinearMatrixModel:
    """phi(x) = x, so the flow with x0 = 0 is exactly dx/dt = -x."""
    n = grid.node_count
    return LinearMatrixModel(grid, np.eye(n), np.zeros(n))


def symmetrized(jac: JacobianMatrix) -> np.ndarray:
    """Dense oracle of B = S J S^{-1}, S = diag(sqrt(w)), for a dense J; B
    shares singular values with the weighted operator."""
    s = np.sqrt(jac.quadrature.weights)
    return (jac.matrix * s[:, None]) / s[None, :]


def dense_oracle(jac: JacobianMatrix):
    """The normal solve of a dense J by filter factors, as a function
    (alpha, residual, offset) -> d with (J* J + alpha I) d =
    -(J* residual + alpha offset).  From the full SVD B = U diag(sigma) V^T,
    e = S offset:

        S d = -e + V diag(sigma / (sigma^2 + alpha)) U^T (B e - S residual).
    """
    s = np.sqrt(jac.quadrature.weights)
    b = symmetrized(jac)
    u, sigma, vt = np.linalg.svd(b)

    def solve(alpha: float, residual: np.ndarray, offset: np.ndarray) -> np.ndarray:
        e = s * offset
        y = vt.T @ (sigma / (sigma**2 + alpha) * (u.T @ (b @ e - s * residual)))
        return (y - e) / s

    return solve


class DenseGravimetryModel(OperatorModel):
    """The gravimetry problem of `model` with the dense n x n operator:
    phi(x) = forward(x) - y and phi'(x) = frechet_matrix(x), the reference
    for runs of the factored `GravimetryModel.linearize` (test helper)."""

    def __init__(self, model: GravimetryModel):
        self.params = model.params
        self.data = model.data

    @property
    def grid(self):
        return self.params.grid

    @property
    def quadrature(self):
        return self.params.quadrature

    def linearize(self, x: np.ndarray) -> Linearization:
        p = self.params
        point = GridFunction(p.grid, x)
        return Linearization(forward(point, p).values - self.data.values, frechet_matrix(point, p))


@pytest.fixture(scope="session")
def benchmark_params() -> GravimetryParams:
    return GravimetryParams()


@pytest.fixture(scope="session")
def benchmark_model(benchmark_params) -> GravimetryModel:
    return GravimetryModel.synthetic(benchmark_params)
