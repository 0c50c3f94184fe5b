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

    def linearize(self, x: GridFunction) -> Linearization:
        res = GridFunction(self._grid, self.matrix @ x.values - self.rhs)
        return Linearization(res, JacobianMatrix(self.matrix, self._quad))


def identity_model(grid: Grid) -> LinearMatrixModel:
    """phi(x) = x, so the flow with x0 = 0 is exactly dx/dt = -x."""
    n = grid.node_count
    return LinearMatrixModel(grid, np.eye(n), np.zeros(n))


@pytest.fixture(scope="session")
def benchmark_params() -> GravimetryParams:
    return GravimetryParams()


@pytest.fixture(scope="session")
def benchmark_model(benchmark_params) -> GravimetryModel:
    return GravimetryModel.synthetic(benchmark_params)
