"""Synthetic operator models with analytically known solutions.

The diagonal linear model is the smallest instance on which every
certificate hypothesis can be constructed rather than assumed: the operator
is phi(x) = A (x - x_hat) with A diagonal and positive, so phi'* phi' = A^2
and choosing a source element v explicitly fixes x0 = x_hat - A^2 v.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .certificate import Certificate, CertificateInputs, build_certificate
from .flow import JacobianMatrix, Linearization, OperatorModel
from .grids import Grid, GridFunction, l2_norm
from .schedules import InversePower, Schedule


@dataclass(frozen=True)
class DiagonalLinearModel(OperatorModel):
    """phi(x) = diag(spectrum) * (x - solution) on a shared grid.

    The diagonal commutes with the quadrature weights, so the weighted
    adjoint of the Jacobian is the Jacobian itself and phi'* phi' is
    diag(spectrum**2).
    """

    solution: GridFunction
    spectrum: np.ndarray

    def __post_init__(self):
        spec = np.asarray(self.spectrum, dtype=float)
        if spec.shape != (self.solution.grid.node_count,):
            raise ValueError("spectrum length must match the grid")
        if np.any(spec <= 0) or not np.all(np.isfinite(spec)):
            raise ValueError("spectrum must be positive and finite")
        spec = spec.copy()
        spec.flags.writeable = False
        object.__setattr__(self, "spectrum", spec)

    @property
    def grid(self) -> Grid:
        return self.solution.grid

    @cached_property
    def _jacobian(self) -> JacobianMatrix:
        return JacobianMatrix(np.diag(self.spectrum), self.grid)

    def linearize(self, x: np.ndarray) -> Linearization:
        """phi(x) with the constant derivative of the linear map: one
        Jacobian object per model, so the factorization behind its normal
        solves is computed once."""
        return Linearization(self.spectrum * (x - self.solution.values), self._jacobian)


@dataclass(frozen=True)
class CertifiedInstance:
    """A model bundled with everything the certificate and the comparison
    against the majorant need: exact solution, constructed source element,
    compatible initial guess, schedule, and the certificate itself."""

    model: DiagonalLinearModel
    solution: GridFunction
    x0: GridFunction
    v: GridFunction
    schedule: Schedule
    certificate: Certificate
    w0: float


def certified_diagonal_instance(
    node_count: int = 21,
    schedule: Optional[Schedule] = None,
) -> CertifiedInstance:
    """Build a diagonal linear instance on [-1, 1] whose certificate passes.

    The spectrum decays geometrically, 0.5^k from 1 (mimicking an ill-posed
    operator while keeping ||phi'|| = 1), the source element is a smooth
    bump scaled to norm 0.1, and x0 = x_hat - phi'* phi' v, so the source
    representation is constructed, not assumed.  The default schedule
    alpha(t) = 10/(100 + t) keeps alpha(0) moderate and the log-derivative
    small, which the certificate conditions favor.
    """
    grid = Grid(1.0, node_count)
    nodes = grid.nodes

    solution = GridFunction(grid, 1.0 + 0.5 * np.cos(np.pi * nodes / 2.0))
    spectrum = 0.5 ** np.arange(node_count, dtype=float)  # largest value 1 => n1 = 1

    bump = GridFunction(grid, (1.0 - nodes**2) ** 2)
    v = GridFunction(grid, bump.values * (0.1 / l2_norm(bump)))
    x0 = GridFunction(grid, solution.values - spectrum**2 * v.values)

    if schedule is None:
        schedule = InversePower(alpha0=10.0, a=100.0, m=1.0)
    alpha0 = schedule.alpha(0.0)
    w0 = l2_norm(GridFunction(grid, x0.values - solution.values)) / alpha0

    n1 = float(np.max(spectrum))
    n2 = 1.0  # any positive bound works: the second derivative vanishes
    inputs = CertificateInputs(
        n1=n1,
        n2=n2,
        v_norm=l2_norm(v),
        alpha0=alpha0,
        logderiv0=schedule.log_derivative(0.0),
        radius=10.0,
        w0=w0,
        source="constructed",
    )
    cert = build_certificate(inputs)
    return CertifiedInstance(
        model=DiagonalLinearModel(solution, spectrum),
        solution=solution,
        x0=x0,
        v=v,
        schedule=schedule,
        certificate=cert,
        w0=w0,
    )
