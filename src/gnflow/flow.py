"""Regularized Gauss-Newton flow: velocity field, steppers, and run loop.

The flow solves phi(x) = 0 for a nonlinear operator phi between weighted
discrete L2 spaces by integrating

    dx/dt = -(J* J + alpha(t) I)^{-1} (J* phi(x) + alpha(t) (x - x0)),

where J = phi'(x) and J* is the adjoint with respect to the quadrature
weights.  With step size tau = 1 the Euler stepper reproduces the damped
(iteratively regularized) Gauss-Newton iteration; as alpha(t) decays the
trajectory approaches a solution of phi(x) = 0.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, NamedTuple, Optional, Union

import numpy as np

from .errors import DomainError, GridMismatchError, NonFiniteValueError, NumericalError
from .grids import Grid, GridFunction, QuadratureWeights, l2_norm, sup_norm
from .schedules import Schedule, validate_rate_function

@dataclass(frozen=True)
class LeftFactor:
    """Left factor L (n x m, m < n) of a factored Jacobian J = L C, with the
    triangular R of the thin QR S L = Q R, S = diag(sqrt(w)), that the normal
    solve reads.  Fixed per grid, so it is built once and shared."""

    matrix: np.ndarray
    r: np.ndarray

    @classmethod
    def of(cls, matrix: np.ndarray, quadrature: QuadratureWeights) -> LeftFactor:
        matrix = np.array(matrix, dtype=float)
        matrix.flags.writeable = False
        r = np.linalg.qr(np.sqrt(quadrature.weights)[:, None] * matrix, mode="r")
        r.flags.writeable = False
        return cls(matrix, r)


class _Decomposition(NamedTuple):
    """sqrt(w), and the singular values sigma and right singular vectors V
    (n x r) of the middle factor of a Jacobian."""

    sqrt_weights: np.ndarray
    sigma: np.ndarray
    v: np.ndarray


@dataclass(frozen=True)
class JacobianMatrix:
    """Jacobian J = L C with the quadrature weights defining its adjoint.

    Columns are indexed by the unknown-space grid, rows of J by the
    data-space grid (one shared grid, so J is square).  `matrix` is C, m x n;
    `left` is L, n x m, or None for L = I, when `matrix` is J itself.  The
    adjoint is the weighted one, J* = W^{-1} J^T W, which makes J* J
    selfadjoint and nonnegative in the weighted inner product.
    """

    matrix: np.ndarray
    quadrature: QuadratureWeights
    left: Optional[LeftFactor] = None

    def __post_init__(self):
        m = np.array(self.matrix, dtype=float)
        n = self.quadrature.grid.node_count
        rows = n if self.left is None else self.left.matrix.shape[1]
        if m.shape != (rows, n) or (self.left is not None and self.left.matrix.shape[0] != n):
            raise ValueError(f"Jacobian factor shape {m.shape} does not match grid size {n}")
        if not np.isfinite(m).all():
            raise NonFiniteValueError("Jacobian contains non-finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, v: np.ndarray) -> np.ndarray:
        u = self.matrix @ v
        return u if self.left is None else self.left.matrix @ u

    def adjoint_apply(self, v: np.ndarray) -> np.ndarray:
        w = self.quadrature.weights
        u = w * v if self.left is None else self.left.matrix.T @ (w * v)
        return (self.matrix.T @ u) / w

    @cached_property
    def decomposition(self) -> _Decomposition:
        """Thin SVD of the middle factor M = R C S^{-1} (or S C S^{-1} when
        L = I), S = diag(sqrt(w)), computed on first use and shared by every
        `normal_solve` on this Jacobian, whatever its alpha.

        B = S J S^{-1} = Q M with Q orthonormal columns, so B and M share
        singular values and right singular vectors; the SVD of the m x n
        factor M costs O(m^2 n).
        """
        s = np.sqrt(self.quadrature.weights)
        if self.left is None:
            middle = self.matrix * s[:, None]
        else:
            middle = self.left.r @ self.matrix
        middle /= s[None, :]
        try:
            if middle.shape[0] < middle.shape[1]:
                # M^T = Q2 R2 and R2^T = U diag(sigma) W^T give V = Q2 W, at
                # about half the cost of numpy's SVD of the wide M
                q, r = np.linalg.qr(middle.T)
                _, sigma, wt = np.linalg.svd(r.T)
                v = q @ wt.T
            else:
                _, sigma, vt = np.linalg.svd(middle)
                v = vt.T
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"SVD of the Jacobian failed: {exc}") from exc
        return _Decomposition(s, sigma, v)

    def normal_solve(self, alpha: float, rhs: np.ndarray) -> np.ndarray:
        """Solve (J* J + alpha I) d = rhs in O(mn) from the cached `decomposition`
        M = U diag(sigma) V^T: with z = S rhs,

            d = S^{-1} [V (sigma^2 + alpha)^{-1} V^T z + (z - V V^T z) / alpha],

        exact, since B = S J S^{-1} vanishes off the span of V.
        """
        if alpha <= 0:
            raise NumericalError(f"normal equations need alpha > 0, got {alpha}")
        s, sigma, v = self.decomposition
        z = s * rhs
        coeffs = v.T @ z
        y = v @ (coeffs / (sigma**2 + alpha))
        if len(sigma) < len(z):  # for a square M this is rounding noise over alpha
            y += (z - v @ coeffs) / alpha
        d = y / s
        if not np.isfinite(d).all():
            raise NumericalError("normal-equation solve produced non-finite values")
        return d


class Linearization(NamedTuple):
    """phi(x) and phi'(x) at one point."""

    residual: GridFunction
    jacobian: JacobianMatrix


class OperatorModel(ABC):
    """Nonlinear problem phi(x) = 0 posed on one shared grid.

    `jacobian` must return the Frechet derivative of `residual`: directional
    finite differences of the residual agree with the Jacobian action to
    first order at every admissible point.  The flow gets both through
    `linearize`, which a model may override to share work between them.
    """

    @property
    @abstractmethod
    def grid(self) -> Grid: ...

    @property
    @abstractmethod
    def quadrature(self) -> QuadratureWeights: ...

    @abstractmethod
    def residual(self, x: GridFunction) -> GridFunction:
        """phi(x), in the data space."""

    @abstractmethod
    def jacobian(self, x: GridFunction) -> JacobianMatrix:
        """phi'(x), dense or factored, with the weighted adjoint attached."""

    def linearize(self, x: GridFunction) -> Linearization:
        """`residual(x)` and `jacobian(x)` together."""
        return Linearization(self.residual(x), self.jacobian(x))

    def domain_violation(self, x: GridFunction) -> Optional[str]:
        """None when x is admissible, else a human-readable reason."""
        return None


@dataclass(frozen=True)
class FixedSteps:
    """Run exactly `count` steps (bounded by max_steps)."""

    count: int


@dataclass(frozen=True)
class DiscrepancyFloor:
    """Stop at the first iterate whose discrepancy is <= tol."""

    tol: float


@dataclass(frozen=True)
class FirstDiscrepancyIncrease:
    """Stop after `patience` consecutive steps above the running minimum
    discrepancy, and report the minimizing iterate.

    Also stops once the schedule value drops below `alpha_floor`, about 450
    float64 epsilons by default: further steps fit rounding noise rather
    than data.
    """

    patience: int = 3
    alpha_floor: float = 1e-13


StopRule = Union[FixedSteps, DiscrepancyFloor, FirstDiscrepancyIncrease]
StepperName = Literal["euler", "rk"]


@dataclass(frozen=True)
class SolverConfig:
    stepper: StepperName = "euler"
    tau: float = 0.1
    max_steps: int = 500
    stop_rule: StopRule = FirstDiscrepancyIncrease()
    record_every: int = 1

    def __post_init__(self):
        if self.stepper not in ("euler", "rk"):
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if isinstance(self.stop_rule, DiscrepancyFloor) and not self.stop_rule.tol >= 0:
            raise ValueError("discrepancy floor must be nonnegative")
        if isinstance(self.stop_rule, FixedSteps) and self.stop_rule.count < 0:
            raise ValueError("fixed step count must be nonnegative")
        if (
            isinstance(self.stop_rule, FirstDiscrepancyIncrease)
            and self.stop_rule.patience < 1
        ):
            raise ValueError("patience must be >= 1")


@dataclass(frozen=True)
class TrajectoryPoint:
    """One recorded iterate: time, regularization value, discrepancy, and,
    when a reference solution is known, the scaled error w = ||x - ref||/alpha
    and the sup-norm error."""

    step: int
    t: float
    alpha: float
    sigma: float
    w: Optional[float] = None
    error_sup: Optional[float] = None


@dataclass(frozen=True)
class RunReport:
    """Outcome of one flow integration."""

    steps_taken: int
    final_x: GridFunction
    discrepancy: float
    error_sup: Optional[float]
    error_l2: Optional[float]
    trajectory: list[TrajectoryPoint]
    diverged: bool
    stop_reason: str


def velocity(
    model: OperatorModel,
    schedule: Schedule,
    t: float,
    x: GridFunction,
    x0: GridFunction,
    lin: Optional[Linearization] = None,
) -> GridFunction:
    """Right-hand side of the regularized Gauss-Newton flow at (t, x).

    Solves (J* J + alpha(t) I) d = -(J* phi(x) + alpha(t) (x - x0)) with the
    weighted adjoint J*; the system matrix is symmetric positive definite in
    the weighted inner product.  `lin` is the linearization at x, computed
    here when omitted.
    """
    if x.grid != model.grid or x0.grid != model.grid:
        raise GridMismatchError("x and x0 must live on the model grid")
    reason = model.domain_violation(x)
    if reason is not None:
        raise DomainError(reason)
    alpha = schedule.alpha(t)
    res, jac = lin if lin is not None else model.linearize(x)
    rhs = -(jac.adjoint_apply(res.values) + alpha * (x.values - x0.values))
    return GridFunction(model.grid, jac.normal_solve(alpha, rhs))


def euler_step(
    model: OperatorModel,
    schedule: Schedule,
    t_k: float,
    x_k: GridFunction,
    x0: GridFunction,
    tau: float,
    lin: Optional[Linearization] = None,
) -> GridFunction:
    """x_{k+1} = x_k + tau * F(t_k, x_k); with tau = 1 this is one damped
    Gauss-Newton iteration with regularization alpha(t_k).  `lin` is the
    linearization at x_k, computed when omitted."""
    d = velocity(model, schedule, t_k, x_k, x0, lin)
    return GridFunction(model.grid, x_k.values + tau * d.values)


def rk_midpoint_step(
    model: OperatorModel,
    schedule: Schedule,
    t_k: float,
    x_k: GridFunction,
    x0: GridFunction,
    tau: float,
    lin: Optional[Linearization] = None,
) -> GridFunction:
    """Explicit midpoint step: half Euler step, then a full step using the
    velocity at (t_k + tau/2, x_half).  Second-order accurate in tau.
    `lin` is the linearization at x_k, computed when omitted."""
    d1 = velocity(model, schedule, t_k, x_k, x0, lin)
    x_half = GridFunction(model.grid, x_k.values + 0.5 * tau * d1.values)
    reason = model.domain_violation(x_half)
    if reason is not None:
        raise DomainError(f"half-step point inadmissible: {reason}")
    d2 = velocity(model, schedule, t_k + 0.5 * tau, x_half, x0)
    return GridFunction(model.grid, x_k.values + tau * d2.values)


_STEPPERS = {"euler": euler_step, "rk": rk_midpoint_step}


def run_flow(
    model: OperatorModel,
    schedule: Schedule,
    x0: GridFunction,
    config: SolverConfig,
    reference: Optional[GridFunction] = None,
) -> RunReport:
    """Integrate the flow from x(0) = x0 and report the selected iterate.

    Each iterate is linearized once: its residual gives the discrepancy
    sigma_k = ||phi(x_k)||_L2, which drives the stop rule, and the pair is
    handed to the stepper for the next velocity.  Under
    FirstDiscrepancyIncrease the iterate with minimal discrepancy is
    returned and steps_taken is its index.
    Non-finite iterates or domain violations end the run in-band: the report
    carries the last good state and diverged=True.
    """
    validate_rate_function(schedule)
    if x0.grid != model.grid:
        raise GridMismatchError("x0 must live on the model grid")
    if reference is not None and reference.grid != model.grid:
        raise GridMismatchError("reference must live on the model grid")
    reason = model.domain_violation(x0)
    if reason is not None:
        raise DomainError(f"initial point inadmissible: {reason}")

    stepper = _STEPPERS[config.stepper]
    rule = config.stop_rule
    quad = model.quadrature

    trajectory: list[TrajectoryPoint] = []

    def record(k: int, x: GridFunction, sigma: float, force: bool = False) -> None:
        if not force and k % config.record_every != 0:
            return
        t_k = k * config.tau
        alpha_k = schedule.alpha(t_k)
        w = err_sup = None
        if reference is not None:
            diff = GridFunction(model.grid, x.values - reference.values)
            err = l2_norm(diff, quad)
            # alpha can underflow to zero on long degraded runs
            w = err / alpha_k if alpha_k > 0 else (0.0 if err == 0 else math.inf)
            err_sup = sup_norm(diff)
        trajectory.append(TrajectoryPoint(k, t_k, alpha_k, sigma, w, err_sup))

    x = x0
    lin = model.linearize(x)
    sigma = l2_norm(lin.residual, quad)
    record(0, x, sigma)

    best_x, best_sigma, best_k = x, sigma, 0
    diverged = False
    stop_reason = "max_steps"
    k = 0
    steps_above_best = 0

    if isinstance(rule, DiscrepancyFloor) and sigma <= rule.tol:
        stop_reason = "discrepancy_floor"
    elif isinstance(rule, FixedSteps) and rule.count == 0:
        stop_reason = "fixed_steps"
    else:
        limit = config.max_steps
        if isinstance(rule, FixedSteps):
            limit = min(limit, rule.count)
        while k < limit:
            if (
                isinstance(rule, FirstDiscrepancyIncrease)
                and schedule.alpha(k * config.tau) < rule.alpha_floor
            ):
                stop_reason = "alpha_floor"
                break
            try:
                t_k = k * config.tau
                x_next = stepper(model, schedule, t_k, x, x0, config.tau, lin)
                lin = None  # release J_k before assembling J_{k+1}
                lin = model.linearize(x_next)
                sigma_next = l2_norm(lin.residual, quad)
            except (DomainError, NumericalError, NonFiniteValueError) as exc:
                diverged = True
                stop_reason = f"diverged: {exc}"
                break
            if not np.isfinite(sigma_next):
                diverged = True
                stop_reason = "diverged: non-finite discrepancy"
                break
            k += 1
            x, sigma = x_next, sigma_next
            record(k, x, sigma, force=(k == limit))
            if sigma < best_sigma:
                best_x, best_sigma, best_k = x, sigma, k
                steps_above_best = 0
            else:
                steps_above_best += 1
            if isinstance(rule, DiscrepancyFloor) and sigma <= rule.tol:
                stop_reason = "discrepancy_floor"
                break
            if (
                isinstance(rule, FirstDiscrepancyIncrease)
                and steps_above_best >= rule.patience
            ):
                stop_reason = "discrepancy_increase"
                break
        else:
            if isinstance(rule, FixedSteps) and k == rule.count:
                stop_reason = "fixed_steps"
            else:
                stop_reason = "max_steps"

    if isinstance(rule, FirstDiscrepancyIncrease):
        x, sigma, steps = best_x, best_sigma, best_k
    else:
        steps = k

    err_sup = err_l2 = None
    if reference is not None:
        diff = GridFunction(model.grid, x.values - reference.values)
        err_sup = sup_norm(diff)
        err_l2 = l2_norm(diff, quad)
    return RunReport(
        steps_taken=steps,
        final_x=x,
        discrepancy=sigma,
        error_sup=err_sup,
        error_l2=err_l2,
        trajectory=trajectory,
        diverged=diverged,
        stop_reason=stop_reason,
    )
