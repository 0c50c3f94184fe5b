"""Regularized Gauss-Newton flow: velocity field, steppers, and run loop.

The flow solves phi(x) = 0 for a nonlinear operator phi between weighted
discrete L2 spaces by integrating

    dx/dt = -(J* J + alpha(t) I)^{-1} (J* phi(x) + alpha(t) (x - x0)),

where J = phi'(x) and J* is the adjoint with respect to the Simpson
weights of the model grid.  With step size tau = 1 the Euler stepper
reproduces the damped (iteratively regularized) Gauss-Newton iteration; as
alpha(t) decays the trajectory approaches a solution of phi(x) = 0.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass
from functools import cached_property
from typing import Literal, NamedTuple, Optional, get_args

import numpy as np

from .errors import DomainError, GridMismatchError, NonFiniteValueError, NumericalError
from .grids import Grid, GridFunction, _check_integer, _finite, l2_norm_values
from .grids import l2_norm  # unused here: perfbench's traced run wraps flow.l2_norm
from .schedules import Schedule, format_number

# FirstDiscrepancyIncrease stops once alpha falls below this, about 450
# float64 epsilons: further steps fit rounding noise rather than data.
ALPHA_FLOOR = 1e-13


@dataclass(frozen=True)
class LeftFactor:
    """Left factor L (n x m, m < n) of a factored Jacobian J = L K S, with
    the thin QR S L = Q R, S = diag(sqrt(w)) from the weights of `grid`,
    that the normal solve reads.  It keeps L, Q^T S in place of Q (the solve
    applies Q^T only to S-scaled vectors), R, and
    ||S^-1||^2 = max_j 1 / w_j, which scales the refinement's bound on its
    remaining correction.  Fixed per grid, so it is built once and shared."""

    matrix: np.ndarray
    q_t_s: np.ndarray
    r: np.ndarray
    max_inverse_weight: float

    @classmethod
    def of(cls, matrix: np.ndarray, grid: Grid) -> LeftFactor:
        matrix = np.array(matrix, dtype=float)
        s = grid.sqrt_weights
        q, r = np.linalg.qr(s[:, None] * matrix)
        q_t_s = q.T * s
        for a in (matrix, q_t_s, r):
            a.flags.writeable = False
        return cls(matrix, q_t_s, r, 1.0 / float(grid.weights.min()))


# Iterative refinement of a factored solve stops once its bound on the
# remaining correction, or from the second pass on a computed correction,
# is at most REFINE_TOL of the step's norm, and hands over to the SVD solve
# when a correction does not shrink or REFINE_STEPS corrections pass.
REFINE_TOL = 1e-10
REFINE_STEPS = 8


class _Decomposition(NamedTuple):
    """The thin SVD M = U Sigma V^T of the m x n (or n x n) middle factor
    of B = S J S^-1 = Q M, S = diag(sqrt(w)), with M = R K for a factored
    J = L K S and M = S J S^-1, Q = I for L = I: the squared singular
    values sigma^2 and the three scaled factors of the solve, Sigma V^T S,
    (Q U)^T S and S^-1 V Sigma."""

    sigma_squared: np.ndarray
    sigma_vt_s: np.ndarray
    qu_t_s: np.ndarray
    v_sigma_over_s: np.ndarray


def _frozen_view(a: np.ndarray) -> bool:
    """Whether `a` is a read-only float64 view of a read-only array, which
    no holder of the view can write to; such an array needs no copy."""
    return (
        isinstance(a, np.ndarray)
        and a.dtype == np.float64
        and not a.flags.writeable
        and isinstance(a.base, np.ndarray)
        and not a.base.flags.writeable
    )


# Rows of a Jacobian factor scanned for non-finite entries at a time, so the
# scan's boolean mask is a block of the factor, not the whole of it.
_SCAN_ROWS = 64


@dataclass(frozen=True)
class JacobianMatrix:
    """Jacobian J = L K S on `grid`, S = diag(sqrt(w)) from the Simpson
    weights that define its adjoint.

    Columns are indexed by the unknown-space grid, rows of J by the
    data-space grid (one shared grid, so J is square).  For a factored
    J = L C, `left` is L, n x m, and `matrix` is the scaled factor
    K = C S^{-1}, m x n, which the Gram matrix, the SVD and the refinement
    read without rescaling it; `left` is None for L = I, when `matrix` is J
    itself.  The adjoint is the weighted one, J* = W^{-1} J^T W, which makes
    J* J selfadjoint and nonnegative in the weighted inner product.
    `matrix` is copied and frozen unless it is a read-only view of a
    read-only float64 array, as `linearize` hands over, which is kept as
    is; either way it is scanned for non-finite entries, _SCAN_ROWS rows at
    a time.
    """

    matrix: np.ndarray
    grid: Grid
    left: Optional[LeftFactor] = None

    def __post_init__(self):
        m = self.matrix if _frozen_view(self.matrix) else np.array(self.matrix, dtype=float)
        n = self.grid.node_count
        rows = n if self.left is None else self.left.matrix.shape[1]
        if m.shape != (rows, n) or (self.left is not None and self.left.matrix.shape[0] != n):
            raise ValueError(f"Jacobian factor shape {m.shape} does not match grid size {n}")
        if not all(np.isfinite(m[i : i + _SCAN_ROWS]).all() for i in range(0, len(m), _SCAN_ROWS)):
            raise NonFiniteValueError("Jacobian contains non-finite entries")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)

    def apply(self, v: np.ndarray) -> np.ndarray:
        if self.left is None:
            return self.matrix @ v
        # S v, scaling the first axis of v, a vector or the columns of a matrix
        return self.left.matrix @ (self.matrix @ (self.grid.sqrt_weights * v.T).T)

    def adjoint_apply(self, v: np.ndarray) -> np.ndarray:
        w = self.grid.weights
        if self.left is None:
            return (self.matrix.T @ (w * v)) / w
        return (self.matrix.T @ (self.left.matrix.T @ (w * v))) / self.grid.sqrt_weights

    @cached_property
    def decomposition(self) -> _Decomposition:
        """The SVD of M, computed on first use and shared by every
        `normal_solve` on this Jacobian that reads it, whatever its alpha.

        B = S J S^{-1} = Q M with Q orthonormal columns, M = R K for a
        factored J (O(m^2 n)) and M = S J S^{-1}, Q = I for L = I (O(n^3)).
        The thin SVD M = U Sigma V^T is kept in the scaled factors
        Sigma V^T S, (Q U)^T S and S^{-1} V Sigma, so that a solve applies M
        through them and never through J; the certified model solves one
        such Jacobian thousands of times.  A factored J reads it only when
        the refined Gram solve fails, below alpha of about 4e-16, and forms
        (Q U)^T S as U^T (Q^T S) from its left factor.
        """
        s = self.grid.sqrt_weights
        if self.left is None:
            square = self.matrix * s[:, None]
            square /= s[None, :]
        else:
            square = self.left.r @ self.matrix
        try:
            u, sigma, vt = np.linalg.svd(square, full_matrices=False)
        except np.linalg.LinAlgError as exc:
            raise NumericalError(f"decomposition of the Jacobian failed: {exc}") from exc
        qu_t_s = u.T * s if self.left is None else u.T @ self.left.q_t_s
        sigma_vt = sigma[:, None] * vt
        return _Decomposition(sigma**2, sigma_vt * s, qu_t_s, (sigma_vt / s).T)

    @cached_property
    def gram(self) -> np.ndarray:
        """G = R (K K^T) R^T = M M^T (m x m) of a factored J, one O(m^2 n)
        product with no QR and no SVD, and without forming M or any other
        m x n array: each gravimetry Jacobian is solved once, so nothing is
        prepared for other alphas.  Only the refined Gram solve reads it."""
        return self.left.r @ (self.matrix @ self.matrix.T) @ self.left.r.T

    def _lift(self, z: np.ndarray) -> np.ndarray:
        """S^{-1} M^T z = K^T (R^T z) / sqrt(w) for a factored J, O(mn)."""
        y = self.matrix.T @ (self.left.r.T @ z)
        y /= self.grid.sqrt_weights
        return y

    def _refined_solve(self, alpha: float, f: np.ndarray) -> Optional[np.ndarray]:
        """y = S^{-1} M^T z with (G + alpha I) z = f, by iterative refinement
        with LU solves of A = G + alpha I, or None when `solve` fails or the
        refinement does not converge.  From z = 0 and e = f, each pass
        solves A dz = e (`np.linalg.solve`), adds dz to z and
        S^{-1} M^T dz to y (the first pass assigns them), and recomputes
        e = f - R (K (S y)) - alpha z through the factors, never through G,
        so rounding in G and its LU slows convergence but does not bias y.
        The exact remaining correction is S^{-1} M^T A^{-1} e, of norm at
        most ||e|| ||S^{-1}|| / (2 sqrt(alpha)), since
        sigma / (sigma^2 + alpha) <= 1 / (2 sqrt(alpha)); y is accepted once
        that bound is at most REFINE_TOL ||y||, or, from the second pass on,
        once the computed correction moved y by at most REFINE_TOL ||y||.
        A is formed by shifting the diagonal of a copy of the cached G."""
        left, s = self.left, self.grid.sqrt_weights
        a = self.gram.copy()
        a.ravel()[:: len(a) + 1] += alpha
        e = f
        # the tests compare squared norms: bound_scale = (||S^-1|| / (2 sqrt(alpha)))^2
        bound_scale = left.max_inverse_weight / (4.0 * alpha)
        last = math.inf
        for k in range(REFINE_STEPS + 1):
            try:
                dz = np.linalg.solve(a, e)
            except np.linalg.LinAlgError:
                return None
            dy = self._lift(dz)
            if k == 0:
                z, y = dz, dy
            else:
                z += dz
                y += dy
            e = f - left.r @ (self.matrix @ (s * y))
            e -= alpha * z
            tol = REFINE_TOL**2 * (y @ y)
            step = dy @ dy
            if bound_scale * (e @ e) <= tol or (k > 0 and step <= tol):
                return y
            if not step < last:  # also for a NaN
                return None
            last = step
        return None

    def normal_solve(self, alpha: float, residual: np.ndarray, offset: np.ndarray) -> np.ndarray:
        """d with (J* J + alpha I) d = -(J* residual + alpha offset), from the
        cached `decomposition` and without forming that right-hand side or
        M.  In y = S d and e = S offset the system reads
        (M^T M + alpha I)(y + e) = M^T f with f = M e - Q^T S residual, so

            d = S^{-1} M^T (M M^T + alpha I)^{-1} f - offset,

        the Tikhonov form of the step (Elden, BIT 17, 1977), whose rounding
        is not divided by alpha.  For a factored J = L K S, M = R K,
        M M^T = G, and M e = R (K e), Q^T S residual and
        S^{-1} M^T z = K^T (R^T z) / sqrt(w) are applied through the
        factors, with no m x n rescaling.  Its fast path, like LAPACK's
        dsgesv, refines z against the factors with one LU solve of
        G + alpha I per pass, O(m^3 + mn), until a bound on the exact
        remaining correction or, from the second pass on, the computed
        correction is at most REFINE_TOL relative (see `_refined_solve`);
        on the benchmark runs the first pass is accepted wherever alpha is
        about 1e-9 or larger.  If `solve` fails, a correction does not
        shrink or REFINE_STEPS corrections pass, as happens below alpha of
        about 4e-16, and always for L = I, the SVD M = U Sigma V^T gives
        U^T f = (Sigma V^T S) offset - ((Q U)^T S) residual and
        S^{-1} M^T U = S^{-1} V Sigma, three products from the cached
        `decomposition`.  A non-finite or nonpositive alpha, a failed
        factorization and a non-finite d raise NumericalError.
        """
        if not 0 < alpha < math.inf:
            raise NumericalError(f"normal equations need 0 < alpha < inf, got {alpha}")
        left = self.left
        d = None
        if left is not None:
            f = left.r @ (self.matrix @ (self.grid.sqrt_weights * offset))
            f -= left.q_t_s @ residual
            d = self._refined_solve(alpha, f)
        if d is None:
            sigma_squared, sigma_vt_s, qu_t_s, v_sigma_over_s = self.decomposition
            u_t_f = sigma_vt_s @ offset - qu_t_s @ residual
            d = v_sigma_over_s @ (u_t_f / (sigma_squared + alpha))
        d -= offset
        if not np.isfinite(d).all():
            raise NumericalError("normal-equation solve produced non-finite values")
        return d


class Linearization(NamedTuple):
    """phi(x), as nodal values on the model grid, and phi'(x) at one point."""

    residual: np.ndarray
    jacobian: JacobianMatrix


class OperatorModel(ABC):
    """Nonlinear problem phi(x) = 0 posed on one shared grid.

    A model has two members: its `grid`, whose Simpson weights define the
    norms and adjoints of the flow, and one operator call, `linearize`,
    which maps nodal values to phi(x) and its Frechet derivative together:
    directional finite differences of the residual agree with the Jacobian
    action to first order at every admissible point.  `residual` and
    `jacobian` wrap it.
    """

    @property
    @abstractmethod
    def grid(self) -> Grid: ...

    @abstractmethod
    def linearize(self, x: np.ndarray) -> Linearization:
        """phi(x) and phi'(x), dense or factored, with the weighted adjoint, at
        nodal values x on the model grid.  Raises DomainError when x is inadmissible."""

    def residual(self, x: GridFunction) -> GridFunction:
        """phi(x) alone, from `linearize`; GridMismatchError off the model grid."""
        return GridFunction(self.grid, _linearize_on_grid(self, "x", x).residual)

    def jacobian(self, x: GridFunction) -> JacobianMatrix:
        """phi'(x) alone, from `linearize`; GridMismatchError off the model grid."""
        return _linearize_on_grid(self, "x", x).jacobian


def _linearize(model: OperatorModel, x: np.ndarray) -> Linearization:
    """The linearization at nodal values x, checking x and then phi(x) finite."""
    lin = model.linearize(_finite(x))
    _finite(lin.residual)
    return lin


def _linearize_on_grid(model: OperatorModel, names: str, *points: GridFunction) -> Linearization:
    """The linearization at the first point, after checking every point's grid."""
    if any(p.grid != model.grid for p in points):
        raise GridMismatchError(f"{names} must live on the model grid")
    return _linearize(model, points[0].values)


class StopRule(ABC):
    """When `run_flow` stops.  At each accepted iterate k >= 0 the run asks
    `stop_reason`, then stops at `max_steps`, then asks `alpha_stop` with
    alpha(t_k) before stepping on from x_k.  A rule checks its parameters
    when it is built and raises ValueError for a bad one."""

    # report the iterate of minimal discrepancy rather than the last one
    reports_best = False

    @abstractmethod
    def describe(self) -> str:
        """Canonical parsable descriptor, e.g. ``increase:3``."""

    @abstractmethod
    def stop_reason(self, k: int, sigma: float, steps_above_best: int) -> Optional[str]:
        """Why the run stops at iterate k with discrepancy sigma, else None."""

    def alpha_stop(self, alpha: float) -> Optional[str]:
        """Why no step is taken with regularization alpha, else None."""
        return None


@dataclass(frozen=True)
class FixedSteps(StopRule):
    """Run exactly `count` steps (bounded by max_steps)."""

    count: int

    def __post_init__(self):
        _check_integer(self.count, "fixed step count")
        if self.count < 0:
            raise ValueError("fixed step count must be nonnegative")

    def describe(self) -> str:
        return f"fixed:{self.count}"

    def stop_reason(self, k: int, sigma: float, steps_above_best: int) -> Optional[str]:
        return "fixed_steps" if k == self.count else None


@dataclass(frozen=True)
class DiscrepancyFloor(StopRule):
    """Stop at the first iterate whose discrepancy is <= tol."""

    tol: float

    def __post_init__(self):
        if not self.tol >= 0:
            raise ValueError("discrepancy floor must be nonnegative")

    def describe(self) -> str:
        return f"floor:{format_number(self.tol)}"

    def stop_reason(self, k: int, sigma: float, steps_above_best: int) -> Optional[str]:
        return "discrepancy_floor" if sigma <= self.tol else None


@dataclass(frozen=True)
class FirstDiscrepancyIncrease(StopRule):
    """Stop after `patience` consecutive steps above the running minimum
    discrepancy, and report the minimizing iterate.  Also stops once the
    schedule value drops below ALPHA_FLOOR.
    """

    patience: int = 3

    reports_best = True

    def __post_init__(self):
        _check_integer(self.patience, "patience")
        if self.patience < 1:
            raise ValueError("patience must be >= 1")

    def describe(self) -> str:
        return f"increase:{self.patience}"

    def stop_reason(self, k: int, sigma: float, steps_above_best: int) -> Optional[str]:
        return "discrepancy_increase" if steps_above_best >= self.patience else None

    def alpha_stop(self, alpha: float) -> Optional[str]:
        return "alpha_floor" if alpha < ALPHA_FLOOR else None


# the rule of each descriptor head, with the type of its one parameter
_STOP_RULES = {
    "fixed": (FixedSteps, int), "floor": (DiscrepancyFloor, float),
    "increase": (FirstDiscrepancyIncrease, int),
}


def parse_stop_rule(text: str) -> StopRule:
    """Parse ``fixed:N``, ``floor:tol`` or ``increase:patience``."""
    head, sep, tail = text.strip().lower().partition(":")
    if not sep or head not in _STOP_RULES:
        raise ValueError(
            f"unknown stop rule {text!r}; expected fixed:N, floor:tol or increase:patience"
        )
    rule, kind = _STOP_RULES[head]
    try:
        value = kind(tail)
    except ValueError as exc:
        raise ValueError(f"bad stop-rule parameter in {text!r}: {exc}") from exc
    return rule(value)


StepperName = Literal["euler", "rk"]
STEPPERS = get_args(StepperName)


@dataclass(frozen=True)
class SolverConfig:
    stepper: StepperName = "euler"
    tau: float = 0.1
    max_steps: int = 500
    stop_rule: StopRule = FirstDiscrepancyIncrease()
    record_every: int = 1

    def __post_init__(self):
        if self.stepper not in STEPPERS:
            raise ValueError(f"unknown stepper {self.stepper!r}")
        if not 0 < self.tau < math.inf:
            raise ValueError(f"tau must be positive and finite, got {self.tau}")
        _check_integer(self.max_steps, "max_steps")
        if self.max_steps < 1:
            raise ValueError(f"max_steps must be >= 1, got {self.max_steps}")
        _check_integer(self.record_every, "record_every")
        if self.record_every < 1:
            raise ValueError(f"record_every must be >= 1, got {self.record_every}")
        if not isinstance(self.stop_rule, StopRule):
            raise ValueError(f"unknown stop rule {self.stop_rule!r}")


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
    stop_reason: str

    @property
    def diverged(self) -> bool:
        """Whether the run broke down and ended in band."""
        return self.stop_reason.startswith("diverged")


def _step(
    model: OperatorModel,
    schedule: Schedule,
    t_k: float,
    alpha_k: float,
    x_k: np.ndarray,
    x0: np.ndarray,
    tau: float,
    lin: Linearization,
    midpoint: bool,
) -> np.ndarray:
    """x_{k+1} = x_k + tau d, as nodal values, from alpha(t_k) and the
    linearization at x_k: the one step routine, with d = `velocity` at x_k
    or, for the midpoint rule, at x_half = x_k + (tau/2) d, linearized here."""
    d = lin.jacobian.normal_solve(alpha_k, lin.residual, x_k - x0)
    # each solve returns a fresh d, so it is scaled and shifted in place
    if midpoint:
        x_half = d
        x_half *= 0.5 * tau
        x_half += x_k
        try:
            lin = _linearize(model, x_half)
        except DomainError as exc:
            raise DomainError(f"half-step point inadmissible: {exc}") from exc
        d = lin.jacobian.normal_solve(schedule.alpha(t_k + 0.5 * tau), lin.residual, x_half - x0)
    d *= tau
    d += x_k
    return d


def velocity(
    model: OperatorModel,
    schedule: Schedule,
    t: float,
    x: GridFunction,
    x0: GridFunction,
) -> GridFunction:
    """Right-hand side of the regularized Gauss-Newton flow at (t, x).

    Solves (J* J + alpha(t) I) d = -(J* phi(x) + alpha(t) (x - x0)) with the
    weighted adjoint J*; the system matrix is symmetric positive definite in
    the weighted inner product.  Checks that x and x0 live on the model grid,
    linearizes x (raising DomainError when it is inadmissible) and computes
    d with the normal solve `run_flow` uses.  Euler is x + tau F(t, x), at
    tau = 1 a damped Gauss-Newton iteration, and midpoint
    x + tau F(t + tau/2, x + (tau/2) F(t, x)); k fixed steps of `run_flow`
    equal k such compositions of F bit for bit.
    """
    lin = _linearize_on_grid(model, "x and x0", x, x0)
    d = lin.jacobian.normal_solve(schedule.alpha(t), lin.residual, x.values - x0.values)
    return GridFunction(model.grid, d)


def run_flow(
    model: OperatorModel,
    schedule: Schedule,
    x0: GridFunction,
    config: SolverConfig,
    reference: Optional[GridFunction] = None,
) -> RunReport:
    """Integrate the flow from x(0) = x0 and report the selected iterate.

    The loop carries nodal arrays; only the reported iterate becomes a
    GridFunction.  Each iterate is linearized once: its residual gives the
    discrepancy sigma_k = ||phi(x_k)||_L2, which drives the stop rule, and
    the pair is handed to the step for the next direction.  alpha(t_k) is
    evaluated once per time point and serves the stop rule, the step and the
    record; the linearization of each point is its one admissibility check.
    Each new point is checked finite before it is linearized; its residual
    is checked through sigma, which is non-finite exactly when an entry is
    or its sum of squares overflows, and only a non-finite sigma scans the
    entries to tell the two apart.  The errors against the reference are
    checked the same way, through their sup norm, and a non-finite one
    raises NonFiniteValueError.  Under FirstDiscrepancyIncrease the iterate with
    minimal discrepancy is returned and steps_taken is its index.  The
    trajectory keeps every `record_every`-th iterate and the last accepted one.
    Non-finite iterates or domain violations end the run in-band: the report
    carries the last good state and diverged=True.  At x0 itself, before any
    step, a non-finite residual entry or discrepancy raises
    NonFiniteValueError and an inadmissible point DomainError.
    """
    if reference is not None and reference.grid != model.grid:
        raise GridMismatchError("reference must live on the model grid")
    try:
        lin = _linearize_on_grid(model, "x0", x0)
    except DomainError as exc:
        raise DomainError(f"initial point inadmissible: {exc}") from exc

    midpoint = config.stepper == "rk"
    rule = config.stop_rule
    tau = config.tau
    weights = model.grid.weights

    def reference_errors(x: np.ndarray) -> tuple[float, float]:
        """Sup and L2 norms of x - reference; the sup norm, taken in place
        after the L2 norm, is non-finite exactly when an entry is, which
        raises NonFiniteValueError."""
        diff = x - reference.values
        err_l2 = l2_norm_values(diff, weights)
        err_sup = float(np.abs(diff, out=diff).max())
        if not math.isfinite(err_sup):
            _finite(diff)
        return err_sup, err_l2

    def point(k: int, x: np.ndarray, sigma: float, alpha_k: float) -> TrajectoryPoint:
        w = err_sup = None
        if reference is not None:
            err_sup, err = reference_errors(x)
            # alpha can underflow to zero on long degraded runs
            w = err / alpha_k if alpha_k > 0 else (0.0 if err == 0 else math.inf)
        return TrajectoryPoint(k, k * tau, alpha_k, sigma, w, err_sup)

    x = x0.values
    with np.errstate(over="ignore"):  # an overflow is reported just below
        sigma = l2_norm_values(lin.residual, weights)
    if not math.isfinite(sigma):  # finite entries whose sum of squares overflows
        raise NonFiniteValueError("discrepancy at x0 is not finite: its sum of squares overflows")
    alpha = schedule.alpha(0.0)
    trajectory = [point(0, x, sigma, alpha)]

    best_x, best_sigma, best_k = x, sigma, 0
    k = 0
    steps_above_best = 0
    while True:
        stop_reason = rule.stop_reason(k, sigma, steps_above_best)
        if stop_reason is None and k >= config.max_steps:
            stop_reason = "max_steps"
        if stop_reason is None:
            stop_reason = rule.alpha_stop(alpha)
        if stop_reason is not None:
            break
        try:
            x_next = _step(model, schedule, k * tau, alpha, x, x0.values, tau, lin, midpoint)
            lin = None  # release J_k before assembling J_{k+1}
            lin = model.linearize(_finite(x_next))
            sigma_next = l2_norm_values(lin.residual, weights)
            if not math.isfinite(sigma_next):
                _finite(lin.residual)  # raises for a non-finite entry
                stop_reason = "diverged: non-finite discrepancy"  # the sum overflowed
                break
        except (DomainError, NumericalError, NonFiniteValueError) as exc:
            stop_reason = f"diverged: {exc}"
            break
        k += 1
        x, sigma, alpha = x_next, sigma_next, schedule.alpha(k * tau)
        if k % config.record_every == 0:
            trajectory.append(point(k, x, sigma, alpha))
        if sigma < best_sigma:
            best_x, best_sigma, best_k = x, sigma, k
            steps_above_best = 0
        else:
            steps_above_best += 1
    if trajectory[-1].step != k:
        trajectory.append(point(k, x, sigma, alpha))

    steps = k
    if rule.reports_best:
        x, sigma, steps = best_x, best_sigma, best_k

    err_sup = err_l2 = None
    if reference is not None:
        err_sup, err_l2 = reference_errors(x)
    return RunReport(
        steps_taken=steps,
        final_x=GridFunction(model.grid, x),
        discrepancy=sigma,
        error_sup=err_sup,
        error_l2=err_l2,
        trajectory=trajectory,
        stop_reason=stop_reason,
    )
