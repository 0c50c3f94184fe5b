"""Convergence certificate for the regularized Gauss-Newton flow.

Given bounds n1 >= ||phi'||, n2 >= ||phi''|| on a ball of radius R around a
solution, a source representation x_hat - x0 = phi'* phi' v with ||v|| known,
and the schedule values alpha(0) and (d/dt ln alpha)(0), the scaled error
w(t) = ||x(t) - x_hat|| / alpha(t) obeys the scalar Riccati inequality

    dw/dt <= c1 w^2 - c2 w + c3,
    c1 = n1 n2 / 2,   c2 = 1 - 2 n1 n2 ||v|| + logderiv0,   c3 = ||v||.

When the quadratic c1 u^2 - c2 u + c3 has two distinct positive roots
u1 < u2 (and the ball radius is large enough), any majorant solution started
inside (u1, u2) decays monotonically to u1 along an explicit closed form, so
w stays below c2/(2 c1) and the flow error is O(alpha(t)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .flow import RunReport


@dataclass(frozen=True)
class CertificateInputs:
    """Problem constants entering the certificate.

    n1, n2        bounds on the first/second derivative norms in the ball
    v_norm        norm of the source element v
    alpha0        schedule value at t = 0
    logderiv0     schedule log-derivative at t = 0 (nonpositive)
    radius        ball radius R around the solution
    w0            scaled initial error ||x0 - x_hat||/alpha(0), when known
    source        how the source representation is justified: synthetic
                  instances construct v explicitly ("constructed"), otherwise
                  it is "assumed" (not algorithmically checkable for general
                  compact operators)
    """

    n1: float
    n2: float
    v_norm: float
    alpha0: float
    logderiv0: float
    radius: float
    w0: Optional[float] = None
    source: str = "assumed"

    def __post_init__(self):
        values = [self.n1, self.n2, self.v_norm, self.alpha0, self.logderiv0, self.radius]
        if self.w0 is not None:
            values.append(self.w0)
        if not all(map(math.isfinite, values)):
            raise ValueError("certificate inputs must be finite")
        if self.n1 <= 0 or self.n2 <= 0:
            raise ValueError("derivative bounds n1, n2 must be positive")
        if not 0 < self.n1 * self.n2 < math.inf:  # the constants divide by it
            raise ValueError("n1 * n2 must be positive and finite in floating point")
        if self.v_norm < 0:
            raise ValueError("v_norm must be nonnegative")
        if self.alpha0 <= 0:
            raise ValueError("alpha0 must be positive")
        if self.logderiv0 > 0:
            raise ValueError("logderiv0 must be nonpositive: alpha must not grow")
        if self.radius <= 0:
            raise ValueError("radius must be positive")
        if self.w0 is not None and self.w0 < 0:
            raise ValueError("w0 must be nonnegative")


@dataclass(frozen=True)
class ConditionVerdict:
    name: str
    passed: bool
    detail: str


@dataclass(frozen=True)
class Certificate:
    """Riccati majorant constants, roots, and per-condition verdicts.

    Roots satisfy u1 + u2 = c2/c1 and u1 * u2 = c3/c1; the decay rate is
    c = sqrt(c2^2 - 4 c1 c3).  Roots and rate are None unless the
    discriminant condition passes strictly (a double root is rejected).
    """

    inputs: CertificateInputs
    c1: float
    c2: float
    c3: float
    c: Optional[float]
    u1: Optional[float]
    u2: Optional[float]
    rate_cap: float
    conditions: tuple[ConditionVerdict, ...]

    @property
    def passed(self) -> bool:
        return all(v.passed for v in self.conditions)

    def condition(self, name: str) -> ConditionVerdict:
        for v in self.conditions:
            if v.name == name:
                return v
        raise KeyError(name)


def build_certificate(inputs: CertificateInputs) -> Certificate:
    """Evaluate the certificate constants and all checkable conditions.

    Failed conditions are verdicts, not errors.  The source-representation
    condition is recorded as assumed/constructed per the inputs; it cannot
    be verified algorithmically in general.
    """
    n1, n2, v = inputs.n1, inputs.n2, inputs.v_norm
    c1 = 0.5 * n1 * n2
    c2 = 1.0 - 2.0 * n1 * n2 * v + inputs.logderiv0
    c3 = v
    disc = c2 * c2 - 4.0 * c1 * c3  # equals c2^2 - 2 n1 n2 v

    conditions = [
        ConditionVerdict(
            "positivity",
            c2 > 0,
            f"c2 = 1 - 2*n1*n2*v_norm + logderiv0 = {c2:.6g} (need > 0)",
        ),
        ConditionVerdict(
            "discriminant",
            disc > 0,
            f"c2^2 - 2*n1*n2*v_norm = {disc:.6g} (need > 0)",
        ),
    ]
    ball = inputs.alpha0 / (n1 * n2) * c2
    conditions.append(
        ConditionVerdict(
            "radius",
            ball <= inputs.radius,
            f"alpha0/(n1*n2) * c2 = {ball:.6g} (need <= radius = {inputs.radius:.6g})",
        )
    )
    rate_cap = c2 / (2.0 * c1)
    if inputs.w0 is not None:
        conditions.append(
            ConditionVerdict(
                "initial_ratio",
                inputs.w0 < rate_cap,
                f"w0 = {inputs.w0:.6g} (need < c2/(2*c1) = {rate_cap:.6g})",
            )
        )
    conditions.append(
        ConditionVerdict(
            "source_representation",
            True,
            inputs.source,
        )
    )

    c = u1 = u2 = None
    if disc > 0:
        c = math.sqrt(disc)
        u1 = (c2 - c) / (2.0 * c1)
        u2 = (c2 + c) / (2.0 * c1)
    return Certificate(
        inputs=inputs,
        c1=c1,
        c2=c2,
        c3=c3,
        c=c,
        u1=u1,
        u2=u2,
        rate_cap=rate_cap,
        conditions=tuple(conditions),
    )


def bound_curve(cert: Certificate, u0: float, t):
    """Majorant u(t) started at u(0) = u0 in the open interval (u1, u2):

        u(t) = u1 + (u2 - u1) / (((u2 - u0)/(u0 - u1)) * exp(c t) + 1).

    Strictly decreasing from u0 toward u1.  Accepts scalar or array t.
    """
    if not cert.passed or cert.c is None:
        raise ValueError("bound curve requires a passing certificate")
    u1, u2 = cert.u1, cert.u2
    if not (u1 < u0 < u2):
        raise ValueError(f"u0 = {u0} must lie strictly inside ({u1}, {u2})")
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 0):
        raise ValueError("bound curve is defined for t >= 0")
    ratio = (u2 - u0) / (u0 - u1)
    u = u1 + (u2 - u1) / (ratio * np.exp(cert.c * t_arr) + 1.0)
    return u if isinstance(t, np.ndarray) else float(u)


def default_u0(cert: Certificate, w0: float) -> float:
    """Starting value for the majorant: at least slightly above w0 (the
    comparison principle needs w(0) <= u(0)) and inside (u1, u2)."""
    if cert.u1 is None or cert.u2 is None:
        raise ValueError("certificate has no root interval")
    candidate = max(w0 * 1.01, 0.5 * (cert.u1 + cert.u2))
    gap = cert.u2 - cert.u1
    lo = cert.u1 + 1e-9 * gap
    hi = cert.u2 - 1e-9 * gap
    return min(max(candidate, lo), hi)


@dataclass(frozen=True)
class ComparisonVerdict:
    """Result of checking a recorded trajectory against the majorant."""

    passed: bool
    checked: int
    min_margin: float
    first_violation: Optional[tuple[int, float, float, float]]  # (step, t, w, bound)


def comparison_check(
    cert: Certificate,
    report: RunReport,
    u0: float,
    tolerance: float = 1e-12,
) -> ComparisonVerdict:
    """Verify w_k <= u(t_k) + tolerance for every recorded sample.

    Requires the run to have been recorded against a known reference
    solution (so the w samples exist).
    """
    samples = [p for p in report.trajectory if p.w is not None]
    if not samples:
        raise ValueError("report carries no scaled-error samples (no reference run)")
    bounds = bound_curve(cert, u0, np.array([p.t for p in samples]))
    w = np.array([p.w for p in samples])
    violations = np.flatnonzero(w > bounds + tolerance)
    first_violation = None
    if violations.size:
        i = violations[0]
        first_violation = (samples[i].step, samples[i].t, samples[i].w, float(bounds[i]))
    return ComparisonVerdict(
        passed=first_violation is None,
        checked=len(samples),
        min_margin=float(np.min(bounds - w)),
        first_violation=first_violation,
    )
