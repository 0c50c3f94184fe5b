"""Parametric regularization schedules alpha(t).

A schedule is admissible as a convergence-rate function when it is positive,
decreases monotonically to zero, and its logarithmic derivative
d/dt ln alpha(t) is nondecreasing.  Inverse-power schedules satisfy the last
requirement strictly; exponential ones only with equality (constant
log-derivative) and are therefore flagged as weak boundary cases.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from dataclasses import dataclass

from .errors import ScheduleError

_LN2 = math.log(2.0)


def _check_time(t: float) -> float:
    t = float(t)
    if t < 0:
        raise ValueError(f"schedule evaluated at negative time t={t}")
    return t


class Schedule(ABC):
    """Regularization function alpha(t) on t >= 0, with its log-derivative."""

    @abstractmethod
    def alpha(self, t: float) -> float:
        """Value alpha(t) > 0."""

    @abstractmethod
    def log_derivative(self, t: float) -> float:
        """d/dt ln alpha(t)."""

    @abstractmethod
    def describe(self) -> str:
        """Canonical parsable descriptor, e.g. ``exp:alpha0=0.1,beta=3.5``."""


@dataclass(frozen=True)
class InversePower(Schedule):
    """alpha(t) = alpha0 / (a + t)**m."""

    alpha0: float
    a: float = 1.0
    m: float = 1.0

    def alpha(self, t: float) -> float:
        t = _check_time(t)
        try:
            return self.alpha0 / (self.a + t) ** self.m
        except OverflowError:  # (a + t)^m beyond float range: alpha is below it
            return 0.0

    def log_derivative(self, t: float) -> float:
        t = _check_time(t)
        return -self.m / (self.a + t)

    def describe(self) -> str:
        return f"invpow:alpha0={self.alpha0:g},a={self.a:g},m={self.m:g}"


@dataclass(frozen=True)
class Exponential(Schedule):
    """alpha(t) = alpha0 * exp(-beta * t)."""

    alpha0: float
    beta: float

    def alpha(self, t: float) -> float:
        t = _check_time(t)
        return self.alpha0 * math.exp(-self.beta * t)

    def log_derivative(self, t: float) -> float:
        _check_time(t)
        return -self.beta

    def describe(self) -> str:
        return f"exp:alpha0={self.alpha0:g},beta={self.beta:g}"


@dataclass(frozen=True)
class Base2(Schedule):
    """alpha(t) = alpha0 * 2**(-beta * t)."""

    alpha0: float
    beta: float

    def alpha(self, t: float) -> float:
        t = _check_time(t)
        return self.alpha0 * 2.0 ** (-self.beta * t)

    def log_derivative(self, t: float) -> float:
        _check_time(t)
        return -self.beta * _LN2

    def describe(self) -> str:
        return f"base2:alpha0={self.alpha0:g},beta={self.beta:g}"


@dataclass(frozen=True)
class RateVerdict:
    """Outcome of validating a schedule as a convergence-rate function.

    `strict` is True when the log-derivative is strictly increasing
    (inverse-power family); exponential families pass weakly, with a
    constant log-derivative.
    """

    alpha0: float
    log_derivative0: float
    strict: bool


def _require_positive(value: float, name: str, why: str = "") -> None:
    if not 0.0 < value < math.inf:
        raise ScheduleError(f"{name} must be positive and finite{why}, got {value}")


def validate_rate_function(s: Schedule) -> RateVerdict:
    """Check positivity/decay requirements; raise ScheduleError on violation.

    Returns the triple (alpha(0), log-derivative at 0, strictness flag)
    wrapped in a RateVerdict.
    """
    if isinstance(s, InversePower):
        _require_positive(s.alpha0, "alpha0")
        _require_positive(s.a, "offset a")
        _require_positive(s.m, "exponent m", " for alpha to decrease")
        strict = True
    elif isinstance(s, (Exponential, Base2)):
        _require_positive(s.alpha0, "alpha0")
        _require_positive(s.beta, "decay rate beta", " for alpha to decrease")
        strict = False
    else:
        raise ScheduleError(f"unknown schedule type {type(s).__name__}")
    try:
        alpha0 = s.alpha(0.0)
    except ZeroDivisionError:  # a^m underflows to zero
        alpha0 = math.inf
    if not 0.0 < alpha0 < math.inf:
        raise ScheduleError(f"alpha(0) must be positive and finite, got {alpha0}")
    return RateVerdict(
        alpha0=alpha0,
        log_derivative0=s.log_derivative(0.0),
        strict=strict,
    )


_FAMILIES = {
    "invpow": (InversePower, {"alpha0": None, "a": 1.0, "m": None}),
    "exp": (Exponential, {"alpha0": None, "beta": None}),
    "base2": (Base2, {"alpha0": None, "beta": None}),
}


def parse_schedule(text: str) -> Schedule:
    """Parse a descriptor like ``invpow:alpha0=0.1,a=1,m=6`` (case-insensitive).

    Families: ``invpow`` (keys alpha0, a, m; a defaults to 1), ``exp`` and
    ``base2`` (keys alpha0, beta).  Raises ScheduleError on malformed input;
    parameter positivity is checked separately by `validate_rate_function`.
    """
    head, sep, tail = text.strip().lower().partition(":")
    if not sep or not head:
        raise ScheduleError(f"schedule descriptor needs a 'family:params' form: {text!r}")
    if head not in _FAMILIES:
        raise ScheduleError(
            f"unknown schedule family {head!r}; expected one of {sorted(_FAMILIES)}"
        )
    cls, defaults = _FAMILIES[head]
    params = dict(defaults)
    for item in filter(None, (p.strip() for p in tail.split(","))):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in defaults:
            raise ScheduleError(f"bad parameter {item!r} for family {head!r}")
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise ScheduleError(f"non-numeric value in {item!r}") from exc
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise ScheduleError(f"family {head!r} is missing parameters {missing}")
    return cls(**params)
