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


def format_number(value: float) -> str:
    """`value` as `:g` text when that parses back to it, else its repr, so
    a descriptor always names the value it was built from."""
    text = f"{value:g}"
    return text if float(text) == value else repr(float(value))


def _check_time(t: float) -> float:
    t = float(t)
    if t < 0:
        raise ValueError(f"schedule evaluated at negative time t={t}")
    return t


class Schedule(ABC):
    """Regularization function alpha(t) on t >= 0, with its log-derivative.

    A subclass checks its parameters when it is built and raises
    ScheduleError unless alpha(0) is positive and finite, alpha decreases to
    zero and its log-derivative is nondecreasing (strictly if `strict`), so
    code that takes a schedule does not check it again."""

    strict = False

    @abstractmethod
    def alpha(self, t: float) -> float:
        """Value alpha(t) > 0."""

    @abstractmethod
    def log_derivative(self, t: float) -> float:
        """d/dt ln alpha(t)."""

    @abstractmethod
    def describe(self) -> str:
        """Canonical parsable descriptor, e.g. ``exp:alpha0=0.1,beta=3.5``."""


def _describe(family: str, **params: float) -> str:
    """The descriptor ``family:key=value,...`` of a schedule."""
    return f"{family}:" + ",".join(f"{k}={format_number(v)}" for k, v in params.items())


def _require_positive(value: float, name: str, why: str = "") -> None:
    if not 0.0 < value < math.inf:
        raise ScheduleError(f"{name} must be positive and finite{why}, got {value}")


@dataclass(frozen=True)
class InversePower(Schedule):
    """alpha(t) = alpha0 / (a + t)**m."""

    alpha0: float
    a: float = 1.0
    m: float = 1.0

    strict = True

    def __post_init__(self):
        _require_positive(self.alpha0, "alpha0")
        _require_positive(self.a, "offset a")
        _require_positive(self.m, "exponent m", " for alpha to decrease")
        _require_positive(self.alpha(0.0), "alpha(0)")

    def alpha(self, t: float) -> float:
        t = _check_time(t)
        try:
            return self.alpha0 / (self.a + t) ** self.m
        except OverflowError:  # (a + t)^m beyond float range: alpha is below it
            return 0.0
        except ZeroDivisionError:  # (a + t)^m below float range: alpha is above it
            return math.inf

    def log_derivative(self, t: float) -> float:
        t = _check_time(t)
        return -self.m / (self.a + t)

    def describe(self) -> str:
        return _describe("invpow", alpha0=self.alpha0, a=self.a, m=self.m)


@dataclass(frozen=True)
class _Decay(Schedule):
    """alpha(t) = alpha0 * b**(-beta * t), b > 1: its log-derivative is constant."""

    alpha0: float
    beta: float

    def __post_init__(self):
        _require_positive(self.alpha0, "alpha0")
        _require_positive(self.beta, "decay rate beta", " for alpha to decrease")


class Exponential(_Decay):
    """alpha(t) = alpha0 * exp(-beta * t)."""

    def alpha(self, t: float) -> float:
        t = _check_time(t)
        return self.alpha0 * math.exp(-self.beta * t)

    def log_derivative(self, t: float) -> float:
        _check_time(t)
        return -self.beta

    def describe(self) -> str:
        return _describe("exp", alpha0=self.alpha0, beta=self.beta)


class Base2(_Decay):
    """alpha(t) = alpha0 * 2**(-beta * t)."""

    def alpha(self, t: float) -> float:
        t = _check_time(t)
        return self.alpha0 * 2.0 ** (-self.beta * t)

    def log_derivative(self, t: float) -> float:
        _check_time(t)
        return -self.beta * _LN2

    def describe(self) -> str:
        return _describe("base2", alpha0=self.alpha0, beta=self.beta)


@dataclass(frozen=True)
class RateVerdict:
    """What `validate_rate_function` reports of a schedule."""

    alpha0: float
    log_derivative0: float
    strict: bool


def validate_rate_function(s: Schedule) -> RateVerdict:
    """alpha(0), the log-derivative at 0 and `strict` of a schedule, which
    checked itself when built; ScheduleError for a type of no family."""
    if not isinstance(s, (InversePower, _Decay)):
        raise ScheduleError(f"unknown schedule type {type(s).__name__}")
    return RateVerdict(alpha0=s.alpha(0.0), log_derivative0=s.log_derivative(0.0), strict=s.strict)


_FAMILIES = {
    "invpow": (InversePower, {"alpha0": None, "a": 1.0, "m": None}),
    "exp": (Exponential, {"alpha0": None, "beta": None}),
    "base2": (Base2, {"alpha0": None, "beta": None}),
}


def parse_schedule(text: str) -> Schedule:
    """Parse a descriptor like ``invpow:alpha0=0.1,a=1,m=6`` (case-insensitive).

    Families: ``invpow`` (keys alpha0, a, m; a defaults to 1), ``exp`` and
    ``base2`` (keys alpha0, beta).  Raises ScheduleError on malformed input,
    on a repeated parameter, and, from the schedule's own check, on a
    parameter that breaks the rate-function requirements.
    """
    head, sep, tail = text.strip().lower().partition(":")
    if not sep or not head:
        raise ScheduleError(f"schedule descriptor needs a 'family:params' form: {text!r}")
    if head not in _FAMILIES:
        raise ScheduleError(
            f"unknown schedule family {head!r}; expected one of {sorted(_FAMILIES)}"
        )
    cls, defaults = _FAMILIES[head]
    params, given = dict(defaults), set()
    for item in filter(None, (p.strip() for p in tail.split(","))):
        key, eq, value = item.partition("=")
        key = key.strip()
        if not eq or key not in defaults:
            raise ScheduleError(f"bad parameter {item!r} for family {head!r}")
        if key in given:
            raise ScheduleError(f"repeated parameter {key!r} for family {head!r}")
        given.add(key)
        try:
            params[key] = float(value)
        except ValueError as exc:
            raise ScheduleError(f"non-numeric value in {item!r}") from exc
    missing = [k for k, v in params.items() if v is None]
    if missing:
        raise ScheduleError(f"family {head!r} is missing parameters {missing}")
    return cls(**params)
