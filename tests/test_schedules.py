from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from gnflow import (
    Base2,
    Exponential,
    InversePower,
    Schedule,
    ScheduleError,
    parse_schedule,
    validate_rate_function,
)

FAMILY_SAMPLES = [
    InversePower(0.1, 1.0, 2.0),
    InversePower(0.1, 1.0, 10.0),
    InversePower(10.0, 100.0, 1.0),
    Exponential(0.1, 3.5),
    Exponential(1.0, 0.5),
    Base2(0.1, 3.5),
]


class TestAlpha:
    def test_initial_values(self):
        assert Exponential(0.1, 3.5).alpha(0.0) == pytest.approx(0.1)
        assert InversePower(0.1, 1.0, 2.0).alpha(0.0) == pytest.approx(0.1)
        assert Base2(0.1, 3.5).alpha(0.0) == pytest.approx(0.1)

    def test_formulas(self):
        assert Exponential(0.1, 3.5).alpha(2.0) == pytest.approx(0.1 * math.exp(-7.0))
        assert InversePower(0.1, 1.0, 2.0).alpha(1.0) == pytest.approx(0.1 / 4.0)
        assert Base2(0.1, 2.0).alpha(0.5) == pytest.approx(0.05)

    @pytest.mark.parametrize("s", FAMILY_SAMPLES)
    def test_strictly_decreasing_and_positive(self, s):
        rng = np.random.default_rng(11)
        for _ in range(25):
            t1, t2 = np.sort(rng.uniform(0.0, 100.0, size=2))
            if t1 == t2:
                continue
            a1, a2 = s.alpha(t1), s.alpha(t2)
            assert a1 > a2 > 0

    def test_inverse_power_beyond_float_range_is_zero(self):
        # (a + t)^m overflows at t = 1000; alpha is then below any float
        assert InversePower(1.0, 1.0, 400.0).alpha(1000.0) == 0.0

    @pytest.mark.parametrize("s", FAMILY_SAMPLES)
    def test_negative_time_rejected(self, s):
        with pytest.raises(ValueError):
            s.alpha(-0.1)
        with pytest.raises(ValueError):
            s.log_derivative(-1e-9)


class TestLogDerivative:
    def test_formulas(self):
        assert InversePower(1.0, 2.0, 1.0).log_derivative(0.0) == pytest.approx(-0.5)
        assert Exponential(0.3, 3.5).log_derivative(17.0) == pytest.approx(-3.5)
        assert Base2(0.3, 3.5).log_derivative(1.0) == pytest.approx(-3.5 * math.log(2))

    def test_inverse_power_increase(self):
        s = InversePower(0.1, 1.0, 2.0)
        assert s.log_derivative(0.0) == pytest.approx(-2.0)
        assert s.log_derivative(1.0) == pytest.approx(-1.0)
        assert s.log_derivative(1.0) - s.log_derivative(0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("s", FAMILY_SAMPLES)
    def test_nondecreasing(self, s):
        rng = np.random.default_rng(12)
        for _ in range(25):
            t1, t2 = np.sort(rng.uniform(0.0, 100.0, size=2))
            assert s.log_derivative(t1) <= s.log_derivative(t2) + 1e-15

    @pytest.mark.parametrize("s", FAMILY_SAMPLES)
    @pytest.mark.parametrize("t", [0.01, 1.0, 10.0])
    def test_matches_central_difference(self, s, t):
        h = 1e-6 * max(1.0, t)
        fd = (s.alpha(t + h) - s.alpha(t - h)) / (2 * h * s.alpha(t))
        assert fd == pytest.approx(s.log_derivative(t), rel=1e-6)


class TestValidation:
    def test_inverse_power_strict(self):
        verdict = validate_rate_function(InversePower(10.0, 100.0, 1.0))
        assert verdict.strict
        assert verdict.alpha0 == pytest.approx(0.1)
        assert verdict.log_derivative0 == pytest.approx(-0.01)

    def test_exponential_weak(self):
        verdict = validate_rate_function(Exponential(0.1, 3.5))
        assert not verdict.strict
        assert verdict.alpha0 == pytest.approx(0.1)
        assert verdict.log_derivative0 == pytest.approx(-3.5)

    def test_base2_weak(self):
        assert not validate_rate_function(Base2(0.1, 3.5)).strict

    def test_unknown_schedule_type_rejected(self):
        class Constant(Schedule):
            def alpha(self, t):
                return 1.0

            def log_derivative(self, t):
                return 0.0

            def describe(self):
                return "constant"

        with pytest.raises(ScheduleError, match="unknown schedule type Constant"):
            validate_rate_function(Constant())

    @pytest.mark.parametrize(
        "bad",
        [
            (InversePower, (0.1, 1.0, -2.0), "exponent m must be positive and finite"
             " for alpha to decrease, got -2.0"),
            (InversePower, (0.1, 1.0, 0.0), "exponent m must be positive and finite"
             " for alpha to decrease, got 0.0"),
            (InversePower, (-0.1, 1.0, 2.0), "alpha0 must be positive and finite, got -0.1"),
            (InversePower, (0.1, 0.0, 2.0), "offset a must be positive and finite, got 0.0"),
            (Exponential, (0.1, -1.0), "decay rate beta must be positive and finite"
             " for alpha to decrease, got -1.0"),
            (Exponential, (0.0, 1.0), "alpha0 must be positive and finite, got 0.0"),
            (Base2, (0.1, 0.0), "decay rate beta must be positive and finite"
             " for alpha to decrease, got 0.0"),
            (Exponential, (math.nan, 1.0), "alpha0 must be positive and finite, got nan"),
            (Base2, (0.1, math.inf), "decay rate beta must be positive and finite"
             " for alpha to decrease, got inf"),
            # a^m underflows: alpha(0) = inf
            (InversePower, (1.0, 1e-320, 1e308), "alpha(0) must be positive and finite, got inf"),
            # a^m overflows: alpha(0) = 0
            (InversePower, (1.0, 2.0, 1e308), "alpha(0) must be positive and finite, got 0.0"),
        ],
    )
    def test_nonpositive_parameters_rejected(self, bad):
        # a schedule checks itself when it is built, directly or by replace()
        family, params, message = bad
        names = [f.name for f in dataclasses.fields(family)]
        good = family(*(1.0 for _ in names))
        for build in (
            lambda: family(*params),
            lambda: dataclasses.replace(good, **dict(zip(names, params))),
        ):
            with pytest.raises(ScheduleError) as excinfo:
                build()
            assert str(excinfo.value) == message


class TestParsing:
    def test_families(self):
        assert parse_schedule("invpow:alpha0=0.1,a=1,m=6") == InversePower(0.1, 1.0, 6.0)
        assert parse_schedule("exp:alpha0=0.1,beta=3.5") == Exponential(0.1, 3.5)
        assert parse_schedule("base2:alpha0=0.1,beta=3.5") == Base2(0.1, 3.5)

    def test_case_insensitive(self):
        assert parse_schedule("EXP:Alpha0=0.1,BETA=3.5") == Exponential(0.1, 3.5)

    def test_inverse_power_offset_defaults_to_one(self):
        assert parse_schedule("invpow:alpha0=0.1,m=2") == InversePower(0.1, 1.0, 2.0)

    @pytest.mark.parametrize("s", FAMILY_SAMPLES)
    def test_describe_round_trips(self, s):
        assert parse_schedule(s.describe()) == s

    @pytest.mark.parametrize(
        "text",
        [
            "",
            "exp",
            "gauss:alpha0=1",
            "exp:alpha0=0.1",
            "exp:alpha0=0.1,beta=abc",
            "exp:alpha0=0.1,gamma=2",
            "invpow:a=1,m=2",
        ],
    )
    def test_malformed_rejected(self, text):
        with pytest.raises(ScheduleError):
            parse_schedule(text)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("exp:alpha0=0.1,beta=3,beta=4", "repeated parameter 'beta' for family 'exp'"),
            ("invpow:alpha0=0.1,a=2,m=1,a=3", "repeated parameter 'a' for family 'invpow'"),
            ("base2:alpha0=0.1,ALPHA0=0.2,beta=1", "repeated parameter 'alpha0' for family 'base2'"),
        ],
    )
    def test_repeated_parameter_rejected(self, text, message):
        with pytest.raises(ScheduleError) as excinfo:
            parse_schedule(text)
        assert str(excinfo.value) == message

    def test_parsed_parameters_checked(self):
        with pytest.raises(ScheduleError, match="decay rate beta must be positive"):
            parse_schedule("exp:alpha0=0.1,beta=-1")
