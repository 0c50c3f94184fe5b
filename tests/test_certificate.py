from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from gnflow import (
    CertificateInputs,
    Exponential,
    FixedSteps,
    ScheduleError,
    SolverConfig,
    bound_curve,
    build_certificate,
    comparison_check,
    default_u0,
    run_flow,
)
from gnflow.certificate import Certificate, ComparisonVerdict
from gnflow.flow import RunReport, TrajectoryPoint
from gnflow.synthetic import certified_diagonal_instance


def rk4_riccati(c1, c2, c3, u0, t_grid):
    """Independent fixed-step RK4 integration of du/dt = c1 u^2 - c2 u + c3,
    sampled at the (sorted, uniform) times in t_grid."""

    def f(u):
        return c1 * u * u - c2 * u + c3

    samples = [u0]
    u = u0
    steps_per_interval = 200  # dt ~ 1e-4 for the spans used below
    for t_lo, t_hi in zip(t_grid[:-1], t_grid[1:]):
        h = (t_hi - t_lo) / steps_per_interval
        for _ in range(steps_per_interval):
            k1 = f(u)
            k2 = f(u + 0.5 * h * k1)
            k3 = f(u + 0.5 * h * k2)
            k4 = f(u + h * k3)
            u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
        samples.append(u)
    return np.asarray(samples)


def random_passing_certificate(rng) -> Certificate:
    while True:
        inputs = CertificateInputs(
            n1=rng.uniform(0.2, 2.0),
            n2=rng.uniform(0.2, 2.0),
            v_norm=rng.uniform(0.01, 0.3),
            alpha0=rng.uniform(0.05, 1.0),
            logderiv0=-rng.uniform(0.001, 0.3),
            radius=10.0,
        )
        cert = build_certificate(inputs)
        if cert.passed:
            return cert


class TestBuildCertificate:
    def test_degenerate_source_free_case(self):
        cert = build_certificate(
            CertificateInputs(
                n1=1.0, n2=1.0, v_norm=0.0, alpha0=0.5, logderiv0=-0.1, radius=10.0
            )
        )
        assert cert.c1 == pytest.approx(0.5)
        assert cert.c2 == pytest.approx(0.9)
        assert cert.c3 == 0.0
        assert cert.u1 == pytest.approx(0.0)
        assert cert.u2 == pytest.approx(cert.c2 / cert.c1)

    def test_worked_example(self):
        # independent quadratic-root oracle: np.roots([0.5, -0.7, 0.1]) gives
        # 0.16148351928654957 and 1.2385164807134505 with sqrt(0.29) spread
        cert = build_certificate(
            CertificateInputs(
                n1=1.0, n2=1.0, v_norm=0.1, alpha0=1.0, logderiv0=-0.1, radius=10.0
            )
        )
        assert cert.c1 == pytest.approx(0.5)
        assert cert.c2 == pytest.approx(0.7)
        assert cert.c3 == pytest.approx(0.1)
        assert cert.c == pytest.approx(math.sqrt(0.29), rel=1e-12)
        assert cert.u1 == pytest.approx(0.16148351928654957, rel=1e-10)
        assert cert.u2 == pytest.approx(1.2385164807134505, rel=1e-10)
        assert cert.passed

    def test_large_source_norm_fails_positivity(self):
        cert = build_certificate(
            CertificateInputs(
                n1=1.0, n2=1.0, v_norm=0.5, alpha0=1.0, logderiv0=-0.1, radius=10.0
            )
        )
        assert cert.c2 < 0
        assert not cert.condition("positivity").passed
        assert not cert.passed
        assert cert.u1 is None and cert.u2 is None and cert.c is None

    def test_radius_condition(self):
        inputs = CertificateInputs(
            n1=1.0, n2=1.0, v_norm=0.1, alpha0=1.0, logderiv0=-0.1, radius=0.1
        )
        cert = build_certificate(inputs)
        assert not cert.condition("radius").passed  # needs 0.7 <= 0.1
        ok = build_certificate(dataclasses.replace(inputs, radius=0.71))
        assert ok.condition("radius").passed

    def test_initial_ratio_condition(self):
        base = CertificateInputs(
            n1=1.0, n2=1.0, v_norm=0.1, alpha0=1.0, logderiv0=-0.1, radius=10.0, w0=0.5
        )
        assert build_certificate(base).condition("initial_ratio").passed  # 0.5 < 0.7
        bad = dataclasses.replace(base, w0=0.8)
        assert not build_certificate(bad).condition("initial_ratio").passed

    def test_root_identities_on_random_certificates(self):
        rng = np.random.default_rng(50)
        for _ in range(30):
            cert = random_passing_certificate(rng)
            for root in (cert.u1, cert.u2):
                residual = cert.c1 * root**2 - cert.c2 * root + cert.c3
                assert abs(residual) <= 1e-12 * max(1.0, cert.c2 * root)
            assert cert.u1 * cert.u2 == pytest.approx(cert.c3 / cert.c1, rel=1e-10, abs=1e-14)
            assert cert.u1 + cert.u2 == pytest.approx(cert.c2 / cert.c1, rel=1e-12)
            assert 0 <= cert.u1 < cert.u2
            assert cert.u1 < cert.rate_cap < cert.u2

    def test_discriminant_iff_decay_rate(self):
        rng = np.random.default_rng(51)
        for _ in range(40):
            inputs = CertificateInputs(
                n1=rng.uniform(0.2, 3.0),
                n2=rng.uniform(0.2, 3.0),
                v_norm=rng.uniform(0.0, 0.6),
                alpha0=rng.uniform(0.05, 1.0),
                logderiv0=-rng.uniform(0.0, 1.0),
                radius=100.0,
            )
            cert = build_certificate(inputs)
            disc = cert.c2**2 - 2 * inputs.n1 * inputs.n2 * inputs.v_norm
            assert cert.condition("discriminant").passed == (disc > 0)
            assert (cert.c is not None and cert.c > 0) == (disc > 0)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            CertificateInputs(n1=0.0, n2=1.0, v_norm=0.1, alpha0=1.0, logderiv0=0.0, radius=1.0)
        with pytest.raises(ValueError):
            CertificateInputs(n1=1.0, n2=1.0, v_norm=-0.1, alpha0=1.0, logderiv0=0.0, radius=1.0)
        with pytest.raises(ValueError):
            CertificateInputs(n1=1.0, n2=1.0, v_norm=0.1, alpha0=0.0, logderiv0=0.0, radius=1.0)

    def test_growing_schedule_rejected(self):
        # logderiv0 > 0 would raise c2 and pass the certificate for a
        # schedule that grows; zero (a constant schedule) stays accepted
        with pytest.raises(ValueError, match="logderiv0 must be nonpositive"):
            CertificateInputs(n1=1.0, n2=1.0, v_norm=0.3, alpha0=1.0, logderiv0=0.5, radius=10.0)
        CertificateInputs(n1=1.0, n2=1.0, v_norm=0.3, alpha0=1.0, logderiv0=0.0, radius=10.0)


WORKED_CERT = build_certificate(
    CertificateInputs(
        n1=1.0, n2=1.0, v_norm=0.1, alpha0=1.0, logderiv0=-0.1, radius=10.0
    )
)


class TestBoundCurve:
    def test_initial_condition(self):
        assert bound_curve(WORKED_CERT, 0.7, 0.0) == pytest.approx(0.7, rel=1e-14)

    def test_asymptote(self):
        t_far = 100.0 / WORKED_CERT.c
        assert abs(bound_curve(WORKED_CERT, 0.7, t_far) - WORKED_CERT.u1) <= 1e-10

    def test_against_rk4_oracle_at_t_one(self):
        oracle = rk4_riccati(0.5, 0.7, 0.1, 0.7, np.linspace(0.0, 1.0, 2))[-1]
        assert bound_curve(WORKED_CERT, 0.7, 1.0) == pytest.approx(oracle, abs=1e-8)

    def test_against_rk4_oracle_random_certificates(self):
        rng = np.random.default_rng(52)
        for _ in range(20):
            cert = random_passing_certificate(rng)
            u0 = rng.uniform(cert.u1 + 0.05 * (cert.u2 - cert.u1),
                             cert.u2 - 0.05 * (cert.u2 - cert.u1))
            t_grid = np.linspace(0.0, 20.0 / cert.c, 101)
            oracle = rk4_riccati(cert.c1, cert.c2, cert.c3, u0, t_grid)
            closed = bound_curve(cert, u0, t_grid)
            assert np.max(np.abs(closed - oracle)) <= 1e-7

    def test_strictly_decreasing(self):
        t = np.linspace(0.0, 30.0, 1000)
        u = bound_curve(WORKED_CERT, 0.7, t)
        assert np.all(np.diff(u) < 0)

    def test_u0_outside_interval_rejected(self):
        with pytest.raises(ValueError):
            bound_curve(WORKED_CERT, WORKED_CERT.u2 + 0.1, 1.0)
        with pytest.raises(ValueError):
            bound_curve(WORKED_CERT, WORKED_CERT.u1, 1.0)

    def test_failing_certificate_rejected(self):
        failing = build_certificate(
            CertificateInputs(
                n1=1.0, n2=1.0, v_norm=0.5, alpha0=1.0, logderiv0=-0.1, radius=10.0
            )
        )
        with pytest.raises(ValueError):
            bound_curve(failing, 0.5, 1.0)

    def test_default_u0_clamped_inside(self):
        u0 = default_u0(WORKED_CERT, w0=0.01)
        assert WORKED_CERT.u1 < u0 < WORKED_CERT.u2
        assert u0 == pytest.approx(0.5 * (WORKED_CERT.u1 + WORKED_CERT.u2))
        u0_big = default_u0(WORKED_CERT, w0=WORKED_CERT.u2 * 2)
        assert WORKED_CERT.u1 < u0_big < WORKED_CERT.u2


def synthetic_report(samples) -> RunReport:
    from gnflow import Grid, GridFunction

    grid = Grid(1.0, 3)
    x = GridFunction.constant(grid, 0.0)
    return RunReport(
        steps_taken=len(samples) - 1,
        final_x=x,
        discrepancy=0.0,
        error_sup=0.0,
        error_l2=0.0,
        trajectory=[
            TrajectoryPoint(step=k, t=t, alpha=1.0, sigma=0.0, w=w, error_sup=0.0)
            for k, (t, w) in enumerate(samples)
        ],
        stop_reason="fixed_steps",
    )


def scalar_comparison_check(cert, report, u0, tolerance=1e-12) -> ComparisonVerdict:
    """Reference comparison check, one scalar majorant value per sample."""
    samples = [(p.step, p.t, p.w) for p in report.trajectory if p.w is not None]
    min_margin = math.inf
    first_violation = None
    for step, t, w in samples:
        bound = bound_curve(cert, u0, t)
        min_margin = min(min_margin, bound - w)
        if w > bound + tolerance and first_violation is None:
            first_violation = (step, t, w, bound)
    return ComparisonVerdict(first_violation is None, len(samples), min_margin, first_violation)


class TestComparisonCheck:
    def test_zero_trajectory_passes(self):
        report = synthetic_report([(0.0, 0.0), (1.0, 0.0), (2.0, 0.0)])
        verdict = comparison_check(WORKED_CERT, report, u0=0.7)
        assert verdict.passed
        assert verdict.checked == 3
        assert verdict.min_margin > 0

    def test_corrupted_sample_flagged(self):
        bound_at_1 = bound_curve(WORKED_CERT, 0.7, 1.0)
        report = synthetic_report([(0.0, 0.1), (1.0, bound_at_1 + 0.05), (2.0, 0.1)])
        verdict = comparison_check(WORKED_CERT, report, u0=0.7)
        assert not verdict.passed
        assert verdict.first_violation[0] == 1

    def test_matches_scalar_reference_on_certified_run(self):
        inst = certified_diagonal_instance()
        cert = inst.certificate
        u0 = default_u0(cert, inst.w0)
        config = SolverConfig(stepper="rk", tau=0.1, max_steps=300, stop_rule=FixedSteps(300))
        report = run_flow(inst.model, inst.schedule, inst.x0, config, reference=inst.solution)
        verdict = comparison_check(cert, report, u0)
        assert verdict.passed and verdict.checked == 301
        assert verdict == scalar_comparison_check(cert, report, u0)

        # doctor the run to leave the majorant at samples 137 and 200
        trajectory = list(report.trajectory)
        for k in (137, 200):
            p = trajectory[k]
            bound = bound_curve(cert, u0, p.t)
            trajectory[k] = dataclasses.replace(p, w=bound + 1e-9)
        doctored = dataclasses.replace(report, trajectory=trajectory)
        verdict = comparison_check(cert, doctored, u0)
        assert verdict == scalar_comparison_check(cert, doctored, u0)
        p = trajectory[137]
        assert verdict.first_violation == (137, p.t, p.w, bound_curve(cert, u0, p.t))
        assert not verdict.passed and verdict.min_margin < 0

    def test_report_without_reference_rejected(self):
        report = synthetic_report([(0.0, 0.0)])
        report = dataclasses.replace(
            report,
            trajectory=[TrajectoryPoint(step=0, t=0.0, alpha=1.0, sigma=0.0)],
        )
        with pytest.raises(ValueError):
            comparison_check(WORKED_CERT, report, u0=0.7)


class TestCertifiedDiagonalInstance:
    def test_certificate_passes_with_constructed_source(self):
        inst = certified_diagonal_instance()
        assert inst.certificate.passed
        assert inst.certificate.inputs.source == "constructed"
        # source representation is explicit: x_hat - x0 = (phi'* phi') v
        # (atol covers the eps-level cancellation of re-deriving the offset)
        lhs = inst.solution.values - inst.x0.values
        rhs = inst.model.spectrum**2 * inst.v.values
        np.testing.assert_allclose(lhs, rhs, rtol=1e-12, atol=1e-15)

    def test_growing_schedule_rejected(self):
        with pytest.raises(ScheduleError, match="beta must be positive"):
            certified_diagonal_instance(schedule=Exponential(0.1, -0.5))

    def test_flow_stays_under_majorant(self):
        inst = certified_diagonal_instance()
        cert = inst.certificate
        config = SolverConfig(
            stepper="euler", tau=0.1, max_steps=600, stop_rule=FixedSteps(600)
        )
        report = run_flow(
            inst.model, inst.schedule, inst.x0, config, reference=inst.solution
        )
        assert not report.diverged
        ws = [p.w for p in report.trajectory]
        assert all(w < cert.rate_cap for w in ws)
        verdict = comparison_check(cert, report, u0=default_u0(cert, inst.w0))
        assert verdict.passed
        assert verdict.min_margin > 0
