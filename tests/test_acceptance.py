"""Acceptance suite.

One test per acceptance criterion; each prints a PASS/FAIL line (visible
with ``pytest -s`` or in the captured output of failures).  Reference values
for the gravimetry benchmark come from the published study this benchmark
tracks; its stopping rule and error norm are unpublished, so absolute
comparisons use multiplicative windows and trend assertions rather than
digit matches (criterion 9 records this policy).

Criterion 7 is split: the step-size-0.6 stepper-gap half encodes a
reference-table row this implementation demonstrably cannot reproduce (the
Euler integration is stable there and tracks the midpoint scheme to within
~20%); that test is expected to fail and is kept red deliberately.
"""

from __future__ import annotations

import numpy as np

from gnflow import (
    CertificateInputs,
    Exponential,
    FixedSteps,
    Grid,
    GridFunction,
    InversePower,
    JacobianMatrix,
    SolverConfig,
    bound_curve,
    build_certificate,
    comparison_check,
    default_u0,
    initial_guess,
    integrate,
    run_flow,
    simpson_weights,
    true_interface,
)
from gnflow.schedules import Base2
from gnflow.synthetic import certified_diagonal_instance

# acceptance policy: multiplicative windows around reference-table values
TABLE1_FACTOR = 3.0
TABLE1_DELTA_RANGE = (1.1e-2, 2.3e-2)  # reference errors across Table-1 rows
TABLE1_SIGMA_CAP = 1e-2
TABLE2_TREND_FACTOR = 5.0
TABLE3_TREND_FACTOR = 5.0
TABLE4_DELTA_CAP = 5e-2

# reference step counts per beta in the exponential sweep (tau = 0.1)
TABLE2_REFERENCE_N = {2: 156, 3: 100, 4: 73, 9: 26, 10: 23}


def report_line(number, name, passed):
    print(f"ACCEPTANCE {number} ({name}): {'PASS' if passed else 'FAIL'}")


def test_criterion_1_quadrature():
    rng = np.random.default_rng(101)
    exact_ok = True
    for l, n in [(1.0, 3), (1.0, 11), (1.0, 201), (2.0, 41)]:
        grid = Grid(l, n)
        w = simpson_weights(grid)
        for _ in range(25):
            c = rng.uniform(-10, 10, size=4)
            f = GridFunction(
                grid,
                c[0] + c[1] * grid.nodes + c[2] * grid.nodes**2 + c[3] * grid.nodes**3,
            )
            analytic = 2 * c[0] * l + (2.0 / 3.0) * c[2] * l**3
            exact_ok &= abs(integrate(f, w) - analytic) <= 1e-12

    exact = np.exp(1) - np.exp(-1)

    def quad_error(n):
        grid = Grid(1.0, n)
        f = GridFunction(grid, np.exp(grid.nodes))
        return abs(integrate(f, simpson_weights(grid)) - exact)

    order = np.log2(quad_error(11) / quad_error(21))
    order_ok = 3.8 <= order <= 4.2

    report_line(1, "simpson quadrature", exact_ok and order_ok)
    assert exact_ok, "degree<=3 polynomial not integrated exactly"
    assert order_ok, f"measured convergence order {order:.3f} outside 4 +- 0.2"


def test_criterion_2_jacobian_consistency(benchmark_model):
    params = benchmark_model.params
    quad = benchmark_model.quadrature
    rng = np.random.default_rng(102)
    eps = 1e-6
    ok = True
    for x in (initial_guess(params), true_interface(params)):
        jac = benchmark_model.jacobian(x)
        for _ in range(10):
            h = rng.uniform(-1, 1, size=params.grid.node_count)
            plus = benchmark_model.residual(GridFunction(params.grid, x.values + eps * h))
            minus = benchmark_model.residual(GridFunction(params.grid, x.values - eps * h))
            fd = (plus.values - minus.values) / (2 * eps)
            jh = jac.apply(h)
            err = np.sqrt(quad.weights @ (fd - jh) ** 2)
            scale = np.sqrt(quad.weights @ jh**2)
            ok &= err <= 1e-6 * max(1.0, scale)
    report_line(2, "jacobian vs finite differences", ok)
    assert ok


def test_criterion_3_spectral_estimates():
    rng = np.random.default_rng(103)
    worst_contraction = 0.0
    worst_resolvent = 0.0
    for _ in range(200):
        n = int(rng.choice([3, 5, 7, 9, 11, 13, 15, 17, 19]))
        grid = Grid(float(rng.uniform(0.5, 2.0)), n)
        quad = simpson_weights(grid)
        jac = JacobianMatrix(rng.uniform(-1, 1, size=(n, n)), quad)
        s = np.sqrt(quad.weights)
        b = (jac.matrix * s[:, None]) / s[None, :]  # dense B = S J S^-1
        m = b.T @ b
        eye = np.eye(n)
        for alpha in (1e-6, 1e-3, 1.0, 10.0):
            contraction = np.linalg.norm(np.linalg.solve(m + alpha * eye, m), ord=2)
            resolvent = np.linalg.norm(np.linalg.inv(m + alpha * eye), ord=2)
            worst_contraction = max(worst_contraction, contraction)
            worst_resolvent = max(worst_resolvent, resolvent * alpha)
    ok = worst_contraction <= 1.0 + 1e-10 and worst_resolvent <= 1.0 + 1e-10
    report_line(3, "spectral estimates", ok)
    assert worst_contraction <= 1.0 + 1e-10
    assert worst_resolvent <= 1.0 + 1e-10  # alpha * ||(J*J+aI)^-1|| <= 1


def test_criterion_4_riccati_oracle():
    rng = np.random.default_rng(104)
    worst = 0.0
    checked = 0
    while checked < 20:
        inputs = CertificateInputs(
            n1=rng.uniform(0.2, 2.0),
            n2=rng.uniform(0.2, 2.0),
            v_norm=rng.uniform(0.01, 0.3),
            alpha0=rng.uniform(0.05, 1.0),
            logderiv0=-rng.uniform(0.001, 0.3),
            radius=10.0,
        )
        cert = build_certificate(inputs)
        if not cert.passed:
            continue
        checked += 1
        gap = cert.u2 - cert.u1
        u0 = rng.uniform(cert.u1 + 0.05 * gap, cert.u2 - 0.05 * gap)
        t_grid = np.linspace(0.0, 20.0 / cert.c, 201)
        # independent fixed-step RK4 integration of u' = c1 u^2 - c2 u + c3
        u = u0
        oracle = [u0]
        substeps = 100
        for t_lo, t_hi in zip(t_grid[:-1], t_grid[1:]):
            h = (t_hi - t_lo) / substeps
            for _ in range(substeps):
                k1 = cert.c1 * u * u - cert.c2 * u + cert.c3
                u2_ = u + 0.5 * h * k1
                k2 = cert.c1 * u2_ * u2_ - cert.c2 * u2_ + cert.c3
                u3_ = u + 0.5 * h * k2
                k3 = cert.c1 * u3_ * u3_ - cert.c2 * u3_ + cert.c3
                u4_ = u + h * k3
                k4 = cert.c1 * u4_ * u4_ - cert.c2 * u4_ + cert.c3
                u = u + (h / 6.0) * (k1 + 2 * k2 + 2 * k3 + k4)
            oracle.append(u)
        closed = bound_curve(cert, u0, t_grid)
        worst = max(worst, float(np.max(np.abs(closed - np.asarray(oracle)))))
    ok = worst <= 1e-7
    report_line(4, "riccati bound vs integrator", ok)
    assert ok, f"max closed-form vs RK4 deviation {worst:.3e} > 1e-7"


def test_criterion_5_certified_synthetic_problem():
    inst = certified_diagonal_instance()
    cert = inst.certificate
    assert cert.passed and cert.inputs.source == "constructed"
    config = SolverConfig(
        stepper="euler", tau=0.1, max_steps=600, stop_rule=FixedSteps(600)
    )
    report = run_flow(inst.model, inst.schedule, inst.x0, config, reference=inst.solution)
    ws = [p.w for p in report.trajectory]
    under_cap = all(w < cert.rate_cap for w in ws)
    verdict = comparison_check(cert, report, u0=default_u0(cert, inst.w0))
    final_ratio = ws[-1]
    bounded = final_ratio < cert.rate_cap
    ok = (not report.diverged) and under_cap and verdict.passed and bounded
    report_line(5, "certified synthetic flow", ok)
    assert not report.diverged
    assert under_cap, "scaled error crossed c2/(2 c1)"
    assert verdict.passed, f"majorant violated at {verdict.first_violation}"
    assert bounded


def test_criterion_6_table1_reproduction(benchmark_model):
    params = benchmark_model.params
    x0 = initial_guess(params)
    ref = true_interface(params)
    lo = TABLE1_DELTA_RANGE[0] / TABLE1_FACTOR
    hi = TABLE1_DELTA_RANGE[1] * TABLE1_FACTOR
    schedules = [
        InversePower(0.1, 1.0, 10.0),
        Exponential(0.1, 3.5),
        Base2(0.1, 3.5),
    ]
    results = {}
    ok = True
    for schedule in schedules:
        for stepper in ("euler", "rk"):
            config = SolverConfig(stepper=stepper, tau=0.1, max_steps=400)
            report = run_flow(benchmark_model, schedule, x0, config, reference=ref)
            results[(schedule.describe(), stepper)] = report
            ok &= (not report.diverged) and lo <= report.error_sup <= hi
            ok &= report.discrepancy <= TABLE1_SIGMA_CAP
    report_line(6, "table-1 reproduction", ok)
    for key, report in results.items():
        assert not report.diverged, key
        assert lo <= report.error_sup <= hi, (key, report.error_sup)
        assert report.discrepancy <= TABLE1_SIGMA_CAP, (key, report.discrepancy)


def test_criterion_7_table2_beta_gap(benchmark_model):
    # replay the reference sweep at its own step counts (Euler, tau = 0.1):
    # accuracy at beta in {2,3,4} must beat beta in {9,10} by 5x (L2 error)
    params = benchmark_model.params
    x0 = initial_guess(params)
    ref = true_interface(params)
    errors = {}
    for beta, n_ref in TABLE2_REFERENCE_N.items():
        config = SolverConfig(
            stepper="euler", tau=0.1, max_steps=n_ref, stop_rule=FixedSteps(n_ref)
        )
        report = run_flow(
            benchmark_model, Exponential(0.1, float(beta)), x0, config, reference=ref
        )
        assert not report.diverged, beta
        errors[beta] = report.error_l2
    worst_mid = max(errors[b] for b in (2, 3, 4))
    best_high = min(errors[b] for b in (9, 10))
    gap = best_high / worst_mid
    ok = gap >= TABLE2_TREND_FACTOR
    report_line(7, f"table-2 beta gap (replay, L2, gap {gap:.2f}x)", ok)
    assert ok, f"accuracy gap {gap:.2f}x below {TABLE2_TREND_FACTOR}x: {errors}"


def test_criterion_7_table3_stepper_gap(benchmark_model):
    # reference row at tau=0.6, beta=3 reports the midpoint scheme 8.5x more
    # accurate than Euler; measured here both steppers agree to ~20% at every
    # stopping index (the Euler map is stable for tau < 2), so this gate is
    # expected to fail and is intentionally left red
    params = benchmark_model.params
    x0 = initial_guess(params)
    ref = true_interface(params)
    reports = {}
    for stepper in ("euler", "rk"):
        config = SolverConfig(
            stepper=stepper, tau=0.6, max_steps=16, stop_rule=FixedSteps(16)
        )
        reports[stepper] = run_flow(
            benchmark_model, Exponential(0.1, 3.0), x0, config, reference=ref
        )
    delta_e = reports["euler"].error_l2
    delta_r = reports["rk"].error_l2
    ok = delta_r <= delta_e / TABLE3_TREND_FACTOR
    report_line(
        7,
        f"table-3 stepper gap (E {delta_e:.3e} vs R {delta_r:.3e})",
        ok,
    )
    assert ok, (
        f"midpoint error {delta_r:.3e} not {TABLE3_TREND_FACTOR}x below Euler "
        f"error {delta_e:.3e}; both steppers are stable at tau=0.6 here"
    )


def test_criterion_8_table4_alpha0_range(benchmark_model):
    params = benchmark_model.params
    x0 = initial_guess(params)
    ref = true_interface(params)
    ok = True
    results = {}
    for alpha0 in (1e-3, 1e-2, 1e-1):
        for stepper in ("euler", "rk"):
            config = SolverConfig(stepper=stepper, tau=0.1, max_steps=400)
            report = run_flow(
                benchmark_model, Exponential(alpha0, 3.5), x0, config, reference=ref
            )
            results[(alpha0, stepper)] = report
            ok &= (not report.diverged) and report.error_sup <= TABLE4_DELTA_CAP
            ok &= report.error_l2 <= TABLE4_DELTA_CAP
    report_line(8, "table-4 alpha0 range", ok)
    for key, report in results.items():
        assert not report.diverged, key
        assert report.error_sup <= TABLE4_DELTA_CAP, (key, report.error_sup)
        assert report.error_l2 <= TABLE4_DELTA_CAP, (key, report.error_l2)


def test_criterion_9_reproducibility_disclosure():
    # the reference tables' exact step counts and error digits are not
    # reproducible from the published description (stopping rule and error
    # norm unstated); this suite therefore asserts multiplicative windows
    # (criteria 6-8) plus the exact property gates (criteria 1-5) instead of
    # digit equality, and the windows are pinned here
    policy = (
        TABLE1_FACTOR == 3.0
        and TABLE1_DELTA_RANGE == (1.1e-2, 2.3e-2)
        and TABLE1_SIGMA_CAP == 1e-2
        and TABLE2_TREND_FACTOR == 5.0
        and TABLE3_TREND_FACTOR == 5.0
        and TABLE4_DELTA_CAP == 5e-2
    )
    report_line(9, "factor/trend acceptance policy pinned", policy)
    assert policy
