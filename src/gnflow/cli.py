"""Command-line interface.

Subcommands:
  solve              one flow run on the gravimetry benchmark
  table              a (schedule x tau) sweep driven by a JSON config file
  certify            evaluate the convergence certificate for given constants
  validate-schedule  check a schedule descriptor against the rate-function
                     requirements

Exit codes: 0 success, 1 runtime failure, 2 usage or validation error.
"""

from __future__ import annotations

import argparse
import csv
import sys
from typing import Optional, Sequence

from .certificate import CertificateInputs, build_certificate
from .errors import NumericalError, ScheduleError
from .flow import STEPPERS, SolverConfig, parse_stop_rule, run_flow
from .gravimetry import GravimetryParams
from .harness import (
    RunSummary,
    build_problem,
    load_spec,
    run_table,
    summary_cells,
    trajectory_export,
    write_table_csv,
    write_table_rows,
)
from .schedules import format_number, parse_schedule, validate_rate_function

USAGE_ERROR = 2
RUNTIME_ERROR = 1

SOLVE_HEADER = (
    "stepper", "schedule", "tau", "N", "delta_sup", "delta_l2", "sigma", "diverged", "stop_reason",
)


def build_parser() -> argparse.ArgumentParser:
    config, params = SolverConfig, GravimetryParams  # the flag defaults
    parser = argparse.ArgumentParser(
        prog="gnflow",
        description="Regularized Gauss-Newton flow solver and benchmark harness",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    solve = sub.add_parser("solve", help="run the flow once on the gravimetry benchmark")
    solve.add_argument("--schedule", required=True, help="e.g. exp:alpha0=0.1,beta=3.5")
    solve.add_argument(
        "--tau", type=float, default=config.tau, help="time step (default %(default)s)"
    )
    solve.add_argument("--stepper", choices=STEPPERS, default=config.stepper)
    solve.add_argument("--max-steps", type=int, default=config.max_steps)
    stop_help = "fixed:N | floor:tol | increase:patience (default %(default)s)"
    solve.add_argument("--stop", default=config.stop_rule.describe(), help=stop_help)
    solve.add_argument("--grid-n", type=int, default=params.node_count, help="node count (odd)")
    solve.add_argument("--H", type=float, default=params.depth, help="source depth")
    solve.add_argument(
        "--l", type=float, default=params.half_width, help="half-width of the interval"
    )
    solve.add_argument("--rho", type=float, default=params.density, help="density")
    solve.add_argument("--epsilon", type=float, default=params.epsilon, help="domain margin")
    solve.add_argument("--record-every", type=int, default=config.record_every)
    solve.add_argument("--out", help="write the summary CSV here instead of stdout")
    solve.add_argument("--trajectory", help="write per-step trajectory CSV here")
    solve.set_defaults(func=_cmd_solve)

    table = sub.add_parser("table", help="run a sweep from a JSON config file")
    table.add_argument("--config", required=True, help="JSON config path")
    table.add_argument("--out", help="output CSV (overrides config output_path)")
    table.set_defaults(func=_cmd_table)

    certify = sub.add_parser("certify", help="evaluate the convergence certificate")
    certify.add_argument("--n1", type=float, required=True, help="bound on ||phi'||")
    certify.add_argument("--n2", type=float, required=True, help="bound on ||phi''||")
    certify.add_argument("--vnorm", type=float, required=True, help="source element norm")
    certify.add_argument("--alpha0", type=float, required=True, help="alpha(0)")
    certify.add_argument(
        "--logderiv0", type=float, required=True, help="(d/dt ln alpha)(0)"
    )
    certify.add_argument("--R", type=float, required=True, help="ball radius")
    certify.add_argument("--w0", type=float, default=None, help="||x0-x_hat||/alpha(0)")
    certify.set_defaults(func=_cmd_certify)

    validate = sub.add_parser(
        "validate-schedule", help="check a schedule descriptor"
    )
    validate.add_argument("--schedule", required=True)
    validate.set_defaults(func=_cmd_validate_schedule)
    return parser


def _fail(message: str, code: int) -> int:
    print(f"gnflow: {message}", file=sys.stderr)
    return code


def _cmd_solve(args) -> int:
    try:
        schedule = parse_schedule(args.schedule)
        stop_rule = parse_stop_rule(args.stop)
        params = GravimetryParams(
            half_width=args.l,
            depth=args.H,
            density=args.rho,
            epsilon=args.epsilon,
            node_count=args.grid_n,
        )
        config = SolverConfig(
            stepper=args.stepper,
            tau=args.tau,
            max_steps=args.max_steps,
            stop_rule=stop_rule,
            record_every=args.record_every,
        )
        # an inadmissible geometry raises DomainError here: a usage error
        model, x0, reference = build_problem(params)
    except (ScheduleError, ValueError) as exc:
        return _fail(str(exc), USAGE_ERROR)

    try:
        report = run_flow(model, schedule, x0, config, reference=reference)
        cells = summary_cells(RunSummary.of(report))
        tau = format_number(args.tau)
        row = [args.stepper, schedule.describe(), tau, *cells, report.stop_reason]
        rows = [SOLVE_HEADER, row]
        if args.out:
            with open(args.out, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        else:
            csv.writer(sys.stdout).writerows(rows)
        if args.trajectory:
            trajectory_export(report, args.trajectory)
    # ValueError: a non-finite linearization or discrepancy at x0, or a NUL
    # byte in a path
    except (ValueError, NumericalError, OSError) as exc:
        return _fail(str(exc), RUNTIME_ERROR)
    return 0


def _cmd_table(args) -> int:
    try:
        spec = load_spec(args.config)
    except OSError as exc:
        return _fail(f"cannot read config: {exc}", USAGE_ERROR)
    except (ScheduleError, ValueError) as exc:
        return _fail(f"bad config: {exc}", USAGE_ERROR)
    out = args.out or spec.output_path
    try:
        rows = run_table(spec)
        if out:
            write_table_csv(rows, out)
        else:
            write_table_rows(rows, sys.stdout)
    except (ValueError, NumericalError, OSError) as exc:
        return _fail(str(exc), RUNTIME_ERROR)
    return 0


def _cmd_certify(args) -> int:
    try:
        inputs = CertificateInputs(
            n1=args.n1,
            n2=args.n2,
            v_norm=args.vnorm,
            alpha0=args.alpha0,
            logderiv0=args.logderiv0,
            radius=args.R,
            w0=args.w0,
        )
    except ValueError as exc:
        return _fail(str(exc), USAGE_ERROR)
    cert = build_certificate(inputs)
    print(f"C1={cert.c1:.6g}")
    print(f"C2={cert.c2:.6g}")
    print(f"C3={cert.c3:.6g}")
    if cert.c is not None:
        print(f"c={cert.c:.6g}")
        print(f"u1={cert.u1:.6g}")
        print(f"u2={cert.u2:.6g}")
    print(f"rate_cap={cert.rate_cap:.6g}")
    for v in cert.conditions:
        status = "PASS" if v.passed else "FAIL"
        print(f"condition {v.name}: {status} ({v.detail})")
    print(f"certificate: {'PASS' if cert.passed else 'FAIL'}")
    return 0


def _cmd_validate_schedule(args) -> int:
    try:
        schedule = parse_schedule(args.schedule)
        verdict = validate_rate_function(schedule)
    except ScheduleError as exc:
        return _fail(str(exc), USAGE_ERROR)
    kind = "strict" if verdict.strict else "weak (constant log-derivative)"
    print(f"schedule {schedule.describe()}: PASS [{kind}]")
    print(f"alpha(0)={verdict.alpha0:.6g}")
    print(f"logderiv(0)={verdict.log_derivative0:.6g}")
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
