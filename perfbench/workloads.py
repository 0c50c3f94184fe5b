"""Workloads of the gnflow benchmark.

Each workload turns a seed into inputs, builds its problem once (the part
`setup_s` times), and runs one unit at a time: one README sweep, one n=801
solve, or one certified run plus its majorant check.  A unit returns the
accepted flow steps, its largest sup-norm error and the checks it failed.

The seed draws schedule parameters only, from bands narrow enough that every
seed asks for nearly the same number of flow steps: the benchmark compares
runs made with different seeds, so the seed must not move the wall time.
gnflow receives only the generated schedules and configs.
"""

from __future__ import annotations

import csv
import io
import json
import math
import random
from dataclasses import dataclass, field
from pathlib import Path

import scipy.linalg

import gnflow.certificate
import gnflow.cli
import gnflow.flow
import gnflow.harness
from gnflow import (
    Base2,
    DiagonalLinearModel,
    Exponential,
    FixedSteps,
    GravimetryModel,
    GravimetryParams,
    GridFunction,
    InversePower,
    JacobianMatrix,
    SolverConfig,
    certified_diagonal_instance,
    default_u0,
    initial_guess,
    parse_schedule,
    true_interface,
)
from gnflow.harness import TABLE_HEADER, build_problem, load_spec

# Table-1 cap on the discrepancy of the selected iterate of a gravimetry run.
DISCREPANCY_CAP = 1e-2

# The README sweep's beta=1 row is the only gravimetry run that stops on
# discrepancy_increase rather than alpha_floor, so every sweep keeps it.
SWEEP_FIXED_SCHEDULE = "exp:alpha0=0.1,beta=1"
SWEEP_DIVERGED_COLUMNS = ("euler_diverged", "rk_diverged")
SWEEP_SIGMA_COLUMNS = ("sigma_E", "sigma_R")
SWEEP_ERROR_COLUMNS = ("delta_E_sup", "delta_R_sup")
CERTIFIED_STEPS = 2000


@dataclass
class UnitOutcome:
    """What one unit did: accepted flow steps, the largest sup-norm error of
    its selected iterates, and a description of each check it failed."""

    steps: int
    error_sup: float
    problems: list[str] = field(default_factory=list)


def sweep_config(seed: int) -> dict:
    """README sweep config with the fixed beta=1 row and two seeded rows.

    The seeded rows come from the Table-1 families: `exp` or `base2` with a
    decay rate near 3 per unit time (base2's beta is scaled by 1/ln 2 so both
    families stop on alpha_floor after about 93 steps), and `invpow` with m
    near 10 (about 148 steps).
    """
    rng = random.Random(seed)
    rate = rng.uniform(2.95, 3.05)
    if rng.random() < 0.5:
        first = f"exp:alpha0=0.1,beta={rate:.4f}"
    else:
        first = f"base2:alpha0=0.1,beta={rate / math.log(2.0):.4f}"
    second = f"invpow:alpha0=0.1,a=1,m={rng.uniform(9.9, 10.1):.4f}"
    return {
        "problem": {"l": 1.0, "H": 2.0, "rho": 1.0, "epsilon": 0.001, "grid_n": 201},
        "schedules": [SWEEP_FIXED_SCHEDULE, first, second],
        "tau_values": [0.1],
        "steppers": ["euler", "rk"],
        "stop_rule": "increase:3",
        "max_steps": 400,
        "record_every": 1,
    }


def solve_schedule(seed: int) -> str:
    """Exponential schedule with beta near 3.5: about 80 Euler steps."""
    beta = random.Random(seed).uniform(3.45, 3.55)
    return f"exp:alpha0=0.1,beta={beta:.4f}"


def certified_schedule(seed: int) -> str:
    """Inverse-power schedule near alpha0=10, a=100, m=1; the certificate
    passes throughout this band."""
    rng = random.Random(seed)
    alpha0 = rng.uniform(9.8, 10.2)
    a = rng.uniform(98.0, 102.0)
    return f"invpow:alpha0={alpha0:.4f},a={a:.4f},m=1"


def check_report(report, discrepancy_cap: float | None) -> list[str]:
    """Checks every flow run must pass: no divergence, finite outputs and,
    on gravimetry, a discrepancy within the Table-1 cap."""
    problems = []
    if report.diverged or report.stop_reason.startswith("diverged"):
        problems.append(f"run diverged: {report.stop_reason}")
    outputs = [report.discrepancy, report.error_sup, report.error_l2]
    if not all(v is not None and math.isfinite(v) for v in outputs) or not all(
        math.isfinite(v) for v in report.final_x.values
    ):
        problems.append("run produced non-finite outputs")
    elif discrepancy_cap is not None and report.discrepancy > discrepancy_cap:
        problems.append(f"discrepancy {report.discrepancy:.3e} exceeds {discrepancy_cap:g}")
    return problems


def check_table(text: str, schedules: list[str]) -> tuple[float, list[str]]:
    """Checks on a sweep's table CSV, whose rows must name `schedules` in
    order; returns its largest sup-norm error and the problems found."""
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or tuple(rows[0]) != TABLE_HEADER:
        return math.nan, ["table header is wrong"]
    body = [dict(zip(TABLE_HEADER, r)) for r in rows[1:]]
    if len(body) != len(schedules) or any(len(r) != len(TABLE_HEADER) for r in rows):
        expected = f"{len(schedules) + 1}x{len(TABLE_HEADER)}"
        return math.nan, [f"table has shape {len(rows)}x{len(rows[0])}, not {expected}"]
    problems = []
    if [r["schedule"] for r in body] != schedules:
        problems.append("table rows do not follow the config's schedules")
    numeric = [c for c in TABLE_HEADER if c != "schedule"]
    try:
        values = [{c: float(r[c]) for c in numeric} for r in body]
    except ValueError:
        return math.nan, problems + ["table has an empty or non-numeric cell"]
    if not all(math.isfinite(v) for row in values for v in row.values()):
        return math.nan, problems + ["table has non-finite values"]
    for schedule, row in zip(schedules, values):
        if any(row[c] != 0 for c in SWEEP_DIVERGED_COLUMNS):
            problems.append(f"{schedule}: a run diverged")
        if any(row[c] > DISCREPANCY_CAP for c in SWEEP_SIGMA_COLUMNS):
            problems.append(f"{schedule}: discrepancy exceeds {DISCREPANCY_CAP:g}")
    return max(row[c] for row in values for c in SWEEP_ERROR_COLUMNS), problems


class SweepN201:
    """`gnflow table` on the README sweep, driven through `gnflow.cli.main`."""

    name = "sweep-n201"
    min_units = 2  # the byte-identity check compares two units

    def __init__(self, seed: int, workdir: Path):
        self.config = sweep_config(seed)
        self.config_path = workdir / "sweep.json"
        self.csv_path = workdir / "table.csv"
        self.first_csv: bytes | None = None
        self.steps = 0

    def setup(self) -> None:
        self.config_path.write_text(json.dumps(self.config, indent=2))
        spec = load_spec(self.config_path)
        build_problem(spec.problem)
        # The table CSV reports the selected iterate, not the steps taken, so
        # count accepted steps at the harness's run_flow; with record_every=1
        # the last recorded point of a run is its last accepted step.
        run_flow = gnflow.harness.run_flow

        def counted(*args, **kwargs):
            report = run_flow(*args, **kwargs)
            self.steps += report.trajectory[-1].step
            return report

        gnflow.harness.run_flow = counted

    def unit(self) -> UnitOutcome:
        self.steps = 0
        code = gnflow.cli.main(
            ["table", "--config", str(self.config_path), "--out", str(self.csv_path)]
        )
        if code != 0:
            return UnitOutcome(self.steps, math.nan, [f"gnflow table exited {code}"])
        table = self.csv_path.read_bytes()
        rows = [parse_schedule(s).describe() for s in self.config["schedules"]]
        error, problems = check_table(table.decode(), rows)
        if self.first_csv is None:
            self.first_csv = table
        elif table != self.first_csv:
            problems.append("table CSV differs from the first unit's")
        return UnitOutcome(self.steps, error, problems)


class SolveN801:
    """One Euler `run_flow` on the n=801 gravimetry model."""

    name = "solve-n801"
    min_units = 1

    def __init__(self, seed: int, workdir: Path):
        self.schedule_text = solve_schedule(seed)

    def setup(self) -> None:
        params = GravimetryParams(node_count=801)
        self.model = GravimetryModel.synthetic(params)
        self.x0 = initial_guess(params)
        self.reference = true_interface(params)
        self.schedule = parse_schedule(self.schedule_text)
        self.config = SolverConfig(stepper="euler", tau=0.1, max_steps=400)

    def unit(self) -> UnitOutcome:
        report = gnflow.flow.run_flow(
            self.model, self.schedule, self.x0, self.config, reference=self.reference
        )
        return UnitOutcome(
            report.trajectory[-1].step,
            report.error_sup,
            check_report(report, DISCREPANCY_CAP),
        )


class CertifiedDiagonal:
    """A fixed-step midpoint run on the certified diagonal model, checked
    against its Riccati majorant."""

    name = "certified-diagonal"
    min_units = 1

    def __init__(self, seed: int, workdir: Path):
        self.schedule_text = certified_schedule(seed)

    def setup(self) -> None:
        self.instance = certified_diagonal_instance(
            node_count=21, schedule=parse_schedule(self.schedule_text)
        )
        self.u0 = default_u0(self.instance.certificate, self.instance.w0)
        self.config = SolverConfig(
            stepper="rk",
            tau=0.1,
            max_steps=CERTIFIED_STEPS,
            stop_rule=FixedSteps(CERTIFIED_STEPS),
            record_every=1,
        )

    def unit(self) -> UnitOutcome:
        inst = self.instance
        report = gnflow.flow.run_flow(
            inst.model, inst.schedule, inst.x0, self.config, reference=inst.solution
        )
        verdict = gnflow.certificate.comparison_check(inst.certificate, report, self.u0)
        problems = check_report(report, None)
        if report.stop_reason != "fixed_steps":
            problems.append(f"run stopped on {report.stop_reason}")
        if not inst.certificate.passed:
            problems.append("certificate does not pass")
        if not verdict.passed:
            problems.append(f"trajectory leaves the majorant at {verdict.first_violation}")
        return UnitOutcome(report.trajectory[-1].step, report.error_sup, problems)


WORKLOADS = {w.name: w for w in (SweepN201, SolveN801, CertifiedDiagonal)}


def trace_points() -> list[tuple[object, str, str]]:
    """(owner, attribute, span name) for every entry point the traced run
    wraps.  A function imported by name into another module is wrapped
    there too, since callers look it up in their own module."""
    points = [
        (GravimetryModel, "residual", "gravimetry.residual"),
        (GravimetryModel, "jacobian", "gravimetry.jacobian"),
        (GravimetryModel, "synthetic", "gravimetry.synthetic"),
        (gnflow.flow, "velocity", "flow.velocity"),
        (gnflow.flow, "run_flow", "flow.run_flow"),
        (gnflow.harness, "run_flow", "flow.run_flow"),
        (JacobianMatrix, "normal_solve", "flow.normal_solve"),
        (scipy.linalg, "cho_factor", "flow.cho_factor"),
        (scipy.linalg, "cho_solve", "flow.cho_solve"),
        (gnflow.flow, "l2_norm", "grids.l2_norm"),
        (GridFunction, "__post_init__", "grids.GridFunction"),
        (gnflow.certificate, "comparison_check", "certificate.comparison_check"),
        (gnflow.certificate, "bound_curve", "certificate.bound_curve"),
        (DiagonalLinearModel, "residual", "synthetic.residual"),
        (DiagonalLinearModel, "jacobian", "synthetic.jacobian"),
        (gnflow.cli, "main", "cli.main"),
    ]
    points += [(cls, "alpha", "schedules.alpha") for cls in (InversePower, Exponential, Base2)]
    for name in ("load_spec", "run_table", "write_table_csv"):
        points += [(gnflow.harness, name, f"harness.{name}"), (gnflow.cli, name, f"harness.{name}")]
    return points
