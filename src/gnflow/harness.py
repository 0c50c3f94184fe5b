"""Experiment assembly: parameter sweeps, table CSVs, trajectory export.

A sweep runs the flow for every (schedule, step size) pair with the
requested steppers, against synthetic data, and records one table row per
pair.  Output is CSV throughout so runs can be diffed, plotted, and
reproduced without further tooling.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, replace
from typing import Optional, Sequence, Union

import numpy as np

from .certificate import Certificate, bound_curve
from .flow import (
    FirstDiscrepancyIncrease,
    OperatorModel,
    RunReport,
    SolverConfig,
    StopRule,
    parse_stop_rule,
    run_flow,
)
from .grids import GridFunction
from .gravimetry import GravimetryModel, GravimetryParams, initial_guess, true_interface
from .schedules import Schedule, parse_schedule, validate_rate_function
from .synthetic import certified_diagonal_instance

SYNTHETIC_PROBLEMS = ("certified-diagonal",)


@dataclass(frozen=True)
class ExperimentSpec:
    """One table sweep: problem, schedules, step sizes, steppers."""

    problem: Union[GravimetryParams, str] = field(default_factory=GravimetryParams)
    schedules: Sequence[Schedule] = ()
    tau_values: Sequence[float] = ()
    steppers: Sequence[str] = ("euler", "rk")
    stop_rule: StopRule = FirstDiscrepancyIncrease()
    max_steps: int = 500
    record_every: int = 1
    output_path: Optional[str] = None

    def __post_init__(self):
        if not self.schedules:
            raise ValueError("spec needs at least one schedule")
        if not self.tau_values:
            raise ValueError("spec needs at least one tau value")
        for schedule in self.schedules:
            validate_rate_function(schedule)
        if not self.steppers:
            raise ValueError("spec needs at least one stepper")
        if isinstance(self.problem, str) and self.problem not in SYNTHETIC_PROBLEMS:
            raise ValueError(
                f"unknown synthetic problem {self.problem!r}; "
                f"expected one of {SYNTHETIC_PROBLEMS}"
            )
        # SolverConfig rejects an unknown stepper and a tau that is not
        # positive and finite
        for stepper in self.steppers:
            for tau in self.tau_values:
                self.solver_config(stepper, tau)

    def solver_config(self, stepper: str, tau: float) -> SolverConfig:
        """The flow settings of one run of the sweep."""
        return SolverConfig(
            stepper=stepper,
            tau=tau,
            max_steps=self.max_steps,
            stop_rule=self.stop_rule,
            record_every=self.record_every,
        )


@dataclass(frozen=True)
class TableRow:
    """Per-(schedule, tau) results for both steppers (None when not run)."""

    schedule: str
    tau: float
    n_euler: Optional[int] = None
    delta_e_sup: Optional[float] = None
    delta_e_l2: Optional[float] = None
    sigma_e: Optional[float] = None
    euler_diverged: Optional[bool] = None
    n_rk: Optional[int] = None
    delta_r_sup: Optional[float] = None
    delta_r_l2: Optional[float] = None
    sigma_r: Optional[float] = None
    rk_diverged: Optional[bool] = None


TABLE_HEADER = (
    "schedule",
    "tau",
    "N_euler",
    "delta_E_sup",
    "delta_E_l2",
    "sigma_E",
    "euler_diverged",
    "N_rk",
    "delta_R_sup",
    "delta_R_l2",
    "sigma_R",
    "rk_diverged",
)


def build_problem(
    problem: Union[GravimetryParams, str],
) -> tuple[OperatorModel, GridFunction, GridFunction]:
    """Materialize (model, initial guess, reference solution) for a spec."""
    if isinstance(problem, GravimetryParams):
        model = GravimetryModel.synthetic(problem)
        return model, initial_guess(problem), true_interface(problem)
    instance = certified_diagonal_instance()
    return instance.model, instance.x0, instance.solution


def run_table(spec: ExperimentSpec) -> list[TableRow]:
    """Run the sweep and return rows in spec order (schedules outer, taus
    inner).  Individual run divergence is recorded in-band, never raised.
    The caller writes them, e.g. with `write_table_csv`."""
    model, x0, reference = build_problem(spec.problem)
    rows = []
    for schedule in spec.schedules:
        for tau in spec.tau_values:
            row = TableRow(schedule=schedule.describe(), tau=tau)
            for stepper in spec.steppers:
                config = spec.solver_config(stepper, tau)
                report = run_flow(model, schedule, x0, config, reference=reference)
                e = stepper[0]  # "e" or "r", the column prefix of the stepper
                row = replace(
                    row,
                    **{
                        f"n_{stepper}": report.steps_taken,
                        f"delta_{e}_sup": report.error_sup,
                        f"delta_{e}_l2": report.error_l2,
                        f"sigma_{e}": report.discrepancy,
                        f"{stepper}_diverged": report.diverged,
                    },
                )
            rows.append(row)
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12e")
    return str(value)


def write_table_rows(rows: Sequence[TableRow], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(TABLE_HEADER)
    for r in rows:
        writer.writerow(
            [
                r.schedule,
                _cell(r.tau),
                _cell(r.n_euler),
                _cell(r.delta_e_sup),
                _cell(r.delta_e_l2),
                _cell(r.sigma_e),
                _cell(r.euler_diverged),
                _cell(r.n_rk),
                _cell(r.delta_r_sup),
                _cell(r.delta_r_l2),
                _cell(r.sigma_r),
                _cell(r.rk_diverged),
            ]
        )


def write_table_csv(rows: Sequence[TableRow], path) -> None:
    with open(path, "w", newline="") as fh:
        write_table_rows(rows, fh)


def trajectory_export(
    report: RunReport,
    path,
    certificate: Optional[Certificate] = None,
    u0: Optional[float] = None,
) -> None:
    """Write the recorded trajectory as CSV.

    Columns: step, t, alpha, sigma, w (empty without a reference), error_sup
    (same), and, when a passing certificate and u0 are supplied, the
    majorant value bound(t).
    """
    with_bound = certificate is not None
    if with_bound and u0 is None:
        raise ValueError("exporting the bound column requires u0")
    header = ["step", "t", "alpha", "sigma", "w", "error_sup"]
    rows = [
        [str(p.step), _cell(p.t), _cell(p.alpha), _cell(p.sigma), _cell(p.w), _cell(p.error_sup)]
        for p in report.trajectory
    ]
    if with_bound:
        header.append("bound")
        if rows:
            ts = np.array([p.t for p in report.trajectory])
            for row, bound in zip(rows, bound_curve(certificate, u0, ts).tolist()):
                row.append(_cell(bound))
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def spec_to_config(spec: ExperimentSpec) -> dict:
    """JSON-serializable form of a spec (round-trips via `spec_from_config`)."""
    if isinstance(spec.problem, GravimetryParams):
        problem = {
            "l": spec.problem.half_width,
            "H": spec.problem.depth,
            "rho": spec.problem.density,
            "epsilon": spec.problem.epsilon,
            "grid_n": spec.problem.node_count,
        }
    else:
        problem = spec.problem
    return {
        "problem": problem,
        "schedules": [s.describe() for s in spec.schedules],
        "tau_values": list(spec.tau_values),
        "steppers": list(spec.steppers),
        "stop_rule": spec.stop_rule.describe(),
        "max_steps": spec.max_steps,
        "record_every": spec.record_every,
        "output_path": spec.output_path,
    }


_JSON_TYPE_NAMES = {dict: "object", list: "array", str: "string", float: "number", int: "integer"}


def _checked(value, name: str, kind: type):
    """A config value checked to be of the JSON type `kind` stands for; a
    number field also takes an integer."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{name} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value)


_CONFIG_KEYS = (
    "problem",
    "schedules",
    "tau_values",
    "steppers",
    "stop_rule",
    "max_steps",
    "record_every",
    "output_path",
)
_PROBLEM_KEYS = ("l", "H", "rho", "epsilon", "grid_n")


def _known_keys(doc: dict, name: str, known: tuple[str, ...]) -> dict:
    """`doc`, checked to hold no key outside `known` (a misspelt key would
    otherwise silently run with its default)."""
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(
            f"unknown {name} key(s) {', '.join(map(repr, unknown))}; "
            f"expected {', '.join(known)}"
        )
    return doc


def spec_from_config(config: dict) -> ExperimentSpec:
    """Build a spec from a parsed JSON config document.

    Unknown keys are rejected, every field is type-checked, and the problem
    and each run's `SolverConfig` are built here, so a config the sweep
    cannot run raises ValueError (DomainError for an inadmissible geometry)
    before any run starts.
    """
    config = _known_keys(_checked(config, "config", dict), "config", _CONFIG_KEYS)
    problem = config.get("problem", {})
    if isinstance(problem, str):
        problem_obj: Union[GravimetryParams, str] = problem
    else:
        problem = _known_keys(_checked(problem, "problem", dict), "problem", _PROBLEM_KEYS)
        problem_obj = GravimetryParams(
            half_width=_checked(problem.get("l", 1.0), "problem.l", float),
            depth=_checked(problem.get("H", 2.0), "problem.H", float),
            density=_checked(problem.get("rho", 1.0), "problem.rho", float),
            epsilon=_checked(problem.get("epsilon", 1e-3), "problem.epsilon", float),
            node_count=_checked(problem.get("grid_n", 201), "problem.grid_n", int),
        )
    schedules = _checked(config.get("schedules", []), "schedules", list)
    tau_values = _checked(config.get("tau_values", []), "tau_values", list)
    steppers = _checked(config.get("steppers", ["euler", "rk"]), "steppers", list)
    output_path = config.get("output_path")
    spec = ExperimentSpec(
        problem=problem_obj,
        schedules=[parse_schedule(_checked(s, "schedule", str)) for s in schedules],
        tau_values=[_checked(t, "tau", float) for t in tau_values],
        steppers=[_checked(s, "stepper", str) for s in steppers],
        stop_rule=parse_stop_rule(
            _checked(config.get("stop_rule", "increase:3"), "stop_rule", str)
        ),
        max_steps=_checked(config.get("max_steps", 500), "max_steps", int),
        record_every=_checked(config.get("record_every", 1), "record_every", int),
        output_path=None if output_path is None else _checked(output_path, "output_path", str),
    )
    build_problem(spec.problem)
    return spec


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        return spec_from_config(json.load(fh))


def save_spec(spec: ExperimentSpec, path) -> None:
    with open(path, "w") as fh:
        json.dump(spec_to_config(spec), fh, indent=2)
        fh.write("\n")
