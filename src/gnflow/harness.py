"""Experiment assembly: parameter sweeps, table CSVs, trajectory export.

A sweep runs the flow for every (schedule, step size) pair with the
requested steppers, against synthetic data, and records one table row per
pair.  Output is CSV throughout so runs can be diffed, plotted, and
reproduced without further tooling.
"""

from __future__ import annotations

import csv
import json
from dataclasses import dataclass, field, fields
from typing import Collection, Mapping, Optional, Sequence, Union

from .flow import (
    STEPPERS,
    OperatorModel,
    RunReport,
    SolverConfig,
    StopRule,
    TrajectoryPoint,
    parse_stop_rule,
    run_flow,
)
from .grids import GridFunction
from .gravimetry import GravimetryModel, GravimetryParams, initial_guess, true_interface
from .schedules import Schedule, parse_schedule
from .synthetic import certified_diagonal_instance

SYNTHETIC_PROBLEMS = ("certified-diagonal",)


@dataclass(frozen=True)
class ExperimentSpec:
    """One table sweep: problem, schedules, step sizes, steppers."""

    problem: Union[GravimetryParams, str] = field(default_factory=GravimetryParams)
    schedules: Sequence[Schedule] = ()
    tau_values: Sequence[float] = ()
    steppers: Sequence[str] = STEPPERS
    stop_rule: StopRule = SolverConfig.stop_rule
    max_steps: int = SolverConfig.max_steps
    record_every: int = SolverConfig.record_every
    output_path: Optional[str] = None

    def __post_init__(self):
        if not self.schedules:
            raise ValueError("spec needs at least one schedule")
        for schedule in self.schedules:
            if not isinstance(schedule, Schedule):
                raise ValueError(f"unknown schedule type {type(schedule).__name__}: {schedule!r}")
        if not self.tau_values:
            raise ValueError("spec needs at least one tau value")
        if not self.steppers:
            raise ValueError("spec needs at least one stepper")
        if len(set(self.steppers)) != len(self.steppers):
            raise ValueError(f"steppers must be distinct, got {list(self.steppers)}")
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
class RunSummary:
    """What the table reports of one run: the `RunReport` fields of the
    same names, so that no trajectory outlives the run."""

    steps_taken: int
    error_sup: Optional[float]
    error_l2: Optional[float]
    discrepancy: float
    diverged: bool

    @classmethod
    def of(cls, report: RunReport) -> RunSummary:
        return cls(*(getattr(report, f.name) for f in fields(cls)))


@dataclass(frozen=True)
class TableRow:
    """Per-(schedule, tau) results, keyed by the name of each stepper run."""

    schedule: str
    tau: float
    runs: Mapping[str, RunSummary]


TABLE_HEADER = (
    "schedule", "tau",
    "N_euler", "delta_E_sup", "delta_E_l2", "sigma_E", "euler_diverged",
    "N_rk", "delta_R_sup", "delta_R_l2", "sigma_R", "rk_diverged",
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
            runs = {}
            for stepper in spec.steppers:
                config = spec.solver_config(stepper, tau)
                report = run_flow(model, schedule, x0, config, reference=reference)
                runs[stepper] = RunSummary.of(report)
            rows.append(TableRow(schedule.describe(), tau, runs))
    return rows


def _cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(int(value))
    if isinstance(value, float):
        return format(value, ".12e")
    return str(value)


def summary_cells(summary: Optional[RunSummary]) -> list[str]:
    """The CSV cells N, sup error, L2 error, discrepancy and diverged of one
    run; all empty for a stepper that was not run."""
    if summary is None:
        return [""] * len(fields(RunSummary))
    return [_cell(getattr(summary, f.name)) for f in fields(RunSummary)]


def write_table_rows(rows: Sequence[TableRow], fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(TABLE_HEADER)
    for r in rows:
        cells = [r.schedule, _cell(r.tau)]
        for stepper in STEPPERS:  # the column order of TABLE_HEADER
            cells += summary_cells(r.runs.get(stepper))
        writer.writerow(cells)


def write_table_csv(rows: Sequence[TableRow], path) -> None:
    with open(path, "w", newline="") as fh:
        write_table_rows(rows, fh)


def trajectory_export(report: RunReport, path) -> None:
    """Write the recorded trajectory as CSV, with the columns step, t,
    alpha, sigma, w and error_sup (the last two empty without a reference).
    """
    header = [f.name for f in fields(TrajectoryPoint)]
    rows = [[_cell(getattr(p, name)) for name in header] for p in report.trajectory]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


_JSON_TYPE_NAMES = {dict: "object", list: "array", str: "string", float: "number", int: "integer"}


def _checked(value, name: str, kind: type):
    """A config value checked to be of the JSON type `kind` stands for; a
    number field also takes an integer."""
    accepted = (int, float) if kind is float else kind
    if isinstance(value, bool) or not isinstance(value, accepted):
        raise ValueError(f"{name} must be a JSON {_JSON_TYPE_NAMES[kind]}, got {value!r}")
    return kind(value)


_CONFIG_KEYS = tuple(f.name for f in fields(ExperimentSpec))
# the GravimetryParams field of each problem key, with its JSON type
_PROBLEM_KEYS = {
    "l": ("half_width", float), "H": ("depth", float), "rho": ("density", float),
    "epsilon": ("epsilon", float), "grid_n": ("node_count", int),
}


def _known_keys(doc: dict, name: str, known: Collection[str]) -> dict:
    """`doc`, checked to hold no key outside `known` (a misspelt key would
    otherwise silently run with its default)."""
    unknown = [key for key in doc if key not in known]
    if unknown:
        raise ValueError(
            f"unknown {name} key(s) {', '.join(map(repr, unknown))}; "
            f"expected {', '.join(known)}"
        )
    return doc


def _problem_from_config(problem) -> Union[GravimetryParams, str]:
    if isinstance(problem, str):
        return problem
    problem = _known_keys(_checked(problem, "problem", dict), "problem", _PROBLEM_KEYS)
    return GravimetryParams(
        **{
            name: _checked(problem[key], f"problem.{key}", kind)
            for key, (name, kind) in _PROBLEM_KEYS.items()
            if key in problem
        }
    )


def _array(value, name: str, item: str, kind: type) -> list:
    """A JSON array checked to hold only values of the JSON type `kind`."""
    return [_checked(v, item, kind) for v in _checked(value, name, list)]


# how the value of each config key becomes its ExperimentSpec field
_CONFIG_FIELDS = {
    "problem": _problem_from_config,
    "schedules": lambda v: [parse_schedule(s) for s in _array(v, "schedules", "schedule", str)],
    "tau_values": lambda v: _array(v, "tau_values", "tau", float),
    "steppers": lambda v: _array(v, "steppers", "stepper", str),
    "stop_rule": lambda v: parse_stop_rule(_checked(v, "stop_rule", str)),
    "max_steps": lambda v: _checked(v, "max_steps", int),
    "record_every": lambda v: _checked(v, "record_every", int),
    "output_path": lambda v: None if v is None else _checked(v, "output_path", str),
}


def spec_from_config(config: dict) -> ExperimentSpec:
    """Build a spec from a parsed JSON config document.

    Unknown keys are rejected, every field is type-checked, an absent key
    takes the default of its `ExperimentSpec` or `GravimetryParams` field,
    and the problem and each run's `SolverConfig` are built here, so a
    config the sweep cannot run raises ValueError (DomainError for an
    inadmissible geometry) before any run starts.
    """
    config = _known_keys(_checked(config, "config", dict), "config", _CONFIG_KEYS)
    spec = ExperimentSpec(
        **{key: _CONFIG_FIELDS[key](config[key]) for key in _CONFIG_KEYS if key in config}
    )
    build_problem(spec.problem)
    return spec


def load_spec(path) -> ExperimentSpec:
    with open(path) as fh:
        return spec_from_config(json.load(fh))
