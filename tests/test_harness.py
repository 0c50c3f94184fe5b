from __future__ import annotations

import csv
import dataclasses
import io
import json

import numpy as np
import pytest

from gnflow import (
    DiscrepancyFloor,
    Exponential,
    ExperimentSpec,
    FirstDiscrepancyIncrease,
    FixedSteps,
    GravimetryParams,
    GridFunction,
    InversePower,
    SolverConfig,
    bound_curve,
    default_u0,
    load_spec,
    parse_stop_rule,
    run_flow,
    run_table,
    trajectory_export,
    write_table_csv,
)
from gnflow import harness
from gnflow.flow import RunReport, TrajectoryPoint
from gnflow.harness import TABLE_HEADER, build_problem, spec_from_config, write_table_rows
from gnflow.synthetic import certified_diagonal_instance

SMALL_PROBLEM = GravimetryParams(node_count=41)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestStopRuleParsing:
    def test_forms(self):
        assert parse_stop_rule("fixed:25") == FixedSteps(25)
        assert parse_stop_rule("floor:1e-6") == DiscrepancyFloor(1e-6)
        assert parse_stop_rule("increase:5") == FirstDiscrepancyIncrease(5)

    def test_round_trip(self):
        for rule in (FixedSteps(7), DiscrepancyFloor(0.5), FirstDiscrepancyIncrease(2)):
            assert parse_stop_rule(rule.describe()) == rule

    @pytest.mark.parametrize("bad", ["", "fixed", "fixed:x", "never:1", "floor:"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_stop_rule(bad)


class TestExperimentSpecValidation:
    def test_empty_taus_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(schedules=[Exponential(0.1, 3.5)], tau_values=[])

    def test_empty_schedules_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(schedules=[], tau_values=[0.1])

    def test_schedule_that_is_no_schedule_rejected(self):
        # a descriptor string is no Schedule: it is named when the spec is
        # built, not met as an AttributeError in the middle of the sweep
        text = "exp:alpha0=0.1,beta=1"
        with pytest.raises(ValueError) as excinfo:
            ExperimentSpec(schedules=[Exponential(0.1, 3.5), text], tau_values=[0.1])
        assert str(excinfo.value) == f"unknown schedule type str: {text!r}"

    def test_unknown_stepper_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                schedules=[Exponential(0.1, 3.5)],
                tau_values=[0.1],
                steppers=["heun"],
            )

    @pytest.mark.parametrize("tau", [-0.1, 0.0, float("nan"), float("inf")])
    def test_bad_tau_rejected(self, tau):
        with pytest.raises(ValueError, match="tau must be positive and finite"):
            ExperimentSpec(schedules=[Exponential(0.1, 3.5)], tau_values=[0.1, tau])

    def test_duplicate_stepper_rejected(self):
        # a repeated stepper would run the same flow twice and keep one row
        with pytest.raises(ValueError, match="steppers must be distinct"):
            ExperimentSpec(
                schedules=[Exponential(0.1, 3.5)],
                tau_values=[0.1],
                steppers=["euler", "rk", "euler"],
            )

    def test_unknown_synthetic_problem_rejected(self):
        with pytest.raises(ValueError):
            ExperimentSpec(
                problem="mystery",
                schedules=[Exponential(0.1, 3.5)],
                tau_values=[0.1],
            )


class TestRunTable:
    def test_rows_in_spec_order_and_csv(self, tmp_path):
        out = tmp_path / "table.csv"
        spec = ExperimentSpec(
            problem=SMALL_PROBLEM,
            schedules=[Exponential(0.1, 3.5), InversePower(0.1, 1.0, 6.0)],
            tau_values=[0.1, 0.2],
            steppers=["euler", "rk"],
            max_steps=120,
        )
        rows = run_table(spec)
        write_table_csv(rows, out)
        assert [(r.schedule, r.tau) for r in rows] == [
            ("exp:alpha0=0.1,beta=3.5", 0.1),
            ("exp:alpha0=0.1,beta=3.5", 0.2),
            ("invpow:alpha0=0.1,a=1,m=6", 0.1),
            ("invpow:alpha0=0.1,a=1,m=6", 0.2),
        ]
        for r in rows:
            assert list(r.runs) == ["euler", "rk"]
            assert r.runs["euler"].discrepancy >= 0 and r.runs["rk"].discrepancy >= 0
            assert r.runs["euler"].steps_taken <= 120 and r.runs["rk"].steps_taken <= 120
        content = read_csv(out)
        assert content[0] == list(TABLE_HEADER)
        assert len(content) == 5

    def test_euler_only_sweep(self):
        spec = ExperimentSpec(
            problem=SMALL_PROBLEM,
            schedules=[Exponential(0.1, 3.5)],
            tau_values=[0.1],
            steppers=["euler"],
            max_steps=120,
        )
        row = run_table(spec)[0]
        assert list(row.runs) == ["euler"]
        assert row.runs["euler"].steps_taken > 0
        out = io.StringIO()
        write_table_rows([row], out)
        assert out.getvalue().splitlines()[1].endswith(",0,,,,,")  # empty rk cells

    def test_determinism(self, tmp_path):
        paths = []
        for name in ("a.csv", "b.csv"):
            out = tmp_path / name
            spec = ExperimentSpec(
                problem=SMALL_PROBLEM,
                schedules=[Exponential(0.1, 3.5)],
                tau_values=[0.1],
                max_steps=120,
            )
            write_table_csv(run_table(spec), out)
            paths.append(out.read_bytes())
        assert paths[0] == paths[1]

    def test_degraded_run_recorded_in_band(self):
        # large tau and fast decay far below alpha_floor: the row
        # must carry a large error or the diverged flag, never an exception
        spec = ExperimentSpec(
            schedules=[Exponential(0.1, 10.0)],
            tau_values=[0.6],
            steppers=["euler"],
            stop_rule=FixedSteps(40),
            max_steps=40,
        )
        row = run_table(spec)[0]
        assert row.runs["euler"].diverged or row.runs["euler"].error_sup >= 0.1

    def test_synthetic_problem_by_name(self):
        spec = ExperimentSpec(
            problem="certified-diagonal",
            schedules=[InversePower(10.0, 100.0, 1.0)],
            tau_values=[0.1],
            steppers=["euler"],
            stop_rule=FixedSteps(50),
            max_steps=50,
        )
        row = run_table(spec)[0]
        assert not row.runs["euler"].diverged
        assert row.runs["euler"].error_l2 < 1.0

    def test_table2_replication_row(self, benchmark_params):
        # exponential sweep at tau=0.1: the beta=3 row of the reference table
        # reports N=100 and error 1.06e-2 (factor-3 / +-50% windows; the
        # reference stopping rule is unpublished)
        spec = ExperimentSpec(
            problem=benchmark_params,
            schedules=[Exponential(0.1, float(b)) for b in range(1, 11)],
            tau_values=[0.1],
            steppers=["euler"],
            max_steps=400,
        )
        rows = run_table(spec)
        assert len(rows) == 10
        beta3 = rows[2]
        assert 100 * 0.5 <= beta3.runs["euler"].steps_taken <= 100 * 1.5
        assert 1.06e-2 / 3 <= beta3.runs["euler"].error_sup <= 1.06e-2 * 3


class TestConfigRoundTrip:
    def test_gravimetry_spec(self, tmp_path):
        path = tmp_path / "config.json"
        path.write_text(
            """{
              "problem": {"l": 1.5, "H": 2.5, "rho": 2, "epsilon": 0.01, "grid_n": 41},
              "schedules": ["exp:alpha0=0.1,beta=3.5", "invpow:alpha0=0.1,a=1,m=2"],
              "tau_values": [0.1, 1],
              "steppers": ["rk"],
              "stop_rule": "fixed:50",
              "max_steps": 77,
              "record_every": 2,
              "output_path": "out.csv"
            }"""
        )
        assert set(json.loads(path.read_text())) == set(harness._CONFIG_KEYS)
        assert load_spec(path) == ExperimentSpec(
            problem=GravimetryParams(
                half_width=1.5, depth=2.5, density=2.0, epsilon=0.01, node_count=41
            ),
            schedules=[Exponential(0.1, 3.5), InversePower(0.1, 1.0, 2.0)],
            tau_values=[0.1, 1.0],
            steppers=["rk"],
            stop_rule=FixedSteps(50),
            max_steps=77,
            record_every=2,
            output_path="out.csv",
        )

    def test_every_spec_field_is_a_config_key(self):
        assert harness._CONFIG_KEYS == tuple(harness._CONFIG_FIELDS)

    def test_named_problem_spec(self):
        config = {
            "problem": "certified-diagonal",
            "schedules": ["invpow:alpha0=10,a=100,m=1"],
            "tau_values": [0.1],
            "steppers": ["euler"],
        }
        spec = spec_from_config(config)
        assert spec.problem == "certified-diagonal"

    def test_defaults_fill_in(self):
        spec = spec_from_config(
            {"schedules": ["exp:alpha0=0.1,beta=3.5"], "tau_values": [0.1]}
        )
        assert spec.stop_rule == FirstDiscrepancyIncrease(3)
        assert spec.max_steps == 500
        assert spec == ExperimentSpec(schedules=[Exponential(0.1, 3.5)], tau_values=[0.1])
        spec = spec_from_config(
            {"problem": {"H": 3.0}, "schedules": ["exp:alpha0=0.1,beta=3.5"], "tau_values": [0.1]}
        )
        assert spec.problem == GravimetryParams(depth=3.0)


class TestBuildProblem:
    def test_gravimetry(self):
        model, x0, ref = build_problem(SMALL_PROBLEM)
        assert model.grid == SMALL_PROBLEM.grid
        assert np.all(x0.values == 1.0)
        assert ref.values[SMALL_PROBLEM.node_count // 2] == pytest.approx(1.0)

    def test_certified_diagonal(self):
        model, x0, ref = build_problem("certified-diagonal")
        res = model.residual(ref)
        assert np.max(np.abs(res.values)) == 0.0


class TestTrajectoryExport:
    def _empty_report(self):
        grid = SMALL_PROBLEM.grid
        return RunReport(
            steps_taken=0,
            final_x=GridFunction.constant(grid, 1.0),
            discrepancy=0.0,
            error_sup=None,
            error_l2=None,
            trajectory=[],
            stop_reason="fixed_steps",
        )

    def test_empty_trajectory_gives_header_only(self, tmp_path):
        path = tmp_path / "traj.csv"
        trajectory_export(self._empty_report(), path)
        content = read_csv(path)
        assert content == [["step", "t", "alpha", "sigma", "w", "error_sup"]]

    def test_columns_without_reference(self, tmp_path):
        report = dataclasses.replace(
            self._empty_report(),
            trajectory=[TrajectoryPoint(step=0, t=0.0, alpha=0.1, sigma=0.5)],
        )
        path = tmp_path / "traj.csv"
        trajectory_export(report, path)
        content = read_csv(path)
        assert content[1][0] == "0"
        assert content[1][4] == "" and content[1][5] == ""

    def test_certified_run_bound_column_dominates_w(self, tmp_path):
        inst = certified_diagonal_instance()
        config = SolverConfig(stepper="euler", tau=0.1, max_steps=200, stop_rule=FixedSteps(200))
        report = run_flow(inst.model, inst.schedule, inst.x0, config, reference=inst.solution)
        u0 = default_u0(inst.certificate, inst.w0)
        path = tmp_path / "certified.csv"
        trajectory_export(report, path, certificate=inst.certificate, u0=u0)
        content = read_csv(path)
        assert content[0][-1] == "bound"
        for row in content[1:]:
            assert float(row[4]) < float(row[6])  # w strictly below the bound

    def test_bound_column_matches_scalar_majorant(self, tmp_path):
        inst = certified_diagonal_instance()
        config = SolverConfig(stepper="rk", tau=0.1, max_steps=300, stop_rule=FixedSteps(300))
        report = run_flow(inst.model, inst.schedule, inst.x0, config, reference=inst.solution)
        u0 = default_u0(inst.certificate, inst.w0)
        path = tmp_path / "certified.csv"
        trajectory_export(report, path, certificate=inst.certificate, u0=u0)
        expected = [
            format(bound_curve(inst.certificate, u0, p.t), ".12e") for p in report.trajectory
        ]
        assert [row[6] for row in read_csv(path)[1:]] == expected

    def test_sigma_nonincreasing_until_stop(self, tmp_path):
        model, x0, ref = build_problem(SMALL_PROBLEM)
        config = SolverConfig(stepper="euler", tau=0.1, max_steps=200)
        report = run_flow(model, Exponential(0.1, 3.5), x0, config, reference=ref)
        path = tmp_path / "traj.csv"
        trajectory_export(report, path)
        content = read_csv(path)
        sigmas = [float(r[3]) for r in content[1:]]
        upto = report.steps_taken
        assert all(b <= a for a, b in zip(sigmas[:upto], sigmas[1 : upto + 1]))
