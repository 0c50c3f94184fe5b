from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gnflow
from gnflow.cli import main


def run_cli(args):
    return main(args)


def read_csv(path):
    with open(path) as fh:
        return list(csv.reader(fh))


class TestSolve:
    def test_solve_writes_summary_and_trajectory(self, tmp_path):
        out = tmp_path / "run.csv"
        traj = tmp_path / "traj.csv"
        rc = run_cli(
            [
                "solve",
                "--schedule", "exp:alpha0=0.1,beta=3.5",
                "--tau", "0.1",
                "--stepper", "euler",
                "--grid-n", "41",
                "--max-steps", "150",
                "--out", str(out),
                "--trajectory", str(traj),
            ]
        )
        assert rc == 0
        header, row = read_csv(out)
        assert header == [
            "stepper", "schedule", "tau", "N",
            "delta_sup", "delta_l2", "sigma", "diverged", "stop_reason",
        ]
        assert row[0] == "euler"
        assert int(row[3]) > 0
        assert float(row[4]) > 0 and float(row[6]) >= 0
        t = read_csv(traj)
        assert t[0] == ["step", "t", "alpha", "sigma", "w", "error_sup"]
        assert len(t) >= 2

    def test_solve_stdout(self, capsys):
        rc = run_cli(
            [
                "solve",
                "--schedule", "exp:alpha0=0.1,beta=3.5",
                "--grid-n", "21",
                "--max-steps", "50",
            ]
        )
        assert rc == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0].startswith("stepper,")
        assert len(lines) == 2

    def test_malformed_schedule_usage_error(self, capsys):
        rc = run_cli(["solve", "--schedule", "exp:alpha0=0.1"])
        assert rc == 2
        assert "missing parameters" in capsys.readouterr().err

    def test_bad_stop_rule_usage_error(self):
        rc = run_cli(
            ["solve", "--schedule", "exp:alpha0=0.1,beta=1", "--stop", "sometimes:3"]
        )
        assert rc == 2

    def test_even_grid_usage_error(self):
        rc = run_cli(
            ["solve", "--schedule", "exp:alpha0=0.1,beta=1", "--grid-n", "40"]
        )
        assert rc == 2

    def test_inadmissible_geometry_usage_error(self, capsys):
        # the benchmark interface reaches height 1, above H - epsilon = 0.499
        rc = run_cli(["solve", "--schedule", "exp:alpha0=0.1,beta=1", "--H", "0.5"])
        assert rc == 2
        assert "admissible" in capsys.readouterr().err

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as exc:
            run_cli(["solve", "--schedule", "exp:alpha0=0.1,beta=1", "--frobnicate"])
        assert exc.value.code == 2

    def test_unwritable_output_runtime_error(self, tmp_path):
        rc = run_cli(
            [
                "solve",
                "--schedule", "exp:alpha0=0.1,beta=3.5",
                "--grid-n", "21",
                "--max-steps", "10",
                "--out", str(tmp_path / "missing-dir" / "run.csv"),
            ]
        )
        assert rc == 1


class TestTable:
    def test_table_from_config(self, tmp_path):
        config = {
            "problem": {"l": 1.0, "H": 2.0, "rho": 1.0, "grid_n": 41},
            "schedules": ["exp:alpha0=0.1,beta=3.5", "base2:alpha0=0.1,beta=3.5"],
            "tau_values": [0.1],
            "steppers": ["euler", "rk"],
            "stop_rule": "increase:3",
            "max_steps": 150,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        out = tmp_path / "table.csv"
        rc = run_cli(["table", "--config", str(cfg_path), "--out", str(out)])
        assert rc == 0
        rows = read_csv(out)
        assert len(rows) == 3
        assert rows[0][0] == "schedule"

    def test_missing_config_usage_error(self, tmp_path):
        rc = run_cli(["table", "--config", str(tmp_path / "nope.json")])
        assert rc == 2

    def test_invalid_config_usage_error(self, tmp_path, capsys):
        runnable = {"schedules": ["exp:alpha0=0.1,beta=1"], "tau_values": [0.1]}
        bad_configs = [
            {"schedules": [], "tau_values": [0.1]},
            {**runnable, "problem": {"H": 1.0005, "epsilon": 0.001}},
            {**runnable, "max_steps": 0},
            [runnable],
            {**runnable, "schedules": "exp:alpha0=0.1,beta=1"},
        ]
        cfg = tmp_path / "bad.json"
        for config in bad_configs:
            cfg.write_text(json.dumps(config))
            assert run_cli(["table", "--config", str(cfg)]) == 2, config
            err = capsys.readouterr().err
            assert err.startswith("gnflow: bad config:") and "Traceback" not in err


class TestCertify:
    def test_worked_example_output(self, capsys):
        rc = run_cli(
            [
                "certify",
                "--n1", "1", "--n2", "1", "--vnorm", "0.1",
                "--alpha0", "1", "--logderiv0", "-0.1", "--R", "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "C1=0.5" in out
        assert "C2=0.7" in out
        assert "C3=0.1" in out
        assert "certificate: PASS" in out
        assert "FAIL" not in out

    def test_failing_conditions_still_exit_zero(self, capsys):
        rc = run_cli(
            [
                "certify",
                "--n1", "1", "--n2", "1", "--vnorm", "0.5",
                "--alpha0", "1", "--logderiv0", "-0.1", "--R", "10",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "condition positivity: FAIL" in out
        assert "certificate: FAIL" in out

    def test_invalid_inputs_usage_error(self, capsys):
        rc = run_cli(
            [
                "certify",
                "--n1", "0", "--n2", "1", "--vnorm", "0.1",
                "--alpha0", "1", "--logderiv0", "-0.1", "--R", "10",
            ]
        )
        assert rc == 2
        assert "positive" in capsys.readouterr().err


class TestValidateSchedule:
    def test_strict_and_weak(self, capsys):
        assert run_cli(["validate-schedule", "--schedule", "invpow:alpha0=10,a=100,m=1"]) == 0
        out = capsys.readouterr().out
        assert "PASS [strict]" in out
        assert "alpha(0)=0.1" in out
        assert run_cli(["validate-schedule", "--schedule", "exp:alpha0=0.1,beta=3.5"]) == 0
        assert "weak" in capsys.readouterr().out

    def test_invalid_parameters_named(self, capsys):
        rc = run_cli(["validate-schedule", "--schedule", "exp:alpha0=0.1,beta=-1"])
        assert rc == 2
        err = capsys.readouterr().err
        assert "beta" in err and "positive" in err


class TestBlasThreadDefault:
    """`import gnflow` defaults OpenBLAS to one thread unless the
    environment already sets a thread count."""

    @pytest.mark.parametrize(
        "env, expected",
        [
            ({}, "1"),
            ({"OPENBLAS_NUM_THREADS": "3"}, "3"),
            ({"OMP_NUM_THREADS": "2"}, None),
        ],
    )
    def test_import_sets_default(self, env, expected):
        src = str(Path(gnflow.__file__).resolve().parents[1])
        base = {
            k: v
            for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
        }
        code = "import gnflow, os; print(os.environ.get('OPENBLAS_NUM_THREADS'))"
        done = subprocess.run(
            [sys.executable, "-c", code],
            env={**base, **env, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        assert done.stdout.strip() == str(expected)
