from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import gnflow
from gnflow.cli import build_parser, main
from gnflow.harness import TABLE_HEADER


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

    def test_solve_row_names_the_run(self, capsys):
        # 7 significant digits: `:g` would write 3.45679 and 0.123457
        schedule = "exp:alpha0=0.1,beta=3.456789"
        rc = run_cli(
            ["solve", "--schedule", schedule, "--tau", "0.1234567", "--grid-n", "21",
             "--max-steps", "5"]
        )
        assert rc == 0
        row = next(csv.reader(capsys.readouterr().out.splitlines()[1:]))
        assert row[1:3] == [schedule, "0.1234567"]

    def test_singular_solve_is_reported_in_the_row(self, monkeypatch, capsys):
        # a failed LU solve and a failed SVD of the fallback end the run in
        # band: the row says so and the command exits 0, with no traceback,
        # as for any diverged run
        def singular(*args, **kwargs):
            raise np.linalg.LinAlgError("Singular matrix")

        monkeypatch.setattr(np.linalg, "solve", singular)
        monkeypatch.setattr(np.linalg, "svd", singular)
        rc = run_cli(
            ["solve", "--schedule", "exp:alpha0=0.1,beta=3.5", "--grid-n", "201",
             "--max-steps", "5"]
        )
        out, err = capsys.readouterr()
        assert rc == 0 and err == ""
        row = next(csv.reader(out.splitlines()[1:]))
        assert row[3] == "0" and row[7] == "1"
        assert row[8] == "diverged: decomposition of the Jacobian failed: Singular matrix"

    # the run rejects an overflowing sum of squares at x0 without a numpy warning
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowed_initial_discrepancy_runtime_error(self, capsys):
        # at rho = 1e300 the residual at x0 is finite but its sum of squares
        # overflows: the run stops before any step, and the command exits 1
        # with a one-line message and no traceback
        rc = run_cli(
            ["solve", "--schedule", "exp:alpha0=0.1,beta=3.5", "--grid-n", "21",
             "--max-steps", "3", "--rho", "1e300"]
        )
        out, err = capsys.readouterr()
        assert rc == 1 and out == ""
        assert err == "gnflow: discrepancy at x0 is not finite: its sum of squares overflows\n"

    def test_malformed_schedule_usage_error(self, capsys):
        rc = run_cli(["solve", "--schedule", "exp:alpha0=0.1"])
        assert rc == 2
        assert "missing parameters" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["--stop", "fixed:-1"], "fixed step count must be nonnegative"),
            (["--stop", "increase:0"], "patience must be >= 1"),
            (
                ["--schedule", "exp:alpha0=0.1,beta=-1"],
                "decay rate beta must be positive and finite for alpha to decrease, got -1.0",
            ),
            (
                ["--schedule", "exp:alpha0=0.1,beta=3,beta=4"],
                "repeated parameter 'beta' for family 'exp'",
            ),
            (
                ["--H", "1e308", "--grid-n", "3"],
                "half_width and depth are too large: squared distances overflow",
            ),
        ],
    )
    def test_usage_error_message(self, flags, message, capsys):
        # the last --schedule given wins
        rc = run_cli(["solve", "--schedule", "exp:alpha0=0.1,beta=1", *flags])
        assert rc == 2
        assert capsys.readouterr().err == f"gnflow: {message}\n"

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

    @pytest.mark.parametrize(
        "flag, value",
        [("--epsilon", "nan"), ("--H", "inf"), ("--tau", "inf"), ("--stop", "floor:nan")],
    )
    def test_non_finite_input_usage_error(self, flag, value):
        rc = run_cli(["solve", "--schedule", "exp:alpha0=0.1,beta=1", flag, value])
        assert rc == 2

    def test_unwritable_output_runtime_error(self, tmp_path):
        unwritable = [
            ("--out", "missing-dir/run.csv"),
            ("--out", "run\x00.csv"),
            ("--trajectory", "traj\x00.csv"),
        ]
        for flag, name in unwritable:
            rc = run_cli(
                [
                    "solve",
                    "--schedule", "exp:alpha0=0.1,beta=3.5",
                    "--grid-n", "21",
                    "--max-steps", "10",
                    flag, str(tmp_path / name),
                ]
            )
            assert rc == 1, name


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

    def test_table_synthesizes_data_once(self, monkeypatch, tmp_path):
        # loading the config checks the geometry without synthesizing data,
        # so the sweep's data is synthesized once, by the sweep
        synthesize = gnflow.gravimetry.synthesize_data
        calls = []

        def counted(params):
            calls.append(params)
            return synthesize(params)

        monkeypatch.setattr(gnflow.gravimetry, "synthesize_data", counted)
        config = {
            "problem": {"grid_n": 41},
            "schedules": ["exp:alpha0=0.1,beta=3.5"],
            "tau_values": [0.1],
            "max_steps": 5,
        }
        cfg_path = tmp_path / "sweep.json"
        cfg_path.write_text(json.dumps(config))
        assert run_cli(["table", "--config", str(cfg_path), "--out", str(tmp_path / "t.csv")]) == 0
        assert len(calls) == 1

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
            {**runnable, "schedules": ["exp:alpha0=0.1,beta=-1"]},
            {**runnable, "problem": {"grid_N": 801}},  # misspelt keys
            {**runnable, "max_step": 5},
            {**runnable, "seed": 0},  # a field that no longer exists
        ]
        cfg = tmp_path / "bad.json"
        errors = []
        for config in bad_configs:
            cfg.write_text(json.dumps(config))
            assert run_cli(["table", "--config", str(cfg)]) == 2, config
            errors.append(capsys.readouterr().err)
            assert errors[-1].startswith("gnflow: bad config:"), config
            assert "Traceback" not in errors[-1]
        assert "'grid_N'" in errors[-3] and "'max_step'" in errors[-2]
        assert "'seed'" in errors[-1]


    @pytest.mark.parametrize(
        "change, message",
        [
            ({"tau_values": 0.1}, "tau_values must be a JSON array, got 0.1"),
            (
                {"problem": {"grid_n": 21, "rho": 1.0, "Rho": 1.0}},
                "unknown problem key(s) 'Rho'; expected l, H, rho, epsilon, grid_n",
            ),
            ({"steppers": ["euler", "euler"]}, "steppers must be distinct, got ['euler', 'euler']"),
            (
                {"schedules": ["invpow:alpha0=0.1,a=2,m=1,a=3"]},
                "repeated parameter 'a' for family 'invpow'",
            ),
            (
                {"problem": {"H": 1.0005, "epsilon": 0.001}},
                "interface value 1 exceeds admissible ceiling depth - epsilon = 0.9995",
            ),
        ],
    )
    def test_bad_config_message(self, change, message, tmp_path, capsys):
        config = {"schedules": ["exp:alpha0=0.1,beta=1"], "tau_values": [0.1], "max_steps": 3}
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({**config, **change}))
        assert run_cli(["table", "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == f"gnflow: bad config: {message}\n"


class TestSolveIsOneRunTable:
    """`gnflow solve` runs the one-row sweep config that its flags spell,
    through the settings path and the checks of `gnflow table`."""

    SCHEDULE = "exp:alpha0=0.1,beta=3.5"

    def _table(self, change, tmp_path, capsys):
        """Exit code, stderr and CSV rows of `gnflow table` on the one-row
        config with the defaults of `gnflow solve`, updated by `change`."""
        config = {"schedules": [self.SCHEDULE], "tau_values": [0.1], "steppers": ["euler"]}
        cfg = tmp_path / "one-run.json"
        cfg.write_text(json.dumps({**config, **change}))
        out = tmp_path / "table.csv"
        rc = run_cli(["table", "--config", str(cfg), "--out", str(out)])
        return rc, capsys.readouterr().err, read_csv(out) if rc == 0 else None

    @pytest.mark.parametrize(
        "flags, change",
        [
            # H = 2: the factored Jacobian
            ([], {}),
            # H = 1.1 at n = 201: the dense fallback
            (
                ["--H", "1.1", "--stepper", "rk", "--tau", "0.25"],
                {"problem": {"H": 1.1, "grid_n": 201}, "tau_values": [0.25], "steppers": ["rk"]},
            ),
        ],
    )
    def test_summary_cells_match_the_table(self, flags, change, tmp_path, capsys):
        out = tmp_path / "run.csv"
        argv = ["solve", "--schedule", self.SCHEDULE, "--grid-n", "201", *flags]
        assert run_cli([*argv, "--out", str(out)]) == 0
        _, row = read_csv(out)
        change = {"problem": {"grid_n": 201}, **change}
        rc, _, table = self._table(change, tmp_path, capsys)
        assert rc == 0 and len(table) == 2
        start = TABLE_HEADER.index(f"N_{row[0]}")
        assert row[3:8] == table[1][start:start + 5]

    @pytest.mark.parametrize(
        "flags, change",
        [
            (["--schedule", "cosine:alpha0=0.1"], {"schedules": ["cosine:alpha0=0.1"]}),
            (["--stop", "fixed:-1"], {"stop_rule": "fixed:-1"}),
            (["--grid-n", "200"], {"problem": {"grid_n": 200}}),
            (["--tau", "0"], {"tau_values": [0]}),
            (["--H", "0.9"], {"problem": {"H": 0.9}}),
        ],
    )
    def test_bad_setting_has_the_table_message(self, flags, change, tmp_path, capsys):
        rc = run_cli(["solve", "--schedule", self.SCHEDULE, *flags])
        err = capsys.readouterr().err
        table_rc, table_err, _ = self._table(change, tmp_path, capsys)
        assert rc == table_rc == 2
        message = err.removeprefix("gnflow: ")
        assert message != err and message.strip()
        assert table_err == f"gnflow: bad config: {message}"


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

    def test_growing_schedule_usage_error(self, capsys):
        # these constants pass the certificate with logderiv0 = 0.5
        rc = run_cli(
            [
                "certify",
                "--n1", "1", "--n2", "1", "--vnorm", "0.3",
                "--alpha0", "1", "--logderiv0", "0.5", "--R", "10",
            ]
        )
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gnflow: logderiv0 must be nonpositive: alpha must not grow\n"

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
        rc = run_cli(
            [
                "certify",
                "--n1", "nan", "--n2", "1", "--vnorm", "0.1",
                "--alpha0", "1", "--logderiv0", "-0.1", "--R", "10",
            ]
        )
        assert rc == 2
        assert "finite" in capsys.readouterr().err
        for bound in ("1e-200", "1e200"):  # n1 * n2 underflows or overflows
            rc = run_cli(
                [
                    "certify",
                    "--n1", bound, "--n2", bound, "--vnorm", "0.1",
                    "--alpha0", "1", "--logderiv0", "-0.1", "--R", "10",
                ]
            )
            assert rc == 2
            assert "n1 * n2" in capsys.readouterr().err


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

    @pytest.mark.parametrize(
        "schedule",
        [
            "exp:alpha0=nan,beta=1",
            "invpow:alpha0=inf,a=1,m=1",
            "invpow:alpha0=1,a=1e-320,m=1e308",  # a^m underflows: alpha(0) = inf
            "invpow:alpha0=1,a=2,m=1e308",  # a^m overflows: alpha(0) = 0
        ],
    )
    def test_non_finite_alpha_usage_error(self, schedule, capsys):
        assert run_cli(["validate-schedule", "--schedule", schedule]) == 2
        assert "finite" in capsys.readouterr().err

    def test_repeated_parameter_usage_error(self, capsys):
        rc = run_cli(["validate-schedule", "--schedule", "exp:alpha0=0.1,beta=3,beta=4"])
        assert rc == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "gnflow: repeated parameter 'beta' for family 'exp'\n"


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


SCHEDULES = [
    "exp:alpha0=0.1,beta=3.5",
    "base2:alpha0=0.1,beta=1",
    "invpow:alpha0=10,a=100,m=1",
    "exp:alpha0=nan,beta=1",
    "invpow:alpha0=inf,a=1,m=1",
    "exp:alpha0=1e-300,beta=1e300",
    "exp:alpha0=0.1,beta=-1",
    "invpow:alpha0=1,a=1e-320,m=1e308",
    "invpow:alpha0=1,a=1,m=400",
]
TOKENS = [
    "solve", "table", "certify", "validate-schedule", "-h",
    "--schedule", "--tau", "--stepper", "--max-steps", "--stop", "--grid-n",
    "--H", "--l", "--rho", "--epsilon", "--record-every", "--out",
    "--trajectory", "--config", "--n1", "--n2", "--vnorm", "--alpha0",
    "--logderiv0", "--R", "--w0",
    "euler", "rk", "fixed:3", "floor:1e-3", "increase:2", "increase:0",
    "nan", "inf", "-inf", "1e308", "config.json", "out.csv", ".", "nul\x00.csv",
    *SCHEDULES,
]
SOLVE_FLAGS = [
    "--tau", "--stepper", "--stop", "--H", "--l", "--rho", "--epsilon",
    "--record-every", "--out", "--trajectory",
]
CERTIFY_FLAGS = ["--n1", "--n2", "--vnorm", "--alpha0", "--logderiv0", "--R", "--w0"]
SMALL_CONFIG = {
    "problem": {"grid_n": 21},
    "schedules": ["exp:alpha0=0.1,beta=3.5"],
    "tau_values": [0.1],
    "max_steps": 3,
}

token = st.one_of(
    st.sampled_from(TOKENS),
    st.integers(-3, 25).map(str),
    st.floats().map(repr),
    st.text(max_size=12),
)
number = st.one_of(st.sampled_from(["1", "0.1", "-0.1", "10", "0"]), st.floats().map(repr))
argv_strategy = st.one_of(
    st.lists(token, max_size=12),
    st.builds(
        lambda command, tail: [command, *tail],
        st.sampled_from(["solve", "table", "certify", "validate-schedule"]),
        st.lists(token, max_size=12),
    ),
    st.builds(
        lambda sched, n, steps, tail: [
            "solve", "--schedule", sched, "--grid-n", str(n), "--max-steps", str(steps), *tail
        ],
        st.sampled_from(SCHEDULES) | st.text(max_size=12),
        st.integers(-1, 21),
        st.integers(-1, 5),
        st.lists(st.tuples(st.sampled_from(SOLVE_FLAGS), token).map("=".join), max_size=3),
    ),
    st.builds(
        lambda values: ["certify", *map("=".join, zip(CERTIFY_FLAGS, values))],
        st.lists(number, min_size=len(CERTIFY_FLAGS), max_size=len(CERTIFY_FLAGS)),
    ),
    st.builds(
        lambda sched: ["validate-schedule", "--schedule", sched],
        st.sampled_from(SCHEDULES) | st.text(max_size=12),
    ),
)
json_strategy = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=8), children, max_size=4),
    max_leaves=12,
)
valid_config = st.fixed_dictionaries(
    {
        "problem": st.just("certified-diagonal")
        | st.fixed_dictionaries(
            {"grid_n": st.sampled_from([3, 11, 21])},
            optional={key: st.floats(0.1, 3.0) for key in ("l", "H", "rho", "epsilon")},
        ),
        "schedules": st.lists(st.sampled_from(SCHEDULES), min_size=1, max_size=2),
        "tau_values": st.lists(st.floats(0.05, 1.0), min_size=1, max_size=2),
        "max_steps": st.integers(1, 5),
    },
    optional={
        "steppers": st.lists(st.sampled_from(["euler", "rk"]), min_size=1, max_size=2),
        "stop_rule": st.sampled_from(["increase:2", "fixed:3", "floor:0.1"]),
        "record_every": st.integers(1, 3),
        "output_path": st.sampled_from([None, "table.csv", ".", "nul\x00.csv"]),
    },
)
config_strategy = st.one_of(
    json_strategy,
    valid_config,
    # one key, known or misspelt, set to an arbitrary value
    st.builds(
        lambda config, key, value: {**config, key: value},
        valid_config,
        st.sampled_from(["problem", "schedules", "tau_values", "steppers", "stop_rule",
                         "max_steps", "record_every", "seed", "grid_n", "max_step"]),
        json_strategy,
    ),
)


def _run_main(argv):
    """main's exit code and stderr, run in a fresh working directory that
    holds a small valid `config.json`."""
    err = io.StringIO()
    with tempfile.TemporaryDirectory() as cwd, contextlib.chdir(cwd):
        Path("config.json").write_text(json.dumps(SMALL_CONFIG))
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as exc:  # argparse: usage errors and --help
                code = exc.code
    return code, err.getvalue()


def _at_most(value, limit) -> bool:
    """False only for a number above `limit` (other values fail validation)."""
    return not isinstance(value, (int, float)) or value <= limit


def _small_and_contained(argv) -> bool:
    """Whether argv asks for at most a small `solve` run, and names no file
    outside the working directory."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            args = build_parser().parse_args(argv)
        except SystemExit:
            return True
    paths = [getattr(args, name, None) for name in ("out", "trajectory", "config")]
    if any(p is not None and os.sep in p for p in paths):
        return False
    return args.command != "solve" or (args.grid_n <= 21 and args.max_steps <= 5)


def _small_sweep(config) -> bool:
    """Whether a config that could start runs asks only for small ones."""
    if not (isinstance(config, dict) and config.get("schedules") and config.get("tau_values")):
        return True  # rejected before any run starts
    problem = config.get("problem", {})
    grid_n = problem.get("grid_n", 201) if isinstance(problem, dict) else 21
    return _at_most(grid_n, 21) and _at_most(config.get("max_steps", 500), 5)


class TestFuzz:
    """Arbitrary argv and configs end in exit 0, 1 or 2, never a traceback
    (an exception escaping `main`)."""

    @settings(max_examples=200, deadline=None)
    @given(argv_strategy)
    def test_arbitrary_argv(self, argv):
        assume(_small_and_contained(argv))
        code, err = _run_main(argv)
        assert code in (0, 1, 2), (argv, code, err)
        assert "Traceback" not in err

    @settings(max_examples=200, deadline=None)
    @given(config_strategy)
    def test_arbitrary_config(self, config):
        assume(_small_sweep(config))
        with tempfile.TemporaryDirectory() as d:
            path = Path(d) / "sweep.json"
            path.write_text(json.dumps(config))
            code, err = _run_main(["table", "--config", str(path)])
        assert code in (0, 1, 2), (config, code, err)
        assert "Traceback" not in err
