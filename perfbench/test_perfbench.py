"""Tests of the benchmark's own input generation, checks and tracing."""

from __future__ import annotations

import csv
import io
import json
import math
import shutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from gnflow import (  # noqa: E402
    InversePower,
    certified_diagonal_instance,
    parse_schedule,
    validate_rate_function,
)
from gnflow.harness import TABLE_HEADER, spec_from_config  # noqa: E402

HERE = Path(__file__).resolve().parent
SEEDS = range(20)


def test_same_seed_gives_same_inputs():
    for seed in SEEDS:
        assert workloads.sweep_config(seed) == workloads.sweep_config(seed)
        assert workloads.solve_schedule(seed) == workloads.solve_schedule(seed)
        assert workloads.certified_schedule(seed) == workloads.certified_schedule(seed)


def test_seeds_vary_the_inputs():
    assert len({json.dumps(workloads.sweep_config(s)) for s in SEEDS}) == len(SEEDS)
    assert len({workloads.solve_schedule(s) for s in SEEDS}) == len(SEEDS)
    assert len({workloads.certified_schedule(s) for s in SEEDS}) == len(SEEDS)


def test_sweep_config_is_the_readme_sweep_with_two_seeded_rows():
    families = set()
    for seed in SEEDS:
        config = workloads.sweep_config(seed)
        spec = spec_from_config(config)
        assert spec.problem.node_count == 201
        assert list(spec.tau_values) == [0.1]
        assert list(spec.steppers) == ["euler", "rk"]
        fixed, first, second = config["schedules"]
        assert fixed == workloads.SWEEP_FIXED_SCHEDULE
        schedule = parse_schedule(first)
        families.add(first.partition(":")[0])
        rate = -schedule.log_derivative(0.0)
        assert 2.95 <= rate <= 3.05
        invpow = parse_schedule(second)
        assert isinstance(invpow, InversePower) and 9.9 <= invpow.m <= 10.1
        for s in spec.schedules:
            validate_rate_function(s)
    assert families == {"exp", "base2"}


def test_solve_and_certified_schedules_stay_in_their_bands():
    for seed in SEEDS:
        beta = parse_schedule(workloads.solve_schedule(seed)).beta
        assert 3.45 <= beta <= 3.55
        schedule = parse_schedule(workloads.certified_schedule(seed))
        assert 9.8 <= schedule.alpha0 <= 10.2 and 98 <= schedule.a <= 102
        assert schedule.m == 1


@pytest.mark.parametrize("alpha0", [9.8, 10.2])
@pytest.mark.parametrize("a", [98.0, 102.0])
def test_certificate_passes_across_the_certified_band(alpha0, a):
    instance = certified_diagonal_instance(schedule=InversePower(alpha0=alpha0, a=a, m=1))
    assert instance.certificate.passed


def _table(rows):
    out = io.StringIO()
    csv.writer(out).writerows([TABLE_HEADER, *rows])
    return out.getvalue()


GOOD_ROW = ["exp:alpha0=0.1,beta=1", 0.1, 186, 0.12, 0.05, 7e-6, 0, 277, 0.03, 0.01, 2e-8, 0]


def test_check_table_accepts_a_good_table_and_returns_its_largest_error():
    error, problems = workloads.check_table(_table([GOOD_ROW]), [GOOD_ROW[0]])
    assert problems == [] and error == 0.12


@pytest.mark.parametrize(
    "column, value, expected",
    [
        ("euler_diverged", 1, "diverged"),
        ("sigma_R", 0.5, "discrepancy exceeds"),
        ("delta_E_sup", "nan", "non-finite"),
        ("N_rk", "", "non-numeric"),
    ],
)
def test_check_table_flags_bad_cells(column, value, expected):
    row = list(GOOD_ROW)
    row[TABLE_HEADER.index(column)] = value
    _, problems = workloads.check_table(_table([row]), [GOOD_ROW[0]])
    assert any(expected in p for p in problems)


def test_check_table_flags_wrong_shape_and_header():
    _, problems = workloads.check_table(_table([GOOD_ROW]), [GOOD_ROW[0], "exp:alpha0=1,beta=1"])
    assert any("shape" in p for p in problems)
    _, problems = workloads.check_table(_table([GOOD_ROW]).replace("N_rk", "n_rk"), [GOOD_ROW[0]])
    assert problems == ["table header is wrong"]


def _report(**changes):
    fields = dict(
        diverged=False,
        stop_reason="alpha_floor",
        discrepancy=1e-5,
        error_sup=0.02,
        error_l2=0.01,
        final_x=types.SimpleNamespace(values=[1.0, 0.5]),
    )
    fields.update(changes)
    return types.SimpleNamespace(**fields)


def test_check_report():
    assert workloads.check_report(_report(), workloads.DISCREPANCY_CAP) == []
    assert workloads.check_report(_report(discrepancy=0.5), None) == []
    assert "exceeds" in workloads.check_report(_report(discrepancy=0.5), 1e-2)[0]
    diverged = _report(diverged=True, stop_reason="diverged: x")
    assert "diverged" in workloads.check_report(diverged, 1e-2)[0]
    assert "non-finite" in workloads.check_report(_report(error_sup=math.inf), 1e-2)[0]
    bad_x = _report(final_x=types.SimpleNamespace(values=[math.nan]))
    assert "non-finite" in workloads.check_report(bad_x, 1e-2)[0]


def test_sweep_unit_requires_byte_identical_tables(tmp_path):
    sweep = workloads.SweepN201(0, tmp_path)
    small = {"problem": {"grid_n": 21}, "schedules": ["exp:alpha0=0.1,beta=3.5000"]}
    sweep.config = {**sweep.config, **small}
    sweep.setup()
    first = sweep.unit()
    assert first.problems == [] and first.steps > 0
    assert sweep.unit().problems == []
    sweep.first_csv = sweep.first_csv.replace(b"exp", b"EXP", 1)
    assert "differs" in sweep.unit().problems[-1]


def test_certified_unit_passes_its_checks(tmp_path):
    certified = workloads.CertifiedDiagonal(3, tmp_path)
    certified.setup()
    outcome = certified.unit()
    assert outcome.problems == []
    assert outcome.steps == workloads.CERTIFIED_STEPS
    assert 0 < outcome.error_sup < 1e-3


class _Shape:
    def area(self):
        return 1.0

    @classmethod
    def unit(cls):
        return cls()


class _Square(_Shape):
    def side(self):
        return self.area()


def test_tracer_records_nested_spans_and_restores_attributes():
    module = types.SimpleNamespace(work=lambda shape: shape.side() + _Square.unit().side())
    with tracing.Tracer() as tracer:
        tracer.wrap(module, "work", "work")
        tracer.wrap(_Square, "side", "side")
        tracer.wrap(_Square, "area", "area")  # inherited: restored by deleting
        tracer.wrap(_Shape, "unit", "unit")
        assert module.work(_Square()) == 2.0
    assert "area" not in vars(_Square) and "side" in vars(_Square)
    assert isinstance(vars(_Shape)["unit"], classmethod) and _Square.unit().side() == 1.0
    names = [s[0] for s in tracer.spans]
    assert names == ["work", "side", "area", "unit", "side", "area"]
    assert [s[3] for s in tracer.spans] == [-1, 0, 1, 0, 0, 4]
    totals = tracing.layer_totals(tracer.spans)
    assert totals["side"]["calls"] == 2 and totals["area"]["calls"] == 2
    work = tracer.spans[0]
    children = sum(s[2] - s[1] for s in tracer.spans if s[3] == 0)
    assert totals["work"]["self_s"] == pytest.approx(work[2] - work[1] - children)
    self_total = sum(t["self_s"] for t in totals.values())
    assert self_total == pytest.approx(work[2] - work[1])


def test_benchmark_json_lists_the_metrics_the_benchmark_reports():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: run.layer_unit(name) for name in run.PER_LAYER
    }


def test_benchmark_fails_without_the_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "solve-n801", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
