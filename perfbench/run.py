"""gnflow benchmark: end-to-end metrics per workload, or a traced run with
per-layer metrics.

    python3 perfbench/run.py --workload solve-n801 --seed 1 --seconds 36 --trace 0

Run from anywhere; the program is imported from `src/` next to this
directory.  Each workload is a closed loop: one process runs one unit after
another, stopping once the next unit would end after `--seconds` (at least
`min_units` run).  `setup_s` is timed in fresh child interpreters before the
loop.  No BLAS thread variable is set for any timed unit, so the numbers
follow the threading the process inherits.

`--trace 0` reports the end-to-end metrics.  `--trace 1` runs a warm-up
unit, one untraced and one traced unit, then a warm-up and a traced unit in a
child process with `OPENBLAS_NUM_THREADS=1` (the `blas1.` metrics), and
writes the spans to `.perfbench_out/`.  Human-readable lines come first; the
last line of stdout is one JSON object with `correct`, `attempted`, `failed`
and `metrics`.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, layer_totals

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"

SETUP_SAMPLES = 9
CHILD_TIMEOUT_S = 150

# name -> unit, for --trace 0
END_TO_END = {
    "wall_s.p50": "s",
    "steps_per_s": "1/s",
    "error_sup.max": "1",
    "ok_frac": "1",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

# Per-layer metrics, grouped by the end-to-end metric and workload each group
# should move.  `<span>.calls|s|self_s` come from the spans of one traced unit.
LAYER_PREDICTIONS = {
    "wall_s.p50 on solve-n801 and sweep-n201; no change on certified-diagonal": (
        "gravimetry.residual.calls",
        "gravimetry.residual.s",
        "gravimetry.residual.per_step",
        "gravimetry.jacobian.calls",
        "gravimetry.jacobian.s",
    ),
    "wall_s.p50 most on solve-n801, and on sweep-n201 under 2-thread BLAS; "
    "error_sup.max once the normal solve changes": (
        "flow.normal_solve.calls",
        "flow.normal_solve.self_s",
        "flow.cho_factor.s",
        "flow.cho_solve.s",
    ),
    "steps_per_s on certified-diagonal; a few percent at most of solve-n801": (
        "flow.velocity.calls",
        "flow.velocity.self_s",
        "flow.run_flow.calls",
        "flow.run_flow.self_s",
        "flow.steps",
        "grids.GridFunction.calls",
        "grids.GridFunction.s",
        "grids.l2_norm.calls",
        "schedules.alpha.calls",
    ),
    "certified-diagonal only": (
        "certificate.comparison_check.s",
        "certificate.bound_curve.calls",
        "synthetic.residual.s",
        "synthetic.jacobian.s",
    ),
    "setup_s, and sweep-n201 only": (
        "harness.load_spec.s",
        "harness.run_table.self_s",
        "harness.write_table_csv.s",
        "cli.main.self_s",
        "gravimetry.synthetic.s",
    ),
    "none: the cost of tracing, and unit time outside every layer span": (
        "trace.wall_s",
        "trace.overhead_s",
        "trace.unattributed_s",
    ),
    "none: single-thread BLAS baseline, informational": (
        "blas1.trace.wall_s",
        "blas1.flow.normal_solve.self_s",
        "blas1.flow.cho_factor.s",
        "blas1.gravimetry.residual.s",
        "blas1.gravimetry.jacobian.s",
        "blas1.flow.velocity.self_s",
    ),
}
PER_LAYER = [name for group in LAYER_PREDICTIONS.values() for name in group]


def layer_unit(name: str) -> str:
    if name.endswith(".calls") or name == "flow.steps":
        return "count"
    if name.endswith(".per_step"):
        return "count/step"
    return "s"


def blas_libraries() -> list[dict]:
    """Every OpenBLAS copy loaded in this process with its thread count.

    numpy ships `libscipy_openblas64_` (used for `@` and the Gram matrix) and
    scipy ships `libscipy_openblas` (used by `cho_factor`); each has its own
    thread pool.
    """
    with open("/proc/self/maps") as maps:
        paths = sorted({line.split()[-1] for line in maps if "openblas" in line})
    found = []
    for path in paths:
        lib = ctypes.CDLL(path)
        for suffix in ("64_", ""):
            get_threads = getattr(lib, f"scipy_openblas_get_num_threads{suffix}", None)
            get_config = getattr(lib, f"scipy_openblas_get_config{suffix}", None)
            if get_threads is not None and get_config is not None:
                get_threads.argtypes, get_threads.restype = [], ctypes.c_int
                get_config.argtypes, get_config.restype = [], ctypes.c_char_p
                found.append(
                    {
                        "library": os.path.basename(path),
                        "threads": get_threads(),
                        "config": get_config().decode(),
                    }
                )
                break
    return found


def cache_sizes() -> dict[str, str]:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level, kind, size = (
                (index / f).read_text().strip() for f in ("level", "type", "size")
            )
        except OSError:
            continue
        caches[f"L{level}{'' if kind == 'Unified' else kind[0].lower()}"] = size
    return caches


def run_metadata() -> dict:
    import numpy
    import scipy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "caches": cache_sizes(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas_libraries(),
        "thread_env": {
            k: os.environ[k]
            for k in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")
            if k in os.environ
        },
    }


SETUP_CHILD = """
import sys, time
start = time.perf_counter()
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from pathlib import Path
import workloads
workloads.WORKLOADS[sys.argv[3]](int(sys.argv[4]), Path(sys.argv[5])).setup()
print(time.perf_counter() - start)
"""


def setup_seconds(workload: str, seed: int, workdir: Path) -> float:
    """Median over fresh interpreters of the time from before `import
    gnflow` to a built problem."""
    samples = []
    for i in range(SETUP_SAMPLES):
        child_dir = workdir / f"setup{i}"
        child_dir.mkdir()
        child_args = [str(SRC), str(HERE), workload, str(seed), str(child_dir)]
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CHILD, *child_args],
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
            check=True,
        )
        samples.append(float(done.stdout.split()[-1]))
    return statistics.median(samples)


def run_unit(unit, failures: list[str]):
    """Run one unit; return (wall seconds, outcome, or None if it raised)."""
    start = time.perf_counter()
    try:
        outcome = unit()
    except Exception as exc:  # a unit that raises is a failed unit
        failures.append(f"unit raised {type(exc).__name__}: {exc}")
        return time.perf_counter() - start, None
    wall = time.perf_counter() - start
    failures.extend(outcome.problems)
    return wall, outcome


def passed(outcome) -> bool:
    return outcome is not None and not outcome.problems


def timed_run(workload, args, workdir: Path) -> dict:
    setup_s = setup_seconds(args.workload, args.seed, workdir)
    workload.setup()
    walls, steps, errors, failures = [], 0, [], []
    start = time.perf_counter()
    while len(walls) < workload.min_units or (
        time.perf_counter() - start + statistics.median(walls) <= args.seconds
    ):
        wall, outcome = run_unit(workload.unit, failures)
        walls.append(wall)
        if passed(outcome):
            steps += outcome.steps
            errors.append(outcome.error_sup)
    metrics = {
        "wall_s.p50": statistics.median(walls),
        "steps_per_s": steps / sum(walls),
        "error_sup.max": max(errors) if errors else None,
        "ok_frac": len(errors) / len(walls),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup_s,
    }
    return {
        "attempted": len(walls),
        "failed": len(walls) - len(errors),
        "failures": failures,
        "metrics": metrics,
        "unit_walls": walls,
    }


def traced_unit(workload, trace_points, failures: list[str]):
    """Run one unit with every trace point wrapped; return its per-layer
    metrics and its spans."""
    with Tracer() as tracer:
        for owner, attr, name in trace_points:
            tracer.wrap(owner, attr, name)
        wall, outcome = run_unit(tracer.span("bench.unit", workload.unit), failures)
    totals = layer_totals(tracer.spans)
    steps = outcome.steps if outcome is not None else 0
    metrics = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        if field in ("calls", "s", "self_s") and not name.startswith("blas1."):
            metrics[name] = totals.get(span, {}).get(field, 0)
    metrics["flow.steps"] = steps
    residuals = metrics["gravimetry.residual.calls"]
    metrics["gravimetry.residual.per_step"] = residuals / steps if steps else 0.0
    metrics["trace.wall_s"] = wall
    metrics["trace.unattributed_s"] = totals["bench.unit"]["self_s"]
    return {
        "attempted": 1,
        "failed": 0 if passed(outcome) else 1,
        "failures": failures,
        "metrics": metrics,
        "spans": tracer.spans,
    }


def write_spans(name: str, meta: dict, spans: list) -> None:
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"spans-{name}.json", "w") as fh:
        json.dump({"metadata": meta, "spans": spans}, fh)


def blas1_unit(args) -> dict:
    """A warm-up and a traced unit in a child process with single-thread
    OpenBLAS."""
    done = subprocess.run(
        [
            sys.executable,
            str(Path(__file__).resolve()),
            "--workload", args.workload,
            "--seed", str(args.seed),
            "--seconds", str(args.seconds),
            "--trace", "1",
            "--single-traced-unit",
        ],
        env={**os.environ, "OPENBLAS_NUM_THREADS": "1"},
        capture_output=True,
        text=True,
        timeout=CHILD_TIMEOUT_S,
        check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def warm_then_traced(workload, trace_points, untraced_units: int) -> dict:
    """Set up, run `untraced_units` units (the first warms caches and lazy
    initialisation), then one traced unit."""
    workload.setup()
    failures = []
    untraced = [run_unit(workload.unit, failures) for _ in range(untraced_units)]
    result = traced_unit(workload, trace_points, failures)
    result["attempted"] += untraced_units
    result["failed"] += sum(not passed(outcome) for _, outcome in untraced)
    result["untraced_wall_s"] = untraced[-1][0]
    return result


def traced_run(workload, trace_points, args, meta: dict) -> dict:
    result = warm_then_traced(workload, trace_points, untraced_units=2)
    write_spans(f"{args.workload}-seed{args.seed}", meta, result.pop("spans"))
    metrics = result["metrics"]
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - result.pop("untraced_wall_s")
    child = blas1_unit(args)
    meta["blas1"] = child["blas"]
    for name in PER_LAYER:
        if name.startswith("blas1."):
            metrics[name] = child["metrics"][name.removeprefix("blas1.")]
    result["attempted"] += child["attempted"]
    result["failed"] += child["failed"]
    result["failures"] += child["failures"]
    return result


def print_result(args, meta: dict, result: dict) -> None:
    units = END_TO_END if args.trace == 0 else {n: layer_unit(n) for n in PER_LAYER}
    print("meta " + json.dumps(meta))
    for failure in result["failures"]:
        print(f"FAILED {failure}")
    print(f"{args.workload}: {result['attempted']} units, {result['failed']} failed "
          f"(failed_frac {result['failed'] / result['attempted']:.6g})")
    if "unit_walls" in result:
        print("unit wall s: " + " ".join(f"{w:.4g}" for w in result["unit_walls"]))
    for name, unit in units.items():
        print(f"{args.workload} {name} = {result['metrics'][name]} {unit}")
    metrics = {n: {"value": result["metrics"][n], "unit": u} for n, u in units.items()}
    print(
        json.dumps(
            {
                "correct": result["failed"] == 0,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": metrics,
            }
        )
    )


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--single-traced-unit", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "gnflow" / "__init__.py").is_file():
        print(f"perfbench: no gnflow source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import gnflow
    import workloads

    if not Path(gnflow.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: gnflow was imported from {gnflow.__file__}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; expected {sorted(workloads.WORKLOADS)}")

    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir)
        meta = run_metadata()
        if args.single_traced_unit:
            result = warm_then_traced(workload, workloads.trace_points(), untraced_units=1)
            write_spans(f"{args.workload}-seed{args.seed}-blas1", meta, result.pop("spans"))
            print(json.dumps({**result, "blas": meta["blas"]}))
            return 0
        if args.trace:
            result = traced_run(workload, workloads.trace_points(), args, meta)
        else:
            result = timed_run(workload, args, workdir)
    finally:
        shutil.rmtree(workdir)
    print_result(args, meta, result)
    return 0


if __name__ == "__main__":
    sys.exit(main())
