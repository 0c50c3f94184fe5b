"""The benchmark's traced run wraps gnflow names from outside; each must
still resolve, so that renaming or deleting one fails this suite rather
than `perfbench/run.py --trace 1`."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parent.parent / "perfbench" / "workloads.py"


def test_every_trace_point_resolves(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # dataclasses look their defining module up in sys.modules
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    points = workloads.trace_points()
    assert points
    for owner, attr, name in points:
        assert callable(getattr(owner, attr, None)), (owner, attr, name)
