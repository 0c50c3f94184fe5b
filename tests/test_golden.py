"""Byte identity of the CLI outputs: each CSV under `tests/golden/` is made
again by the `gnflow` command that wrote it and compared byte for byte.
`tests/golden/README.md` lists the commands and how to regenerate the files.
"""

from __future__ import annotations

from pathlib import Path

import pytest

from gnflow.cli import main

GOLDEN = Path(__file__).parent / "golden"
SOLVE = ["solve", "--schedule", "exp:alpha0=0.1,beta=3.5", "--grid-n", "201"]

# each command, without its output flags, and the golden file of each flag
RUNS = {
    "sweep": (["table", "--config", "sweep.json"], {"--out": "sweep.csv"}),
    "certified-increase": (
        ["table", "--config", "certified-increase.json"],
        {"--out": "certified-increase.csv"},
    ),
    "certified-fixed": (
        ["table", "--config", "certified-fixed.json"],
        {"--out": "certified-fixed.csv"},
    ),
    "solve-h2": (SOLVE, {"--out": "solve-h2.csv", "--trajectory": "solve-h2-trajectory.csv"}),
    "solve-h1.1": (
        [*SOLVE, "--H", "1.1"],
        {"--out": "solve-h1.1.csv", "--trajectory": "solve-h1.1-trajectory.csv"},
    ),
    "solve-h1.1-rk": (
        [*SOLVE, "--H", "1.1", "--stepper", "rk", "--tau", "0.25"],
        {"--out": "solve-h1.1-rk.csv", "--trajectory": "solve-h1.1-rk-trajectory.csv"},
    ),
    "solve-fixed150": (
        [*SOLVE, "--stop", "fixed:150"],
        {"--out": "solve-fixed150.csv", "--trajectory": "solve-fixed150-trajectory.csv"},
    ),
}


@pytest.mark.parametrize("name", RUNS)
def test_output_matches_golden(name, tmp_path, monkeypatch):
    argv, outputs = RUNS[name]
    monkeypatch.chdir(GOLDEN)  # the configs are named relative to it
    flags = [part for flag, file in outputs.items() for part in (flag, str(tmp_path / file))]
    assert main([*argv, *flags]) == 0
    for file in outputs.values():
        assert (tmp_path / file).read_bytes() == (GOLDEN / file).read_bytes(), file


def test_every_golden_file_is_checked():
    checked = {file for _, outputs in RUNS.values() for file in outputs.values()}
    assert {p.name for p in GOLDEN.glob("*.csv")} == checked
