"""Byte identity of the CLI outputs: each CSV under `tests/golden/` is made
again by the `gnflow` command that wrote it and compared byte for byte.
`tests/golden/README.md` lists the commands and how to regenerate the files.
The examples of the project README are run against the same files.
"""

from __future__ import annotations

import csv
import json
import re
from pathlib import Path

import pytest

from gnflow.cli import main

GOLDEN = Path(__file__).parent / "golden"
README = Path(__file__).parents[1] / "README.md"
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


def readme_block(heading: str, language: str) -> str:
    """The first `language` code block of the README after `heading`."""
    text = README.read_text()
    section = text[text.index(f"\n{heading}\n") :]
    return re.search(rf"```{language}\n(.*?)```", section, re.S).group(1)


def test_readme_examples_match_the_goldens(capsys):
    # the Quick start is the golden `solve-h2` run through the API: its
    # printout, in the CSV's .12e form, is that summary's N, delta_sup and
    # sigma; and the sweep config is the golden one plus its output path
    exec(readme_block("## Quick start (API)", "python"), {})
    steps, error_sup, sigma = capsys.readouterr().out.split()
    with open(GOLDEN / "solve-h2.csv", newline="") as f:
        (summary,) = csv.DictReader(f)
    assert steps == summary["N"]
    assert f"{float(error_sup):.12e}" == summary["delta_sup"]
    assert f"{float(sigma):.12e}" == summary["sigma"]
    config = json.loads(readme_block("### Sweep config (`gnflow table`)", "json"))
    golden = json.loads((GOLDEN / "sweep.json").read_text())
    assert config == {**golden, "output_path": "table.csv"}
