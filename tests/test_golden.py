"""Byte-for-byte golden outputs of the CLI's JSON format.

Each case runs one subcommand with ``--format json`` on a fixture and
compares the bytes with ``tests/fixtures/golden/<case>.json``; one more case
pins the ``solve-det --trace`` JSONL of ``facility8``, which records every
continuous-greedy round's support and F(y) and every pipage swap.  A change
that alters any output must regenerate the files on purpose and say so:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

from fairsubmax.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = FIXTURES / "golden"

_COMMANDS = {
    "solve-rand-exact": ["solve-rand", "--oracle-mode", "exact"],
    "solve-rand-heuristic": ["solve-rand", "--oracle-mode", "heuristic"],
    "solve-det": ["solve-det"],
    "solve-greedy": ["solve-greedy"],
    "oracle": ["oracle"],
}

# every subcommand on the desk-scale fixtures; the randomized solver alone on
# cover22 (n = 22, b = 4, overlapping coverage groups, 9109 feasible sets);
# the deterministic solvers at 9n^2 rounds on cover12 (coverage, three
# disjoint covering groups, integral windows) and facility8 (facility
# location, fractional windows)
_FIXTURE_COMMANDS = {
    "toy3": tuple(_COMMANDS),
    "rand2": tuple(_COMMANDS),
    "cover22": ("solve-rand-exact", "solve-rand-heuristic"),
    "cover12": ("solve-det", "solve-greedy"),
    "facility8": ("solve-det", "solve-greedy"),
}

CASES = {
    f"{name}-{fixture}": _COMMANDS[name] + ["--instance", str(FIXTURES / f"{fixture}.json")]
    for fixture, names in _FIXTURE_COMMANDS.items()
    for name in names
}


TRACE_CASE = "solve-det-trace-facility8"
TRACE_ARGV = ["solve-det", "--instance", str(FIXTURES / "facility8.json")]


def _run(argv: list[str], out: Path) -> bytes:
    assert main(argv + ["--format", "json", "--out", str(out)]) == 0
    return out.read_bytes()


def _run_trace(trace: Path, out: Path) -> bytes:
    _run(TRACE_ARGV + ["--trace", str(trace)], out)
    return trace.read_bytes()


@pytest.mark.parametrize("case", sorted(CASES))
def test_json_output_matches_golden_file(case, tmp_path):
    expected = (GOLDEN / f"{case}.json").read_bytes()
    assert _run(CASES[case], tmp_path / "out.json") == expected


def test_solve_det_trace_matches_golden_file(tmp_path):
    expected = (GOLDEN / f"{TRACE_CASE}.jsonl").read_bytes()
    assert _run_trace(tmp_path / "trace.jsonl", tmp_path / "out.json") == expected


if __name__ == "__main__":  # pragma: no cover
    GOLDEN.mkdir(exist_ok=True)
    for case, argv in sorted(CASES.items()):
        _run(argv, GOLDEN / f"{case}.json")
        print(f"wrote {GOLDEN / case}.json", file=sys.stderr)
    _run_trace(GOLDEN / f"{TRACE_CASE}.jsonl", GOLDEN / "trace-run.json")
    (GOLDEN / "trace-run.json").unlink()
    print(f"wrote {GOLDEN / TRACE_CASE}.jsonl", file=sys.stderr)
