"""The committed kill matrix, MUTANTS.json, against scripts/kill_matrix.py:
no mutant has left the table, each edit still applies exactly once, and each
killed mutant is still killed at its first kill, with the recorded exit code
and first failing row."""

import importlib.util
import json
from pathlib import Path

import pytest

from faadibruno.cli import SUITES

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("kill_matrix", ROOT / "scripts" / "kill_matrix.py")
kill_matrix = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(kill_matrix)

RECORDED = json.loads((ROOT / "MUTANTS.json").read_text(encoding="utf-8"))
TABLE = {m.name: m for m in kill_matrix.MUTANTS}


def test_no_mutant_has_left_the_table():
    assert set(RECORDED["mutants"]) == set(TABLE)
    assert RECORDED["config"] == {"orders": [3, 4], "samples": 50, "seed": 42,
                                  "suites": list(SUITES)}
    assert kill_matrix.SUITES == tuple(SUITES)
    for name, entry in RECORDED["mutants"].items():
        assert (entry["what"], entry["file"]) == (TABLE[name].what, TABLE[name].file)


def test_each_mutant_edits_its_file_at_exactly_one_place(tmp_path):
    for m in kill_matrix.MUTANTS:
        tree = kill_matrix.mutated_copy(ROOT / "src", m, tmp_path / m.name)
        assert (tree / m.file).read_text(encoding="utf-8").count(m.new) >= 1


@pytest.mark.parametrize("name", sorted(name for name, entry in RECORDED["mutants"].items()
                                        if entry["first_kill"]))
def test_a_killed_mutant_is_still_killed_at_its_first_kill(name, tmp_path):
    entry = RECORDED["mutants"][name]
    suite, order = entry["first_kill"].split("@")
    tree = kill_matrix.mutated_copy(ROOT / "src", TABLE[name], tmp_path / "src")
    run = kill_matrix.run_suite(tree, suite, int(order), tmp_path)
    run.pop("gating_axioms", None)
    assert run["exit"] != 0
    assert run == entry["runs"][entry["first_kill"]]
