"""scripts/compare_row_status.py on small report directories: rows are matched
by key, added and removed rows are listed, and the exit code says whether
every old row kept its verdict and every added gating row passes."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "compare_row_status.py"
_spec = importlib.util.spec_from_file_location("compare_row_status", SCRIPT)
compare = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(compare)


def row(axiom, index=0, status="pass", component=None, gating=True, residual=0.0):
    out = {"axiom": axiom, "map_index": index, "seed": 1, "status": status,
           "suite": "comonad", "witness_point": None, "worst_residual": residual}
    if component is not None:
        out["component"] = component
    if not gating:
        out["gating"] = False
    return out


BEFORE = [row("comonad.coalgebra-square", component=1),
          row("comonad.coalgebra-square", component=2),
          row("comonad.coassociativity"),
          row("comonad.eps-restriction"),
          row("comonad.eps-restriction")]  # a repeated key: occurrences 1 and 2


def run(tmp_path, capsys, after, before=BEFORE, name="comonad.json"):
    for side, rows in (("before", before), ("after", after)):
        d = tmp_path / side
        d.mkdir(exist_ok=True)
        if rows is not None:
            (d / name).write_text(json.dumps({"results": rows}))
    code = compare.main([str(tmp_path / "before"), str(tmp_path / "after")])
    return code, capsys.readouterr().out


def listed(out, title):
    """The rows the script lists as added or removed."""
    return [line for line in out.splitlines() if line.startswith(f"{title}: ")]


def test_equal_reports_pass(tmp_path, capsys):
    code, out = run(tmp_path, capsys, BEFORE)
    assert code == 0
    assert "bytes equal" in out
    assert listed(out, "added") == listed(out, "removed") == []


def test_rows_are_matched_by_key_not_position(tmp_path, capsys):
    after = [dict(r, worst_residual=1e-16) for r in reversed(BEFORE)]
    code, out = run(tmp_path, capsys, after)
    assert code == 0
    assert "0 verdicts differ, 0 removed, 0 added" in out


def test_added_passing_rows_are_listed_and_pass(tmp_path, capsys):
    after = BEFORE[:2] + [row("comonad.coalgebra-square", component=3)] + BEFORE[2:]
    code, out = run(tmp_path, capsys, after)
    assert code == 0
    assert listed(out, "added") == ["added: comonad #0 comonad.coalgebra-square [3] (1): pass"]


def test_an_added_gating_row_that_fails_is_an_error(tmp_path, capsys):
    after = BEFORE + [row("comonad.coalgebra-square", component=3, status="fail")]
    code, out = run(tmp_path, capsys, after)
    assert code == 1
    assert "1 added (1 gating not passing)" in out


def test_an_added_row_that_does_not_gate_may_fail(tmp_path, capsys):
    after = BEFORE + [row("comonad.note", status="fail", gating=False)]
    code, out = run(tmp_path, capsys, after)
    assert code == 0
    assert listed(out, "added") == ["added: comonad #0 comonad.note (1): fail, not gating"]


@pytest.mark.parametrize("change", ["status", "gating"])
def test_an_old_row_that_changes_its_verdict_is_an_error(tmp_path, capsys, change):
    after = [dict(r) for r in BEFORE]
    if change == "status":
        after[2]["status"] = "fail"
    else:
        after[2]["gating"] = False
    code, out = run(tmp_path, capsys, after)
    assert code == 1
    assert "1 verdicts differ" in out


def test_a_removed_row_is_an_error(tmp_path, capsys):
    code, out = run(tmp_path, capsys, BEFORE[:-1])
    assert code == 1
    assert listed(out, "removed") == ["removed: comonad #0 comonad.eps-restriction (2): pass"]


def test_a_removed_report_is_an_error(tmp_path, capsys):
    code, out = run(tmp_path, capsys, None)
    assert code == 1
    assert "missing in" in out and len(listed(out, "removed")) == len(BEFORE)


def test_a_new_report_is_its_added_rows(tmp_path, capsys):
    code, out = run(tmp_path, capsys, BEFORE, before=None)
    assert code == 0
    assert len(listed(out, "added")) == len(BEFORE)
