import json
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faadibruno.config import RunConfig
from faadibruno.report import (
    ROWS_PER_PIECE,
    CheckResult,
    overall_status,
    sort_results,
    write_report,
)

GOLDEN = sorted((Path(__file__).parent / "golden").glob("*.json"))


def json_dumps(doc) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def document(results, cfg, suites) -> dict:
    """The schema 1 report of results, built from the fields of cfg."""
    keys = ("samples", "tol_rel", "tol_abs", "order", "radius", "retry_cap")
    return {"schema": 1, "suites": sorted(suites), "seed": cfg.seed,
            "config": {k: getattr(cfg, k) for k in keys},
            "status": overall_status(results), "results": [r.as_dict() for r in results]}


def streamed(results, cfg, suites) -> list[str]:
    """The pieces write_report writes, in order, recorded by a sink."""
    pieces: list[str] = []
    write_report(SimpleNamespace(write=pieces.append), results, cfg, suites)
    return pieces


def result_of(row: dict) -> CheckResult:
    """The inverse of CheckResult.as_dict."""
    witness = row["witness_point"]
    return CheckResult(**{**row, "witness_point": None if witness is None else tuple(witness)})


@pytest.mark.parametrize("path", GOLDEN, ids=lambda p: p.stem)
def test_render_json_gives_each_golden_report_byte_for_byte(path):
    """write_report writes each golden again from the golden's own rows."""
    text = path.read_text(encoding="utf-8")
    doc = json.loads(text)
    results = [result_of(row) for row in doc["results"]]
    cfg = SimpleNamespace(seed=doc["seed"], **doc["config"])
    assert document(results, cfg, doc["suites"]) == doc
    assert "".join(streamed(results, cfg, doc["suites"])) == json_dumps(doc) == text


NOTES = st.one_of(st.just(""), st.text(), st.sampled_from(
    ['he said "no"', "back\\slash", "tab\there", "ünïcödé ∂f/∂x", "emoji 😀", "line\nbreak"]))
FLOATS = st.one_of(st.floats(), st.sampled_from([-1.0, 0.0, -0.0, 1e-300, 1e300]))
RESULTS = st.builds(
    CheckResult,
    suite=st.sampled_from(["cd", "dr", "faa-r", "comonad", "split", "linear"]),
    map_index=st.integers(0, 10**6),
    axiom=st.text(min_size=1),
    status=st.sampled_from(["pass", "fail", "starved"]),
    worst_residual=FLOATS,
    seed=st.integers(0, 2**31 - 1),
    witness_point=st.one_of(st.none(), st.lists(FLOATS, max_size=4).map(tuple)),
    component=st.one_of(st.none(), st.integers(0, 8)),
    gating=st.booleans(),
    note=NOTES)


@given(st.lists(RESULTS, max_size=6), st.lists(st.sampled_from(["cd", "dr", "split"]),
                                               max_size=3))
def test_render_json_equals_json_dumps_on_reports(results, suites):
    """The streamed report too, which is the text the CLI writes."""
    ordered = sort_results(results)
    doc = document(ordered, RunConfig(), suites)
    assert "".join(streamed(ordered, RunConfig(), suites)) == json_dumps(doc)


def test_report_writer_writes_no_piece_longer_than_the_header_or_a_piece_of_rows():
    """The report is written a piece at a time, so the text held at once
    does not grow with the number of rows; the last piece of rows is short."""
    results = sort_results([
        CheckResult("cd", i, f"CD.{i % 7 + 1}", "fail" if i % 5 == 0 else "pass",
                    i * 1e-13, 1000 + i, witness_point=(0.5, -1.25) if i % 5 == 0 else None,
                    note="x" * 80 if i == 17 else "")
        for i in range(20 * ROWS_PER_PIECE + 3)])
    pieces = streamed(results, RunConfig(), ["cd"])
    text = "".join(pieces)
    assert text == json_dumps(document(results, RunConfig(), ["cd"]))
    header = text[:text.index("[") + 1]
    assert header.endswith('"results": [')
    # a row with the comma, newline and indent that come before it
    rows = [",\n    " + json.dumps(r.as_dict(), sort_keys=True, indent=2).replace("\n", "\n    ")
            for r in results]
    longest = max(sum(map(len, rows[i:i + ROWS_PER_PIECE])) for i in range(len(rows)))
    bound = max(len(header), longest)
    assert max(map(len, pieces)) <= bound < len(text) // 10
    assert len(pieces) > len(results) // ROWS_PER_PIECE
