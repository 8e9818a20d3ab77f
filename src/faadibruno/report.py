"""Check results and their deterministic JSON serialization (schema 1)."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields
from itertools import repeat

from .config import RunConfig

SCHEMA_VERSION = 1

PASS = "pass"
FAIL = "fail"
STARVED = "starved"


@dataclass(frozen=True, slots=True)
class CheckResult:
    suite: str
    map_index: int
    axiom: str
    status: str  # pass | fail | starved
    worst_residual: float
    seed: int
    witness_point: tuple[float, ...] | None = None
    component: int | None = None
    gating: bool = True  # informational rows never gate the exit code
    note: str = ""

    def as_dict(self) -> dict:
        out = {
            "suite": self.suite,
            "map_index": self.map_index,
            "axiom": self.axiom,
            "status": self.status,
            "worst_residual": self.worst_residual,
            "seed": self.seed,
            "witness_point": list(self.witness_point) if self.witness_point is not None else None,
        }
        if self.component is not None:
            out["component"] = self.component
        if not self.gating:
            out["gating"] = False
        if self.note:
            out["note"] = self.note
        return out


def sort_results(results: list[CheckResult]) -> list[CheckResult]:
    return sorted(results, key=lambda r: (r.suite, r.map_index, r.axiom, r.component or 0))


def overall_status(results: list[CheckResult]) -> str:
    gating = [r for r in results if r.gating]
    if any(r.status == FAIL for r in gating):
        return FAIL
    if any(r.status == STARVED for r in gating):
        return STARVED
    return PASS


def write_report(fh, results: list[CheckResult], cfg, suites: list[str]) -> None:
    """Write the report of results, which are in report order (sort_results),
    to fh as json.dumps(report, sort_keys=True, indent=2) + "\n" would, a
    piece at a time: the keys before "results", then each row as it is
    rendered, then "status" and "suites".  No piece is longer than the text
    before the first row or one rendered row, so the whole text is never
    held.  The text is written here, since json.dumps with an indent falls
    back to its pure-Python encoder."""
    document = {
        "schema": SCHEMA_VERSION,
        "suites": sorted(suites),
        "seed": cfg.seed,
        "config": {f.name: getattr(cfg, f.name) for f in fields(RunConfig) if f.name != "seed"},
        "status": overall_status(results),
        "results": map(CheckResult.as_dict, results),
    }
    for piece in _pieces(document, "\n", 1):
        fh.write(piece)
    fh.write("\n")


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null",
              "True": "true", "False": "false"}
_SCALARS = (str, int, float, type(None))


def _render(value, newline: str) -> str:
    """A value of plain JSON types with string keys (any iterable but a str
    or dict is an array), each nested line starting with newline and two
    more spaces a level."""
    if isinstance(value, str):
        return _encode_str(value)
    if isinstance(value, _SCALARS):
        text = repr(value)
        return _CONSTANTS.get(text, text)
    return "".join(_pieces(value, newline, 0))


def _pieces(value, newline: str, depth: int):
    """The text of a dict or array as _render writes it, in pieces: the
    opening bracket with the first item, each further item with the comma
    before it, and the closing bracket.  Items that are dicts or arrays are
    split the same way to depth more levels; deeper ones come whole."""
    inner = newline + "  "
    if isinstance(value, dict):
        items = ((f"{_encode_str(k)}: ", v) for k, v in sorted(value.items()))
        opening, closing = "{", "}"
    else:
        items = zip(repeat(""), value)
        opening, closing = "[", "]"
    lead = opening + inner
    for key, item in items:
        if depth and not isinstance(item, _SCALARS):
            yield lead + key
            yield from _pieces(item, inner, depth - 1)
        else:
            yield lead + key + _render(item, inner)
        lead = "," + inner
    yield newline + closing if lead[0] == "," else opening + closing
