"""Check results and their deterministic JSON serialization (schema 1)."""

from __future__ import annotations

import json
from dataclasses import dataclass, fields

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


# every piece comes from one encoder, so the text is json.dumps's; with an
# indent it runs in pure Python at a cost per call, so rows go in pieces
_ENCODER = json.JSONEncoder(sort_keys=True, indent=2)
ROWS_PER_PIECE = 64


def write_report(fh, results: list[CheckResult], cfg, suites: list[str]) -> None:
    """Write the report of results, which are in report order (sort_results),
    to fh as json.dumps(report, sort_keys=True, indent=2) + "\n" would, a
    piece at a time: the keys before "results", then ROWS_PER_PIECE rows at
    a time, then "status" and "suites".  No piece is longer than the header
    or ROWS_PER_PIECE rows, so the whole text is never held."""
    head, tail = _ENCODER.encode({
        "schema": SCHEMA_VERSION,
        "suites": sorted(suites),
        "seed": cfg.seed,
        "config": {f.name: getattr(cfg, f.name) for f in fields(RunConfig) if f.name != "seed"},
        "status": overall_status(results),
        "results": [],
    }).split('"results": []')
    fh.write(head + '"results": [')
    comma = ""
    for start in range(0, len(results), ROWS_PER_PIECE):
        rows = _ENCODER.encode([r.as_dict() for r in results[start:start + ROWS_PER_PIECE]])
        # brackets dropped, lines one level in: newlines in strings are escaped
        fh.write(comma + rows[1:-2].replace("\n", "\n  "))
        comma = ","
    fh.write(("\n  ]" if results else "]") + tail + "\n")
