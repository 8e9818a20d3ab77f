"""Check results and their deterministic JSON serialization (schema 1)."""

from __future__ import annotations

import json
from dataclasses import dataclass

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


def report_document(results: list[CheckResult], cfg, suites: list[str]) -> dict:
    ordered = sort_results(results)
    return {
        "schema": SCHEMA_VERSION,
        "suites": sorted(suites),
        "seed": cfg.seed,
        "config": {
            "samples": cfg.samples,
            "tol_rel": cfg.tol_rel,
            "tol_abs": cfg.tol_abs,
            "order": cfg.order,
            "radius": cfg.radius,
            "retry_cap": cfg.retry_cap,
        },
        "status": overall_status(ordered),
        "results": [r.as_dict() for r in ordered],
    }


def render_json(document: dict) -> str:
    """json.dumps(document, sort_keys=True, indent=2) + "\n", written here:
    with an indent, json.dumps falls back to its pure-Python encoder."""
    return _render(document, "\n") + "\n"


_encode_str = json.encoder.encode_basestring_ascii
_CONSTANTS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity", "None": "null",
              "True": "true", "False": "false"}


def _render(value, newline: str) -> str:
    """A value of plain JSON types with string keys, each nested line
    starting with newline and two more spaces a level."""
    if isinstance(value, str):
        return _encode_str(value)
    if not isinstance(value, (dict, list, tuple)):
        text = repr(value)
        return _CONSTANTS.get(text, text)
    if not value:
        return "{}" if isinstance(value, dict) else "[]"
    inner = newline + "  "
    if isinstance(value, dict):
        items = [f"{_encode_str(k)}: {_render(v, inner)}" for k, v in sorted(value.items())]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    return "[" + inner + ("," + inner).join([_render(v, inner) for v in value]) + newline + "]"
