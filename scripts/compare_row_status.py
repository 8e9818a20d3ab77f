#!/usr/bin/env python3
"""Compare the verdicts of two sets of JSON reports, row by row.

Usage: python scripts/compare_row_status.py BEFORE_DIR AFTER_DIR

Each directory holds reports under the same relative paths (for example as
written by `scripts/run_all_suites.py --json DIR`).  For every report the
rows must agree in order on suite, axiom, map_index, component, gating and
status; residuals, witnesses and seeds may differ.  Prints one line per
report and exits 1 if any row's verdict differs or a report is missing.
"""

import json
import pathlib
import sys

KEYS = ("suite", "axiom", "map_index", "component", "gating", "status")
DEFAULTS = {"component": None, "gating": True}  # a report omits these keys


def verdicts(path: pathlib.Path) -> list[tuple]:
    rows = json.loads(path.read_text())["results"]
    return [tuple(r.get(k, DEFAULTS.get(k)) for k in KEYS) for r in rows]


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = map(pathlib.Path, argv)
    names = sorted({p.relative_to(before) for p in before.rglob("*.json")}
                   | {p.relative_to(after) for p in after.rglob("*.json")})
    bad = 0
    total = 0
    for name in names:
        a, b = before / name, after / name
        if not (a.is_file() and b.is_file()):
            print(f"{name}: missing in {before if not a.is_file() else after}")
            bad += 1
            continue
        va, vb = verdicts(a), verdicts(b)
        total += len(va)
        diffs = sum(x != y for x, y in zip(va, vb)) + abs(len(va) - len(vb))
        fails = sum(v[-2] and v[-1] != "pass" for v in vb)
        same_bytes = a.read_bytes() == b.read_bytes()
        print(f"{name}: {len(va)} rows, {diffs} verdicts differ, {fails} gating rows not passing, "
              f"{'bytes equal' if same_bytes else 'residuals or witnesses differ'}")
        bad += diffs > 0
    print(f"{len(names)} reports, {total} rows: "
          f"{'every verdict equal' if not bad else f'{bad} reports differ'} "
          f"(compared: {', '.join(KEYS)})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
