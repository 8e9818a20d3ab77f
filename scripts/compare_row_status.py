#!/usr/bin/env python3
"""Compare the verdicts of two sets of JSON reports, row by row.

Usage: python scripts/compare_row_status.py BEFORE_DIR AFTER_DIR

Each directory holds reports under the same relative paths (for example as
written by `scripts/run_all_suites.py --json DIR`).  Rows are matched by key,
not by position: the key is (suite, map_index, axiom, component, occurrence),
where occurrence numbers the rows of one report that repeat the rest of the
key.  A matched row must keep its gating and status; residuals, witnesses
and seeds may differ.  Prints one line per report, then each added and each
removed row.  Exits 1 if a matched row changes its verdict, a row (or a
report) is removed, or an added gating row does not pass.
"""

import json
import pathlib
import sys

# a report omits component where it is None and gating where it is true
KEY = ("suite", "map_index", "axiom", "component")


def keyed_rows(path: pathlib.Path) -> dict[tuple, tuple]:
    """Each row's (gating, status) under its key, occurrence last."""
    if not path.is_file():
        return {}
    seen: dict[tuple, int] = {}
    out = {}
    for row in json.loads(path.read_text())["results"]:
        key = tuple(row.get(k) for k in KEY)
        seen[key] = seen.get(key, 0) + 1
        out[key + (seen[key],)] = (row.get("gating", True), row["status"])
    return out


def show(key: tuple, verdict: tuple) -> str:
    suite, index, axiom, component, occurrence = key
    gating, status = verdict
    return (f"{suite} #{index} {axiom}"
            f"{'' if component is None else f' [{component}]'} ({occurrence}): "
            f"{status}{'' if gating else ', not gating'}")


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    before, after = map(pathlib.Path, argv)
    names = sorted({p.relative_to(before) for p in before.rglob("*.json")}
                   | {p.relative_to(after) for p in after.rglob("*.json")})
    bad = total = 0
    added, removed = [], []
    for name in names:
        a, b = before / name, after / name
        va, vb = keyed_rows(a), keyed_rows(b)
        total += len(va)
        changed = sum(va[k] != vb[k] for k in va.keys() & vb.keys())
        gone = [(k, va[k]) for k in va if k not in vb]
        new = [(k, vb[k]) for k in vb if k not in va]
        failing_new = sum(gating and status != "pass" for _, (gating, status) in new)
        removed += gone
        added += new
        if not (a.is_file() and b.is_file()):
            state = f"missing in {before if not a.is_file() else after}"
        else:
            state = ("bytes equal" if a.read_bytes() == b.read_bytes()
                     else "residuals, witnesses or rows differ")
        print(f"{name}: {len(va)} rows, {changed} verdicts differ, {len(gone)} removed, "
              f"{len(new)} added ({failing_new} gating not passing), {state}")
        bad += bool(changed or gone or failing_new or not b.is_file())
    for title, rows in (("added", added), ("removed", removed)):
        for key, verdict in rows:
            print(f"{title}: {show(key, verdict)}")
    print(f"{len(names)} reports, {total} rows before, {len(added)} added, "
          f"{len(removed)} removed: "
          f"{'every verdict kept' if not bad else f'{bad} reports differ'}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
