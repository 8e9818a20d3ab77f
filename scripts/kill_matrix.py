#!/usr/bin/env python3
"""The kill matrix: which known faults the CLI suites catch.

Each mutant is one text edit of the package source, (file, old text, new
text), whose old text must occur exactly once.  For each mutant the source
directory is copied to a temporary directory, the edit is applied, and each
of the six suites runs through the CLI at orders 3 and 4 (seed 42, 50
samples), one process per run.  A run that exits non-zero kills the mutant.
The unmutated source runs first and must pass every suite.

The matrix is written as JSON (sorted keys, two-space indent): for each
mutant and run, the exit code and the first failing gating row of the report
with its witness; the runs that killed it, and the first of them in run
order (orders ascending, suites in CLI order); and, for each suite, the
gating rows that no mutant fails.  This is mutation analysis (DeMillo,
Lipton & Sayward, "Hints on test data selection", IEEE Computer 1978).

Usage: python scripts/kill_matrix.py [--out MUTANTS.json] [--src DIR]
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SUITES = ("cd", "dr", "faa-r", "comonad", "linear", "split")
ORDERS = (3, 4)
SEED, SAMPLES = 42, 50
TIMEOUT_S = 600


class Mutant(NamedTuple):
    name: str
    what: str
    file: str  # under the source directory
    old: str
    new: str


MUTANTS = (
    Mutant("sin-rule", "sin' = 2*cos(a)*da", "faadibruno/expr.py",
           "return mul(cos(a), da)", "return mul(mul(const(2), cos(a)), da)"),
    Mutant("sqrt-rule", "sqrt' = da/(3*sqrt(a))", "faadibruno/expr.py",
           "return div(da, mul(const(2), sqrt(a)))", "return div(da, mul(const(3), sqrt(a)))"),
    Mutant("log-rule", "log' = da/a^2", "faadibruno/expr.py",
           "return div(da, a)", "return div(da, ipow(a, 2))"),
    Mutant("exp-rule", "exp' = exp(a)*da^2", "faadibruno/expr.py",
           "return mul(exp(a), da)", "return mul(exp(a), ipow(da, 2))"),
    Mutant("8a", "_partition_sum drops the last partition for n >= 2", "faadibruno/jets.py",
           "partitions = enumerate_partitions(n)\n",
           "partitions = enumerate_partitions(n)[:-1 if n >= 2 else None]\n"),
    Mutant("8d", "_partition_sum skips every two-block partition at n = 3",
           "faadibruno/jets.py",
           "partitions = enumerate_partitions(n)\n",
           "partitions = [p for p in enumerate_partitions(n) if n != 3 or len(p) != 2]\n"),
    Mutant("8e", "_partition_sum's point selects block [0], not [n]", "faadibruno/jets.py",
           "point = cat.then(cat.select(blocks, [n], cat.order_of(f.star)), f.star)",
           "point = cat.then(cat.select(blocks, [0], cat.order_of(f.star)), f.star)"),
    Mutant("8k", "_injection_terms drops its last term for n >= 3 with S nonempty",
           "faadibruno/jets.py",
           "terms.append(cat.then(cat.select(blocks, u + rest, hint), comp))\n    return terms\n",
           "terms.append(cat.then(cat.select(blocks, u + rest, hint), comp))\n"
           "    return terms[:-1] if n >= 3 and subset else terms\n"),
    Mutant("8c", "guard_and returns its first guard", "faadibruno/expr.py",
           "return Guard(g1.atoms + tuple(a for a in g2.atoms if a not in g1.atoms))",
           "return g1"),
    Mutant("8m", "_restriction_jet restricts along block [0], not [n]", "faadibruno/jets.py",
           "restrict = cat.restricted_then(cat.select(blocks, [n], hint), idem)",
           "restrict = cat.restricted_then(cat.select(blocks, [0], hint), idem)"),
    Mutant("8n", "FaaCategory.add drops the last of 3 or more terms", "faadibruno/jets.py",
           "return f if len(jets) == 1 else _pointwise(self.base.add, jets, f.dst)",
           "return f if len(jets) == 1 else _pointwise(\n"
           "            self.base.add, jets[:-1] if len(jets) >= 3 else jets, f.dst)"),
)


def mutated_copy(src: Path, mutant: Mutant | None, dest: Path) -> Path:
    """A copy of the source directory at dest with the mutant's edit applied."""
    shutil.copytree(src, dest, ignore=shutil.ignore_patterns("__pycache__"))
    if mutant is not None:
        path = dest / mutant.file
        text = path.read_text(encoding="utf-8")
        if (found := text.count(mutant.old)) != 1:
            raise ValueError(f"mutant {mutant.name}: its old text occurs {found} times "
                             f"in {mutant.file}, not once")
        path.write_text(text.replace(mutant.old, mutant.new), encoding="utf-8")
    return dest


def run_suite(src: Path, suite: str, order: int, work: Path) -> dict:
    """One CLI run of a suite over the package at src: its exit code, the
    first failing gating row of its report, and the gating axioms that fail
    (or, when no report was written, the last line of stderr)."""
    report = work / f"{suite}-{order}.json"
    report.unlink(missing_ok=True)
    cmd = [sys.executable, "-m", "faadibruno.cli", "axioms", "--suite", suite,
           "--order", str(order), "--seed", str(SEED), "--samples", str(SAMPLES),
           "--json", str(report)]
    # reports do not depend on hash seeding; pinning it keeps a mutant that
    # makes them depend on it from making the matrix flaky
    env = {**os.environ, "PYTHONPATH": str(src), "PYTHONHASHSEED": "0"}
    try:
        done = subprocess.run(cmd, env=env, cwd=work, capture_output=True, text=True,
                              timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"exit": None, "error": f"timeout after {TIMEOUT_S} s"}
    out = {"exit": done.returncode}
    if report.exists():
        rows = json.loads(report.read_text(encoding="utf-8"))["results"]
        failing = [r for r in rows if r.get("gating", True) and r["status"] == "fail"]
        out["first_failure"] = failing[0] if failing else None
        out["failing_axioms"] = sorted({r["axiom"] for r in failing})
        out["gating_axioms"] = sorted({r["axiom"] for r in rows if r.get("gating", True)})
    elif done.returncode:
        out["error"] = (done.stderr.strip().splitlines() or [""])[-1]
    return out


def run_key(suite: str, order: int) -> str:
    return f"{suite}@{order}"


def run_all(src: Path, mutant: Mutant | None, work: Path) -> dict:
    """Every run of the matrix on one mutant (None: the unmutated source), in run order."""
    tree = mutated_copy(src, mutant, work / "src")
    try:
        return {run_key(suite, order): run_suite(tree, suite, order, work)
                for order in ORDERS for suite in SUITES}
    finally:
        shutil.rmtree(tree)


def build_matrix(src: Path) -> dict:
    with tempfile.TemporaryDirectory(prefix="kill-matrix-") as tmp:
        work = Path(tmp)
        unmutated = run_all(src, None, work)
        if any(run["exit"] != 0 for run in unmutated.values()):
            raise SystemExit(f"the unmutated source fails a suite: {unmutated}")
        gating = {s: set().union(*(unmutated[run_key(s, o)]["gating_axioms"] for o in ORDERS))
                  for s in SUITES}
        killing = {s: set() for s in SUITES}
        mutants = {}
        for mutant in MUTANTS:
            runs = run_all(src, mutant, work)
            killed_by = [key for key, run in runs.items() if run["exit"] != 0]
            for key, run in runs.items():
                run.pop("gating_axioms", None)
                killing[key.split("@")[0]].update(run.get("failing_axioms", ()))
            mutants[mutant.name] = {"what": mutant.what, "file": mutant.file,
                                    "killed_by": killed_by,
                                    "first_kill": killed_by[0] if killed_by else None,
                                    "runs": runs}
    return {"config": {"orders": list(ORDERS), "samples": SAMPLES, "seed": SEED,
                       "suites": list(SUITES)},
            "mutants": mutants,
            "killed": sum(bool(m["killed_by"]) for m in mutants.values()),
            "rows_killing_no_mutant": {s: sorted(gating[s] - killing[s]) for s in SUITES}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", default=str(ROOT / "MUTANTS.json"))
    parser.add_argument("--src", default=str(ROOT / "src"),
                        help="the source directory to mutate (default: this checkout's)")
    args = parser.parse_args(argv)
    matrix = build_matrix(Path(args.src).resolve())
    Path(args.out).write_text(json.dumps(matrix, sort_keys=True, indent=2) + "\n",
                              encoding="utf-8")
    print(f"{matrix['killed']} of {len(MUTANTS)} mutants killed; written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
