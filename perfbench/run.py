"""Time-to-verdict benchmark for faadibruno.

    python3 perfbench/run.py --workload faa-r-o4 --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20

Run from the root of a source checkout.  Every repetition is a fresh
interpreter (perfbench/child.py) that imports the package from ./src and calls
`faadibruno.cli.main` once per CLI command of the workload, so module-level
caches start cold as they do for a CLI user.  With --trace 0 the run repeats
the workload for --seconds and reports the end-to-end metrics; with --trace 1
it runs one untraced and one traced repetition and reports the per-layer
metrics.  Verdicts are checked against known answers outside the timed
region; the last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import calibrate
import inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = HERE / "child.py"
SETUP_SPAWNS = 15
# per repetition; about three times the slowest workload's time at the seed
BUDGET_S = 60
COMPOSE_PAIR = ("fn(x) -> (1/x)", "fn(y) -> (y^2 + y)")
GENERATED_PAIRS = 300


class Workload:
    """One workload: the CLI commands of a repetition and the known answer
    its outputs are checked against."""

    def __init__(self, name: str):
        self.name = name

    def prepare(self, seed: int, work: Path):
        """Build the seeded inputs and run the correctness probes that lie
        outside the timed region.  Returns (attempted, failed)."""
        return 0, 0

    def commands(self, seed: int, work: Path) -> list[list[str]]:
        raise NotImplementedError

    def check(self, seed: int, args: list[str], stdout: str) -> tuple[int, int, bytes]:
        """(operations, wrong verdicts, bytes digested) for one command."""
        report = Path(args[args.index("--json") + 1])
        data = report.read_bytes()
        rows = [r for r in json.loads(data)["results"] if r.get("gating", True)]
        return len(rows), sum(r["status"] != "pass" for r in rows), data


def axioms(suite: str, order: int, samples: int, seed: int, report: Path,
           corpus: Path | None = None) -> list[str]:
    args = ["axioms", "--suite", suite, "--order", str(order), "--samples", str(samples),
            "--seed", str(seed), "--json", str(report)]
    if corpus is not None:
        args += ["--corpus", str(corpus)]
    return args


class FaaR(Workload):
    def prepare(self, seed, work):
        # the perturbed-jet probe: the checker must reject a jet that is not
        # multilinear, with a witness point
        jet_map = random.Random(seed).choice(inputs.PROBE_MAPS)
        jet_out = work / "probe-jet.txt"
        res = spawn_cli(["jet", jet_map, "--order", str(inputs.PROBE_ORDER)], jet_out, BUDGET_S)
        if res.get("exit_code") != 0:
            print(f"probe {self.name} seed={seed}: jet {jet_map} failed ({res['status']})")
            return 1, 1
        jets = work / "probe-jets.json"
        jets.write_text(json.dumps(inputs.perturbed_jet(seed, jet_out.read_text())))
        empty = work / "empty-corpus.txt"
        empty.write_text("# the perturbed jet alone\n")
        report = work / "probe-report.json"
        args = axioms("faa-r", inputs.PROBE_ORDER, 200, seed, report, empty) + ["--jets", str(jets)]
        res = spawn_cli(args, work / "probe-out.txt", BUDGET_S)
        ok = (res.get("exit_code") == 1 and report.exists()
              and inputs.probe_verdict_ok(json.loads(report.read_text())))
        print(f"probe {self.name} seed={seed}: perturbed jet of {jet_map} "
              f"{'rejected with a witness' if ok else 'NOT rejected'}")
        return 1, 0 if ok else 1

    def commands(self, seed, work):
        return [axioms("faa-r", 4, 200, seed, work / "faa-r.json")]


class Comonad(Workload):
    def commands(self, seed, work):
        return [axioms("comonad", 5, 200, seed, work / "comonad.json")]


class Compose(Workload):
    order = 7

    def prepare(self, seed, work):
        try:
            self.oracle = inputs.compose_oracle(*COMPOSE_PAIR, self.order)
        except ImportError as err:
            print(f"oracle {self.name}: sympy unavailable ({err}); outputs count as unchecked")
            self.oracle = None
        return 0, 0

    def commands(self, seed, work):
        return [["compose", *COMPOSE_PAIR, "--order", str(self.order), "--seed", str(seed)]]

    def check(self, seed, args, stdout):
        bad = 1 if self.oracle is None else inputs.compose_output_mismatches(
            stdout, self.oracle, seed)
        return 1, int(bad > 0), stdout.encode("utf-8")


class CorpusGen(Workload):
    def prepare(self, seed, work):
        (work / "generated.txt").write_text(inputs.generated_corpus(seed, GENERATED_PAIRS))
        return 0, 0

    def commands(self, seed, work):
        corpus = work / "generated.txt"
        return [axioms(suite, 4, 20, seed, work / f"{suite}.json", corpus)
                for suite in ("cd", "dr")]


# Why each workload: BENCHMARK.json carries the same reasons.
WORKLOADS = {
    # faa-r at order 4 on the guarded corpus, 200 samples: sampled equality
    # over large expression trees dominates; delta is not used.
    "faa-r-o4": FaaR("faa-r-o4"),
    # comonad at order 5: delta / compose_jets / products and SmoothMap
    # construction dominate; evaluation is a minor share.
    "comonad-o5": Comonad("comonad-o5"),
    # compose of 1/x with y^2+y at order 7: symbolic simplify/diff/equality on
    # ~13.5k-node trees, no sampling; isolates expr and its cache memory.
    "compose-o7": Compose("compose-o7"),
    # a few hundred seeded small pairs through cd and dr at 20 samples: many
    # short checks, so per-map fixed costs (parse, D, guards) show.
    "corpus-gen": CorpusGen("corpus-gen"),
}


# --- processes --------------------------------------------------------------------

def _spawn(child_args: list[str], timeout: float) -> dict:
    """Run child.py; returns its JSON plus `setup_s`, or {"status": ...}."""
    spawned = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *child_args], cwd=ROOT,
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        return {"status": "timeout"}
    if proc.returncode != 0 or not proc.stdout.strip():
        sys.stderr.write(proc.stderr[-2000:])
        return {"status": "crash"}
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    out["status"] = "ok"
    out["setup_s"] = out["import_done"] - spawned
    return out


def spawn_cli(args: list[str], stdout_path: Path, timeout: float, trace: bool = False) -> dict:
    return _spawn(["cli", "1" if trace else "0", str(stdout_path), *args], timeout)


def setup_samples() -> tuple[list[float], list[float]]:
    """Set-up times of SETUP_SPAWNS spawns at the reference machine speed,
    each scaled by the slowdown its interpreter sampled right after the
    import, and those slowdowns."""
    _spawn(["setup"], 30)  # compiles bytecode on a fresh checkout; not counted
    samples, slowdowns = [], []
    for _ in range(SETUP_SPAWNS):
        res = _spawn(["setup"], 30)
        if res["status"] == "ok":
            samples.append(calibrate.reference_seconds(res["setup_s"], [res["slowdown"]]))
            slowdowns.append(res["slowdown"])
    return samples, slowdowns


def run_rep(wl: Workload, seed: int, work: Path, rep: int, trace: bool) -> dict:
    """One repetition: each CLI command of the workload in its own fresh
    interpreter, within the workload's time budget.  `wall_s` sums the
    commands' times; untraced, each is taken at the reference machine speed
    (calibrate.py), and `raw_s` keeps the time as measured."""
    out = {"wall_s": 0.0, "raw_s": 0.0, "slowdowns": [], "maxrss_kb": 0, "attempted": 0,
           "failed": 0, "traces": [], "rows": 0, "status": "ok", "digests": []}
    started = time.perf_counter()
    for i, args in enumerate(wl.commands(seed, work)):
        stdout_path = work / f"stdout-{i}.txt"
        left = BUDGET_S - (time.perf_counter() - started)
        res = spawn_cli(args, stdout_path, max(left, 1.0), trace) if left > 0 else {"status": "timeout"}
        if res["status"] != "ok":
            out["status"] = res["status"]
            out["attempted"] += 1
            out["failed"] += 1
            break
        out["raw_s"] += res["wall_s"]
        if "calibration" in res:
            out["slowdowns"].append(statistics.fmean(res["calibration"]))
            out["wall_s"] += calibrate.reference_seconds(
                res["wall_s"] - res["calibration_spent_s"], res["calibration"])
        else:
            out["wall_s"] += res["wall_s"]
        out["maxrss_kb"] = max(out["maxrss_kb"], res["maxrss_kb"])
        if "trace" in res:
            out["traces"].append(res["trace"])
        try:
            ops, wrong, blob = wl.check(seed, args, stdout_path.read_text())
        except (OSError, ValueError, KeyError) as err:
            print(f"check {wl.name} rep={rep}: unreadable output ({err})")
            ops, wrong, blob = 1, 1, b""
        if "--json" in args:
            out["rows"] += ops
        out["attempted"] += ops
        out["failed"] += wrong
        digest = hashlib.sha256(blob).hexdigest()
        out["digests"].append(digest)
        print(f"digest {wl.name} seed={seed} rep={rep} cmd={args[0]}"
              f"{':' + args[2] if args[0] == 'axioms' else ''} sha256={digest}")
    out["real_s"] = time.perf_counter() - started
    return out


# --- metrics ----------------------------------------------------------------------

def _merge(traces: list[dict]) -> dict:
    merged = {"calls": {}, "self_s": {}, "counts": {}, "caches": {},
              "structure_s": 0.0, "wall_virtual": 0.0, "unattributed_s": 0.0}
    for t in traces:
        for key in ("calls", "self_s", "counts"):
            for name, v in t[key].items():
                merged[key][name] = merged[key].get(name, 0) + v
        for name, info in t["caches"].items():
            slot = merged["caches"].setdefault(name, {"hits": 0, "misses": 0, "currsize": 0})
            for k, v in info.items():
                slot[k] += v
        for key in ("structure_s", "wall_virtual", "unattributed_s"):
            merged[key] += t[key]
    return merged


MODULES = ("corpus", "expr", "smooth", "jets", "laws", "jetlaws", "splitting", "report", "cli")


def layer_metrics(traced: dict, untraced: dict) -> dict:
    t = _merge(traced["traces"])
    calls, self_s, counts, caches = t["calls"], t["self_s"], t["counts"], t["caches"]
    m: dict[str, tuple[float, str]] = {}
    for name in ("smooth.eq", "jets.delta", "jets.compose_jets", "jets.restriction_jet",
                 "jets.jet_equal", "jets.product", "smooth.then", "smooth.select"):
        m[f"{name}.calls"] = (calls.get(name, 0), "count")
    for name in ("smooth.eq", "jets.delta", "jets.compose_jets", "jets.restriction_jet",
                 "jets.jet_equal", "jets.product", "smooth.d_n", "jets.cofree_jet",
                 "corpus.parse_corpus", "smooth.D"):
        m[f"{name}.self_s"] = (self_s.get(name, 0.0), "s")
    samples = counts["smooth.eq.samples"]
    points = counts["smooth.eq.points"]
    m["smooth.eq.samples"] = (samples, "count")
    m["smooth.eq.points"] = (points, "count")
    m["smooth.eq.accept_ratio"] = (samples / points if points else 0.0, "ratio")
    m["smooth.eq.us_per_sample"] = (
        1e6 * self_s.get("smooth.eq", 0.0) / samples if samples else 0.0, "us")
    tree, unique = counts["expr.nodes_tree"], counts["expr.nodes_unique"]
    m["expr.nodes_tree"] = (tree, "count")
    m["expr.nodes_unique"] = (unique, "count")
    m["expr.unique_ratio"] = (unique / tree if tree else 0.0, "ratio")
    m["jets.compose_jets.terms"] = (counts["jets.compose_jets.terms"], "count")
    m["jets.structure_s"] = (t["structure_s"], "s")
    for fn in ("diff", "simplify"):
        info = caches.get(f"expr.{fn}", {"hits": 0, "misses": 0})
        m[f"expr.{fn}.cache_hits"] = (info["hits"], "count")
        m[f"expr.{fn}.cache_misses"] = (info["misses"], "count")
    m["expr.cache_entries"] = (sum(c["currsize"] for c in caches.values()), "count")
    m["report.rows"] = (traced["rows"], "count")
    for mod in MODULES:
        m[f"{mod}.self_s"] = (sum(v for k, v in self_s.items()
                                  if k.split(".", 1)[0] == mod), "s")
    m["trace.overhead"] = (traced["wall_s"] / untraced["wall_s"], "ratio")
    m["trace.unattributed_frac"] = (t["unattributed_s"] / t["wall_virtual"], "ratio")
    return m


# What the traced run must show for each workload to play its role.
ROLES = {
    "faa-r-o4": ("smooth.eq has the largest self time of all spans",
                 lambda m, top: top == "smooth.eq"),
    "comonad-o5": ("jets.structure_s exceeds smooth.eq.self_s",
                   lambda m, top: m["jets.structure_s"][0] > m["smooth.eq.self_s"][0]),
    "compose-o7": ("smooth.eq is never called", lambda m, top: m["smooth.eq.calls"][0] == 0),
}


def describe_trace(name: str, traced: dict, m: dict):
    """Human-readable lines: the largest spans, the per-check evidence and
    whether the workload plays its role."""
    self_s = _merge(traced["traces"])["self_s"]
    ranked = sorted(self_s.items(), key=lambda kv: -kv[1])
    print(f"spans {name}: " + ", ".join(f"{k}={v:.3f}s" for k, v in ranked[:6]))
    calls = m["smooth.eq.calls"][0]
    if calls:
        print(f"per eq call {name}: samples={m['smooth.eq.samples'][0] / calls:.1f} "
              f"nodes_tree={m['expr.nodes_tree'][0] / calls:.1f}")
    if name in ROLES:
        text, holds = ROLES[name]
        print(f"role {name}: {text}: {'yes' if holds(m, ranked[0][0]) else 'NO'}")


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool, work: Path):
    attempted, failed = wl.prepare(seed, work)
    setups, setup_slowdowns = setup_samples()
    reps = []
    started = time.perf_counter()
    plan = [False, True] if trace else None
    while True:
        traced = plan[len(reps)] if plan else False
        rep = run_rep(wl, seed, work, len(reps), traced)
        reps.append(rep)
        attempted += rep["attempted"]
        failed += rep["failed"]
        if rep["status"] != "ok":
            print(f"rep {wl.name} seed={seed} rep={len(reps) - 1}: {rep['status']}")
            break
        if plan:
            if len(reps) == len(plan):
                break
        elif time.perf_counter() - started + rep["real_s"] > seconds:
            break
    ok_reps = [r for r in reps if r["status"] == "ok"]
    if len(ok_reps) > 1:
        attempted += 1
        if len({tuple(r["digests"]) for r in ok_reps}) > 1:
            print(f"digest {wl.name} seed={seed}: outputs differ between repetitions")
            failed += 1
    metrics: dict[str, tuple[float, str]] = {}
    if trace:
        if len(ok_reps) == 2:
            metrics = layer_metrics(ok_reps[1], ok_reps[0])
            describe_trace(wl.name, ok_reps[1], metrics)
    elif ok_reps and setups:
        metrics = {
            "verdict_s": (statistics.median(r["wall_s"] for r in ok_reps), "s"),
            "setup_s": (statistics.median(setups), "s"),
            "peak_rss_mb": (statistics.median(r["maxrss_kb"] for r in ok_reps) / 1024, "MB"),
        }
        print(f"{wl.name} seed={seed}: verdict_s={metrics['verdict_s'][0]:.4f} s "
              f"(median of {[round(r['wall_s'], 3) for r in ok_reps]}; as measured "
              f"{[round(r['raw_s'], 3) for r in ok_reps]}, mean slowdown "
              f"{[round(x, 3) for r in ok_reps for x in r['slowdowns']]})  "
              f"setup_s={metrics['setup_s'][0]:.4f} s (median of {len(setups)}, mean "
              f"slowdown {statistics.fmean(setup_slowdowns):.3f})  peak_rss_mb={metrics['peak_rss_mb'][0]:.2f} MB  "
              f"wrong_verdict_frac={failed / attempted:.4g} ({failed}/{attempted})")
    return attempted, failed, metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "faadibruno" / "__init__.py").is_file():
        print(f"error: no faadibruno sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    (HERE / "work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=HERE / "work"))
    attempted = failed = 0
    metrics = {}
    try:
        for name in names:
            a, f, m = run_workload(WORKLOADS[name], args.seed, args.seconds,
                                   bool(args.trace), work)
            attempted += a
            failed += f
            prefix = "" if len(names) == 1 else f"{name}."
            metrics.update({prefix + k: {"value": v, "unit": u} for k, (v, u) in m.items()})
    finally:
        shutil.rmtree(work, ignore_errors=True)
    correct = failed == 0 and bool(metrics)
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
