"""Command-line surface: build jets, compose and differentiate them, and run
the law suites with machine-readable reports.

Exit codes: 0 all checks pass, 1 law failure, 2 usage or parse error,
3 sampling starvation."""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

from .config import ConfigError, RunConfig
from .corpus import (
    COMONAD_TEXT,
    DEFAULT_PAIRS_TEXT,
    GUARDED_PAIRS_TEXT,
    SPLIT_TEXT,
    CorpusError,
    corpus_maps,
    corpus_pairs,
    corpus_split_entries,
    jet_from_dict,
    parse_corpus,
)
from .expr import ExprError
from .jets import JetError, compose_jets
from .jetlaws import cofree_jet, comonad_rows, faa_r_rows, linear_items, linear_rows
from .laws import Rows, cd_rows, dr_rows
from .report import CheckResult, overall_status, sort_results, write_report
from .smooth import CLASSICAL, LAssignment, apply_map, d_n, parse_smooth_map
from .splitting import SplitError, split_rows


class Suite(NamedTuple):
    corpus: str | None  # the default corpus text; None: the suite reads no corpus
    items: Callable  # (parsed corpus, cfg) -> the items the suite checks
    check: Callable  # (Rows, item, L) -> None, writing the item's rows


SUITES = {
    "cd": Suite(DEFAULT_PAIRS_TEXT, lambda entries, cfg: corpus_pairs(entries), cd_rows),
    "dr": Suite(GUARDED_PAIRS_TEXT, lambda entries, cfg: corpus_pairs(entries), dr_rows),
    "faa-r": Suite(GUARDED_PAIRS_TEXT, lambda entries, cfg: corpus_pairs(entries), faa_r_rows),
    "comonad": Suite(COMONAD_TEXT, lambda entries, cfg: corpus_maps(entries), comonad_rows),
    "linear": Suite(None, lambda entries, cfg: linear_items(cfg), linear_rows),
    "split": Suite(SPLIT_TEXT, lambda entries, cfg: corpus_split_entries(entries),
                   split_rows),
}


def run_suite(suite: str, items, cfg: RunConfig, L: LAssignment = CLASSICAL) -> list[CheckResult]:
    """The rows of the suite's check on each item, numbered in order."""
    rows: list[CheckResult] = []
    for idx, item in enumerate(items):
        r = Rows(suite, idx, cfg)
        SUITES[suite].check(r, item, L)
        rows += r.rows
    return rows


_EXIT = {"pass": 0, "fail": 1, "starved": 3}


def _checked(convert, expected: str, ok):
    """An argparse type: convert the text and require ok of the value, so a
    bad value is a usage error (exit 2)."""
    def parse(text: str):
        try:
            value = convert(text)
            if ok(value):
                return value
        except ValueError:
            pass
        raise argparse.ArgumentTypeError(f"expected {expected}, got {text!r}")
    return parse


def _parse_vector(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


_ORDER = _checked(int, "a non-negative integer", lambda n: n >= 0)
_COUNT = _checked(int, "a positive integer", lambda n: n > 0)
_TOLERANCE = _checked(float, "a positive finite number", lambda t: 0 < t < math.inf)
_VECTOR = _checked(_parse_vector, "comma-separated finite numbers",
                   lambda v: all(map(math.isfinite, v)))


def _directions(text: str) -> list[tuple[float, ...]]:
    return [_VECTOR(v) for v in text.split(";")]


def _add_order_flag(p: argparse.ArgumentParser):
    p.add_argument("--order", type=_ORDER, default=4, help="jet truncation order")


def _add_config_flags(p: argparse.ArgumentParser):
    _add_order_flag(p)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--samples", type=_COUNT, default=200)
    p.add_argument("--tol-rel", type=_TOLERANCE, default=1e-9)
    p.add_argument("--tol-abs", type=_TOLERANCE, default=1e-8)


def _config(args) -> RunConfig:
    return RunConfig(seed=args.seed, samples=args.samples, tol_rel=args.tol_rel,
                     tol_abs=args.tol_abs, order=args.order)


def _check_length(flag: str, vector, dim: int, exact: bool):
    """A point or direction vector needs a coordinate for each of the map's
    inputs.  Coordinates past them are ignored in the point; in a direction
    they would be read as the next block, so a direction must fit exactly."""
    if len(vector) < dim or (exact and len(vector) > dim):
        inputs = {0: "", 1: " (x1)"}.get(dim, f" (x1..x{dim})")
        raise JetError(f"{flag} has length {len(vector)}, the map needs {dim}{inputs}")


def cmd_jet(args) -> int:
    if args.directions is not None and args.point is None:
        raise JetError("--directions: the tower is evaluated only at a --point")
    if (k := len(args.directions or [])) > args.order:
        raise JetError(f"--directions has {k} vector{'s' * (k > 1)}, "
                       f"--order {args.order} reads at most {args.order}")
    f = parse_smooth_map(args.map)
    if args.point is not None:
        _check_length("--point", args.point, f.dom.dim, exact=False)
        for i, d in enumerate(args.directions or [], start=1):
            _check_length(f"--directions vector {i}", d, f.dom.dim, exact=True)
    jet = cofree_jet(f, CLASSICAL, args.order)
    print(f"star: {jet.star}")
    for n, comp in enumerate(jet.derivs, start=1):
        print(f"D_{n}:  {comp}")
    if args.point is not None:
        point = args.point
        directions = args.directions or [tuple(1.0 for _ in range(f.dom.dim))]
        while len(directions) < args.order:
            directions.append(directions[-1])
        tower = [apply_map(jet.star, point)]
        for n, comp in enumerate(jet.derivs, start=1):
            flat = tuple(v for d in directions[:n] for v in d) + point
            tower.append(apply_map(comp, flat))
        rendered = [list(v) if len(v) != 1 else v[0] for v in tower]
        print(f"tower at {list(point)}: {rendered}")
    return 0


def cmd_compose(args) -> int:
    f = parse_smooth_map(args.f)
    g = parse_smooth_map(args.g)
    jet = compose_jets(cofree_jet(f, CLASSICAL, args.order),
                       cofree_jet(g, CLASSICAL, args.order))
    print(f"star: {jet.star}")
    for n, comp in enumerate(jet.derivs, start=1):
        print(f"(fg)_{n}:  {comp}")
    return 0


def cmd_diff(args) -> int:
    f = parse_smooth_map(args.map)
    print(d_n(f, args.order, CLASSICAL))
    return 0


def _suite_items(args, cfg: RunConfig) -> list:
    """The suite's items from its corpus (--corpus, or the built-in one), then
    the jets of --jets.  A flag the suite does not read is a usage error."""
    spec = SUITES[args.suite]
    if args.corpus and spec.corpus is None:
        raise CorpusError(f"--corpus: the {args.suite} suite reads no corpus")
    if args.jets and spec.check is not faa_r_rows:
        raise CorpusError(f"--jets: the {args.suite} suite reads no jets")
    text = Path(args.corpus).read_text(encoding="utf-8") if args.corpus else spec.corpus
    items = spec.items(parse_corpus(text or ""), cfg)
    if args.jets:
        payload = json.loads(Path(args.jets).read_text(encoding="utf-8"))
        items += [jet_from_dict(d) for d in (payload if isinstance(payload, list) else [payload])]
    return items


def cmd_axioms(args) -> int:
    cfg = _config(args)
    results = sort_results(run_suite(args.suite, _suite_items(args, cfg), cfg))
    for r in results:
        comp = f" [{r.component}]" if r.component is not None else ""
        tag = "" if r.gating else " (informational)"
        note = f"  ({r.note})" if r.note and r.status != "pass" else ""
        witness = (f"  witness={list(r.witness_point)}"
                   if r.status == "fail" and r.witness_point is not None else "")
        print(f"{r.suite} #{r.map_index} {r.axiom}{comp}: {r.status}{tag}"
              f"  worst_residual={r.worst_residual:.3e}{note}{witness}")
    status = overall_status(results)
    print(f"suite {args.suite}: {status} ({len(results)} checks)")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            write_report(fh, results, cfg, [args.suite])
    return _EXIT[status]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="faadibruno",
        description="jet towers, partition-sum composition, and the axiom harness")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("jet", help="print the derivative tower of a map")
    p.add_argument("map")
    p.add_argument("--point", type=_VECTOR, help="comma-separated evaluation point")
    p.add_argument("--directions", type=_directions,
                   help="semicolon-separated direction vectors")
    _add_order_flag(p)
    p.set_defaults(fn=cmd_jet)

    p = sub.add_parser("compose", help="compose two jet towers")
    p.add_argument("f")
    p.add_argument("g")
    _add_order_flag(p)
    p.add_argument("--seed", type=int, default=42,
                   help="accepted and not read: composing samples nothing")
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("diff", help="print the symmetric derivative of given order")
    p.add_argument("map")
    _add_order_flag(p)
    p.set_defaults(fn=cmd_diff)

    p = sub.add_parser("axioms", help="run a law suite over a corpus")
    p.add_argument("--suite", choices=SUITES, required=True)
    p.add_argument("--corpus", help="corpus file (defaults to the built-in one)")
    p.add_argument("--jets", help="JSON file of serialized jets to validate (faa-r)")
    p.add_argument("--json", help="write the machine-readable report here")
    _add_config_flags(p)
    p.set_defaults(fn=cmd_axioms)

    for alias, suite in (("comonad-check", "comonad"), ("linear-check", "linear"),
                         ("split-check", "split")):
        p = sub.add_parser(alias, help=f"run the {suite} suite")
        p.add_argument("--corpus")
        p.add_argument("--json")
        _add_config_flags(p)
        p.set_defaults(fn=cmd_axioms, suite=suite, jets=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ConfigError, ExprError, JetError, SplitError, CorpusError, OSError,
            json.JSONDecodeError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except RecursionError:
        print("error: expression nested too deeply", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
