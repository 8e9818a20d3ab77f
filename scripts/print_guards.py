#!/usr/bin/env python3
"""Print the guard the parser gives each of a fixed set of map texts, one line
a text, so that two checkouts can be compared with diff.

The built-in corpora, the linear suite's nonlinear texts, perfbench's probe
maps and its generated corpora (seeds 1..39, 84 pairs each) are printed as
`str(parse_map(text).guard)`.  Then come --random seeded texts that use all
eleven operations, with cancellations (a - a, 0*a) and powers of powers;
each is printed as its sorted set of atoms, so atoms that move without
changing the set do not show.

Usage: python scripts/print_guards.py [--random N] > guards.txt
"""

import argparse
import pathlib
import random
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

import inputs  # noqa: E402
from faadibruno import corpus, jetlaws  # noqa: E402
from faadibruno.expr import ExprError, parse_map  # noqa: E402


def fixed_texts() -> list[str]:
    texts = []
    for text in (corpus.DEFAULT_PAIRS_TEXT, corpus.GUARDED_PAIRS_TEXT, corpus.COMONAD_TEXT,
                 corpus.SPLIT_TEXT, *(inputs.generated_corpus(s, 84) for s in range(1, 40))):
        lines = (raw.split("#", 1)[0].strip() for raw in text.splitlines())
        texts += [line for line in lines if line.startswith("fn")]
    return texts + jetlaws.NONLINEAR_TEXTS + list(inputs.PROBE_MAPS)


def random_expr(rng: random.Random, depth: int) -> str:
    if depth == 0 or rng.random() < 0.2:
        return rng.choice(["x", "y", "0", "1", "2", "1/2"])
    a = random_expr(rng, depth - 1)
    pick = rng.randrange(7)
    if pick == 0:
        return f"({a} {rng.choice('+-*/')} {random_expr(rng, depth - 1)})"
    if pick == 1:
        return f"({a})^{rng.choice([-3, -2, -1, 2, 3])}"
    if pick == 2:
        return f"(({a})^{rng.choice([-2, -1, 2])})^{rng.choice([-2, -1, 2])}"
    if pick == 3:
        return f"{rng.choice(['sin', 'cos', 'exp', 'log', 'sqrt'])}({a})"
    if pick == 4:
        return f"-({a})"
    if pick == 5:
        return f"({a} - {a})"
    return f"0*{a}"


def guard_of(text: str, as_set: bool) -> str:
    try:
        guard = parse_map(text).guard
    except ExprError as err:
        return f"error: {err}"
    return " && ".join(sorted(map(str, guard.atoms))) if as_set else str(guard)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--random", type=int, default=20_000, help="random texts to print")
    args = parser.parse_args(argv)
    for text in fixed_texts():
        print(f"{text}\t{guard_of(text, False)}")
    rng = random.Random(31)
    for _ in range(args.random):
        body = ", ".join(random_expr(rng, 4) for _ in range(rng.randint(1, 2)))
        text = f"fn(x, y) -> ({body})"
        print(f"{text}\t{guard_of(text, True)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
