"""Seeded inputs and the known answers they are checked against.

Nothing here imports faadibruno: the generated corpus is plain text, the
perturbed jet is built from the text the `jet` command prints, and the
compose oracle differentiates with sympy and evaluates the printed
components with Python's own arithmetic, sharing no code with the package's
`diff`, `simplify` or `eval_expr`.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction

# --- generated corpus ----------------------------------------------------------

# First maps (on the sampling box [-2, 2]^n) stay bounded, so the second map
# of a pair never sees inputs that overflow a float; the second maps carry
# the partial primitives.  Exponents stay small for the same reason.
_F_TEMPLATES = (
    "{a}*{x}^2 + {b}*{y}",
    "{a}*{x}*{y} - {b}",
    "{x}^3 - {a}*{x}",
    "sin({a}*{x} + {y})",
    "cos({x}*{y})",
    "exp({x}/{c})",
    "{a}*{x} + {b}*{y}",
    "sqrt({x}^2 + {c})",
    "1/({x}^2 + {c})",
    "log({y}^2 + {c})",
)
_G_TEMPLATES = (
    "{a}*{x}^2 + {y}",
    "{x}*{y} + {b}",
    "sin({x}) + {a}*{y}",
    "cos({a}*{x})",
    "exp({x}/{c})",
    "1/{x}",
    "1/({x} - {a})",
    "log({x})",
    "sqrt({x})",
    "{x}/{y}",
    "log({x}^2 + {c})",
    "{a}*{x}^3 - {y}",
)


def _deck(rng: random.Random, items):
    """Endless draws that use every item once per shuffled round, so each
    corpus has the same mix of shapes and only their order and constants
    depend on the seed."""
    while True:
        batch = list(items)
        rng.shuffle(batch)
        yield from batch


def _coord(rng: random.Random, template: str, names) -> str:
    return template.format(x=rng.choice(names), y=rng.choice(names), a=rng.randint(1, 3),
                           b=rng.randint(1, 3), c=rng.randint(1, 3))


def generated_corpus(seed: int, pairs: int) -> str:
    """`pairs` distinct composable pairs (f: R^a -> R^b, g: R^b -> R^c with
    a, b, c in {1, 2}), drawn from the seed and never filtered by outcome."""
    rng = random.Random(seed)
    dims = _deck(rng, [(a, b, c) for a in (1, 2) for b in (1, 2) for c in (1, 2)])
    f_templates = _deck(rng, _F_TEMPLATES)
    g_templates = _deck(rng, _G_TEMPLATES)
    seen = set()
    lines = []
    while len(lines) < 2 * pairs:
        a, b, c = next(dims)
        f_vars = ("x", "y")[:a]
        g_vars = ("u", "v")[:b]
        f_body = ", ".join(_coord(rng, next(f_templates), f_vars) for _ in range(b))
        g_body = ", ".join(_coord(rng, next(g_templates), g_vars) for _ in range(c))
        f = f"fn({','.join(f_vars)}) -> ({f_body})"
        g = f"fn({','.join(g_vars)}) -> ({g_body})"
        if (f, g) in seen:
            continue
        seen.add((f, g))
        lines += [f, g]
    return "\n".join(lines) + "\n"


# --- the perturbed jet for `faa-r --jets` ---------------------------------------

PROBE_MAPS = ("fn(x) -> (1/x)", "fn(x) -> (x^2 + 1)", "fn(x) -> (sqrt(x))",
              "fn(x) -> (exp(x))", "fn(x) -> (log(x))", "fn(x) -> (1/(x - 1))")
PROBE_ORDER = 3


def _split_map_text(text: str) -> tuple[str, str, str]:
    """'fn(..) -> (body) where guard' -> (head, body, guard or '')."""
    head, rest = text.split(" -> ", 1)
    guard = ""
    if " where " in rest:
        rest, guard = rest.rsplit(" where ", 1)
    return head, rest[1:-1], guard


def perturbed_jet(seed: int, jet_stdout: str) -> dict:
    """The serialized one-dimensional jet printed by `jet`, with a term that is
    quadratic in the first direction block added to one seeded component.  A
    correct checker must reject it as not multilinear, with a witness."""
    rng = random.Random(seed)
    comps = [line.split(":", 1)[1].strip() for line in jet_stdout.splitlines()
             if line.startswith(("star:", "D_"))]
    k = rng.randint(1, len(comps) - 1)
    coeff = rng.choice((Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)))
    head, body, guard = _split_map_text(comps[k])
    bumped = f"{head} -> (({body}) + {coeff}*x1^2)"
    if guard:
        bumped += f" where {guard}"
    comps[k] = bumped
    return {"src": {"carrier_dim": 1, "point_dim": 1},
            "dst": {"carrier_dim": 1, "point_dim": 1},
            "order": len(comps) - 1, "star": comps[0], "derivs": comps[1:]}


def probe_verdict_ok(report: dict) -> bool:
    """The perturbed jet must yield a failing gating row with a witness."""
    return any(r["status"] == "fail" and r.get("gating", True)
               and r["witness_point"] is not None for r in report["results"])


# --- the compose oracle ----------------------------------------------------------

_MATH = {name: getattr(math, name) for name in ("sin", "cos", "exp", "log", "sqrt")}


def compose_oracle(f_text: str, g_text: str, order: int):
    """Derivatives 0..order of g(f(x)) for one-dimensional f and g, by sympy,
    as float functions of x."""
    import sympy

    def body(text):
        head, expr, _ = _split_map_text(text)
        param = head[head.index("(") + 1:head.index(")")].strip()
        return sympy.sympify(expr.replace("^", "**")), sympy.Symbol(param)

    f_expr, fx = body(f_text)
    g_expr, gy = body(g_text)
    x = sympy.Symbol("x_")
    h = g_expr.subs(gy, f_expr.subs(fx, x))
    return [sympy.lambdify(x, sympy.diff(h, x, n), "math") for n in range(order + 1)]


def compose_output_mismatches(stdout: str, oracle, seed: int, points: int = 4,
                              tol_rel: float = 1e-9) -> int:
    """Number of printed components of a one-dimensional `compose` that differ
    from the oracle at seeded points in (0.25, 2) with seeded directions:
    component n at (v_1..v_n; x) is h^(n)(x) * v_1 * ... * v_n."""
    comps = [line.split(":", 1)[1].strip() for line in stdout.splitlines()
             if line.startswith(("star:", "(fg)_"))]
    if len(comps) != len(oracle):
        return max(1, len(oracle))
    rng = random.Random(seed)
    bad = 0
    for n, (text, exact) in enumerate(zip(comps, oracle)):
        code = compile(_split_map_text(text)[1].replace("^", "**"), "<component>", "eval")
        for _ in range(points):
            x = rng.uniform(0.25, 2.0)
            dirs = [rng.uniform(0.5, 1.5) for _ in range(n)]
            env = {"__builtins__": {}, **_MATH}
            env.update({f"x{i + 1}": v for i, v in enumerate(dirs)})
            env[f"x{n + 1}"] = x
            got = eval(code, env)
            want = exact(x) * math.prod(dirs)
            if not abs(got - want) <= tol_rel * max(abs(got), abs(want), 1.0):
                bad += 1
                break
    return bad
