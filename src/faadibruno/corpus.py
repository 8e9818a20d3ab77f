"""Corpus files: one map per line in the expression grammar, '#' comments;
and jets over the smooth base read from their JSON form (--jets).

Consecutive lines form the composable pairs the pair-based suites consume
(line 2k is f, line 2k+1 is g).  A line of the form

    obj (n) where <guard over x1..xn>

annotates the next map with a source object for the split category; annotated
maps are paired with the first unannotated (total) map in the file."""

from __future__ import annotations

import re

from .expr import ExprError, ParseError, TRUE_GUARD, parse_map, var_name
from .jets import FaaObject, JetError, JetMorphism
from .smooth import (
    SMOOTH,
    SmoothMap,
    SpaceObject,
    componentwise_monoid,
    parse_smooth_map,
)
from .splitting import SplitMap, SplitObject, split_object

_OBJ_RE = re.compile(r"^obj\s*\(\s*(\d+)\s*\)\s*(?:where\s+(.*))?$")


class CorpusError(Exception):
    pass


def parse_corpus(text: str):
    """Returns a list of (SmoothMap, SplitObject | None) entries.  Every
    error names the corpus line it is on."""
    entries: list[tuple[SmoothMap, SplitObject | None]] = []
    pending_obj: SplitObject | None = None
    pending_line = 0  # the line of pending_obj
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        m = _OBJ_RE.match(line)
        if m and pending_obj is not None:
            break  # two annotations in a row: the first annotates no map
        if m and int(m.group(1)) == 0:
            # the grammar has no fn(), so no map has a 0-dimensional source
            raise CorpusError(f"line {lineno}: object annotation needs dimension 1 or more")
        try:
            if m:
                pending_obj, pending_line = _annotation(m), lineno
                continue
            smooth = parse_smooth_map(line)
        except ExprError as err:
            raise CorpusError(f"line {lineno}: {err}") from err
        if pending_obj is not None and pending_obj.space != smooth.dom:
            raise CorpusError(f"line {lineno}: object annotation has wrong dimension")
        entries.append((smooth, pending_obj))
        pending_obj = None
    if pending_obj is not None:
        raise CorpusError(f"line {pending_line}: object annotation is not followed by a map")
    return entries


def _annotation(m: re.Match) -> SplitObject:
    """The split object an `obj (n) where <guard>` line declares.  A parse
    error in the guard gives its column in the line."""
    dim = int(m.group(1))
    if not m.group(2):
        return split_object(dim, TRUE_GUARD)
    head = f"fn({','.join(map(var_name, range(dim)))}) -> (0) where "
    try:
        guard = parse_map(head + m.group(2)).guard
    except ParseError as err:
        raise ParseError(err.message, err.line, err.col - len(head) + m.start(2)) from None
    return split_object(dim, guard)


def corpus_maps(entries) -> list[SmoothMap]:
    return [m for m, _ in entries]


def corpus_pairs(entries) -> list[tuple[SmoothMap, SmoothMap]]:
    maps = corpus_maps(entries)
    if len(maps) % 2 != 0:
        raise CorpusError("pair suites want an even number of maps")
    pairs = []
    for i in range(0, len(maps), 2):
        f, g = maps[i], maps[i + 1]
        if f.cod != g.dom:
            raise CorpusError(f"maps {i} and {i + 1} do not compose")
        pairs.append((f, g))
    return pairs


def corpus_split_entries(entries) -> list[tuple[SplitMap, SplitMap]]:
    target = None
    for m, obj in entries:
        if obj is None and m.guard.is_true():
            target = SplitMap(m, split_object(m.dom.dim), split_object(m.cod.dim))
            break
    if target is None:
        target = SplitMap(parse_smooth_map("fn(y) -> (y^2 + y)"),
                          split_object(1), split_object(1))
    out = []
    for m, obj in entries:
        if obj is None:
            continue
        if m.cod != target.f.dom:
            raise CorpusError("annotated map does not compose with the total target")
        out.append((SplitMap(m, obj, split_object(m.cod.dim)), target))
    return out


def jet_from_dict(data) -> JetMorphism:
    """A jet over the smooth base from its JSON form: the carrier_dim and
    point_dim of src and dst, the order, and the texts of the star and of
    each component.  A payload of any other shape, or whose maps disagree
    with its dimensions, raises JetError before any monoid is built."""
    if not isinstance(data, dict):
        raise JetError("a serialized jet must be a JSON object")
    (a, x), (b, y) = (_dims_from_dict(data.get(key), key) for key in ("src", "dst"))
    texts = data.get("derivs")
    if not (isinstance(data.get("star"), str) and isinstance(texts, list)
            and all(isinstance(t, str) for t in texts)):
        raise JetError("star must be a string and derivs a list of strings")
    if type(data.get("order")) is not int or data["order"] != len(texts):
        raise JetError(f"order must be the integer number of derivs, {len(texts)}")
    star = parse_smooth_map(data["star"])
    derivs = tuple(parse_smooth_map(t) for t in texts)
    if star.dom.dim != x or star.cod.dim != y:
        raise JetError("star dimensions disagree with the declared objects")
    # no component reads an order-0 jet's carriers, each a block of its point
    if not derivs and (a > x or b > y):
        raise JetError("an order-0 jet's carrier_dim must not exceed its point_dim")
    for n, d in enumerate(derivs, start=1):
        if d.dom.dim != n * a + x or d.cod.dim != b:
            raise JetError(f"component {n} has wrong dimensions")
    src = FaaObject(componentwise_monoid(a), SpaceObject(x))
    dst = FaaObject(componentwise_monoid(b), SpaceObject(y))
    return JetMorphism(SMOOTH, src, dst, star, derivs)


def _dims_from_dict(data, key: str) -> tuple[int, int]:
    dims = [data.get(k) if isinstance(data, dict) else None
            for k in ("carrier_dim", "point_dim")]
    if not all(type(d) is int and d >= 0 for d in dims):
        raise JetError(f"{key} must hold non-negative integer carrier_dim and point_dim")
    return dims[0], dims[1]


# The fixed corpus of twelve composable pairs: polynomials up to degree four,
# sin / cos / exp, the guarded reciprocal, logarithm and square root, in
# dimensions one to three.
DEFAULT_PAIRS_TEXT = """\
fn(x) -> (x^2)
fn(y) -> (sin(y))
fn(x) -> (x^3 - 2*x)
fn(y) -> (y^4 + y)
fn(x) -> (sin(x))
fn(y) -> (exp(y))
fn(x) -> (exp(x))
fn(y) -> (1/y)
fn(x) -> (x^2 + 1)
fn(y) -> (log(y))
fn(x) -> (1/x)
fn(y) -> (y^2 + y)
fn(x) -> (sqrt(x))
fn(y) -> (cos(y))
fn(x,y) -> (x*y, x + y)
fn(u,v) -> (u^2 - v, v^3)
fn(x,y) -> (x^2 + y^2 + 1)
fn(z) -> (log(z))
fn(x) -> (x, x^2, x^3)
fn(u,v,w) -> (u*v*w)
fn(x,y,z) -> (x + y*z)
fn(u) -> (u^4 - u)
fn(x,y) -> (x + y, x - y, x*y)
fn(u,v,w) -> (u*w - v, v + w)
"""

GUARDED_PAIRS_TEXT = """\
fn(x) -> (1/x)
fn(y) -> (y^2 + y)
fn(x) -> (x^2 + 1)
fn(y) -> (log(y))
fn(x) -> (sqrt(x))
fn(y) -> (cos(y))
fn(x) -> (exp(x))
fn(y) -> (1/y)
fn(x) -> (1/(x - 1))
fn(y) -> (y^2)
fn(x,y) -> (x/y)
fn(z) -> (sqrt(z))
"""

COMONAD_TEXT = """\
fn(x) -> (x^3)
fn(x) -> (x^2 + x)
fn(x) -> (sin(x))
fn(x) -> (1/x)
fn(x) -> (log(x))
"""

SPLIT_TEXT = """\
fn(y) -> (y^2 + y)
obj (1) where x1 != 0
fn(x) -> (1/x)
obj (1) where x1 > 0
fn(x) -> (log(x))
obj (1) where x1 > 0
fn(x) -> (sqrt(x))
obj (1) where x1 - 1 != 0
fn(x) -> (1/(x - 1))
"""
