"""The base category: real spaces and guarded smooth maps.

Maps are partial: each carries a guard describing the open set where it is
defined (and, by construction, smooth).  Composition substitutes coordinates
and pulls guards back, so restriction structure is tracked exactly.  The
differential operator D sends f: X -> Y to a map on vectors-then-points,
D[f](v, x) = Jacobian of f at x applied to v, whose guard depends only on x.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from functools import lru_cache, reduce
from itertools import repeat
from typing import Callable, Iterator, Sequence

from .config import RunConfig, derive_seed
from .expr import (
    Expr,
    Guard,
    OutOfDomainError,
    TRUE_GUARD,
    Tape,
    ZERO,
    add,
    compile_tape,
    diff,
    free_vars,
    guard_and,
    guard_subst,
    guard_vars,
    mul,
    node_cache,
    pretty_map,
    shift_vars,
    subst,
    vanishing_groups,
    var,
    var_name,
    var_span,
)

# Entries kept by each structural constructor cache (select and the probes
# here; the jet constructors in jets).  A layout is built once while it stays
# among the most recently used; the bound keeps a long-lived process from
# holding every layout it ever built.
STRUCTURE_CACHE_SIZE = 1024


class SmoothMapError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class SpaceObject:
    dim: int

    def __post_init__(self):
        if self.dim < 0:
            raise ValueError("dimension must be non-negative")

    def __str__(self):
        return f"R^{self.dim}"


TERMINAL = SpaceObject(0)


@dataclass(frozen=True, slots=True)
class SmoothMap:
    dom: SpaceObject
    cod: SpaceObject
    coords: tuple[Expr, ...]
    guard: Guard = TRUE_GUARD
    _tape: Tape | None = field(default=None, init=False, repr=False,
                               compare=False, hash=False)
    _hash: int | None = field(default=None, init=False, repr=False,
                              compare=False, hash=False)

    def __post_init__(self):
        if len(self.coords) != self.cod.dim:
            raise SmoothMapError(
                f"{self.cod.dim} coordinates expected, got {len(self.coords)}")
        dim = self.dom.dim
        if (any(var_span(e) > dim for e in self.coords)
                or any(var_span(a.expr) > dim for a in self.guard.atoms)):
            used = guard_vars(self.guard).union(*map(free_vars, self.coords))
            allowed = {var_name(i) for i in range(dim)}
            raise SmoothMapError(f"variables {sorted(used - allowed)} out of range")

    def __str__(self):
        return pretty_map(self.dom.dim, self.coords, self.guard)

    def __hash__(self):  # the dataclass hash, computed once
        if self._hash is None:
            object.__setattr__(self, "_hash", hash((self.dom, self.cod, self.coords, self.guard)))
        return self._hash

    def __reduce__(self):  # rebuilt from its fields: the cached hash is per process
        return (SmoothMap, (self.dom, self.cod, self.coords, self.guard))

    def tape(self) -> Tape:
        """The guard and coordinates compiled on first evaluation and kept
        with the map."""
        if self._tape is None:
            object.__setattr__(self, "_tape",
                               compile_tape(self.coords, self.guard, self.dom.dim))
        return self._tape


Point = tuple[float, ...]


def apply_map(f: SmoothMap, point: Sequence[float]) -> Point:
    value = f.tape().run_point(point)
    if value is None:
        raise OutOfDomainError(f"point {tuple(point)} outside guard {f.guard}")
    if isinstance(value, Exception):
        raise value
    return value


# --- category structure -------------------------------------------------------

def identity(obj: SpaceObject) -> SmoothMap:
    return select([obj.dim], [0])


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _names(n: int) -> tuple[str, ...]:
    return tuple(map(var_name, range(n)))


def then(f: SmoothMap, g: SmoothMap) -> SmoothMap:
    """Diagrammatic composite: first f, then g."""
    if f.cod != g.dom:
        raise SmoothMapError(f"cannot compose {f.cod} into {g.dom}")
    mapping = dict(zip(_names(f.cod.dim), f.coords))
    coords = tuple(subst(e, mapping) for e in g.coords)
    guard = guard_and(f.guard, guard_subst(g.guard, mapping))
    return SmoothMap(f.dom, g.cod, coords, guard)


def tuple_map(maps: Sequence[SmoothMap]) -> SmoothMap:
    """Pairing <f, g, ...>: concatenated coordinates, conjoined guards."""
    if not maps:
        raise SmoothMapError("empty pairing")
    dom = maps[0].dom
    if any(m.dom != dom for m in maps):
        raise SmoothMapError("pairing wants a shared domain")
    coords = tuple(e for m in maps for e in m.coords)
    guard = TRUE_GUARD
    for m in maps:
        guard = guard_and(guard, m.guard)
    return SmoothMap(dom, SpaceObject(sum(m.cod.dim for m in maps)), coords, guard)


def select(block_dims: Sequence[int], picks: Sequence[int]) -> SmoothMap:
    """Total map from the product with the given block layout onto the listed
    blocks, in order.  Equal layouts give the same map object."""
    return _select(tuple(block_dims), tuple(picks))


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def _select(block_dims: tuple[int, ...], picks: tuple[int, ...]) -> SmoothMap:
    offsets = []
    total = 0
    for d in block_dims:
        offsets.append(total)
        total += d
    coords = []
    for i in picks:
        coords.extend(var(var_name(offsets[i] + k)) for k in range(block_dims[i]))
    out_dim = sum(block_dims[i] for i in picks)
    return SmoothMap(SpaceObject(total), SpaceObject(out_dim), tuple(coords))


def zero_map(dom: SpaceObject, cod: SpaceObject) -> SmoothMap:
    return SmoothMap(dom, cod, (ZERO,) * cod.dim)


def restriction_of(f: SmoothMap) -> SmoothMap:
    """The restriction idempotent: identity coordinates, f's guard."""
    return SmoothMap(f.dom, f.dom, identity(f.dom).coords, f.guard)


def restrict_map(f: SmoothMap, guard: Guard) -> SmoothMap:
    """Precompose with an idempotent given by a guard over f's domain."""
    return SmoothMap(f.dom, f.cod, f.coords, guard_and(guard, f.guard))


def guard_within(guard: Guard, offset: int, dim: int) -> bool:
    """Whether the guard mentions only the dim variables from offset on, e.g.
    only the point block of a derivative's domain."""
    return guard_vars(guard) <= {var_name(offset + k) for k in range(dim)}


def add_maps(*maps: SmoothMap) -> SmoothMap:
    """The sum of parallel maps, coordinates and guard folded left; one map is itself."""
    f = maps[0]
    if any(m.dom != f.dom or m.cod != f.cod for m in maps):
        raise SmoothMapError("sum wants parallel maps")
    if len(maps) == 1:
        return f
    coords = tuple(reduce(add, column) for column in zip(*(m.coords for m in maps)))
    return SmoothMap(f.dom, f.cod, coords, reduce(guard_and, (m.guard for m in maps)))


# --- monoids and the vector-object assignment ----------------------------------

@dataclass(frozen=True, slots=True)
class MonoidStructure:
    """A total commutative monoid: carrier with addition and zero.  The fields
    are category-agnostic; over the smooth base they are SmoothMaps."""
    carrier: object
    add: object
    zero: object


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def componentwise_monoid(dim: int) -> MonoidStructure:
    carrier = SpaceObject(dim)
    plus = add_maps(select([dim, dim], [0]), select([dim, dim], [1]))
    return MonoidStructure(carrier, plus, zero_map(TERMINAL, carrier))


@dataclass(frozen=True, slots=True)
class LAssignment:
    """Assignment of a vector object L(X) to every space X, included in X as
    its first L(X).dim coordinates and summed componentwise.  D_L[f](v, x)
    is the Jacobian of f at x applied to v in those coordinates, read in the
    first L(Y).dim coordinates of f.

    classical: L(X) = X.
    trivial:   L(X) = terminal; every derivative collapses to the point map.
    """
    l0: Callable[[SpaceObject], SpaceObject]

    def monoid(self, obj: SpaceObject) -> MonoidStructure:
        return componentwise_monoid(self.l0(obj).dim)


CLASSICAL = LAssignment(lambda obj: obj)
TRIVIAL = LAssignment(lambda obj: TERMINAL)


# --- the differential operator -------------------------------------------------

def derivative_tower(f: SmoothMap, n: int, L: LAssignment = CLASSICAL) -> list[SmoothMap]:
    """The symmetric derivatives d_1 f, ..., d_n f; d_k f takes direction
    blocks v_1 .. v_k, then the point, and its guard is f's guard on the
    point block.  Component k of each coordinate is step k of the
    coordinate's _tower_steps, read from its node where built before."""
    if n < 0:
        raise ValueError("order must be non-negative")
    d = f.dom.dim
    l = L.l0(f.dom).dim
    cod = L.l0(f.cod)
    chains = [_tower_steps(e, d, l, n) for e in f.coords[:cod.dim]]
    return [SmoothMap(SpaceObject(k * l + d), cod, tuple(c[k - 1][1] for c in chains),
                      guard_subst(f.guard, shift_vars(d, k * l)))
            for k in range(1, n + 1)]


def _tower_steps(e: Expr, d: int, l: int, n: int) -> list[tuple[Expr, Expr]]:
    """The first n tower steps of a coordinate e over R^d with vector block
    R^l, kept on e under (d, l), so a later tower builds only the steps past
    those.  Step k contracts the partials of step k-1 with direction block
    k, in e's own variables (the point x1..xd, then the direction blocks),
    so each step reuses the last; it holds that contraction and its
    renaming into the layout v_1 .. v_k, x."""
    chain = node_cache(e).setdefault((d, l), [])
    for k in range(len(chain) + 1, n + 1):
        last = chain[-1][0] if chain else e
        base = d + (k - 1) * l
        total = ZERO
        for j in range(l):
            total = add(total, mul(var(var_name(base + j)), diff(last, var_name(j))))
        # renaming is injective, so it commutes with the constructors' rules
        # and with diff: the renamed component is the one built in the
        # layout directly
        layout = {**shift_vars(d, k * l),
                  **{var_name(d + i): var(var_name(i)) for i in range(k * l)}}
        chain.append((total, subst(total, layout)))
    return chain


def D(f: SmoothMap, L: LAssignment = CLASSICAL) -> SmoothMap:
    """Derivative map L0(X) x X -> L0(Y): vector block first, then the point.
    The guard depends only on the point block and equals f's guard there."""
    return derivative_tower(f, 1, L)[0]


def iterate_D(f: SmoothMap, n: int, L: LAssignment = CLASSICAL) -> SmoothMap:
    if n < 0:
        raise ValueError("order must be non-negative")
    for _ in range(n):
        f = D(f, L)
    return f


def dn_blocks(first, n: int, l0) -> list:
    """Block layout of the domain of D^n(f) for f out of first (2^n blocks),
    where l0 gives the vector object of an object."""
    blocks = [l0(first), first]
    for _ in range(n - 1):
        blocks = [l0(b) for b in blocks] + blocks
    return blocks


def insertion_slots(n: int) -> list[tuple]:
    """Slot assignment realizing the n-th symmetric derivative from D^n: each
    slot of the doubled-up domain receives a zero, one of the directions
    ("v", i), or the base point ("pt",).  Derived by differentiating the
    (n-1)-st insertion along its base point."""
    slots: list[tuple] = [("v", 1), ("pt",)]
    for _ in range(n - 1):
        shadow = [("v", 1) if s[0] == "pt" else ("zero",) for s in slots]
        bumped = [("v", s[1] + 1) if s[0] == "v" else s for s in slots]
        slots = shadow + bumped
    return slots


def d_n_insertion(f: SmoothMap, n: int, L: LAssignment = CLASSICAL) -> SmoothMap:
    """Symmetric n-th derivative via the literal zero-insertion into D^n(f)."""
    if n == 0:
        return f
    blocks = dn_blocks(f.dom, n, L.l0)
    l, d = L.l0(f.dom).dim, f.dom.dim
    coords: list[Expr] = []
    for block, slot in zip(blocks, insertion_slots(n)):
        if slot[0] == "zero":
            coords.extend((ZERO,) * block.dim)
        else:  # a direction block, or the point, which comes after the n directions
            base = (slot[1] - 1) * l if slot[0] == "v" else n * l
            coords.extend(var(var_name(base + k)) for k in range(block.dim))
    ins = SmoothMap(SpaceObject(n * l + d), SpaceObject(sum(b.dim for b in blocks)),
                    tuple(coords))
    return then(ins, iterate_D(f, n, L))


def d_n(f: SmoothMap, n: int, L: LAssignment = CLASSICAL) -> SmoothMap:
    """Symmetric n-th derivative, the last map of derivative_tower: the
    order-n partials contracted with direction blocks v_1 .. v_n.  Agrees
    with d_n_insertion (tested property) without the 2^n domain blowup."""
    return derivative_tower(f, n, L)[-1] if n else f


# --- numerical oracle -----------------------------------------------------------

def finite_diff(f: SmoothMap, x: Sequence[float], v: Sequence[float],
                h: float = 1e-4) -> Point:
    """Central difference (f(x + h v) - f(x - h v)) / 2h; the independent
    numerical check for D."""
    fwd = tuple(xi + h * vi for xi, vi in zip(x, v))
    bwd = tuple(xi - h * vi for xi, vi in zip(x, v))
    a = apply_map(f, fwd)
    b = apply_map(f, bwd)
    return tuple((ai - bi) / (2 * h) for ai, bi in zip(a, b))


# --- semantic equality protocol ---------------------------------------------------

@dataclass(frozen=True, slots=True)
class EqOutcome:
    status: str  # pass | fail | starved
    worst_residual: float
    witness: Point | None = None
    note: str = ""
    samples: int = 0

    @property
    def ok(self) -> bool:
        return self.status == "pass"


def _residual(a: float, b: float, floor: float) -> float:
    """Relative residual with an absolute floor, 0.0 between equal values.  A
    non-finite value on either side is infinitely far from anything."""
    if not (math.isfinite(a) and math.isfinite(b)):
        return math.inf
    return abs(a - b) / max(abs(a), abs(b), floor) if a != b else 0.0


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def probe_points(dim: int) -> tuple[Point, ...]:
    """Deterministic probes visited before random sampling, built once per
    dimension.  Uniform samples almost surely miss measure-zero sets, so
    guard disagreements at points like the origin (x != 0) or axis points
    (x - 1 != 0) are probed directly."""
    probes: list[Point] = [tuple(0.0 for _ in range(dim))]
    for i in range(dim):
        for s in (1.0, -1.0):
            probes.append(tuple(s if j == i else 0.0 for j in range(dim)))
    for c in (1.0, -1.0, 0.5):
        probes.append(tuple(c for _ in range(dim)))
    return tuple(probes)


class PointStream:
    """The seeded sample points of one check, taken a batch at a time as
    columns: the probes, then retry_cap draws of random.uniform(-radius,
    radius) per coordinate, point after point; at dim 0, one empty point."""

    def __init__(self, dim: int, cfg: RunConfig, label: str):
        self._probes = [list(col) for col in zip(*probe_points(dim))]
        self._taken = 0
        self._end = len(probe_points(dim)) + cfg.retry_cap if dim else 1
        self._draw = random.Random(derive_seed(cfg.seed, label)).random
        self._lo = -cfg.radius
        self._span = cfg.radius - self._lo

    def take(self, k: int) -> tuple[int, list[list[float]]]:
        """(n, columns): the next n points, k unless the stream runs out, as
        one list of floats per coordinate."""
        start = self._taken
        n = min(k, self._end - start)
        self._taken += n
        cols = [col[start:start + n] for col in self._probes]
        d = len(cols)
        # random.uniform(a, b) is a + (b - a) * random(), inlined
        lo, span, draw = self._lo, self._span, self._draw
        flat = [lo + span * draw() for _ in repeat(None, n * d - sum(map(len, cols)))]
        for j, col in enumerate(cols):
            col += flat[j::d]
        return n, cols


def sample_points(dim: int, cfg: RunConfig, label: str) -> Iterator[Point]:
    """All the points of a PointStream, one tuple at a time."""
    n, cols = PointStream(dim, cfg, label).take(len(probe_points(dim)) + cfg.retry_cap)
    return zip(*cols) if cols else iter([()] * n)


# Most points run on a tape together.  When the sides differ, the first batch
# holds at most the probes, so a check failing at a probe runs few points.
BATCH_SIZE = 256


def _batch_size(target: int, accepted: int, drawn: int, first: int) -> int:
    """The points of the next batch: first, then the points still needed
    while none has been rejected, then that need over the share accepted so
    far, with a margin of a quarter; never more than the target or
    BATCH_SIZE."""
    need, cap = target - accepted, min(target, BATCH_SIZE)
    if not drawn:
        return first
    if accepted == drawn:
        return min(need, cap)
    if not accepted:
        return cap
    return min(-(-5 * need * drawn // (4 * accepted)), cap)


def maps_equal(f: SmoothMap, g: SmoothMap, cfg: RunConfig, label: str) -> EqOutcome:
    """Partial-map equality, the one sampling loop: guards agree as booleans
    at every sampled point, values agree on the common domain within tol_rel
    (abs floor tol_abs).  A check passes on cfg.samples points, and on at
    least one drawn point past the probes.  Each batch is taken from a
    PointStream as columns, sized by the acceptance seen so far, and run on
    each side's tape (identical sides once).  A batch is accepted whole, up
    to the row that reaches the target, when both sides keep the same rows
    there and every residual is within tol_rel (identical sides: every value
    is finite); any other batch is walked point by point with Tape.run_point
    up to the deciding point (a guard mismatch first, then f's fault, then
    g's), so the outcome is the point-at-a-time one."""
    if f.dom != g.dom or f.cod != g.cod:
        return EqOutcome("fail", math.inf, None, "shape mismatch")
    same = f == g
    tf = f.tape()
    tg = tf if same else g.tape()
    worst = 0.0
    accepted = drawn = 0
    dim = f.dom.dim
    # a pass needs a drawn point: each probe has at most one nonzero
    # coordinate, or all its coordinates equal
    target = max(cfg.samples, len(probe_points(dim)) + 1) if dim > 0 else 1
    points = PointStream(dim, cfg, label)
    first = min(target if same else len(probe_points(dim)), BATCH_SIZE)
    floors = repeat(cfg.abs_floor)
    while (taken := points.take(_batch_size(target, accepted, drawn, first)))[0]:
        n, cols = taken
        drawn += n
        need = target - accepted
        try:  # column reductions settle a batch that holds no deciding event
            rows, fv = tf.run_columns(cols, n)
            g_rows, gv = (rows, fv) if same else tg.run_columns(cols, n)
            if len(rows) > need:  # a point-at-a-time check stops at row need
                rows, fv = rows[:need], [col[:need] for col in fv]
                g_rows, gv = g_rows[:need], [col[:need] for col in gv]
            # equal columns of finite values are 0.0 apart, and a sum is
            # finite only if every term is
            largest = max((0.0 if a == b and math.isfinite(sum(a))
                           else max(map(_residual, a, b, floors), default=0.0)
                           for a, b in zip(fv, gv)), default=0.0)
            settled = rows == g_rows and largest <= cfg.tol_rel
        except Exception:  # a fault at some point of the batch
            settled = False
        if settled:
            accepted += len(rows)
            worst = max(worst, largest)
            if accepted >= target:
                return EqOutcome("pass", worst, None, "", accepted)
            continue
        for point in (zip(*cols) if cols else repeat((), n)):
            fv = tf.run_point(point)
            gv = fv if same else tg.run_point(point)
            if (fv is None) != (gv is None):
                return EqOutcome("fail", math.inf, point, "guard mismatch", accepted)
            if fv is None:
                continue
            if isinstance(fv, Exception) or isinstance(gv, Exception):
                fault = fv if isinstance(fv, Exception) else gv
                if not isinstance(fault, OutOfDomainError):
                    raise fault
                return EqOutcome("fail", math.inf, point, f"eval fault: {fault}",
                                 accepted)
            for a, b in zip(fv, gv):
                worst = max(worst, _residual(a, b, cfg.abs_floor))
            accepted += 1
            if worst > cfg.tol_rel:
                return EqOutcome("fail", worst, point, "value mismatch", accepted)
            if accepted >= target:
                return EqOutcome("pass", worst, None, "", accepted)
    return EqOutcome("starved", worst, None, "sampling starvation", accepted)


def map_total(f: SmoothMap, cfg: RunConfig, label: str) -> EqOutcome:
    """Totality: the restriction is the identity, i.e. the guard holds at
    every sampled point of the ambient box."""
    return maps_equal(restriction_of(f), identity(f.dom), cfg, label)


def map_leq(f: SmoothMap, g: SmoothMap, cfg: RunConfig, label: str) -> EqOutcome:
    """f <= g: f's restriction then g is f, so wherever f is defined, g is
    defined and agrees."""
    return maps_equal(f, restrict_map(g, f.guard), cfg, label)


def maps_compatible(f: SmoothMap, g: SmoothMap, cfg: RunConfig, label: str) -> EqOutcome:
    """f and g agree on the intersection of their domains: f's restriction
    then g is g's restriction then f."""
    return maps_equal(restrict_map(f, g.guard), restrict_map(g, f.guard), cfg, label)


# --- category adapter -------------------------------------------------------------

def _point_guarded(star: SmoothMap, comps: Sequence[SmoothMap]) -> bool:
    """Whether each component's guard is the star's guard moved onto the
    component's point block, its last star.dom.dim coordinates."""
    if star.guard.is_true():
        return all(m.guard.is_true() for m in comps)
    d = star.dom.dim
    return all(m.guard == guard_subst(star.guard, shift_vars(d, m.dom.dim - d))
               for m in comps)


@dataclass(frozen=True, slots=True)
class SmoothCategory:
    """The smooth base presented through the small category protocol the jet
    construction is written against."""

    def product(self, objs: Sequence[SpaceObject]) -> SpaceObject:
        return SpaceObject(sum(o.dim for o in objs))

    def then(self, f: SmoothMap, g: SmoothMap) -> SmoothMap:
        return then(f, g)

    def tuple_map(self, maps: Sequence[SmoothMap]) -> SmoothMap:
        return tuple_map(maps)

    def select(self, blocks: Sequence[SpaceObject], picks: Sequence[int],
               order: int | None = None) -> SmoothMap:
        return select([b.dim for b in blocks], picks)

    def restriction(self, f: SmoothMap) -> SmoothMap:
        return restriction_of(f)

    def restricted_then(self, f: SmoothMap, g: SmoothMap) -> SmoothMap:
        return restriction_of(then(f, g))

    def add(self, maps: Sequence[SmoothMap]) -> SmoothMap:
        return add_maps(*maps)

    def vanishing_terms(self, f_star: SmoothMap, f_derivs: Sequence[SmoothMap],
                        g_star: SmoothMap, g_derivs: Sequence[SmoothMap]):
        """Which partition-sum terms of the jet (f_star, f_derivs) then the
        jet (g_star, g_derivs), both of order n, are provably the zero map
        with the others' guard: None unless every component's guard is its
        star's on its point block, atom for atom, else (zero, masks).
        zero[j-1] says that f_j has only ZERO coordinates.  masks[k-1] is -1
        when g_k is the zero map; its bit i says that g_k is ZERO when its
        direction block i is (vanishing_groups), walked only if some f_j with
        j <= n - k + 1, the most slots of a block of k, is ZERO.  The term of
        {B_1..B_k} is ZERO when masks[k-1] is -1, or when some f_|B_i| is
        ZERO and bit i of masks[k-1] is set."""
        if not (_point_guarded(f_star, f_derivs) and _point_guarded(g_star, g_derivs)):
            return None
        zero = [all(e is ZERO for e in m.coords) for m in f_derivs]
        d, n = g_star.dom.dim, len(g_derivs)
        masks = []
        for k, m in enumerate(g_derivs, start=1):
            if not any(zero[:n - k + 1]):  # no bit is read, only a zero map's -1
                masks.append(-1 if all(e is ZERO for e in m.coords) else 0)
                continue
            l = (m.dom.dim - d) // k  # the dimension of a direction block
            groups = {var_name(j * l + i): 1 << j for j in range(k) for i in range(l)}
            walks = (vanishing_groups(e, groups) for e in m.coords)
            masks.append(reduce(int.__and__, walks, -1))
        return zero, masks

    def order_of(self, f: SmoothMap) -> int | None:
        return None

    def equal(self, f: SmoothMap, g: SmoothMap, cfg: RunConfig, label: str) -> EqOutcome:
        return maps_equal(f, g, cfg, label)


SMOOTH = SmoothCategory()


def from_parsed(parsed) -> SmoothMap:
    """Wrap a ParsedMap literal into a SmoothMap."""
    return SmoothMap(SpaceObject(parsed.arity_in), SpaceObject(parsed.arity_out),
                     parsed.coords, parsed.guard)


def parse_smooth_map(text: str) -> SmoothMap:
    from .expr import parse_map
    return from_parsed(parse_map(text))
