"""Splitting the restriction idempotents of the smooth model.

Objects are open subsets presented as guarded identity maps (X, e); a map
(X, e1) -> (Y, e2) is a smooth map fixed by pre- and post-composition with the
idempotents.  The vector object of (X, e) is the full space (L(X), 1), so the
derivative of a partial map is total in its vector block: the domain guard of
D(f) depends only on the point.  The total maps of this category then satisfy
the whole differential axiom suite, which split_rows runs directly."""

from __future__ import annotations

from dataclasses import dataclass

from .config import RunConfig
from .expr import Guard, TRUE_GUARD, guard_and, guard_subst, shift_vars
from .laws import Rows, cd_rows
from .smooth import (
    CLASSICAL,
    EqOutcome,
    LAssignment,
    SmoothMap,
    SpaceObject,
    TRIVIAL,
    D,
    guard_within,
    identity,
    maps_equal,
    restrict_map,
    restriction_of,
    select,
    then,
)


class SplitError(Exception):
    pass


@dataclass(frozen=True, slots=True)
class SplitObject:
    space: SpaceObject
    idem: SmoothMap  # identity coordinates with a guard

    def __post_init__(self):
        if self.idem.dom != self.space or self.idem.cod != self.space:
            raise SplitError("idempotent must be an endomap of the space")
        if self.idem.coords != identity(self.space).coords:
            raise SplitError("restriction idempotents have identity coordinates")

    @property
    def guard(self) -> Guard:
        return self.idem.guard

    def __str__(self):
        return f"R^{self.space.dim} | {self.guard}"


def split_object(dim: int, guard: Guard = TRUE_GUARD) -> SplitObject:
    space = SpaceObject(dim)
    return SplitObject(space, restrict_map(identity(space), guard))


@dataclass(frozen=True, slots=True)
class SplitMap:
    f: SmoothMap
    src: SplitObject
    dst: SplitObject

    def __str__(self):
        return f"{self.f}  : {self.src} -> {self.dst}"


def hom_condition(m: SplitMap, cfg: RunConfig, label: str = "hom") -> EqOutcome:
    """e1 f e2 = f, the membership condition for the split category."""
    composite = then(then(m.src.idem, m.f), m.dst.idem)
    return maps_equal(composite, m.f, cfg, label)


def split_map(f: SmoothMap, src: SplitObject, dst: SplitObject,
              cfg: RunConfig | None = None) -> SplitMap:
    if f.dom != src.space or f.cod != dst.space:
        raise SplitError("map does not fit the declared objects")
    m = SplitMap(f, src, dst)
    if cfg is not None:
        out = hom_condition(m, cfg)
        if not out.ok:
            raise SplitError(f"hom-condition violated: {out.note}")
    return m


def split_identity(obj: SplitObject) -> SplitMap:
    return SplitMap(obj.idem, obj, obj)


def split_then(m1: SplitMap, m2: SplitMap, cfg: RunConfig | None = None) -> SplitMap:
    if m1.dst != m2.src:
        raise SplitError("objects do not match")
    return split_map(then(m1.f, m2.f), m1.src, m2.dst, cfg)


def split_restriction(m: SplitMap) -> SplitMap:
    return SplitMap(restriction_of(m.f), m.src, m.src)


def split_L(obj: SplitObject, L: LAssignment = CLASSICAL) -> SplitObject:
    """The vector object (L(X), 1): the idempotent is discarded."""
    return split_object(L.l0(obj.space).dim)


def split_D(m: SplitMap, L: LAssignment = CLASSICAL) -> SplitMap:
    """The base-category derivative, re-homed at (L0(X) x X, 1 x e1)."""
    df = D(m.f, L)
    l = L.l0(m.src.space).dim
    shift = shift_vars(m.src.space.dim, l)
    dom = split_object(df.dom.dim, guard_subst(m.src.guard, shift))
    return SplitMap(df, dom, split_L(obj=m.dst, L=L))


def total_in_split(m: SplitMap, cfg: RunConfig, label: str = "total") -> EqOutcome:
    """Total as a map of the split category: its restriction is the source
    identity, i.e. the guard agrees with the source idempotent's."""
    return maps_equal(restriction_of(m.f), m.src.idem, cfg, label)


def _d_guard_rows(r: Rows, m: SplitMap, dm: SplitMap):
    """The derivative's domain guard must not see the vector block: checked
    structurally, and by totality of dm = split_D(m), whose source guard is
    m's source guard on the point block."""
    n = m.src.space.dim
    l = dm.src.space.dim - n
    structural = guard_within(dm.f.guard, l, n)
    r.holds("split.D-guard-structural", structural,
            "" if structural else "guard mentions vector variables")
    r.add("split.D-guard-is-source-guard", total_in_split(dm, r.cfg, r.label("dguard")))


def _restricted_projection_row(r: Rows, m: SplitMap, L: LAssignment):
    """CD.3 with the split category's own projections: D of the guarded
    projection equals the guarded double projection."""
    e1 = m.src
    e2 = m.dst
    n, k = e1.space.dim, e2.space.dim
    prod_guard = guard_and(e1.guard, guard_subst(e2.guard, shift_vars(k, n)))
    p0 = restrict_map(select([n, k], [0]), prod_guard)
    lhs = D(p0, L)
    l_all = L.l0(SpaceObject(n + k)).dim
    lx = L.l0(SpaceObject(n)).dim
    rhs = restrict_map(
        then(select([l_all, n + k], [0]), select([lx, l_all - lx], [0])),
        guard_subst(prod_guard, shift_vars(n + k, l_all)))
    r.eq("split.CD.3-restricted", lhs, rhs)


def split_rows(r: Rows, entry, L: LAssignment):
    """The full differential suite inside the split category, for a map m
    total there and its target g: hom-conditions, split-totality, CD.1-7 on
    the underlying maps, the derivative re-homing of the splitting
    construction, and the degenerate run under the trivial vector
    assignment."""
    m, g = entry
    r.add("split.hom-condition", hom_condition(m, r.cfg, r.label("hom")))
    r.add("split.total-in-Kr", total_in_split(m, r.cfg, r.label("tot")))
    cd_rows(r, (m.f, g.f), L)
    dm = split_D(m, L)
    r.add("split.D-hom-condition", hom_condition(dm, r.cfg, r.label("dhom")))
    _d_guard_rows(r, m, dm)
    _restricted_projection_row(r, m, L)
    lsplit = split_L(m.src, L)
    r.holds("split.L-idempotent", split_L(lsplit, L) == lsplit)
    trivial = Rows(r.suite, r.idx, r.cfg)
    cd_rows(trivial, (m.f, g.f), TRIVIAL)
    r.holds("split.trivial-L-degenerate",
            all(row.status == "pass" for row in trivial.rows if row.gating))
