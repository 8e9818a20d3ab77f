"""Machine checks for the differential and restriction axioms on the smooth
model.  Each axiom is built as two concrete maps and decided by the semantic
equality protocol; generic points in the equations are instantiated as
projections of a fresh sample domain, so guards flow through both sides."""

from __future__ import annotations

from functools import lru_cache

from .config import RunConfig, derive_seed
from .expr import Guard, GuardAtom, guard_subst, shift_vars, var, var_name
from .report import CheckResult
from .smooth import (
    STRUCTURE_CACHE_SIZE,
    EqOutcome,
    LAssignment,
    SmoothMap,
    SpaceObject,
    D,
    add_maps,
    guard_within,
    identity,
    maps_equal,
    restrict_map,
    restriction_of,
    select,
    then,
    tuple_map,
    zero_map,
)


class Rows:
    """The rows of one suite item.  Every row's seed and every sampling label
    is made here: a row's seed mixes "suite:idx:axiom" into cfg.seed, and a
    sampled check is labelled "suite:idx:tag"."""

    def __init__(self, suite: str, idx: int, cfg: RunConfig):
        self.suite, self.idx, self.cfg = suite, idx, cfg
        self.rows: list[CheckResult] = []

    def label(self, tag: str) -> str:
        return f"{self.suite}:{self.idx}:{tag}"

    def add(self, axiom: str, outcome: EqOutcome, component: int | None = None,
            gating: bool = True):
        worst = outcome.worst_residual
        self.rows.append(CheckResult(
            suite=self.suite, map_index=self.idx, axiom=axiom, status=outcome.status,
            worst_residual=worst if worst != float("inf") else -1.0,
            seed=derive_seed(self.cfg.seed, self.label(axiom)),
            witness_point=outcome.witness, component=component, gating=gating,
            note=outcome.note))

    def eq(self, axiom: str, lhs, rhs, tag: str | None = None, gating: bool = True,
           equal=None, component: int | None = None):
        """A row deciding lhs = rhs by equal, else by maps_equal, looked up per
        call so that perfbench's span tracer sees it; labelled tag or axiom."""
        outcome = (equal or maps_equal)(lhs, rhs, self.cfg, self.label(tag or axiom))
        self.add(axiom, outcome, component, gating)

    def holds(self, axiom: str, ok: bool, note: str = ""):
        self.add(axiom, EqOutcome("pass" if ok else "fail", 0.0 if ok else -1.0, None, note))


@lru_cache(maxsize=STRUCTURE_CACHE_SIZE)
def object_sides(dom: SpaceObject, cod: SpaceObject, L: LAssignment) -> dict:
    """Both sides of the rows that read only the objects X = dom, Y = cod of a
    pair: CD.1 on X's monoid, CD.3 on the projections of X x Y and D[0] = 0
    into L(Y), keyed by axiom.  Built once per (dom, cod, L), so each side
    is differentiated and compiled once; every row still draws its own
    points under its own label."""
    n, m = dom.dim, cod.dim
    l, lY = L.l0(dom).dim, L.l0(cod).dim
    mon = L.monoid(dom)
    two = 2 * mon.carrier.dim
    sides = {
        "CD.1.add": (D(mon.add, L),
                     then(select([L.l0(SpaceObject(two)).dim, two], [0]), mon.add)),
        "CD.1.zero": (D(mon.zero, L), then(select([0, 0], [0]), mon.zero)),
    }
    for i in (0, 1):
        sides[f"CD.3.pi{i}"] = (D(select([n, m], [i]), L),
                                then(select([l + lY, n + m], [0]), select([l, lY], [i])))
    sides["Lemma.zero"] = (D(zero_map(dom, SpaceObject(lY)), L),
                           zero_map(SpaceObject(l + n), SpaceObject(lY)))
    return sides


def _cd_rows(r: Rows, f: SmoothMap, g: SmoothMap, L: LAssignment, restricted: bool):
    """CD.1-CD.7 on the composable pair (f, g), then the additivity lemma, or
    with restricted the DR form of CD.6, DR.8, DR.9 and R.1-R.4.  Each map is
    differentiated once: df = D(f), D(df), D(g) and D(h) for h = then(f, g)
    serve every equation that mentions them, and the rows on the objects
    alone take their sides from object_sides."""
    eq = r.eq
    sides = object_sides(f.dom, f.cod, L)
    n = f.dom.dim
    l, lY = L.l0(f.dom).dim, L.l0(f.cod).dim
    h = then(f, g)
    df, dg, dh = D(f, L), D(g, L), D(h, L)
    d2f = D(df, L)
    # a sample domain of two vectors a, b and a point x
    a, b, x = (select([l, l, n], [i]) for i in range(3))
    zero = zero_map(a.dom, SpaceObject(l))
    a_df = then(tuple_map([a, x]), df)

    eq("CD.1.add", *sides["CD.1.add"])
    eq("CD.1.zero", *sides["CD.1.zero"])

    lhs = then(tuple_map([add_maps(a, b), x]), df)
    eq("CD.2.additive", lhs, add_maps(a_df, then(tuple_map([b, x]), df)))
    # the printed variant substitutes the vector b into the point slot; it only
    # typechecks when L0(X) = X, and is reported without gating
    if l == n:
        eq("CD.2.printed-form", lhs,
           add_maps(then(tuple_map([a, b]), df), then(tuple_map([b, x]), df)), gating=False)
    eq("CD.2.zero", then(tuple_map([zero_map(f.dom, SpaceObject(l)), identity(f.dom)]), df),
       restrict_map(zero_map(f.dom, SpaceObject(lY)), f.guard))

    eq("CD.3.pi0", *sides["CD.3.pi0"])
    eq("CD.3.pi1", *sides["CD.3.pi1"])

    eq("CD.4", D(tuple_map([f, h]), L), tuple_map([df, dh]))
    eq("CD.5", dh, then(tuple_map([df, then(select([l, n], [1]), f)]), dg))

    eq("DR.6" if restricted else "CD.6", then(tuple_map([a, zero, b, x]), d2f), a_df)
    if restricted:
        # re-run with a partial b (the row's c) so the restriction term on the
        # right is exercised: both sides must pick up b's guard
        b_part = restrict_map(b, Guard((GuardAtom("!=0", var(var_name(2 * l))),)))
        eq("DR.6.partial-c", then(tuple_map([a, zero, b_part, x]), d2f),
           restrict_map(a_df, b_part.guard))
    eq("CD.7", then(tuple_map([zero, a, b, x]), d2f), then(tuple_map([zero, b, a, x]), d2f))

    if not restricted:
        # D[f+g] = D[f] + D[g] and D[0] = 0 for parallel maps into a carrier:
        # the equivalent form of CD.1 in the presence of the other axioms
        f2 = then(add_maps(identity(f.dom), identity(f.dom)), f)
        eq("Lemma.additive", D(add_maps(f, f2), L), add_maps(df, D(f2, L)))
        eq("Lemma.zero", *sides["Lemma.zero"])
        return

    point_guard = guard_subst(f.guard, shift_vars(n, l))
    eq("DR.8", D(restriction_of(f), L), restrict_map(select([l, n], [0]), point_guard))
    eq("DR.9", restriction_of(df), restrict_map(identity(SpaceObject(l + n)), point_guard))
    structural = guard_within(df.guard, l, n)
    r.holds("DR.9.structural", structural,
            "guard mentions only point variables" if structural
            else "guard mentions vector variables")

    # R.1-R.4 for the smooth partial maps
    rf, rh = restriction_of(f), restriction_of(h)
    rf_rh = then(rf, rh)
    eq("R.1", then(rf, f), f)
    eq("R.2", rf_rh, then(rh, rf))
    eq("R.3", restriction_of(then(rf, h)), rf_rh)
    eq("R.4", then(f, restriction_of(g)), then(rh, f))


def cd_rows(r: Rows, pair, L: LAssignment):
    """CD.1-CD.7 (standard-form CD.2, printed form reported without gating)
    plus the additivity lemma, on the composable pair (f, g)."""
    _cd_rows(r, *pair, L, restricted=False)


def dr_rows(r: Rows, pair, L: LAssignment):
    """DR.1-DR.9 plus the restriction axioms R.1-R.4 on the pair (f, g)."""
    _cd_rows(r, *pair, L, restricted=True)
