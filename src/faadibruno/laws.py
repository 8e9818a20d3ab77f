"""Machine checks for the differential and restriction axioms on the smooth
model.  Each axiom is built as two concrete maps and decided by the semantic
equality protocol; generic points in the equations are instantiated as
projections of a fresh sample domain, so guards flow through both sides."""

from __future__ import annotations

from .config import RunConfig, derive_seed
from .expr import Guard, GuardAtom, guard_subst, guard_vars, shift_vars, var, var_name
from .report import CheckResult
from .smooth import (
    EqOutcome,
    LAssignment,
    SmoothMap,
    SpaceObject,
    D,
    add_maps,
    bang,
    identity,
    iterate_D,
    maps_equal,
    restrict_map,
    restriction_of,
    select,
    then,
    tuple_map,
    zero_map,
)


def _row(suite: str, idx: int, axiom: str, outcome: EqOutcome, cfg: RunConfig,
         gating: bool = True, component: int | None = None) -> CheckResult:
    return CheckResult(
        suite=suite, map_index=idx, axiom=axiom, status=outcome.status,
        worst_residual=outcome.worst_residual if outcome.worst_residual != float("inf") else -1.0,
        seed=derive_seed(cfg.seed, f"{suite}:{idx}:{axiom}"),
        witness_point=outcome.witness, component=component, gating=gating,
        note=outcome.note)


def _eq(suite, idx, axiom, lhs, rhs, cfg, gating=True) -> CheckResult:
    outcome = maps_equal(lhs, rhs, cfg, f"{suite}:{idx}:{axiom}")
    return _row(suite, idx, axiom, outcome, cfg, gating)


def _bool_row(suite, idx, axiom, ok: bool, cfg, note="") -> CheckResult:
    outcome = EqOutcome("pass" if ok else "fail", 0.0 if ok else -1.0, None, note)
    return _row(suite, idx, axiom, outcome, cfg)


def check_cd1(suite, idx, obj: SpaceObject, L, cfg) -> list[CheckResult]:
    mon = L.monoid(obj)
    two = SpaceObject(2 * mon.carrier.dim)
    vl = L.l0(two).dim
    lhs_add = D(mon.add, L)
    rhs_add = then(select([vl, two.dim], [0]), mon.add)
    lhs_zero = D(mon.zero, L)
    rhs_zero = then(select([0, 0], [0]), mon.zero)
    return [
        _eq(suite, idx, "CD.1.add", lhs_add, rhs_add, cfg),
        _eq(suite, idx, "CD.1.zero", lhs_zero, rhs_zero, cfg),
    ]


def check_cd2(suite, idx, f: SmoothMap, L, cfg) -> list[CheckResult]:
    n = f.dom.dim
    l = L.l0(f.dom).dim
    lY = L.l0(f.cod).dim
    df = D(f, L)
    blocks = [l, l, n]
    a = select(blocks, [0])
    b = select(blocks, [1])
    c = select(blocks, [2])
    lhs = then(tuple_map([add_maps(a, b), c]), df)
    rhs = add_maps(then(tuple_map([a, c]), df), then(tuple_map([b, c]), df))
    rows = [_eq(suite, idx, "CD.2.additive", lhs, rhs, cfg)]
    # the printed variant substitutes the vector b into the point slot; it only
    # typechecks when L0(X) = X, and is reported without gating
    if l == n:
        rhs_printed = add_maps(then(tuple_map([a, b]), df), then(tuple_map([b, c]), df))
        rows.append(_eq(suite, idx, "CD.2.printed-form", lhs, rhs_printed, cfg, gating=False))
    zero_in = zero_map(f.dom, SpaceObject(l))
    lhs0 = then(tuple_map([zero_in, identity(f.dom)]), df)
    rhs0 = restrict_map(zero_map(f.dom, SpaceObject(lY)), f.guard)
    rows.append(_eq(suite, idx, "CD.2.zero", lhs0, rhs0, cfg))
    return rows


def check_cd3(suite, idx, x: SpaceObject, y: SpaceObject, L, cfg) -> list[CheckResult]:
    lx, ly = L.l0(x).dim, L.l0(y).dim
    rows = []
    for i, name in ((0, "CD.3.pi0"), (1, "CD.3.pi1")):
        p = select([x.dim, y.dim], [i])
        lhs = D(p, L)
        rhs = then(select([lx + ly, x.dim + y.dim], [0]), select([lx, ly], [i]))
        rows.append(_eq(suite, idx, name, lhs, rhs, cfg))
    return rows


def check_cd4(suite, idx, f: SmoothMap, h: SmoothMap, L, cfg) -> CheckResult:
    lhs = D(tuple_map([f, h]), L)
    rhs = tuple_map([D(f, L), D(h, L)])
    return _eq(suite, idx, "CD.4", lhs, rhs, cfg)


def check_cd5(suite, idx, f: SmoothMap, g: SmoothMap, L, cfg) -> CheckResult:
    l = L.l0(f.dom).dim
    lhs = D(then(f, g), L)
    point_f = then(select([l, f.dom.dim], [1]), f)
    rhs = then(tuple_map([D(f, L), point_f]), D(g, L))
    return _eq(suite, idx, "CD.5", lhs, rhs, cfg)


def check_cd6(suite, idx, f: SmoothMap, L, cfg, restricted: bool) -> list[CheckResult]:
    n = f.dom.dim
    l = L.l0(f.dom).dim
    blocks = [l, l, n]
    z = SpaceObject(2 * l + n)
    a = select(blocks, [0])
    c = select(blocks, [1])
    d = select(blocks, [2])
    d2f = iterate_D(f, 2, L)
    df = D(f, L)
    lhs = then(tuple_map([a, zero_map(z, SpaceObject(l)), c, d]), d2f)
    rhs = then(tuple_map([a, d]), df)
    name = "DR.6" if restricted else "CD.6"
    rows = [_eq(suite, idx, name, lhs, rhs, cfg)]
    if restricted:
        # re-run with a partial c so the restriction term on the right is
        # exercised: both sides must pick up c's guard
        partial = Guard((GuardAtom("!=0", var(var_name(2 * l))),))
        c_part = restrict_map(c, partial)
        lhs_p = then(tuple_map([a, zero_map(z, SpaceObject(l)), c_part, d]), d2f)
        rhs_p = restrict_map(rhs, c_part.guard)
        rows.append(_eq(suite, idx, "DR.6.partial-c", lhs_p, rhs_p, cfg))
    return rows


def check_cd7(suite, idx, f: SmoothMap, L, cfg) -> CheckResult:
    n = f.dom.dim
    l = L.l0(f.dom).dim
    blocks = [l, l, n]
    z = SpaceObject(2 * l + n)
    b = select(blocks, [0])
    c = select(blocks, [1])
    d = select(blocks, [2])
    zero = zero_map(z, SpaceObject(l))
    d2f = iterate_D(f, 2, L)
    lhs = then(tuple_map([zero, b, c, d]), d2f)
    rhs = then(tuple_map([zero, c, b, d]), d2f)
    return _eq(suite, idx, "CD.7", lhs, rhs, cfg)


def check_lemma_additivity(suite, idx, f: SmoothMap, L, cfg) -> list[CheckResult]:
    """D[f+g] = D[f] + D[g] and D[0] = 0 for parallel maps into a carrier:
    the equivalent form of CD.1 in the presence of the other axioms."""
    if L.variant == "trivial":
        f = then(f, bang(f.cod))
    doubled = add_maps(identity(f.dom), identity(f.dom))
    g = then(doubled, f)
    lhs = D(add_maps(f, g), L)
    rhs = add_maps(D(f, L), D(g, L))
    zero = zero_map(f.dom, L.l0(f.cod))
    l = L.l0(f.dom).dim
    rows = [
        _eq(suite, idx, "Lemma.additive", lhs, rhs, cfg),
        _eq(suite, idx, "Lemma.zero", D(zero, L),
            zero_map(SpaceObject(l + f.dom.dim), L.l0(f.cod)), cfg),
    ]
    return rows


def check_restriction_axioms(suite, idx, f: SmoothMap, g: SmoothMap, cfg) -> list[CheckResult]:
    """R.1-R.4 for the smooth partial maps (g composable after f)."""
    h = then(f, g)
    rf, rh = restriction_of(f), restriction_of(h)
    return [
        _eq(suite, idx, "R.1", then(rf, f), f, cfg),
        _eq(suite, idx, "R.2", then(rf, rh), then(rh, rf), cfg),
        _eq(suite, idx, "R.3", restriction_of(then(rf, h)), then(rf, rh), cfg),
        _eq(suite, idx, "R.4", then(f, restriction_of(g)),
            then(restriction_of(then(f, g)), f), cfg),
    ]


def check_dr8(suite, idx, f: SmoothMap, L, cfg) -> CheckResult:
    l = L.l0(f.dom).dim
    n = f.dom.dim
    lhs = D(restriction_of(f), L)
    rhs = restrict_map(select([l, n], [0]), guard_subst(f.guard, shift_vars(n, l)))
    return _eq(suite, idx, "DR.8", lhs, rhs, cfg)


def check_dr9(suite, idx, f: SmoothMap, L, cfg) -> list[CheckResult]:
    l = L.l0(f.dom).dim
    n = f.dom.dim
    df = D(f, L)
    lhs = restriction_of(df)
    rhs = restrict_map(identity(SpaceObject(l + n)), guard_subst(f.guard, shift_vars(n, l)))
    point_vars = {var_name(l + k) for k in range(n)}
    structural = guard_vars(df.guard) <= point_vars
    return [
        _eq(suite, idx, "DR.9", lhs, rhs, cfg),
        _bool_row(suite, idx, "DR.9.structural", structural, cfg,
                  "guard mentions only point variables" if structural
                  else "guard mentions vector variables"),
    ]


def _cd_rows(f: SmoothMap, g: SmoothMap, L: LAssignment, cfg: RunConfig, suite: str,
             map_index: int, restricted: bool) -> list[CheckResult]:
    """CD.1-CD.7, the prefix shared by the cd and dr suites; restricted
    selects the DR form of CD.6."""
    rows: list[CheckResult] = []
    rows += check_cd1(suite, map_index, f.dom, L, cfg)
    rows += check_cd2(suite, map_index, f, L, cfg)
    rows += check_cd3(suite, map_index, f.dom, f.cod, L, cfg)
    rows.append(check_cd4(suite, map_index, f, then(f, g), L, cfg))
    rows.append(check_cd5(suite, map_index, f, g, L, cfg))
    rows += check_cd6(suite, map_index, f, L, cfg, restricted)
    rows.append(check_cd7(suite, map_index, f, L, cfg))
    return rows


def check_cd_axioms(f: SmoothMap, g: SmoothMap, L: LAssignment, cfg: RunConfig,
                    suite: str = "cd", map_index: int = 0) -> list[CheckResult]:
    """CD.1-CD.7 (standard-form CD.2, printed form reported without gating)
    plus the additivity lemma, on the composable pair (f, g)."""
    if f.cod != g.dom:
        raise ValueError("check_cd_axioms wants a composable pair")
    rows = _cd_rows(f, g, L, cfg, suite, map_index, restricted=False)
    rows += check_lemma_additivity(suite, map_index, f, L, cfg)
    return rows


def check_dr_axioms(f: SmoothMap, g: SmoothMap, L: LAssignment, cfg: RunConfig,
                    suite: str = "dr", map_index: int = 0) -> list[CheckResult]:
    """DR.1-DR.9 plus the restriction axioms R.1-R.4 on the pair (f, g)."""
    if f.cod != g.dom:
        raise ValueError("check_dr_axioms wants a composable pair")
    rows = _cd_rows(f, g, L, cfg, suite, map_index, restricted=True)
    rows.append(check_dr8(suite, map_index, f, L, cfg))
    rows += check_dr9(suite, map_index, f, L, cfg)
    rows += check_restriction_axioms(suite, map_index, f, g, cfg)
    return rows


def run_cd_suite(pairs, L: LAssignment, cfg: RunConfig, suite: str = "cd") -> list[CheckResult]:
    rows: list[CheckResult] = []
    for idx, (f, g) in enumerate(pairs):
        rows += check_cd_axioms(f, g, L, cfg, suite=suite, map_index=idx)
    return rows


def run_dr_suite(pairs, L: LAssignment, cfg: RunConfig, suite: str = "dr") -> list[CheckResult]:
    rows: list[CheckResult] = []
    for idx, (f, g) in enumerate(pairs):
        rows += check_dr_axioms(f, g, L, cfg, suite=suite, map_index=idx)
    return rows
