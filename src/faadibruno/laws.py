"""Machine checks for the differential and restriction axioms on the smooth
model.  Each axiom is built as two concrete maps and decided by the semantic
equality protocol; generic points in the equations are instantiated as
projections of a fresh sample domain, so guards flow through both sides."""

from __future__ import annotations

from .config import RunConfig, derive_seed
from .expr import Guard, GuardAtom, guard_subst, shift_vars, var, var_name
from .report import CheckResult
from .smooth import (
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


def _cd_rows(f: SmoothMap, g: SmoothMap, L: LAssignment, cfg: RunConfig, suite: str,
             idx: int, restricted: bool) -> list[CheckResult]:
    """CD.1-CD.7 on the composable pair (f, g), then the additivity lemma, or
    with restricted the DR form of CD.6, DR.8, DR.9 and R.1-R.4.  Each map is
    differentiated once: df = D(f), D(df), D(g) and D(h) for h = then(f, g)
    serve every equation that mentions them."""
    rows: list[CheckResult] = []

    def eq(axiom, lhs, rhs, gating=True):
        rows.append(_eq(suite, idx, axiom, lhs, rhs, cfg, gating))

    n, m = f.dom.dim, f.cod.dim
    l, lY = L.l0(f.dom).dim, L.l0(f.cod).dim
    h = then(f, g)
    df, dg, dh = D(f, L), D(g, L), D(h, L)
    d2f = D(df, L)
    # a sample domain of two vectors a, b and a point x
    a, b, x = (select([l, l, n], [i]) for i in range(3))
    zero = zero_map(a.dom, SpaceObject(l))
    a_df = then(tuple_map([a, x]), df)

    mon = L.monoid(f.dom)
    two = 2 * mon.carrier.dim
    eq("CD.1.add", D(mon.add, L),
       then(select([L.l0(SpaceObject(two)).dim, two], [0]), mon.add))
    eq("CD.1.zero", D(mon.zero, L), then(select([0, 0], [0]), mon.zero))

    lhs = then(tuple_map([add_maps(a, b), x]), df)
    eq("CD.2.additive", lhs, add_maps(a_df, then(tuple_map([b, x]), df)))
    # the printed variant substitutes the vector b into the point slot; it only
    # typechecks when L0(X) = X, and is reported without gating
    if l == n:
        eq("CD.2.printed-form", lhs,
           add_maps(then(tuple_map([a, b]), df), then(tuple_map([b, x]), df)), gating=False)
    eq("CD.2.zero", then(tuple_map([zero_map(f.dom, SpaceObject(l)), identity(f.dom)]), df),
       restrict_map(zero_map(f.dom, SpaceObject(lY)), f.guard))

    for i in (0, 1):
        eq(f"CD.3.pi{i}", D(select([n, m], [i]), L),
           then(select([l + lY, n + m], [0]), select([l, lY], [i])))

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
        eq("Lemma.zero", D(zero_map(f.dom, SpaceObject(lY)), L),
           zero_map(SpaceObject(l + n), SpaceObject(lY)))
        return rows

    point_guard = guard_subst(f.guard, shift_vars(n, l))
    eq("DR.8", D(restriction_of(f), L), restrict_map(select([l, n], [0]), point_guard))
    eq("DR.9", restriction_of(df), restrict_map(identity(SpaceObject(l + n)), point_guard))
    structural = guard_within(df.guard, l, n)
    rows.append(_bool_row(suite, idx, "DR.9.structural", structural, cfg,
                          "guard mentions only point variables" if structural
                          else "guard mentions vector variables"))

    # R.1-R.4 for the smooth partial maps
    rf, rh = restriction_of(f), restriction_of(h)
    rf_rh = then(rf, rh)
    eq("R.1", then(rf, f), f)
    eq("R.2", rf_rh, then(rh, rf))
    eq("R.3", restriction_of(then(rf, h)), rf_rh)
    eq("R.4", then(f, restriction_of(g)), then(rh, f))
    return rows


def check_cd_axioms(f: SmoothMap, g: SmoothMap, L: LAssignment, cfg: RunConfig,
                    suite: str = "cd", map_index: int = 0) -> list[CheckResult]:
    """CD.1-CD.7 (standard-form CD.2, printed form reported without gating)
    plus the additivity lemma, on the composable pair (f, g)."""
    if f.cod != g.dom:
        raise ValueError("check_cd_axioms wants a composable pair")
    return _cd_rows(f, g, L, cfg, suite, map_index, restricted=False)


def check_dr_axioms(f: SmoothMap, g: SmoothMap, L: LAssignment, cfg: RunConfig,
                    suite: str = "dr", map_index: int = 0) -> list[CheckResult]:
    """DR.1-DR.9 plus the restriction axioms R.1-R.4 on the pair (f, g)."""
    if f.cod != g.dom:
        raise ValueError("check_dr_axioms wants a composable pair")
    return _cd_rows(f, g, L, cfg, suite, map_index, restricted=True)


def run_cd_suite(pairs, L: LAssignment, cfg: RunConfig) -> list[CheckResult]:
    rows: list[CheckResult] = []
    for idx, (f, g) in enumerate(pairs):
        rows += check_cd_axioms(f, g, L, cfg, "cd", idx)
    return rows


def run_dr_suite(pairs, L: LAssignment, cfg: RunConfig) -> list[CheckResult]:
    rows: list[CheckResult] = []
    for idx, (f, g) in enumerate(pairs):
        rows += check_dr_axioms(f, g, L, cfg, "dr", idx)
    return rows
