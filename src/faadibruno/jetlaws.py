"""Law suites for the jet category over the smooth base: the cofree jet of
a map and the componentwise order relations, then restriction structure,
products, the comonad equations, the cofree-coalgebra square, and the
characterization of linear maps as embedded additive maps."""

from __future__ import annotations

import random
from fractions import Fraction

from .config import RunConfig, derive_seed
from .expr import const, guard_subst, mul, shift_vars
from .jets import (
    FaaObject,
    JetError,
    JetMorphism,
    _combine,
    _componentwise,
    compose_jets,
    delta,
    faa_delta_jet,
    faa_epsilon_jet,
    is_linear,
    is_total,
    jet_equal,
    lambda_embed,
    restriction_jet,
    select_jet,
    truncate_jet,
    tuple_jets,
)
from .laws import Rows
from .smooth import (
    EqOutcome,
    LAssignment,
    SMOOTH,
    SmoothMap,
    add_maps,
    componentwise_monoid,
    derivative_tower,
    guard_within,
    map_leq,
    map_total,
    maps_compatible,
    maps_equal,
    parse_smooth_map,
    restrict_map,
    restriction_of,
    select,
    then,
    tuple_map,
    zero_map,
)


# --- jets over the smooth base ------------------------------------------------

def cofree_jet(f: SmoothMap, L: LAssignment, order: int) -> JetMorphism:
    """The coalgebra image of a base map: its full symmetric derivative tower
    (f, D f, D_2 f, ..., D_N f), from one derivative_tower."""
    src = FaaObject(L.monoid(f.dom), f.dom)
    dst = FaaObject(L.monoid(f.cod), f.cod)
    return JetMorphism(SMOOTH, src, dst, f, tuple(derivative_tower(f, order, L)))


def leq(f: JetMorphism, g: JetMorphism, cfg: RunConfig, label: str = "leq") -> bool:
    """f <= g decided componentwise (restriction of f then g agrees with f)."""
    return _componentwise(map_leq, f, g, cfg, label).ok


def compatible(f: JetMorphism, g: JetMorphism, cfg: RunConfig, label: str = "cmp") -> bool:
    """f and g agree wherever both are defined, componentwise."""
    return _componentwise(maps_compatible, f, g, cfg, label).ok


# --- well-formedness of a jet ---------------------------------------------------

# The scalar q of the linearity identity f_n(v_1 + q w, ...) = f_n(v_1, ...)
# + q f_n(w, ...); neither 0 nor 1 nor -1, so the identity gives homogeneity
# and additivity together.
LINEARITY_SCALAR = Fraction(-3, 2)

# The components of the comultiplication compared by the coassociativity row.
COASSOCIATIVITY_DEPTH = 2


def check_multilinearity(f: JetMorphism, cfg: RunConfig, label: str) -> EqOutcome:
    """Each component f_n(v_1, ..., v_n; x) is linear in v_1 and invariant
    under the swap (v_1 v_2) and the cycle (v_1 ... v_n).  The swap and the
    cycle generate every permutation, so symmetry carries linearity to every
    block.  A component's identities are paired into one equality of maps
    over the layout v_1 .. v_n, w, x."""
    a = f.src.monoid.carrier.dim
    d = f.src.point.dim
    q = const(LINEARITY_SCALAR)

    def scaled(m: SmoothMap) -> SmoothMap:
        return SmoothMap(m.dom, m.cod, tuple(mul(q, e) for e in m.coords), m.guard)

    outcomes = []
    for n in range(1, f.order + 1):
        comp = f.derivs[n - 1]
        blocks = [a] * (n + 1) + [d]
        vs, w, x = list(range(n)), n, n + 1

        def at(picks):
            return then(select(blocks, picks), comp)

        value = at(vs + [x])
        shifted = tuple_map([add_maps(select(blocks, [0]), scaled(select(blocks, [w]))),
                             select(blocks, vs[1:] + [x])])
        # the swap, and the cycle where it is not the swap
        perms = [[1, 0] + vs[2:], vs[1:] + [0]][:min(n - 1, 2)]
        lhs = [then(shifted, comp)] + [at(p + [x]) for p in perms]
        rhs = [add_maps(value, scaled(at([w] + vs[1:] + [x])))] + [value] * len(perms)
        outcomes.append(maps_equal(tuple_map(lhs), tuple_map(rhs), cfg, f"{label}:{n}"))
    return _combine(outcomes)


def check_guard_side_condition(f: JetMorphism, cfg: RunConfig, label: str) -> list[EqOutcome]:
    """The domain of every component is the cylinder over the star's domain:
    structurally the guard mentions only point variables, semantically it
    agrees with the star's guard there."""
    a = f.src.monoid.carrier.dim
    d = f.src.point.dim
    outcomes = []
    for n in range(1, f.order + 1):
        comp = f.derivs[n - 1]
        if not guard_within(comp.guard, n * a, d):
            outcomes.append(EqOutcome("fail", -1.0, None,
                                      f"component {n} guard mentions direction variables"))
            continue
        expected = restrict_map(
            SMOOTH.select([comp.dom], [0]),
            guard_subst(f.star.guard, shift_vars(d, n * a)))
        got = restriction_of(comp)
        outcomes.append(maps_equal(got, expected, cfg, f"{label}:{n}"))
    return outcomes


def _validate_jet(r: Rows, f: JetMorphism):
    """Well-formedness rows used for deserialized (possibly hand-written)
    jets: multilinearity, the guard side-condition, and R.1."""
    r.add("jet.multilinear", check_multilinearity(f, r.cfg, r.label("well")))
    for n, out in enumerate(check_guard_side_condition(f, r.cfg, r.label("side")), start=1):
        r.add("jet.side-condition", out, component=n)
    r.eq("jet.R.1", compose_jets(restriction_jet(f), f), f, "r1")


# --- restriction suite (jets of the guarded corpus) ------------------------------

def faa_r_rows(r: Rows, item, L: LAssignment):
    """On a composable pair of maps, read as their towers f, g: R.2-R.4, the
    restricted-composite lemma, the restriction products and the
    total/leq/compatible characterizations, then the well-formedness rows of
    f, which hold R.1.  A jet item (one read with --jets) gets only its
    well-formedness rows."""
    if isinstance(item, JetMorphism):
        _validate_jet(r, item)
        return
    cfg, label = r.cfg, r.label
    f, g = (cofree_jet(m, L, cfg.order) for m in item)
    h = compose_jets(f, g)
    rf = restriction_jet(f)
    rh = restriction_jet(h)
    rf_h = compose_jets(rf, h)
    rf_rh = compose_jets(rf, rh)
    rs_rf_h = restriction_jet(rf_h)
    r.eq("jet.R.2", rf_rh, compose_jets(rh, rf))
    r.eq("jet.R.3", rs_rf_h, rf_rh)
    r.eq("jet.R.4", compose_jets(f, restriction_jet(g)), compose_jets(rh, f))

    # (rs f) h componentwise: each component of the composite is h's component
    # restricted by f's domain over the point block
    a = f.src.monoid.carrier.dim
    for n in range(1, rf_h.order + 1):
        shift = shift_vars(f.src.point.dim, n * a)
        expected = restrict_map(h.derivs[n - 1], guard_subst(f.star.guard, shift))
        r.eq("jet.res-composite", rf_h.derivs[n - 1], expected, f"res-composite:{n}",
             component=n)

    # restriction products
    paired = tuple_jets([f, h])
    r.eq("jet.product-restriction", restriction_jet(paired), rf_rh)
    pi0 = select_jet([f.dst, h.dst], [0], f.order, SMOOTH)
    lax_ok = leq(compose_jets(paired, pi0), f, cfg, label("lax"))
    r.holds("jet.product-lax", lax_ok,
            "" if lax_ok else "pairing then projection is not below f")

    # total / leq / compatible agree with their componentwise characterizations
    jet_total = is_total(f, cfg, label("total-jet"))
    star_total = map_total(f.star, cfg, label("total-star")).ok
    r.holds("jet.total-characterization", jet_total == star_total,
            f"jet {jet_total}, star {star_total}")

    # (rs f) h <= h by definition and componentwise, and likewise compatible
    rs_rf_h_h = compose_jets(rs_rf_h, h)
    def_leq = jet_equal(rs_rf_h_h, rf_h, cfg, label("leq-def")).ok
    comp_leq = leq(rf_h, h, cfg, label("leq-comp"))
    r.holds("jet.leq-characterization", def_leq == comp_leq and def_leq,
            f"definition {def_leq}, componentwise {comp_leq}")

    def_cmp = jet_equal(rs_rf_h_h, compose_jets(rh, rf_h), cfg, label("cmp-def")).ok
    comp_cmp = compatible(rf_h, h, cfg, label("cmp-comp"))
    r.holds("jet.compatible-characterization", def_cmp == comp_cmp and def_cmp,
            f"definition {def_cmp}, componentwise {comp_cmp}")

    _validate_jet(r, f)


# --- comonad suite -----------------------------------------------------------------

def comonad_rows(r: Rows, f: SmoothMap, L: LAssignment):
    """Counit laws (the right one exact by construction, the left one sampled
    at a tight tolerance; its sides are one object per component, since the
    stars of delta's components are F's own components), coassociativity on
    comparable components, the coalgebra square delta(Df)_n = tower(D_n f)
    for every n up to the order, and the restriction variants."""
    cfg = r.cfg
    F = cofree_jet(f, L, cfg.order)
    dF = delta(F)

    # right counit: the star of the comultiplication is the jet itself
    r.holds("comonad.counit-eps", dF.star is F, "delta then counit is the identity")

    # left counit: extracting stars componentwise returns the jet
    tight = cfg.with_(tol_rel=1e-12, tol_abs=1e-12)
    r.add("comonad.counit-faa-eps",
          jet_equal(faa_epsilon_jet(dF), F, tight, r.label("counit-faa")))

    # coassociativity, compared on the first COASSOCIATIVITY_DEPTH components
    # (the truncation is degree-local, so both routes see the same prefix)
    dT = truncate_jet(dF, COASSOCIATIVITY_DEPTH)
    r.eq("comonad.coassociativity", delta(dT), faa_delta_jet(dT), "coassoc")

    # the coalgebra square: components of delta on a tower are towers
    for n in range(1, cfg.order + 1):
        tower = cofree_jet(F.derivs[n - 1], L, cfg.order - n)
        r.eq("comonad.coalgebra-square", dF.derivs[n - 1], tower, f"square:{n}", component=n)

    # restriction variants
    rF = restriction_jet(F)
    r.eq("comonad.eps-restriction", rF.star, restriction_of(F.star), "eps-rs")
    r.eq("comonad.delta-restriction", delta(rF), restriction_jet(dF), "delta-rs")


# --- linearity suite ------------------------------------------------------------------

def sampled_additive_maps(count: int, cfg: RunConfig) -> list[SmoothMap]:
    """Seeded random integer matrices as additive maps (dimensions 1-2)."""
    rng = random.Random(derive_seed(cfg.seed, "linear:matrices"))
    out = []
    for _ in range(count):
        dim = rng.choice([1, 2])
        rows = []
        for i in range(dim):
            terms = " + ".join(
                f"{rng.randint(-3, 3)}*x{j + 1}" for j in range(dim))
            rows.append(terms)
        params = ",".join(f"x{j + 1}" for j in range(dim))
        out.append(parse_smooth_map(f"fn({params}) -> ({', '.join(rows)})"))
    return out


NONLINEAR_TEXTS = [
    "fn(x) -> (x^2)",
    "fn(x) -> (sin(x))",
    "fn(x) -> (exp(x))",
    "fn(x) -> (x^3 - x)",
    "fn(x) -> (cos(x))",
    "fn(x,y) -> (x*y, x)",
    "fn(x,y) -> (x^2 + y^2, y)",
    "fn(x) -> (x^4)",
    "fn(x,y) -> (x*y^2, y)",
    "fn(x) -> (x^2 + x)",
]


def linear_items(cfg: RunConfig) -> list:
    """Twenty items: ten embedded additive maps, which must test linear and
    match their embedding componentwise, then the texts of ten nonlinear maps,
    whose towers must not."""
    if cfg.order < 1:
        raise JetError("the linear suite needs --order 1 or more")
    return sampled_additive_maps(10, cfg) + NONLINEAR_TEXTS


def linear_rows(r: Rows, item, L: LAssignment):
    """An additive map's embedding is linear, with f_1 = pi_0 f_* and zero
    higher components; the tower of a nonlinear map's text is not linear."""
    cfg = r.cfg
    if isinstance(item, str):
        F = cofree_jet(parse_smooth_map(item), L, cfg.order)
        r.holds("linear.tower-of-nonlinear-is-not",
                not is_linear(F, cfg, r.label("is-linear")), item)
        return
    mon = componentwise_monoid(item.dom.dim)
    mon_out = componentwise_monoid(item.cod.dim)
    lam = lambda_embed(item, mon, mon_out, cfg.order, SMOOTH, cfg.with_(samples=50))
    r.holds("linear.lambda-image-is-linear", is_linear(lam, cfg, r.label("is-linear")))
    # componentwise shape: f_1 = pi_0 f_*, higher components vanish
    r.eq("linear.first-component", lam.derivs[0],
         then(SMOOTH.select([mon.carrier, mon.carrier], [0]), item), "f1")
    for n in range(2, lam.order + 1):
        target = lam.derivs[n - 1]
        zero = restrict_map(zero_map(target.dom, target.cod), target.guard)
        r.eq("linear.higher-components-vanish", target, zero, f"f{n}", component=n)
