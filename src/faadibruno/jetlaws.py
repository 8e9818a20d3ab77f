"""Law suites for the jet category: restriction structure, products, the
comonad equations, the cofree-coalgebra square, and the characterization of
linear maps as embedded additive maps."""

from __future__ import annotations

import random
from fractions import Fraction

from .config import RunConfig, derive_seed
from .expr import const, guard_subst, mul, shift_vars, simplify
from .jets import (
    JetMorphism,
    _combine,
    cofree_jet,
    compatible,
    compose_jets,
    delta,
    faa_delta_jet,
    faa_epsilon_jet,
    is_linear,
    is_total,
    jet_equal,
    lambda_embed,
    leq,
    pair_jets,
    projection_jet,
    restriction_jet,
    truncate_jet,
)
from .laws import _row, _bool_row
from .report import CheckResult
from .smooth import (
    CLASSICAL,
    EqOutcome,
    LAssignment,
    SMOOTH,
    SmoothMap,
    add_maps,
    componentwise_monoid,
    guard_within,
    map_total,
    maps_equal,
    parse_smooth_map,
    restrict_map,
    restriction_of,
    select,
    then,
    tuple_map,
    zero_map,
)


# --- well-formedness of a jet ---------------------------------------------------

# The scalar q of the linearity identity f_n(v_1 + q w, ...) = f_n(v_1, ...)
# + q f_n(w, ...); neither 0 nor 1 nor -1, so the identity gives homogeneity
# and additivity together.
LINEARITY_SCALAR = Fraction(-3, 2)

# The components checked by check_multilinearity, and the components of the
# comultiplication compared by the coassociativity row.
MULTILINEAR_ORDER = 4
COASSOCIATIVITY_DEPTH = 2


def check_multilinearity(f: JetMorphism, cfg: RunConfig, label: str) -> EqOutcome:
    """Each component f_n(v_1, ..., v_n; x), n <= MULTILINEAR_ORDER, is linear in
    v_1 and invariant under the swap (v_1 v_2) and the cycle (v_1 ... v_n).
    The swap and the cycle generate every permutation, so symmetry carries
    linearity to every block.  A component's identities are paired into one
    equality of maps over the layout v_1 .. v_n, w, x."""
    a = f.src.monoid.carrier.dim
    d = f.src.point.dim
    q = const(LINEARITY_SCALAR)

    def scaled(m: SmoothMap) -> SmoothMap:
        return SmoothMap(m.dom, m.cod, tuple(simplify(mul(q, e)) for e in m.coords),
                         m.guard)

    outcomes = []
    for n in range(1, min(f.order, MULTILINEAR_ORDER) + 1):
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
        outcomes.append(maps_equal(got, expected, cfg, f"{label}:side:{n}"))
    return outcomes


def validate_jet(f: JetMorphism, cfg: RunConfig, suite: str, idx: int) -> list[CheckResult]:
    """Well-formedness rows used for deserialized (possibly hand-written)
    jets: multilinearity, the guard side-condition, and R.1."""
    rows = [
        _row(suite, idx, "jet.multilinear",
                 check_multilinearity(f, cfg, f"{suite}:{idx}:well"), cfg),
    ]
    for n, out in enumerate(check_guard_side_condition(f, cfg, f"{suite}:{idx}"), start=1):
        rows.append(_row(suite, idx, "jet.side-condition", out, cfg, component=n))
    rows.append(_row(
        suite, idx, "jet.R.1",
        jet_equal(compose_jets(restriction_jet(f), f), f, cfg, f"{suite}:{idx}:r1"), cfg))
    return rows


# --- restriction suite (jets of the guarded corpus) ------------------------------

def check_jet_restriction_laws(f: JetMorphism, g: JetMorphism, cfg: RunConfig,
                               suite: str, idx: int) -> list[CheckResult]:
    """R.2-R.4, the restricted-composite lemma, the restriction products and
    the total/leq/compatible characterizations, on the composable jets f, g,
    then validate_jet(f), which holds R.1."""
    rows: list[CheckResult] = []
    h = compose_jets(f, g)
    rf = restriction_jet(f)
    rh = restriction_jet(h)
    rf_h = compose_jets(rf, h)
    rf_rh = compose_jets(rf, rh)
    rs_rf_h = restriction_jet(rf_h)

    def eq_row(axiom, a, b):
        rows.append(_row(suite, idx, axiom,
                         jet_equal(a, b, cfg, f"{suite}:{idx}:{axiom}"), cfg))

    eq_row("jet.R.2", rf_rh, compose_jets(rh, rf))
    eq_row("jet.R.3", rs_rf_h, rf_rh)
    eq_row("jet.R.4", compose_jets(f, restriction_jet(g)), compose_jets(rh, f))

    # (rs f) h componentwise: each component of the composite is h's component
    # restricted by f's domain over the point block
    a = f.src.monoid.carrier.dim
    for n in range(1, rf_h.order + 1):
        shift = shift_vars(f.src.point.dim, n * a)
        expected = restrict_map(h.derivs[n - 1], guard_subst(f.star.guard, shift))
        out = maps_equal(rf_h.derivs[n - 1], expected, cfg,
                         f"{suite}:{idx}:res-composite:{n}")
        rows.append(_row(suite, idx, "jet.res-composite", out, cfg, component=n))

    # restriction products
    paired = pair_jets(f, h)
    eq_row("jet.product-restriction", restriction_jet(paired), rf_rh)
    pi0 = projection_jet([f.dst, h.dst], 0, f.order)
    lax = compose_jets(paired, pi0)
    lax_ok = leq(lax, f, cfg, f"{suite}:{idx}:lax")
    rows.append(_bool_row(suite, idx, "jet.product-lax", lax_ok, cfg,
                          "" if lax_ok else "pairing then projection is not below f"))

    # total / leq / compatible agree with their componentwise characterizations
    jet_total = is_total(f, cfg, f"{suite}:{idx}:total-jet")
    star_total = map_total(f.star, cfg, f"{suite}:{idx}:total-star").ok
    rows.append(_bool_row(suite, idx, "jet.total-characterization",
                          jet_total == star_total, cfg,
                          f"jet {jet_total}, star {star_total}"))

    # (rs f) h <= h by definition and componentwise, and likewise compatible
    rs_rf_h_h = compose_jets(rs_rf_h, h)
    def_leq = jet_equal(rs_rf_h_h, rf_h, cfg, f"{suite}:{idx}:leq-def").ok
    comp_leq = leq(rf_h, h, cfg, f"{suite}:{idx}:leq-comp")
    rows.append(_bool_row(suite, idx, "jet.leq-characterization",
                          def_leq == comp_leq and def_leq,
                          cfg, f"definition {def_leq}, componentwise {comp_leq}"))

    def_cmp = jet_equal(rs_rf_h_h, compose_jets(rh, rf_h), cfg,
                        f"{suite}:{idx}:cmp-def").ok
    comp_cmp = compatible(rf_h, h, cfg, f"{suite}:{idx}:cmp-comp")
    rows.append(_bool_row(suite, idx, "jet.compatible-characterization",
                          def_cmp == comp_cmp and def_cmp,
                          cfg, f"definition {def_cmp}, componentwise {comp_cmp}"))

    rows += validate_jet(f, cfg, suite, idx)
    return rows


def run_faa_r_suite(pairs, cfg: RunConfig, L: LAssignment = CLASSICAL,
                    extra_jets=()) -> list[CheckResult]:
    suite = "faa-r"
    rows: list[CheckResult] = []
    for idx, (f, g) in enumerate(pairs):
        F = cofree_jet(f, L, cfg.order)
        G = cofree_jet(g, L, cfg.order)
        rows += check_jet_restriction_laws(F, G, cfg, suite, idx)
    for j, jet in enumerate(extra_jets):
        rows += validate_jet(jet, cfg, suite, len(list(pairs)) + j)
    return rows


# --- comonad suite -----------------------------------------------------------------

def check_comonad_laws(f: SmoothMap, cfg: RunConfig, L: LAssignment = CLASSICAL,
                       suite: str = "comonad", idx: int = 0) -> list[CheckResult]:
    """Counit laws (the right one exact by construction, the left one sampled
    at a tight tolerance), coassociativity on comparable components, the coalgebra square
    delta(Df)_n = tower(D_n f), and the restriction variants."""
    rows: list[CheckResult] = []
    F = cofree_jet(f, L, cfg.order)
    dF = delta(F)

    # right counit: the star of the comultiplication is the jet itself
    rows.append(_bool_row(suite, idx, "comonad.counit-eps", dF.star is F, cfg,
                          "delta then counit is the identity"))

    # left counit: extracting stars componentwise returns the jet
    tight = cfg.with_(tol_rel=1e-12, tol_abs=1e-12)
    out = jet_equal(faa_epsilon_jet(dF), F, tight, f"{suite}:{idx}:counit-faa")
    rows.append(_row(suite, idx, "comonad.counit-faa-eps", out, cfg))

    # coassociativity, compared on the first COASSOCIATIVITY_DEPTH components
    # (the truncation is degree-local, so both routes see the same prefix)
    dT = truncate_jet(dF, COASSOCIATIVITY_DEPTH)
    lhs = delta(dT)
    rhs = faa_delta_jet(dT)
    rows.append(_row(suite, idx, "comonad.coassociativity",
                         jet_equal(lhs, rhs, cfg, f"{suite}:{idx}:coassoc"), cfg))

    # the coalgebra square: components of delta on a tower are towers
    for n in range(1, min(2, cfg.order) + 1):
        tower = cofree_jet(F.derivs[n - 1], L, cfg.order - n)
        out = jet_equal(dF.derivs[n - 1], tower, cfg, f"{suite}:{idx}:square:{n}")
        rows.append(_row(suite, idx, "comonad.coalgebra-square", out, cfg,
                             component=n))

    # restriction variants
    rF = restriction_jet(F)
    rows.append(_row(
        suite, idx, "comonad.eps-restriction",
        maps_equal(rF.star, restriction_of(F.star), cfg, f"{suite}:{idx}:eps-rs"), cfg))
    rows.append(_row(
        suite, idx, "comonad.delta-restriction",
        jet_equal(delta(rF), restriction_jet(dF), cfg, f"{suite}:{idx}:delta-rs"), cfg))
    return rows


def run_comonad_suite(maps, cfg: RunConfig, L: LAssignment = CLASSICAL) -> list[CheckResult]:
    rows: list[CheckResult] = []
    for idx, f in enumerate(maps):
        rows += check_comonad_laws(f, cfg, L, "comonad", idx)
    return rows


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


def run_linear_suite(cfg: RunConfig) -> list[CheckResult]:
    """Twenty jets: embedded additive maps must test linear and match their
    embedding componentwise; towers of nonlinear maps must not."""
    suite = "linear"
    rows: list[CheckResult] = []
    idx = 0
    for h in sampled_additive_maps(10, cfg):
        mon = componentwise_monoid(h.dom.dim)
        mon_out = componentwise_monoid(h.cod.dim)
        lam = lambda_embed(h, mon, mon_out, cfg.order, cfg=cfg.with_(samples=50))
        ok = is_linear(lam, cfg, f"{suite}:{idx}:is-linear")
        rows.append(_bool_row(suite, idx, "linear.lambda-image-is-linear", ok, cfg))
        # componentwise shape: f_1 = pi_0 f_*, higher components vanish
        pi0_h = then(SMOOTH.select([mon.carrier, mon.carrier], [0]), h)
        rows.append(_row(
            suite, idx, "linear.first-component",
            maps_equal(lam.derivs[0], pi0_h, cfg, f"{suite}:{idx}:f1"), cfg))
        for n in range(2, lam.order + 1):
            target = lam.derivs[n - 1]
            zero = restrict_map(zero_map(target.dom, target.cod), target.guard)
            rows.append(_row(
                suite, idx, "linear.higher-components-vanish",
                maps_equal(target, zero, cfg, f"{suite}:{idx}:f{n}"), cfg,
                component=n))
        idx += 1
    for text in NONLINEAR_TEXTS:
        F = cofree_jet(parse_smooth_map(text), CLASSICAL, cfg.order)
        ok = is_linear(F, cfg, f"{suite}:{idx}:is-linear")
        rows.append(_bool_row(suite, idx, "linear.tower-of-nonlinear-is-not",
                              not ok, cfg, text))
        idx += 1
    return rows
