import ast
import gc
import inspect
import json
import math
import pickle
import random
import weakref
from contextlib import contextmanager, nullcontext
from functools import partial, reduce

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faadibruno import cli, corpus, jetlaws
from faadibruno.cli import SUITES, main as cli_main
from faadibruno.config import RunConfig
from faadibruno import expr as E
from faadibruno import jets as J
from faadibruno import smooth as S
from faadibruno.jets import (
    FaaObject,
    JetError,
    NonAdditiveMapError,
    compose_jets,
    delta,
    derivative_jet,
    enumerate_partitions,
    epsilon,
    identity_jet,
    is_linear,
    jet_equal,
    lambda_embed,
    lambda_object,
    restriction_jet,
    select_jet,
    trivial_monoid,
    truncate_jet,
    tuple_jets,
)
from faadibruno.corpus import (
    COMONAD_TEXT,
    DEFAULT_PAIRS_TEXT,
    GUARDED_PAIRS_TEXT,
    corpus_maps,
    corpus_pairs,
    jet_from_dict,
    parse_corpus,
)
from faadibruno.jetlaws import cofree_jet
from faadibruno.smooth import (
    CLASSICAL,
    D,
    SMOOTH,
    STRUCTURE_CACHE_SIZE,
    MonoidStructure,
    SmoothMapError,
    SpaceObject,
    apply_map,
    componentwise_monoid,
    maps_equal,
    zero_map,
    parse_smooth_map,
    restriction_of,
    then,
    tuple_map,
)

from jet_payloads import jet_to_dict
from test_compare_row_status import compare

CFG = RunConfig(samples=60)


def pm(text):
    return parse_smooth_map(text)


def jet(text, order=3, L=CLASSICAL):
    return cofree_jet(pm(text), L, order)


# --- partitions -----------------------------------------------------------------

def brute_force_partition_count(n: int) -> int:
    """Independent oracle: count restricted growth strings of length n."""
    def grow(prefix):
        if len(prefix) == n:
            return 1
        cap = max(prefix, default=-1) + 1
        return sum(grow(prefix + [v]) for v in range(cap + 1))
    return grow([])


@pytest.mark.parametrize("n,bell", [(1, 1), (2, 2), (3, 5), (4, 15), (5, 52)])
def test_partition_counts_are_bell_numbers(n, bell):
    parts = enumerate_partitions(n)
    assert len(parts) == bell
    assert brute_force_partition_count(n) == bell


@given(st.integers(1, 6))
def test_partitions_are_canonical(n):
    parts = enumerate_partitions(n)
    seen = set()
    for p in parts:
        everything = [i for block in p for i in block]
        assert sorted(everything) == list(range(1, n + 1))
        for block in p:
            assert list(block) == sorted(block)
        assert [b[0] for b in p] == sorted(b[0] for b in p)
        assert p not in seen
        seen.add(p)


def test_partition_singleton():
    assert enumerate_partitions(1) == (((1,),),)


# --- the cofree tower --------------------------------------------------------------

def test_cofree_tower_of_cube():
    F = jet("fn(x) -> (x^3)", 3)
    assert apply_map(F.derivs[0], (1.0, 2.0)) == (12.0,)       # 3 x^2 v
    assert apply_map(F.derivs[1], (1.0, 1.0, 2.0)) == (12.0,)  # 6 x v1 v2
    assert apply_map(F.derivs[2], (1.0, 1.0, 1.0, 2.0)) == (6.0,)


def test_cofree_of_addition_is_lambda_of_addition():
    mon = componentwise_monoid(1)
    F = cofree_jet(mon.add, CLASSICAL, 3)
    lam = lambda_embed(mon.add, componentwise_monoid(2), mon, 3, SMOOTH, CFG)
    assert jet_equal(F, lam, CFG, "cofree-add").ok


def test_guard_side_condition():
    F = jet("fn(x) -> (1/x)", 3)
    from faadibruno.expr import guard_vars
    for n, comp in enumerate(F.derivs, start=1):
        vars_used = guard_vars(comp.guard)
        assert vars_used <= {f"x{n + 1}"}  # only the point variable


# --- composition ----------------------------------------------------------------------

def test_compose_order_one_is_chain_rule():
    f, g = jet("fn(x) -> (x^2)", 1), jet("fn(y) -> (sin(y))", 1)
    h = compose_jets(f, g)
    # single partition: g_1(f_1(v; x); f(x)) = cos(x^2) * 2xv
    rng = random.Random(0)
    for _ in range(25):
        v, x = rng.uniform(-2, 2), rng.uniform(-2, 2)
        (got,) = apply_map(h.derivs[0], (v, x))
        want = math.cos(x * x) * 2 * x * v
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_compose_second_component_against_symbolic_oracle():
    # second derivative of sin(x^2) contracted with v1, v2:
    # -sin(x^2)(2x v1)(2x v2) + cos(x^2) 2 v1 v2
    f, g = jet("fn(x) -> (x^2)", 3), jet("fn(y) -> (sin(y))", 3)
    h = compose_jets(f, g)
    rng = random.Random(1)
    for _ in range(25):
        v1, v2, x = (rng.uniform(-2, 2) for _ in range(3))
        (got,) = apply_map(h.derivs[1], (v1, v2, x))
        want = -math.sin(x * x) * (2 * x * v1) * (2 * x * v2) + math.cos(x * x) * 2 * v1 * v2
        assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)


def test_identity_jet_is_unit():
    F = jet("fn(x,y) -> (x*y, x + y)", 3)
    left = compose_jets(identity_jet(F.src, 3, SMOOTH), F)
    right = compose_jets(F, identity_jet(F.dst, 3, SMOOTH))
    assert jet_equal(left, F, CFG, "unit-l").ok
    assert jet_equal(right, F, CFG, "unit-r").ok


def test_functoriality_of_the_tower():
    for ftext, gtext in [
        ("fn(x) -> (x^2)", "fn(y) -> (sin(y))"),
        ("fn(x) -> (exp(x))", "fn(y) -> (y^3 - y)"),
        ("fn(x,y) -> (x*y)", "fn(z) -> (1/z)"),
    ]:
        f, g = pm(ftext), pm(gtext)
        lhs = compose_jets(cofree_jet(f, CLASSICAL, 4), cofree_jet(g, CLASSICAL, 4))
        rhs = cofree_jet(then(f, g), CLASSICAL, 4)
        assert jet_equal(lhs, rhs, CFG, f"functor:{ftext}").ok


def test_compose_against_bell_polynomial_oracle():
    # independent combinatorial oracle for the full n-th derivative of g(f(x)):
    # (g o f)^(n) = sum_k g^(k)(f(x)) B(n,k)(f', f'', ...) with the incomplete
    # Bell polynomials built from their binomial recurrence, not from the
    # partition enumeration the implementation uses
    def bell(n, z):
        B = {(0, 0): 1.0}
        for jn in range(1, n + 1):
            for jk in range(1, jn + 1):
                B[(jn, jk)] = sum(
                    math.comb(jn - 1, m - 1) * z[m - 1] * B.get((jn - m, jk - 1), 0.0)
                    for m in range(1, jn - jk + 2))
        return B

    f = pm("fn(x) -> (x^3 - 2*x)")
    g = pm("fn(y) -> (exp(y))")
    F, G = cofree_jet(f, CLASSICAL, 4), cofree_jet(g, CLASSICAL, 4)
    FG = compose_jets(F, G)
    rng = random.Random(5)
    for _ in range(20):
        x = rng.uniform(-1.5, 1.5)
        (fx,) = apply_map(f, (x,))
        f_derivs = [apply_map(F.derivs[n - 1], (1.0,) * n + (x,))[0] for n in range(1, 5)]
        g_derivs = [apply_map(G.derivs[n - 1], (1.0,) * n + (fx,))[0] for n in range(1, 5)]
        B = bell(4, f_derivs)
        for n in range(1, 5):
            want = sum(g_derivs[k - 1] * B.get((n, k), 0.0) for k in range(1, n + 1))
            (got,) = apply_map(FG.derivs[n - 1], (1.0,) * n + (x,))
            assert math.isclose(got, want, rel_tol=1e-10, abs_tol=1e-10)


def test_functoriality_at_order_five():
    f = pm("fn(x,y) -> (x*y, x + y^2)")
    g = pm("fn(u,v) -> (exp(u)*v)")
    lhs = compose_jets(cofree_jet(f, CLASSICAL, 5), cofree_jet(g, CLASSICAL, 5))
    rhs = cofree_jet(then(f, g), CLASSICAL, 5)
    assert jet_equal(lhs, rhs, RunConfig(samples=60), "order5").ok


def test_compose_associative():
    a = jet("fn(x) -> (x^2 + 1)", 3)
    b = jet("fn(y) -> (log(y))", 3)
    c = jet("fn(z) -> (z^3)", 3)
    lhs = compose_jets(compose_jets(a, b), c)
    rhs = compose_jets(a, compose_jets(b, c))
    assert jet_equal(lhs, rhs, CFG, "assoc").ok


def test_compose_requires_matching_objects():
    with pytest.raises(JetError):
        compose_jets(jet("fn(x) -> (x, x)", 2), jet("fn(x) -> (x)", 2))


def test_compose_truncates_to_common_order():
    f = jet("fn(x) -> (x^2)", 4)
    g = jet("fn(y) -> (y^3)", 2)
    assert compose_jets(f, g).order == 2


# --- products and restriction ------------------------------------------------------------

def test_pair_of_projections_is_identity_jet():
    o1 = jet("fn(x) -> (x)", 3).src
    o2 = jet("fn(x,y) -> (x, y)", 3).src
    from faadibruno.jets import product_objects
    prod = product_objects(SMOOTH, [o1, o2])
    paired = tuple_jets([select_jet([o1, o2], [i], 3, SMOOTH) for i in (0, 1)])
    assert jet_equal(paired, identity_jet(prod, 3, SMOOTH), CFG, "pair-proj").ok


def test_restriction_of_total_jet_is_identity():
    F = jet("fn(x) -> (x^2)", 3)
    assert jet_equal(restriction_jet(F), identity_jet(F.src, 3, SMOOTH), CFG, "rs-total").ok


def test_restriction_composite_lemma():
    # (rs f) h agrees with h restricted by f's domain, componentwise
    f = jet("fn(x) -> (1/x)", 3)
    h = jet("fn(x) -> (x^2)", 3)
    lhs = compose_jets(restriction_jet(f), h)
    from faadibruno.smooth import restrict_map
    from faadibruno.expr import guard_subst, var, var_name

    for n in range(1, 4):
        comp = lhs.derivs[n - 1]
        shift = {var_name(0): var(var_name(n))}
        expected = restrict_map(h.derivs[n - 1], guard_subst(f.star.guard, shift))
        assert maps_equal(comp, expected, CFG, f"res-lemma:{n}").ok
    assert maps_equal(lhs.star, restrict_map(h.star, f.star.guard), CFG, "res-lemma:*").ok


def test_r4_for_jets():
    f = jet("fn(x) -> (x + 1)", 3)
    g = jet("fn(y) -> (log(y))", 3)
    lhs = compose_jets(f, restriction_jet(g))
    rhs = compose_jets(restriction_jet(compose_jets(f, g)), f)
    assert jet_equal(lhs, rhs, CFG, "jet-r4").ok


# --- the additive embedding ------------------------------------------------------------------

def test_lambda_of_identity_is_identity_jet():
    mon = componentwise_monoid(2)
    from faadibruno.smooth import identity as sid
    lam = lambda_embed(sid(mon.carrier), mon, mon, 3, SMOOTH, CFG)
    assert jet_equal(lam, identity_jet(lambda_object(mon), 3, SMOOTH), CFG, "lambda-id").ok


def test_lambda_is_functorial():
    m1 = componentwise_monoid(2)
    m2 = componentwise_monoid(1)
    h1 = pm("fn(x,y) -> (x + y, x - y)")
    h2 = pm("fn(u,v) -> (2*u + 3*v)")
    lhs = lambda_embed(then(h1, h2), m1, m2, 3, SMOOTH, CFG)
    rhs = compose_jets(lambda_embed(h1, m1, m1, 3, SMOOTH, CFG),
                       lambda_embed(h2, m1, m2, 3, SMOOTH, CFG))
    assert jet_equal(lhs, rhs, CFG, "lambda-functor").ok


def test_lambda_rejects_non_additive():
    mon = componentwise_monoid(1)
    with pytest.raises(NonAdditiveMapError):
        lambda_embed(pm("fn(x) -> (x^2)"), mon, mon, 3, SMOOTH, CFG)
    with pytest.raises(NonAdditiveMapError):
        lambda_embed(pm("fn(x) -> (x + 1)"), mon, mon, 3, SMOOTH, CFG)


# --- counit -------------------------------------------------------------------------------------

def test_epsilon_extracts_star_and_preserves_structure():
    f = jet("fn(x) -> (x^2)", 3)
    g = jet("fn(y) -> (sin(y))", 3)
    assert epsilon(identity_jet(f.src, 3, SMOOTH)) == restriction_of(pm("fn(x) -> (x)"))
    assert maps_equal(epsilon(compose_jets(f, g)),
                      then(epsilon(f), epsilon(g)), CFG, "eps-compose").ok
    r = jet("fn(x) -> (1/x)", 3)
    assert maps_equal(epsilon(restriction_jet(r)),
                      restriction_of(epsilon(r)), CFG, "eps-restrict").ok


def test_epsilon_preserves_products():
    from faadibruno.smooth import select, tuple_map

    f = jet("fn(x) -> (x^2)", 3)
    h = jet("fn(x) -> (sin(x))", 3)
    assert maps_equal(epsilon(tuple_jets([f, h])),
                      tuple_map([epsilon(f), epsilon(h)]), CFG, "eps-pair").ok
    pi = select_jet([f.dst, h.dst], [0], 3, SMOOTH)
    assert maps_equal(epsilon(pi), select([1, 1], [0]), CFG, "eps-proj").ok


# --- the derivative on jets ----------------------------------------------------------------------

def test_derivative_first_component_matches_anchored_formula():
    F = jet("fn(x) -> (x^3)", 3)
    DF = derivative_jet(F)
    assert DF.order == 2
    rng = random.Random(3)
    for _ in range(40):
        a, b, c, x = (rng.uniform(-2, 2) for _ in range(4))
        (got,) = apply_map(DF.derivs[0], (a, b, c, x))
        f1 = lambda v, p: apply_map(F.derivs[0], (v, p))[0]
        f2 = lambda v1, v2, p: apply_map(F.derivs[1], (v1, v2, p))[0]
        want = f2(b, c, x) + f1(a, x)
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_derivative_of_tower_is_tower_of_derivative():
    for text in ["fn(x) -> (sin(x))", "fn(x) -> (x^4)", "fn(x,y) -> (x*y^2)"]:
        f = pm(text)
        lhs = derivative_jet(cofree_jet(f, CLASSICAL, 4))
        rhs = cofree_jet(D(f), CLASSICAL, 3)
        assert jet_equal(lhs, rhs, CFG, f"dtower:{text}").ok


def test_derivative_of_lambda_image_is_projected():
    mon = componentwise_monoid(1)
    lam = lambda_embed(pm("fn(x) -> (3*x)"), mon, mon, 3, SMOOTH, CFG)
    lhs = derivative_jet(lam)
    pi0 = select_jet([lambda_object(mon), lam.src], [0], 2, SMOOTH)
    rhs = compose_jets(pi0, truncate_jet(lam, 2))
    assert jet_equal(lhs, rhs, CFG, "dlambda").ok


def test_derivative_exhausts_order():
    F = jet("fn(x) -> (x^2)", 1)
    DF = derivative_jet(F)
    assert DF.order == 0
    with pytest.raises(JetError):
        derivative_jet(DF)


# --- comultiplication ------------------------------------------------------------------------------

def test_delta_star_is_the_jet_itself():
    F = jet("fn(x) -> (x^3)", 3)
    d = delta(F)
    assert d.star is F


def test_delta_first_component_is_derivative():
    F = jet("fn(x) -> (x^3)", 4)
    d = delta(F)
    assert jet_equal(d.derivs[0], derivative_jet(F), CFG, "delta-1").ok


def test_delta_builds_no_derivative_chain(monkeypatch):
    # D_1 f, .., D_N f are read off f's own components: no D f, D^2 f, ..
    calls = []
    build = J.derivative_jet

    def counting(f):
        calls.append(f.order)
        return build(f)

    monkeypatch.setattr(J, "derivative_jet", counting)
    order = 4
    d = delta(jet("fn(x) -> (1/x)", order))
    assert calls == []
    assert [c.order for c in d.derivs] == [3, 2, 1, 0]


def _two_term_derivative(f):
    """D f by the two-term formula, written out as the reference:
    component n is sum_i f_n(a_i, b_1,..,^b_i,..,b_n; x) + f_{n+1}(c, b_1,..,b_n; x)
    over the block layout (a_1, b_1), .., (a_n, b_n), (c, x)."""
    cat = f.base
    car = f.src.monoid.carrier
    derivs = []
    for n in range(1, f.order):
        blocks = [car, car] * n + [car, f.src.point]
        picks = [[2 * i] + [2 * j + 1 for j in range(n) if j != i] + [2 * n + 1]
                 for i in range(n)] + [[2 * n] + [2 * j + 1 for j in range(n)] + [2 * n + 1]]
        comps = [f.derivs[n - 1]] * n + [f.derivs[n]]
        derivs.append(cat.add([cat.then(cat.select(blocks, p, cat.order_of(c)), c)
                               for p, c in zip(picks, comps)]))
    src = J.product_objects(cat, [lambda_object(f.src.monoid), f.src])
    return J.JetMorphism(cat, src, lambda_object(f.dst.monoid), f.derivs[0], tuple(derivs))


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_derivative_jet_is_the_first_closed_form_node_for_node(order, level):
    maps = corpus_maps(parse_corpus(COMONAD_TEXT)) + [
        f for pair in corpus_pairs(parse_corpus(GUARDED_PAIRS_TEXT)) for f in pair]
    for f in maps:
        F = cofree_jet(f, CLASSICAL, order)
        if level == 2:
            F = truncate_jet(delta(F), 2)
        got, first = derivative_jet(F), J.d_n_jet(F, 1)
        assert got.star is first.star is F.derivs[0]
        assert got.src == first.src and got.dst == first.dst
        assert len(got.derivs) == len(first.derivs) == F.order - 1
        # the same component objects, node for node: the sums of a jet base
        # are new jets, compared by their fields, and those of the smooth
        # base hold the same coordinate nodes
        assert got.derivs == first.derivs == _two_term_derivative(F).derivs
        assert delta(F).derivs[0] == got


# Jets that are not towers: each component multilinear and symmetric in its
# directions, but none the derivative of the one before.
HAND_WRITTEN_JETS = [
    {"src": {"carrier_dim": 1, "point_dim": 1}, "dst": {"carrier_dim": 1, "point_dim": 1},
     "order": 5, "star": "fn(x) -> (sin(x))",
     "derivs": ["fn(v,x) -> (v*exp(x))", "fn(a,b,x) -> (a*b*x^2)",
                "fn(a,b,c,x) -> (a*b*c*cos(x))", "fn(a,b,c,d,x) -> (a*b*c*d*(x + 1))",
                "fn(a,b,c,d,e,x) -> (a*b*c*d*e*x^3)"]},
    {"src": {"carrier_dim": 2, "point_dim": 2}, "dst": {"carrier_dim": 2, "point_dim": 2},
     "order": 4, "star": "fn(x,y) -> (x*y, sin(y))",
     "derivs": ["fn(v,w,x,y) -> (v*exp(y) + w*x, 2*w*cos(x))",
                "fn(a,b,c,d,x,y) -> (a*c*y + b*d*x, a*d + b*c)",
                "fn(a,b,c,d,e,g,x,y) -> (a*c*e*x, b*d*g*y^2)",
                "fn(a,b,c,d,e,g,h,i,x,y) -> (a*c*e*h, b*d*g*i*exp(x))"]},
]


def _closed_form_jets(source, order):
    if source == "hand-written":
        return [truncate_jet(jet_from_dict(data), order) for data in HAND_WRITTEN_JETS]
    L = {"classical": CLASSICAL, "trivial": S.TRIVIAL}[source]
    return [cofree_jet(f, L, order) for f in corpus_maps(parse_corpus(COMONAD_TEXT))]


@pytest.mark.parametrize("source", ["classical", "trivial", "hand-written"])
@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
def test_closed_form_equals_the_zero_insertion_into_the_n_fold_derivative(order, level,
                                                                          source):
    for F in _closed_form_jets(source, order):
        if level == 2:
            F = truncate_jet(delta(F), 2)
        dnf = F
        for n in range(1, F.order + 1):
            dnf = derivative_jet(dnf)
            got = J.d_n_jet(F, n)
            assert got.order == F.order - n and got.star is F.derivs[n - 1]
            assert jet_equal(got, J.faa_d_n(F, dnf, n), CFG, f"closed:{n}").ok
            assert delta(F).derivs[n - 1] == got


def test_closed_form_wants_n_from_one_to_the_jet_order():
    F = jet("fn(x) -> (x^3)", 2)
    assert J.d_n_jet(F, 2).order == 0
    for n in (0, 3):
        with pytest.raises(JetError):
            J.d_n_jet(F, n)


def test_delta_is_built_once_per_jet():
    F = jet("fn(x) -> (x^3)", 3)
    assert delta(F) is delta(F)
    # equal source and target objects share one set of monoid jets
    assert F.src == F.dst
    assert delta(F).src.monoid is delta(F).dst.monoid


def test_delta_memo_lives_exactly_as_long_as_its_jet():
    F = jet("fn(x) -> (log(x))", 3)
    dF = delta(F)
    assert F._delta is dF and dF.star is F
    ref = weakref.ref(F)
    gc.disable()
    try:
        del F, dF
        # the memo closes a cycle, so reference counting alone keeps F
        assert ref() is not None
        gc.collect()
        assert ref() is None
    finally:
        gc.enable()


@pytest.mark.parametrize("order", [3, 4, 5, 6])
def test_faa_delta_jet_builds_each_comultiplication_to_its_usable_order(order):
    """With dT = delta(F) truncated to depth m, component k of
    faa_delta_jet(dT) is delta(D_k F) to order m - k, with delta's objects:
    d_n_jet runs on D_k F for n <= m - k alone, and nothing is kept on
    D_k F.  The star is delta(F) itself."""
    closed_form = J.d_n_jet
    for f in corpus_maps(parse_corpus(COMONAD_TEXT)):
        dF = delta(cofree_jet(f, CLASSICAL, order))
        for m in range(1, order + 1):
            dT = truncate_jet(dF, m)
            kept = [d._delta for d in dT.derivs]
            calls = []

            def counting(g, n):
                if any(g is d for d in dT.derivs):
                    calls.append(n)
                return closed_form(g, n)

            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(J, "d_n_jet", counting)
                got = J.faa_delta_jet(dT)
            assert len(calls) == sum(m - k for k in range(1, m + 1))
            assert all(d._delta is memo for d, memo in zip(dT.derivs, kept))
            assert got.star is dF
            assert got.derivs == tuple(truncate_jet(delta(d), m - k)
                                       for k, d in enumerate(dF.derivs[:m], start=1))


def test_equal_factors_share_one_composite_while_it_lives():
    F, G = jet("fn(x) -> (log(x))", 3), jet("fn(y) -> (y^2 + y)", 3)
    F2, G2 = jet("fn(x) -> (log(x))", 3), jet("fn(y) -> (y^2 + y)", 3)
    assert (F2, G2) == (F, G) and F2 is not F and G2 is not G
    H = compose_jets(F, G)
    assert compose_jets(F2, G2) is H
    assert compose_jets(G, G) is not H


def test_equal_maps_and_jets_built_apart_hash_equal():
    text = "fn(x, y) -> (x*sin(y), x/y) where y > 0"
    f, g = pm(text), pm(text)
    F, G = cofree_jet(f, CLASSICAL, 3), cofree_jet(g, CLASSICAL, 3)
    dF, dG = delta(F), delta(G)  # jets of jets
    for a, b in ((f, g), (F, G), (dF, dG)):
        assert a is not b and a == b and hash(a) == hash(b) == hash(a)
    assert hash(f) == hash((f.dom, f.cod, f.coords, f.guard))
    assert hash(dF) == hash((dF.base, dF.src, dF.dst, dF.star, dF.derivs))


def test_the_composite_table_keeps_neither_factor_alive():
    gc.collect()
    size = len(J._COMPOSITES)
    F, G = jet("fn(x) -> (log(x))", 3), jet("fn(y) -> (y^2 + y)", 3)
    H = compose_jets(F, G)
    assert len(J._COMPOSITES) == size + 1
    factors = [weakref.ref(F), weakref.ref(G)]
    del F, G
    gc.collect()
    assert all(r() is None for r in factors)
    composite = weakref.ref(H)
    del H
    gc.collect()
    assert composite() is None and len(J._COMPOSITES) == size


@pytest.mark.parametrize("level", [0, 1])
def test_restricted_then_is_the_restriction_of_the_composite(level):
    order = 4
    objs = [_obj(1, 1), _obj(1, 1)]
    # the longer selection is truncated to the composite's order
    sel = select_jet(objs, [1], order + 1, SMOOTH)
    G = jet("fn(x) -> (log(x) + 1/(x - 1))", order)
    if level == 0:
        cat, f, g, literal = SMOOTH, sel.star, G.star, restriction_of(then(sel.star, G.star))
    else:
        cat, f, g, literal = J.faa_over(SMOOTH), sel, G, restriction_jet(compose_jets(sel, G))
    got = cat.restricted_then(f, g)
    assert got == literal
    assert got != cat.then(f, g)


@pytest.mark.parametrize("level", [0, 1])
def test_the_restriction_is_restricted_then_after_the_identity(level):
    # r(f) = r(1 f): the protocol's one restriction operation gives both
    order = 3
    F = jet("fn(x, y) -> (log(x) + 1/(y - 1), sqrt(x*y))", order)
    if level == 0:
        cat, f, obj, literal = SMOOTH, F.star, F.star.dom, restriction_of(F.star)
    else:
        cat, f, obj, literal = J.faa_over(SMOOTH), F, F.src, restriction_jet(F)
    ident = cat.select([obj], [0], order)
    assert cat.restricted_then(ident, f) == literal
    assert literal != ident


def test_smooth_restricted_then_substitutes_no_coordinate_of_g(monkeypatch):
    f = pm("fn(x, y) -> (x*y + 2, exp(y)) where y - 1 > 0")
    g = pm("fn(u, v) -> (log(u)*v^3, sqrt(v) + u) where u - 3 != 0")
    literal = restriction_of(then(f, g))

    def refuse(*args):
        raise AssertionError("a coordinate was substituted")

    monkeypatch.setattr(S, "subst", refuse)
    got = SMOOTH.restricted_then(f, g)
    assert got == literal and len(got.guard.atoms) > 1


def test_restricted_then_rejects_what_compose_rejects():
    fb = J.faa_over(SMOOTH)
    sel = select_jet([_obj(1, 2), _obj(1, 1)], [0], 3, SMOOTH)
    with pytest.raises(JetError):
        fb.restricted_then(sel, jet("fn(x) -> (log(x))", 3))


def test_compose_rejects_objects_whose_monoids_differ_in_more_than_shape():
    # b + a is a commutative monoid on R^1, but not the componentwise one
    swapped = MonoidStructure(SpaceObject(1), pm("fn(a,b) -> (b + a)"),
                              zero_map(SpaceObject(0), SpaceObject(1)))
    assert swapped != componentwise_monoid(1)
    F, G = jet("fn(x) -> (log(x))"), jet("fn(y) -> (y^2)")
    f = J.JetMorphism(SMOOTH, F.src, FaaObject(swapped, SpaceObject(1)), F.star, F.derivs)
    assert str(f.dst) == str(G.src)
    with pytest.raises(JetError, match="their monoids differ"):
        compose_jets(f, G)
    with pytest.raises(JetError, match="their monoids differ"):
        J.faa_over(SMOOTH).restricted_then(f, G)


# --- linearity --------------------------------------------------------------------------------------

def test_lambda_image_of_matrix_is_linear():
    m2 = componentwise_monoid(2)
    h = pm("fn(x,y) -> (x + 2*y, 3*x - y)")
    lam = lambda_embed(h, m2, m2, 3, SMOOTH, CFG)
    assert is_linear(lam, CFG)


def test_square_tower_is_not_linear():
    F = jet("fn(x) -> (x^2)", 3)
    assert not is_linear(F, CFG)


def test_scaling_tower_is_linear_and_equals_its_embedding():
    F = jet("fn(x) -> (3*x)", 3)
    assert is_linear(F, CFG)
    mon = componentwise_monoid(1)
    lam = lambda_embed(pm("fn(x) -> (3*x)"), mon, mon, 3, SMOOTH, CFG)
    assert jet_equal(F, lam, CFG, "3x-lambda").ok


def test_is_linear_rejects_non_linear_objects():
    F = jet("fn(x) -> (x^2)", 3, L=CLASSICAL)
    bad_src = FaaObject(componentwise_monoid(2), SpaceObject(1))
    G = JetMorphismWithSrc = None
    from faadibruno.jets import JetMorphism
    G = JetMorphism(SMOOTH, bad_src, F.dst, F.star, F.derivs)
    with pytest.raises(JetError):
        is_linear(G, CFG)


# --- serialization ------------------------------------------------------------------------------------

def test_jet_serialization_roundtrip():
    F = jet("fn(x) -> (1/x)", 3)
    data = jet_to_dict(F)
    G = jet_from_dict(data)
    assert jet_equal(F, G, CFG, "serialize").ok


@pytest.mark.parametrize("mangle", [
    lambda d: [d],
    lambda d: {k: v for k, v in d.items() if k != "src"},
    lambda d: {**d, "src": {"carrier_dim": -1, "point_dim": 1}},
    lambda d: {**d, "dst": {"carrier_dim": 1, "point_dim": 1.5}},
    lambda d: {**d, "dst": {"carrier_dim": True, "point_dim": 1}},
    lambda d: {**d, "star": 3},
    lambda d: {**d, "derivs": "fn(x) -> (x)"},
    lambda d: {**d, "derivs": [1, 2]},
    lambda d: {**d, "order": 5},
    lambda d: {k: v for k, v in d.items() if k != "order"},
    lambda d: {**d, "order": True, "derivs": d["derivs"][:1]},
    lambda d: {**d, "order": 1.0, "derivs": d["derivs"][:1]},
])
def test_jet_from_dict_rejects_malformed_payloads(mangle):
    data = jet_to_dict(jet("fn(x) -> (x^2)", 2))
    with pytest.raises(JetError):
        jet_from_dict(mangle(data))


def test_jet_from_dict_rejects_bad_dims():
    F = jet("fn(x) -> (x^2)", 2)
    data = jet_to_dict(F)
    data["derivs"][1] = "fn(x) -> (x)"
    with pytest.raises(JetError):
        jet_from_dict(data)


@pytest.mark.parametrize("carrier, star, derivs, message", [
    (10**6, "fn(x) -> (x)", ["fn(a, x) -> (a)"], "component 1 has wrong dimensions"),
    (1, "fn(x) -> (x)", ["fn(a, x) -> (a, a)"], "component 1 has wrong dimensions"),
    (1, "fn(x, y) -> (x)", ["fn(a, x) -> (a)"], "star dimensions disagree"),
    (50_000, "fn(x) -> (x)", [], "carrier_dim must not exceed its point_dim"),
])
def test_jet_from_dict_checks_the_maps_before_it_builds_a_monoid(carrier, star, derivs,
                                                                  message, monkeypatch):
    built = []

    def counting(dim):
        built.append(dim)
        assert dim < 10, f"componentwise_monoid({dim}) was built"
        return componentwise_monoid(dim)

    monkeypatch.setattr(corpus, "componentwise_monoid", counting)
    payload = {"src": {"carrier_dim": carrier, "point_dim": 1},
               "dst": {"carrier_dim": 1, "point_dim": 1},
               "order": len(derivs), "star": star, "derivs": derivs}
    with pytest.raises(JetError, match=message):
        jet_from_dict(payload)
    assert built == []
    jet_from_dict({**payload, "src": {"carrier_dim": 1, "point_dim": 1}, "order": 1,
                   "star": "fn(x) -> (x)", "derivs": ["fn(a, x) -> (a)"]})
    assert built == [1, 1]


def test_maps_and_jets_loaded_from_a_pickle_hash_as_fresh_equal_ones():
    """A jet's cached hash is not carried over: a pickle taken in another
    process holds that process's hash, which is planted here.  A map is its
    fields, so it round-trips equal and hash-equal."""
    text = "fn(x, y) -> (x*sin(y), x/y) where y > 0"
    f = pm(text)
    loaded = pickle.loads(pickle.dumps(f))
    assert loaded == pm(text) and hash(loaded) == hash(pm(text))
    F = cofree_jet(f, CLASSICAL, 2)
    for planted, fresh in ((F, jet(text, 2)), (delta(F), delta(jet(text, 2)))):
        hash(planted)
        object.__setattr__(planted, "_hash", hash(planted) + 1)
        loaded = pickle.loads(pickle.dumps(planted))
        assert loaded == fresh and hash(loaded) == hash(fresh)
        assert len({loaded, fresh}) == 1


# the names of the smooth base that the construction must not know
SMOOTH_ONLY = {"SMOOTH", "SmoothMap", "SpaceObject", "LAssignment", "derivative_tower",
               "parse_smooth_map", "componentwise_monoid", "is_componentwise_monoid",
               "map_leq", "maps_compatible"}


def test_the_jet_construction_names_no_base():
    assert not SMOOTH_ONLY & set(vars(J))
    imported = {alias.name for node in ast.walk(ast.parse(inspect.getsource(J)))
                if isinstance(node, ast.ImportFrom) and node.module == "smooth"
                for alias in node.names}
    assert imported == {"EqOutcome", "MonoidStructure", "STRUCTURE_CACHE_SIZE",
                        "dn_blocks", "insertion_slots"}


# --- structural caches ------------------------------------------------------------------------------

def _obj(carrier, point):
    return FaaObject(componentwise_monoid(carrier), SpaceObject(point))


def test_select_jet_returns_one_object_per_layout():
    objs = [_obj(1, 1), _obj(2, 2)]
    assert select_jet(objs, [1, 0], 3, SMOOTH) is select_jet(tuple(objs), (1, 0), 3, SMOOTH)
    F = J.faa_over(SMOOTH)
    level2 = [lambda_object(componentwise_monoid(1)), _obj(1, 1)]
    assert F.select(level2, [1], 2) is F.select(tuple(level2), (1,), 2)


def test_componentwise_product_is_componentwise():
    assert J.product_objects(SMOOTH, [_obj(1, 0), _obj(2, 0)]).monoid \
        == componentwise_monoid(3)
    assert _faa_product_fold(SMOOTH, [_obj(1, 0), _obj(2, 0)]).monoid \
        == componentwise_monoid(3)


def test_category_adapters_define_one_protocol():
    protocol = {"product", "then", "tuple_map", "select", "restricted_then", "add",
                "vanishing_terms", "order_of", "equal"}
    for adapter in (S.SmoothCategory, J.FaaCategory):
        assert {name for name, v in vars(adapter).items()
                if callable(v) and not name.startswith("_")} == protocol


def _bang(cat, obj, order):
    """obj -> terminal in the category, built field by field: over a jet base,
    the base's bang in every component."""
    if cat is SMOOTH:
        return S.SmoothMap(obj, SpaceObject(0), ())
    base = cat.base
    derivs = tuple(_bang(base, base.product(J._vector_blocks(obj, n)), order)
                   for n in range(1, order + 1))
    return J.JetMorphism(base, obj, cat.product([]), _bang(base, obj.point, order), derivs)


def test_the_empty_select_is_the_bang_at_its_order_over_jets_of_jets():
    F = J.faa_over(SMOOTH)
    G = J.faa_over(F)
    o2 = J.delta_object(_obj(1, 1), SMOOTH, 2)
    got = G.select([o2], [], 2)
    assert [d.order for d in got.derivs] == [2, 2]
    assert got == _bang(G, o2, 2)
    # a zero into the terminal monoid is that bang, so it keeps the order
    assert J.zero_jet(o2, trivial_monoid(F), 2, F).star.order == 2


def test_a_sum_in_the_terminal_monoid_of_jets_keeps_its_terms_order_and_restriction():
    F = J.faa_over(SMOOTH)
    G = J.faa_over(F)
    unit = G.product([])  # its monoid is built at order 0
    a = G.select([unit], [], 2).star
    assert a.order == 2 and F.add([a, a]).order == 2
    # partial terms: the sum is the bang after both terms' restrictions
    b1, b2 = (compose_jets(cofree_jet(pm(text), CLASSICAL, 2),
                           F.select([_obj(1, 1)], [], 2))
              for text in ("fn(x) -> (log(x))", "fn(x) -> (1/(x - 1))"))
    got = F.add([b1, b2])
    want = compose_jets(compose_jets(restriction_jet(b1), restriction_jet(b2)),
                        F.select([_obj(1, 1)], [], 2))
    assert got.order == 2
    assert jet_equal(got, want, CFG, "terminal-sum").ok


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_the_sum_of_jets_is_the_monoid_addition_after_the_pair(order):
    """add([f, g]) is <f, g> then the addition of the target monoid: the vector
    monoid jet_L, the interchange product of two of them, and the terminal
    monoid.  trivial_monoid builds its addition at order 0, since an object
    carries no order; at the jets' order that addition is the bang."""
    fb = J.faa_over(SMOOTH)
    o = _obj(1, 1)
    vectors = J.jet_L(o, SMOOTH, order)
    pair = J._product_monoid(fb, (vectors, vectors))
    unit = trivial_monoid(fb).carrier

    def cofree(*coords):
        return cofree_jet(pm(f"fn(x) -> ({', '.join(coords)})"), CLASSICAL, order)

    def to_unit(text):
        return compose_jets(cofree(text), fb.select([o], [], order))

    cases = [(vectors.add, cofree("log(x)"), cofree("1/(x - 1)")),
             (pair.add, cofree("log(x)", "sin(x)"), cofree("1/(x - 1)", "sqrt(x)")),
             (fb.select([unit, unit], [], order), to_unit("log(x)"), to_unit("sqrt(x)"))]
    for add, f, g in cases:
        assert f.dst == g.dst == add.dst
        got = fb.add([f, g])
        assert got.order == order
        assert got == compose_jets(tuple_jets([f, g]), add)


def test_the_sum_of_jets_wants_parallel_jets():
    fb = J.faa_over(SMOOTH)
    with pytest.raises(JetError):
        fb.add([jet("fn(x) -> (x)"), jet("fn(x) -> (x, x)")])


# guarded maps R^1 -> R^1 whose guards overlap and list their atoms in
# different orders, with the jet orders they are summed at
SUM_TEXTS = [("fn(x) -> (log(x) + 1/x)", 3), ("fn(x) -> (1/(x - 1) * log(x))", 2),
             ("fn(x) -> (sqrt(x) * sin(x)) where x > 0", 4), ("fn(x) -> (1/x + log(x))", 1),
             ("fn(x) -> (exp(x) / (x - 1))", 5)]


def _two_term_sum(cat, f, g):
    """The sum of two parallel maps built field by field, to the shorter
    order: coordinate sums and the conjoined guard over the smooth base."""
    if cat is SMOOTH:
        coords = tuple(E.add(a, b) for a, b in zip(f.coords, g.coords, strict=True))
        return S.SmoothMap(f.dom, f.cod, coords, E.guard_and(f.guard, g.guard))
    base = cat.base
    return J.JetMorphism(base, f.src, f.dst, _two_term_sum(base, f.star, g.star),
                         tuple(map(partial(_two_term_sum, base), f.derivs, g.derivs)))


def _sum_terms(level, k):
    """k parallel terms of the category at level: guarded maps, their jets at
    different orders, and the comultiplications of their order-2 jets."""
    cat = SMOOTH
    for _ in range(level):
        cat = J.faa_over(cat)
    texts = SUM_TEXTS[:k]
    if level == 0:
        return cat, [pm(text) for text, _ in texts]
    if level == 1:
        return cat, [jet(text, order) for text, order in texts]
    return cat, [delta(jet(text, 2)) for text, _ in texts]


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_a_sum_is_the_left_fold_of_two_term_sums(level, k):
    """add on all the terms builds the nodes and guards of the two-term sums
    folded left, to the shortest order, and a one-term sum is its term."""
    cat, terms = _sum_terms(level, k)
    got = cat.add(terms)
    if k == 1:
        assert got is terms[0]
    want = reduce(partial(_two_term_sum, cat), terms)
    assert got == want
    if level == 0:
        assert not got.guard.is_true()
        assert all(a is b for a, b in zip(got.coords, want.coords, strict=True))
    else:
        assert got.order == min(t.order for t in terms)
        _same_nodes(got, want)


@pytest.mark.parametrize("level", [0, 1, 2])
def test_a_sum_wants_parallel_terms_wherever_they_stand(level):
    cat, terms = _sum_terms(level, 2)
    error = JetError if level else SmoothMapError
    for text in ("fn(x) -> (x, x)", "fn(x, y) -> (x)"):  # another codomain, another domain
        odd = (pm(text), jet(text, 2), delta(jet(text, 2)))[level]
        for at in range(3):
            with pytest.raises(error):
                cat.add(terms[:at] + [odd] + terms[at:])


@pytest.mark.parametrize("factors", range(4))
def test_trivial_monoid_over_the_smooth_base_is_componentwise(factors):
    # so a product of terminal factors is the terminal monoid
    m = trivial_monoid(SMOOTH)
    assert m == componentwise_monoid(0)
    product = J.product_objects(SMOOTH, [FaaObject(m, SpaceObject(1))] * factors)
    assert product.monoid == m


def test_jet_structure_caches_stay_bounded():
    bound = STRUCTURE_CACHE_SIZE
    side = 33
    assert side * side > bound
    for a in range(side):
        for b in range(side):
            select_jet([_obj(0, a), _obj(0, b)], [0], 1, SMOOTH)
    assert J._select_jet.cache_info().currsize <= bound
    zero = zero_map(SpaceObject(0), SpaceObject(1))
    for k in range(bound + 20):
        m = MonoidStructure(SpaceObject(1), pm(f"fn(a,b) -> (a + b + {k})"), zero)
        J._product_monoid(SMOOTH, (m, m))
    assert J._product_monoid.cache_info().currsize <= bound
    for point in range(bound + 20):
        J.jet_L(_obj(1, point), SMOOTH, 1)
    assert J.jet_L.cache_info().currsize <= bound
    monoid = componentwise_monoid(1)
    for order in range(bound + 20):
        J.monoid_zero_arrow(SMOOTH, SpaceObject(1), monoid, order)
    assert J.monoid_zero_arrow.cache_info().currsize <= bound


def test_cofree_jet_rejects_a_negative_order():
    with pytest.raises(ValueError):
        cofree_jet(parse_smooth_map("fn(x) -> (x^2)"), CLASSICAL, -1)


def test_cofree_jet_differentiates_each_component_once_per_order(monkeypatch):
    # order N over R^d -> R^cod: N * d * cod partials, each step reusing the last
    calls = []
    diff = S.diff

    def counting(e, v):
        calls.append(v)
        return diff(e, v)

    monkeypatch.setattr(S, "diff", counting)
    F = cofree_jet(pm("fn(x,y) -> (sin(x*y), exp(x)/y)"), CLASSICAL, 6)
    assert F.order == 6 and len(calls) == 6 * 2 * 2


# --- the product of monoids against the pairwise fold ----------------------------------------

def _interchange_product(cat, m1, m2):
    """The reference product of two monoids: paired carriers, addition
    through the middle-interchange at the order of m1's addition."""
    c1, c2 = m1.carrier, m2.carrier
    order = cat.order_of(m1.add)
    blocks = [c1, c2, c1, c2]
    add = cat.tuple_map([
        cat.then(cat.select(blocks, [0, 2], order), m1.add),
        cat.then(cat.select(blocks, [1, 3], order), m2.add),
    ])
    return MonoidStructure(cat.product([c1, c2]), add, cat.tuple_map([m1.zero, m2.zero]))


def _faa_product_fold(cat, objs):
    """The product of jet objects folded left, two at a time."""
    out = objs[0]
    for o in objs[1:]:
        out = FaaObject(_interchange_product(cat, out.monoid, o.monoid),
                        cat.product([out.point, o.point]))
    return out


@pytest.mark.parametrize("dims", [
    [(1, 1), (0, 2)],
    [(0, 0), (2, 1), (3, 0)],
    [(2, 2), (1, 1), (0, 0), (4, 3), (1, 2)],
    [(2, 1)],
    [(0, 1)],
    [(1, 2), (0, 0), (2, 2), (1, 0)],
])
def test_componentwise_product_objects_equal_the_faa_product_fold(dims):
    objs = [_obj(c, p) for c, p in dims]
    product = J.product_objects(SMOOTH, objs)
    assert product == _faa_product_fold(SMOOTH, objs)
    assert product.monoid == componentwise_monoid(sum(c for c, _ in dims))


# b + a is a commutative monoid on R^1, but not the componentwise one
SWAPPED = MonoidStructure(SpaceObject(1), pm("fn(a,b) -> (b + a)"),
                          zero_map(SpaceObject(0), SpaceObject(1)))


def test_product_objects_folds_when_a_monoid_is_not_componentwise():
    objs = [_obj(2, 1), FaaObject(SWAPPED, SpaceObject(1)), _obj(1, 0)]
    product = J.product_objects(SMOOTH, objs)
    assert product == _faa_product_fold(SMOOTH, objs)
    assert product.monoid != componentwise_monoid(4)
    F = J.faa_over(SMOOTH)
    level2 = [J.delta_object(_obj(1, 1), SMOOTH, 2),
              FaaObject(trivial_monoid(F), _obj(0, 1))]
    assert J.product_objects(F, level2) == _faa_product_fold(F, level2)


@pytest.mark.parametrize("factors", [1, 2, 3, 4, 5])
def test_products_with_a_swapped_monoid_equal_the_faa_product_fold(factors):
    objs = [FaaObject(SWAPPED, SpaceObject(1)), _obj(2, 1), _obj(0, 0),
            FaaObject(SWAPPED, SpaceObject(0)), _obj(1, 2)][:factors]
    assert J.product_objects(SMOOTH, objs) == _faa_product_fold(SMOOTH, objs)
    assert J.product_objects(SMOOTH, objs[::-1]) == _faa_product_fold(SMOOTH, objs[::-1])


@pytest.mark.parametrize("order", [1, 2, 3])
def test_products_over_jets_equal_the_faa_product_fold(order):
    """delta_objects at one order, the terminal object of jets (its monoid
    at order 0), and one over the swapped monoid, 1 to 4 at a time."""
    F = J.faa_over(SMOOTH)
    objs = [J.delta_object(_obj(1, 1), SMOOTH, order),
            J.delta_object(_obj(2, 0), SMOOTH, order),
            FaaObject(trivial_monoid(F), _obj(0, 1)),
            J.delta_object(FaaObject(SWAPPED, SpaceObject(1)), SMOOTH, order)]
    for k in range(1, len(objs) + 1):
        assert J.product_objects(F, objs[:k]) == _faa_product_fold(F, objs[:k])


# --- shortcuts in the partition sum ----------------------------------------------------------


def _guarded_terms():
    """Maps R^1 -> R^1 whose guards overlap and list their atoms in
    different orders."""
    corpus = [m for m in corpus_maps(parse_corpus(GUARDED_PAIRS_TEXT))
              if m.dom.dim == 1 and m.cod.dim == 1]
    extra = [pm("fn(x) -> (log(x) + 1/x)"), pm("fn(x) -> (1/x + log(x))"),
             pm("fn(x) -> (1/(x - 1) * log(x))")]
    return corpus + extra


@pytest.mark.parametrize("width", [1, 2])
def test_componentwise_mon_sum_equals_the_substituted_fold(width):
    terms = _guarded_terms()
    if width == 2:
        terms = [tuple_map([a, b]) for a, b in zip(terms, reversed(terms))]
    assert any(not t.guard.is_true() for t in terms)
    monoid = componentwise_monoid(width)
    want = terms[0]
    for t in terms[1:]:
        want = then(tuple_map([want, t]), monoid.add)
    assert SMOOTH.add(terms) == want


class CountingSmooth:
    """The smooth category, counting the then and select calls made through it."""

    def __init__(self):
        self.thens = 0
        self.selects = []

    def __getattr__(self, name):
        return getattr(SMOOTH, name)

    def then(self, f, g):
        self.thens += 1
        return SMOOTH.then(f, g)

    def select(self, blocks, picks, order=None):
        self.selects.append((len(blocks), tuple(picks)))
        return SMOOTH.select(blocks, picks, order)


def test_compose_jets_builds_each_block_argument_once_per_order(partition_sums):
    """1/x then y^2 + y: g_k is the zero map for k >= 3, so only the
    partitions into at most two blocks survive, 2^(n-1) of them at order n.
    They still use every block, and each block argument is built once."""
    order = 7
    cat = CountingSmooth()
    F, G = (J.JetMorphism(cat, j.src, j.dst, j.star, j.derivs)
            for j in (jet("fn(x) -> (1/x)", order), jet("fn(y) -> (y^2 + y)", order)))
    got = compose_jets(F, G)
    kept = [2 ** (n - 1) for n in range(1, order + 1)]
    assert sum(kept) == 127
    assert [terms for _, terms in partition_sums] == [kept]
    for n in range(1, order + 1):
        at_n = [picks for width, picks in cat.selects if width == n + 1]
        blocks = [picks for picks in at_n if len(picks) > 1]
        assert at_n.count((n,)) == 1  # the point argument
        assert len(blocks) == len(set(blocks)) == 2 ** n - 1
    # the star, then per order the point, each block and each surviving
    # term; the sums over the componentwise monoid substitute nothing
    assert cat.thens == 1 + sum(1 + (2 ** n - 1) + kept[n - 1]
                                for n in range(1, order + 1))
    _same_components(got, J._partition_sum(F, G, None))


# --- the terms the base proves zero ----------------------------------------------------------

def _comonad_jets(order, level):
    """The jets delta is taken of: at level 1 the cofree jet of each map of
    the comonad corpus, at level 2 its delta truncated to order 2."""
    out = []
    for f in corpus_maps(parse_corpus(COMONAD_TEXT)):
        F = cofree_jet(f, CLASSICAL, order)
        out.append(F if level == 1 else truncate_jet(delta(F), 2))
    return out


# the structural caches whose values may be built by compose_jets
_COMPOSING_CACHES = (J._select_jet, J._product_monoid, J.monoid_zero_arrow, J.jet_L)


@contextmanager
def literal_routes(delta=False, full_delta=False):
    """Inside, every composite is the literal partition sum: the smooth base
    proves no term zero, and the composite table and the structural caches
    start empty, so they hold nothing built outside, and are emptied again
    on the way out.  With delta, d_n_jet(f, n) for n >= 2 is the literal
    zero-insertion faa_d_n(f, D^n f, n), with D^n f built by n calls of the
    closed form at n = 1.  Both routes share that n = 1 step, so the switch
    cannot see a fault there.  With full_delta, faa_delta_jet takes delta of
    every component in full, not only to its usable order."""
    closed_form = J.d_n_jet
    to_order = J._comultiplication

    def in_full(f, order):
        # delta(f) calls back at f's own order
        return J.delta(f) if order < f.order else to_order(f, order)

    def zero_insertion(f, n):
        if n < 2:
            return closed_form(f, n)
        dnf = f
        for _ in range(n):
            dnf = closed_form(dnf, 1)
        return J.faa_d_n(f, dnf, n)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(S.SmoothCategory, "vanishing_terms", lambda *_: None)
        m.setattr(J, "_COMPOSITES", weakref.WeakValueDictionary())
        if delta:
            m.setattr(J, "d_n_jet", zero_insertion)
        if full_delta:
            m.setattr(J, "_comultiplication", in_full)
        for cache in _COMPOSING_CACHES:
            cache.cache_clear()
        try:
            yield
        finally:
            for cache in _COMPOSING_CACHES:
                cache.cache_clear()


def _built_by_both_routes(partition_sums, build, *args):
    """build(*args) by the proven route and by the literal one, and the
    term counts of the partition sums each route built."""
    partition_sums.clear()
    proven = build(*args)
    proven_sums = list(partition_sums)
    partition_sums.clear()
    with literal_routes():
        literal = build(*args)
    assert all(vanishes is None for vanishes, _ in partition_sums)
    return proven, literal, proven_sums, list(partition_sums)


def _one_term_per_order(sums):
    """Each sum the base proved anything about kept one term per order (the
    singletons', or one ZERO term when that vanishes too); the rest kept every
    partition."""
    return all(terms == ([1] * len(terms) if vanishes is not None
                         else [len(enumerate_partitions(n)) for n in range(1, len(terms) + 1)])
               for vanishes, terms in sums)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_restriction_jet_over_jets_equals_the_literal_partition_sums(order, level,
                                                                      partition_sums):
    for F in _comonad_jets(order, level):
        proven, literal, proven_sums, _ = _built_by_both_routes(
            partition_sums, restriction_jet, delta(F))
        assert proven == literal
        assert _one_term_per_order(proven_sums)


@pytest.mark.parametrize("level", [1, 2])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_zero_insertion_equals_the_literal_partition_sum(order, level, partition_sums):
    for F in _comonad_jets(order, level):
        dnf = F
        for n in range(1, F.order + 1):
            dnf = derivative_jet(dnf)
            proven, literal, proven_sums, _ = _built_by_both_routes(
                partition_sums, J.faa_d_n, F, dnf, n)
            assert proven == literal
            assert jet_equal(proven, delta(F).derivs[n - 1], CFG, f"insertion:{n}").ok
            assert _one_term_per_order(proven_sums)


@pytest.mark.parametrize("level", [0, 1])
def test_monoid_zero_arrow_is_built_once_per_arguments(level):
    o = _obj(1, 1)
    if level == 0:
        cat, dom, monoid, order = SMOOTH, SpaceObject(2), o.monoid, None
    else:
        # the vector monoid of a jet object, as _restriction_jet reads it
        cat, monoid, order = J.faa_over(SMOOTH), J.jet_L(o, SMOOTH, 3), 3
        dom = cat.product([o, o])
    got = J.monoid_zero_arrow(cat, dom, monoid, order)
    assert J.monoid_zero_arrow(cat, dom, monoid, order) is got
    assert got == cat.then(cat.select([dom], [], order), monoid.zero)


# --- pruned sums against the literal sum ----------------------------------------------------

PAIRS = [pair for text in (DEFAULT_PAIRS_TEXT, GUARDED_PAIRS_TEXT)
         for pair in corpus_pairs(parse_corpus(text))]


@pytest.fixture
def partition_sums(monkeypatch):
    """(vanishes, terms) for each partition sum, in the order the sums start:
    the base's answer, and the number of terms summed at each order, counted
    at the categories' add, where not called by another add (a sum of jets
    adds in its base too).  The composite table is one of its own, so no
    earlier composite is reused."""
    sums, open_sums, adding = [], [], []
    literal = J._partition_sum

    def recording(f, g, vanishes):
        sums.append((vanishes, []))
        open_sums.append(sums[-1][1])
        try:
            return literal(f, g, vanishes)
        finally:
            open_sums.pop()

    for adapter in (S.SmoothCategory, J.FaaCategory):
        def counting(cat, terms, add=adapter.add):
            if open_sums and not adding:
                open_sums[-1].append(len(terms))
            adding.append(cat)
            try:
                return add(cat, terms)
            finally:
                adding.pop()

        monkeypatch.setattr(adapter, "add", counting)
    monkeypatch.setattr(J, "_COMPOSITES", weakref.WeakValueDictionary())
    monkeypatch.setattr(J, "_partition_sum", recording)
    return sums


def _same_components(got, want):
    """The same coordinate nodes and equal guards, star and components."""
    assert len(got.derivs) == len(want.derivs)
    for a, b in zip((got.star, *got.derivs), (want.star, *want.derivs)):
        assert len(a.coords) == len(b.coords)
        assert all(x is y for x, y in zip(a.coords, b.coords))
        assert a.guard == b.guard


def _linear_first_factors(f, g, order):
    """(first, second) factors: restriction, select and identity jets, each
    then a tower, a composite of towers or another restriction jet."""
    F, G = cofree_jet(f, CLASSICAL, order), cofree_jet(g, CLASSICAL, order)
    H = compose_jets(F, G)
    rF, rG, rH = restriction_jet(F), restriction_jet(G), restriction_jet(H)
    return [(rF, F), (rF, H), (rG, G), (rH, F), (rH, H), (rF, rH), (rH, rF),
            (identity_jet(F.src, order, SMOOTH), F),
            (identity_jet(G.src, order, SMOOTH), G),
            (select_jet([F.src, G.src], [0], order, SMOOTH), H),
            (select_jet([F.src, F.dst], [1], order, SMOOTH), G)]


@pytest.mark.parametrize("order", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("pair", range(len(PAIRS)))
def test_a_linear_first_factor_composes_by_the_singletons_alone(pair, order,
                                                                 partition_sums):
    """Over the smooth base, composing with a restriction, select or identity
    jet keeps one term per order, the singletons' (or one ZERO term when
    that vanishes too), and gives the nodes and guards of the literal sum
    over every partition."""
    for f, g in _linear_first_factors(*PAIRS[pair], order):
        # equal factors recur (a total map's restriction is the identity)
        J._COMPOSITES.clear()
        partition_sums.clear()
        got = compose_jets(f, g)
        assert [terms for _, terms in partition_sums] == [[1] * order]
        _same_components(got, J._partition_sum(f, g, None))


def _one_dim_jet(star, derivs):
    one = {"carrier_dim": 1, "point_dim": 1}
    return jet_from_dict({"src": one, "dst": one, "order": len(derivs),
                          "star": star, "derivs": derivs})


def _singletons_only(order):
    """An answer that drops every term but the singletons': f's components
    past the first are zero, and each g_k vanishes with any direction block."""
    return [False] + [True] * (order - 1), [(1 << k) - 1 for k in range(1, order + 1)]


@pytest.mark.parametrize("f, g, kept", [
    # g_2 does not vanish when a direction block is zero
    pytest.param("select", ("fn(x) -> (x)", ["fn(a, x) -> (a)", "fn(a, b, x) -> (a*b + 1)",
                                             "fn(a, b, c, x) -> (0)"]), [1, 1, 3],
                 id="g-adds-a-constant"),
    pytest.param("select", ("fn(x) -> (x)", ["fn(a, x) -> (a)", "fn(a, b, x) -> (a*cos(b))",
                                             "fn(a, b, c, x) -> (0)"]), [1, 1, 1],
                 id="g-has-cos-of-a-direction"),
    # g_2 has a b^2 term: the partition {1,2},{3} adds g_2(0, v_3; x) = v_3^2
    pytest.param("select", ("fn(x) -> (x)", ["fn(a, x) -> (a)", "fn(a, b, x) -> (a*b + b^2)",
                                             "fn(a, b, c, x) -> (0)"]), [1, 1, 2],
                 id="g-is-not-multilinear"),
    # g_1's guard x != 0 is not its star's (true) on the point block
    pytest.param("select", ("fn(x) -> (x)", ["fn(a, x) -> (a/x)", "fn(a, b, x) -> (a*b)",
                                             "fn(a, b, c, x) -> (0)"]), [1, 2, 5],
                 id="g-guard-not-the-star's"),
    # f's tail is not zero
    pytest.param("tower", ("fn(x) -> (x)", ["fn(a, x) -> (a)", "fn(a, b, x) -> (0)",
                                            "fn(a, b, c, x) -> (0)"]), [1, 1, 1],
                 id="f-is-a-tower"),
    # only g_3 is the zero map: the one 3-block partition goes
    pytest.param("tower", ("fn(x) -> (x)", ["fn(a, x) -> (a)", "fn(a, b, x) -> (a*b + 1)",
                                            "fn(a, b, c, x) -> (0)"]), [1, 2, 4],
                 id="g3-is-zero-under-a-tower"),
])
def test_the_literal_sum_runs_unless_the_other_terms_provably_vanish(f, g, kept,
                                                                     partition_sums):
    G = _one_dim_jet(*g)
    F = (select_jet([G.src], [0], 3, SMOOTH) if f == "select"
         else jet("fn(x) -> (sin(x) + x^2)", 3))
    got = compose_jets(F, G)
    assert [terms for _, terms in partition_sums] == [kept]
    _same_components(got, J._partition_sum(F, G, None))
    # the singleton terms alone would give another composite
    assert J._partition_sum(F, G, _singletons_only(3)) != got


def test_jets_over_jets_compose_by_the_literal_sum(partition_sums):
    dF = delta(jet("fn(x) -> (x^3)", 3))
    rdF = restriction_jet(dF)
    partition_sums.clear()
    got = compose_jets(rdF, dF)
    # the sum over jets starts first and keeps every partition; the sums of
    # its components follow
    assert partition_sums[0] == (None, [1, 2, 5])
    want = J._partition_sum(rdF, dF, None)
    for a, b in zip((got.star, *got.derivs), (want.star, *want.derivs)):
        _same_components(a, b)


def _delta_and_its_restriction(text):
    dF = delta(jet(text, 3))
    return dF, restriction_jet(dF)


def test_delta_and_its_restriction_compose_through_compose_jets(partition_sums):
    """The components of a restriction jet over jets are composites like any
    other: the proven route keeps one term per order of each sum over the
    smooth base, and gives the nodes of the literal sums."""
    proven, literal, proven_sums, literal_sums = _built_by_both_routes(
        partition_sums, _delta_and_its_restriction, "fn(x, y) -> (x*sin(y), x/y)")
    assert proven_sums and _one_term_per_order(proven_sums)
    assert sum(map(sum, (t for _, t in proven_sums))) < sum(map(sum, (t for _, t in literal_sums)))
    for got, want in zip(literal, proven):
        for a, b in zip((got.star, *got.derivs), (want.star, *want.derivs)):
            _same_components(a, b)


def _cli_outputs(capsys, tmp_path):
    """The exit code, stdout and JSON report of every suite at orders 3 to 5
    (50 samples, seed 42), then the stdout of composing 1/x with y^2 + y at
    order 7."""
    outputs = []
    for order in ("3", "4", "5"):
        for suite in SUITES:
            report = tmp_path / f"{suite}-{order}.json"
            code = cli_main(["axioms", "--suite", suite, "--order", order,
                             "--samples", "50", "--json", str(report)])
            outputs.append((code, capsys.readouterr().out, report.read_text()))
    cli_main(["compose", "fn(x) -> (1/x)", "fn(y) -> (y^2 + y)", "--order", "7"])
    outputs.append(capsys.readouterr().out)
    return outputs


def test_the_cli_writes_the_same_reports_by_the_literal_partition_sums(capsys, tmp_path):
    proven = _cli_outputs(capsys, tmp_path)
    with literal_routes(full_delta=True):
        assert _cli_outputs(capsys, tmp_path) == proven


def test_the_comonad_keeps_every_verdict_by_the_literal_comultiplication(capsys, tmp_path):
    """delta's closed form against the zero-insertion into D^n f, through the
    CLI at orders 3 to 5 (50 samples).  The reports differ in their
    residuals, so each row is matched by key and keeps its gating and
    status."""
    for order in ("3", "4", "5"):
        verdicts = []
        for switch in (nullcontext, partial(literal_routes, delta=True)):
            report = tmp_path / f"comonad-{order}.json"
            with switch():
                code = cli_main(["axioms", "--suite", "comonad", "--order", order,
                                 "--samples", "50", "--json", str(report)])
            verdicts.append((code, compare.keyed_rows(report)))
        capsys.readouterr()
        assert verdicts[1] == verdicts[0]
        assert len(verdicts[0][1]) == 25 + 5 * int(order)


def _jets_the_proof_reads_closely(path):
    """A --jets file of two towers of x^2.  The first holds on x > 0 and
    guards its components by 2*x > 0, 3*x > 0 and 4*x > 0, the star's guard
    in meaning but not in structure.  The second writes its second
    component 2ab as 2*(b*(a + b) - b^2), which vanishing_groups proves zero
    with b but not with a, and which is a node other than ZERO at a = 0."""
    one = {"carrier_dim": 1, "point_dim": 1}
    guarded = ["fn(a, x) -> (2*x*a) where 2*x > 0", "fn(a, b, x) -> (2*a*b) where 3*x > 0",
               "fn(a, b, c, x) -> (0) where 4*x > 0"]
    written = ["fn(a, x) -> (2*x*a)", "fn(a, b, x) -> (2*(b*(a + b) - b^2))",
               "fn(a, b, c, x) -> (0)"]
    path.write_text(json.dumps([
        {"src": one, "dst": one, "order": 3, "star": star, "derivs": derivs}
        for star, derivs in (("fn(x) -> (x^2) where x > 0", guarded),
                             ("fn(x) -> (x^2)", written))]))
    return str(path)


def _same_nodes(got, want):
    """_same_components, through jets of jets."""
    if want.base is SMOOTH:
        _same_components(got, want)
        return
    assert len(got.derivs) == len(want.derivs)
    for a, b in zip((got.star, *got.derivs), (want.star, *want.derivs)):
        _same_nodes(a, b)


def test_every_composite_of_the_suites_has_the_nodes_of_the_literal_partition_sums(
        capsys, tmp_path, monkeypatch):
    """Each compose_jets call of the six suites at order 3 (faa-r also on
    the jets of _jets_the_proof_reads_closely) returns the nodes that the
    literal partition sums build for its factors."""
    calls = {}
    compose = J.compose_jets

    def recording(f, g):
        out = compose(f, g)
        calls[id(f), id(g), id(out)] = (f, g, out)  # each call's objects stay alive
        return out

    for module in (J, jetlaws, cli):
        monkeypatch.setattr(module, "compose_jets", recording)
    jets_file = _jets_the_proof_reads_closely(tmp_path / "jets.json")
    for suite in SUITES:
        extra = ["--jets", jets_file] if suite == "faa-r" else []
        assert cli_main(["axioms", "--suite", suite, "--order", "3", "--samples", "50",
                         *extra]) == 0
    capsys.readouterr()
    monkeypatch.undo()
    assert len(calls) > 100
    with literal_routes():
        for f, g, out in calls.values():
            _same_nodes(compose_jets(f, g), out)
