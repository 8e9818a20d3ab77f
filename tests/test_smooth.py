import gc
import importlib.util
import itertools
import math
import random
import weakref
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from faadibruno.config import RunConfig, derive_seed
from faadibruno.corpus import (
    DEFAULT_PAIRS_TEXT, GUARDED_PAIRS_TEXT, corpus_maps, corpus_pairs, parse_corpus,
)
from faadibruno.expr import (
    Guard, GuardAtom, OutOfDomainError, UnboundVariableError, guard_subst,
    parse_expression, shift_vars, var,
)
from faadibruno import expr as E
from faadibruno import smooth as S
from faadibruno.laws import object_sides
from faadibruno.smooth import (
    BATCH_SIZE,
    CLASSICAL,
    SMOOTH,
    STRUCTURE_CACHE_SIZE,
    PointStream,
    SmoothMap,
    SmoothMapError,
    SpaceObject,
    TRIVIAL,
    D,
    apply_map,
    componentwise_monoid,
    d_n,
    d_n_insertion,
    finite_diff,
    identity,
    iterate_D,
    map_leq,
    map_total,
    maps_compatible,
    maps_equal,
    parse_smooth_map,
    probe_points,
    restriction_of,
    sample_points,
    select,
    then,
    tuple_map,
)

CFG = RunConfig()
FAST = RunConfig(samples=60)


def pm(text):
    return parse_smooth_map(text)


# --- composition -----------------------------------------------------------------

def test_then_substitutes():
    f = pm("fn(x) -> (x^2)")
    g = pm("fn(y) -> (sin(y))")
    h = then(f, g)
    assert h.coords == (parse_expression("sin(x1^2)"),)


def test_then_identity_is_unit():
    f = pm("fn(x,y) -> (x*y, x - y)")
    assert maps_equal(then(f, identity(f.cod)), f, FAST, "unit-r").ok
    assert maps_equal(then(identity(f.dom), f), f, FAST, "unit-l").ok


def _substituted(f, g):
    """then(f, g) by substituting f's coordinates for g's variables."""
    mapping, guard = S._pull_back(f, g)
    return SmoothMap(f.dom, g.cod, tuple(E.subst(e, mapping) for e in g.coords), guard)


def test_then_after_an_identity_prefix_equals_the_substituted_composite():
    """then takes g as it is after an identity, a restriction idempotent or a
    first-block projection: the same map, nodes and guard atoms as the
    substitution gives, for guarded and unguarded g."""
    pairs = corpus_pairs(parse_corpus(GUARDED_PAIRS_TEXT + DEFAULT_PAIRS_TEXT))
    for f, g in pairs:
        n = g.dom.dim
        # guards built directly, as DR.6.partial-c builds one
        last = Guard((GuardAtom("!=0", var(S.var_name(n - 1))),))
        past = Guard((GuardAtom("!=0", var(S.var_name(n))),))
        half = E.make_guard([GuardAtom(">0", parse_expression("x1 - 0.5"))])
        for second in (g, S.restrict_map(g, last), S.restrict_map(g, half)):
            prefixes = [identity(g.dom), restriction_of(second),
                        S.restrict_map(identity(g.dom), half),
                        S.restrict_map(identity(g.dom), last), select([n, 2], [0]),
                        S.restrict_map(select([n, 1], [0]), past)]
            for prefix in prefixes:
                got, want = then(prefix, second), _substituted(prefix, second)
                assert got == want
                assert all(a is b for a, b in zip(got.coords, want.coords))
                assert got.guard.atoms == want.guard.atoms


def test_then_pulls_guard_back():
    f = pm("fn(x) -> (x - 1)")
    g = pm("fn(y) -> (1/y) where y != 0")
    h = then(f, g)
    assert h.guard == Guard((GuardAtom("!=0", parse_expression("x1 - 1")),))


def test_then_dimension_mismatch():
    with pytest.raises(S.SmoothMapError):
        then(pm("fn(x) -> (x, x)"), pm("fn(y) -> (y)"))


# --- construction checks and structural caches -------------------------------------

def test_map_rejects_coordinate_variable_out_of_range():
    with pytest.raises(SmoothMapError, match=r"\['x2'\] out of range"):
        SmoothMap(SpaceObject(1), SpaceObject(1), (var("x2"),))


def test_map_rejects_guard_variable_out_of_range():
    guard = Guard((GuardAtom("!=0", var("x3")),))
    with pytest.raises(SmoothMapError, match=r"\['x3'\] out of range"):
        SmoothMap(SpaceObject(2), SpaceObject(1), (var("x1"),), guard)


@pytest.mark.parametrize("name", ["y", "x", "x0", "x01", "x1a", "x\u0661"])
def test_map_rejects_non_canonical_variable(name):
    with pytest.raises(SmoothMapError):
        SmoothMap(SpaceObject(3), SpaceObject(1), (var(name),))


def test_map_accepts_variables_up_to_its_dimension():
    guard = Guard((GuardAtom(">0", var("x3")),))
    f = SmoothMap(SpaceObject(3), SpaceObject(2),
                  (parse_expression("x1*x2"), parse_expression("5")), guard)
    assert f.dom.dim == 3


def test_select_returns_one_object_per_layout():
    assert select([1, 2, 3], [2, 0]) is select((1, 2, 3), (2, 0))
    assert identity(SpaceObject(4)) is identity(SpaceObject(4))


def test_select_gives_the_interned_variables_in_block_order():
    f = select([2, 1, 3], [2, 0])
    assert (f.dom.dim, f.cod.dim) == (6, 5)
    assert all(got is var(name)
               for got, name in zip(f.coords, ["x4", "x5", "x6", "x1", "x2"], strict=True))
    assert select([2, 1, 3], [2, 0]) is f


def test_structural_caches_stay_bounded():
    for n in range(STRUCTURE_CACHE_SIZE + 20):
        select([1, n], [0])
    assert S._select.cache_info().currsize <= STRUCTURE_CACHE_SIZE
    for n in range(STRUCTURE_CACHE_SIZE + 20):
        identity(SpaceObject(n))  # the layout [n], held by select's cache
    assert S._select.cache_info().currsize <= STRUCTURE_CACHE_SIZE
    assert S._variables.cache_info().currsize <= STRUCTURE_CACHE_SIZE
    # the sides of the rows on a pair's objects, keyed by equal objects and L
    assert object_sides.cache_parameters()["maxsize"] == STRUCTURE_CACHE_SIZE
    sides = object_sides(SpaceObject(1), SpaceObject(2), CLASSICAL)
    again = object_sides(SpaceObject(1), SpaceObject(2), CLASSICAL)
    assert all(a is b for tag in sides for a, b in zip(sides[tag], again[tag]))


# --- products ----------------------------------------------------------------------

def test_pair_of_projections_is_identity():
    p0 = select([1, 2], [0])
    p1 = select([1, 2], [1])
    assert maps_equal(tuple_map([p0, p1]), identity(SpaceObject(3)), FAST, "pair-proj").ok


def test_pair_then_projection_lax():
    f = pm("fn(x) -> (x + 1)")
    g = pm("fn(x) -> (log(x)) where x > 0")
    paired = tuple_map([f, g])
    lhs = then(paired, select([1, 1], [0]))
    assert map_leq(lhs, f, FAST, "lax-proj").ok


def test_pair_guard_conjunction():
    f = pm("fn(x) -> (1/x)")
    g = pm("fn(x) -> (log(x))")
    x1 = var("x1")
    assert set(tuple_map([f, g]).guard.atoms) == {
        GuardAtom("!=0", x1), GuardAtom(">0", x1)}


# --- restriction ---------------------------------------------------------------------

def test_restriction_of_total_map_is_identity():
    f = pm("fn(x,y) -> (x + y)")
    assert restriction_of(f) == identity(f.dom)


def test_restriction_of_reciprocal():
    f = pm("fn(x) -> (1/x)")
    r = restriction_of(f)
    assert r.coords == (var("x1"),)
    assert r.guard == f.guard


def test_r3_instance():
    f = pm("fn(x) -> (1/x)")
    g = pm("fn(x) -> (log(x))")
    lhs = restriction_of(then(restriction_of(f), g))
    rhs = then(restriction_of(f), restriction_of(g))
    assert maps_equal(lhs, rhs, FAST, "r3").ok


# --- the differential ------------------------------------------------------------------

def test_d_of_projection_is_projection_of_vector_block():
    p0 = select([1, 2], [0])
    lhs = D(p0)
    rhs = then(select([3, 3], [0]), select([1, 2], [0]))
    assert maps_equal(lhs, rhs, FAST, "cd3-instance").ok


def test_d_of_square():
    f = pm("fn(x) -> (x^2)")
    df = D(f)
    assert apply_map(df, (1.0, 3.0)) == (6.0,)
    assert df.coords == (parse_expression("2*(x2*x1)"),) or \
        apply_map(df, (0.5, 4.0)) == (4.0,)


def test_apply_map_raises_each_points_error():
    with pytest.raises(OutOfDomainError, match=r"^point \(0\.0,\) outside guard "):
        apply_map(pm("fn(x) -> (1/x)"), (0.0,))
    with pytest.raises(OutOfDomainError, match="^overflow in exp$"):
        apply_map(pm("fn(x) -> (exp(exp(x)))"), (10.0,))
    with pytest.raises(UnboundVariableError, match="^x2$"):
        apply_map(pm("fn(x, y) -> (x + y)"), (1.0,))
    assert apply_map(pm("fn(x) -> (x + 1)"), (1.0, 5.0)) == (2.0,)


def test_d_of_addition_is_projected_addition():
    mon = componentwise_monoid(2)
    lhs = D(mon.add)
    rhs = then(select([4, 4], [0]), mon.add)
    assert maps_equal(lhs, rhs, FAST, "cd1-instance").ok


def test_d_guard_depends_only_on_point_block():
    f = pm("fn(x) -> (1/x)")
    df = D(f)
    assert df.guard == Guard((GuardAtom("!=0", var("x2")),))


def test_d_trivial_assignment():
    f = pm("fn(x) -> (1/x)")
    assert D(f, TRIVIAL) == SmoothMap(f.dom, S.TERMINAL, (), f.guard)


def test_an_assignment_is_data_read_by_one_derivative_formula():
    # L(R^d) = R^1, the first coordinate: D contracts the first partial only
    # and keeps the first output
    first = S.LAssignment(lambda obj: SpaceObject(min(obj.dim, 1)))
    f = pm("fn(x, y) -> (x*y, y) where y > 0")
    assert D(f, first) == pm("fn(v, x, y) -> (v*y) where y > 0")
    assert S.derivative_tower(f, 2, first)[1] == pm("fn(v, w, x, y) -> (0) where y > 0")


# --- iterated and symmetric derivatives ---------------------------------------------------

def test_second_derivative_of_cube():
    # symbolic oracle: D^2(x^3) at ((a,b),(c,x)) = 3 x^2 a + 6 x b c
    f = pm("fn(x) -> (x^3)")
    d2 = iterate_D(f, 2)
    rng = random.Random(7)
    for _ in range(20):
        a, b, c, x = (rng.uniform(-2, 2) for _ in range(4))
        (got,) = apply_map(d2, (a, b, c, x))
        want = 3 * x * x * a + 6 * x * b * c
        assert math.isclose(got, want, rel_tol=1e-12, abs_tol=1e-12)


def test_second_derivative_of_linear_map_has_no_second_order_block():
    f = pm("fn(x) -> (3*x)")
    d2 = iterate_D(f, 2)
    rng = random.Random(8)
    for _ in range(20):
        a, b, c, x = (rng.uniform(-2, 2) for _ in range(4))
        (got,) = apply_map(d2, (a, b, c, x))
        assert math.isclose(got, 3 * a, rel_tol=1e-12, abs_tol=1e-12)


def test_cd6_instance_at_sampled_points():
    f = pm("fn(x) -> (sin(x))")
    d2 = iterate_D(f, 2)
    df = D(f)
    rng = random.Random(9)
    for _ in range(100):
        a, c, x = (rng.uniform(-2, 2) for _ in range(3))
        (lhs,) = apply_map(d2, (a, 0.0, c, x))
        (rhs,) = apply_map(df, (a, x))
        assert math.isclose(lhs, rhs, rel_tol=1e-9, abs_tol=1e-12)


def test_symmetric_derivatives_of_cube():
    f = pm("fn(x) -> (x^3)")
    d1 = d_n(f, 1)
    d2 = d_n(f, 2)
    d3 = d_n(f, 3)
    assert apply_map(d1, (1.0, 2.0)) == (12.0,)        # 3 x^2 v
    assert apply_map(d2, (1.0, 1.0, 2.0)) == (12.0,)   # 6 x v1 v2
    assert apply_map(d3, (1.0, 1.0, 1.0, 2.0)) == (6.0,)


@pytest.mark.parametrize("text", [
    "fn(x) -> (x^4 - x)",
    "fn(x) -> (sin(x))",
    "fn(x) -> (exp(x))",
    "fn(x) -> (1/x)",
    "fn(x,y) -> (x*y^2)",
])
@pytest.mark.parametrize("n", [1, 2, 3])
def test_nested_directional_equals_zero_insertion(text, n):
    f = pm(text)
    lhs = d_n(f, n)
    rhs = d_n_insertion(f, n)
    assert maps_equal(lhs, rhs, FAST, f"dn-{n}-{text}").ok


@pytest.mark.parametrize("text", ["fn(x) -> (x^4 - x)", "fn(x) -> (sin(x))",
                                  "fn(x) -> (1/x)"])
def test_nested_directional_equals_zero_insertion_order_four(text):
    # one dimension keeps the 16-block literal formula affordable
    f = pm(text)
    assert maps_equal(d_n(f, 4), d_n_insertion(f, 4), FAST, f"dn4-{text}").ok


def test_derivative_tower_lists_d_1_to_d_n_with_D_first():
    f = pm("fn(x,y) -> (x*y^2, sin(x)/y)")
    tower = S.derivative_tower(f, 3)
    assert tower == [d_n(f, 1), d_n(f, 2), d_n(f, 3)]
    assert tower[0] == D(f)
    assert [m.dom.dim for m in tower] == [4, 6, 8]
    assert all(m.guard == guard_subst(f.guard, shift_vars(2, 2 * k))
               for k, m in enumerate(tower, start=1))
    assert S.derivative_tower(f, 0) == [] and d_n(f, 0) is f


def _nodes(e):
    seen, todo = set(), [e]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(node.args)
    return seen


def test_tower_of_reciprocal_holds_one_negative_power_per_component():
    # d_k(1/x)(v_1..v_k; x) = (-1)^k k! x^-(k+1) v_1..v_k: one pow node, no
    # quotient, and a node count linear in k (the quotient form (a'b - ab')/b^2
    # held x^(2^k))
    tower = S.derivative_tower(pm("fn(x) -> (1/x)"), 7)
    for k, m in enumerate(tower, start=1):
        nodes = _nodes(m.coords[0])
        assert [(n.exponent, n.args[0].name) for n in nodes if n.kind == "pow"] == \
            [(-(k + 1), f"x{k + 1}")]
        assert not [n for n in nodes if n.kind == "div"]
        assert len(nodes) <= 2 * k + 4
        (value,) = apply_map(m, [1.5] * k + [0.5])
        assert value == pytest.approx((-1) ** k * math.factorial(k) * 1.5 ** k * 2.0 ** (k + 1),
                                      rel=1e-12)


def test_order_seven_tower_of_reciprocal_is_finite_near_zero():
    # x^128 underflows to 0.0 at x = 1e-3; x^-8 is 1e24
    d7 = S.derivative_tower(pm("fn(x) -> (1/x)"), 7)[-1]
    (value,) = apply_map(d7, [1.0] * 7 + [1e-3])
    assert math.isfinite(value)
    assert value == pytest.approx(-math.factorial(7) * 1e24, rel=1e-12)


# --- tower steps kept on the nodes -------------------------------------------------------

def test_a_tower_reuses_the_steps_its_coordinates_carry(monkeypatch):
    gc.collect()  # no node of an earlier tower waits in a reference cycle
    text = "fn(x, y) -> (x*exp(y)/(3 + x^2), cos(x - y^3)) where x + y > 0"
    partials = []  # one entry per partial derivative smooth takes
    diff = S.diff
    monkeypatch.setattr(S, "diff", lambda e, v: partials.append(v) or diff(e, v))
    f = pm(text)
    tower = S.derivative_tower(f, 3)
    assert len(partials) == 3 * 2 * 2
    # an equal map, another object over the same nodes, takes no partial
    again = pm(text)
    assert again is not f and again.coords == f.coords
    assert S.derivative_tower(again, 3) == tower and len(partials) == 12
    # a higher order takes only its new steps' partials
    longer = S.derivative_tower(again, 5)
    assert longer[:3] == tower and len(partials) == 5 * 2 * 2
    assert d_n(f, 4) == longer[3] and D(f) == tower[0] and len(partials) == 20


def _generated_corpus(pairs):
    """The benchmark's seeded corpus of composable pairs, as text."""
    spec = importlib.util.spec_from_file_location(
        "generated_inputs", Path(__file__).resolve().parents[1] / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    return inputs.generated_corpus(1, pairs)


# L(R^d) = R^1 for d >= 1: towers over R^1 and R^2 read vector blocks of one
# width, so only d tells their steps apart
FIRST = S.LAssignment(lambda obj: SpaceObject(min(obj.dim, 1)))


def test_tower_steps_kept_on_the_nodes_are_the_steps_built_afresh():
    maps = list(dict.fromkeys(
        f for text in (DEFAULT_PAIRS_TEXT, GUARDED_PAIRS_TEXT, _generated_corpus(300))
        for f in corpus_maps(parse_corpus(text))))
    # each map also over one more variable than it reads: its coordinate
    # nodes then meet towers over R^d and R^(d+1)
    maps += [SmoothMap(SpaceObject(f.dom.dim + 1), f.cod, f.coords, f.guard) for f in maps]
    kept = []
    for n in range(1, 6):
        # forwards at odd orders and backwards at even ones, so a node's
        # steps are extended by other maps than the one that began them
        for f in (maps if n % 2 else maps[::-1]):
            for L in (CLASSICAL, TRIVIAL, FIRST):
                kept.append((f, n, L, S.derivative_tower(f, n, L)))
    with pytest.MonkeyPatch.context() as m:
        m.setattr(S, "node_cache", lambda e: {})  # every step is built afresh
        for f, n, L, tower in kept:
            fresh = S.derivative_tower(f, n, L)
            assert [t.guard for t in tower] == [t.guard for t in fresh]
            assert all(a is b for t, u in zip(tower, fresh, strict=True)
                       for a, b in zip(t.coords, u.coords, strict=True))


def test_dn_insertion_trivial_assignment_degenerates():
    f = pm("fn(x) -> (x^2)")
    lhs = d_n(f, 2, TRIVIAL)
    rhs = d_n_insertion(f, 2, TRIVIAL)
    assert lhs.cod.dim == 0 and rhs.cod.dim == 0
    assert maps_equal(lhs, rhs, FAST, "dn-trivial").ok


# --- finite differences ----------------------------------------------------------------

def test_finite_diff_square():
    f = pm("fn(x) -> (x^2)")
    (got,) = finite_diff(f, (1.0,), (1.0,))
    assert abs(got - 2.0) < 1e-8


def test_finite_diff_constant():
    f = pm("fn(x) -> (5)")
    (got,) = finite_diff(f, (0.3,), (1.0,))
    assert abs(got) < 1e-12


def test_finite_diff_sin_at_zero():
    f = pm("fn(x) -> (sin(x))")
    (got,) = finite_diff(f, (0.0,), (1.0,))
    assert abs(got - 1.0) < 1e-8


def test_finite_diff_out_of_domain_probe():
    f = pm("fn(x) -> (log(x))")
    with pytest.raises(OutOfDomainError):
        finite_diff(f, (5e-5,), (1.0,))


def test_d_matches_finite_diff_on_samples():
    rng = random.Random(11)
    for text in ["fn(x) -> (x^2*sin(x))", "fn(x,y) -> (exp(x)*y)"]:
        f = pm(text)
        df = D(f)
        for _ in range(50):
            x = tuple(rng.uniform(-1.5, 1.5) for _ in range(f.dom.dim))
            v = tuple(rng.uniform(-1, 1) for _ in range(f.dom.dim))
            want = finite_diff(f, x, v)
            got = apply_map(df, v + x)
            for a, b in zip(got, want):
                assert abs(a - b) <= max(1e-8, 1e-5 * abs(b))


def test_d_matches_finite_diff_across_corpus():
    # the stated invariant: 200 in-domain points per corpus map
    from faadibruno.corpus import DEFAULT_PAIRS_TEXT, corpus_maps, parse_corpus
    from faadibruno.expr import OutOfDomainError

    rng = random.Random(13)
    for f in corpus_maps(parse_corpus(DEFAULT_PAIRS_TEXT)):
        df = D(f)
        accepted = 0
        tries = 0
        while accepted < 200 and tries < 10_000:
            tries += 1
            x = tuple(rng.uniform(-1.8, 1.8) for _ in range(f.dom.dim))
            v = tuple(rng.uniform(-1, 1) for _ in range(f.dom.dim))
            try:
                want = finite_diff(f, x, v)
                halved = finite_diff(f, x, v, h=5e-5)
            except OutOfDomainError:
                continue
            # near a guard boundary the truncation error of the oracle itself
            # explodes; accept only points where step halving agrees
            if any(abs(a - b) > 1e-6 * max(abs(a), abs(b), 1.0)
                   for a, b in zip(want, halved)):
                continue
            got = apply_map(df, v + x)
            accepted += 1
            for a, b in zip(got, halved):
                assert abs(a - b) <= max(1e-8, 1e-5 * abs(b)), (f, x, v)
        assert accepted == 200


# --- equality protocol -------------------------------------------------------------------

def _uniform_points(dim, cfg, label):
    """The stream's points as random.uniform draws them, one tuple at a time."""
    if dim == 0:
        return [()]
    rng = random.Random(derive_seed(cfg.seed, label))
    return list(probe_points(dim)) + [tuple(rng.uniform(-cfg.radius, cfg.radius)
                                            for _ in range(dim))
                                      for _ in range(cfg.retry_cap)]


def _hex_points(points):
    return [tuple(map(float.hex, p)) for p in points]


def _take_all(stream, dim, sizes):
    """Take the given sizes, then the rest; the points as tuples."""
    points = []
    for k in [*sizes, BATCH_SIZE, BATCH_SIZE]:
        n, cols = stream.take(k)
        assert len(cols) == dim and all(len(col) == n for col in cols)
        points += zip(*cols) if cols else [()] * n
    assert stream.take(3) == (0, [[] for _ in range(dim)])
    return points


@pytest.mark.parametrize("dim", range(5))
@pytest.mark.parametrize("seed, radius", [(0, 2.0), (42, 2.0), (7, 0.3), (123456, 5.5)])
def test_sample_points_draw_as_random_uniform(dim, seed, radius):
    cfg = RunConfig(seed=seed, radius=radius, retry_cap=40)
    want = _hex_points(_uniform_points(dim, cfg, "stream"))
    assert _hex_points(sample_points(dim, cfg, "stream")) == want
    probes = len(probe_points(dim))
    # takes that end inside the probes, cross their end, end at retry_cap
    for sizes in ([], [1], [probes - 1, 2, 0, 5], [probes + 3, 40], [probes + 40]):
        assert _hex_points(_take_all(PointStream(dim, cfg, "stream"), dim, sizes)) == want


@given(st.integers(0, 4), st.integers(0, 2**31 - 1), st.sampled_from([0.3, 2.0, 5.5]),
       st.integers(1, 30), st.lists(st.integers(0, 40), max_size=6))
def test_point_stream_equals_random_uniform_for_any_takes(dim, seed, radius, retry_cap,
                                                          sizes):
    cfg = RunConfig(seed=seed, radius=radius, retry_cap=retry_cap)
    stream = PointStream(dim, cfg, "takes")
    assert (_hex_points(_take_all(stream, dim, sizes))
            == _hex_points(_uniform_points(dim, cfg, "takes")))


@given(st.integers(0, 4), st.integers(0, 2**31 - 1), st.sampled_from([0.3, 2.0]),
       st.integers(1, 1200), st.lists(st.lists(st.integers(0, 700), max_size=4),
                                      min_size=1, max_size=3))
def test_map_streams_equal_random_uniform_for_any_takes(dim, seed, radius, retry_cap,
                                                        takes):
    """Map streams of one dimension and config, taken in turn from whatever
    the table keeps, each give the points of the label map:{dim}, past the
    kept ones too."""
    cfg = RunConfig(seed=seed, radius=radius, retry_cap=retry_cap)
    want = _hex_points(_uniform_points(dim, cfg, f"map:{dim}"))
    streams = [PointStream(dim, cfg, None) for _ in takes]
    got = [[] for _ in takes]
    for step in range(max(map(len, takes)) + 1):
        for sizes, stream, points in zip(takes, streams, got):
            if step <= len(sizes):
                n, cols = stream.take(sizes[step] if step < len(sizes) else len(want))
                points += zip(*cols) if cols else [()] * n
    assert [_hex_points(points) for points in got] == [want] * len(takes)


def test_equal_values_are_zero_apart_under_an_underflowing_floor():
    # tol_abs / tol_rel underflows to 0.0; both sides are 0.0 at the origin
    cfg = RunConfig(tol_abs=1e-300, tol_rel=1e30, samples=20)
    assert cfg.abs_floor == 0.0
    f, g = pm("fn(x, y) -> (x*y)"), pm("fn(x, y) -> (x*y) where x + 10 > 0")
    out = maps_equal(f, g, cfg, "zero-floor")
    assert out.status == "pass" and out.worst_residual == 0.0


@pytest.mark.parametrize("tol_rel, tol_abs", [(1e-320, 1e-8), (1e-9, 1e308)])
def test_a_config_whose_absolute_floor_overflows_is_rejected(tol_rel, tol_abs):
    # an infinite floor puts every finite pair 0.0 apart: x^2 would equal x^2 + 1
    with pytest.raises(ValueError, match="must be finite"):
        RunConfig(tol_rel=tol_rel, tol_abs=tol_abs)
    with pytest.raises(ValueError, match="must be finite"):
        FAST.with_(tol_rel=tol_rel, tol_abs=tol_abs)


def test_maps_equal_detects_value_mismatch():
    f = pm("fn(x) -> (x^2)")
    g = pm("fn(x) -> (x^2 + x^3)")
    out = maps_equal(f, g, FAST, "mismatch")
    assert out.status == "fail"
    assert out.witness is not None


def test_maps_equal_detects_guard_mismatch():
    f = pm("fn(x) -> (x)")
    g = pm("fn(x) -> (x) where x > 0")
    out = maps_equal(f, g, FAST, "guards")
    assert out.status == "fail"
    assert out.note == "guard mismatch"


def test_maps_equal_starves_on_empty_domain():
    f = parse_smooth_map("fn(x) -> (x) where x > 0 && 0 - x > 0")
    out = maps_equal(f, f, FAST, "starve")
    assert out.status == "starved"


def test_map_total():
    assert map_total(pm("fn(x) -> (x + 1)"), FAST, "tot").ok
    assert not map_total(pm("fn(x) -> (1/x)"), FAST, "part").ok


def test_map_total_is_equality_with_the_identity():
    # decided by the one sampling loop: the restriction of 1/x against the
    # identity first disagrees at the origin probe
    out = map_total(pm("fn(x) -> (1/x)"), FAST, "part")
    assert out.status == "fail"
    assert out.witness == (0.0,)
    assert out.note == "guard mismatch"


def test_map_total_starves_when_points_run_out():
    # 1-dimensional: six probes and five random points, short of 50 samples
    out = map_total(pm("fn(x) -> (x)"), RunConfig(samples=50, retry_cap=5), "few")
    assert out.status == "starved"
    assert out.samples == 11


def test_maps_equal_rejects_non_finite_values():
    # for |x| > 2^(1024/1200) ~ 1.807 both products overflow to inf and the
    # quotient is nan, which must not be accepted as agreeing with 1
    f = pm("fn(x) -> ((x^600*x^600) / (x^600*x^600))")
    g = pm("fn(x) -> (1) where x^600*x^600 != 0")
    out = maps_equal(f, g, RunConfig(samples=200), "nan")
    assert out.status == "fail"
    assert abs(out.witness[0]) > 1.8


@pytest.mark.parametrize("text, note, witness", [
    # infinite without a fault: exp(700)^2 overflows to inf at the first probe
    ("fn(x) -> (exp(x + 700) * exp(x + 700))", "value mismatch", (0.0,)),
    # exp(exp(7)) overflows at the second probe
    ("fn(x) -> (exp(exp(x + 6)))", "eval fault: overflow in exp", (1.0,)),
])
def test_identical_sides_still_fail(text, note, witness):
    f = pm(text)
    again = pm(text)
    assert again == f and again is not f
    for g in (f, again):
        out = maps_equal(f, g, FAST, "self")
        assert (out.status, out.note, out.witness) == ("fail", note, witness)
        assert out.worst_residual == math.inf
    # the second side equals the first, so its tape is never built
    assert again._tape is None


def test_a_map_non_finite_in_its_guard_fails_every_row_with_one_witness():
    from reference_equality import reference_maps_equal

    S._self_check.cache_clear()
    # exp overflows past x = 709.78/600 ~ 1.18: no probe, but a fifth of the box
    f = pm("fn(x) -> (exp(600*x))")
    outcomes = [maps_equal(f, pm("fn(x) -> (exp(600*x))"), FAST, label)
                for label in ("row-a", "row-b", "row-c", "row-a")]
    first = outcomes[0]
    assert (first.status, first.note) == ("fail", "eval fault: overflow in exp")
    # the map stream's witness, sampled once and kept for every later row
    assert first == reference_maps_equal(f, f, FAST, "row-b")
    assert all(out is first for out in outcomes)
    assert S._self_check.cache_info()[:2] == (3, 1)  # hits, misses


def test_a_pass_of_a_map_against_itself_is_kept_for_every_later_label(monkeypatch):
    from reference_equality import reference_maps_equal

    # exp overflows past x ~ 1.91, which the first 60 samples of the map
    # stream of R^1 under seed 7 do not reach
    S._self_check.cache_clear()
    cfg = FAST.with_(seed=7)
    f = pm("fn(x) -> (exp(1000*(x - 1.2)))")
    passed = maps_equal(f, f, cfg, "first")
    assert passed == S.EqOutcome("pass", 0.0, None, "", 60)
    assert passed == reference_maps_equal(f, f, cfg, "first")
    assert S._self_check.cache_info().currsize == 1
    runs = []
    monkeypatch.setattr(E.Tape, "run_columns", lambda *args: runs.append(args))
    for label in ("second", "first"):
        assert maps_equal(f, pm(str(f)), cfg, label) is passed
    assert runs == []


@pytest.mark.parametrize("seed", [0, 7, 42])
@pytest.mark.parametrize("text, cfg", [
    # overflows past x ~ 1.91: the map stream reaches that under seeds 0 and 42
    ("fn(x) -> (exp(1000*(x - 1.2)))", FAST),
    ("fn(x) -> (exp(600*x))", FAST),
    ("fn(x, y) -> (x*y, log(x - 1.9))", FAST.with_(retry_cap=200)),  # starves
    ("fn(x, y, z) -> (x/y + z)", FAST),  # passes
])
def test_a_check_of_a_map_against_itself_has_one_outcome_under_every_label_and_row_order(
        text, cfg, seed):
    from reference_equality import reference_maps_equal

    cfg = cfg.with_(seed=seed)
    outcomes = set()
    for labels in itertools.permutations(["row-a", "faa-r:0:jet.R.2", "comonad:1:ε"]):
        # no kept outcome and no kept draws
        S._self_check.cache_clear()
        S._kept_draws.cache_clear()
        f = pm(text)
        outcomes.update(maps_equal(f, pm(text), cfg, label) for label in labels)
        assert S._self_check.cache_info()[:2] == (2, 1)  # hits, misses
    (out,) = outcomes
    assert out == reference_maps_equal(pm(text), pm(text), cfg, "any label")
    if text.startswith("fn(x) -> (exp(1000"):
        assert out.status == ("pass" if seed == 7 else "fail")


def test_the_map_stream_table_is_bounded():
    from reference_equality import reference_maps_equal

    S._kept_draws.cache_clear()
    # x > 1.9 holds at one point in 40, so 60 samples need more than the
    # 2,000 points of the stream, and more than its kept points
    cfg = FAST.with_(retry_cap=2000)
    f = pm("fn(x, y) -> (x*y) where x - 1.9 > 0")
    out = maps_equal(f, f, cfg, "starving")
    assert out.status == "starved"
    assert out == reference_maps_equal(f, f, cfg, "starving")
    assert S._kept_draws.cache_info()[1:] == (1, S.MAP_STREAM_KEYS, 1)  # misses, max, size
    kept = S._kept_draws(2, cfg.seed, cfg.radius)
    assert S._kept_draws.cache_info().misses == 1
    assert kept.cap == 2 * BATCH_SIZE
    assert [len(col) for col in kept.cols] == [kept.cap] * 2
    # a wide map keeps fewer points; more dimensions than keys keep the
    # most recently used keys
    dims = range(1, S.MAP_STREAM_KEYS + 6)
    for dim in dims:
        g = SmoothMap(SpaceObject(dim), SpaceObject(1), (var("x1"),))
        assert maps_equal(g, g, cfg, "dims").ok
        assert S._kept_draws.cache_info().currsize <= S.MAP_STREAM_KEYS
    info = S._kept_draws.cache_info()
    assert info.maxsize == info.currsize == S.MAP_STREAM_KEYS
    # the last MAP_STREAM_KEYS dimensions are each answered from the cache
    kept = [S._kept_draws(dim, cfg.seed, cfg.radius) for dim in dims[-S.MAP_STREAM_KEYS:]]
    assert S._kept_draws.cache_info().hits == info.hits + S.MAP_STREAM_KEYS
    assert S._kept_draws.cache_info().currsize == S.MAP_STREAM_KEYS
    for draws in kept:
        assert draws.cap <= min(2 * BATCH_SIZE, S.MAP_STREAM_FLOATS // len(draws.cols))
        assert all(len(col) <= draws.cap for col in draws.cols)
    floats = sum(len(col) for draws in kept for col in draws.cols)
    assert 8 * floats <= S.MAP_STREAM_BYTES == 4 << 20
    # dimension 2, used first, has gone
    misses = S._kept_draws.cache_info().misses
    S._kept_draws(2, cfg.seed, cfg.radius)
    assert S._kept_draws.cache_info().misses == misses + 1


def test_a_kept_pass_holds_only_under_an_equal_config(monkeypatch):
    S._self_check.cache_clear()
    runs = []
    run_columns = E.Tape.run_columns
    monkeypatch.setattr(E.Tape, "run_columns",
                        lambda tape, cols, n: runs.append(n) or run_columns(tape, cols, n))
    f = pm("fn(x, y) -> (x*y)")
    first = maps_equal(f, f, CFG, "a")
    assert first == S.EqOutcome("pass", 0.0, None, "", 200)
    assert runs
    # an equal config, another label and an equal map built apart: no sampling
    sampled = len(runs)
    assert maps_equal(pm("fn(x, y) -> (x*y)"), f, RunConfig(), "b") == first
    assert len(runs) == sampled
    # a new config samples
    for cfg in (CFG.with_(samples=50), CFG.with_(seed=7)):
        assert maps_equal(f, f, cfg, "a").ok
        assert len(runs) > sampled
        sampled = len(runs)
    # each config used before is answered from the cache
    for cfg in (CFG, CFG.with_(samples=50), CFG.with_(seed=7)):
        assert maps_equal(pm("fn(x, y) -> (x*y)"), f, cfg, "c").ok
    assert len(runs) == sampled


def test_equal_maps_built_apart_share_one_tape(monkeypatch):
    S._self_check.cache_clear()
    compiled = []
    compile_tape = S.compile_tape
    monkeypatch.setattr(S, "compile_tape",
                        lambda *args: compiled.append(args) or compile_tape(*args))
    f, g = pm("fn(x) -> (sin(x) + 2)"), pm("fn(y) -> (log(y))")
    a, b = then(f, g), then(f, g)
    assert a == b and a is not b
    assert maps_equal(a, b, FAST, "shared").ok
    assert maps_equal(b, a, FAST, "shared").ok
    assert len(compiled) == 1


def test_the_self_check_cache_keeps_at_most_its_bound_of_maps_alive():
    S._self_check.cache_clear()
    kept = S.SELF_CHECKS_KEPT
    maps = [pm(f"fn(x) -> (x + {k})") for k in range(1001, kept + 1021)]
    # a map is alive while its coordinate node is, which no other map shares
    nodes = [weakref.ref(m.coords[0]) for m in maps]
    for m in maps:
        assert maps_equal(m, pm(str(m)), FAST, "kept").ok
        assert S._self_check.cache_info().currsize <= kept
    del maps, m
    gc.collect()
    # the first 20 maps have left the cache and died, the last are kept
    assert [r() is None for r in nodes] == [True] * 20 + [False] * kept


def test_a_map_rebuilt_after_its_first_copy_died_is_not_sampled_again(monkeypatch):
    S._self_check.cache_clear()
    text = "fn(x, y) -> (sin(x) * y, log(y)) where y > 0"
    assert maps_equal(pm(text), pm(text), FAST, "first").ok
    gc.collect()
    work = []
    for owner, name in [(S, "compile_tape"), (E.Tape, "run_columns"), (E.Tape, "run_point")]:
        done = getattr(owner, name)
        monkeypatch.setattr(owner, name,
                            lambda *args, name=name, done=done: work.append(name) or done(*args))
    assert maps_equal(pm(text), pm(text), FAST, "again").ok
    assert work == []


@pytest.mark.parametrize("f_text, g_text, note, witness", [
    # the probes (0.0,) and (1.0,) are pulled in one batch: the values
    # disagree at the first and evaluation faults at the second
    ("fn(x) -> (x)", "fn(x) -> (exp(exp(x + 6)))", "value mismatch", (0.0,)),
    ("fn(x) -> (exp(exp(x + 6)) * exp(exp(x + 6)))",
     "fn(x) -> (exp(exp(x + 6)) * exp(exp(x + 6)))", "value mismatch", (0.0,)),
    # both sides agree at the first probe and fault at the second, each with
    # its own message: f's coordinates are evaluated first
    ("fn(x) -> (exp(exp(x + 6)))", "fn(x) -> (x * (x + 1)^2000 + exp(exp(x + 6)))",
     "eval fault: overflow in exp", (1.0,)),
    ("fn(x) -> (x * (x + 1)^2000 + exp(exp(x + 6)))", "fn(x) -> (exp(exp(x + 6)))",
     "eval fault: overflow in pow", (1.0,)),
])
def test_first_failure_in_point_order_is_reported(f_text, g_text, note, witness):
    out = maps_equal(pm(f_text), pm(g_text), FAST, "order")
    assert (out.status, out.note, out.witness) == ("fail", note, witness)


def test_deterministic_outcomes():
    f = pm("fn(x) -> (sin(x))")
    g = pm("fn(x) -> (cos(x))")
    a = maps_equal(f, g, FAST, "det")
    b = maps_equal(f, g, FAST, "det")
    assert a == b


def test_restricted_map_is_below_the_unrestricted_one():
    f = pm("fn(x) -> (x^2) where x > 0")
    g = pm("fn(x) -> (x^2)")
    assert map_leq(f, g, FAST, "leq").ok
    # the reverse fails at the first probe outside f's guard, the origin
    out = map_leq(g, f, FAST, "leq")
    assert (out.status, out.note, out.witness) == ("fail", "guard mismatch", (0.0,))


def test_compatible_maps_agree_on_overlapping_guards():
    f = pm("fn(x) -> (x^2) where x > 0")
    g = pm("fn(x) -> (x^2) where 1 - x > 0")
    assert maps_compatible(f, g, FAST, "cmp").ok
    assert maps_compatible(g, f, FAST, "cmp").ok


def test_compatibility_fails_on_a_value_disagreement_in_the_overlap():
    f = pm("fn(x) -> (x) where x > 0")
    g = pm("fn(x) -> (x^2) where 1 - x > 0")
    out = maps_compatible(f, g, FAST, "cmp")
    # the probe 0.5 is the first point in both domains
    assert (out.status, out.note, out.witness) == ("fail", "value mismatch", (0.5,))


@pytest.mark.parametrize("f_text, g_text", [
    ("fn(x) -> (exp(exp(x + 6)))", "fn(x) -> (exp(exp(x + 6))) where x - 1 != 0"),
    ("fn(x) -> (exp(exp(x + 6))) where x - 1 != 0", "fn(x) -> (exp(exp(x + 6)))"),
])
def test_guard_mismatch_comes_before_the_other_sides_fault(f_text, g_text):
    # at the probe 1.0 one side's guard fails and the other's coordinates
    # overflow: the guards are compared first
    out = maps_equal(pm(f_text), pm(g_text), FAST, "order")
    assert (out.status, out.note, out.witness) == ("fail", "guard mismatch", (1.0,))


def test_guard_within_a_block():
    guard = pm("fn(v, x, y) -> (v) where x > 0 && y != 0").guard
    assert S.guard_within(guard, 1, 2)
    assert not S.guard_within(guard, 2, 1)
    assert S.guard_within(pm("fn(v, x) -> (v)").guard, 1, 1)


# --- monoids and L ------------------------------------------------------------------------

@given(st.integers(1, 4), st.lists(st.floats(-2, 2), min_size=12, max_size=12))
def test_componentwise_monoid_laws(dim, raw):
    mon = componentwise_monoid(dim)
    a = tuple(raw[:dim])
    b = tuple(raw[4:4 + dim])
    c = tuple(raw[8:8 + dim])
    plus = lambda u, v: apply_map(mon.add, u + v)
    assert plus(a, b) == plus(b, a)
    lhs = plus(plus(a, b), c)
    rhs = plus(a, plus(b, c))
    assert all(math.isclose(x, y, rel_tol=1e-12, abs_tol=1e-12) for x, y in zip(lhs, rhs))
    zero = apply_map(mon.zero, ())
    assert plus(a, zero) == a


@pytest.mark.parametrize("dim", range(4))
def test_componentwise_monoid_is_the_literal_construction(dim):
    """The addition is the sum of the two selects of R^d x R^d: coordinate i
    is x_i + x_(d+i), node for node, with no guard."""
    carrier = SpaceObject(dim)
    coords = tuple(E.add(var(f"x{i + 1}"), var(f"x{dim + i + 1}")) for i in range(dim))
    want = S.MonoidStructure(carrier, SmoothMap(SpaceObject(2 * dim), carrier, coords),
                             SmoothMap(S.TERMINAL, carrier, (E.ZERO,) * dim))
    got = componentwise_monoid(dim)
    assert got == want
    assert all(a is b for a, b in zip(got.add.coords, coords, strict=True))
    assert got.add.guard.is_true()


@pytest.mark.parametrize("dim", range(7))
def test_classical_assignment_fixed_points(dim):
    obj = SpaceObject(dim)
    assert CLASSICAL.l0(CLASSICAL.l0(obj)) == CLASSICAL.l0(obj)
    assert CLASSICAL.monoid(CLASSICAL.l0(obj)) == CLASSICAL.monoid(obj)


@pytest.mark.parametrize("a,b", [(1, 1), (2, 1), (2, 3), (0, 4)])
def test_l_preserves_products_structurally(a, b):
    left = componentwise_monoid(a + b)
    right_carrier = SMOOTH.product(
        [CLASSICAL.monoid(SpaceObject(a)).carrier, CLASSICAL.monoid(SpaceObject(b)).carrier])
    assert left.carrier == right_carrier
    # addition agrees with the interchange-composed blockwise addition
    mon_a = componentwise_monoid(a)
    mon_b = componentwise_monoid(b)
    ex = select([a, b, a, b], [0, 2, 1, 3])
    blockwise = then(ex, tuple_map([
        then(select([a, a, 2 * b], [0, 1]), mon_a.add),
        then(select([2 * a, b, b], [1, 2]), mon_b.add)]))
    assert maps_equal(left.add, blockwise, FAST, f"ex-{a}-{b}").ok


def test_d_n_rejects_a_negative_order():
    with pytest.raises(ValueError):
        d_n(pm("fn(x) -> (x^2)"), -1)


def _counting_takes(monkeypatch):
    """Count the points each take hands the sampling loop."""
    taken = []
    take = S.PointStream.take

    def counting(stream, k):
        n, cols = take(stream, k)
        taken.append(n)
        return n, cols

    monkeypatch.setattr(S.PointStream, "take", counting)
    return taken


@pytest.mark.parametrize("dim", range(6))
def test_probe_count_is_the_number_of_probes(dim):
    # the origin, +-1 on each axis, and the three diagonal points, built once
    assert len(probe_points(dim)) == 2 * dim + 4
    assert probe_points(dim) is probe_points(dim)


@pytest.mark.parametrize("text, shifted", [
    ("fn(x) -> (x)", "fn(x) -> (x + 1)"),
    ("fn(x, y, z) -> (x*y, z)", "fn(x, y, z) -> (x*y, z - 2)"),
])
def test_check_failing_at_its_first_probe_pulls_only_the_probes(text, shifted, monkeypatch):
    taken = _counting_takes(monkeypatch)
    f, g = pm(text), pm(shifted)
    out = maps_equal(f, g, RunConfig(samples=200), "first-probe")
    assert out.status == "fail" and out.witness == probe_points(f.dom.dim)[0]
    assert 0 < sum(taken) <= len(probe_points(f.dom.dim))


def test_identical_sides_take_their_samples_in_one_batch(monkeypatch):
    S._self_check.cache_clear()
    taken = _counting_takes(monkeypatch)
    runs = []
    run_columns = S.Tape.run_columns

    def counting(tape, cols, n):
        runs.append(_hex_points(zip(*cols)))
        return run_columns(tape, cols, n)

    monkeypatch.setattr(S.Tape, "run_columns", counting)
    cfg = RunConfig(samples=20)
    f = pm("fn(x, y) -> (x*y)")
    out = maps_equal(f, f, cfg, "one-batch")
    assert out.status == "pass" and out.samples == 20
    # the first 20 points of the map stream of R^2, whatever the label
    assert taken == [20] and runs == [_hex_points(_uniform_points(2, cfg, "map:2")[:20])]
    assert maps_equal(pm("fn(x, y) -> (x*y)"), f, cfg, "another-row") is out
    assert len(taken) == len(runs) == 1


def test_passing_check_pulls_exactly_its_samples(monkeypatch):
    S._self_check.cache_clear()
    S._kept_draws.cache_clear()
    taken = _counting_takes(monkeypatch)
    cfg = RunConfig(samples=300)
    f = pm("fn(x, y) -> (x*y)")
    out = maps_equal(f, f, cfg, "all-accepted")
    assert out.status == "pass" and out.samples == 300
    assert taken == [BATCH_SIZE, 300 - BATCH_SIZE]
    # the drawn points past the probes are kept, and another map of R^2
    # checked against itself takes them again without drawing more
    assert S._kept_draws.cache_info()[1:] == (1, S.MAP_STREAM_KEYS, 1)  # misses, max, size
    kept = S._kept_draws(2, cfg.seed, cfg.radius)
    drawn = 300 - len(probe_points(2))
    assert [len(col) for col in kept.cols] == [drawn, drawn]
    g = pm("fn(x, y) -> (x + y)")
    assert maps_equal(g, g, cfg, "another-map").samples == 300
    assert taken == [BATCH_SIZE, 300 - BATCH_SIZE] * 2
    assert [len(col) for col in kept.cols] == [drawn, drawn]
