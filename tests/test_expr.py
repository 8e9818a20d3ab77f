import copy
import gc
import math
import pickle
import random
import struct
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from faadibruno import expr as E
from faadibruno.expr import (
    ExprError,
    Guard,
    GuardAtom,
    OutOfDomainError,
    ParseError,
    TRUE_GUARD,
    UnboundVariableError,
    compile_tape,
    const,
    diff,
    free_vars,
    guard_and,
    guard_subst,
    parse_expression,
    parse_map,
    pretty_expr,
    pretty_map,
    subst,
    var,
)
from reference_eval import eval_expr, guard_eval

X = var("x1")
Y = var("x2")


def ulps_apart(a: float, b: float) -> float:
    if a == b:
        return 0.0
    scale = math.ulp(max(abs(a), abs(b), 1e-300))
    return abs(a - b) / scale


# --- parsing ------------------------------------------------------------------

def test_parse_square():
    m = parse_map("fn(x) -> (x^2)")
    assert m.arity_in == 1 and m.arity_out == 1
    assert m.coords == (E.ipow(X, 2),)
    assert m.guard.is_true()


def test_parse_two_to_two():
    m = parse_map("fn(x,y) -> (x+y, x*y)")
    assert m.arity_in == 2 and m.arity_out == 2
    assert m.coords == (E.add(X, Y), E.mul(X, Y))


def test_parse_guarded_reciprocal():
    m = parse_map("fn(x) -> (1/x) where x != 0")
    assert m.guard == Guard((GuardAtom("!=0", X),))


def test_division_contributes_guard_atom():
    m = parse_map("fn(x) -> (1/x)")
    assert m.guard == Guard((GuardAtom("!=0", X),))


def test_log_sqrt_contribute_guard_atoms():
    m = parse_map("fn(x,y) -> (log(x) + sqrt(y))")
    assert set(m.guard.atoms) == {GuardAtom(">0", X), GuardAtom(">0", Y)}


@pytest.mark.parametrize("text, guard", [
    ("fn(x) -> (0*(1/x))", "x1 != 0"),
    ("fn(x) -> ((1/x)^0)", "x1 != 0"),
    ("fn(x) -> (0*log(x))", "x1 > 0"),
    ("fn(x) -> (1/x - 1/x)", "x1 != 0"),
    ("fn(x) -> (0/x)", "x1 != 0"),
])
def test_map_keeps_the_domain_of_operations_its_normal_form_drops(text, guard):
    m = parse_map(text)
    assert m.coords[0].kind == "const"
    assert str(m.guard) == guard


def test_domain_atoms_follow_the_where_clause_in_reading_order():
    # the where-clause atoms, then the atom of each operation as the text
    # reads it, dropped or not; the where clause itself adds no domain atoms
    m = parse_map("fn(x,y) -> (0*sqrt(y) + x/y) where 1/x > 0")
    assert str(m.guard) == "1/x1 > 0 && x2 > 0 && x2 != 0"
    # a negative power of a power is guarded by its merged base alone
    assert str(parse_map("fn(x) -> ((x^2)^-1)").guard) == "x1 != 0"


def _faulting_texts():
    """Map texts over x and y built of operations that can fault: quotients,
    negative powers, log, sqrt and exp, with the cancellations a - a and 0*a
    that the normal form drops."""
    def extend(inner):
        return st.one_of(
            st.tuples(inner, st.sampled_from("+-*/"), inner).map(lambda t: f"({t[0]} {t[1]} {t[2]})"),
            st.tuples(inner, st.sampled_from([-3, -2, -1, 2, 3])).map(lambda t: f"({t[0]})^{t[1]}"),
            st.tuples(st.sampled_from(["log", "sqrt", "exp"]), inner).map(lambda t: f"{t[0]}({t[1]})"),
            inner.map(lambda a: f"({a} - {a})"),
            inner.map(lambda a: f"0*{a}"),
        )
    leaves = st.sampled_from(["x", "y", "0", "1", "2", "1/2"])
    coords = st.lists(extend(st.recursive(leaves, extend, max_leaves=6)), min_size=1, max_size=2)
    return coords.map(lambda cs: f"fn(x, y) -> ({', '.join(cs)})")


# seeded points, with the values at which the atoms of the texts vanish
_EXACT = [0.0, 1.0, -1.0, 0.5, 2.0]
_RNG = random.Random(31)
FAULT_POINTS = [(a, b) for a in _EXACT for b in _EXACT] + [
    (_RNG.uniform(-3, 3), _RNG.uniform(-3, 3)) for _ in range(40)]


@settings(max_examples=500, deadline=None)
@given(_faulting_texts())
def test_no_domain_fault_where_the_parsed_guard_holds(text):
    """The guard of a parsed map names the domain of every operation the text
    reads, so at a point where it holds the coordinates fault only by float
    overflow."""
    m = parse_map(text)
    tape = compile_tape(m.coords, m.guard, 2)
    for point in FAULT_POINTS:
        got = tape.run_point(point)
        if isinstance(got, Exception):
            assert isinstance(got, OutOfDomainError), (text, point, got)
            assert str(got) in ("overflow in exp", "overflow in pow"), (text, point, got)


def test_parse_error_has_position():
    with pytest.raises(ParseError) as err:
        parse_map("fn(x) -> (x +* 2)")
    assert "line 1" in str(err.value)
    assert "column" in str(err.value)


def test_numbers_take_ascii_digits_and_convert_or_fail_at_their_position():
    for text, col in (("2²", 2), ("x1^²", 4), ("1.²", 2), ("٣", 1)):
        with pytest.raises(ParseError) as err:
            parse_expression(text)
        assert (err.value.line, err.value.col) == (1, col)
    with pytest.raises(ParseError, match="too long .line 1, column 6"):
        parse_expression("x1 + " + "9" * 5000)
    with pytest.raises(ParseError, match="too long .line 1, column 4"):
        parse_expression("x1^" + "9" * 5000)


def test_exact_constants_and_exponents_are_bounded():
    bits = E.CONST_BITS
    assert E.ipow(const(2), bits - 1).value == 2 ** (bits - 1)
    assert E.ipow(const(Fraction(1, 2)), 1 - bits).value == 2 ** (bits - 1)
    for build in (lambda: const(2 ** bits), lambda: const(Fraction(1, 2 ** bits)),
                  lambda: E.ipow(const(2), bits), lambda: E.ipow(const(3), 10 ** 12),
                  lambda: E.ipow(X, 2 ** bits), lambda: E.ipow(E.ipow(X, 2 ** 2048), 2 ** 2048)):
        with pytest.raises(ExprError, match=f"of more than {bits} bits"):
            build()
    # 0 and +-1 fold at any exponent, as the bound is checked before the power
    huge = 10 ** 12 + 1
    assert E.ipow(const(0), huge) is E.ZERO
    assert E.ipow(const(1), -huge) is E.ONE
    assert E.ipow(const(-1), huge) is const(-1)


def test_unbound_variable_rejected():
    with pytest.raises(UnboundVariableError):
        parse_map("fn(x) -> (x + y)")
    with pytest.raises(UnboundVariableError):
        parse_map("fn(x) -> (x) where z > 0")


def test_wrong_arity_call_is_syntax_error():
    with pytest.raises(ParseError):
        parse_map("fn(x) -> (sin(x, x))")


def test_decimal_literals_are_exact_rationals():
    e = parse_expression("0.5")
    assert e == const(Fraction(1, 2))


# --- evaluation ---------------------------------------------------------------

def test_eval_sin_zero():
    assert eval_expr(E.sin(X), {"x1": 0.0}) == 0.0


def test_eval_arithmetic():
    e = parse_expression("x1^2 + 1")
    assert eval_expr(e, {"x1": 3.0}) == 10.0


def test_eval_log_negative_is_domain_fault():
    with pytest.raises(OutOfDomainError):
        eval_expr(E.log(X), {"x1": -1.0})


def test_eval_division_by_zero_is_domain_fault():
    with pytest.raises(OutOfDomainError):
        eval_expr(E.div(const(1), X), {"x1": 0.0})


def test_eval_unbound_variable():
    with pytest.raises(UnboundVariableError):
        eval_expr(X, {})


# --- differentiation ----------------------------------------------------------

def test_diff_product_is_bilinear():
    assert diff(E.mul(X, Y), "x1") == Y


def test_diff_sin():
    assert diff(E.sin(X), "x1") == E.cos(X)


def test_diff_cube_matches_central_difference():
    # oracle: central finite difference of x^3 at x=2 with h = 1e-4
    h = 1e-4
    oracle = ((2 + h) ** 3 - (2 - h) ** 3) / (2 * h)
    d = diff(E.ipow(X, 3), "x1")
    assert d == E.mul(const(3), E.ipow(X, 2))
    got = eval_expr(d, {"x1": 2.0})
    assert got == 12.0
    assert abs(got - oracle) / abs(oracle) < 1e-5


@pytest.mark.parametrize(
    "text, x0",
    [
        ("sin(x)*exp(x)", 0.7),
        ("x^4 - 3*x^2 + x", -1.3),
        ("1/x", 0.5),
        ("log(x)", 1.9),
        ("sqrt(x)", 2.0),
        ("cos(x^2)", 0.4),
    ],
)
def test_diff_matches_central_difference(text, x0):
    m = parse_map(f"fn(x) -> ({text})")
    e = m.coords[0]
    d = diff(e, "x1")
    h = 1e-4
    oracle = (eval_expr(e, {"x1": x0 + h}) - eval_expr(e, {"x1": x0 - h})) / (2 * h)
    got = eval_expr(d, {"x1": x0})
    assert abs(got - oracle) <= max(1e-8, 1e-5 * abs(oracle))


# --- normal forms -------------------------------------------------------------
# The constructors return normal forms, so each rule is checked on a raw tree
# built with Expr(...) past them; subst(raw, {}) rebuilds it through them.

def _raw(kind, *args, exponent=0):
    """The node of that structure as it stands, no rule applied."""
    return E.Expr(kind, args, exponent=exponent)


def _normal(kind, *args, exponent=0):
    """The node built through its constructor."""
    return E.ipow(args[0], exponent) if kind == "pow" else getattr(E, kind)(*args)


def test_simplify_additive_identity():
    assert subst(_raw("add", const(0), X), {}) is X


def test_simplify_multiplicative_identities():
    assert subst(_raw("mul", const(1), _raw("mul", X, const(1))), {}) is X


def test_simplify_constant_fold():
    assert subst(_raw("add", const(2), const(3)), {}) is const(5)


def test_simplify_required_rules():
    assert subst(_raw("mul", const(0), _raw("log", X)), {}) is const(0)
    assert subst(_raw("pow", X, exponent=1), {}) is X
    assert subst(_raw("pow", X, exponent=0), {}) is const(1)
    assert subst(_raw("neg", _raw("neg", X)), {}) is X
    assert subst(_raw("add", X, const(0)), {}) is X


# --- guards ---------------------------------------------------------------------

def test_guard_and_unit():
    g = Guard((GuardAtom("!=0", X),))
    assert guard_and(TRUE_GUARD, g) == g


def test_true_guards_conjoin_and_substitute_to_the_true_guard_itself():
    assert guard_and(TRUE_GUARD, TRUE_GUARD) is TRUE_GUARD
    assert guard_and(Guard(), Guard()) is TRUE_GUARD
    assert guard_subst(TRUE_GUARD, {"x1": E.div(const(1), Y)}) is TRUE_GUARD
    assert TRUE_GUARD == E.make_guard(())


def test_guard_eval_conjunction():
    g = Guard((GuardAtom(">0", X), GuardAtom("!=0", X)))
    assert guard_eval(g, {"x1": 2.0}) is True
    assert guard_eval(g, {"x1": -2.0}) is False


def test_guard_subst_commutes_with_eval():
    g = Guard((GuardAtom(">0", X),))
    composed = guard_subst(g, {"x1": E.add(E.mul(Y, Y), const(1))})
    assert guard_eval(composed, {"x2": 0.0}) is True


def test_guard_atom_fault_means_false():
    g = Guard((GuardAtom("!=0", E.div(const(1), X)),))
    assert guard_eval(g, {"x1": 0.0}) is False
    tape = compile_tape((X,), g, 1)
    assert [tape.run_point(p) for p in [(1.0,), (0.0,), (2.0,)]] == [(1.0,), None, (2.0,)]


def test_pow_overflow_is_a_domain_fault():
    with pytest.raises(OutOfDomainError, match="overflow in pow"):
        eval_expr(E.ipow(X, 2000), {"x1": 3.0})
    with pytest.raises(OutOfDomainError, match="overflow in pow"):
        eval_expr(E.ipow(X, -2), {"x1": 1e-200})


# --- negative powers ---------------------------------------------------------------

def test_negative_power_parses_prints_and_guards_its_base():
    m = parse_map("fn(x) -> (x^-2)")
    assert m.coords == (E.ipow(X, -2),) and m.coords[0].exponent == -2
    assert m.guard == Guard((GuardAtom("!=0", X),))
    assert pretty_map(1, m.coords, m.guard) == "fn(x1) -> (x1^-2) where x1 != 0"
    assert parse_expression("3*-x1^-2") is E.mul(const(3), E.neg(E.ipow(X, -2)))
    assert parse_expression("2^-1") is const(Fraction(1, 2))
    for text in ("x1^(-2)", "x1^1.5", "x1^-x2"):
        with pytest.raises(ParseError, match="power wants an integer exponent"):
            parse_expression(text)


def test_negative_powers_keep_the_guard_their_base_gives():
    # (x^-1)^-1 is x only where x != 0: merging would drop the atom
    twice = E.ipow(E.ipow(X, -1), -1)
    assert twice.kind == "pow" and twice.args[0] is E.ipow(X, -1)
    assert parse_map("fn(x) -> ((x^-1)^-1)").guard.atoms[0] == GuardAtom("!=0", X)
    assert parse_expression(pretty_expr(twice)) is twice
    # one negative exponent merges: a^(m*n) is guarded by a != 0 as before
    assert E.ipow(E.ipow(X, -1), 2) is E.ipow(X, -2)
    assert E.ipow(E.ipow(X, 2), -1) is E.ipow(X, -2)
    # a negative power of zero stays a node, and its guard is false
    zero_inv = E.ipow(const(0), -1)
    assert zero_inv.kind == "pow" and zero_inv.args[0] is const(0)
    assert parse_map("fn(x) -> (x + 0^-1)").guard == Guard((GuardAtom("!=0", const(0)),))


def test_negative_power_of_zero_is_the_same_fault_on_the_tape_and_the_reference():
    for e, point in ((parse_expression("0^-1"), (1.0,)), (E.ipow(X, -1), (0.0,)),
                     (E.ipow(X, -2), (-0.0,))):
        with pytest.raises(OutOfDomainError, match="^division by zero$"):
            eval_expr(e, {"x1": point[0]})
        got = compile_tape((e,), TRUE_GUARD, 1).run_point(point)
        assert type(got) is OutOfDomainError and str(got) == "division by zero"


def test_quotient_rule_uses_negative_powers():
    # (a/b)' = a'*b^-1 - a*b'*b^-2: no quotient, no squared denominator
    assert diff(E.div(const(1), X), "x1") is E.neg(E.ipow(X, -2))
    assert diff(E.div(X, Y), "x1") is E.ipow(Y, -1)
    assert diff(E.div(X, Y), "x2") is E.neg(E.mul(X, E.ipow(Y, -2)))
    assert diff(E.ipow(X, -2), "x1") is E.mul(const(-2), E.ipow(X, -3))


def test_guard_and_idempotent():
    g = Guard((GuardAtom(">0", X),))
    assert guard_and(g, g) == g


def test_guard_and_of_normal_guards_is_their_normalized_conjunction():
    a, b, c = GuardAtom(">0", X), GuardAtom("!=0", Y), GuardAtom(">0", E.add(X, Y))
    g1 = E.make_guard((a, b))
    g2 = E.make_guard((c, b, a))
    assert guard_and(g1, g2) == E.make_guard(g1.atoms + g2.atoms)
    assert guard_and(g1, g2).atoms == (a, b, c)
    assert guard_and(g2, g1) == E.make_guard(g2.atoms + g1.atoms)


# --- hash-consing -----------------------------------------------------------------

def test_structurally_equal_nodes_are_one_object():
    assert E.add(X, E.ONE) is E.add(X, E.ONE)
    assert parse_expression("x1 + 1") is E.add(X, const(1))
    assert E.add(X, Y) is not E.add(Y, X)
    e = E.sin(E.mul(X, Y))
    assert copy.deepcopy(e) is e and pickle.loads(pickle.dumps(e)) is e
    with pytest.raises(AttributeError):
        X.name = "x2"


def _unique_nodes(e):
    seen, todo = set(), [e]
    while todo:
        node = todo.pop()
        if node not in seen:
            seen.add(node)
            todo.extend(node.args)
    return len(seen)


def test_shared_dag_is_walked_once_per_node():
    # 2^60 nodes as a tree, 121 unique nodes: a tree walk would never end
    e = X
    for _ in range(60):
        e = E.mul(E.add(e, X), e)
    assert subst(e, {}) is e
    d = diff(e, "x1")
    assert _unique_nodes(d) < 1000
    assert free_vars(e) == free_vars(d) == {"x1"}
    tape = compile_tape((e, d), TRUE_GUARD, 1)
    assert len(tape.steps) < 1000


def test_intern_table_frees_dropped_nodes():
    from faadibruno.jetlaws import cofree_jet
    from faadibruno.smooth import CLASSICAL, parse_smooth_map

    # the first tower of a map of two variables fills the structure caches
    # it reads (select's cache keeps the nodes of its variables), so one is
    # built and dropped before the table is counted
    cofree_jet(parse_smooth_map("fn(x, y) -> (x*y)"), CLASSICAL, 1)
    gc.collect()
    before = len(E._NODES)
    tower = cofree_jet(parse_smooth_map("fn(x, y) -> (sin(x*y)/(1 + x^2), exp(y)*log(x))"),
                       CLASSICAL, 6)
    assert len(E._NODES) > before + 1000
    del tower
    gc.collect()
    assert len(E._NODES) <= before


def test_tower_steps_go_with_their_node(monkeypatch):
    from faadibruno import smooth as S

    text = "fn(x, y) -> (sin(x*y)/(1 + x^2), exp(y)*log(x)) where x > 0"
    # the first tower fills the structure caches it reads
    S.derivative_tower(S.parse_smooth_map("fn(x, y) -> (x*y) where x > 0"), 4)
    gc.collect()
    before = len(E._NODES)
    partials = []
    diff = S.diff
    monkeypatch.setattr(S, "diff", lambda e, v: partials.append(v) or diff(e, v))
    f = S.parse_smooth_map(text)
    tower = S.derivative_tower(f, 4)
    assert len(partials) == 4 * 2 * 2 and len(E._NODES) > before + 100
    del f, tower
    gc.collect()
    assert len(E._NODES) == before
    # an equal map parsed again meets new nodes, which carry no steps
    S.derivative_tower(S.parse_smooth_map(text), 4)
    assert len(partials) == 2 * 4 * 2 * 2


@pytest.mark.parametrize("k", [-17, -16, -3, 0, 1, 2, 16, 17])
def test_small_integer_constants_are_the_interned_nodes(k):
    # inside -16..16 from the table built at import, outside it from the
    # intern table; either way the node of that structure
    assert const(k) is const(Fraction(k)) is E.Expr("const", value=Fraction(k))
    assert const(k).value == k and type(const(k).value) is Fraction


# --- property tests -------------------------------------------------------------

def exprs(build=_normal):
    """Expressions over x1, x2 and small integers, each node made by build:
    through the constructors, or as a raw tree with _raw."""
    leaves = st.one_of(
        st.sampled_from([var("x1"), var("x2")]),
        st.integers(-4, 4).map(const),
    )

    def extend(children):
        return st.one_of(
            st.tuples(children, children).map(lambda ab: build("add", *ab)),
            st.tuples(children, children).map(lambda ab: build("sub", *ab)),
            st.tuples(children, children).map(lambda ab: build("mul", *ab)),
            children.map(lambda a: build("neg", a)),
            st.tuples(children, st.integers(-3, 3)).map(
                lambda an: build("pow", an[0], exponent=an[1])),
            children.map(lambda a: build("sin", a)),
            children.map(lambda a: build("cos", a)),
        )

    return st.recursive(leaves, extend, max_leaves=12)


@given(exprs())
def test_constructors_build_normal_forms(e):
    assert subst(e, {}) is e


@given(exprs(_raw), st.floats(-2, 2), st.floats(-2, 2))
def test_simplify_preserves_eval(e, a, b):
    env = {"x1": a, "x2": b}
    normal = subst(e, {})
    assert subst(normal, {}) is normal
    try:
        before = eval_expr(e, env)
    except OutOfDomainError:
        return  # outside the raw tree's domain a rule may drop the fault (0 * e)
    after = eval_expr(normal, env)
    assert ulps_apart(before, after) <= 4.0


@given(exprs())
def test_parse_of_pretty_is_identity_after_simplify(e):
    assert parse_expression(pretty_expr(e)) is e


@given(exprs(), st.floats(-2, 2), st.floats(-2, 2))
def test_pretty_text_evaluates_as_python_with_pow_for_caret(e, a, b):
    """Printed components are read back as Python with ^ taken as ** (as in
    `3*-x1^-2`): the same value bit for bit, or a fault in both."""
    env = {"x1": a, "x2": b}
    code = pretty_expr(e).replace("^", "**")
    namespace = {"__builtins__": {}, "sin": math.sin, "cos": math.cos, **env}
    try:
        want = eval_expr(e, env)
    except OutOfDomainError:
        with pytest.raises((ZeroDivisionError, OverflowError, ValueError)):
            eval(code, namespace)
        return
    assert _bits([eval(code, namespace)]) == _bits([want])


@given(exprs(), exprs(), st.floats(-2, 2), st.floats(-2, 2))
def test_guard_and_is_pointwise_conjunction(e1, e2, a, b):
    env = {"x1": a, "x2": b}
    g1 = Guard((GuardAtom(">0", e1),))
    g2 = Guard((GuardAtom("!=0", e2),))
    assert guard_eval(guard_and(g1, g2), env) == (
        guard_eval(g1, env) and guard_eval(g2, env)
    )


@given(exprs())
def test_diff_is_closed_over_node_set(e):
    d = diff(e, "x1")
    def walk(node):
        assert node.kind in (
            "var", "const", "add", "sub", "mul", "div", "pow", "neg",
            "sin", "cos", "exp", "log", "sqrt",
        )
        for a in node.args:
            walk(a)
    walk(d)


# --- the vanishing walk ---------------------------------------------------------

FOUR = ["x1", "x2", "x3", "x4"]


def every_kind_exprs(names=FOUR):
    """Normal expressions over the named variables and small integers, with
    nodes of every kind."""
    leaves = st.one_of(st.sampled_from([var(n) for n in names]),
                       st.integers(-2, 2).map(const))

    def extend(children):
        pairs = st.tuples(children, children)
        return st.one_of(
            *(pairs.map(lambda ab, k=k: _normal(k, *ab)) for k in ("add", "sub", "mul", "div")),
            *(children.map(lambda a, k=k: _normal(k, a))
              for k in ("neg", "sin", "cos", "exp", "log", "sqrt")),
            st.tuples(children, st.integers(-2, 2)).map(
                lambda an: _normal("pow", an[0], exponent=an[1])),
        )

    return st.recursive(leaves, extend, max_leaves=10)


@settings(max_examples=150, deadline=None)  # about one in sixteen vanishes
@given(every_kind_exprs(), st.lists(st.sampled_from([None, 0, 1]), min_size=4, max_size=4),
       st.lists(every_kind_exprs(), min_size=4, max_size=4))
def test_an_expression_the_walk_calls_vanishing_substitutes_to_zero(e, group_of, others):
    """Each variable is in group 0, group 1 or none; where the walk says e
    vanishes with a group, sending that group to ZERO and the other
    variables anywhere gives ZERO."""
    groups = {n: 1 << j for n, j in zip(FOUR, group_of) if j is not None}
    mask = E.vanishing_groups(e, groups)
    for j in (0, 1):
        if mask >> j & 1:
            zeroed = {n: E.ZERO if j == g else other
                      for n, g, other in zip(FOUR, group_of, others)}
            assert subst(e, zeroed) is E.ZERO


@pytest.mark.parametrize("text, mask", [
    ("0", -1), ("2", 0), ("x1", 1), ("x3", 0),
    ("x1*x2", 3), ("x1*x2 + x1", 1), ("x1*x2 - x2*x1^3", 3), ("x1 + 1", 0),
    ("-x2", 2), ("sin(x1)", 1), ("sqrt(x2)", 2), ("x1^2", 1), ("x1^-1", 0),
    ("x1/x2", 1), ("cos(x1)", 0), ("exp(x1)", 0), ("log(x1)", 0), ("x1*cos(x2)", 1),
])
def test_the_vanishing_walk_follows_the_constructors_zero_rules(text, mask):
    assert E.vanishing_groups(parse_expression(text), {"x1": 1, "x2": 2}) == mask


def test_map_pretty_roundtrip():
    texts = [
        "fn(x) -> (x^2)",
        "fn(x,y) -> (x + y, x*y)",
        "fn(x) -> (1/x) where x != 0",
        "fn(x,y) -> (log(x), x/y)",
        "fn(x) -> (-(x*sin(x)) + 2)",
    ]
    for text in texts:
        m = parse_map(text)
        again = parse_map(pretty_map(m.arity_in, m.coords, m.guard))
        assert again.coords == m.coords
        assert again.guard == m.guard


# --- the compiled tape against the tree evaluator --------------------------------

_TAPE_KINDS = ("add", "sub", "mul", "div", "pow", "neg", "sin", "cos", "exp",
               "log", "sqrt")


@st.composite
def shared_exprs(draw):
    """A pool of expressions over every node kind in which later nodes take
    their arguments from earlier ones, so subterms are shared.  Rebuilding a
    node from its parts gives the same object."""
    pool = [X, Y, const(0), const(1)]
    pool += [const(Fraction(n, d)) for n, d in
             draw(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3)), max_size=3))]
    for _ in range(draw(st.integers(1, 14))):
        kind = draw(st.sampled_from(_TAPE_KINDS))
        a = draw(st.sampled_from(pool))
        if kind == "pow":
            node = E.Expr("pow", (a,), exponent=draw(
                st.sampled_from([-400, -3, -2, -1, 0, 1, 2, 3, 7, 400])))
        elif kind in ("add", "sub", "mul", "div"):
            node = E.Expr(kind, (a, draw(st.sampled_from(pool))))
        else:
            node = E.Expr(kind, (a,))
        assert E.Expr(node.kind, node.args, node.name, node.value, node.exponent) is node
        pool.append(node)
    return pool


def _intern_key(node):
    return (node.kind, node.name, node.value, node.exponent, *map(id, node.args))


@given(shared_exprs())
def test_the_intern_table_holds_each_live_node_once_under_its_structure(pool):
    assert all(E.Expr(n.kind, n.args, n.name, n.value, n.exponent) is n for n in pool)
    # nodes of one structure are one object, of different structures two
    assert len({_intern_key(n) for n in pool}) == len({id(n) for n in pool})
    a = pool[-1]
    for p, q in [(const(1), X),
                 (E.Expr("pow", (X,), exponent=2), E.Expr("pow", (X,), exponent=-2)),
                 (E.Expr("neg", (a,)), E.Expr("sub", (E.ZERO, a)))]:
        assert p is not q and _intern_key(p) != _intern_key(q)
    gc.collect()
    live = [o for o in gc.get_objects() if type(o) is E.Expr]
    assert len(E._NODES) == len(live)
    assert all(E._NODES[_intern_key(n)]() is n for n in live)


POINT_COORDS = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -3.0, 1e10, -1e200]),
    st.floats(-4, 4))


def _bits(values):
    return tuple(struct.pack("<d", v) for v in values)


def _reference(roots, guard, point):
    """What the tree evaluator gives at point: None where the guard does not
    hold, the roots' values as bit patterns, or the fault's type and message
    (every fault, sin/cos of an infinity included, is an ExprError)."""
    env = dict(zip(("x1", "x2"), point))
    try:
        if not guard_eval(guard, env):
            return None
        return _bits([eval_expr(e, env) for e in roots])
    except ExprError as err:
        return (type(err), str(err))


def _point_result(result):
    """What Tape.run_point gives, in _reference's terms."""
    if isinstance(result, Exception):
        return (type(result), str(result))
    return None if result is None else _bits(result)


@settings(max_examples=300, deadline=None)
@given(shared_exprs(), st.data(), POINT_COORDS, POINT_COORDS)
def test_tape_matches_eval_expr_bit_for_bit(pool, data, a, b):
    roots = data.draw(st.lists(st.sampled_from(pool), min_size=1, max_size=3)) + [pool[-1]]
    atoms = data.draw(st.lists(
        st.builds(GuardAtom, st.sampled_from([">0", "!=0"]), st.sampled_from(pool)),
        max_size=3))
    # columns mixing the drawn point with points where guards fail and
    # evaluation faults either raise a fault, where some point faults or
    # falls outside the guard, or give each point what it gives alone
    points = [(a, b), (0.0, 0.0), (a, b), (-1.0, 0.5), (1e10, -1e200), (-3.0, a)]
    for guard in (TRUE_GUARD, Guard(tuple(atoms))):
        tape = compile_tape(roots, guard, 2)
        want = [_reference(roots, guard, p) for p in points]
        assert [_point_result(tape.run_point(p)) for p in points] == want
        try:
            rows, cols = tape.run_columns([list(c) for c in zip(*points)], len(points))
        except OutOfDomainError:
            assert any(w is None or isinstance(w[0], type) for w in want)
            continue
        got = [None] * len(points)
        for i, *values in zip(rows, *cols):
            got[i] = _bits(values)
        assert got == want


@pytest.mark.parametrize("text, point, message", [
    # arguments left to right; the denominator is tested before the
    # numerator is evaluated
    ("log(x1) + sqrt(x1)", (-1.0,), "log of non-positive argument"),
    ("sqrt(x1) * log(x1)", (-1.0,), "sqrt of negative argument"),
    ("log(x1 - 2)/(x1 - x1)", (1.0,), "division by zero"),
    ("sqrt(0 - x1)/x1", (1.0,), "sqrt of negative argument"),
    ("x1^2000/(x1 - 3)", (3.0,), "division by zero"),
    ("exp(x1^3)", (10.0,), "overflow in exp"),
    ("sin(x1^200*x1^200)", (10.0,), "sin of an infinite argument"),
    ("cos(0 - x1^200*x1^200)", (10.0,), "cos of an infinite argument"),
    # a negative power faults where its base is zero, in argument order
    ("(x1 - 1)^-3 * log(x1 - 2)", (1.0,), "division by zero"),
    ("log(x1 - 2) * (x1 - 1)^-3", (1.0,), "log of non-positive argument"),
    ("x1^-2 + 1/x1", (1e-200,), "overflow in pow"),
])
def test_tape_first_fault_follows_eval_expr(text, point, message):
    e = parse_expression(text)
    with pytest.raises(OutOfDomainError, match=message):
        eval_expr(e, {"x1": point[0]})
    tape = compile_tape((e,), TRUE_GUARD, 1)
    assert _point_result(tape.run_point(point)) == (OutOfDomainError, message)
    with pytest.raises(OutOfDomainError, match=message):
        tape.run_columns([[point[0]] * 2], 2)


def test_a_tape_holds_only_the_columns_still_to_be_read():
    # Horner's scheme: each step is read once, by the next, and the guard
    # atom's value only by its test, so two registers carry all 401 steps
    e = X
    for _ in range(200):
        e = E.add(E.mul(e, X), const(1))
    tape = compile_tape((e,), Guard((GuardAtom(">0", E.add(X, const(1))),)), 1)
    assert (len(tape.steps), len(tape.atoms[0][0]), tape.registers) == (400, 1, 2)
    assert tape.run_point((0.5,)) == (eval_expr(e, {"x1": 0.5}),)
    rows, cols = tape.run_columns([[-2.0, 0.5, 0.25]], 3)
    assert rows == [1, 2] and cols == [[eval_expr(e, {"x1": x}) for x in (0.5, 0.25)]]


def test_tape_short_point_names_the_missing_input_and_extra_coordinates_are_ignored():
    tape = compile_tape((E.add(X, Y),), Guard((GuardAtom("!=0", X),)), 2)
    short = tape.run_point((1.0,))
    assert type(short) is UnboundVariableError and str(short) == "x2"
    assert tape.run_point((1.0, 2.0)) == tape.run_point((1.0, 2.0, 9.0)) == (3.0,)
