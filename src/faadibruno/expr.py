"""Symbolic expression trees over real variables, with guards for open domains.

The node set {+, -, *, /, integer power, neg, sin, cos, exp, log, sqrt} is
closed under exact differentiation.  Guards are conjunctions of strict atoms
(e > 0, e != 0); they describe open sets and compose under substitution, so a
map stays smooth on its guard by construction.
"""

from __future__ import annotations

import math
import operator
import re
import weakref
from dataclasses import dataclass
from fractions import Fraction
from itertools import compress, repeat
from typing import Mapping, Sequence


class ExprError(Exception):
    pass


class ParseError(ExprError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{message} (line {line}, column {col})")
        self.message = message
        self.line = line
        self.col = col


class UnboundVariableError(ExprError):
    pass


class OutOfDomainError(ExprError):
    """Evaluation hit a point outside a primitive's mathematical domain."""


# The intern table: every live node, keyed by the flat tuple (kind, name,
# value, exponent, *ids of its arguments) (a live node keeps its arguments
# alive, so their ids are not reused while its entry stands).  An entry is a
# weak reference that holds its key, removed by the one callback _drop, so a
# node and the results cached on it go when nothing else refers to it.
_NODES: dict = {}
_set_slot = object.__setattr__  # writes a node slot past Expr.__setattr__


class _Entry(weakref.ref):
    __slots__ = ("key",)


def _drop(entry: _Entry) -> None:
    if _NODES.get(entry.key) is entry:
        del _NODES[entry.key]


class Expr:
    """An immutable expression node, hash-consed (Filliâtre & Conchon,
    *Type-safe modular hash-consing*, 2006): Expr(...) returns the live node
    of the same structure if there is one, so structurally equal nodes are
    one object and == is identity.  Expr(...) does not rewrite: nodes are
    built by the constructors below, which return normal forms, so every live
    node is normal.  Since == is identity, the identity hash object.__hash__
    agrees with it.  The private slots cache the node's free_vars, var_span,
    and partials and tower steps (node_cache).  Construction is not
    thread-safe: two threads could each build a node of the same structure."""

    __slots__ = ("kind", "args", "name", "value", "exponent",
                 "_free_vars", "_var_span", "_cache", "__weakref__")

    def __new__(cls, kind: str, args: tuple["Expr", ...] = (), name: str = "",
                value: Fraction | None = None, exponent: int = 0):
        key = (kind, name, value, exponent, *map(id, args))
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            _set_slot(node, "kind", kind)
            _set_slot(node, "args", args)
            _set_slot(node, "name", name)
            _set_slot(node, "value", value)
            _set_slot(node, "exponent", exponent)
            _set_slot(node, "_free_vars", None)
            _set_slot(node, "_var_span", None)
            _set_slot(node, "_cache", None)
            entry = _NODES[key] = _Entry(node, _drop)
            entry.key = key
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"Expr nodes are immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Expr nodes are immutable; cannot delete {name!r}")

    def __reduce__(self):
        return (Expr, (self.kind, self.args, self.name, self.value, self.exponent))

    def __repr__(self):
        return (f"Expr({self.kind!r}, {self.args!r}, {self.name!r}, "
                f"{self.value!r}, {self.exponent!r})")

    def __str__(self):
        return pretty_expr(self)


# --- constructors in normal form ------------------------------------------------
#
# Each constructor applies a small fixed rule set to its already normal
# arguments (constant folding plus unit and zero eliminations) and builds a
# node with Expr(...) only when no rule applies, so what it returns is normal.
# The rules preserve values on the guard of any enclosing map; guards are
# carried separately, so dropping a fault-capable subterm (0 * e) is sound.

# The most bits an exact constant's numerator or denominator, or a power's
# exponent, may have.  It bounds constant folding: 2^99999999 is an error,
# not a number too large to print or to hold.
CONST_BITS = 4096


def var(name: str) -> Expr:
    return Expr("var", name=name)


def const(value) -> Expr:
    node = _SMALL_CONSTS.get(value)  # an integral Fraction hashes as its int
    if node is not None:
        return node
    value = Fraction(value)
    if max(value.numerator.bit_length(), value.denominator.bit_length()) > CONST_BITS:
        raise ExprError(f"constant of more than {CONST_BITS} bits")
    return Expr("const", value=value)


def add(a: Expr, b: Expr) -> Expr:
    if a.kind == "const" and b.kind == "const":
        return const(a.value + b.value)
    if a is ZERO:
        return b
    if b is ZERO:
        return a
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    if a.kind == "const" and b.kind == "const":
        return const(a.value - b.value)
    if b is ZERO:
        return a
    if a is ZERO:
        return neg(b)
    if a is b:
        return ZERO
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    ac = a.kind == "const"
    bc = b.kind == "const"
    if ac and bc:
        return const(a.value * b.value)
    if a is ZERO or b is ZERO:
        return ZERO
    if a is ONE:
        return b
    if b is ONE:
        return a
    # keep constants on the left and fold nested constant factors
    if bc:
        a, b, ac = b, a, True
    if ac and b.kind == "mul" and b.args[0].kind == "const":
        return mul(const(a.value * b.args[0].value), b.args[1])
    return Expr("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    if a.kind == "const" and b.kind == "const" and b.value != 0:
        return const(a.value / b.value)
    if a is ZERO:
        return ZERO
    if b is ONE:
        return a
    return Expr("div", (a, b))


def ipow(base: Expr, exponent: int) -> Expr:
    """base^exponent for any integer exponent.  A negative power of a, like a
    quotient by a, is defined only where a != 0, so no rule may drop one:
    0^-n stays a node, and (a^m)^n is not merged into a^(m*n) when m and n
    are both negative."""
    if not isinstance(exponent, int):
        raise ValueError(f"integer power wants an int, got {exponent!r}")
    if exponent == 0:
        return ONE
    if exponent == 1:
        return base
    if base.kind == "const" and (exponent > 0 or base.value != 0):
        # the power has at least |exponent|*(bits - 1) bits: 0 and +-1 fold
        # at any exponent, and no power far past CONST_BITS is computed
        bits = max(base.value.numerator.bit_length(), base.value.denominator.bit_length())
        if abs(exponent) * (bits - 1) > CONST_BITS:
            raise ExprError(f"constant of more than {CONST_BITS} bits")
        return const(base.value ** exponent)
    if base.kind == "pow" and (exponent > 0 or base.exponent > 0):
        return ipow(base.args[0], base.exponent * exponent)
    if abs(exponent).bit_length() > CONST_BITS:
        raise ExprError(f"exponent of more than {CONST_BITS} bits")
    return Expr("pow", (base,), exponent=exponent)


def neg(a: Expr) -> Expr:
    if a.kind == "neg":
        return a.args[0]
    if a.kind == "const":
        return const(-a.value)
    if a.kind == "mul" and a.args[0].kind == "const":
        return mul(const(-a.args[0].value), a.args[1])
    return Expr("neg", (a,))


_EXACT_FUNCTION_VALUES = {
    ("sin", Fraction(0)): Fraction(0),
    ("cos", Fraction(0)): Fraction(1),
    ("exp", Fraction(0)): Fraction(1),
    ("log", Fraction(1)): Fraction(0),
    ("sqrt", Fraction(0)): Fraction(0),
    ("sqrt", Fraction(1)): Fraction(1),
}


def _function(kind: str, a: Expr) -> Expr:
    if a.kind == "const":
        hit = _EXACT_FUNCTION_VALUES.get((kind, a.value))
        if hit is not None:
            return const(hit)
    return Expr(kind, (a,))


def sin(a: Expr) -> Expr:
    return _function("sin", a)


def cos(a: Expr) -> Expr:
    return _function("cos", a)


def exp(a: Expr) -> Expr:
    return _function("exp", a)


def log(a: Expr) -> Expr:
    return _function("log", a)


def sqrt(a: Expr) -> Expr:
    return _function("sqrt", a)


# The constructor of each kind of node with arguments but pow, which also
# takes its exponent; the parser looks function names up in _FUNCTIONS.
_FUNCTIONS = {"sin": sin, "cos": cos, "exp": exp, "log": log, "sqrt": sqrt}
_BUILDERS = {"add": add, "sub": sub, "mul": mul, "div": div, "neg": neg, **_FUNCTIONS}


# The integer constants constant folding makes most, built once and kept, so
# const() skips the Fraction and the intern key for them.
_SMALL_CONSTS = {k: Expr("const", value=Fraction(k)) for k in range(-16, 17)}
ZERO = _SMALL_CONSTS[0]
ONE = _SMALL_CONSTS[1]


def free_vars(e: Expr) -> frozenset[str]:
    out = e._free_vars
    if out is None:
        if e.kind == "var":
            out = frozenset((e.name,))
        else:
            out = frozenset()
            for a in e.args:
                out |= free_vars(a)
        _set_slot(e, "_free_vars", out)
    return out


def var_span(e: Expr) -> float:
    """The number n of leading canonical variables e ranges over: 1 + the
    largest i with var_name(i) free in e, 0 if e is closed.  So e is a
    coordinate over R^d exactly when var_span(e) <= d.  A free variable not
    named by var_name fits no dimension and spans math.inf."""
    out = e._var_span
    if out is None:
        if e.kind == "var":
            digits = e.name[1:]
            canonical = (e.name[:1] == "x" and digits.isascii()
                         and digits.isdigit() and digits[0] != "0")
            out = int(digits) if canonical else math.inf
        else:
            out = max(map(var_span, e.args), default=0)
        _set_slot(e, "_var_span", out)
    return out


def subst(e: Expr, mapping: Mapping[str, Expr]) -> Expr:
    """Simultaneous substitution of expressions for variables.  Every node is
    rebuilt through its constructor, so the result is normal; subst(e, {}) is
    the normal form of e, and is e itself when e is normal."""
    return _subst(e, mapping, {})


def _subst(e: Expr, mapping: Mapping[str, Expr], memo: dict) -> Expr:
    """subst, with memo holding each node already rewritten in this call."""
    if e.kind == "var":
        return mapping.get(e.name, e)
    if not e.args:
        return e
    out = memo.get(e)
    if out is None:
        args = [_subst(a, mapping, memo) for a in e.args]
        if e.kind == "pow":
            out = ipow(args[0], e.exponent)
        else:
            out = _BUILDERS[e.kind](*args)
        memo[e] = out
    return out


def vanishing_groups(e: Expr, groups: Mapping[str, int]) -> int:
    """The groups of variables whose replacement by ZERO makes e ZERO, as a
    bit mask.  groups gives a variable the bit of its group (a variable it
    does not name is in none); bit j of the result is set only if subst(e, m)
    is ZERO for every mapping m that sends each variable of group j to ZERO,
    whatever normal expressions it sends the others to.  One walk over e's
    DAG follows the constructors' zero rules: a product vanishes with either
    factor, a sum or difference with both terms, neg, sin, sqrt and a
    positive power with their argument, and a quotient with its numerator.
    ZERO vanishes with every group, and has every bit (-1)."""
    return _vanishing(e, groups, {})


# the one-argument kinds whose constructor takes ZERO to ZERO
_ZERO_AT_ZERO = frozenset(("neg", "sin", "sqrt"))


def _vanishing(e: Expr, groups: Mapping[str, int], memo: dict) -> int:
    """vanishing_groups, with memo holding each node already walked."""
    k = e.kind
    if k == "var":
        return groups.get(e.name, 0)
    if k == "const":
        return -1 if e is ZERO else 0
    out = memo.get(e)
    if out is None:
        if k == "mul":
            out = _vanishing(e.args[0], groups, memo) | _vanishing(e.args[1], groups, memo)
        elif k == "add" or k == "sub":
            out = _vanishing(e.args[0], groups, memo) & _vanishing(e.args[1], groups, memo)
        elif k == "div" or k in _ZERO_AT_ZERO or (k == "pow" and e.exponent > 0):
            out = _vanishing(e.args[0], groups, memo)
        else:
            out = 0
        memo[e] = out
    return out


def node_cache(e: Expr) -> dict:
    """The results kept on e and freed with it: diff's partials by variable
    name, and smooth's derivative tower steps by (dim, vector dim)."""
    cache = e._cache
    if cache is None:
        cache = {}
        _set_slot(e, "_cache", cache)
    return cache


def diff(e: Expr, v: str) -> Expr:
    """Exact symbolic partial derivative with respect to variable v."""
    cache = node_cache(e)
    out = cache.get(v)
    if out is None:
        out = cache[v] = _diff(e, v, {})
    return out


def _diff(e: Expr, v: str, memo: dict) -> Expr:
    """diff, with memo holding each node already differentiated in this
    call."""
    out = memo.get(e)
    if out is None:
        out = memo[e] = _diff_rule(e, v, memo)
    return out


def _diff_rule(e: Expr, v: str, memo: dict) -> Expr:
    k = e.kind
    if k == "var":
        return ONE if e.name == v else ZERO
    if k == "const":
        return ZERO
    if k == "add":
        return add(_diff(e.args[0], v, memo), _diff(e.args[1], v, memo))
    if k == "sub":
        return sub(_diff(e.args[0], v, memo), _diff(e.args[1], v, memo))
    if k == "mul":
        a, b = e.args
        return add(mul(_diff(a, v, memo), b), mul(a, _diff(b, v, memo)))
    if k == "div":
        # a'*b^-1 - a*b'*b^-2: the tower of 1/x holds x^-(k+1), where the
        # quotient form (a'b - ab')/b^2 would square the denominator per order
        a, b = e.args
        return sub(mul(_diff(a, v, memo), ipow(b, -1)),
                   mul(mul(a, _diff(b, v, memo)), ipow(b, -2)))
    if k == "pow":
        (a,) = e.args
        n = e.exponent
        return mul(mul(const(n), ipow(a, n - 1)), _diff(a, v, memo))
    if k == "neg":
        return neg(_diff(e.args[0], v, memo))
    (a,) = e.args
    da = _diff(a, v, memo)
    if k == "sin":
        return mul(cos(a), da)
    if k == "cos":
        return neg(mul(sin(a), da))
    if k == "exp":
        return mul(exp(a), da)
    if k == "log":
        return div(da, a)
    if k == "sqrt":
        return div(da, mul(const(2), sqrt(a)))
    raise ExprError(f"unknown node kind {k!r}")


# --- guards -----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class GuardAtom:
    op: str  # ">0" or "!=0"
    expr: Expr

    def __str__(self):
        rel = ">" if self.op == ">0" else "!="
        return f"{pretty_expr(self.expr)} {rel} 0"


@dataclass(frozen=True, slots=True)
class Guard:
    """Conjunction of strict atoms; the empty conjunction is true."""
    atoms: tuple[GuardAtom, ...] = ()

    def is_true(self) -> bool:
        return not self.atoms

    def __str__(self):
        if self.is_true():
            return "true"
        return " && ".join(str(a) for a in self.atoms)


TRUE_GUARD = Guard()


def _atom_is_trivially_true(atom: GuardAtom) -> bool:
    e = atom.expr
    if e.kind != "const":
        return False
    if atom.op == ">0":
        return e.value > 0
    return e.value != 0


def make_guard(atoms) -> Guard:
    """The normal guard of the atoms: none trivially true, none repeated."""
    seen = []
    for atom in atoms:
        if not _atom_is_trivially_true(atom) and atom not in seen:
            seen.append(atom)
    return Guard(tuple(seen))


def guard_and(g1: Guard, g2: Guard) -> Guard:
    """Conjunction of two normal guards.  The result is
    make_guard(g1.atoms + g2.atoms), built without normalizing again: g1's
    atoms, then those of g2 not among them."""
    if not (g1.atoms or g2.atoms):
        return TRUE_GUARD
    return Guard(g1.atoms + tuple(a for a in g2.atoms if a not in g1.atoms))


def guard_subst(g: Guard, mapping: Mapping[str, Expr]) -> Guard:
    if not g.atoms:
        return TRUE_GUARD
    return make_guard(GuardAtom(a.op, subst(a.expr, mapping)) for a in g.atoms)


def guard_vars(g: Guard) -> frozenset[str]:
    out: frozenset[str] = frozenset()
    for atom in g.atoms:
        out |= free_vars(atom.expr)
    return out


# --- straight-line evaluation -------------------------------------------------

_BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": operator.truediv, "pow": operator.pow}
_UNARY_OPS = {"neg": operator.neg, "sin": math.sin, "cos": math.cos,
              "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
# The exceptions the ops raise, translated into the faults an evaluation
# reports.  Any other exception propagates unchanged.
_FAULTS = {
    (operator.truediv, ZeroDivisionError): "division by zero",
    (operator.pow, ZeroDivisionError): "division by zero",  # 0.0 ** -n
    (operator.pow, OverflowError): "overflow in pow",
    (math.exp, OverflowError): "overflow in exp",
    (math.sin, ValueError): "sin of an infinite argument",
    (math.cos, ValueError): "cos of an infinite argument",
    (math.log, ValueError): "log of non-positive argument",
    (math.sqrt, ValueError): "sqrt of negative argument",
}
_FAULT_FREE_KINDS = frozenset(("const", "var", "add", "sub", "mul", "neg"))

# a guard atom's test, mapped over a column: 0.0 < x is x > 0.0, NaN included
_POSITIVE = (0.0).__lt__
_NONZERO = (0.0).__ne__


def _map_steps(steps, v: list) -> None:
    """Store each (op, a, b, out) step's values at every row in v[out], v a
    list of columns.  A fault raises OutOfDomainError."""
    try:
        for op, a, b, out in steps:
            v[out] = list(map(op, v[a])) if b is None else list(map(op, v[a], v[b]))
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        message = _FAULTS.get((op, type(err)))
        if message is None:
            raise
        raise OutOfDomainError(message) from None


class Tape:
    """A guard and coordinate expressions compiled into straight-line steps
    over one list of slots: the inputs, then the constants, then the
    registers, each slot a column with a value per point.  A step stores its
    column in a slot whose value has been read for the last time, so a run
    holds only the columns still to be read.  Built by compile_tape;
    run_columns is the one evaluator and run_point its view at one point."""

    __slots__ = ("arity", "consts", "registers", "atoms", "steps", "roots")

    def __init__(self, arity, consts, registers, atoms, steps, roots):
        self.arity = arity    # number of input slots
        self.consts = consts  # constant slot values, as floats (pow exponents as ints)
        self.registers = registers  # number of register slots
        self.atoms = atoms    # per guard atom: (steps, root slot, True for "> 0")
        self.steps = steps    # coordinate steps, run after the guard's
        self.roots = roots    # coordinate slots

    def run_point(self, point: Sequence[float]):
        """None where a guard atom is false or faults at the point, the tuple
        of coordinate values there, or the exception evaluating the point
        raises (OutOfDomainError for a fault, UnboundVariableError for a
        point short of the arity; coordinates past it are ignored)."""
        try:
            if len(point) < self.arity:
                raise UnboundVariableError(var_name(len(point)))
            rows, roots = self.run_columns([[float(x)] for x in point[:self.arity]], 1)
        except Exception as err:
            return err
        return tuple(col[0] for col in roots) if rows else None

    def run_columns(self, cols: Sequence[list], n: int) -> tuple[list, list]:
        """The tape over n points given as one column of floats per input:
        the rows (indices into the columns, ascending) where every guard
        atom holds, and one column per coordinate with its values at those
        rows.  Raises what the first failing column op raises, except that
        for a single point a faulting guard atom is false."""
        v = [*cols, *([c] * n for c in self.consts), *repeat((), self.registers)]
        rows = list(range(n))  # the points whose guard atoms have held so far
        for steps, root, positive in self.atoms:
            try:
                _map_steps(steps, v)
            except OutOfDomainError:
                if n == 1:
                    return [], [[] for _ in self.roots]
                raise
            held = list(map(_POSITIVE if positive else _NONZERO, v[root]))
            if not all(held):
                rows = list(compress(rows, held))
                v = [list(compress(col, held)) for col in v]
        _map_steps(self.steps, v)
        return rows, [v[r] for r in self.roots]


def compile_tape(coords: Sequence[Expr], guard: Guard, arity: int) -> Tape:
    """Compile a map's guard atoms (each in turn) and then its coordinates
    over the inputs x1..x{arity}.  Each node gets one step, and equal nodes
    are one object (hash-consing), so each is evaluated once.  A node's
    arguments are evaluated left to right, except that a quotient's
    denominator is tested before its numerator is evaluated; the first fault
    met is the one raised, and a guard atom whose expression faults is false."""
    # Refs below arity are inputs.  Until all constants are known, constant
    # c is ref ~c and step k is ref arity + k; `where` gives the final slots.
    inputs = {var_name(i): i for i in range(arity)}
    memo: dict = {}      # id(node) -> ref
    consts: dict = {}    # (type, value) -> ref; a float 2.0 and an exponent 2 differ
    const_values: list = []
    steps: list = []
    last: dict = {}      # ref -> the last step that reads it

    def constant(value) -> int:
        key = (type(value), value)
        if key not in consts:
            consts[key] = ~len(const_values)
            const_values.append(value)
        return consts[key]

    def emit(step) -> int:
        last[step[1]] = last[step[2]] = len(steps)
        steps.append(step)
        return arity + len(steps) - 1

    def may_fault(e: Expr, walked: set) -> bool:
        """Whether evaluating e can reach a not yet evaluated node that raises."""
        if id(e) in memo or id(e) in walked:
            return False
        walked.add(id(e))
        return e.kind not in _FAULT_FREE_KINDS or any(may_fault(a, walked) for a in e.args)

    def visit(e: Expr) -> int:
        ref = memo.get(id(e))
        if ref is not None:
            return ref
        k = e.kind
        if k == "var":
            if e.name not in inputs:
                raise UnboundVariableError(e.name)
            ref = inputs[e.name]
        elif k == "const":
            ref = constant(float(e.value))
        elif k == "div":
            b = visit(e.args[1])
            # the denominator is tested before the numerator is evaluated:
            # dividing 1.0 by it raises the same fault first
            if may_fault(e.args[0], set()):
                emit((operator.truediv, constant(1.0), b))
            ref = emit((operator.truediv, visit(e.args[0]), b))
        elif k == "pow":
            a = visit(e.args[0])
            ref = emit((operator.pow, a, constant(e.exponent)))
        elif k in _BINARY_OPS:
            a = visit(e.args[0])
            ref = emit((_BINARY_OPS[k], a, visit(e.args[1])))
        else:
            ref = emit((_UNARY_OPS[k], visit(e.args[0]), None))
        memo[id(e)] = ref
        return ref

    atoms = [(len(steps), visit(atom.expr), atom.op == ">0") for atom in guard.atoms]
    guard_end = len(steps)
    coord_refs = [visit(e) for e in coords]
    # visit and may_fault reach themselves through their cells: emptying the
    # cells frees the compile tables now, not at the next cycle collection
    visit = may_fault = None

    ends = [start for start, _, _ in atoms[1:]] + [guard_end]
    # an atom's test reads its root before the next step runs, and the
    # coordinates are read after the last step
    for (_, root, _), end in zip(atoms, ends):
        last[root] = max(last.get(root, end), end)
    last.update((r, len(steps)) for r in coord_refs)
    # Each step stores its value in a slot whose value was read for the last
    # time at or before it (the slot of an input or constant included), or
    # else in a new register; a value nothing reads frees its slot at once.
    base = arity + len(const_values)
    where = [*range(arity), *repeat(None, len(steps)), *range(base - 1, arity - 1, -1)]
    free: list = []
    placed = []
    top = base
    for k, (op, a, b) in enumerate(steps):
        pa = where[a]
        pb = None if b is None else where[b]
        if last[a] == k:
            free.append(pa)
        if b is not None and b != a and last[b] == k:
            free.append(pb)
        if free:
            out = free.pop()
        else:
            out, top = top, top + 1
        where[arity + k] = out
        placed.append((op, pa, pb, out))
        if arity + k not in last:
            free.append(out)
    return Tape(
        arity,
        tuple(const_values),
        top - base,
        tuple((tuple(placed[start:end]), where[root], positive)
              for (start, root, positive), end in zip(atoms, ends)),
        tuple(placed[guard_end:]),
        tuple(where[r] for r in coord_refs))


# --- parsing ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


_OPERATORS = ("->", "!=", "&&", "+", "-", "*", "/", "^", "(", ")", ",", ">")
# ASCII digits only: str.isdigit also takes "²", which int() refuses
_NUMBER = re.compile(r"[0-9]+(\.[0-9]+)?")


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    line, col, i = 1, 1, 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c.isspace():
            i += 1
            col += 1
            continue
        number = _NUMBER.match(text, i)
        if number:
            tokens.append(Token("num", number.group(), line, col))
            col += number.end() - i
            i = number.end()
            continue
        if c.isalpha() or c == "_":
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(Token("ident", text[i:j], line, col))
            col += j - i
            i = j
            continue
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(Token("op", op, line, col))
                i += len(op)
                col += len(op)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


@dataclass(frozen=True, slots=True)
class ParsedMap:
    """A map literal: arities, coordinate expressions and guard over the
    canonical variables x1..xn."""
    arity_in: int
    coords: tuple[Expr, ...]
    guard: Guard

    @property
    def arity_out(self) -> int:
        return len(self.coords)


class _Parser:
    def __init__(self, text: str):
        self.tokens = tokenize(text)
        self.pos = 0
        # a map literal's parameters, each to its canonical variable; None
        # (a bare expression) takes every name as a variable of that name
        self.names: dict[str, Expr] | None = None
        self.scope = ""  # where names are being read: "map body" or "guard"
        # while a map body is read: the domain atom of each operation read,
        # in reading order (see map_literal)
        self.domain: list[GuardAtom] | None = None

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def next(self) -> Token:
        t = self.tokens[self.pos]
        self.pos += 1
        return t

    def error(self, message: str, token: Token | None = None):
        t = token or self.peek()
        raise ParseError(message, t.line, t.col)

    def expect_op(self, op: str) -> Token:
        t = self.peek()
        if t.kind != "op" or t.text != op:
            self.error(f"expected {op!r}, found {t.text or 'end of input'!r}")
        return self.next()

    def accept_op(self, op: str) -> bool:
        t = self.peek()
        if t.kind == "op" and t.text == op:
            self.next()
            return True
        return False

    def note(self, op: str, e: Expr):
        """Record the atom under which an operation just read is defined: a
        quotient's denominator and a negative power's base != 0, a log or
        sqrt argument > 0."""
        if self.domain is not None:
            self.domain.append(GuardAtom(op, e))

    def number(self, t: Token) -> Fraction:
        try:
            return Fraction(t.text)
        except ValueError:  # past int's limit on digits converted
            self.error(f"number of {len(t.text)} characters is too long", t)

    def expect_ident(self) -> Token:
        t = self.peek()
        if t.kind != "ident":
            self.error(f"expected identifier, found {t.text or 'end of input'!r}")
        return self.next()

    # expr := term (("+"|"-") term)*
    def expr(self) -> Expr:
        e = self.term()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in ("+", "-"):
                self.next()
                rhs = self.term()
                e = add(e, rhs) if t.text == "+" else sub(e, rhs)
            else:
                return e

    # term := factor (("*"|"/") factor)*
    def term(self) -> Expr:
        e = self.factor()
        while True:
            t = self.peek()
            if t.kind == "op" and t.text in ("*", "/"):
                self.next()
                rhs = self.factor()
                if t.text == "*":
                    e = mul(e, rhs)
                else:
                    self.note("!=0", rhs)
                    e = div(e, rhs)
            else:
                return e

    # factor := ["-"] atom ["^" ["-"] nat]
    def factor(self) -> Expr:
        negated = self.accept_op("-")
        e = self.atom()
        if self.accept_op("^"):
            sign = -1 if self.accept_op("-") else 1
            t = self.peek()
            if t.kind != "num" or "." in t.text:
                self.error("power wants an integer exponent, such as 2 or -1")
            self.next()
            e = ipow(e, sign * int(self.number(t)))
            if e.kind == "pow" and e.exponent < 0:
                self.note("!=0", e.args[0])
        return neg(e) if negated else e

    # atom := number | ident | func "(" expr ")" | "(" expr ")"
    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return const(self.number(t))
        if t.kind == "ident":
            self.next()
            build = _FUNCTIONS.get(t.text)
            if build is not None:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                if t.text in ("log", "sqrt"):
                    self.note(">0", inner)
                return build(inner)
            if self.names is None:
                return var(t.text)
            v = self.names.get(t.text)
            if v is None:
                raise UnboundVariableError(f"unbound variable {t.text!r} in {self.scope}")
            return v
        if t.kind == "op" and t.text == "(":
            self.next()
            inner = self.expr()
            self.expect_op(")")
            return inner
        self.error(f"expected expression, found {t.text or 'end of input'!r}")

    # gatom := expr ">" "0" | expr "!=" "0"
    def gatom(self) -> GuardAtom:
        e = self.expr()
        t = self.peek()
        if t.kind == "op" and t.text in (">", "!="):
            self.next()
            z = self.peek()
            if z.kind != "num" or self.number(z) != 0:
                self.error("guard atoms compare against literal 0")
            self.next()
            return GuardAtom(">0" if t.text == ">" else "!=0", e)
        self.error("expected '> 0' or '!= 0' in guard")

    def guard(self) -> list[GuardAtom]:
        atoms = [self.gatom()]
        while self.accept_op("&&"):
            atoms.append(self.gatom())
        return atoms

    def map_literal(self) -> ParsedMap:
        t = self.expect_ident()
        if t.text != "fn":
            self.error("map must start with 'fn'", t)
        self.expect_op("(")
        params = [self.expect_ident().text]
        while self.accept_op(","):
            params.append(self.expect_ident().text)
        self.expect_op(")")
        if len(set(params)) != len(params):
            self.error("duplicate parameter name")
        self.names = {p: var(var_name(i)) for i, p in enumerate(params)}
        self.scope = "map body"
        self.domain = []
        self.expect_op("->")
        self.expect_op("(")
        coords = [self.expr()]
        while self.accept_op(","):
            coords.append(self.expr())
        self.expect_op(")")
        read, self.domain = self.domain, None
        atoms = []
        t = self.peek()
        if t.kind == "ident" and t.text == "where":
            self.next()
            self.scope = "guard"
            atoms = self.guard()
        end = self.peek()
        if end.kind != "eof":
            self.error(f"unexpected trailing input {end.text!r}")
        # the map is smooth wherever its guard holds: the where atoms, then
        # the atom of each quotient, negative power, log and sqrt as it was
        # read, also of those the normal form dropped (0*(1/x) is 0)
        return ParsedMap(len(params), tuple(coords), make_guard(atoms + read))


def var_name(i: int) -> str:
    """Canonical name of the i-th (0-based) variable: x1, x2, ..."""
    return f"x{i + 1}"


def shift_vars(count: int, offset: int) -> dict[str, Expr]:
    """The renaming x_k -> x_{offset+k} of the first count variables: moves a
    block of coordinates to start at position offset of a product."""
    return {var_name(k): var(var_name(offset + k)) for k in range(count)}


def parse_map(text: str) -> ParsedMap:
    """Parse 'fn(a,b) -> (e1,e2) where g' into canonical x1..xn variables."""
    return _Parser(text).map_literal()


def parse_expression(text: str) -> Expr:
    """Parse a bare expression (test and tooling convenience)."""
    p = _Parser(text)
    e = p.expr()
    if p.peek().kind != "eof":
        p.error("unexpected trailing input")
    return e


# --- pretty printing ----------------------------------------------------------

_PREC_ADD, _PREC_MUL, _PREC_UNARY, _PREC_ATOM = 1, 2, 3, 4


def _precedence(e: Expr) -> int:
    k = e.kind
    if k in ("add", "sub"):
        return _PREC_ADD
    if k in ("mul", "div"):
        return _PREC_MUL
    if k == "neg":
        return _PREC_UNARY
    if k == "const":
        if e.value < 0:
            return _PREC_UNARY
        if e.value.denominator != 1:
            return _PREC_MUL  # prints as p/q
        return _PREC_ATOM
    return _PREC_ATOM  # var, pow, functions


def _paren(e: Expr, min_prec: int) -> str:
    s = pretty_expr(e)
    return f"({s})" if _precedence(e) < min_prec else s


def pretty_expr(e: Expr) -> str:
    """Grammar-conforming text; parse_expression(pretty_expr(e)) is e."""
    k = e.kind
    if k == "var":
        return e.name
    if k == "const":
        v = e.value
        if v < 0:
            return f"-{_paren(const(-v), _PREC_ATOM)}"
        if v.denominator == 1:
            return str(v.numerator)
        return f"{v.numerator}/{v.denominator}"
    if k == "add":
        return f"{_paren(e.args[0], _PREC_ADD)} + {_paren(e.args[1], _PREC_ADD + 1)}"
    if k == "sub":
        return f"{_paren(e.args[0], _PREC_ADD)} - {_paren(e.args[1], _PREC_ADD + 1)}"
    if k == "mul":
        return f"{_paren(e.args[0], _PREC_MUL)}*{_paren(e.args[1], _PREC_MUL + 1)}"
    if k == "div":
        return f"{_paren(e.args[0], _PREC_MUL)}/{_paren(e.args[1], _PREC_MUL + 1)}"
    if k == "pow":
        base = e.args[0]
        s = pretty_expr(base)
        if base.kind == "pow" or _precedence(base) < _PREC_ATOM:
            s = f"({s})"
        return f"{s}^{e.exponent}"
    if k == "neg":
        return f"-{_paren(e.args[0], _PREC_ATOM)}"
    return f"{k}({pretty_expr(e.args[0])})"


def pretty_map(arity_in: int, coords, guard: Guard) -> str:
    params = ", ".join(var_name(i) for i in range(arity_in))
    body = ", ".join(pretty_expr(e) for e in coords)
    text = f"fn({params}) -> ({body})"
    if not guard.is_true():
        text += f" where {guard}"
    return text
