"""Symbolic expression trees over real variables, with guards for open domains.

The node set {+, -, *, /, integer power, neg, sin, cos, exp, log, sqrt} is
closed under exact differentiation.  Guards are conjunctions of strict atoms
(e > 0, e != 0); they describe open sets and compose under substitution, so a
map stays smooth on its guard by construction.
"""

from __future__ import annotations

import math
import operator
import weakref
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
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


FUNCTION_KINDS = ("sin", "cos", "exp", "log", "sqrt")


# The intern table: every live node, keyed by its structure with the
# arguments given by id (a live node keeps its arguments alive, so their ids
# are not reused while its entry stands).  It holds each node by a weak
# reference whose callback drops the entry and holds no node strongly, so a
# node and the results cached on it go when nothing else refers to it.
_NODES: dict = {}
_set_slot = object.__setattr__  # writes a node slot past Expr.__setattr__


class Expr:
    """An immutable expression node, hash-consed (Filliâtre & Conchon,
    *Type-safe modular hash-consing*, 2006): Expr(...) returns the live node
    of the same structure if there is one, so structurally equal nodes are
    one object and == is identity.  The private slots cache the node's
    free_vars, var_span, simplify and diff results.  Construction is not
    thread-safe: two threads could each build a node of the same structure."""

    __slots__ = ("kind", "args", "name", "value", "exponent", "_hash",
                 "_free_vars", "_var_span", "_simplified", "_simplified_once",
                 "_diffs", "__weakref__")

    def __new__(cls, kind: str, args: tuple["Expr", ...] = (), name: str = "",
                value: Fraction | None = None, exponent: int = 0):
        key = (kind, tuple(map(id, args)), name, value, exponent)
        ref = _NODES.get(key)
        node = ref() if ref is not None else None
        if node is None:
            node = object.__new__(cls)
            _set_slot(node, "kind", kind)
            _set_slot(node, "args", args)
            _set_slot(node, "name", name)
            _set_slot(node, "value", value)
            _set_slot(node, "exponent", exponent)
            _set_slot(node, "_hash", hash((kind, args, name, value, exponent)))
            _set_slot(node, "_free_vars", None)
            _set_slot(node, "_var_span", None)
            _set_slot(node, "_simplified", None)
            _set_slot(node, "_simplified_once", None)
            _set_slot(node, "_diffs", None)
            _NODES[key] = weakref.ref(node, partial(_NODES.pop, key))
        return node

    def __setattr__(self, name, value):
        raise AttributeError(f"Expr nodes are immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"Expr nodes are immutable; cannot delete {name!r}")

    def __hash__(self):
        return self._hash

    def __reduce__(self):
        return (Expr, (self.kind, self.args, self.name, self.value, self.exponent))

    def __repr__(self):
        return (f"Expr({self.kind!r}, {self.args!r}, {self.name!r}, "
                f"{self.value!r}, {self.exponent!r})")

    def __str__(self):
        return pretty_expr(self)


def var(name: str) -> Expr:
    return Expr("var", name=name)


def const(value) -> Expr:
    node = _SMALL_CONSTS.get(value)  # an integral Fraction hashes as its int
    return node if node is not None else Expr("const", value=Fraction(value))


def add(a: Expr, b: Expr) -> Expr:
    return Expr("add", (a, b))


def sub(a: Expr, b: Expr) -> Expr:
    return Expr("sub", (a, b))


def mul(a: Expr, b: Expr) -> Expr:
    return Expr("mul", (a, b))


def div(a: Expr, b: Expr) -> Expr:
    return Expr("div", (a, b))


def ipow(base: Expr, exponent: int) -> Expr:
    if not isinstance(exponent, int) or exponent < 0:
        raise ValueError(f"integer power wants a non-negative int, got {exponent!r}")
    return Expr("pow", (base,), exponent=exponent)


def neg(a: Expr) -> Expr:
    return Expr("neg", (a,))


def sin(a: Expr) -> Expr:
    return Expr("sin", (a,))


def cos(a: Expr) -> Expr:
    return Expr("cos", (a,))


def exp(a: Expr) -> Expr:
    return Expr("exp", (a,))


def log(a: Expr) -> Expr:
    return Expr("log", (a,))


def sqrt(a: Expr) -> Expr:
    return Expr("sqrt", (a,))


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
    """Simultaneous substitution of expressions for variables (no simplify)."""
    return _subst(e, mapping, {})


def _subst(e: Expr, mapping: Mapping[str, Expr], memo: dict) -> Expr:
    """subst, with memo holding each node already rewritten in this call."""
    if e.kind == "var":
        return mapping.get(e.name, e)
    if not e.args:
        return e
    out = memo.get(e)
    if out is None:
        args = tuple([_subst(a, mapping, memo) for a in e.args])
        out = memo[e] = Expr(e.kind, args, e.name, e.value, e.exponent)
    return out


def diff(e: Expr, v: str) -> Expr:
    """Exact symbolic partial derivative with respect to variable v."""
    diffs = e._diffs
    if diffs is None:
        diffs = {}
        _set_slot(e, "_diffs", diffs)
    out = diffs.get(v)
    if out is None:
        out = diffs[v] = simplify(_diff(e, v, {}))
    return out


def _diff(e: Expr, v: str, memo: dict) -> Expr:
    """The unsimplified derivative, with memo holding each node already
    differentiated in this call."""
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
        a, b = e.args
        return div(sub(mul(_diff(a, v, memo), b), mul(a, _diff(b, v, memo))), ipow(b, 2))
    if k == "pow":
        (a,) = e.args
        n = e.exponent
        if n == 0:
            return ZERO
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


def simplify(e: Expr) -> Expr:
    """Small fixed rewrite set: constant folding plus unit/zero eliminations.
    Semantics-preserving on the guard of any enclosing map; guards are carried
    separately, so dropping a fault-capable subterm (0 * e) is sound here."""
    out = e._simplified
    if out is None:
        out = _simplify_once(e)
        while True:
            nxt = _simplify_once(out)
            if nxt is out:
                break
            out = nxt
        _set_slot(e, "_simplified", out)
    return out


def _simplify_once(e: Expr) -> Expr:
    """One bottom-up rewrite pass, cached on the node."""
    if not e.args:
        return e
    out = e._simplified_once
    if out is None:
        out = _rewrite(e, tuple(map(_simplify_once, e.args)))
        _set_slot(e, "_simplified_once", out)
    return out


def _rewrite(e: Expr, args: tuple[Expr, ...]) -> Expr:
    """e's rewrite, given its arguments already rewritten."""
    k = e.kind
    if k in ("add", "sub", "mul", "div"):
        return _simplify_binary(k, args[0], args[1])
    if k == "pow":
        return _simplify_pow(args[0], e.exponent)
    if k == "neg":
        a = args[0]
        if a.kind == "neg":
            return a.args[0]
        if a.kind == "const":
            return const(-a.value)
        if a.kind == "mul" and a.args[0].kind == "const":
            return mul(const(-a.args[0].value), a.args[1])
        return neg(a)
    return _simplify_function(k, args[0])


def _simplify_binary(k: str, a: Expr, b: Expr) -> Expr:
    ac = a.kind == "const"
    bc = b.kind == "const"
    if k == "add":
        if ac and bc:
            return const(a.value + b.value)
        if a is ZERO:
            return b
        if b is ZERO:
            return a
        return add(a, b)
    if k == "sub":
        if ac and bc:
            return const(a.value - b.value)
        if b is ZERO:
            return a
        if a is ZERO:
            return neg(b)
        if a is b:
            return ZERO
        return sub(a, b)
    if k == "mul":
        if ac and bc:
            return const(a.value * b.value)
        if a is ZERO or b is ZERO:
            return ZERO
        if a is ONE:
            return b
        if b is ONE:
            return a
        # keep constants on the left and fold nested constant factors
        if bc and not ac:
            a, b = b, a
            ac, bc = bc, ac
        if ac and b.kind == "mul" and b.args[0].kind == "const":
            return mul(const(a.value * b.args[0].value), b.args[1])
        return mul(a, b)
    # k == "div"
    if ac and bc and b.value != 0:
        return const(a.value / b.value)
    if a is ZERO:
        return ZERO
    if b is ONE:
        return a
    return div(a, b)


def _simplify_pow(a: Expr, n: int) -> Expr:
    if n == 0:
        return ONE
    if n == 1:
        return a
    if a.kind == "const":
        return const(a.value ** n)
    if a.kind == "pow":
        return ipow(a.args[0], a.exponent * n)
    return ipow(a, n)


_EXACT_FUNCTION_VALUES = {
    ("sin", Fraction(0)): Fraction(0),
    ("cos", Fraction(0)): Fraction(1),
    ("exp", Fraction(0)): Fraction(1),
    ("log", Fraction(1)): Fraction(0),
    ("sqrt", Fraction(0)): Fraction(0),
    ("sqrt", Fraction(1)): Fraction(1),
}


def _simplify_function(k: str, a: Expr) -> Expr:
    if a.kind == "const":
        hit = _EXACT_FUNCTION_VALUES.get((k, a.value))
        if hit is not None:
            return const(hit)
    return Expr(k, (a,))


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


def _normalize_atoms(atoms) -> tuple[GuardAtom, ...]:
    seen = []
    for atom in atoms:
        atom = GuardAtom(atom.op, simplify(atom.expr))
        if _atom_is_trivially_true(atom):
            continue
        if atom not in seen:
            seen.append(atom)
    return tuple(seen)


def make_guard(atoms) -> Guard:
    return Guard(_normalize_atoms(atoms))


def guard_and(g1: Guard, g2: Guard) -> Guard:
    """Conjunction of two normal guards: atoms simplified, none trivially
    true, none repeated, as make_guard leaves them (a bare variable atom is
    normal too).  The result is make_guard(g1.atoms + g2.atoms), built
    without normalizing again: g1's atoms, then those of g2 not among them."""
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


def domain_atoms(e: Expr) -> tuple[GuardAtom, ...]:
    """Guard atoms under which every primitive on the path is defined and
    smooth: denominators != 0, log/sqrt arguments > 0."""
    out: list[GuardAtom] = []
    seen: set = set()

    def walk(node: Expr):
        # a node walked before added its atoms then, so it is skipped
        if node in seen:
            return
        seen.add(node)
        for a in node.args:
            walk(a)
        if node.kind == "div":
            out.append(GuardAtom("!=0", node.args[1]))
        elif node.kind in ("log", "sqrt"):
            out.append(GuardAtom(">0", node.args[0]))

    walk(e)
    return tuple(out)


# --- straight-line evaluation -------------------------------------------------

_BINARY_OPS = {"add": operator.add, "sub": operator.sub, "mul": operator.mul,
               "div": operator.truediv, "pow": operator.pow}
_UNARY_OPS = {"neg": operator.neg, "sin": math.sin, "cos": math.cos,
              "exp": math.exp, "log": math.log, "sqrt": math.sqrt}
# The exceptions the ops raise, translated into the faults an evaluation
# reports.  Any other exception propagates unchanged.
_FAULTS = {
    (operator.truediv, ZeroDivisionError): "division by zero",
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
    """Append each (op, a, b) step's values at every row to v, a list of
    columns.  A fault raises OutOfDomainError."""
    append = v.append
    try:
        for op, a, b in steps:
            append(list(map(op, v[a])) if b is None else list(map(op, v[a], v[b])))
    except (ZeroDivisionError, OverflowError, ValueError) as err:
        message = _FAULTS.get((op, type(err)))
        if message is None:
            raise
        raise OutOfDomainError(message) from None


class Tape:
    """A guard and coordinate expressions compiled into straight-line steps
    over one list of slots: the inputs, then the constants, then one slot per
    step.  Built by compile_tape."""

    __slots__ = ("arity", "consts", "atoms", "steps", "roots")

    def __init__(self, arity, consts, atoms, steps, roots):
        self.arity = arity    # number of input slots
        self.consts = consts  # constant slot values, as floats (pow exponents as ints)
        self.atoms = atoms    # per guard atom: (steps, root slot, True for "> 0")
        self.steps = steps    # coordinate steps, run after the guard's
        self.roots = roots    # coordinate slots

    def run_batch(self, points: Sequence[Sequence[float]]) -> list:
        """Per point: None where a guard atom is false or faults, the tuple
        of coordinate values, or the exception evaluating that point raises
        (OutOfDomainError for a fault, UnboundVariableError for a point short
        of the arity; coordinates past it are ignored).  The points are
        evaluated a column at a time; if any column op raises, every point is
        redone as a batch of its own, so each fault belongs to the point that
        raised it."""
        try:
            return self._columns(points)
        except Exception:
            return [self._alone(point) for point in points]

    def _alone(self, point):
        try:
            return self._columns((point,))[0]
        except Exception as err:
            return err

    def _columns(self, points) -> list:
        """run_batch with one list per slot, a value per point; raises what
        the first failing column op raises, except that in a batch of one
        point a faulting guard atom is false."""
        n = len(points)
        cols = list(zip(*points))
        if n and len(cols) < self.arity:
            raise UnboundVariableError(var_name(len(cols)))
        v = [list(map(float, col)) for col in cols[:self.arity]]
        v += [[c] * n for c in self.consts]
        rows = range(n)  # the points whose guard atoms have held so far
        for steps, root, positive in self.atoms:
            try:
                _map_steps(steps, v)
            except OutOfDomainError:
                if n == 1:
                    return [None]
                raise
            held = list(map(_POSITIVE if positive else _NONZERO, v[root]))
            if not all(held):
                rows = list(compress(rows, held))
                v = [list(compress(col, held)) for col in v]
        _map_steps(self.steps, v)
        out = [None] * n
        values = zip(*[v[r] for r in self.roots]) if self.roots else repeat(())
        for i, value in zip(rows, values):
            out[i] = value
        return out


def compile_tape(coords: Sequence[Expr], guard: Guard, arity: int) -> Tape:
    """Compile a map's guard atoms (each in turn) and then its coordinates
    over the inputs x1..x{arity}.  Structurally equal nodes share one step
    (value numbering), so each is evaluated once.  A node's arguments are
    evaluated left to right, except that a quotient's denominator is tested
    before its numerator is evaluated; the first fault met is the one
    raised, and a guard atom whose expression faults is false."""
    # Refs below arity are inputs.  Until all constants are known, constant
    # c is ref ~c and step k is ref arity + k; place() gives the final slots.
    inputs = {var_name(i): i for i in range(arity)}
    memo: dict = {}      # id(node) -> ref
    numbered: dict = {}  # (op, a, b) -> ref
    consts: dict = {}    # (type, value) -> ref; a float 2.0 and an exponent 2 differ
    const_values: list = []
    steps: list = []

    def constant(value) -> int:
        key = (type(value), value)
        if key not in consts:
            consts[key] = ~len(const_values)
            const_values.append(value)
        return consts[key]

    def emit(step) -> int:
        ref = numbered.get(step)
        if ref is None:
            ref = numbered[step] = arity + len(steps)
            steps.append(step)
        return ref

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

    n_consts = len(const_values)

    def place(ref):
        if ref is None or 0 <= ref < arity:
            return ref
        return arity + ~ref if ref < 0 else ref + n_consts

    placed = [(op, place(a), place(b)) for op, a, b in steps]
    ends = [start for start, _, _ in atoms[1:]] + [guard_end]
    return Tape(
        arity,
        tuple(const_values),
        tuple((tuple(placed[start:end]), place(root), positive)
              for (start, root, positive), end in zip(atoms, ends)),
        tuple(placed[guard_end:]),
        tuple(place(r) for r in coord_refs))


# --- parsing ----------------------------------------------------------------

@dataclass(frozen=True, slots=True)
class Token:
    kind: str  # "num" | "ident" | "op" | "eof"
    text: str
    line: int
    col: int


_OPERATORS = ("->", "!=", "&&", "+", "-", "*", "/", "^", "(", ")", ",", ">")


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
        if c.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            if j < n and text[j] == "." and j + 1 < n and text[j + 1].isdigit():
                j += 1
                while j < n and text[j].isdigit():
                    j += 1
            tokens.append(Token("num", text[i:j], line, col))
            col += j - i
            i = j
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
                e = mul(e, rhs) if t.text == "*" else div(e, rhs)
            else:
                return e

    # factor := ["-"] atom ["^" nat]
    def factor(self) -> Expr:
        negated = self.accept_op("-")
        e = self.atom()
        if self.accept_op("^"):
            t = self.peek()
            if t.kind != "num" or "." in t.text:
                self.error("power wants a non-negative integer exponent")
            self.next()
            e = ipow(e, int(t.text))
        return neg(e) if negated else e

    # atom := number | ident | func "(" expr ")" | "(" expr ")"
    def atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return const(Fraction(t.text))
        if t.kind == "ident":
            self.next()
            if t.text in FUNCTION_KINDS:
                self.expect_op("(")
                inner = self.expr()
                self.expect_op(")")
                return Expr(t.text, (inner,))
            return var(t.text)
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
            if z.kind != "num" or Fraction(z.text) != 0:
                self.error("guard atoms compare against literal 0")
            self.next()
            return GuardAtom(">0" if t.text == ">" else "!=0", e)
        self.error("expected '> 0' or '!= 0' in guard")

    def guard(self) -> Guard:
        atoms = [self.gatom()]
        while self.accept_op("&&"):
            atoms.append(self.gatom())
        return make_guard(atoms)

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
        self.expect_op("->")
        self.expect_op("(")
        coords = [self.expr()]
        while self.accept_op(","):
            coords.append(self.expr())
        self.expect_op(")")
        guard = TRUE_GUARD
        t = self.peek()
        if t.kind == "ident" and t.text == "where":
            self.next()
            guard = self.guard()
        end = self.peek()
        if end.kind != "eof":
            self.error(f"unexpected trailing input {end.text!r}")
        return _canonicalize(params, coords, guard)


def _canonicalize(params, coords, guard) -> ParsedMap:
    allowed = set(params)
    for e in coords:
        for name in sorted(free_vars(e) - allowed):
            raise UnboundVariableError(f"unbound variable {name!r} in map body")
    for name in sorted(guard_vars(guard) - allowed):
        raise UnboundVariableError(f"unbound variable {name!r} in guard")
    rename = {p: var(var_name(i)) for i, p in enumerate(params)}
    coords = tuple(simplify(subst(e, rename)) for e in coords)
    guard = guard_subst(guard, rename)
    # denominators and log/sqrt arguments contribute guard atoms so the map
    # is smooth everywhere its guard holds
    atoms = list(guard.atoms)
    for e in coords:
        atoms.extend(domain_atoms(e))
    return ParsedMap(len(params), coords, make_guard(atoms))


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
    """Grammar-conforming text; parse(pretty(e)) equals e after simplify."""
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
