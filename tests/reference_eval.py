"""The tree evaluator: a recursive walk of an expression at a point given as
a variable -> value mapping.  The package evaluates only through compiled
tapes (expr.compile_tape, Tape.run_columns); this walk is the reference the
tape must match bit for bit, faults and their order included."""

from __future__ import annotations

import math
from typing import Mapping

from faadibruno.expr import (
    Expr,
    ExprError,
    Guard,
    OutOfDomainError,
    UnboundVariableError,
)

Env = Mapping[str, float]


def eval_expr(e: Expr, env: Env) -> float:
    """Evaluate to an IEEE double.  Raises OutOfDomainError on domain faults
    (division by zero, a negative power of zero, log of non-positive, sqrt of negative, overflow) and
    UnboundVariableError for variables missing from env."""
    k = e.kind
    if k == "const":
        return float(e.value)
    if k == "var":
        try:
            return env[e.name]
        except KeyError:
            raise UnboundVariableError(e.name) from None
    if k == "add":
        return eval_expr(e.args[0], env) + eval_expr(e.args[1], env)
    if k == "sub":
        return eval_expr(e.args[0], env) - eval_expr(e.args[1], env)
    if k == "mul":
        return eval_expr(e.args[0], env) * eval_expr(e.args[1], env)
    if k == "div":
        d = eval_expr(e.args[1], env)
        if d == 0.0:
            raise OutOfDomainError("division by zero")
        return eval_expr(e.args[0], env) / d
    if k == "pow":
        x = eval_expr(e.args[0], env)
        try:
            return x ** e.exponent
        except ZeroDivisionError:  # 0.0 to a negative power
            raise OutOfDomainError("division by zero") from None
        except OverflowError:
            raise OutOfDomainError("overflow in pow") from None
    if k == "neg":
        return -eval_expr(e.args[0], env)
    x = eval_expr(e.args[0], env)
    try:
        if k == "sin":
            return math.sin(x)
        if k == "cos":
            return math.cos(x)
        if k == "exp":
            return math.exp(x)
        if k == "log":
            if x <= 0.0:
                raise OutOfDomainError("log of non-positive argument")
            return math.log(x)
        if k == "sqrt":
            if x < 0.0:
                raise OutOfDomainError("sqrt of negative argument")
            return math.sqrt(x)
    except OverflowError:
        raise OutOfDomainError(f"overflow in {k}") from None
    except ValueError:  # math.sin/math.cos of an infinity
        raise OutOfDomainError(f"{k} of an infinite argument") from None
    raise ExprError(f"unknown node kind {k!r}")


def guard_eval(g: Guard, env: Env) -> bool:
    """An atom whose expression faults is false: the point is outside the
    open set the atom describes."""
    for atom in g.atoms:
        try:
            v = eval_expr(atom.expr, env)
        except OutOfDomainError:
            return False
        if atom.op == ">0":
            if not v > 0.0:
                return False
        else:
            if v == 0.0:
                return False
    return True
