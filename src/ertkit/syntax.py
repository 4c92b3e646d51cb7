"""Abstract syntax for programs, distribution expressions, and run-time
expressions, plus pretty-printers and small tree utilities.

Every node is a `kernel.Record`: an immutable object with structural
equality, so parsed and programmatically built trees compare naturally.  Evaluators key caches on
object identity, never on structural hashes of deep trees.
"""
from __future__ import annotations

from fractions import Fraction
from typing import List, Tuple, Union

from .kernel import Record

_set = object.__setattr__


# ---------------------------------------------------------------------------
# integer/boolean expressions (used in programs, guards, indices, indicators)


class IntLit(Record):
    __slots__ = ("value",)


class BoolLit(Record):
    __slots__ = ("value",)


class VarRef(Record):
    __slots__ = ("name",)


class CellRef(Record):
    __slots__ = ("name", "index")


class BinOp(Record):
    __slots__ = ("op", "left", "right")  # op: + - *


class Cmp(Record):
    __slots__ = ("op", "left", "right")  # op: = != < <= > >=


class And(Record):
    __slots__ = ("left", "right")


class Or(Record):
    __slots__ = ("left", "right")


class Not(Record):
    __slots__ = ("arg",)


Expr = Union[IntLit, BoolLit, VarRef, CellRef, BinOp, Cmp, And, Or, Not]


# ---------------------------------------------------------------------------
# distribution expressions


class ArrayLit(Record):
    __slots__ = ("items",)  # a tuple of Expr


class WeightedList(Record):
    # entries: (probability, value expression); probabilities sum to 1
    __slots__ = ("entries",)

    def __init__(self, entries: Tuple[Tuple[Fraction, Expr], ...]):
        _set(self, "entries", tuple(
            (p if type(p) is Fraction else Fraction(p), e) for p, e in entries
        ))


class Uniform(Record):
    __slots__ = ("lo", "hi")


class Dirac(Record):
    __slots__ = ("value",)  # an Expr or an ArrayLit


DistExpr = Union[WeightedList, Uniform, Dirac]


# ---------------------------------------------------------------------------
# assignment targets


class VarTarget(Record):
    __slots__ = ("name",)


class CellTarget(Record):
    __slots__ = ("name", "index")


# ---------------------------------------------------------------------------
# programs


class Empty(Record):
    __slots__ = ()


class Skip(Record):
    __slots__ = ()


class Halt(Record):
    __slots__ = ()


class ProbAssign(Record):
    __slots__ = ("target", "dist")  # a VarTarget or a CellTarget, a DistExpr


class Seq(Record):
    __slots__ = ("first", "second")


class NdChoice(Record):
    __slots__ = ("left", "right")


class If(Record):
    __slots__ = ("guard", "then", "orelse")


class While(Record):
    __slots__ = ("guard", "body")


class WhileBounded(Record):
    __slots__ = ("bound", "guard", "body")  # bound: an int


class Annotated(Record):
    # bound: a certified lower bound on the loop's run-time under the zero
    # post-run-time, which the transformer may stand in for the loop there
    __slots__ = ("loop", "bound")


Program = Union[Empty, Skip, Halt, ProbAssign, Seq, NdChoice, If, While, WhileBounded, Annotated]


# ---------------------------------------------------------------------------
# run-time expressions


class RLit(Record):
    __slots__ = ("value",)

    def __init__(self, value: Fraction):
        if type(value) is not Fraction:
            value = Fraction(value)
        if value.numerator < 0:
            raise ValueError("run-time literals are non-negative")
        _set(self, "value", value)


class RInf(Record):
    __slots__ = ()


class RVar(Record):
    __slots__ = ("name",)


class RCell(Record):
    __slots__ = ("name", "index")


class Indicator(Record):
    __slots__ = ("cond",)


class RAdd(Record):
    __slots__ = ("left", "right")


class RMonus(Record):
    __slots__ = ("left", "right")


class RMul(Record):
    __slots__ = ("left", "right")


class RDiv(Record):
    __slots__ = ("left", "right")


class RPow(Record):
    __slots__ = ("base", "exponent")  # exponent: must evaluate to a natural number


class RMin(Record):
    __slots__ = ("left", "right")


class RMax(Record):
    __slots__ = ("left", "right")


class FiniteSum(Record):
    __slots__ = ("var", "lo", "hi", "body")


class GeoSeries(Record):
    __slots__ = ("ratio",)


class Harmonic(Record):
    __slots__ = ("arg",)


class OmegaParam(Record):
    __slots__ = ()


class RwCoef(Record):
    __slots__ = ("n", "k")


RtExpr = Union[
    RLit, RInf, RVar, RCell, Indicator, RAdd, RMonus, RMul, RDiv, RPow,
    RMin, RMax, FiniteSum, GeoSeries, Harmonic, OmegaParam, RwCoef,
]

RT_ZERO = RLit(Fraction(0))


# ---------------------------------------------------------------------------
# pretty-printing


def _frac(q: Fraction) -> str:
    return str(q)


def _infix(e: Expr):
    """(precedence, left operand, its precedence, operator, right operand,
    its precedence) of an infix expression, or None."""
    # precedence: or 1 < and 2 < not 3 < cmp 4 < add 5 < mul 6 < atom 7
    if isinstance(e, BinOp):
        p = 5 if e.op in "+-" else 6
        return p, e.left, p, e.op, e.right, p + 1
    if isinstance(e, Cmp):
        return 4, e.left, 5, e.op, e.right, 5
    if isinstance(e, And):
        return 2, e.left, 2, "and", e.right, 3
    if isinstance(e, Or):
        return 1, e.left, 1, "or", e.right, 2
    return None


def expr_to_text(e: Expr, prec: int = 0) -> str:
    # the left operands of an operator chain are walked in a loop, so a long
    # chain such as 1 + 1 + ... + 1 does not recurse once per operator
    opened = 0
    tails: List[str] = []
    form = _infix(e)
    while form is not None:
        p, left, left_prec, op, right, right_prec = form
        wrap = p < prec
        opened += wrap
        tails.append(" %s %s%s" % (op, expr_to_text(right, right_prec), ")" if wrap else ""))
        e, prec = left, left_prec
        form = _infix(e)
    if isinstance(e, IntLit):
        s, p = str(e.value), 7 if e.value >= 0 else 5
    elif isinstance(e, BoolLit):
        s, p = ("true" if e.value else "false"), 7
    elif isinstance(e, VarRef):
        s, p = e.name, 7
    elif isinstance(e, CellRef):
        s, p = "%s[%s]" % (e.name, expr_to_text(e.index)), 7
    elif isinstance(e, Not):
        p = 3
        s = "not %s" % expr_to_text(e.arg, 4)
    else:
        raise TypeError(e)
    if p < prec:
        s = "(%s)" % s
    return "(" * opened + s + "".join(reversed(tails))


def _payload(e: Expr) -> str:
    # a top-level '>' would close the point-mass bracket early
    s = expr_to_text(e)
    return "(%s)" % s if ">" in s else s


def dist_to_text(d: DistExpr) -> str:
    if isinstance(d, Dirac):
        if isinstance(d.value, ArrayLit):
            return "[%s]" % ", ".join(expr_to_text(i) for i in d.value.items)
        return "<%s>" % _payload(d.value)
    if isinstance(d, Uniform):
        return "unif[%s .. %s]" % (expr_to_text(d.lo), expr_to_text(d.hi))
    if isinstance(d, WeightedList):
        return " + ".join(
            "%s*<%s>" % (_frac(p), _payload(v)) for p, v in d.entries
        )
    raise TypeError(d)


def guard_to_text(g: DistExpr) -> str:
    if isinstance(g, Dirac) and not isinstance(g.value, ArrayLit):
        return expr_to_text(g.value)
    return dist_to_text(g)


def program_to_text(p: Program, indent: int = 0) -> str:
    pad = "  " * indent

    def block(body: Program) -> str:
        return "{\n%s\n%s}" % (program_to_text(body, indent + 1), pad)

    if isinstance(p, Empty):
        return pad + "empty"
    if isinstance(p, Skip):
        return pad + "skip"
    if isinstance(p, Halt):
        return pad + "halt"
    if isinstance(p, ProbAssign):
        t = (
            p.target.name
            if isinstance(p.target, VarTarget)
            else "%s[%s]" % (p.target.name, expr_to_text(p.target.index))
        )
        if isinstance(p.dist, Dirac):
            if isinstance(p.dist.value, ArrayLit):
                return "%s%s := %s" % (pad, t, dist_to_text(p.dist))
            return "%s%s := %s" % (pad, t, expr_to_text(p.dist.value))
        return "%s%s :~ %s" % (pad, t, dist_to_text(p.dist))
    if isinstance(p, Seq):
        # a statement chain is flattened in a loop, not printed recursively
        parts, todo = [], [p]
        while todo:
            q = todo.pop()
            if isinstance(q, Seq):
                todo += (q.second, q.first)
            else:
                parts.append(program_to_text(q, indent))
        return ";\n".join(parts)
    if isinstance(p, NdChoice):
        return "%s%s [] %s" % (pad, block(p.left), block(p.right))
    if isinstance(p, If):
        return "%sif (%s) %s else %s" % (
            pad,
            guard_to_text(p.guard),
            block(p.then),
            block(p.orelse),
        )
    if isinstance(p, While):
        return "%swhile (%s) %s" % (pad, guard_to_text(p.guard), block(p.body))
    if isinstance(p, WhileBounded):
        # no concrete syntax: print the defining expansion, which is
        # semantically identical
        return program_to_text(unfold_once(p), indent)
    if isinstance(p, Annotated):
        # annotations are metadata; the printed program is the plain loop
        return program_to_text(p.loop, indent)
    raise TypeError(p)


def rt_to_text(e: RtExpr, prec: int = 0) -> str:
    # precedence: add/monus 1 < mul/div 2 < pow 3 < atom 4
    if isinstance(e, RLit):
        s, p = _frac(e.value), 4 if e.value.denominator == 1 else 2
    elif isinstance(e, RInf):
        s, p = "inf", 4
    elif isinstance(e, RVar):
        s, p = e.name, 4
    elif isinstance(e, RCell):
        s, p = "%s[%s]" % (e.name, expr_to_text(e.index)), 4
    elif isinstance(e, OmegaParam):
        s, p = "n", 4
    elif isinstance(e, Indicator):
        s, p = "[%s]" % expr_to_text(e.cond), 4
    elif isinstance(e, RAdd):
        s, p = "%s + %s" % (rt_to_text(e.left, 1), rt_to_text(e.right, 2)), 1
    elif isinstance(e, RMonus):
        s, p = "%s - %s" % (rt_to_text(e.left, 1), rt_to_text(e.right, 2)), 1
    elif isinstance(e, RMul):
        s, p = "%s * %s" % (rt_to_text(e.left, 2), rt_to_text(e.right, 3)), 2
    elif isinstance(e, RDiv):
        s, p = "%s / %s" % (rt_to_text(e.left, 2), rt_to_text(e.right, 3)), 2
    elif isinstance(e, RPow):
        s, p = "%s^%s" % (rt_to_text(e.base, 4), rt_to_text(e.exponent, 4)), 3
    elif isinstance(e, RMin):
        s, p = "min(%s, %s)" % (rt_to_text(e.left), rt_to_text(e.right)), 4
    elif isinstance(e, RMax):
        s, p = "max(%s, %s)" % (rt_to_text(e.left), rt_to_text(e.right)), 4
    elif isinstance(e, FiniteSum):
        s, p = (
            "sum(%s, %s, %s, %s)"
            % (e.var, rt_to_text(e.lo), rt_to_text(e.hi), rt_to_text(e.body)),
            4,
        )
    elif isinstance(e, GeoSeries):
        s, p = "geoseries(%s)" % rt_to_text(e.ratio), 4
    elif isinstance(e, Harmonic):
        s, p = "harmonic(%s)" % rt_to_text(e.arg), 4
    elif isinstance(e, RwCoef):
        s, p = "rwcoef(%s, %s)" % (rt_to_text(e.n), rt_to_text(e.k)), 4
    else:
        raise TypeError(e)
    return "(%s)" % s if p < prec else s


# ---------------------------------------------------------------------------
# tree utilities


def unfold_once(w: Union[While, WhileBounded, Annotated]) -> Program:
    """One step of a loop's defining expansion, `if (guard) { body; w' }
    else { empty }`.

    A `while` and an annotated loop re-enter as `w` itself (an annotated
    loop through its annotation, so its unfolding is that of the plain
    loop); a depth-bounded loop re-enters with one round less, and is `halt`
    at depth 0.
    """
    if isinstance(w, WhileBounded):
        if w.bound <= 0:
            return Halt()
        return If(w.guard, Seq(w.body, WhileBounded(w.bound - 1, w.guard, w.body)), Empty())
    loop = w.loop if isinstance(w, Annotated) else w
    return If(loop.guard, Seq(loop.body, w), Empty())


def children(p: Program) -> List[Program]:
    if isinstance(p, Seq):
        return [p.first, p.second]
    if isinstance(p, NdChoice):
        return [p.left, p.right]
    if isinstance(p, If):
        return [p.then, p.orelse]
    if isinstance(p, (While, WhileBounded)):
        return [p.body]
    if isinstance(p, Annotated):
        return [p.loop]
    return []


def while_loops(p: Program) -> List[Union[While, Annotated]]:
    """All while loops in pre-order; an annotated loop counts once."""
    out: List[Union[While, Annotated]] = []
    stack = [p]
    while stack:
        node = stack.pop()
        if isinstance(node, Annotated):
            out.append(node)
            stack.append(node.loop.body)
            continue
        if isinstance(node, While):
            out.append(node)
        stack.extend(reversed(children(node)))
    return out


def replace_whiles(p: Program, bound: int) -> Program:
    """Replace every unbounded loop with its depth-bounded form.

    Annotations are dropped; the result is loop-free in the unbounded sense,
    so its evaluation and its operational model are both finite.
    """
    if isinstance(p, Seq):
        return Seq(replace_whiles(p.first, bound), replace_whiles(p.second, bound))
    if isinstance(p, NdChoice):
        return NdChoice(replace_whiles(p.left, bound), replace_whiles(p.right, bound))
    if isinstance(p, If):
        return If(p.guard, replace_whiles(p.then, bound), replace_whiles(p.orelse, bound))
    if isinstance(p, While):
        return WhileBounded(bound, p.guard, replace_whiles(p.body, bound))
    if isinstance(p, WhileBounded):
        return WhileBounded(p.bound, p.guard, replace_whiles(p.body, bound))
    if isinstance(p, Annotated):
        return replace_whiles(p.loop, bound)
    return p
