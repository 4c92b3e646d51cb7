"""Abstract syntax for programs, distribution expressions, and run-time
expressions, plus pretty-printers and small tree utilities.

All nodes are frozen dataclasses with structural equality, so parsed and
programmatically built trees compare naturally.  Evaluators key caches on
object identity, never on structural hashes of deep trees.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Tuple, Union

# ---------------------------------------------------------------------------
# integer/boolean expressions (used in programs, guards, indices, indicators)


@dataclass(frozen=True)
class IntLit:
    value: int


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class VarRef:
    name: str


@dataclass(frozen=True)
class CellRef:
    name: str
    index: "Expr"


@dataclass(frozen=True)
class BinOp:
    op: str  # + - *
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Cmp:
    op: str  # = != < <= > >=
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class And:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Or:
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Not:
    arg: "Expr"


Expr = Union[IntLit, BoolLit, VarRef, CellRef, BinOp, Cmp, And, Or, Not]


# ---------------------------------------------------------------------------
# distribution expressions


@dataclass(frozen=True)
class ArrayLit:
    items: Tuple[Expr, ...]


@dataclass(frozen=True)
class WeightedList:
    # entries: (probability, value expression); probabilities sum to 1
    entries: Tuple[Tuple[Fraction, Expr], ...]

    def __post_init__(self):
        object.__setattr__(
            self, "entries", tuple((Fraction(p), e) for p, e in self.entries)
        )


@dataclass(frozen=True)
class Uniform:
    lo: Expr
    hi: Expr


@dataclass(frozen=True)
class Dirac:
    value: Union[Expr, ArrayLit]


DistExpr = Union[WeightedList, Uniform, Dirac]


# ---------------------------------------------------------------------------
# assignment targets


@dataclass(frozen=True)
class VarTarget:
    name: str


@dataclass(frozen=True)
class CellTarget:
    name: str
    index: Expr


Target = Union[VarTarget, CellTarget]


# ---------------------------------------------------------------------------
# programs


@dataclass(frozen=True)
class Empty:
    pass


@dataclass(frozen=True)
class Skip:
    pass


@dataclass(frozen=True)
class Halt:
    pass


@dataclass(frozen=True)
class ProbAssign:
    target: Target
    dist: DistExpr


@dataclass(frozen=True)
class Seq:
    first: "Program"
    second: "Program"


@dataclass(frozen=True)
class NdChoice:
    left: "Program"
    right: "Program"


@dataclass(frozen=True)
class If:
    guard: DistExpr
    then: "Program"
    orelse: "Program"


@dataclass(frozen=True)
class While:
    guard: DistExpr
    body: "Program"


@dataclass(frozen=True)
class WhileBounded:
    bound: int
    guard: DistExpr
    body: "Program"


@dataclass(frozen=True)
class InvariantAnnotation:
    direction: str  # "upper" | "lower"
    bound: "RtExpr"
    # the continuation the bound was certified against (default: the zero
    # run-time); substitution is refused under any other continuation
    continuation: "RtExpr" = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.direction not in ("upper", "lower"):
            raise ValueError("annotation direction must be 'upper' or 'lower'")
        if self.continuation is None:
            object.__setattr__(self, "continuation", RLit(Fraction(0)))


@dataclass(frozen=True)
class Annotated:
    loop: While
    annotation: InvariantAnnotation


Program = Union[Empty, Skip, Halt, ProbAssign, Seq, NdChoice, If, While, WhileBounded, Annotated]


# ---------------------------------------------------------------------------
# run-time expressions


@dataclass(frozen=True)
class RLit:
    value: Fraction

    def __post_init__(self):
        object.__setattr__(self, "value", Fraction(self.value))
        if self.value < 0:
            raise ValueError("run-time literals are non-negative")


@dataclass(frozen=True)
class RInf:
    pass


@dataclass(frozen=True)
class RVar:
    name: str


@dataclass(frozen=True)
class RCell:
    name: str
    index: Expr


@dataclass(frozen=True)
class Indicator:
    cond: Expr


@dataclass(frozen=True)
class RAdd:
    left: "RtExpr"
    right: "RtExpr"


@dataclass(frozen=True)
class RMonus:
    left: "RtExpr"
    right: "RtExpr"


@dataclass(frozen=True)
class RMul:
    left: "RtExpr"
    right: "RtExpr"


@dataclass(frozen=True)
class RDiv:
    left: "RtExpr"
    right: "RtExpr"


@dataclass(frozen=True)
class RPow:
    base: "RtExpr"
    exponent: "RtExpr"  # must evaluate to a natural number


@dataclass(frozen=True)
class RMin:
    left: "RtExpr"
    right: "RtExpr"


@dataclass(frozen=True)
class RMax:
    left: "RtExpr"
    right: "RtExpr"


@dataclass(frozen=True)
class FiniteSum:
    var: str
    lo: "RtExpr"
    hi: "RtExpr"
    body: "RtExpr"


@dataclass(frozen=True)
class GeoSeries:
    ratio: "RtExpr"


@dataclass(frozen=True)
class Harmonic:
    arg: "RtExpr"


@dataclass(frozen=True)
class OmegaParam:
    pass


@dataclass(frozen=True)
class RwCoef:
    n: "RtExpr"
    k: "RtExpr"


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
        return program_to_text(expand_bounded_once(p), indent)
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


def expand_bounded_once(p: WhileBounded) -> Program:
    """One step of the defining expansion of a depth-bounded loop."""
    if p.bound <= 0:
        return Halt()
    return If(
        p.guard,
        Seq(p.body, WhileBounded(p.bound - 1, p.guard, p.body)),
        Empty(),
    )


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

    def walk(node: Program):
        if isinstance(node, Annotated):
            out.append(node)
            walk(node.loop.body)
            return
        if isinstance(node, While):
            out.append(node)
        for c in children(node):
            walk(c)

    walk(p)
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
