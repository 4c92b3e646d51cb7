"""Concrete syntax for programs and run-time expressions.

The program syntax is line-oriented only in the sense that `//` starts a
comment; whitespace is otherwise free.  Statements are separated by `;`.

    empty | skip | halt
    x := e            point-mass assignment (also  x := [e1, ..., ek]
                      to install a fresh fixed-length array)
    x :~ d            random assignment
    {P} [] {Q}        nondeterministic choice
    if (g) {P} else {Q}     (else-branch optional, defaults to empty)
    while (g) {P}

Distributions `d` are weighted lists `p1*<e1> + ... + pk*<ek>` with literal
rational weights summing to one, uniform ranges `unif[lo .. hi]`, or explicit
point masses `<e>`.  A guard `g` may be any distribution over booleans; a bare
boolean expression is shorthand for its point mass.

Run-time expressions use `+ - * / ^`, `inf`, `min/max(a, b)`, indicator
brackets `[b]`, `sum(k, lo, hi, e)`, `geoseries(r)`, `harmonic(e)`,
`rwcoef(a, b)`, and the reserved iteration parameter `n`.
"""
from __future__ import annotations

import re
import sys
from fractions import Fraction
from typing import Callable, List, Optional, Tuple, TypeVar, Union

from .syntax import (
    And, ArrayLit, BinOp, BoolLit, CellRef, CellTarget, Cmp, Dirac,
    DistExpr, Empty, Expr, FiniteSum, GeoSeries, Halt, Harmonic, If, Indicator,
    IntLit, Not, NdChoice, OmegaParam, Or, ProbAssign, Program, RAdd, RCell,
    RDiv, RInf, RLit, RMax, RMin, RMonus, RMul, RPow, RVar, RtExpr, RwCoef,
    Seq, Skip, Uniform, VarRef, VarTarget, WeightedList, While,
)


T = TypeVar("T")


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__("%d:%d: %s" % (line, col, message))
        self.message = message
        self.line = line
        self.col = col


class ProbabilityMassError(ParseError):
    pass


# Blocks, parentheses, brackets, function arguments and prefix operators
# nest at most this deep, counted together.  The parser recurses up to nine
# frames per level, so the limit keeps it well inside Python's default
# recursion limit.
MAX_NESTING = 64

# text that `int` reads as an integer when it has few enough digits
_INTEGER = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


def too_long(what: str) -> str:
    """The message refusing `what`, an integer with more digits than Python
    reads.  It names the limit and how to raise it, not the digits."""
    return (
        f"{what} has more digits than Python reads ({sys.get_int_max_str_digits()}); "
        "raise the limit with PYTHONINTMAXSTRDIGITS"
    )


def read_int(text: str, what: str, error: str) -> int:
    """`text` as an integer.  Raises ValueError(error) when `text` is no
    integer, and ValueError(too_long(what)) when it has more digits than
    Python reads; each caller turns that into its own error."""
    try:
        return int(text)
    except ValueError:
        raise ValueError(too_long(what) if _INTEGER.fullmatch(text) else error) from None


_KEYWORDS = {
    "empty", "skip", "halt", "if", "else", "while", "unif",
    "true", "false", "not", "and", "or", "inf",
    "min", "max", "sum", "geoseries", "harmonic", "rwcoef",
}

_TOKEN_RE = re.compile(
    r"""
      (?P<ws>\s+)
    | (?P<comment>//[^\n]*)
    | (?P<num>\d+)
    | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
    | (?P<sym>:~|:=|<=|>=|!=|\.\.|[][(){};,+\-*/^<>=])
    """,
    re.VERBOSE,
)


class _Tok:
    __slots__ = ("kind", "text", "line", "col")

    def __init__(self, kind: str, text: str, line: int, col: int):
        self.kind = kind
        self.text = text
        self.line = line
        self.col = col


def _lex(src: str) -> List[_Tok]:
    toks: List[_Tok] = []
    line, col, pos = 1, 1, 0
    while pos < len(src):
        m = _TOKEN_RE.match(src, pos)
        if m is None:
            raise ParseError("unexpected character %r" % src[pos], line, col)
        text = m.group(0)
        if m.lastgroup == "num":
            toks.append(_Tok("num", text, line, col))
        elif m.lastgroup == "ident":
            toks.append(_Tok("ident", text, line, col))
        elif m.lastgroup == "sym":
            toks.append(_Tok(text, text, line, col))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        pos = m.end()
    toks.append(_Tok("eof", "", line, col))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _lex(src)
        self.i = 0
        # inside a point-mass payload <e>, a top-level '>' closes the payload
        # rather than comparing; parentheses restore the full operator set
        self._angle = 0
        self._depth = 0

    # -- token plumbing ----------------------------------------------------

    def peek(self, ahead: int = 0) -> _Tok:
        return self.toks[min(self.i + ahead, len(self.toks) - 1)]

    def next(self) -> _Tok:
        t = self.peek()
        if t.kind != "eof":
            self.i += 1
        return t

    def at(self, kind: str, text: Optional[str] = None, ahead: int = 0) -> bool:
        t = self.peek(ahead)
        return t.kind == kind and (text is None or t.text == text)

    def integer(self, t: _Tok) -> int:
        """The value of a `num` token, refused at the token when it has
        more digits than Python reads."""
        try:
            return int(t.text)
        except ValueError:
            raise ParseError(too_long("integer literal"), t.line, t.col)

    def expect(self, kind: str) -> _Tok:
        t = self.peek()
        if t.kind != kind:
            raise ParseError(
                "expected %r, found %r" % (kind, t.text or "end of input"),
                t.line, t.col,
            )
        return self.next()

    def fail(self, message: str):
        t = self.peek()
        raise ParseError(message, t.line, t.col)

    def nested(self, opener: _Tok, parse: Callable[[], T]) -> T:
        """Run `parse` one nesting level below `opener`."""
        if self._depth >= MAX_NESTING:
            raise ParseError(
                "nesting deeper than %d levels" % MAX_NESTING, opener.line, opener.col
            )
        self._depth += 1
        try:
            return parse()
        finally:
            self._depth -= 1

    # -- integer/boolean expressions --------------------------------------

    def expr(self) -> Expr:
        e = self.expr_and()
        while self.at("ident", "or"):
            self.next()
            e = Or(e, self.expr_and())
        return e

    def expr_and(self) -> Expr:
        e = self.expr_not()
        while self.at("ident", "and"):
            self.next()
            e = And(e, self.expr_not())
        return e

    def expr_not(self) -> Expr:
        if self.at("ident", "not"):
            return Not(self.nested(self.next(), self.expr_not))
        return self.expr_cmp()

    def expr_cmp(self) -> Expr:
        e = self.expr_add()
        ops = ("<=", "!=", "<", "=") if self._angle else ("<=", ">=", "!=", "<", ">", "=")
        for op in ops:
            if self.at(op):
                self.next()
                return Cmp(op, e, self.expr_add())
        return e

    def expr_add(self) -> Expr:
        e = self.expr_mul()
        while self.at("+") or self.at("-"):
            op = self.next().text
            e = BinOp(op, e, self.expr_mul())
        return e

    def expr_mul(self) -> Expr:
        e = self.expr_unary()
        while self.at("*"):
            self.next()
            e = BinOp("*", e, self.expr_unary())
        return e

    def expr_unary(self) -> Expr:
        if self.at("-"):
            inner = self.nested(self.next(), self.expr_unary)
            if isinstance(inner, IntLit):
                return IntLit(-inner.value)
            return BinOp("-", IntLit(0), inner)
        return self.expr_atom()

    def expr_atom(self) -> Expr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return IntLit(self.integer(t))
        if t.kind == "ident":
            if t.text == "true":
                self.next()
                return BoolLit(True)
            if t.text == "false":
                self.next()
                return BoolLit(False)
            if t.text in _KEYWORDS:
                self.fail("keyword %r cannot appear here" % t.text)
            self.next()
            if self.at("["):
                idx = self.nested(self.next(), self.expr)
                self.expect("]")
                return CellRef(t.text, idx)
            return VarRef(t.text)
        if t.kind == "(":
            self.next()
            saved, self._angle = self._angle, 0
            e = self.nested(t, self.expr)
            self._angle = saved
            self.expect(")")
            return e
        self.fail("expected an expression")

    # -- distributions -----------------------------------------------------

    def fraction(self) -> Fraction:
        num = self.integer(self.expect("num"))
        if self.at("/"):
            self.next()
            t = self.expect("num")
            den = self.integer(t)
            if den == 0:
                raise ParseError("zero denominator", t.line, t.col)
            return Fraction(num, den)
        return Fraction(num)

    def angle_payload(self) -> Expr:
        self.expect("<")
        self._angle += 1
        e = self.expr()
        self._angle -= 1
        self.expect(">")
        return e

    def weighted_entry(self) -> Tuple[Fraction, Expr]:
        t = self.peek()
        p = self.fraction()
        if not (0 <= p <= 1):
            raise ProbabilityMassError(
                "weight %s outside [0, 1]" % p, t.line, t.col
            )
        self.expect("*")
        return p, self.angle_payload()

    def dist(self) -> DistExpr:
        t = self.peek()
        if self.at("ident", "unif"):
            self.next()
            self.expect("[")
            lo = self.expr()
            self.expect("..")
            hi = self.expr()
            self.expect("]")
            return Uniform(lo, hi)
        if self.at("<"):
            return Dirac(self.angle_payload())
        entries = [self.weighted_entry()]
        while self.at("+"):
            self.next()
            entries.append(self.weighted_entry())
        mass = sum(p for p, _ in entries)
        if mass != 1:
            raise ProbabilityMassError(
                "weights sum to %s, not 1" % mass, t.line, t.col
            )
        return WeightedList(tuple(entries))

    def guard(self) -> DistExpr:
        # a guard is either a distribution or a bare boolean expression;
        # attempt the distribution reading first and backtrack on failure
        mark = self.i
        if self.at("num") or self.at("<") or self.at("ident", "unif"):
            try:
                return self.dist()
            except ParseError:
                self.i = mark
        return Dirac(self.expr())

    # -- statements --------------------------------------------------------

    def block(self) -> Program:
        opener = self.expect("{")
        if self.at("}"):
            self.next()
            return Empty()
        body = self.nested(opener, self.stmtseq)
        self.expect("}")
        return body

    def stmtseq(self) -> Program:
        stmts = [self.stmt()]
        while self.at(";"):
            self.next()
            if self.at("}") or self.at("eof"):
                break
            stmts.append(self.stmt())
        out = stmts[-1]
        for s in reversed(stmts[:-1]):
            out = Seq(s, out)
        return out

    def stmt(self) -> Program:
        t = self.peek()
        if t.kind == "ident":
            if t.text == "empty":
                self.next()
                return Empty()
            if t.text == "skip":
                self.next()
                return Skip()
            if t.text == "halt":
                self.next()
                return Halt()
            if t.text == "if":
                self.next()
                self.expect("(")
                g = self.guard()
                self.expect(")")
                then = self.block()
                orelse: Program = Empty()
                if self.at("ident", "else"):
                    self.next()
                    orelse = self.block()
                return If(g, then, orelse)
            if t.text == "while":
                self.next()
                self.expect("(")
                g = self.guard()
                self.expect(")")
                return While(g, self.block())
            if t.text in _KEYWORDS:
                self.fail("keyword %r cannot start a statement" % t.text)
            return self.assign()
        if t.kind == "{":
            left = self.block()
            self.expect("[")
            self.expect("]")
            right = self.block()
            return NdChoice(left, right)
        self.fail("expected a statement")

    def assign(self) -> Program:
        name = self.expect("ident").text
        target: Union[VarTarget, CellTarget] = VarTarget(name)
        if self.at("["):
            self.next()
            idx = self.expr()
            self.expect("]")
            target = CellTarget(name, idx)
        if self.at(":~"):
            self.next()
            return ProbAssign(target, self.dist())
        self.expect(":=")
        if self.at("[") and isinstance(target, VarTarget):
            self.next()
            items = [self.expr()]
            while self.at(","):
                self.next()
                items.append(self.expr())
            self.expect("]")
            return ProbAssign(target, Dirac(ArrayLit(tuple(items))))
        return ProbAssign(target, Dirac(self.expr()))

    # -- run-time expressions ----------------------------------------------

    def rt(self) -> RtExpr:
        e = self.rt_mul()
        while self.at("+") or self.at("-"):
            op = self.next().text
            rhs = self.rt_mul()
            e = RAdd(e, rhs) if op == "+" else RMonus(e, rhs)
        return e

    def rt_mul(self) -> RtExpr:
        e = self.rt_pow()
        while self.at("*") or self.at("/"):
            op = self.next().text
            rhs = self.rt_pow()
            if op == "/":
                # a literal quotient is just a rational literal
                if isinstance(e, RLit) and isinstance(rhs, RLit):
                    if rhs.value == 0:
                        self.fail("division of a literal by zero")
                    e = RLit(e.value / rhs.value)
                else:
                    e = RDiv(e, rhs)
            else:
                e = RMul(e, rhs)
        return e

    def rt_pow(self) -> RtExpr:
        base = self.rt_atom()
        if self.at("^"):
            self.next()
            return RPow(base, self.rt_atom())
        return base

    def rt_atom(self) -> RtExpr:
        t = self.peek()
        if t.kind == "num":
            self.next()
            return RLit(Fraction(self.integer(t)))
        if t.kind == "(":
            self.next()
            e = self.nested(t, self.rt)
            self.expect(")")
            return e
        if t.kind == "[":
            self.next()
            cond = self.nested(t, self.expr)
            self.expect("]")
            return Indicator(cond)
        if t.kind == "ident":
            name = t.text
            if name == "inf":
                self.next()
                return RInf()
            if name == "n":
                self.next()
                return OmegaParam()
            if name in ("min", "max"):
                self.next()
                a, b = self._rt_args(2)
                return RMin(a, b) if name == "min" else RMax(a, b)
            if name == "geoseries":
                self.next()
                (a,) = self._rt_args(1)
                return GeoSeries(a)
            if name == "harmonic":
                self.next()
                (a,) = self._rt_args(1)
                return Harmonic(a)
            if name == "rwcoef":
                self.next()
                a, b = self._rt_args(2)
                return RwCoef(a, b)
            if name == "sum":
                self.next()
                opener = self.expect("(")
                var = self.expect("ident").text
                if var in _KEYWORDS or var == "n":
                    self.fail("%r cannot be a summation index" % var)
                self.expect(",")
                lo = self.nested(opener, self.rt)
                self.expect(",")
                hi = self.nested(opener, self.rt)
                self.expect(",")
                body = self.nested(opener, self.rt)
                self.expect(")")
                return FiniteSum(var, lo, hi, body)
            if name in _KEYWORDS:
                self.fail("keyword %r cannot appear here" % name)
            self.next()
            if self.at("["):
                idx = self.nested(self.next(), self.expr)
                self.expect("]")
                return RCell(name, idx)
            return RVar(name)
        self.fail("expected a run-time expression")

    def _rt_args(self, count: int) -> List[RtExpr]:
        opener = self.expect("(")
        args = [self.nested(opener, self.rt)]
        while self.at(","):
            self.next()
            args.append(self.nested(opener, self.rt))
        self.expect(")")
        if len(args) != count:
            self.fail("expected %d arguments, got %d" % (count, len(args)))
        return args

    # -- entry points ------------------------------------------------------

    def finish(self):
        t = self.peek()
        if t.kind != "eof":
            raise ParseError("trailing input %r" % t.text, t.line, t.col)


def parse_program(src: str) -> Program:
    p = _Parser(src)
    prog = p.stmtseq()
    p.finish()
    return prog


def parse_rt(src: str) -> RtExpr:
    p = _Parser(src)
    e = p.rt()
    p.finish()
    return e
