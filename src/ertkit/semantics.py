"""Evaluation of expressions, distributions, and run-time expressions.

State lookups go through an optional binding environment first, which is how
summation indices and the iteration parameter `n` are scoped; program
variables never shadow them because `n` is reserved and summation indices are
checked at parse time.

The weights that `eval_dist` and `eval_guard` return are the expression's
own `Fraction` objects: a weighted entry's weight (a `WeightedList` holds
`Fraction`s), the one shared `1/n` of a uniform range, or one shared `1` of
a point mass.  A new `Fraction` is built by addition only where two entries
merge: two entries of a weighted list with the same value of the same kind
(as in `State`, 1 and true stay apart), or two true entries of a guard.  A
guard with no true entry gives one shared `0`.  Fractions are immutable, so
sharing them is safe.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .kernel import (
    INF, ONE, ZERO, EvalError, KindMismatch, State, UnboundVariable, Value,
    XReal, value_kind,
)
from .syntax import (
    And, ArrayLit, BinOp, BoolLit, CellRef, Cmp, Dirac, DistExpr, Expr,
    FiniteSum, GeoSeries, Harmonic, Indicator, IntLit, Not, OmegaParam, Or,
    RAdd, RCell, RDiv, RInf, RLit, RMax, RMin, RMonus, RMul, RPow, RVar,
    RtExpr, RwCoef, Uniform, VarRef, WeightedList,
)


# the trusted XReal constructor, for values non-negative by construction
_of = XReal._of


class EmptyUniformRange(EvalError):
    pass


class DivByZero(EvalError):
    pass


class MonusOfInfinities(EvalError):
    pass


Bindings = Mapping[str, int]


# ---------------------------------------------------------------------------
# integer/boolean expressions


def eval_expr(e: Expr, sigma: State, bind: Optional[Bindings] = None) -> Value:
    rule = _EXPR_RULES.get(e.__class__)
    if rule is None:
        raise TypeError(e)
    return rule(e, sigma, bind)


def _lit(e: Union[IntLit, BoolLit], sigma: State, bind: Optional[Bindings]) -> Value:
    return e.value


def _binop(e: BinOp, sigma: State, bind: Optional[Bindings]) -> int:
    a = _as_int(eval_expr(e.left, sigma, bind), "arithmetic operand")
    b = _as_int(eval_expr(e.right, sigma, bind), "arithmetic operand")
    if e.op == "+":
        return a + b
    if e.op == "-":
        return a - b
    if e.op == "*":
        return a * b
    raise EvalError("unknown operator %r" % e.op)


def _cmp(e: Cmp, sigma: State, bind: Optional[Bindings]) -> bool:
    a = eval_expr(e.left, sigma, bind)
    b = eval_expr(e.right, sigma, bind)
    if e.op in ("=", "!="):
        if a.__class__ is not b.__class__:
            raise KindMismatch(
                "cannot compare %s with %s" % (value_kind(a), value_kind(b))
            )
        return (a == b) if e.op == "=" else (a != b)
    a = _as_int(a, "comparison operand")
    b = _as_int(b, "comparison operand")
    if e.op == "<":
        return a < b
    if e.op == "<=":
        return a <= b
    if e.op == ">":
        return a > b
    if e.op == ">=":
        return a >= b
    raise EvalError("unknown comparison %r" % e.op)


def _var(e: Union[VarRef, RVar], sigma: State, bind: Optional[Bindings]) -> Value:
    """A scalar read: the bindings first, then the state."""
    name = e.name
    if bind is not None and name in bind:
        return bind[name]
    return sigma.get(name)


def _cell(e: Union[CellRef, RCell], sigma: State, bind: Optional[Bindings]) -> Value:
    """An array cell read, at the value of its index."""
    return sigma.get_cell(e.name, eval_expr(e.index, sigma, bind))


# A value is exactly an int, a bool or a tuple (the kernel makes it so), so
# a kind check compares classes.


def _as_int(v: Value, what: str) -> int:
    if v.__class__ is not int:
        raise KindMismatch("%s must be an integer, got %r" % (what, v))
    return v


def _as_bool(v: Value) -> bool:
    if v.__class__ is not bool:
        raise KindMismatch("expected a boolean, got %r" % v)
    return v


# one rule per expression class, looked up by the exact class
_EXPR_RULES = {
    IntLit: _lit,
    BoolLit: _lit,
    VarRef: _var,
    CellRef: _cell,
    BinOp: _binop,
    Cmp: _cmp,
    And: lambda e, sigma, bind: _as_bool(eval_expr(e.left, sigma, bind))
    and _as_bool(eval_expr(e.right, sigma, bind)),
    Or: lambda e, sigma, bind: _as_bool(eval_expr(e.left, sigma, bind))
    or _as_bool(eval_expr(e.right, sigma, bind)),
    Not: lambda e, sigma, bind: not _as_bool(eval_expr(e.arg, sigma, bind)),
}


# ---------------------------------------------------------------------------
# distributions

# a sampled value is a scalar or, for whole-array installation, a tuple
Sampled = Union[int, bool, Tuple[int, ...]]

# the weight of every point mass, and the weight of a guard that is never
# true; Fractions are immutable, so one of each is shared
_CERTAIN = Fraction(1)
_NEVER = Fraction(0)


def eval_dist(d: DistExpr, sigma: State) -> List[Tuple[Fraction, Sampled]]:
    """Finite support with merged duplicates; probabilities sum to one.

    Zero-weight entries are dropped before their value expression is
    evaluated, matching the convention that impossible branches contribute
    nothing.
    """
    if isinstance(d, Dirac):
        if isinstance(d.value, ArrayLit):
            vals = tuple(
                _as_int(eval_expr(item, sigma), "array element")
                for item in d.value.items
            )
            return [(_CERTAIN, vals)]
        return [(_CERTAIN, eval_expr(d.value, sigma))]
    if isinstance(d, Uniform):
        lo = _as_int(eval_expr(d.lo, sigma), "uniform bound")
        hi = _as_int(eval_expr(d.hi, sigma), "uniform bound")
        if lo > hi:
            raise EmptyUniformRange("unif[%d .. %d] is empty" % (lo, hi))
        p = Fraction(1, hi - lo + 1)
        return [(p, v) for v in range(lo, hi + 1)]
    if isinstance(d, WeightedList):
        # a value of the same kind merges into its first-seen entry, in
        # first-seen order; 1 == true, so the kind is part of the key
        acc: Dict[Tuple[Sampled, type], Fraction] = {}
        for p, expr in d.entries:
            if not p:
                continue
            v = eval_expr(expr, sigma)
            key = (v, v.__class__)
            prev = acc.get(key)
            acc[key] = p if prev is None else prev + p
        return [(p, v) for (v, _), p in acc.items()]
    raise TypeError(d)


def eval_guard(g: DistExpr, sigma: State) -> Fraction:
    """Probability that the guard evaluates to true."""
    p_true = None
    for p, v in eval_dist(g, sigma):
        if not isinstance(v, bool):
            raise KindMismatch("guard produced non-boolean value %r" % (v,))
        if v:
            p_true = p if p_true is None else p_true + p
    return _NEVER if p_true is None else p_true


# ---------------------------------------------------------------------------
# run-time expressions


def eval_rt(
    f: RtExpr, sigma: State, bind: Optional[Bindings] = None
) -> XReal:
    if isinstance(f, RLit):
        # RLit's constructor makes its value a non-negative Fraction
        return _of(f.value)
    if isinstance(f, RInf):
        return INF
    if isinstance(f, RVar):
        return _nonneg(_var(f, sigma, bind), f.name)
    if isinstance(f, RCell):
        return _nonneg(_cell(f, sigma, bind), f.name)
    if isinstance(f, OmegaParam):
        if bind is None or "n" not in bind:
            raise UnboundVariable("iteration parameter n is unbound here")
        return XReal(bind["n"])
    if isinstance(f, Indicator):
        return ONE if _as_bool(eval_expr(f.cond, sigma, bind)) else ZERO
    if isinstance(f, RAdd):
        return eval_rt(f.left, sigma, bind) + eval_rt(f.right, sigma, bind)
    if isinstance(f, RMonus):
        a = eval_rt(f.left, sigma, bind)
        b = eval_rt(f.right, sigma, bind)
        if a.is_infinite and b.is_infinite:
            raise MonusOfInfinities("inf - inf is undefined")
        if a.is_infinite:
            return INF
        if b.is_infinite:
            return ZERO
        return XReal(max(Fraction(0), a.q - b.q))
    if isinstance(f, RMul):
        # short-circuit zeros so guarded factors like [x > 0] * x stay total
        a = eval_rt(f.left, sigma, bind)
        if a == ZERO:
            return ZERO
        b = eval_rt(f.right, sigma, bind)
        return a * b
    if isinstance(f, RDiv):
        b = eval_rt(f.right, sigma, bind)
        if b == ZERO:
            raise DivByZero("division by zero")
        if b.is_infinite:
            raise EvalError("division by infinity")
        a = eval_rt(f.left, sigma, bind)
        return INF if a.is_infinite else XReal(a.q / b.q)
    if isinstance(f, RPow):
        k = _nat(eval_rt(f.exponent, sigma, bind), "exponent")
        base = eval_rt(f.base, sigma, bind)
        if base.is_infinite:
            return ONE if k == 0 else INF
        return XReal(base.q ** k)
    if isinstance(f, RMin):
        a, b = eval_rt(f.left, sigma, bind), eval_rt(f.right, sigma, bind)
        return a if a <= b else b
    if isinstance(f, RMax):
        a, b = eval_rt(f.left, sigma, bind), eval_rt(f.right, sigma, bind)
        return b if a <= b else a
    if isinstance(f, FiniteSum):
        lo = _int_arg(eval_rt(f.lo, sigma, bind), "summation bound")
        hi = _int_arg(eval_rt(f.hi, sigma, bind), "summation bound")
        total = ZERO
        inner: Dict[str, int] = dict(bind) if bind else {}
        for k in range(lo, hi + 1):
            inner[f.var] = k
            total += eval_rt(f.body, sigma, inner)
        return total
    if isinstance(f, GeoSeries):
        r = eval_rt(f.ratio, sigma, bind)
        if r.is_infinite or r.q >= 1:
            return INF
        return XReal(1 / (1 - r.q))
    if isinstance(f, Harmonic):
        m = _nat(eval_rt(f.arg, sigma, bind), "harmonic argument")
        return XReal(harmonic_number(m))
    if isinstance(f, RwCoef):
        nn = _nat(eval_rt(f.n, sigma, bind), "coefficient row")
        kk = _nat(eval_rt(f.k, sigma, bind), "coefficient column")
        return XReal(rw_coefficient(nn, kk))
    raise TypeError(f)


def _nonneg(v: Value, name: str) -> XReal:
    if v.__class__ is not int:
        raise KindMismatch(
            "%r is boolean; wrap it in an indicator to use it as a run-time" % name
        )
    if v < 0:
        raise EvalError(
            "%r is %d; run-times are non-negative (guard it with an indicator)"
            % (name, v)
        )
    return _of(Fraction(v))


def _nat(x: XReal, what: str) -> int:
    if x.is_infinite:
        raise EvalError("%s must be finite" % what)
    if x.q.denominator != 1 or x.q < 0:
        raise EvalError("%s must be a natural number, got %s" % (what, x.q))
    return int(x.q)


def _int_arg(x: XReal, what: str) -> int:
    if x.is_infinite or x.q.denominator != 1:
        raise EvalError("%s must be an integer, got %s" % (what, x))
    return int(x.q)


def harmonic_number(m: int) -> Fraction:
    # summed in a loop: one recursion per term overflows the C stack
    total = Fraction(0)
    for k in range(1, m + 1):
        total += Fraction(1, k)
    return total


def rw_coefficient(n: int, k: int) -> Fraction:
    """Closed form for the symmetric-walk expansion coefficients.

    Row n, column k of the family defined by a(0,0) = 1,
    a(n+1,0) = 2 + (a(n,0) + a(n,1))/2, a(n+1,k) = (a(n,k-1) + a(n,k+1))/2
    for 1 <= k <= n+1, and a(n,k) = 0 for k > n.
    """
    if k > n or n < 0 or k < 0:
        return Fraction(0)

    def c(a: int, b: int) -> int:
        if b < 0 or b > a:
            return 0
        return math.comb(a, b)

    total = -c(n, (n - k) // 2)
    for i in range(n - k + 1):
        total += 2 * (2 ** i) * c(n - i, (n - i - k) // 2)
    return Fraction(total, 2 ** n)
