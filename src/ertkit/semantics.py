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

A run-time expression is evaluated in the int pairs `(n, d)` of `kernel`,
with `n = None` for infinity, by one rule per expression class
(`_RT_RULES`).  The pair format and its sum, reduction, order and `XReal`
conversions live in `kernel`, which the transformer's engine shares.  Sums
are taken over the lcm of the denominators, and a pair is reduced with one
gcd only where it leaves the evaluator, before `**`, and before it is
printed into an error message.  `XReal` appears only at the boundary:
`eval_rt` is the `XReal` of the final pair, and `eval_rt_pair` gives the
final pair itself, in lowest terms, to the transformer.
"""
from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, List, Mapping, Optional, Tuple, Union

from .kernel import (
    EvalError, KindMismatch, Pair, State, UnboundVariable, Value, XReal,
    pair_le, pair_lowest, pair_sum, value_kind,
)
from .syntax import (
    And, ArrayLit, BinOp, BoolLit, CellRef, Cmp, Dirac, DistExpr, Expr,
    FiniteSum, GeoSeries, Harmonic, Indicator, IntLit, Not, OmegaParam, Or,
    RAdd, RCell, RDiv, RInf, RLit, RMax, RMin, RMonus, RMul, RPow, RVar,
    RtExpr, RwCoef, Uniform, VarRef, WeightedList,
)


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

# an evaluator value is a kernel `Pair`, not necessarily in lowest terms
_INF: Pair = (None, 1)
_ZERO: Pair = (0, 1)
_ONE: Pair = (1, 1)


def eval_rt(
    f: RtExpr, sigma: State, bind: Optional[Bindings] = None
) -> XReal:
    # the XReal of `eval_rt_pair`: of_pair reduces with the one gcd
    return XReal.of_pair(*_rt(f, sigma, bind))


def eval_rt_pair(
    f: RtExpr, sigma: State, bind: Optional[Bindings] = None
) -> Pair:
    """`eval_rt`'s value as a pair in lowest terms, `(None, 1)` for
    infinity: the form an engine that computes in int pairs reads."""
    return pair_lowest(*_rt(f, sigma, bind))


def _rt(f: RtExpr, sigma: State, bind: Optional[Bindings]) -> Pair:
    rule = _RT_RULES.get(f.__class__)
    if rule is None:
        raise TypeError(f)
    return rule(f, sigma, bind)


def _rt_lit(f: RLit, sigma: State, bind: Optional[Bindings]) -> Pair:
    # RLit's constructor makes its value a non-negative Fraction
    q = f.value
    return q.numerator, q.denominator


def _rt_var(f: RVar, sigma: State, bind: Optional[Bindings]) -> Pair:
    return _nonneg(_var(f, sigma, bind), f.name), 1


def _rt_cell(f: RCell, sigma: State, bind: Optional[Bindings]) -> Pair:
    return _nonneg(_cell(f, sigma, bind), f.name), 1


def _rt_omega(f: OmegaParam, sigma: State, bind: Optional[Bindings]) -> Pair:
    if bind is None or "n" not in bind:
        raise UnboundVariable("iteration parameter n is unbound here")
    n = bind["n"]
    if n < 0:
        # the error the public XReal constructor raises
        raise ValueError("XReal must be non-negative, got %s" % n)
    return n, 1


def _rt_indicator(f: Indicator, sigma: State, bind: Optional[Bindings]) -> Pair:
    return _ONE if _as_bool(eval_expr(f.cond, sigma, bind)) else _ZERO


def _rt_add(f: RAdd, sigma: State, bind: Optional[Bindings]) -> Pair:
    n, d = _rt(f.left, sigma, bind)
    m, e = _rt(f.right, sigma, bind)
    return pair_sum(n, d, 1, 1, m, e)


def _rt_monus(f: RMonus, sigma: State, bind: Optional[Bindings]) -> Pair:
    n, d = _rt(f.left, sigma, bind)
    m, e = _rt(f.right, sigma, bind)
    if n is None:
        if m is None:
            raise MonusOfInfinities("inf - inf is undefined")
        return _INF
    if m is None:
        return _ZERO
    t = n * e - m * d
    return (t, d * e) if t > 0 else _ZERO


def _rt_mul(f: RMul, sigma: State, bind: Optional[Bindings]) -> Pair:
    # short-circuit zeros so guarded factors like [x > 0] * x stay total
    n, d = _rt(f.left, sigma, bind)
    if n == 0:
        return _ZERO
    m, e = _rt(f.right, sigma, bind)
    if m == 0:
        return _ZERO  # 0 * inf = 0
    if n is None or m is None:
        return _INF
    return n * m, d * e


def _rt_div(f: RDiv, sigma: State, bind: Optional[Bindings]) -> Pair:
    m, e = _rt(f.right, sigma, bind)
    if m == 0:
        raise DivByZero("division by zero")
    if m is None:
        raise EvalError("division by infinity")
    n, d = _rt(f.left, sigma, bind)
    return _INF if n is None else (n * e, d * m)


def _rt_pow(f: RPow, sigma: State, bind: Optional[Bindings]) -> Pair:
    k = _natural(_rt(f.exponent, sigma, bind), "exponent")
    n, d = _rt(f.base, sigma, bind)
    if n is None:
        return _ONE if k == 0 else _INF
    n, d = pair_lowest(n, d)
    return n ** k, d ** k


def _rt_min(f: RMin, sigma: State, bind: Optional[Bindings]) -> Pair:
    a, b = _rt(f.left, sigma, bind), _rt(f.right, sigma, bind)
    return a if pair_le(*a, *b) else b


def _rt_max(f: RMax, sigma: State, bind: Optional[Bindings]) -> Pair:
    a, b = _rt(f.left, sigma, bind), _rt(f.right, sigma, bind)
    return b if pair_le(*a, *b) else a


def _rt_sum(f: FiniteSum, sigma: State, bind: Optional[Bindings]) -> Pair:
    lo = _integer(_rt(f.lo, sigma, bind), "summation bound")
    hi = _integer(_rt(f.hi, sigma, bind), "summation bound")
    n, d = _ZERO
    inner: Dict[str, int] = dict(bind) if bind else {}
    # every term is evaluated, after an infinite one too, so that its
    # errors are raised
    for k in range(lo, hi + 1):
        inner[f.var] = k
        m, e = _rt(f.body, sigma, inner)
        n, d = pair_sum(n, d, 1, 1, m, e)
    return n, d


def _rt_geo(f: GeoSeries, sigma: State, bind: Optional[Bindings]) -> Pair:
    # 1 / (1 - n/d) for a ratio below one
    n, d = _rt(f.ratio, sigma, bind)
    if n is None or n >= d:
        return _INF
    return d, d - n


def _rt_harmonic(f: Harmonic, sigma: State, bind: Optional[Bindings]) -> Pair:
    q = harmonic_number(_natural(_rt(f.arg, sigma, bind), "harmonic argument"))
    return q.numerator, q.denominator


def _rt_rwcoef(f: RwCoef, sigma: State, bind: Optional[Bindings]) -> Pair:
    nn = _natural(_rt(f.n, sigma, bind), "coefficient row")
    kk = _natural(_rt(f.k, sigma, bind), "coefficient column")
    q = rw_coefficient(nn, kk)
    return q.numerator, q.denominator


# one rule per run-time expression class, looked up by the exact class
_RT_RULES = {
    RLit: _rt_lit,
    RInf: lambda f, sigma, bind: _INF,
    RVar: _rt_var,
    RCell: _rt_cell,
    OmegaParam: _rt_omega,
    Indicator: _rt_indicator,
    RAdd: _rt_add,
    RMonus: _rt_monus,
    RMul: _rt_mul,
    RDiv: _rt_div,
    RPow: _rt_pow,
    RMin: _rt_min,
    RMax: _rt_max,
    FiniteSum: _rt_sum,
    GeoSeries: _rt_geo,
    Harmonic: _rt_harmonic,
    RwCoef: _rt_rwcoef,
}


def _nonneg(v: Value, name: str) -> int:
    if v.__class__ is not int:
        raise KindMismatch(
            "%r is boolean; wrap it in an indicator to use it as a run-time" % name
        )
    if v < 0:
        raise EvalError(
            "%r is %d; run-times are non-negative (guard it with an indicator)"
            % (name, v)
        )
    return v


def _natural(x: Pair, what: str) -> int:
    n, d = x
    if n is None:
        raise EvalError("%s must be finite" % what)
    if n % d:
        raise EvalError(
            "%s must be a natural number, got %s" % (what, XReal.of_pair(n, d))
        )
    return n // d


def _integer(x: Pair, what: str) -> int:
    n, d = x
    if n is None or n % d:
        raise EvalError(
            "%s must be an integer, got %s" % (what, XReal.of_pair(n, d))
        )
    return n // d


def harmonic_number(m: int) -> Fraction:
    # summed in a loop: one recursion per term overflows the C stack
    n, d = _ZERO
    for k in range(1, m + 1):
        n, d = pair_sum(n, d, 1, 1, 1, k)
    return Fraction(n, d)


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
