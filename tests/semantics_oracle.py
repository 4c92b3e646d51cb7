"""The parent's evaluators of distributions, guards and run-time
expressions, kept as a test-only oracle.

These are `eval_dist`, `eval_guard` and `eval_rt` as they were when every
weight was summed into a fresh `Fraction` accumulator (`Fraction(0) + p` per
entry of a weighted list and per true guard entry), and when the leaves of a
run-time expression built a `VarRef` or `CellRef` per read and went through
the public `XReal` constructor.  `ertkit.semantics` now returns each entry's
own weight and adds only on a merge; the tests compare the two on generated
guards, distributions and run-time expressions, value for value and type
for type.  The expression evaluator and the numeric helpers are shared with
the production module; the natural and integer checks of arguments are the
oracle's own, on `XReal` values, with the production module's messages.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from ertkit.kernel import (
    INF, ONE, ZERO, KindMismatch, State, Value, XReal, value_kind,
)
from ertkit.semantics import (
    _CERTAIN, Bindings, DivByZero, EmptyUniformRange, EvalError,
    MonusOfInfinities, Sampled, UnboundVariable, _as_bool, _as_int, eval_expr,
    harmonic_number, rw_coefficient,
)
from ertkit.syntax import (
    ArrayLit, CellRef, Dirac, DistExpr, FiniteSum, GeoSeries, Harmonic,
    Indicator, OmegaParam, RAdd, RCell, RDiv, RInf, RLit, RMax, RMin, RMonus,
    RMul, RPow, RVar, RtExpr, RwCoef, Uniform, VarRef, WeightedList,
)


def eval_dist(
    d: DistExpr, sigma: State, bind: Optional[Bindings] = None
) -> List[Tuple[Fraction, Sampled]]:
    """Finite support with merged duplicates; probabilities sum to one.

    Zero-weight entries are dropped before their value expression is
    evaluated, matching the convention that impossible branches contribute
    nothing.
    """
    if isinstance(d, Dirac):
        if isinstance(d.value, ArrayLit):
            vals = tuple(
                _as_int(eval_expr(item, sigma, bind), "array element")
                for item in d.value.items
            )
            return [(_CERTAIN, vals)]
        return [(_CERTAIN, eval_expr(d.value, sigma, bind))]
    if isinstance(d, Uniform):
        lo = _as_int(eval_expr(d.lo, sigma, bind), "uniform bound")
        hi = _as_int(eval_expr(d.hi, sigma, bind), "uniform bound")
        if lo > hi:
            raise EmptyUniformRange("unif[%d .. %d] is empty" % (lo, hi))
        p = Fraction(1, hi - lo + 1)
        return [(p, v) for v in range(lo, hi + 1)]
    if isinstance(d, WeightedList):
        acc: Dict[Sampled, Fraction] = {}
        for p, expr in d.entries:
            if p == 0:
                continue
            v = eval_expr(expr, sigma, bind)
            acc[v] = acc.get(v, Fraction(0)) + p
        return [(p, v) for v, p in acc.items()]
    raise TypeError(d)


def eval_guard(
    g: DistExpr, sigma: State, bind: Optional[Bindings] = None
) -> Fraction:
    """Probability that the guard evaluates to true."""
    p_true = Fraction(0)
    for p, v in eval_dist(g, sigma, bind):
        if value_kind(v) != "bool":
            raise KindMismatch("guard produced non-boolean value %r" % (v,))
        if v:
            p_true += p
    return p_true


def eval_rt(
    f: RtExpr, sigma: State, bind: Optional[Bindings] = None
) -> XReal:
    if isinstance(f, RLit):
        return XReal(f.value)
    if isinstance(f, RInf):
        return INF
    if isinstance(f, RVar):
        return _nonneg(eval_expr(VarRef(f.name), sigma, bind), f.name)
    if isinstance(f, RCell):
        return _nonneg(eval_expr(CellRef(f.name, f.index), sigma, bind), f.name)
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
            total = total + eval_rt(f.body, sigma, inner)
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
    if value_kind(v) != "int":
        raise KindMismatch(
            "%r is boolean; wrap it in an indicator to use it as a run-time" % name
        )
    if v < 0:
        raise EvalError(
            "%r is %d; run-times are non-negative (guard it with an indicator)"
            % (name, v)
        )
    return XReal(v)


def _nat(x: XReal, what: str) -> int:
    if x.is_infinite:
        raise EvalError("%s must be finite" % what)
    if x.q.denominator != 1:
        raise EvalError("%s must be a natural number, got %s" % (what, x))
    return x.q.numerator


def _int_arg(x: XReal, what: str) -> int:
    if x.is_infinite or x.q.denominator != 1:
        raise EvalError("%s must be an integer, got %s" % (what, x))
    return x.q.numerator
