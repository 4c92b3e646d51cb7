"""The reference ert transformer, kept as a test-only oracle.

Every engine value is an `XReal`.  Each node sums its successors term by
term in XReal arithmetic, total + p * v, multiplying by every weight,
certain or not, and by every value, zero or not, and each guard is
evaluated afresh wherever it is read.  Every loop is unrolled once, at the
cap, as in `ertkit.transformer`, which instead sums unreduced int pairs and
reads guards from a per-state table; the tests compare the two on generated
programs, so an arithmetic slip in either shows as a difference.  Only the
configuration and result records are shared with the production module.
"""
from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple, Union

from ertkit.kernel import ONE, ZERO, State, XReal, _deep_stack
from ertkit.semantics import eval_dist, eval_expr, eval_guard, eval_rt
from ertkit.syntax import (
    Annotated, Empty, Halt, If, NdChoice, ProbAssign, Program, RtExpr,
    RT_ZERO, Seq, Skip, VarTarget, While, WhileBounded, rt_to_text,
)
from ertkit.transformer import ErtConfig, ErtResult

# Probability weights are non-negative Fractions by construction: the parser
# checks that weights lie in [0, 1] and sum to one, and a uniform weight is
# 1/n; so weights skip the checks of the public XReal constructor.
_of = XReal._of

Value = Tuple[XReal, bool]  # a run-time and its taint
RunTime = Union[RtExpr, Callable[[State], XReal], None]


class _Cont:
    """A continuation: the run-time function applied after a program
    fragment, as `eval(engine, sigma) -> (value, tainted)`.  The memo table
    compares continuations by identity, so the engine interns the ones it
    creates.  A continuation holds no reference to the engine, so reference
    counting frees an engine and its tables as soon as it is dropped."""

    __slots__ = ("eval",)

    def __init__(self, fn: Callable[["_Engine", State], Value]):
        self.eval = fn


# the zero run-time, the one an annotated loop's bound was certified against
ZERO_CONT = _Cont(lambda engine, sigma: (ZERO, False))


def _as_cont(f: RunTime) -> _Cont:
    if f is None or f == RT_ZERO:
        return ZERO_CONT
    if callable(f):
        return _Cont(lambda engine, sigma: (f(sigma), False))
    return _Cont(lambda engine, sigma: (eval_rt(f, sigma), False))


class _Engine:
    def __init__(self, config: ErtConfig):
        self.config = config
        self.memo: Dict[tuple, Value] = {}
        # interned for the engine's lifetime, so that ids in memo keys never
        # get recycled
        self.conts: Dict[tuple, _Cont] = {}
        # distribution supports, keyed by (id(expression), state); the
        # program outlives the engine
        self.dists: Dict[tuple, list] = {}
        self.annotations_used: List[str] = []

    def cont(self, key: tuple, fn: Callable[["_Engine", State], Value]) -> _Cont:
        c = self.conts.get(key)
        if c is None:
            c = self.conts[key] = _Cont(fn)
        return c

    def mix(self, guard, sigma: State, if_true, if_false) -> Value:
        """1 + Pr[guard] * if_true() + Pr[not guard] * if_false(), where a
        side is evaluated only when its weight is positive."""
        p_true = eval_guard(guard, sigma)
        total, tainted = ONE, False
        if p_true > 0:
            v, tainted = if_true()
            total = total + _of(p_true) * v
        if p_true < 1:
            v, t = if_false()
            total = total + _of(1 - p_true) * v
            tainted = tainted or t
        return total, tainted

    def eval(self, p: Program, sigma: State, cont: _Cont) -> Value:
        key = (id(p), sigma, id(cont))
        hit = self.memo.get(key)
        if hit is None:
            hit = self.memo[key] = self._eval(p, sigma, cont)
        return hit

    def _eval(self, p: Program, sigma: State, cont: _Cont) -> Value:
        if isinstance(p, Empty):
            return cont.eval(self, sigma)
        if isinstance(p, Skip):
            v, t = cont.eval(self, sigma)
            return ONE + v, t
        if isinstance(p, Halt):
            return ZERO, False
        if isinstance(p, ProbAssign):
            return self._assign(p, sigma, cont)
        if isinstance(p, Seq):
            rest = self.cont(
                ("seq", id(p.second), id(cont)),
                lambda engine, s: engine.eval(p.second, s, cont),
            )
            return self.eval(p.first, sigma, rest)
        if isinstance(p, NdChoice):
            lv, lt = self.eval(p.left, sigma, cont)
            rv, rt_ = self.eval(p.right, sigma, cont)
            return rv if lv <= rv else lv, lt or rt_
        if isinstance(p, If):
            return self.mix(
                p.guard, sigma,
                lambda: self.eval(p.then, sigma, cont),
                lambda: self.eval(p.orelse, sigma, cont),
            )
        if isinstance(p, While):
            return self._bounded(p, self.config.max_unroll_depth, sigma, cont)
        if isinstance(p, WhileBounded):
            return self._bounded(p, p.bound, sigma, cont)
        if isinstance(p, Annotated):
            if cont is ZERO_CONT:
                self.annotations_used.append(rt_to_text(p.bound))
                return eval_rt(p.bound, sigma), True
            return self._bounded(p.loop, self.config.max_unroll_depth, sigma, cont)
        raise TypeError(p)

    def _assign(self, p: ProbAssign, sigma: State, cont: _Cont) -> Value:
        key = (id(p.dist), sigma)
        if key not in self.dists:
            self.dists[key] = eval_dist(p.dist, sigma)
        total, tainted = ONE, False
        for prob, v in self.dists[key]:
            if isinstance(p.target, VarTarget):
                nxt = sigma.set(p.target.name, v)
            else:
                idx = eval_expr(p.target.index, sigma)
                nxt = sigma.set_cell(p.target.name, idx, v)
            sub, t = cont.eval(self, nxt)
            total = total + _of(prob) * sub
            tainted = tainted or t
        return total, tainted

    def _bounded(self, loop, depth: int, sigma: State, cont: _Cont) -> Value:
        """A loop unrolled `depth` more times.  Depth zero behaves like halt;
        a `While` cut off there may not have reached its fixed point, which
        taints the result, and a `WhileBounded` that runs out is just the
        program's own semantics."""
        key = (id(loop), depth, sigma, id(cont))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if depth <= 0:
            out = ZERO, isinstance(loop, While)
        else:
            rest = self.cont(
                ("loop", id(loop), depth - 1, id(cont)),
                lambda engine, s: engine._bounded(loop, depth - 1, s, cont),
            )
            out = self.mix(
                loop.guard, sigma,
                lambda: self.eval(loop.body, sigma, rest),
                lambda: cont.eval(self, sigma),
            )
        self.memo[key] = out
        return out


def expected_runtime(
    program: Program,
    f: RunTime = None,
    sigma: Optional[State] = None,
    config: Optional[ErtConfig] = None,
) -> ErtResult:
    """`ertkit.transformer.expected_runtime`, by the reference engine."""
    engine = _Engine(config or ErtConfig())
    with _deep_stack():
        value, tainted = engine.eval(program, sigma or State(), _as_cont(f))
    # an infinite lower bound is exact; one entry per distinct bound
    return ErtResult(
        kind="lower" if tainted and value.is_finite else "exact",
        value=value,
        annotations_used=tuple(dict.fromkeys(engine.annotations_used)),
    )


def char_functional(loop: Union[While, Annotated], f: RunTime):
    """`ertkit.transformer.char_functional`, each application in an engine
    of its own: apply(X, sigma) gives F(X)(sigma) = 1 + Pr[guard false] *
    f(sigma) + Pr[guard true] * ert[body](X)(sigma)."""
    if isinstance(loop, Annotated):
        loop = loop.loop
    f_cont = _as_cont(f)

    def apply(X, sigma: State) -> Value:
        engine, x_cont = _Engine(ErtConfig()), _as_cont(X)
        with _deep_stack():
            return engine.mix(
                loop.guard, sigma,
                lambda: engine.eval(loop.body, sigma, x_cont),
                lambda: f_cont.eval(engine, sigma),
            )

    return apply


def kleene_iterates(loop: Union[While, Annotated], f: RunTime, states: List[State]):
    """`ertkit.transformer.kleene_iterates`, by the reference functional."""
    apply_F = char_functional(loop, f)
    table: Dict[State, XReal] = {s: ZERO for s in states}
    yield dict(table)
    while True:
        table = {s: apply_F(lambda q, t=table: t.get(q, ZERO), s)[0] for s in states}
        yield dict(table)
