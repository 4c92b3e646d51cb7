"""The parent engine of the ert transformer, kept as a test-only oracle.

This is the transformer's engine as it was when every engine value was an
`XReal`: each node sums its weighted successors in one `Fraction`
accumulator and wraps the sum in one `XReal`, and each guard's branch
weights are a pair of `Fraction`s with the shared `semantics._CERTAIN` for
a certain side.  `ertkit.transformer` now carries integer pairs instead; the
tests compare the two on generated programs, so an arithmetic slip in either
shows as a difference.  Only the configuration and result records are shared
with the production module.
"""
from __future__ import annotations

from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple, Union

from ertkit.kernel import INF, ZERO, State, XReal, _deep_stack
from ertkit.semantics import (
    _CERTAIN, Bindings, eval_dist, eval_expr, eval_guard, eval_rt,
)
from ertkit.syntax import (
    Annotated, Empty, Halt, If, NdChoice, ProbAssign, Program, RtExpr,
    RT_ZERO, Seq, Skip, VarTarget, While, WhileBounded, rt_to_text,
)
from ertkit.transformer import ErtConfig, ErtResult


# Probability weights are non-negative Fractions by construction: the parser
# checks that weights lie in [0, 1] and sum to one, and a uniform weight is
# 1/n; so sums of weighted values skip the checks of the public XReal
# constructor.
_of = XReal._of
# a node's accumulator starts at the tick the node charges itself
_TICK = Fraction(1)


Weights = Tuple[Optional[Fraction], Optional[Fraction]]


def _weights(p_true: Fraction) -> Weights:
    """The branch weights (Pr[true], Pr[false]) of a guard.

    A certain side is `_CERTAIN` and an impossible side is None, so callers
    test identity rather than compare Fractions.
    """
    if p_true == 1:
        return _CERTAIN, None
    if p_true == 0:
        return None, _CERTAIN
    return p_true, 1 - p_true


def _acc(total: Optional[Fraction], p: Fraction, v: XReal) -> Optional[Fraction]:
    """total + p * v, for a weight p > 0; None stands for infinity."""
    q = v.q
    if total is None or q is None:
        return None
    if not q:
        return total
    return total + q if p is _CERTAIN else total + p * q


def _x(total: Optional[Fraction]) -> XReal:
    return INF if total is None else _of(total)


# ---------------------------------------------------------------------------
# continuations
#
# A continuation stands for the run-time function applied after a program
# fragment.  Continuations are compared by identity in the memo table; the
# engine canonicalizes sequence continuations so identical tails share one
# object.


class RtCont:
    """A literal run-time expression, optionally with extra bindings."""

    __slots__ = ("expr", "bind")

    def __init__(self, expr: RtExpr, bind: Optional[Bindings] = None):
        self.expr = expr
        self.bind = dict(bind) if bind else None

    def eval(self, sigma: State) -> Tuple[XReal, bool]:
        return eval_rt(self.expr, sigma, self.bind), False


class FnCont:
    """An opaque state-indexed table or function, e.g. a fixed-point iterate."""

    __slots__ = ("fn",)

    def __init__(self, fn: Callable[[State], XReal]):
        self.fn = fn

    def eval(self, sigma: State) -> Tuple[XReal, bool]:
        return self.fn(sigma), False


class _SeqCont:
    """Run a program, then the next continuation."""

    __slots__ = ("program", "after", "engine")

    def __init__(self, program: Program, after, engine: "_Engine"):
        self.program = program
        self.after = after
        self.engine = engine

    def eval(self, sigma: State) -> Tuple[XReal, bool]:
        return self.engine.eval(self.program, sigma, self.after)


ZERO_CONT = RtCont(RT_ZERO)


# ---------------------------------------------------------------------------
# engine


class _Engine:
    def __init__(self, config: ErtConfig):
        self.config = config
        self.memo: Dict[tuple, Tuple[XReal, bool]] = {}
        self.seq_conts: Dict[tuple, _SeqCont] = {}
        self.bounded_conts: Dict[tuple, "_BoundedCont"] = {}
        # branch weights and distribution supports, keyed by
        # (id(expression), state); the program outlives the engine
        self.guards: Dict[tuple, Weights] = {}
        self.dists: Dict[tuple, list] = {}
        self.annotations_used: List[str] = []

    # continuations ------------------------------------------------------
    #
    # memo keys use continuation identity, so every continuation the engine
    # creates is interned for the engine's lifetime; ids never get recycled

    def seq_cont(self, program: Program, after) -> _SeqCont:
        key = (id(program), id(after))
        c = self.seq_conts.get(key)
        if c is None:
            c = _SeqCont(program, after, self)
            self.seq_conts[key] = c
        return c

    def bounded_cont(self, loop_key, guard, body, depth, after, synthesized) -> "_BoundedCont":
        key = (loop_key, depth, id(after), synthesized)
        c = self.bounded_conts.get(key)
        if c is None:
            c = _BoundedCont(self, loop_key, guard, body, depth, after, synthesized)
            self.bounded_conts[key] = c
        return c

    # guards and distributions --------------------------------------------

    def guard(self, g, sigma: State) -> Weights:
        key = (id(g), sigma)
        w = self.guards.get(key)
        if w is None:
            w = self.guards[key] = _weights(eval_guard(g, sigma))
        return w

    def dist(self, d, sigma: State) -> list:
        key = (id(d), sigma)
        entries = self.dists.get(key)
        if entries is None:
            entries = self.dists[key] = eval_dist(d, sigma)
        return entries

    # evaluation ---------------------------------------------------------

    def eval(self, p: Program, sigma: State, cont) -> Tuple[XReal, bool]:
        key = (id(p), sigma, id(cont))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        out = self._eval(p, sigma, cont)
        self.memo[key] = out
        return out

    def _eval(self, p: Program, sigma: State, cont) -> Tuple[XReal, bool]:
        if isinstance(p, Empty):
            return cont.eval(sigma)
        if isinstance(p, Skip):
            v, t = cont.eval(sigma)
            return _x(_acc(_TICK, _CERTAIN, v)), t
        if isinstance(p, Halt):
            return ZERO, False
        if isinstance(p, ProbAssign):
            return self._assign(p, sigma, cont)
        if isinstance(p, Seq):
            return self.eval(p.first, sigma, self.seq_cont(p.second, cont))
        if isinstance(p, NdChoice):
            lv, lt = self.eval(p.left, sigma, cont)
            rv, rt_ = self.eval(p.right, sigma, cont)
            return rv if lv <= rv else lv, lt or rt_
        if isinstance(p, If):
            return self._branch(p.guard, p.then, p.orelse, sigma, cont)
        if isinstance(p, While):
            return self._while(p, sigma, cont)
        if isinstance(p, WhileBounded):
            return self._bounded(("xwb", id(p)), p.guard, p.body, p.bound, sigma, cont, synthesized=False)
        if isinstance(p, Annotated):
            return self._annotated(p, sigma, cont)
        raise TypeError(p)

    def _assign(self, p: ProbAssign, sigma: State, cont) -> Tuple[XReal, bool]:
        total, tainted = _TICK, False
        for prob, v in self.dist(p.dist, sigma):
            if isinstance(p.target, VarTarget):
                if isinstance(v, tuple):
                    nxt = sigma.set(p.target.name, v)
                else:
                    nxt = sigma.set(p.target.name, v)
            else:
                idx = eval_expr(p.target.index, sigma)
                nxt = sigma.set_cell(p.target.name, idx, v)
            sub, t = cont.eval(nxt)
            total = _acc(total, prob, sub)
            tainted = tainted or t
        return _x(total), tainted

    def _branch(self, guard, then, orelse, sigma: State, cont) -> Tuple[XReal, bool]:
        p_true, p_false = self.guard(guard, sigma)
        total, tainted = _TICK, False
        if p_true is not None:
            v, tainted = self.eval(then, sigma, cont)
            total = _acc(total, p_true, v)
        if p_false is not None:
            v, t = self.eval(orelse, sigma, cont)
            total = _acc(total, p_false, v)
            tainted = tainted or t
        return _x(total), tainted

    def _bounded(
        self, loop_key, guard, body, depth: int, sigma: State, cont,
        synthesized: bool,
    ) -> Tuple[XReal, bool]:
        """Lazy evaluation of a depth-bounded loop.

        Depth zero behaves like halt.  Reaching depth zero of a synthesized
        bound means the fixed point may not have been reached, which taints
        the result; an explicit bound is just the program's own semantics.
        """
        key = (loop_key, depth, sigma, id(cont))
        hit = self.memo.get(key)
        if hit is not None:
            return hit
        if depth <= 0:
            out: Tuple[XReal, bool] = (ZERO, synthesized)
        else:
            p_true, p_false = self.guard(guard, sigma)
            total, tainted = _TICK, False
            if p_true is not None:
                rest = self.bounded_cont(loop_key, guard, body, depth - 1, cont, synthesized)
                v, tainted = self.eval(body, sigma, rest)
                total = _acc(total, p_true, v)
            if p_false is not None:
                v, t = cont.eval(sigma)
                total = _acc(total, p_false, v)
                tainted = tainted or t
            out = (_x(total), tainted)
        self.memo[key] = out
        return out

    def _while(self, p: While, sigma: State, cont) -> Tuple[XReal, bool]:
        return self._bounded(
            ("wb", id(p)), p.guard, p.body, self.config.max_unroll_depth,
            sigma, cont, synthesized=True,
        )

    def _annotated(self, p: Annotated, sigma: State, cont) -> Tuple[XReal, bool]:
        if isinstance(cont, RtCont) and not cont.bind and cont.expr == RT_ZERO:
            self.annotations_used.append(rt_to_text(p.bound))
            return eval_rt(p.bound, sigma), True
        return self._while(p.loop, sigma, cont)


class _BoundedCont:
    """Continuation that resumes a bounded loop at one less depth."""

    __slots__ = ("engine", "loop_key", "guard", "body", "depth", "after", "synthesized")

    def __init__(self, engine, loop_key, guard, body, depth, after, synthesized):
        self.engine = engine
        self.loop_key = loop_key
        self.guard = guard
        self.body = body
        self.depth = depth
        self.after = after
        self.synthesized = synthesized

    def eval(self, sigma: State) -> Tuple[XReal, bool]:
        return self.engine._bounded(
            self.loop_key, self.guard, self.body, self.depth, sigma,
            self.after, self.synthesized,
        )


def _as_cont(f) -> Union[RtCont, FnCont]:
    if f is None:
        return ZERO_CONT
    if isinstance(f, (RtCont, FnCont)):
        return f
    if callable(f):
        return FnCont(f)
    return RtCont(f)


# ---------------------------------------------------------------------------
# public entry points


def expected_runtime(
    program: Program,
    f: Union[RtExpr, RtCont, FnCont, Callable, None] = None,
    sigma: Optional[State] = None,
    config: Optional[ErtConfig] = None,
) -> ErtResult:
    """Expected run-time of `program` applied to `f`, from state `sigma`.

    The result is exact unless a loop had to be cut off or a lower-bound
    annotation was substituted, in which case it is a lower bound.  An
    infinite lower bound is promoted back to exact, since nothing exceeds it.
    """
    cfg = config or ErtConfig()
    engine = _Engine(cfg)
    with _deep_stack():
        value, tainted = engine.eval(program, sigma or State(), _as_cont(f))
    if value.is_infinite:
        tainted = False
    # one entry per distinct bound, not one per substitution site
    return ErtResult(
        kind="lower" if tainted else "exact",
        value=value,
        annotations_used=tuple(dict.fromkeys(engine.annotations_used)),
    )


def char_functional(loop: Union[While, Annotated], f: Union[RtExpr, RtCont]):
    """The characteristic functional F of a loop with respect to `f`.

    Returns apply(X, sigma) -> (value, tainted) computing

        F(X)(sigma) = 1 + Pr[guard false] * f(sigma)
                           + Pr[guard true] * ert[body](X)(sigma)

    where X is a continuation, a callable, or a run-time expression.  The
    tainted flag is set when the body itself contained a loop that was cut
    off, in which case the value is only a lower bound on F(X)(sigma).
    """
    if isinstance(loop, Annotated):
        loop = loop.loop
    f_cont = _as_cont(f)

    def apply(X, sigma: State) -> Tuple[XReal, bool]:
        engine = _Engine(ErtConfig())
        x_cont = _as_cont(X)
        with _deep_stack():
            p_true, p_false = engine.guard(loop.guard, sigma)
            total, tainted = _TICK, False
            if p_false is not None:
                v, tainted = f_cont.eval(sigma)
                total = _acc(total, p_false, v)
            if p_true is not None:
                v, t = engine.eval(loop.body, sigma, x_cont)
                total = _acc(total, p_true, v)
                tainted = tainted or t
        return _x(total), tainted

    return apply


def kleene_iterates(
    loop: Union[While, Annotated],
    f: Union[RtExpr, RtCont],
    states: List[State],
):
    """Yield the fixed-point iterates of a loop as state tables.

    The first yielded table is the zero run-time; each following table
    applies the characteristic functional once.  States missing from the
    table read as zero, the same base the iteration starts from, so every
    entry is a sound approximation from below; an entry is exact whenever
    its dependence cone across the computed iterates stays inside the table.
    """
    if isinstance(loop, Annotated):
        loop = loop.loop
    f_cont = _as_cont(f)
    table: Dict[State, XReal] = {s: ZERO for s in states}
    yield dict(table)
    while True:
        snapshot = table
        engine = _Engine(ErtConfig())
        x_cont = FnCont(lambda q: snapshot.get(q, ZERO))
        nxt: Dict[State, XReal] = {}
        with _deep_stack():
            for s in states:
                p_true, p_false = engine.guard(loop.guard, s)
                total = _TICK
                if p_false is not None:
                    total = _acc(total, p_false, f_cont.eval(s)[0])
                if p_true is not None:
                    v, _ = engine.eval(loop.body, s, x_cont)
                    total = _acc(total, p_true, v)
                nxt[s] = _x(total)
        table = nxt
        yield dict(table)
