"""Loop bound certification: upper invariants, omega-invariants with limits,
and iterative refinement, checked pointwise over finite state domains.

A verdict here is a statement about the declared domain only.  The proof
rules quantify over all states, so Holds on a finite domain is evidence, not
a proof, unless the domain covers every state the loop can reach; the
checkers are exact on the points they do check.

Soundness under cutoffs: the transformer reports lower bounds when a nested
loop is cut off.  A computed value that already violates an upper condition,
or already satisfies a lower condition, is conclusive regardless; the
remaining cases are reported as Inconclusive rather than guessed.
"""
from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Callable, Dict, Iterator, Mapping, Optional, Sequence, Tuple, Union

from .kernel import (
    INF, IndexOutOfBounds, KernelError, KindMismatch, Record, State, XReal,
    _deep_stack,
)
from .semantics import EvalError, eval_rt
from .syntax import Annotated, RT_ZERO, RtExpr, While
from .transformer import char_functional


class PreconditionFailed(KernelError):
    def __init__(self, state: State, round_index: int, message: str):
        super().__init__(message)
        self.state = state
        self.round_index = round_index


class DomainEscape(KernelError):
    """A refinement round needs the previous round's table at a state
    outside the domain, so the domain is not closed under body steps."""

    def __init__(self, state: State, round_index: int):
        super().__init__(
            "round %d: a body step leaves the domain, reaching %s; refining for "
            "more than one round needs a domain closed under body steps"
            % (round_index, state)
        )
        self.state = state
        self.round_index = round_index


# ---------------------------------------------------------------------------
# domains and specs


class StateDomain(Record):
    __slots__ = ("states",)  # Tuple[State, ...]

    def _validate(self):
        if not self.states:
            raise ValueError("a state domain must be nonempty")

    def __iter__(self):
        return iter(self.states)

    def __len__(self):
        return len(self.states)

    @staticmethod
    def product(ranges: Mapping[str, Sequence[int]]) -> "StateDomain":
        """All combinations of the given scalar ranges, last name fastest."""
        return StateDomain(tuple(
            State(dict(zip(ranges, values)))
            for values in itertools.product(*ranges.values())
        ))


class UpperInvariantSpec(Record):
    __slots__ = ("invariant",)  # RtExpr; must not mention the iteration parameter


class OmegaInvariantSpec(Record):
    __slots__ = (
        "invariant_n",  # RtExpr; may mention the iteration parameter n
        "direction",  # "lower" | "upper"
    )

    def _validate(self):
        if self.direction not in ("lower", "upper"):
            raise ValueError("direction must be 'lower' or 'upper'")


class Verdict(Record):
    __slots__ = (
        "status",  # "Holds" | "Fails" | "Inconclusive"
        "witness",  # Optional[State]
        "n",  # Optional[int]
        "lhs",  # Optional[XReal]
        "rhs",  # Optional[XReal]
        "reason",  # Optional[str]
    )
    _defaults = {"witness": None, "n": None, "lhs": None, "rhs": None, "reason": None}

    @property
    def holds(self) -> bool:
        return self.status == "Holds"


# the errors of evaluating at one state of the domain, whose message gains
# that state; not every `KernelError`, since `DomainEscape` names its own
_STATE_ERRORS = (EvalError, KindMismatch, IndexOutOfBounds)


def _attach_state(err: Exception, sigma: State):
    raise type(err)("%s (at state %s)" % (err, sigma)) from err


def _rt_at(expr: RtExpr, sigma: State, n: Optional[int] = None) -> XReal:
    try:
        return eval_rt(expr, sigma, {"n": n} if n is not None else None)
    except _STATE_ERRORS as e:
        _attach_state(e, sigma)


# ---------------------------------------------------------------------------
# point comparison under possibly cut-off evaluation
#
# computed is exact when untainted, otherwise a lower bound of the true value


def _point(direction: str, computed: XReal, tainted: bool, bound: XReal) -> str:
    if direction == "upper":
        if not computed <= bound:
            return "Fails"  # true value >= computed > bound
        return "ok" if not tainted else "Inconclusive"
    if bound <= computed:
        return "ok"  # true value >= computed >= bound
    return "Inconclusive" if tainted else "Fails"


# ---------------------------------------------------------------------------
# checks


def _premises(
    apply_F, X, bound: Callable[[State], XReal], direction: str, D: StateDomain
) -> Iterator[Tuple[State, XReal, XReal, str]]:
    """For each state of D in order: the state, F(X)(sigma), the bound at
    sigma, and how the two compare in `direction`."""
    for sigma in D:
        try:
            lhs, tainted = apply_F(X, sigma)
        except _STATE_ERRORS as e:
            _attach_state(e, sigma)
        rhs = bound(sigma)
        yield sigma, lhs, rhs, _point(direction, lhs, tainted, rhs)


def check_upper_invariant(
    W: Union[While, Annotated],
    f: RtExpr,
    spec: UpperInvariantSpec,
    D: StateDomain,
) -> Verdict:
    """Park's rule: F_f(I) pointwise at most I certifies ert at most I."""
    apply_F = char_functional(W, f)
    inconclusive: Optional[str] = None
    with _deep_stack():
        for sigma, lhs, rhs, res in _premises(
            apply_F, spec.invariant,
            lambda s: _rt_at(spec.invariant, s), "upper", D,
        ):
            if res == "Fails":
                return Verdict("Fails", witness=sigma, lhs=lhs, rhs=rhs)
            if res == "Inconclusive" and inconclusive is None:
                inconclusive = (
                    "a loop inside the body was cut off at %s; "
                    "annotate it or raise the unroll depth" % sigma
                )
    if inconclusive:
        return Verdict("Inconclusive", reason=inconclusive)
    return Verdict("Holds")


def check_omega_invariant(
    W: Union[While, Annotated],
    f: RtExpr,
    spec: OmegaInvariantSpec,
    n_max: int,
    D: StateDomain,
) -> Verdict:
    """Base and step conditions of the omega-invariant rule.

    Lower direction: F_f(0) at least I_0 and F_f(I_n) at least I_{n+1};
    the upper direction is the same with the orders flipped.
    """
    apply_F = char_functional(W, f)
    inconclusive: Optional[str] = None
    with _deep_stack():
        # round 0 is the base case F(0) against I_0, round k the step
        # F(I_{k-1}) against I_k; both report their n as max(k - 1, 0)
        for k in range(n_max + 1):
            n = max(k - 1, 0)
            X = RT_ZERO
            if k:
                # I_{k-1} as a function of the state, its binding built once
                X = lambda s, b={"n": k - 1}: eval_rt(spec.invariant_n, s, b)  # noqa: E731
            for sigma, lhs, rhs, res in _premises(
                apply_F, X, lambda s: _rt_at(spec.invariant_n, s, k),
                spec.direction, D,
            ):
                if res == "Fails":
                    return Verdict("Fails", witness=sigma, n=n, lhs=lhs, rhs=rhs)
                if res == "Inconclusive" and inconclusive is None:
                    inconclusive = "body loop cut off at %s (n=%s)" % (sigma, n)
    if inconclusive:
        return Verdict("Inconclusive", reason=inconclusive)
    return Verdict("Holds")


def check_limit(
    invariant_n: RtExpr,
    limit: RtExpr,
    D: StateDomain,
    n_probe: int,
    tol: Fraction,
    big: Fraction,
) -> Verdict:
    """Numeric evidence that I_n tends to `limit` on the domain.

    `limit` is n-free and may be infinite-valued.  Never returns Holds:
    agreement at finitely many probe indices cannot establish a limit.  A
    finite limit must be approached within tol at the last probe with
    nonincreasing deviations; an infinite one must be exceeded in the sense
    of I at the last probe reaching `big`.
    """
    probes = sorted({max(1, n_probe // 4), max(1, n_probe // 2), n_probe})
    with _deep_stack():
        for sigma in D:
            lim = _rt_at(limit, sigma)
            vals = [_rt_at(invariant_n, sigma, n) for n in probes]
            if lim.is_infinite:
                if vals[-1].is_finite and vals[-1].q < big:
                    return Verdict(
                        "Fails", witness=sigma, n=n_probe,
                        lhs=vals[-1], rhs=XReal(big),
                    )
                continue
            devs = []
            for v in vals:
                if v.is_infinite:
                    devs.append(INF)
                else:
                    devs.append(XReal(abs(v.q - lim.q)))
            bad = (
                not devs[-1] <= XReal(tol)
                or any(not devs[i + 1] <= devs[i] for i in range(len(devs) - 1))
            )
            if bad:
                return Verdict(
                    "Fails", witness=sigma, n=n_probe, lhs=vals[-1], rhs=lim
                )
    return Verdict(
        "Inconclusive",
        reason="consistent with the declared limit on the checked domain "
        "(numeric evidence, not a proof)",
    )


def refine(
    W: Union[While, Annotated],
    f: RtExpr,
    I: RtExpr,
    D: StateDomain,
    rounds: int,
) -> Dict[State, XReal]:
    """Apply the characteristic functional `rounds` times, tightening an
    upper bound.

    Each round first re-checks that the current table still lies above its
    image, which is what licenses another application; PreconditionFailed
    aborts the refinement otherwise.  With more than one round the domain
    must be closed under body steps, since intermediate bounds exist only
    as tables on D; DomainEscape names the first state outside D a round
    needs.
    """
    apply_F = char_functional(W, f)
    with _deep_stack():
        table = {sigma: _rt_at(I, sigma) for sigma in D}
        X = I
        for r in range(rounds):
            nxt: Dict[State, XReal] = {}
            for sigma, lhs, rhs, res in _premises(
                apply_F, X, table.__getitem__, "upper", D
            ):
                if res != "ok":
                    raise PreconditionFailed(
                        sigma, r,
                        "round %d: F(I) is not below I at %s (%s vs %s)"
                        % (r, sigma, lhs, rhs),
                    )
                nxt[sigma] = lhs
            table = nxt
            X = _table_lookup(table, r + 1)
    return table


def _table_lookup(table: Dict[State, XReal], round_index: int) -> Callable[[State], XReal]:
    def lookup(sigma: State) -> XReal:
        try:
            return table[sigma]
        except KeyError:
            raise DomainEscape(sigma, round_index) from None

    return lookup
