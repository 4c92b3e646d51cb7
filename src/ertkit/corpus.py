"""Built-in case-study programs with scripted checks.

Each entry carries a parameterized source template, default parameters
and initial state, and a list of checks exercising the transformer, the
operational model, or both.  Defaults are desk-scale: the race starts
with a lead of 5, the walk at x = 1, the collector with N in {2, 3};
the qualitative behavior does not depend on the scaling and the
quantitative expectations are formula-driven.
"""

from __future__ import annotations

from fractions import Fraction
from string import Template
from typing import Callable, Dict, List, Set

from .kernel import Record, State, XReal
from .mdp import build_mdp, cross_check, expected_reward
from .parser import parse_program, parse_rt
from .semantics import harmonic_number
from .syntax import (
    Annotated,
    Program,
    RT_ZERO,
    Seq,
    replace_whiles,
    while_loops,
)
from .transformer import expected_runtime, kleene_iterates


class CheckOutcome(Record):
    __slots__ = ("name", "ok", "detail")  # str, bool, str


class CorpusEntry(Record):
    __slots__ = (
        "name",  # str
        "template",  # str
        "params",  # Mapping[str, int]
        "state",  # Mapping[str, int]
        "notes",  # str
        "derive",  # Optional[Callable[[Dict[str, int]], Dict[str, str]]]
        "minimum",  # Mapping[str, int]
    )
    _defaults = {"derive": None, "minimum": {}}

    def resolved(self, **overrides: int) -> Dict[str, int]:
        """The parameters with `overrides` applied.  Raises `KeyError` for
        an unknown parameter and `ValueError` for one below its minimum."""
        out = dict(self.params)
        for k, v in overrides.items():
            if k not in out:
                raise KeyError(f"unknown parameter {k!r} for corpus entry {self.name}")
            out[k] = int(v)
            low = self.minimum.get(k)
            if low is not None and out[k] < low:
                raise ValueError(
                    f"parameter {k} of corpus entry {self.name} must be at "
                    f"least {low}, found {out[k]}"
                )
        return out

    def source(self, **overrides: int) -> str:
        params = self.resolved(**overrides)
        text: Dict[str, str] = {k: str(v) for k, v in params.items()}
        if self.derive is not None:
            text.update(self.derive(params))
        return Template(self.template).substitute(text)

    def template_names(self) -> Set[str]:
        """The names the program template substitutes: parameters, and the
        names `derive` computes from them."""
        # Template.get_identifiers needs Python 3.11
        return {m["named"] or m["braced"] for m in Template.pattern.finditer(self.template)}

    def program(self, **overrides: int) -> Program:
        return parse_program(self.source(**overrides))

    def initial_state(self) -> State:
        return State(dict(self.state))

    def run_checks(self, **overrides: int) -> List[CheckOutcome]:
        return _CHECKS[self.name](self, self.resolved(**overrides))


# -- the entries -------------------------------------------------------

_TRUNC = """\
if (1/2*<true> + 1/2*<false>) {
  succ := true
} else {
  if (1/2*<true> + 1/2*<false>) {
    succ := true
  } else {
    succ := false
  }
}"""

_GEO = "while (c = 1) { c :~ 1/2*<0> + 1/2*<1> }"

_RACE = """\
h := 0;
t := $lead;
while (h <= t) {
  if (1/2*<true> + 1/2*<false>) {
    h :~ unif[h .. h + 10]
  } else {
    empty
  };
  t := t + 1
}"""

_RWALK = "while (x > 0) { x :~ 1/2*<x - 1> + 1/2*<x + 1> }"

_COUPON = """\
cp := [$zeros];
i := 1;
x := $N;
while (x > 0) {
  while (cp[i] = 1) {
    i :~ unif[1 .. $N]
  };
  cp[i] := 1;
  x := x - 1
}"""

_NPAST_PART_ONE = """\
x := 1;
b := 1;
while (b = 1) {
  b :~ 1/2*<0> + 1/2*<1>;
  x := 2 * x
}"""

_NPAST_PART_TWO = "while (x > 0) { x := x - 1 }"

_NPAST = _NPAST_PART_ONE + ";\n" + _NPAST_PART_TWO

# Checked lower bound on the run-time of the countdown part with nothing
# after it; substituting it for the second loop makes the composed
# lower bound reachable at tiny unrolling depths.
_NPAST_DRAIN_BOUND = "1 + [x > 0] * 2 * x"


def _coupon_derive(params: Dict[str, int]) -> Dict[str, str]:
    return {"zeros": ", ".join(["0"] * params["N"])}


ENTRIES: Dict[str, CorpusEntry] = {
    e.name: e
    for e in (
        CorpusEntry(
            "trunc",
            _TRUNC,
            {},
            {},
            "at most two fair coin flips; expected tick count is exactly 5/2",
        ),
        CorpusEntry(
            "geo",
            _GEO,
            {},
            {"c": 1},
            "geometric loop; run-time from c = 1 is exactly 5, from c = 0 it is 1",
        ),
        CorpusEntry(
            "race",
            _RACE,
            {"lead": 5},
            {},
            "hare and tortoise race; the hare moves in uniform bursts until it "
            "overtakes the growing lead",
        ),
        CorpusEntry(
            "rwalk",
            _RWALK,
            {"start": 1, "threshold": 10},
            {"x": 1},
            "symmetric walk with an absorbing zero; terminates almost surely "
            "yet its fixed-point iterates grow without bound",
            minimum={"start": 0, "threshold": 0},
        ),
        CorpusEntry(
            "coupon",
            _COUPON,
            {"N": 2},
            {},
            "coupon collection by resampling; closed form 4 + 2N(2 + H_{N-1})",
            derive=_coupon_derive,
            minimum={"N": 1},
        ),
        CorpusEntry(
            "npast",
            _NPAST,
            {"threshold": 100},
            {},
            "doubling phase followed by a countdown; each phase alone has a "
            "finite expected run-time, their composition does not",
            minimum={"threshold": 0},
        ),
    )
}


def lookup(name: str) -> CorpusEntry:
    """The entry called `name`.  Raises `KeyError` naming the known entries
    for any other name."""
    entry = ENTRIES.get(name)
    if entry is None:
        known = ", ".join(sorted(ENTRIES))
        raise KeyError(f"unknown corpus entry {name!r} (known: {known})")
    return entry


# -- scripted checks ---------------------------------------------------

# Loop bounds of the programs the race and the walk are cross-checked on:
# their full reachable models are infinite.
RACE_DEPTH = 40
RWALK_DEPTH = 32


def _check_trunc(entry: CorpusEntry, params: Dict[str, int]) -> List[CheckOutcome]:
    program = entry.program()
    sigma = entry.initial_state()
    res = expected_runtime(program, None, sigma)
    out = [
        CheckOutcome(
            "eval",
            res.is_exact and res.value == XReal(Fraction(5, 2)),
            f"run-time {res.value} ({res.kind}), expected exactly 5/2",
        )
    ]
    cc = cross_check(program, RT_ZERO, sigma)
    out.append(
        CheckOutcome(
            "crosscheck",
            cc.status == "pass" and cc.mdp_value == XReal(Fraction(5, 2)),
            f"{cc.status} via {cc.method}: model {cc.mdp_value}",
        )
    )
    return out


def _check_geo(entry: CorpusEntry, params: Dict[str, int]) -> List[CheckOutcome]:
    program = entry.program()
    out = []
    res = expected_runtime(program, None, State({"c": 1}))
    expected = XReal(Fraction(5) - Fraction(3, 2**63))
    out.append(
        CheckOutcome(
            "eval-from-1",
            res.kind == "lower" and res.value == expected,
            f"run-time {res.value} ({res.kind}) at depth 64, "
            f"expected the lower bound 5 - 3/2^63",
        )
    )
    res0 = expected_runtime(program, None, State({"c": 0}))
    out.append(
        CheckOutcome(
            "eval-from-0",
            res0.is_exact and res0.value == XReal(1),
            f"run-time {res0.value} ({res0.kind}), expected exactly 1",
        )
    )
    m = build_mdp(program, State({"c": 1}))
    a = expected_reward(m)
    out.append(
        CheckOutcome(
            "model-exact",
            a.value == XReal(5) and a.method == "ExactLinearSolve",
            f"model value {a.value} via {a.method}, expected exactly 5",
        )
    )
    cc = cross_check(program, RT_ZERO, State({"c": 1}))
    out.append(CheckOutcome("crosscheck", cc.status == "pass", f"{cc.status}: {cc.detail}"))
    return out


def _check_race(entry: CorpusEntry, params: Dict[str, int]) -> List[CheckOutcome]:
    # The full model is infinite: t grows every round while the hare stands
    # still with probability at least 1/2, so no node cap can hold it.
    program = replace_whiles(entry.program(**params), RACE_DEPTH)
    cc = cross_check(program, RT_ZERO, entry.initial_state())
    return [
        CheckOutcome(
            "crosscheck",
            cc.status == "pass",
            f"{cc.status} ({cc.detail}); both engines give {cc.ert_value} "
            f"on the depth-{RACE_DEPTH} bounded program",
        )
    ]


def _check_rwalk(entry: CorpusEntry, params: Dict[str, int]) -> List[CheckOutcome]:
    program = entry.program()
    start, threshold = params["start"], params["threshold"]
    loop = while_loops(program)[0]
    probe = State({"x": start})
    # iterates are exact as long as the dependence cone stays inside the
    # tabulated states; the walk moves one step per iteration
    margin = 34
    states = [State({"x": v}) for v in range(0, start + margin + 1)]
    values: List[XReal] = []
    hit = None
    for n, table in enumerate(kleene_iterates(loop, RT_ZERO, states)):
        values.append(table[probe])
        if table[probe] > XReal(threshold):
            hit = n
            break
        if n >= margin - 2:
            break  # beyond this the truncated table would go inexact
    nondecreasing = all(a <= b for a, b in zip(values, values[1:]))
    out = [
        CheckOutcome(
            "iterates-nondecreasing",
            nondecreasing,
            f"{len(values)} fixed-point iterates at x = {start} are nondecreasing",
        ),
        CheckOutcome(
            "iterates-exceed",
            hit is not None,
            f"iterate {hit} = {values[-1]} first exceeds {threshold}"
            if hit is not None
            else f"no iterate exceeded {threshold} within the probed range",
        ),
    ]
    # The full model is infinite: every x can be reached.
    cc = cross_check(replace_whiles(program, RWALK_DEPTH), RT_ZERO, probe)
    out.append(
        CheckOutcome(
            "crosscheck",
            cc.status == "pass",
            f"{cc.status} ({cc.detail}) on the depth-{RWALK_DEPTH} bounded program",
        )
    )
    return out


def coupon_closed_form(n: int) -> Fraction:
    if n < 1:
        raise ValueError("N must be at least 1")
    return 4 + 2 * n * (2 + harmonic_number(n - 1))


def _check_coupon(entry: CorpusEntry, params: Dict[str, int]) -> List[CheckOutcome]:
    n = params["N"]
    program = entry.program(N=n)
    sigma = entry.initial_state()
    closed = XReal(coupon_closed_form(n))
    m = build_mdp(program, sigma)
    a = expected_reward(m)
    out = [
        CheckOutcome(
            "model-closed-form",
            a.value == closed,
            f"model value {a.value} via {a.method}, closed form {closed}",
        )
    ]
    bounds: List[XReal] = []
    depth = 1
    while depth <= 128:
        bounded = replace_whiles(program, depth)
        bounds.append(expected_runtime(bounded, None, sigma).value)
        depth *= 2
    monotone = all(a_ <= b_ for a_, b_ in zip(bounds, bounds[1:]))
    below = all(b <= closed for b in bounds)
    gap = closed.q - bounds[-1].q
    out.append(
        CheckOutcome(
            "bounded-approach",
            monotone and below and gap < Fraction(1, 10**6),
            f"bounded run-times at depths 1..128 climb monotonically to "
            f"within {float(gap):.3e} of {closed}",
        )
    )
    cc = cross_check(program, RT_ZERO, sigma)
    out.append(CheckOutcome("crosscheck", cc.status == "pass", f"{cc.status}: {cc.detail}"))
    return out


def _npast_part_one_exact(part_one: Program, sigma: State) -> CheckOutcome:
    """Certify the exact run-time of the doubling phase.

    Depth-limited unrolling can only ever give a lower bound here: the
    coin loop exits in any fixed number of iterations with probability
    below one, so the cutoff stays reachable at every depth.  The exact
    value needs a certificate from both sides instead: an upper
    invariant that is a fixed point, and a lower omega-invariant whose
    limit meets it.
    """
    from .invariants import (
        OmegaInvariantSpec,
        StateDomain,
        UpperInvariantSpec,
        check_omega_invariant,
        check_upper_invariant,
    )

    loop = while_loops(part_one)[0]
    domain = StateDomain.product({"b": (0, 1), "x": (1, 2)})
    upper = check_upper_invariant(
        loop, RT_ZERO, UpperInvariantSpec(parse_rt("1 + [b = 1] * 6")), domain
    )
    lower = check_omega_invariant(
        loop,
        RT_ZERO,
        OmegaInvariantSpec(
            parse_rt("[not (b = 1)] * 1 + [b = 1] * (7 - 7 * (1/2)^n)"),
            "lower",
        ),
        n_max=50,
        D=domain,
    )
    # upper bound 7 from b = 1 meets the lower limit 7, so the loop's
    # run-time there is exactly 7; the two setup assignments add 2.
    engine = expected_runtime(part_one, None, sigma)
    floor = XReal(Fraction(9) - Fraction(1, 2**50))
    ok = (
        upper.holds
        and lower.holds
        and engine.kind == "lower"
        and floor <= engine.value <= XReal(9)
    )
    return CheckOutcome(
        "part-one-exact",
        ok,
        "doubling phase alone: exactly 9 (two-sided invariant certificate; "
        f"upper {upper.status}, lower omega {lower.status}, "
        f"depth-64 unrolling reaches {float(engine.value.q):.12f})",
    )


def _check_npast(entry: CorpusEntry, params: Dict[str, int]) -> List[CheckOutcome]:
    threshold = params["threshold"]
    sigma = entry.initial_state()
    part_one = parse_program(_NPAST_PART_ONE)
    part_two = parse_program(_NPAST_PART_TWO)
    out = [_npast_part_one_exact(part_one, sigma)]
    r2 = expected_runtime(part_two, None, State({"x": 1}))
    out.append(
        CheckOutcome(
            "part-two-finite",
            r2.is_exact and r2.value == XReal(3),
            f"countdown alone from x = 1: {r2.value} ({r2.kind}), expected exactly 3",
        )
    )
    composed = Seq(part_one, Annotated(part_two, parse_rt(_NPAST_DRAIN_BOUND)))
    rc = expected_runtime(composed, None, sigma)
    out.append(
        CheckOutcome(
            "composition-exceeds",
            rc.kind == "lower"
            and rc.value > XReal(threshold)
            and len(rc.annotations_used) == 1,
            f"composed lower bound {float(rc.value.q):.4f} at depth 64 "
            f"exceeds {threshold} using the countdown bound "
            f"{rc.annotations_used[0] if rc.annotations_used else '-'}",
        )
    )
    return out


_CHECKS: Dict[str, Callable[[CorpusEntry, Dict[str, int]], List[CheckOutcome]]] = {
    "trunc": _check_trunc,
    "geo": _check_geo,
    "race": _check_race,
    "rwalk": _check_rwalk,
    "coupon": _check_coupon,
    "npast": _check_npast,
}
