"""Invariant spec files: a small key-value format driving the checkers.

A spec file is a sequence of `key: value` lines; `//` starts a comment
and blank lines are ignored.  A value may continue over following lines
indented by two spaces (programs typically do).  Keys:

    check        upper | omega | refine          (required)
    program      inline program source           (this or corpus)
    corpus       name of a built-in program
    loop         which loop to check, by leftmost-outermost position
                 (default 0)
    f            continuation run-time            (default 0)
    invariant    run-time expression              (upper / refine)
    invariant_n  run-time expression in n         (omega)
    direction    lower | upper | both             (omega; default lower)
    limit        declared limit of invariant_n    (omega, optional)
    domain       states to check, e.g. `c in {0, 1}; x in 0 .. 6`
    nmax         omega step indices to check      (default 50)
    probe        limit probe index                (default 60)
    tol          limit tolerance, rational >= 0   (default 1/10^12)
    big          finite stand-in for inf, > 0     (default 10^6)
    rounds       refinement rounds                (default 1)
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

from .invariants import StateDomain
from .parser import ParseError, parse_program, parse_rt
from .syntax import Program, RtExpr, RT_ZERO, while_loops

_KEYS = {
    "check",
    "program",
    "corpus",
    "loop",
    "f",
    "invariant",
    "invariant_n",
    "direction",
    "limit",
    "domain",
    "nmax",
    "probe",
    "tol",
    "big",
    "rounds",
}


class SpecError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.message = message
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


@dataclass(frozen=True)
class InvariantSpecFile:
    check: str
    program: Program
    program_source: str
    loop_index: int
    f: RtExpr
    invariant: Optional[RtExpr]
    invariant_n: Optional[RtExpr]
    direction: str
    limit: Optional[RtExpr]
    domain: Optional[StateDomain]
    n_max: int
    probe: int
    tol: Fraction
    big: Fraction
    rounds: int

    @property
    def loop(self):
        loops = while_loops(self.program)
        if not loops:
            raise SpecError("the program contains no loop")
        if not 0 <= self.loop_index < len(loops):
            raise SpecError(
                f"loop index {self.loop_index} out of range; "
                f"the program has {len(loops)} loop(s)"
            )
        return loops[self.loop_index]


def _raw_pairs(text: str) -> List[Tuple[int, str, str]]:
    pairs: List[Tuple[int, str, str]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("//", 1)[0].rstrip()
        if not line:
            continue
        if line.startswith("  "):
            if not pairs:
                raise SpecError("continuation line before any key", lineno)
            ln, key, value = pairs[-1]
            pairs[-1] = (ln, key, value + "\n" + line[2:])
            continue
        if ":" not in line:
            raise SpecError(f"expected `key: value`, found {line!r}", lineno)
        key, _, value = line.partition(":")
        key = key.strip()
        if key not in _KEYS:
            raise SpecError(f"unknown key {key!r}", lineno)
        pairs.append((lineno, key, value.strip()))
    return pairs


_DOMAIN_PART = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s+in\s+"
    r"(?:\{(?P<set>[^}]*)\}|(?P<lo>-?\d+)\s*\.\.\s*(?P<hi>-?\d+))\s*$"
)


def parse_domain(text: str) -> StateDomain:
    """`c in {0, 1}; x in 0 .. 6` into the product of the listed ranges."""
    ranges: Dict[str, List[int]] = {}
    for part in text.split(";"):
        if not part.strip():
            continue
        m = _DOMAIN_PART.match(part)
        if m is None:
            raise SpecError(f"cannot read domain component {part.strip()!r}")
        name = m.group("name")
        if name in ranges:
            raise SpecError(f"variable {name!r} listed twice in the domain")
        if m.group("set") is not None:
            items = [s.strip() for s in m.group("set").split(",") if s.strip()]
            if not items:
                raise SpecError(f"empty value set for {name!r}")
            ranges[name] = [int(s) for s in items]
        else:
            lo, hi = int(m.group("lo")), int(m.group("hi"))
            if hi < lo:
                raise SpecError(f"empty range {lo}..{hi} for {name!r}")
            ranges[name] = list(range(lo, hi + 1))
    if not ranges:
        raise SpecError("empty domain")
    return StateDomain.product(ranges)


def _rational(text: str, lineno: int) -> Fraction:
    try:
        if "/" in text:
            num, den = text.split("/", 1)
            return Fraction(int(num.strip()), int(den.strip()))
        if "e" in text.lower() or "." in text:
            # decimal notation is converted exactly
            from decimal import Decimal

            return Fraction(Decimal(text))
        return Fraction(int(text))
    except (ValueError, ArithmeticError) as exc:
        raise SpecError(f"cannot read rational {text!r}: {exc}", lineno)


def parse_spec(text: str) -> InvariantSpecFile:
    pairs = _raw_pairs(text)
    seen: Dict[str, Tuple[int, str]] = {}
    for lineno, key, value in pairs:
        if key in seen:
            raise SpecError(f"duplicate key {key!r}", lineno)
        seen[key] = (lineno, value)

    def take(key: str) -> Optional[Tuple[int, str]]:
        return seen.pop(key, None)

    check = take("check")
    if check is None:
        raise SpecError("missing required key `check`")
    kind = check[1]
    if kind not in ("upper", "omega", "refine"):
        raise SpecError("check must be upper, omega, or refine", check[0])

    prog_entry = take("program")
    corpus_entry = take("corpus")
    if (prog_entry is None) == (corpus_entry is None):
        raise SpecError("exactly one of `program` and `corpus` is required")
    if prog_entry is not None:
        lineno, source = prog_entry
    else:
        lineno, name = corpus_entry
        from .corpus import lookup

        try:
            source = lookup(name).source()
        except KeyError as exc:
            raise SpecError(exc.args[0], lineno)
    try:
        program = parse_program(source)
    except ParseError as exc:
        raise SpecError(f"program does not parse: {exc}", lineno)

    def rt(key: str) -> Optional[RtExpr]:
        entry = take(key)
        if entry is None:
            return None
        lineno, value = entry
        try:
            return parse_rt(value)
        except ParseError as exc:
            raise SpecError(f"{key} does not parse: {exc}", lineno)

    def integer(key: str, default: int, minimum: int = 0) -> int:
        entry = take(key)
        if entry is None:
            return default
        lineno, value = entry
        try:
            n = int(value)
        except ValueError:
            raise SpecError(f"{key} must be an integer, found {value!r}", lineno)
        if n < minimum:
            raise SpecError(f"{key} must be at least {minimum}", lineno)
        return n

    def rational(key: str, default: Fraction, positive: bool) -> Fraction:
        entry = take(key)
        if entry is None:
            return default
        lineno, value = entry
        q = _rational(value, lineno)
        if q < 0 or (positive and q == 0):
            need = "positive" if positive else "at least 0"
            raise SpecError(f"{key} must be {need}, found {value!r}", lineno)
        return q

    f = rt("f")
    invariant = rt("invariant")
    invariant_n = rt("invariant_n")
    limit = rt("limit")

    direction_entry = take("direction")
    direction = direction_entry[1] if direction_entry else "lower"
    if direction not in ("lower", "upper", "both"):
        raise SpecError(
            "direction must be lower, upper, or both",
            direction_entry[0] if direction_entry else None,
        )

    domain_entry = take("domain")
    domain = parse_domain(domain_entry[1]) if domain_entry else None

    loop_index = integer("loop", 0)
    n_max = integer("nmax", 50, minimum=1)
    probe = integer("probe", 60, minimum=1)
    rounds = integer("rounds", 1, minimum=1)
    tol = rational("tol", Fraction(1, 10**12), positive=False)
    big = rational("big", Fraction(10**6), positive=True)

    needed = "invariant_n" if kind == "omega" else "invariant"
    if (invariant_n if kind == "omega" else invariant) is None:
        raise SpecError(f"check: {kind} requires `{needed}`")
    if domain is None:
        raise SpecError(f"check: {kind} requires `domain`")

    spec = InvariantSpecFile(
        check=kind,
        program=program,
        program_source=source,
        loop_index=loop_index,
        f=f if f is not None else RT_ZERO,
        invariant=invariant,
        invariant_n=invariant_n,
        direction=direction,
        limit=limit,
        domain=domain,
        n_max=n_max,
        probe=probe,
        tol=tol,
        big=big,
        rounds=rounds,
    )
    spec.loop  # validates the loop index against the parsed program
    return spec

