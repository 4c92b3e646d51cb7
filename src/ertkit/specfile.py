"""Invariant spec files: a small key-value format driving the checkers.

A spec file is a sequence of `key: value` lines; `//` starts a comment
and blank lines are ignored.  A value may continue over following lines
indented by two spaces (programs typically do).  Every file names its
check and its program:

    check        upper | omega | refine
    program      inline program source, or
    corpus       the name of a built-in program (exactly one of the two)

and may give the keys its check reads, each at most once:

    key          read by             default   value
    f            upper omega refine  0         continuation run-time
    invariant    upper refine        required  run-time expression
    invariant_n  omega               required  run-time expression in n
    limit        omega               none      declared limit of invariant_n
    direction    omega               lower     lower | upper | both
    domain       upper omega refine  required  states to check, e.g.
                                               `c in {0, 1}; x in 0 .. 6`
    loop         upper omega refine  0         which loop to check, by
                                               leftmost-outermost position
    nmax         omega               50        omega step indices to check
    probe        omega               60        limit probe index
    rounds       refine              1         refinement rounds
    tol          omega               1e-12     limit tolerance, rational >= 0
    big          omega               1e6       finite stand-in for inf, > 0

Values are read in this order, so the first bad value is the one
reported; then a missing required key; then a key the check does not
read, as `rounds` under `check: upper`, which would change nothing; last,
a program without the loop that `loop` names.
"""

from __future__ import annotations

import re
import sys
from decimal import Decimal
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Tuple

from .invariants import StateDomain
from .kernel import Record
from .parser import ParseError, parse_program, parse_rt, read_int, too_long
from .syntax import RtExpr, RT_ZERO, while_loops

Reader = Callable[[str, str, int], object]  # (key, value, line) -> field value


class SpecError(ValueError):
    def __init__(self, message: str, line: Optional[int] = None):
        self.message = message
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(f"{where}{message}")


class InvariantSpecFile(Record):
    __slots__ = (
        "check",  # str
        "program",  # Program
        "program_source",  # str
        "loop_index",  # int
        "f",  # RtExpr
        "invariant",  # Optional[RtExpr]
        "invariant_n",  # Optional[RtExpr]
        "direction",  # str
        "limit",  # Optional[RtExpr]
        "domain",  # Optional[StateDomain]
        "n_max",  # int
        "probe",  # int
        "tol",  # Fraction
        "big",  # Fraction
        "rounds",  # int
    )

    @property
    def loop(self):
        """The checked loop; `parse_spec` has checked that it exists."""
        return while_loops(self.program)[self.loop_index]


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
        if key not in KEY_TABLE and key not in ("check", "program", "corpus"):
            raise SpecError(f"unknown key {key!r}", lineno)
        pairs.append((lineno, key, value.strip()))
    return pairs


_DOMAIN_PART = re.compile(
    r"^\s*(?P<name>[A-Za-z_][A-Za-z_0-9]*)\s+in\s+"
    r"(?:\{(?P<set>[^}]*)\}|(?P<lo>-?\d+)\s*\.\.\s*(?P<hi>-?\d+))\s*$"
)


def _domain_value(name: str, text: str) -> int:
    try:
        return read_int(
            text, f"value of {name!r}", f"value {text!r} of {name!r} is not an integer"
        )
    except ValueError as exc:
        raise SpecError(str(exc)) from None


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
            ranges[name] = [_domain_value(name, s) for s in items]
        else:
            lo, hi = _domain_value(name, m.group("lo")), _domain_value(name, m.group("hi"))
            if hi < lo:
                raise SpecError(f"empty range {lo}..{hi} for {name!r}")
            ranges[name] = list(range(lo, hi + 1))
    if not ranges:
        raise SpecError("empty domain")
    return StateDomain.product(ranges)


def _rt(key: str, value: str, lineno: int) -> RtExpr:
    try:
        return parse_rt(value)
    except ParseError as exc:
        raise SpecError(f"{key} does not parse: {exc}", lineno)


def _direction(key: str, value: str, lineno: int) -> str:
    if value not in ("lower", "upper", "both"):
        raise SpecError("direction must be lower, upper, or both", lineno)
    return value


def _domain(key: str, value: str, lineno: int) -> StateDomain:
    try:
        return parse_domain(value)
    except SpecError as exc:
        raise SpecError(exc.message, lineno)


def _integer(minimum: int) -> Reader:
    def read(key: str, value: str, lineno: int) -> int:
        try:
            n = read_int(value, key, f"{key} must be an integer, found {value!r}")
        except ValueError as exc:
            raise SpecError(str(exc), lineno) from None
        if n < minimum:
            raise SpecError(f"{key} must be at least {minimum}", lineno)
        return n

    return read


def _decimal(value: str) -> Fraction:
    """Decimal notation, converted exactly.  Like `int`, this refuses a
    value with more digits than Python reads: here, one whose exact
    numerator or denominator has more.  A long exponent is refused before
    the conversion computes 10 ** abs(exponent)."""
    d = Decimal(value)
    limit = sys.get_int_max_str_digits()
    if limit and d.is_finite() and d:
        _, digits, exponent = d.as_tuple()
        # the numerator (exponent >= 0) or the denominator (exponent < 0)
        # has at least abs(exponent) - len(digits) + 1 digits
        if abs(exponent) - len(digits) >= limit:
            raise ValueError(too_long("the exact value"))
    q = Fraction(d)
    if limit and max(abs(q.numerator), q.denominator) >= 10**limit:
        raise ValueError(too_long("the exact value"))
    return q


def _rational(positive: bool) -> Reader:
    def read(key: str, value: str, lineno: int) -> Fraction:
        try:
            if "/" in value:
                num, den = value.split("/", 1)
                q = Fraction(int(num.strip()), int(den.strip()))
            elif "e" in value.lower() or "." in value:
                q = _decimal(value)
            else:
                q = Fraction(int(value))
        except (ValueError, ArithmeticError) as exc:
            raise SpecError(f"cannot read rational {value!r}: {exc}", lineno)
        if q < 0 or (positive and q == 0):
            need = "positive" if positive else "at least 0"
            raise SpecError(f"{key} must be {need}, found {value!r}", lineno)
        return q

    return read


REQUIRED = "required"
_ALL = ("upper", "omega", "refine")

# key: (field, reader, default, the checks that read it), for every key after
# `check`, `program` and `corpus`, in the order values are read; a REQUIRED
# key is needed by every check that reads it
KEY_TABLE: Dict[str, Tuple[str, Reader, object, Tuple[str, ...]]] = {
    "f": ("f", _rt, RT_ZERO, _ALL),
    "invariant": ("invariant", _rt, REQUIRED, ("upper", "refine")),
    "invariant_n": ("invariant_n", _rt, REQUIRED, ("omega",)),
    "limit": ("limit", _rt, None, ("omega",)),
    "direction": ("direction", _direction, "lower", ("omega",)),
    "domain": ("domain", _domain, REQUIRED, _ALL),
    "loop": ("loop_index", _integer(0), 0, _ALL),
    "nmax": ("n_max", _integer(1), 50, ("omega",)),
    "probe": ("probe", _integer(1), 60, ("omega",)),
    "rounds": ("rounds", _integer(1), 1, ("refine",)),
    "tol": ("tol", _rational(positive=False), Fraction(1, 10**12), ("omega",)),
    "big": ("big", _rational(positive=True), Fraction(10**6), ("omega",)),
}


def parse_spec(text: str) -> InvariantSpecFile:
    seen: Dict[str, Tuple[int, str]] = {}
    for lineno, key, value in _raw_pairs(text):
        if key in seen:
            raise SpecError(f"duplicate key {key!r}", lineno)
        seen[key] = (lineno, value)

    check = seen.pop("check", None)
    if check is None:
        raise SpecError("missing required key `check`")
    kind = check[1]
    if kind not in _ALL:
        raise SpecError("check must be upper, omega, or refine", check[0])

    prog_entry = seen.pop("program", None)
    corpus_entry = seen.pop("corpus", None)
    if (prog_entry is None) == (corpus_entry is None):
        raise SpecError("exactly one of `program` and `corpus` is required")
    if prog_entry is not None:
        program_line, source = prog_entry
    else:
        program_line, name = corpus_entry
        from .corpus import lookup

        try:
            source = lookup(name).source()
        except KeyError as exc:
            raise SpecError(exc.args[0], program_line)
    try:
        program = parse_program(source)
    except ParseError as exc:
        raise SpecError(f"program does not parse: {exc}", program_line)

    values: Dict[str, object] = {}
    for key, (field, read, default, _) in KEY_TABLE.items():
        if key in seen:
            values[field] = read(key, seen[key][1], seen[key][0])
        else:
            values[field] = None if default is REQUIRED else default
    for key, (_, _, default, checks) in KEY_TABLE.items():
        if default is REQUIRED and kind in checks and key not in seen:
            raise SpecError(f"check: {kind} requires `{key}`")
    for key, (lineno, _) in seen.items():
        checks = KEY_TABLE[key][3]
        if kind not in checks:
            only = " and ".join(checks)
            raise SpecError(f"`{key}` is not read by check: {kind}, only by {only}", lineno)

    loops = while_loops(program)
    if not loops:
        raise SpecError("the program contains no loop", program_line)
    if values["loop_index"] >= len(loops):
        raise SpecError(
            f"loop index {values['loop_index']} out of range; "
            f"the program has {len(loops)} loop(s)",
            seen["loop"][0],
        )
    return InvariantSpecFile(check=kind, program=program, program_source=source, **values)
