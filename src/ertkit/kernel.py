"""Extended non-negative rationals, program values, and program states.

These are the semantic ground types: run-times live in the non-negative
rationals extended with infinity (XReal), programs manipulate integer and
boolean values (Value), and a State maps scalar variables and fixed-length
arrays to values.  Everything here is immutable and total.  The module also
holds the scoped recursion limit that both the transformer and the model
builder evaluate under, so neither imports the other for it.
"""
from __future__ import annotations

import sys
from contextlib import contextmanager
from fractions import Fraction
from typing import Dict, Iterable, Mapping, Optional, Tuple, Union

RationalLike = Union[int, Fraction]


class KernelError(Exception):
    pass


class KindMismatch(KernelError):
    pass


class IndexOutOfBounds(KernelError):
    pass


class XReal:
    """A non-negative exact rational or infinity.

    The order is total: finite values compare by magnitude and infinity
    dominates everything.  Multiplication uses the convention 0 * inf = 0,
    which makes indicator-weighted sums with infinite branches well defined.
    """

    __slots__ = ("q",)

    def __init__(self, q: Optional[RationalLike]):
        # q is None for infinity
        if q is not None:
            q = Fraction(q)
            if q < 0:
                raise ValueError("XReal must be non-negative, got %s" % q)
        object.__setattr__(self, "q", q)

    @staticmethod
    def _of(q: Fraction) -> "XReal":
        """Trusted constructor: `q` must already be a non-negative Fraction.

        Skips the conversion and the sign check of the public constructor;
        for internal paths that produce such values by construction.
        """
        x = _new(XReal)
        x.q = q
        return x

    @property
    def is_infinite(self) -> bool:
        return self.q is None

    @property
    def is_finite(self) -> bool:
        return self.q is not None

    def __add__(self, other: "XReal") -> "XReal":
        if not isinstance(other, XReal):
            other = XReal(other)
        a, b = self.q, other.q
        if a is None or b is None:
            return INF
        return _of(a + b)

    __radd__ = __add__

    def __mul__(self, other: "XReal") -> "XReal":
        if not isinstance(other, XReal):
            other = XReal(other)
        a, b = self.q, other.q
        if a is None:
            return ZERO if b == 0 else INF
        if b is None:
            return ZERO if a == 0 else INF
        return _of(a * b)

    __rmul__ = __mul__

    def __le__(self, other: "XReal") -> bool:
        other = _coerce(other)
        if other.q is None:
            return True
        if self.q is None:
            return False
        return self.q <= other.q

    def __lt__(self, other: "XReal") -> bool:
        other = _coerce(other)
        return self <= other and self != other

    def __ge__(self, other: "XReal") -> bool:
        return _coerce(other) <= self

    def __gt__(self, other: "XReal") -> bool:
        return _coerce(other) < self

    def __eq__(self, other: object) -> bool:
        if isinstance(other, (int, Fraction)):
            other = XReal(other)
        if not isinstance(other, XReal):
            return NotImplemented
        return self.q == other.q

    def __hash__(self) -> int:
        return hash(("XReal", self.q))

    def __float__(self) -> float:
        return float("inf") if self.q is None else float(self.q)

    def __repr__(self) -> str:
        return "XReal(inf)" if self.q is None else "XReal(%s)" % self.q

    def __str__(self) -> str:
        return "inf" if self.q is None else str(self.q)


_new = object.__new__
_of = XReal._of


def _coerce(x: Union[XReal, RationalLike]) -> XReal:
    if isinstance(x, XReal):
        return x
    return XReal(x)


ZERO = XReal(0)
ONE = XReal(1)
INF = XReal(None)


def x_add(a: XReal, b: XReal) -> XReal:
    # XReal.__add__ coerces its right operand itself
    return (a if isinstance(a, XReal) else XReal(a)) + b


def x_mul(a: XReal, b: XReal) -> XReal:
    return (a if isinstance(a, XReal) else XReal(a)) * b


def x_leq(a: XReal, b: XReal) -> bool:
    return _coerce(a) <= _coerce(b)


def x_min(a: XReal, b: XReal) -> XReal:
    a, b = _coerce(a), _coerce(b)
    return a if a <= b else b


def x_max(a: XReal, b: XReal) -> XReal:
    a, b = _coerce(a), _coerce(b)
    return b if a <= b else a


# Values are plain Python: bool for truth values, int for integers.  bool is a
# subclass of int, so kind checks test bool first throughout.
Value = Union[int, bool]


def value_kind(v: Value) -> str:
    return "bool" if isinstance(v, bool) else "int"


class State:
    """Immutable valuation of scalar variables and fixed-length arrays.

    Arrays keep their length forever; updates return fresh states.
    """

    __slots__ = ("scalars", "arrays", "_hash")

    def __init__(
        self,
        scalars: Mapping[str, Value] = (),
        arrays: Mapping[str, Iterable[Value]] = (),
    ):
        sc = dict(scalars)
        ar = {name: tuple(vals) for name, vals in dict(arrays).items()}
        object.__setattr__(self, "scalars", sc)
        object.__setattr__(self, "arrays", ar)
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _of(scalars: Dict[str, Value], arrays: Dict[str, Tuple[Value, ...]]) -> "State":
        """Trusted constructor: the dicts are kept, not copied, so no one may
        mutate them afterwards; array values must already be tuples."""
        s = _new(State)
        s.scalars = scalars
        s.arrays = arrays
        s._hash = None
        return s

    def __hash__(self) -> int:
        # frozensets hash independently of insertion order, as __eq__ compares
        h = self._hash
        if h is None:
            h = hash((frozenset(self.scalars.items()), frozenset(self.arrays.items())))
            self._hash = h
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        return self.scalars == other.scalars and self.arrays == other.arrays

    def get(self, name: str) -> Value:
        try:
            return self.scalars[name]
        except KeyError:
            raise KeyError(name)

    def get_cell(self, name: str, index: int) -> Value:
        arr = self.arrays.get(name)
        if arr is None:
            raise KeyError(name)
        if not 1 <= index <= len(arr):
            raise IndexOutOfBounds(
                "%s[%d] out of bounds (length %d, indices are 1-based)"
                % (name, index, len(arr))
            )
        return arr[index - 1]

    def set(self, name: str, v: Value) -> "State":
        old = self.scalars.get(name)
        if old is not None and isinstance(old, bool) != isinstance(v, bool):
            raise KindMismatch(
                "cannot assign %s value to %s variable %r"
                % (value_kind(v), value_kind(old), name)
            )
        sc = self.scalars.copy()
        sc[name] = v
        return State._of(sc, self.arrays)

    def set_cell(self, name: str, index: int, v: Value) -> "State":
        arr = self.arrays.get(name)
        if arr is None:
            raise KeyError(name)
        if not 1 <= index <= len(arr):
            raise IndexOutOfBounds(
                "%s[%d] out of bounds (length %d, indices are 1-based)"
                % (name, index, len(arr))
            )
        if value_kind(arr[index - 1]) != value_kind(v):
            raise KindMismatch("cannot assign %s value to cell %s[%d]" % (value_kind(v), name, index))
        ar = self.arrays.copy()
        ar[name] = arr[: index - 1] + (v,) + arr[index:]
        return State._of(self.scalars, ar)

    def set_array(self, name: str, values: Iterable[Value]) -> "State":
        values = tuple(values)
        old = self.arrays.get(name)
        if old is not None and len(old) != len(values):
            raise KindMismatch(
                "array %r has fixed length %d, cannot assign %d values"
                % (name, len(old), len(values))
            )
        ar = self.arrays.copy()
        ar[name] = values
        return State._of(self.scalars, ar)

    def __repr__(self) -> str:
        parts = ["%s=%s" % (k, v) for k, v in sorted(self.scalars.items())]
        parts += [
            "%s=[%s]" % (k, ",".join(str(x) for x in vs))
            for k, vs in sorted(self.arrays.items())
        ]
        return "{%s}" % ", ".join(parts)


# Evaluation recurses once per statement, loop iteration and operator, far
# past Python's default limit on long runs and long expressions.
_DEEP_STACK = 1_000_000


@contextmanager
def _deep_stack():
    """Raise the recursion limit for the duration of one evaluation only."""
    old = sys.getrecursionlimit()
    if old < _DEEP_STACK:
        sys.setrecursionlimit(_DEEP_STACK)
    try:
        yield
    finally:
        sys.setrecursionlimit(old)
