"""Extended non-negative rationals, program values, and program states.

These are the semantic ground types: run-times live in the non-negative
rationals extended with infinity (XReal), programs manipulate integer and
boolean values (Value), and a State maps each variable to its value, a
fixed-length array to a tuple of them.  A variable keeps its kind (int,
bool or array) and an array its length.  Everything here is immutable.  The
module also holds the scoped recursion limit that both the transformer and
the model builder evaluate under, so neither imports the other for it, and
`Record`, the slotted base of every syntax node and every result and config
record of the package.

The module is also the one home of the exact int-pair format (`Pair`), in
which the run-time evaluator of `semantics` and the transformer's engine
compute: one weighted sum over the lcm (`pair_sum`), one reduction to
lowest terms (`pair_lowest`), one order with infinity on top (`pair_le`),
and one conversion each way between a pair and an `XReal` (`XReal.of_pair`
and `XReal.pair`).  The model's solver keeps its own arithmetic, so that a
defect here shows when the legs are compared.
"""
from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd
from typing import Dict, FrozenSet, List, Mapping, Optional, Tuple, Union

RationalLike = Union[int, Fraction]


class KernelError(Exception):
    pass


class KindMismatch(KernelError):
    pass


class IndexOutOfBounds(KernelError):
    pass


# ---------------------------------------------------------------------------
# records

# the parameter default of a field whose default is built for each record
_FRESH = object()


class Record:
    """Base of every syntax node and every result and config record.

    A record class lists its fields once, in order, as `__slots__`, and the
    defaults of its trailing fields in a `_defaults` dict; a list or dict
    default is built anew for each record, as a dataclass `default_factory`
    would.  The class gets a constructor taking its fields as positional or
    named parameters, unless it writes its own `__init__` to normalise them;
    a class that defines `_validate` has it called once the fields are set.
    Equality, hashing, `repr`, copying, pickling and `match` patterns follow
    the fields, as for a frozen dataclass: records are equal when they have
    the same class and equal fields, the hash is that of the tuple of
    fields, and assigning or deleting an attribute raises
    `dataclasses.FrozenInstanceError`.  A class declared with
    `frozen=False` can be assigned to and is unhashable, as a dataclass that
    is not frozen.  The constructor is compiled once per class, which costs
    far less at import time than dataclass generation, and no record keeps
    a `__dict__`.
    """

    __slots__ = ()

    def __init_subclass__(cls, frozen: bool = True):
        cls.__match_args__ = cls.__slots__
        if not frozen:
            cls.__setattr__ = object.__setattr__
            cls.__delattr__ = object.__delattr__
            cls.__hash__ = None
        if "__init__" not in cls.__dict__:
            cls.__init__ = _record_init(cls)

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        return "%s(%s)" % (
            type(self).__qualname__,
            ", ".join(["%s=%r" % (name, getattr(self, name)) for name in self.__slots__]),
        )

    # the error is the dataclass one, imported only when raised: importing
    # `dataclasses` costs more than everything this base does at import
    def __setattr__(self, name, value):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot assign to field %r" % name)

    def __delattr__(self, name):
        from dataclasses import FrozenInstanceError
        raise FrozenInstanceError("cannot delete field %r" % name)

    def __reduce__(self):
        return type(self), self._fields()


def _record_init(cls: type):
    """The constructor of the record class `cls`, compiled from its
    `__slots__`, `_defaults` and `_validate`."""
    defaults = cls.__dict__.get("_defaults", {})
    # each field is written through its slot's own setter, which is quicker
    # than object.__setattr__ and bypasses the frozen guard
    namespace = {"_fresh": _FRESH}
    params, body = [], []
    for name in cls.__slots__:
        namespace["_set_" + name] = cls.__dict__[name].__set__
        if name not in defaults:
            params.append(name)
        elif defaults[name].__class__ in (list, dict):
            params.append("%s=_fresh" % name)
            body.append("    if %s is _fresh:\n        %s = %s()\n" % (
                name, name, defaults[name].__class__.__name__))
        else:
            namespace["_default_" + name] = defaults[name]
            params.append("%s=_default_%s" % (name, name))
    body += ["    _set_%s(self, %s)\n" % (name, name) for name in cls.__slots__]
    if hasattr(cls, "_validate"):
        body.append("    self._validate()\n")
    exec("def __init__(%s):\n%s" % (
        ", ".join(["self"] + params), "".join(body) or "    pass\n"), namespace)
    init = namespace["__init__"]
    init.__qualname__ = cls.__qualname__ + ".__init__"
    return init


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

    @staticmethod
    def of_pair(n: Optional[int], d: int) -> "XReal":
        """The value of a pair `(n, d)`, in any terms."""
        return INF if n is None else _of(Fraction(n, d))

    @property
    def pair(self) -> "Pair":
        """The value as a pair in lowest terms, `(None, 1)` for infinity."""
        q = self.q
        return (None, 1) if q is None else (q.numerator, q.denominator)

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
        # a finite value equals its int or Fraction, so it hashes like it
        return hash(self.q)

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


# A run-time as a pair of Python ints (n, d): the value n/d with n >= 0 and
# d > 0, or infinity when n is None.  A pair need not be in lowest
# terms; `pair_lowest` reduces it where a value leaves a computation.
Pair = Tuple[Optional[int], int]


def pair_sum(
    n: Optional[int], d: int, pn: int, pd: int, vn: Optional[int], vd: int
) -> Pair:
    """n/d + (pn/pd) * (vn/vd), unreduced, for a weight 0 < pn/pd <= 1.

    Infinity absorbs the sum.  A plain sum is the weight 1/1.  Probability
    weights lie in (0, 1] by construction (the parser checks that weights
    lie in [0, 1] and sum to one, a uniform weight is 1/n, and zero-weight
    entries and impossible guard sides are never summed), so pd == 1 means
    the weight is 1.  The sum is taken over the lcm of the denominators, so
    that a long sum of terms with many distinct denominators grows like
    their lcm, not like their product.
    """
    if n is None or vn is None:
        return None, 1
    if not vn:
        return n, d
    if pd != 1:
        vn *= pn
        vd *= pd
    if vd == d:
        return n + vn, d
    if d == 1:
        return n * vd + vn, vd
    if vd == 1:
        return n + vn * d, d
    g = gcd(d, vd)
    s = d // g
    return n * (vd // g) + vn * s, s * vd


def pair_lowest(n: Optional[int], d: int) -> Pair:
    """The pair in lowest terms, with one gcd."""
    if n is not None and d != 1:
        g = gcd(n, d)
        if g != 1:
            return n // g, d // g
    return n, d


def pair_le(n: Optional[int], d: int, m: Optional[int], e: int) -> bool:
    """n/d <= m/e, infinity on top."""
    if m is None:
        return True
    if n is None:
        return False
    return n * e <= m * d


# Values are plain Python: bool, int, and a tuple of ints for a whole array.
# bool is a subclass of int, so kind checks test bool first throughout.
Value = Union[int, bool]


def value_kind(v: Union[Value, Tuple[Value, ...]]) -> str:
    return "bool" if isinstance(v, bool) else "array" if isinstance(v, tuple) else "int"


ArrayValue = Union[Tuple[Value, ...], List[Value]]


def _array(name: str, v: object) -> Tuple[Value, ...]:
    """`v`, the value given for variable `name`, as a whole array."""
    if v.__class__ in (tuple, list) and all(x.__class__ in (int, bool) for x in v):
        return tuple(v)
    raise KindMismatch("variable %r: %r is not an int, a bool or an array" % (name, v))


class EvalError(KernelError):
    pass


class UnboundVariable(EvalError, KeyError):
    """A name the state lacks: a `KeyError` too, printed without quotes."""

    __str__ = KernelError.__str__


_NO_BOOLS: FrozenSet = frozenset()


def _bool_places(values: Dict[str, Union[Value, Tuple[Value, ...]]]) -> FrozenSet:
    """Where `values` holds a bool: a scalar's name or a cell's (name, index)."""
    places = [name for name, v in values.items() if v.__class__ is bool]
    places += [
        (name, i)
        for name, v in values.items() if v.__class__ is tuple
        for i, x in enumerate(v, 1) if x.__class__ is bool
    ]
    return frozenset(places) if places else _NO_BOOLS


class State:
    """Immutable map from each variable to its value, an array to a tuple.

    A variable keeps its kind and an array its length; updates return fresh
    states.  Two states are equal when their values and their kinds are:
    since 1 == True, each state keeps the places that hold a bool.
    """

    __slots__ = ("values", "_bools", "_hash")

    def __init__(self, values: Mapping[str, Union[Value, ArrayValue]] = ()):
        # as in `set`, any value that is not an int or a bool is a whole array
        vals = {
            name: v if v.__class__ is int or v.__class__ is bool else _array(name, v)
            for name, v in dict(values).items()
        }
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "_bools", _bool_places(vals))
        object.__setattr__(self, "_hash", None)

    @staticmethod
    def _of(values: Dict[str, Union[Value, Tuple[Value, ...]]], bools: FrozenSet) -> "State":
        """Trusted constructor: `values` is kept, not copied, so no one may
        mutate it afterwards; arrays must already be tuples, and `bools` must
        be `_bool_places(values)`."""
        s = _new(State)
        s.values = values
        s._bools = bools
        s._hash = None
        return s

    def __hash__(self) -> int:
        # a frozenset hashes independently of insertion order, as __eq__ compares
        h = self._hash
        if h is None:
            h = hash(frozenset(self.values.items()))
            self._hash = h
        return h

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, State):
            return NotImplemented
        if self.values != other.values:
            return False
        a, b = self._bools, other._bools
        return a is b or a == b

    def get(self, name: str) -> Value:
        try:
            v = self.values[name]
        except KeyError:
            raise UnboundVariable("undefined variable %r" % name) from None
        if v.__class__ is tuple:
            raise KindMismatch("array %r is read without an index" % name)
        return v

    def _cells(self, name: str, index: int) -> Tuple[Value, ...]:
        """The cells of array `name`, once `index` is known to address one."""
        arr = self.values.get(name)
        if arr.__class__ is not tuple:
            if arr is None:
                raise UnboundVariable("undefined array %r" % name)
            raise KindMismatch("%s variable %r is not an array" % (value_kind(arr), name))
        if index.__class__ is not int:
            raise KindMismatch("array index must be an integer, got %r" % (index,))
        if not 1 <= index <= len(arr):
            raise IndexOutOfBounds(
                "%s[%d] out of bounds (length %d, indices are 1-based)"
                % (name, index, len(arr))
            )
        return arr

    def get_cell(self, name: str, index: int) -> Value:
        return self._cells(name, index)[index - 1]

    def set(self, name: str, v: Union[Value, ArrayValue]) -> "State":
        """Write the whole variable `name`; a tuple or list is a whole array."""
        if v.__class__ is not int and v.__class__ is not bool:
            v = _array(name, v)
        old = self.values.get(name)
        if old is not None:
            if old.__class__ is not v.__class__:
                raise KindMismatch(
                    "cannot assign %s value to %s variable %r"
                    % (value_kind(v), value_kind(old), name)
                )
            if v.__class__ is tuple and len(v) != len(old):
                raise KindMismatch(
                    "array %r has fixed length %d, cannot assign %d values"
                    % (name, len(old), len(v))
                )
        vals = self.values.copy()
        vals[name] = v
        # a scalar keeps its kind, and a new int holds no bool
        if v.__class__ is int or (old is not None and v.__class__ is bool):
            return State._of(vals, self._bools)
        return State._of(vals, _bool_places(vals))

    def set_cell(self, name: str, index: int, v: Value) -> "State":
        arr = self._cells(name, index)
        if arr[index - 1].__class__ is not v.__class__:
            raise KindMismatch(
                "cannot assign %s value to cell %s[%d]" % (value_kind(v), name, index)
            )
        vals = self.values.copy()
        vals[name] = arr[: index - 1] + (v,) + arr[index:]
        return State._of(vals, self._bools)

    def __repr__(self) -> str:
        # scalars, then arrays, each sorted by name
        items = sorted(self.values.items())
        parts = ["%s=%s" % kv for kv in items if kv[1].__class__ is not tuple]
        parts += ["%s=[%s]" % (k, ",".join(map(str, v))) for k, v in items if v.__class__ is tuple]
        return "{%s}" % ", ".join(parts)



# Evaluation recurses once per statement, loop iteration and operator, far
# past Python's default limit on long runs and long expressions.
_DEEP_STACK = 1_000_000


class _deep_stack:
    """Raise the recursion limit for the duration of one evaluation only:
    `with _deep_stack(): ...` restores the old limit on leaving, also when
    the body raises."""

    __slots__ = ("old",)

    def __enter__(self):
        self.old = old = sys.getrecursionlimit()
        if old < _DEEP_STACK:
            sys.setrecursionlimit(_DEEP_STACK)

    def __exit__(self, *exc_info):
        sys.setrecursionlimit(self.old)
