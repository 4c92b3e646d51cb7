import itertools
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ertkit.kernel import (
    INF,
    IndexOutOfBounds,
    KindMismatch,
    KernelError,
    State,
    UnboundVariable,
    XReal,
    ZERO,
    _DEEP_STACK,
    _deep_stack,
    pair_le,
    pair_lowest,
    pair_sum,
    value_kind,
)


def test_xreal_construction_and_str():
    assert str(XReal(Fraction(5, 2))) == "5/2"
    assert str(XReal(3)) == "3"
    assert str(INF) == "inf"
    assert XReal(0) == ZERO
    with pytest.raises(ValueError):
        XReal(Fraction(-1, 2))


def test_xreal_addition_absorbs_infinity():
    assert XReal(2) + XReal(Fraction(1, 2)) == XReal(Fraction(5, 2))
    assert INF + XReal(7) == INF
    assert XReal(7) + INF == INF
    assert INF + INF == INF


def test_xreal_multiplication_zero_times_infinity():
    # the measure-theoretic convention: 0 * inf = 0
    assert ZERO * INF == ZERO
    assert INF * ZERO == ZERO
    assert XReal(Fraction(1, 2)) * INF == INF
    assert XReal(2) * XReal(Fraction(3, 4)) == XReal(Fraction(3, 2))


def test_xreal_order_with_top():
    assert XReal(3) <= INF
    assert not (INF <= XReal(3))
    assert INF <= INF
    assert XReal(1) <= XReal(2)
    a, b = INF, XReal(4)
    assert (a if a <= b else b) == XReal(4)
    assert (b if a <= b else a) == INF
    assert sorted([INF, XReal(1), XReal(0)]) == [XReal(0), XReal(1), INF]


def test_xreal_hash_consistency():
    assert hash(XReal(Fraction(4, 2))) == hash(XReal(2))
    d = {XReal(2): "a", INF: "b"}
    assert d[XReal(Fraction(2))] == "a"
    assert d[INF] == "b"


def test_an_xreal_hashes_like_the_number_it_equals():
    # equal objects must hash equal, so a set or dict key holds one of them
    for q in (0, 1, 7, 2**70, Fraction(0), Fraction(3), Fraction(5, 2), Fraction(1, 3**40)):
        x = XReal(q)
        assert x == q and hash(x) == hash(q)
        assert len({x, q}) == 1
        assert {q: "n"}[x] == "n" and {x: "x"}[q] == "x"
    assert len({ZERO, 0, Fraction(0), XReal(Fraction(0, 5))}) == 1
    assert len({INF, XReal(None)}) == 1
    assert INF != 0 and len({INF, 0, ZERO}) == 2


def test_state_updates_are_persistent():
    s = State({"x": 1, "b": True})
    t = s.set("x", 5)
    assert s.get("x") == 1
    assert t.get("x") == 5
    assert t.get("b") is True
    with pytest.raises(KeyError):
        s.get("y")


def test_state_kind_discipline():
    s = State({"x": 1})
    with pytest.raises(KindMismatch):
        s.set("x", True)
    fresh = s.set("b", False)
    assert fresh.get("b") is False


def test_state_arrays_one_based_fixed_length():
    s = State({"cp": (0, 0, 1)})
    assert s.get_cell("cp", 1) == 0
    assert s.get_cell("cp", 3) == 1
    with pytest.raises(IndexOutOfBounds):
        s.get_cell("cp", 0)
    with pytest.raises(IndexOutOfBounds):
        s.get_cell("cp", 4)
    t = s.set_cell("cp", 2, 7)
    assert s.get_cell("cp", 2) == 0
    assert t.get_cell("cp", 2) == 7
    with pytest.raises(KindMismatch):
        s.set("cp", (1, 2))


def test_value_kinds():
    assert [value_kind(v) for v in (0, True, (1, 2), ())] == ["int", "bool", "array", "array"]


def test_a_variable_keeps_its_kind_and_an_array_its_length():
    s = State({"x": 1, "b": False, "a": (0, 0)})
    for name, v, message in [
        ("x", (4, 5), "cannot assign array value to int variable 'x'"),
        ("b", (4, 5), "cannot assign array value to bool variable 'b'"),
        ("a", 3, "cannot assign int value to array variable 'a'"),
        ("a", True, "cannot assign bool value to array variable 'a'"),
        ("a", (1, 2, 3), "array 'a' has fixed length 2, cannot assign 3 values"),
        ("a", (), "array 'a' has fixed length 2, cannot assign 0 values"),
    ]:
        with pytest.raises(KindMismatch) as info:
            s.set(name, v)
        assert str(info.value) == message
    assert s.set("a", [3, 4]) == State({"x": 1, "b": False, "a": (3, 4)})
    assert s.set("q", (7,)).get_cell("q", 1) == 7


def test_cell_access_checks_kind_index_and_bounds():
    s = State({"x": 1, "a": (0, 0)})
    for name, index, error, message in [
        ("y", 1, UnboundVariable, "undefined array 'y'"),
        ("x", 1, KindMismatch, "int variable 'x' is not an array"),
        ("a", True, KindMismatch, "array index must be an integer, got True"),
        ("a", 3, IndexOutOfBounds, "a[3] out of bounds (length 2, indices are 1-based)"),
    ]:
        with pytest.raises(error) as read:
            s.get_cell(name, index)
        with pytest.raises(error) as write:
            s.set_cell(name, index, 5)
        assert str(read.value) == str(write.value) == message
    for v, kind in ((True, "bool"), ((1, 2), "array")):
        with pytest.raises(KindMismatch) as info:
            s.set_cell("a", 1, v)
        assert str(info.value) == "cannot assign %s value to cell a[1]" % kind


def test_missing_and_misread_names():
    s = State({"x": 1, "a": (0, 0)})
    with pytest.raises(UnboundVariable) as info:
        s.get("y")
    # a KernelError for the command line, a KeyError like a mapping's
    assert isinstance(info.value, KernelError) and isinstance(info.value, KeyError)
    assert str(info.value) == "undefined variable 'y'"
    with pytest.raises(KindMismatch) as info:
        s.get("a")
    assert str(info.value) == "array 'a' is read without an index"


def test_a_list_value_is_an_array():
    listed = State({"cp": [0, 0]})
    assert listed == State({"cp": (0, 0)})
    assert hash(listed) == hash(State({"cp": (0, 0)}))
    assert listed.get_cell("cp", 1) == 0


@pytest.mark.parametrize("v", [1.5, "ab", None, [1, "a"], ((1,),)], ids=repr)
def test_a_value_of_no_kind_is_a_kind_mismatch(v):
    message = "variable 'y': %r is not an int, a bool or an array" % (v,)
    with pytest.raises(KindMismatch) as built:
        State({"y": v})
    with pytest.raises(KindMismatch) as written:
        State({"x": 1}).set("y", v)
    assert str(built.value) == str(written.value) == message


def test_state_equality_hash_repr():
    a = State({"x": 1, "y": 2})
    b = State({"y": 2, "x": 1})
    assert a == b
    assert hash(a) == hash(b)
    assert repr(a) == "{x=1, y=2}"
    assert repr(State({"x": 0, "cp": (1, 2)})) == "{x=0, cp=[1,2]}"



def test_equal_values_of_two_kinds_are_two_states():
    # 1 == True, but an int and a bool are values of different kinds
    pairs = [
        (State({"x": 1}), State({"x": True})),
        (State({"x": 0, "y": 1}), State({"y": 1, "x": False})),
        (State({"a": (1, 0)}), State({"a": (True, 0)})),
        (State({"a": (1, 0)}).set("a", (1, False)), State({"a": (1, 0)})),
        (State({"x": 1}).set("b", 1), State({"x": 1}).set("b", True)),
    ]
    for s, t in pairs:
        assert s != t and not s == t
        assert len({s: 0, t: 1}) == 2
    # updates keep the kinds a fresh state has
    s = State({"a": (1, 0), "b": False}).set_cell("a", 2, 1).set("b", True)
    assert s.set("a", (True, 1)) == State({"b": True, "a": (True, 1)})
    assert s.set("c", 1) == State({"a": (1, 1), "b": True, "c": 1})

_xreals = st.one_of(
    st.just(None),
    st.just(Fraction(0)),
    st.fractions(min_value=0, max_denominator=10**6),
    st.integers(min_value=0, max_value=10**12).map(Fraction),
)


def _same(x: XReal, y: XReal) -> bool:
    return x == y and hash(x) == hash(y) and repr(x) == repr(y) and str(x) == str(y)


@settings(max_examples=300, deadline=None)
@given(_xreals, _xreals)
def test_arithmetic_matches_the_public_constructor(p, q):
    a, b = XReal(p), XReal(q)
    if p is None or q is None:
        assert _same(a + b, INF)
        zero = p == 0 or q == 0
        assert _same(a * b, ZERO if zero else INF)
    else:
        assert _same(a + b, XReal(p + q))
        assert _same(a * b, XReal(p * q))
        assert _same(p + b, XReal(p + q))
        assert _same(a + q, XReal(p + q))
        assert _same(q * a, XReal(p * q))
    assert type((a + b).q) in (Fraction, type(None))
    assert type((a * b).q) in (Fraction, type(None))


# int pairs in any terms, infinity and zero over d != 1 among them, and
# weights in (0, 1] with small denominators, so that sums often share one;
# the weight 1 is the plain sum
_pairs = st.one_of(
    st.just((None, 1)),
    st.builds(
        lambda n, d, k: (n * k, d * k),
        st.integers(0, 40), st.integers(1, 12), st.integers(1, 4),
    ),
)
_weights = st.builds(Fraction, st.integers(1, 6), st.integers(1, 6)).filter(lambda p: p <= 1)


def _xreal(pair) -> XReal:
    n, d = pair
    return XReal(None if n is None else Fraction(n, d))


@settings(max_examples=300, deadline=None)
@given(_pairs, st.lists(st.tuples(_weights, _pairs), max_size=8))
def test_pair_helpers_match_xreal_arithmetic(start, terms):
    n, d = start
    expected = _xreal(start)
    for w, (vn, vd) in terms:
        before = (n, d)
        n, d = pair_sum(n, d, w.numerator, w.denominator, vn, vd)
        expected = expected + XReal(w) * _xreal((vn, vd))
        # the unreduced sum, its reduction, and the conversions both ways
        assert _same(XReal.of_pair(n, d), expected)
        assert pair_lowest(n, d) == expected.pair
        assert _same(XReal.of_pair(*expected.pair), expected)
        # the order, infinity on top, both ways round
        for a, b in ((before, (vn, vd)), ((vn, vd), before), (before, (n, d))):
            assert pair_le(*a, *b) == (_xreal(a) <= _xreal(b))
    assert (n is None) == expected.is_infinite


def test_negative_values_are_rejected():
    for bad in (Fraction(-1, 2), -1):
        with pytest.raises(ValueError):
            XReal(bad)
    with pytest.raises(ValueError):
        XReal(1) + -1


def _orders(items):
    """Dicts with the same items in every insertion order."""
    return [dict(p) for p in itertools.permutations(items)]


def test_state_hash_ignores_insertion_order():
    scalars = [("x", 1), ("y", -2), ("b", True)]
    arrays = [("cp", (0, 1)), ("q", (3,))]
    states = [State({**s, **a}) for s in _orders(scalars) for a in _orders(arrays)]
    memo = {states[0]: "found"}
    for s in states:
        assert s == states[0] and hash(s) == hash(states[0])
        assert memo[s] == "found"
        assert repr(s) == "{b=True, x=1, y=-2, cp=[0,1], q=[3]}"


def test_state_updates_agree_with_fresh_states():
    start = State({"y": 0, "x": 0, "cp": [0, 0, 0]})
    reached = (
        start.set("x", 4).set("b", False).set_cell("cp", 2, 7).set("q", [1, 2]).set("y", 5)
    )
    fresh = State({"b": False, "y": 5, "x": 4, "q": (1, 2), "cp": (0, 7, 0)})
    assert reached == fresh and hash(reached) == hash(fresh)
    assert repr(reached) == repr(fresh)
    memo = {fresh: 1}
    assert memo[reached] == 1
    # updates leave their source unchanged
    assert start == State({"x": 0, "y": 0, "cp": (0, 0, 0)})
    assert hash(start) == hash(State({"x": 0, "y": 0, "cp": (0, 0, 0)}))
    assert reached.set_cell("cp", 2, 0).set("cp", (0, 7, 0)) == fresh
    assert start.set("x", 0) == start and hash(start.set("x", 0)) == hash(start)


def test_the_deep_stack_scope_restores_the_limit_when_its_body_raises():
    old = sys.getrecursionlimit()
    assert old < _DEEP_STACK
    with pytest.raises(KindMismatch):
        with _deep_stack():
            assert sys.getrecursionlimit() == _DEEP_STACK
            with _deep_stack():
                assert sys.getrecursionlimit() == _DEEP_STACK
            assert sys.getrecursionlimit() == _DEEP_STACK
            raise KindMismatch("inside the scope")
    assert sys.getrecursionlimit() == old
