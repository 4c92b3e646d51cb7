"""Syntax nodes behave as the frozen dataclasses they replaced.

Each node class is compared with a reference frozen dataclass of the same
name and fields: the same repr, hash, match arguments, immutability errors
and constructor errors.  Equality never holds across classes, and copying
and pickling give back equal trees.
"""
import copy
import dataclasses
import itertools
import pickle
import random

import pytest

from ertkit import syntax
from ertkit.corpus import ENTRIES
from ertkit.generator import PROFILES, random_program, random_runtime
from ertkit.kernel import Record
from ertkit.parser import parse_program, parse_rt
from ertkit.syntax import Annotated, RLit, RVar, WeightedList, replace_whiles

NODE_CLASSES = sorted(
    (c for c in vars(syntax).values()
     if isinstance(c, type) and c.__module__ == syntax.__name__),
    key=lambda c: c.__name__,
)

# the classes whose own constructor normalises its arguments
NORMALISING = (WeightedList, RLit)

_PROGRAM = """\
empty; skip; a := [1, 2]; a[0] :~ unif[0 .. 2];
{ x := 1 } [] { halt };
if (x < 2 - 1 * 3) { y :~ 1/2*<0> + 1/2*<1> } else { skip };
while (x > 0 and not (y = 1) or false) { x := x - a[1] }
"""

_RT = (
    "max(min(1/2, x), inf) + sum(i, 0, n, geoseries(1/2)^2)"
    " - harmonic(y) / rwcoef(a[1], 3) * [x > 0]"
)


def _walk(value, out):
    if isinstance(value, Record):
        out.append(value)
        for name in value.__slots__:
            _walk(getattr(value, name), out)
    elif isinstance(value, tuple):
        for item in value:
            _walk(item, out)
    return out


def _samples():
    program = parse_program(_PROGRAM)
    loop = syntax.while_loops(program)[0]
    trees = [
        program,
        replace_whiles(program, 2),
        Annotated(loop, parse_rt("2 * x")),
        parse_rt(_RT),
    ]
    rng = random.Random(5)
    trees += [random_runtime(rng) for _ in range(10)]
    nodes = []
    for tree in trees:
        _walk(tree, nodes)
    return nodes


SAMPLES = _samples()


def test_the_samples_cover_every_node_class():
    assert {type(n) for n in SAMPLES} == set(NODE_CLASSES)


def _reference(cls):
    """The frozen dataclass that `cls` stands for: its name and fields, with
    the defaults of its constructor."""
    defaults = cls.__init__.__defaults__ or ()
    required = len(cls.__slots__) - len(defaults)
    spec = [
        name if i < required
        else (name, object, dataclasses.field(default=defaults[i - required]))
        for i, name in enumerate(cls.__slots__)
    ]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def _error(exc_type, fn, *args):
    with pytest.raises(exc_type) as caught:
        fn(*args)
    return str(caught.value)


@pytest.mark.parametrize("cls", NODE_CLASSES, ids=lambda c: c.__name__)
def test_a_node_matches_its_frozen_dataclass(cls):
    ref = _reference(cls)
    assert cls.__match_args__ == ref.__match_args__
    for node in [n for n in SAMPLES if type(n) is cls][:3]:
        values = tuple(getattr(node, name) for name in cls.__slots__)
        twin = ref(*values)
        assert repr(node) == repr(twin)
        assert hash(node) == hash(values) == hash(twin)
        assert node == cls(*values) == cls(**dict(zip(cls.__slots__, values)))
        assert not node != cls(*values)
        for name in cls.__slots__ + ("extra",):
            assert _error(dataclasses.FrozenInstanceError, setattr, node, name, None) == \
                _error(dataclasses.FrozenInstanceError, setattr, twin, name, None)
            assert _error(dataclasses.FrozenInstanceError, delattr, node, name) == \
                _error(dataclasses.FrozenInstanceError, delattr, twin, name)
        assert _error(TypeError, cls, *values, None) == _error(TypeError, ref, *values, None)
    if cls.__slots__:
        assert _error(TypeError, cls) == _error(TypeError, ref)


def test_arity_error_text():
    assert _error(TypeError, syntax.Seq, syntax.Skip()) == \
        "Seq.__init__() missing 1 required positional argument: 'second'"


def test_equality_is_false_across_classes():
    filler = RVar("x")
    nodes = [
        cls(*[filler] * len(cls.__slots__)) for cls in NODE_CLASSES if cls not in NORMALISING
    ]
    nodes += [next(n for n in SAMPLES if type(n) is cls) for cls in NORMALISING]
    for a, b in itertools.combinations(nodes, 2):
        assert a != b and not a == b
    assert syntax.Empty() == syntax.Empty() and syntax.Empty() != syntax.Skip()


def _assert_copies_equal(tree):
    for twin in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert twin == tree and twin is not tree
        assert type(twin) is type(tree)


@pytest.mark.parametrize("name", sorted(ENTRIES))
def test_corpus_programs_survive_deepcopy_and_pickle(name):
    program = ENTRIES[name].program()
    _assert_copies_equal(program)
    if name == "npast":
        drain = syntax.while_loops(program)[-1]
        bound = parse_rt("1 + [x > 0] * 2 * x")
        _assert_copies_equal(Annotated(drain, bound))


def test_generated_programs_survive_deepcopy_and_pickle():
    rng = random.Random(16)
    names = list(PROFILES)
    for i in range(60):
        _assert_copies_equal(random_program(rng, PROFILES[names[i % len(names)]]))
        _assert_copies_equal(random_runtime(rng))


def test_tree_helpers_on_annotated_and_bounded_loops():
    src = "while (x > 0) { x := x - 1; while (y > 0) { y := y - 1 } }"
    outer, twin = parse_program(src), parse_program(src)
    annotated = syntax.Annotated(outer, parse_rt("2 * x"))
    bounded = syntax.WhileBounded(3, twin.guard, twin.body)
    program = syntax.Seq(annotated, bounded)
    assert syntax.children(annotated) == [outer]
    # the annotated loop once, not again as its plain loop; an explicit
    # bound is no while loop, but the one in its body is
    loops = syntax.while_loops(program)
    assert [id(loop) for loop in loops] == [
        id(annotated), id(outer.body.second), id(twin.body.second)
    ]

    def inner_bounded(loop):
        """The loop's body with its inner while bounded at 5."""
        inner = loop.body.second
        return syntax.Seq(loop.body.first, syntax.WhileBounded(5, inner.guard, inner.body))

    # the annotation goes and the explicit bound stays, and each while in
    # the loop bodies is bounded
    assert replace_whiles(program, 5) == syntax.Seq(
        syntax.WhileBounded(5, outer.guard, inner_bounded(outer)),
        syntax.WhileBounded(3, twin.guard, inner_bounded(twin)),
    )
