"""Result and config records behave as the dataclasses they replaced.

Each record class is compared with a reference dataclass built from its
fields and defaults, frozen unless the record is one of the three mutable
ones: the same repr, equality, hash, match arguments, immutability errors,
constructor errors and fresh default containers.  The records that check
their fields raise the same errors as before, and copying and pickling give
back equal records.
"""
import copy
import dataclasses
import importlib
import pickle
from fractions import Fraction
from pathlib import Path

import pytest

from ertkit.corpus import ENTRIES, CheckOutcome, CorpusEntry
from ertkit.generator import PROFILES, GenProfile
from ertkit.invariants import OmegaInvariantSpec, StateDomain, UpperInvariantSpec, Verdict
from ertkit.kernel import INF, Record, State, XReal
from ertkit.mdp import (
    CrossCheckReport, Mdp, MdpConfig, Qualitative, RewardAnalysis, build_mdp, cross_check,
    expected_reward, qualitative_check,
)
from ertkit.parser import parse_program, parse_rt
from ertkit.props import PropFailure, PropReport, SweepFailure, SweepReport
from ertkit.specfile import InvariantSpecFile, parse_spec
from ertkit.transformer import ErtConfig, ErtResult, expected_runtime

RECORDS = [
    ErtConfig, ErtResult, Mdp, Qualitative, RewardAnalysis, MdpConfig, CrossCheckReport,
    StateDomain, UpperInvariantSpec, OmegaInvariantSpec, Verdict, PropFailure, PropReport,
    SweepFailure, SweepReport, CheckOutcome, CorpusEntry, GenProfile, InvariantSpecFile,
]

MUTABLE = (Mdp, PropReport, SweepReport)

SPECS = Path(__file__).resolve().parent.parent / "specs"


def _samples():
    program = parse_program(
        "x :~ 1/2*<0> + 1/2*<2>; while (x > 0) { { x := x - 1 } [] { skip } }"
    )
    model = build_mdp(program, State({"x": 0}))
    failure = PropFailure("monotone", "skip", "x", "{x=1}", "2 > 1")
    slip = SweepFailure("halt", "0", "{x=0}", "the values differ")
    domain = StateDomain.product({"x": range(3), "y": (0, 1)})
    samples = [
        ErtConfig(), ErtConfig(5),
        expected_runtime(program, parse_rt("x"), State({"x": 1})),
        ErtResult("lower", INF, ("loop 1",)),
        model,
        qualitative_check(model), Qualitative("SomeSchedulerAvoids", ((1, "l"), (2, "r"))),
        expected_reward(model), RewardAnalysis(XReal(Fraction(5, 2)), "PolicyIteration", 3),
        MdpConfig(), MdpConfig(node_cap=10),
        cross_check(ENTRIES["trunc"].program()),
        CrossCheckReport("fail", "lower", XReal(1), INF, "Qualitative", 7, 40, "too low"),
        domain,
        UpperInvariantSpec(parse_rt("1 + 2 * x")),
        OmegaInvariantSpec(parse_rt("n * x"), "lower"),
        Verdict("Holds"),
        Verdict("Fails", State({"x": 2}), 3, XReal(1), XReal(Fraction(1, 3)), "too low"),
        failure,
        PropReport(4), PropReport(9, 2, {"monotone": 2}, [failure]),
        slip,
        SweepReport(), SweepReport(3, 2, [slip]),
        CheckOutcome("geo", True, "exact"),
        *ENTRIES.values(),
        *PROFILES.values(),
    ]
    samples += [parse_spec(p.read_text()) for p in sorted(SPECS.glob("*.spec"))]
    return samples


SAMPLES = _samples()


def test_the_records_are_every_record_of_the_package_and_have_samples():
    names = ("cli", "corpus", "generator", "invariants", "kernel", "mdp", "parser",
             "props", "semantics", "specfile", "transformer")
    found = {
        c for name in names
        for c in vars(importlib.import_module("ertkit." + name)).values()
        if isinstance(c, type) and issubclass(c, Record) and c.__module__ == "ertkit." + name
    }
    assert found - {Record} == set(RECORDS)
    assert {type(r) for r in SAMPLES} == set(RECORDS)
    # the corpus entries with and without `derive` and `minimum`
    assert {(e.derive is None, not e.minimum) for e in ENTRIES.values()} == {
        (True, True), (True, False), (False, False)
    }


def _reference(cls):
    """The dataclass that `cls` stands for: its name and fields, with its
    defaults, a list or dict one as a `default_factory`."""
    defaults = cls.__dict__.get("_defaults", {})
    spec = []
    for name in cls.__slots__:
        if name not in defaults:
            spec.append(name)
        elif type(defaults[name]) in (list, dict):
            spec.append((name, object, dataclasses.field(default_factory=type(defaults[name]))))
        else:
            spec.append((name, object, dataclasses.field(default=defaults[name])))
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=cls not in MUTABLE)


def _outcome(fn, *args):
    """What `fn(*args)` returns, or the type and text of what it raises."""
    try:
        return fn(*args)
    except Exception as e:
        return type(e), str(e)


def _error(exc_type, fn, *args, **kwargs):
    with pytest.raises(exc_type) as caught:
        fn(*args, **kwargs)
    return str(caught.value)


@pytest.mark.parametrize("cls", RECORDS, ids=lambda c: c.__name__)
def test_a_record_matches_its_dataclass(cls):
    ref = _reference(cls)
    assert cls.__match_args__ == ref.__match_args__
    for record in [r for r in SAMPLES if type(r) is cls][:3]:
        values = tuple(getattr(record, name) for name in cls.__slots__)
        twin = ref(*values)
        assert repr(record) == repr(twin)
        assert record == cls(*values) == cls(**dict(zip(cls.__slots__, values)))
        assert not record != cls(*values)
        assert record != twin and not record == twin
        assert _outcome(hash, record) == _outcome(hash, twin)
        if cls in MUTABLE:
            assert _outcome(hash, record) == (TypeError, "unhashable type: %r" % cls.__name__)
            for name in cls.__slots__:
                setattr(record, name, getattr(record, name))
            assert record == cls(*values)
        else:
            assert _outcome(hash, record) == _outcome(hash, values)
            for name in cls.__slots__ + ("extra",):
                assert _error(dataclasses.FrozenInstanceError, setattr, record, name, None) == \
                    _error(dataclasses.FrozenInstanceError, setattr, twin, name, None)
                assert _error(dataclasses.FrozenInstanceError, delattr, record, name) == \
                    _error(dataclasses.FrozenInstanceError, delattr, twin, name)
        assert _error(TypeError, cls, *values, None) == _error(TypeError, ref, *values, None)
        for copied in (copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
            assert copied == record and copied is not record and type(copied) is cls
    if cls.__slots__[0] in cls.__dict__.get("_defaults", {}):
        assert repr(cls()) == repr(ref())
    else:
        assert _error(TypeError, cls) == _error(TypeError, ref)
    assert _error(TypeError, cls, bogus=1) == _error(TypeError, ref, bogus=1)


@pytest.mark.parametrize("cls", [CorpusEntry, PropReport, SweepReport], ids=lambda c: c.__name__)
def test_a_default_container_is_fresh_for_each_record(cls):
    fresh = [n for n, d in cls._defaults.items() if type(d) in (list, dict)]
    required = [n for n in cls.__slots__ if n not in cls._defaults]
    sample = next(r for r in SAMPLES if type(r) is cls)
    values = [getattr(sample, name) for name in required]
    first, second = cls(*values), cls(*values)
    ref = _reference(cls)
    assert fresh
    for name in fresh:
        assert getattr(first, name) == getattr(ref(*values), name) == type(cls._defaults[name])()
        assert getattr(first, name) is not getattr(second, name)
        assert getattr(first, name) is not cls._defaults[name]


@pytest.mark.parametrize("build, message", [
    (lambda: ErtConfig(0), "max_unroll_depth must be at least 1, got 0"),
    (lambda: ErtConfig(max_unroll_depth=-3), "max_unroll_depth must be at least 1, got -3"),
    (lambda: MdpConfig(0), "node_cap must be at least 1, got 0"),
    (lambda: StateDomain(()), "a state domain must be nonempty"),
    (lambda: OmegaInvariantSpec(parse_rt("x"), "sideways"),
     "direction must be 'lower' or 'upper'"),
], ids=["ErtConfig", "ErtConfig-named", "MdpConfig", "StateDomain", "OmegaInvariantSpec"])
def test_a_checked_record_refuses_a_bad_field(build, message):
    assert _error(ValueError, build) == message
