import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from ertkit.generator import PROFILES, random_program, random_runtime
from ertkit.parser import (
    MAX_NESTING,
    ParseError,
    ProbabilityMassError,
    parse_program,
    parse_rt,
)
from ertkit.syntax import (
    Dirac,
    Halt,
    If,
    IntLit,
    NdChoice,
    ProbAssign,
    RAdd,
    RMonus,
    RMul,
    Seq,
    Skip,
    Uniform,
    VarTarget,
    WeightedList,
    While,
    program_to_text,
    rt_to_text,
)


def roundtrip(src: str):
    p = parse_program(src)
    again = parse_program(program_to_text(p))
    assert again == p
    return p


def test_statement_forms():
    roundtrip("empty")
    roundtrip("skip")
    roundtrip("halt")
    roundtrip("x := 5")
    roundtrip("x := y + 2 * z")
    roundtrip("x :~ unif[0 .. 9]")
    roundtrip("x :~ 1/2*<0> + 1/2*<1>")
    roundtrip("{ skip } [] { x := 1 }")
    roundtrip("if (x > 0) { x := x - 1 }")
    roundtrip("if (1/3*<true> + 2/3*<false>) { skip } else { halt }")
    roundtrip("while (x > 0) { x := x - 1 }")
    roundtrip("cp := [0, 0, 0]; cp[2] := 1; x := cp[2]")


def test_assignment_is_point_mass():
    p = parse_program("x := 3")
    assert isinstance(p, ProbAssign)
    assert p.target == VarTarget("x")
    assert isinstance(p.dist, Dirac)
    assert p.dist.value == IntLit(3)


def test_sequencing_and_nesting():
    p = parse_program("skip; skip; halt")
    assert isinstance(p, Seq)
    flat = []
    while isinstance(p, Seq):
        flat.append(p.first)
        p = p.second
    flat.append(p)
    assert [type(s) for s in flat] == [Skip, Skip, Halt]


def test_guard_accepts_bare_boolean_and_distribution():
    w = parse_program("while (x > 0 and y = 1) { skip }")
    assert isinstance(w, While)
    assert isinstance(w.guard, Dirac)
    i = parse_program("if (2/5*<true> + 3/5*<false>) { skip } else { skip }")
    assert isinstance(i, If)
    assert isinstance(i.guard, WeightedList)


def test_else_defaults_to_empty():
    p = parse_program("if (x = 0) { skip }")
    assert program_to_text(p.orelse) == "empty"


def test_uniform_bounds_are_expressions():
    p = parse_program("h :~ unif[h .. h + 10]")
    assert isinstance(p.dist, Uniform)


def test_mass_validation():
    with pytest.raises(ProbabilityMassError):
        parse_program("x :~ 1/2*<0> + 1/3*<1>")
    with pytest.raises(ProbabilityMassError):
        parse_program("x :~ 3/2*<0>")


def test_error_positions():
    with pytest.raises(ParseError) as exc:
        parse_program("skip;\n  x := ")
    assert exc.value.line == 2
    with pytest.raises(ParseError):
        parse_program("while x > 0 { skip }")  # missing parentheses
    with pytest.raises(ParseError):
        parse_rt("1 + * 2")


def _nest(opener: str, inner: str, closer: str, depth: int) -> str:
    return opener * depth + inner + closer * depth


NESTED_PROGRAMS = {
    "block": lambda d: "x := 1; " + _nest("if (x > 0) { ", "skip", " }", d),
    "loop": lambda d: _nest("while (false) { ", "skip", " }", d),
    "choice": lambda d: _nest("{ ", "skip", " } [] { skip }", d),
    "parens": lambda d: "x := " + _nest("(", "1", ")", d),
    "not": lambda d: "b := " + "not " * d + "true",
    "minus": lambda d: "x := " + "- " * d + "1",
    "index": lambda d: "a := [1]; x := " + _nest("a[", "1", "]", d),
}
NESTED_RUNTIMES = {
    "parens": lambda d: _nest("(", "1", ")", d),
    "indicator": lambda d: "[" + _nest("(", "true", ")", d - 1) + "]",
    "min": lambda d: _nest("min(1, ", "1", ")", d),
    "sum": lambda d: _nest("sum(k, 0, 1, ", "k", ")", d),
}


@pytest.mark.parametrize("kind", sorted(NESTED_PROGRAMS))
def test_program_nesting_limit(kind):
    parse_program(NESTED_PROGRAMS[kind](MAX_NESTING))
    with pytest.raises(ParseError, match="nesting deeper than") as exc:
        parse_program(NESTED_PROGRAMS[kind](MAX_NESTING + 1))
    assert exc.value.line == 1 and exc.value.col > 1


@pytest.mark.parametrize("kind", sorted(NESTED_RUNTIMES))
def test_runtime_nesting_limit(kind):
    parse_rt(NESTED_RUNTIMES[kind](MAX_NESTING))
    with pytest.raises(ParseError, match="nesting deeper than") as exc:
        parse_rt(NESTED_RUNTIMES[kind](MAX_NESTING + 1))
    assert exc.value.line == 1 and exc.value.col > 1


def test_nesting_limit_counts_every_kind_together():
    half = MAX_NESTING // 2
    inner = "x := " + _nest("(", "1", ")", MAX_NESTING - half)
    parse_program(_nest("if (true) { ", inner, " }", half))
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_program(_nest("if (true) { ", inner, " }", half + 1))


def test_comments_and_whitespace():
    src = """
    // setup
    x := 1;  // one
    while (x > 0) {
      x := x - 1
    }
    """
    p = parse_program(src)
    assert program_to_text(p) == program_to_text(parse_program(program_to_text(p)))


def test_rt_expression_forms():
    e = parse_rt("1 + [c = 1] * 4")
    assert isinstance(e, RAdd)
    assert rt_to_text(parse_rt(rt_to_text(e))) == rt_to_text(e)
    for src in (
        "inf",
        "[x > 0] * (7 - 7 * (1/2)^n)",
        "min(2 * x, 2 * n - 1)",
        "max(1, x / 3)",
        "sum(k, 0, n, [x > k] * rwcoef(n, k))",
        "geoseries(1/2)",
        "harmonic(x)",
        "2/3 + x",
    ):
        e = parse_rt(src)
        assert parse_rt(rt_to_text(e)) == e, src


def test_rt_subtraction_is_monus():
    e = parse_rt("x - 3")
    assert isinstance(e, RMonus)


def test_rt_precedence():
    assert parse_rt("1 + 2 * x") == RAdd(parse_rt("1"), RMul(parse_rt("2"), parse_rt("x")))
    assert rt_to_text(parse_rt("(1 + 2) * x")) == rt_to_text(
        RMul(RAdd(parse_rt("1"), parse_rt("2")), parse_rt("x"))
    )


def test_ndchoice_structure():
    p = parse_program("{ x := 0 } [] { { x := 1 } [] { x := 2 } }")
    assert isinstance(p, NdChoice)
    assert isinstance(p.right, NdChoice)


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000), st.sampled_from(sorted(PROFILES)))
def test_printer_parser_fixed_point(seed, profile_name):
    # bounded loops print as their expansion, so compare printed forms,
    # which is the contract the text format actually promises
    rng = random.Random(seed)
    p = random_program(rng, PROFILES[profile_name])
    text = program_to_text(p)
    assert program_to_text(parse_program(text)) == text


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_loop_free_roundtrip_is_structural(seed):
    rng = random.Random(seed)
    p = random_program(rng, PROFILES["loop-free"])
    assert parse_program(program_to_text(p)) == p


@settings(max_examples=120, deadline=None)
@given(st.integers(0, 10_000))
def test_runtime_roundtrip(seed):
    rng = random.Random(seed)
    f = random_runtime(rng)
    assert parse_rt(rt_to_text(f)) == f


def test_fraction_weights_survive_printing():
    p = parse_program("x :~ 1/8*<0> + 3/8*<1> + 1/2*<2>")
    weights = [w for w, _ in p.dist.entries]
    assert weights == [Fraction(1, 8), Fraction(3, 8), Fraction(1, 2)]
    assert parse_program(program_to_text(p)) == p
