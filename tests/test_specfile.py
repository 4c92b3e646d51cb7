import itertools
import sys
from fractions import Fraction

import pytest

from ertkit import specfile
from ertkit.kernel import State
from ertkit.specfile import KEY_TABLE, REQUIRED, SpecError, parse_domain, parse_spec
from ertkit.syntax import While


GOOD = """\
// a loose bound on the geometric loop
check: upper
corpus: geo
invariant: 1 + [c = 1] * 6
domain: c in {0, 1}
"""


def test_parse_spec_happy_path():
    spec = parse_spec(GOOD)
    assert spec.check == "upper"
    assert isinstance(spec.loop, While)
    assert len(spec.domain) == 2
    assert spec.rounds == 1


def test_inline_program_with_continuation_lines():
    spec = parse_spec(
        "check: upper\n"
        "program: x := 2;\n"
        "  while (x > 0) {\n"
        "    x := x - 1\n"
        "  }\n"
        "invariant: 1 + [x > 0] * 2 * x\n"
        "domain: x in 0 .. 3\n"
    )
    assert "while" in spec.program_source
    assert isinstance(spec.loop, While)


def test_loop_index_selects_and_validates():
    src = (
        "check: upper\n"
        "program: while (x > 0) { x := x - 1 }; while (y > 0) { y := y - 1 }\n"
        "loop: 1\n"
        "invariant: 1 + [y > 0] * 2 * y\n"
        "domain: y in 0 .. 3\n"
    )
    spec = parse_spec(src)
    assert "y" in str(spec.loop.guard)
    with pytest.raises(SpecError):
        parse_spec(src.replace("loop: 1", "loop: 5"))


def test_omega_defaults_and_overrides():
    spec = parse_spec(
        "check: omega\n"
        "corpus: geo\n"
        "invariant_n: 1 + [c = 1] * (4 - 3 * (1/2)^n)\n"
        "domain: c in {0, 1}\n"
    )
    assert spec.direction == "lower"
    assert spec.n_max == 50
    assert spec.probe == 60
    assert spec.tol == Fraction(1, 10**12)
    spec = parse_spec(
        "check: omega\n"
        "corpus: geo\n"
        "invariant_n: 1 + [c = 1] * (4 - 3 * (1/2)^n)\n"
        "direction: both\n"
        "domain: c in {0, 1}\n"
        "nmax: 12\n"
        "probe: 99\n"
        "tol: 0.001\n"
        "big: 500\n"
    )
    assert spec.direction == "both"
    assert spec.n_max == 12
    assert spec.probe == 99
    assert spec.tol == Fraction(1, 1000)
    assert spec.big == 500


def test_error_cases():
    with pytest.raises(SpecError):
        parse_spec("corpus: geo\ninvariant: 1\ndomain: c in {0, 1}\n")  # no check
    with pytest.raises(SpecError):
        parse_spec(GOOD + "check: upper\n")  # duplicate
    with pytest.raises(SpecError):
        parse_spec(GOOD.replace("corpus: geo", "corpus: geo\nprogram: skip"))
    with pytest.raises(SpecError):
        parse_spec(GOOD.replace("invariant:", "invarant:"))  # unknown key
    with pytest.raises(SpecError):
        parse_spec(GOOD.replace("corpus: geo", "corpus: nosuch"))
    with pytest.raises(SpecError):
        parse_spec(
            "check: omega\ncorpus: geo\ninvariant_n: 1\n"
            "direction: sideways\ndomain: c in {0, 1}\n"
        )
    with pytest.raises(SpecError):
        parse_spec("check: upper\ncorpus: geo\ninvariant: 1\n")  # no domain
    with pytest.raises(SpecError):
        parse_spec(GOOD.replace("1 + [c = 1] * 6", "1 + + 2"))


def test_parse_domain_forms():
    dom = parse_domain("c in {0, 1}; x in 2 .. 4")
    assert len(dom) == 6
    assert State({"c": 0, "x": 2}) in list(dom)
    with pytest.raises(SpecError):
        parse_domain("c in {}")
    with pytest.raises(SpecError):
        parse_domain("c in {0}; c in {1}")
    with pytest.raises(SpecError):
        parse_domain("c in 5 .. 2")
    with pytest.raises(SpecError, match="value 'x' of 'c' is not an integer"):
        parse_domain("c in {0, x}")
    with pytest.raises(SpecError):
        parse_domain("just words")


def test_error_lines_are_reported():
    with pytest.raises(SpecError) as exc:
        parse_spec("check: upper\ncorpus: geo\nbogus: 1\n")
    assert exc.value.line == 3


_OMEGA = "check: omega\ncorpus: geo\ninvariant_n: 1\ndomain: c in {0, 1}\n"


@pytest.mark.parametrize(
    "key, value, exact",
    [
        # the exact value of 10^4299 has 4300 digits, of 10^4300 one more
        ("big", "1e4299", Fraction(10**4299)),
        ("big", "1e4300", None),
        ("big", "1e30000000", None),
        # 5e-4300 is 1 / (2 * 10^4299), whose denominator has 4300 digits
        ("tol", "5e-4300", Fraction(1, 2 * 10**4299)),
        ("tol", "1e-4300", None),
        ("tol", "1e-30000000", None),
        # trailing zeros cancel
        ("tol", "1." + "0" * 5000, Fraction(1)),
    ],
)
def test_a_decimal_is_read_exactly_within_the_digit_limit(key, value, exact):
    # refused before the conversion computes 10 ** 30000000, which takes
    # about a minute
    text = _OMEGA + f"{key}: {value}\n"
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        if exact is None:
            with pytest.raises(SpecError) as exc:
                parse_spec(text)
            assert exc.value.line == 5
            assert "more digits than Python reads (4300)" in exc.value.message
            assert "PYTHONINTMAXSTRDIGITS" in exc.value.message
        else:
            assert getattr(parse_spec(text), key) == exact
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize("text", ["c in 0 .. {long}", "c in {{0, {long}}}"])
def test_a_domain_value_longer_than_python_reads_is_refused(text):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        with pytest.raises(SpecError) as exc:
            parse_domain(text.format(long="1" * 5000))
    finally:
        sys.set_int_max_str_digits(old)
    assert exc.value.message == (
        "value of 'c' has more digits than Python reads (4300); "
        "raise the limit with PYTHONINTMAXSTRDIGITS"
    )


def test_a_decimal_beyond_the_default_limit_is_read_under_no_limit():
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert parse_spec(_OMEGA + "big: 1e4300\n").big == 10**4300
    finally:
        sys.set_int_max_str_digits(old)


@pytest.mark.parametrize(
    "kind, keys, message",
    [
        ("upper", "domain: c in {0, 1}\n", "check: upper requires `invariant`"),
        ("refine", "invariant_n: 1\ndomain: c in {0, 1}\n", "check: refine requires `invariant`"),
        ("omega", "invariant: 1\ndomain: c in {0, 1}\n", "check: omega requires `invariant_n`"),
        ("upper", "invariant: 1\n", "check: upper requires `domain`"),
        ("refine", "invariant: 1\n", "check: refine requires `domain`"),
        ("omega", "invariant_n: 1\n", "check: omega requires `domain`"),
        ("omega", "", "check: omega requires `invariant_n`"),
    ],
)
def test_each_check_names_the_key_it_requires(kind, keys, message):
    with pytest.raises(SpecError) as exc:
        parse_spec(f"check: {kind}\ncorpus: geo\n{keys}")
    assert str(exc.value) == message


def _documented_keys():
    """{key: (checks, default)} from the key table in the module docstring."""
    doc = specfile.__doc__.split("    key          read by", 1)[1]
    rows = {}
    for line in doc.split("\n\n", 1)[0].splitlines()[1:]:
        if line[4:5] == " ":
            continue  # a description continued from the row above
        key, *words = line.split()
        checks = tuple(itertools.takewhile(lambda w: w in ("upper", "omega", "refine"), words))
        rows[key] = (checks, words[len(checks)])
    return rows


def test_docstring_key_table_is_the_parsers():
    rows = _documented_keys()
    assert list(rows) == list(KEY_TABLE)
    for key, (checks, default) in rows.items():
        _, read, value, read_by = KEY_TABLE[key]
        assert checks == read_by, key
        if default == "required":
            assert value is REQUIRED, key
        elif default == "none":
            assert value is None, key
        else:
            assert read(key, default, 1) == value, key


@pytest.mark.parametrize(
    "kind, keys, message",
    [
        # a bad value comes first, then a missing required key
        ("upper", "invariant: 1\ndomain: c in {0, 1}\nnmax: 0\n", "line 5: nmax must be at least 1"),
        ("refine", "invariant_n: 1\nrounds: 2\n", "check: refine requires `invariant`"),
        ("omega", "invariant_n: 1\ndomain: c in {0, 1}\nrounds: 2\nf: 1\n",
         "line 5: `rounds` is not read by check: omega, only by refine"),
        ("upper", "invariant: 1\ndomain: c in {0, 1}\nbig: 2\n",
         "line 5: `big` is not read by check: upper, only by omega"),
    ],
)
def test_a_key_the_check_does_not_read_is_reported_last(kind, keys, message):
    with pytest.raises(SpecError) as exc:
        parse_spec(f"check: {kind}\ncorpus: geo\n{keys}")
    assert str(exc.value) == message
