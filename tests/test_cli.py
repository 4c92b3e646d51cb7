import argparse
import hashlib
import json
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import ertkit.corpus
import ertkit.kernel
from ertkit.cli import _build_parser, main
from ertkit.mdp import MdpConfig, cross_check
from ertkit.parser import MAX_NESTING

SRC = Path(__file__).resolve().parent.parent / "src"
SPECS = Path(__file__).resolve().parent.parent / "specs"
DATA = Path(__file__).resolve().parent / "data"
README = Path(__file__).resolve().parent.parent / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_text_exact(capsys):
    code, out, _ = run(capsys, "eval", "corpus:trunc")
    assert code == 0
    assert "5/2 (exact)" in out


def test_eval_text_lower_bound(capsys):
    code, out, _ = run(capsys, "eval", "corpus:geo", "--state", "c=1")
    assert code == 0
    assert "5 (lower bound, depth 64)" in out
    assert "46116860184273879037/9223372036854775808" in out


def test_eval_json_is_byte_identical(capsys):
    argv = ("eval", "corpus:geo", "--state", "c=1", "--format", "json")
    code, first, _ = run(capsys, *argv)
    assert code == 0
    code, second, _ = run(capsys, *argv)
    assert code == 0
    assert first == second
    doc = json.loads(first)
    assert doc["schema"] == "ertkit-report/1"
    assert doc["results"][0]["kind"] == "lower"
    assert doc["results"][0]["float"] == 5.0


def test_eval_program_file_and_multiple_states(tmp_path, capsys):
    prog = tmp_path / "drain.pp"
    prog.write_text("while (x > 0) { x := x - 1 }\n")
    code, out, _ = run(
        capsys, "eval", str(prog), "--state", "x=0", "--state", "x=3", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    assert [r["rational"] for r in doc["results"]] == ["1", "7"]
    assert all(r["kind"] == "exact" for r in doc["results"])


def test_eval_with_runtime_argument(capsys):
    code, out, _ = run(capsys, "eval", "corpus:trunc", "--f", "10")
    assert code == 0
    assert "25/2 (exact)" in out


def test_eval_depth_flag(capsys):
    code, out, _ = run(
        capsys, "eval", "corpus:geo", "--state", "c=1", "--depth", "8", "--format", "json"
    )
    assert code == 0
    doc = json.loads(out)
    # 5 - 3/2^7
    assert doc["results"][0]["rational"] == "637/128"


@pytest.mark.parametrize(
    "argv, flag",
    [
        pytest.param(("eval", "corpus:geo", "--depth", "0"), "--depth", id="eval-0"),
        pytest.param(
            ("eval", "corpus:geo", "--depth", "-3", "--format", "json"), "--depth",
            id="eval-negative",
        ),
        pytest.param(("crosscheck", "corpus:geo", "--depth", "0"), "--depth", id="crosscheck-0"),
        pytest.param(
            ("crosscheck", "corpus:geo", "--fallback-depth", "-1", "--node-cap", "3"),
            "--fallback-depth",
            id="fallback-negative",
        ),
        pytest.param(
            ("crosscheck", "corpus:geo", "--fallback-depth", "0"), "--fallback-depth",
            id="fallback-0",
        ),
    ],
)
def test_unroll_cap_below_one_is_an_input_error(argv, flag, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {flag} must be at least 1\n"


def test_unroll_cap_of_one(capsys):
    code, out, _ = run(capsys, "eval", "corpus:geo", "--depth", "1")
    assert code == 0
    assert "{c=1}: 2 (lower bound, depth 1); refinement from depth 1: +0" in out
    code, out, _ = run(
        capsys, "crosscheck", "corpus:geo", "--fallback-depth", "1", "--node-cap", "8"
    )
    assert code == 0
    assert "pass: exact equality (bounded at depth 1)" in out



@pytest.mark.parametrize(
    "argv, message",
    [
        pytest.param(
            ("corpus", "coupon", "--param", "N=0"),
            "parameter N of corpus entry coupon must be at least 1, found 0",
            id="coupon-0",
        ),
        pytest.param(
            ("corpus", "coupon", "--param", "N=-1"),
            "parameter N of corpus entry coupon must be at least 1, found -1",
            id="coupon-negative",
        ),
        pytest.param(
            ("corpus", "rwalk", "--param", "start=-3"),
            "parameter start of corpus entry rwalk must be at least 0, found -3",
            id="rwalk-start",
        ),
        pytest.param(
            ("corpus", "npast", "--param", "threshold=-1"),
            "parameter threshold of corpus entry npast must be at least 0, found -1",
            id="npast-threshold",
        ),
        pytest.param(
            ("eval", "corpus:coupon", "--param", "N=0"),
            "parameter N of corpus entry coupon must be at least 1, found 0",
            id="eval-param",
        ),
    ],
)
def test_corpus_parameter_below_its_minimum(argv, message, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("cap", ["-3", "0"])
def test_node_cap_below_one_is_an_input_error(cap, capsys):
    code, out, err = run(capsys, "crosscheck", "corpus:geo", "--node-cap", cap)
    assert (code, out, err) == (2, "", "error: --node-cap must be at least 1\n")


def test_a_report_follows_from_its_argv_alone(capsys, monkeypatch):
    argv = ("crosscheck", "corpus:geo", "--fallback-depth", "1", "--format", "json")
    monkeypatch.delenv("ERTKIT_MAX_NODES", raising=False)
    expected = run(capsys, *argv)
    monkeypatch.setenv("ERTKIT_MAX_NODES", "8")
    assert run(capsys, *argv) == expected
    assert json.loads(expected[1])["result"]["bounded_at"] is None


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_value_too_long_to_print_is_an_input_error(fmt, capsys):
    # `--depth 20000` against Python's default limit of 4300 digits, scaled
    # down: 5 - 3/2^2200 needs about 660 digits, the limit is lowered to 640
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(640)
    try:
        code, out, err = run(
            capsys, "eval", "corpus:geo", "--depth", "2200", "--format", fmt
        )
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out) == (2, "")
    assert err == (
        "error: the exact value has more digits than Python prints (640); "
        "use a smaller --depth, or raise the limit with PYTHONINTMAXSTRDIGITS\n"
    )


def _digits_error(capsys, *argv):
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        return run(capsys, *argv)
    finally:
        sys.set_int_max_str_digits(old)


_NO_DEPTH_HINT = (
    "error: the exact value has more digits than Python prints (4300); "
    "raise the limit with PYTHONINTMAXSTRDIGITS\n"
)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_exact_value_too_long_to_print_has_no_depth_hint(fmt, capsys):
    # the value grows with --f, not with the depth: the result is exact
    code, out, err = _digits_error(
        capsys, "eval", "corpus:trunc", "--f", "harmonic(20000)", "--format", fmt
    )
    assert (code, out, err) == (2, "", _NO_DEPTH_HINT)


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_spec_value_too_long_to_print_has_no_depth_hint(fmt, tmp_path, capsys):
    # check-inv has no --depth flag to point to
    spec = tmp_path / "long.spec"
    spec.write_text(
        "check: upper\ncorpus: geo\n"
        "invariant: 1 + [c = 1] * 3 + harmonic(20000)\ndomain: c in {0, 1}\n"
    )
    code, out, err = _digits_error(capsys, "check-inv", str(spec), "--format", fmt)
    assert (code, out, err) == (2, "", _NO_DEPTH_HINT)


_BIG = 2**2000


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize(
    "argv, exact",
    [
        # F^64(0)(c=1) = 5 + f - (3 + f) / 2^63 for geo's loop functional F
        pytest.param(
            ("eval", "corpus:geo", "--state", "c=1", "--f", "2^2000"),
            5 + _BIG - Fraction(3 + _BIG, 2**63),
            id="eval",
        ),
        # trunc is 5/2 + f
        pytest.param(
            ("crosscheck", "corpus:trunc", "--f", "2^2000"), _BIG + Fraction(5, 2), id="crosscheck"
        ),
        # one round of F at c = 1: 2 + (1 + 1 + B) / 2 for B = 2^2000 / 3^7
        pytest.param(("refine",), 3 + Fraction(_BIG, 2 * 3**7), id="refine"),
    ],
)
def test_a_value_beyond_the_double_range_prints_exactly(argv, exact, fmt, tmp_path, capsys):
    # float() overflows: JSON gives null, as for inf, and text the rational
    if argv == ("refine",):
        spec = tmp_path / "big.spec"
        spec.write_text(
            "check: refine\ncorpus: geo\ninvariant: 1 + [c = 1] * 2^2000 / 3^7\n"
            "rounds: 1\ndomain: c in {0, 1}\n"
        )
        argv += (str(spec),)
    code, out, err = run(capsys, *argv, "--format", fmt)
    assert (code, "Traceback" in out + err) == (0, False)
    assert str(exact) in out
    assert '"float": ' not in out or '"float": null' in out


@pytest.mark.parametrize("digits, code", [("640", 2), ("0", 0)])
def test_digit_limit_is_the_users_to_raise(digits, code):
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONINTMAXSTRDIGITS=digits)
    proc = subprocess.run(
        [sys.executable, "-m", "ertkit", "eval", "corpus:geo", "--depth", "2200"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == code, proc.stderr
    assert "Traceback" not in proc.stderr
    assert ("(lower bound, depth 2200)" in proc.stdout) == (code == 0)


def test_depth_beyond_the_recursion_limit_is_an_input_error(monkeypatch, capsys):
    # the same failure as `--depth 300000` at the real limit, scaled down
    monkeypatch.setattr(ertkit.kernel, "_DEEP_STACK", 3_000)
    code, out, err = run(capsys, "eval", "corpus:geo", "--depth", "3000")
    assert (code, out) == (2, "")
    assert err == (
        "error: the evaluation nests deeper than the recursion limit; "
        "use a smaller --depth\n"
    )
    assert sys.getrecursionlimit() < 3_000


def test_recursion_limit_without_a_depth_flag_gives_no_depth_advice(
    monkeypatch, tmp_path, capsys
):
    # a loop body too long to evaluate within the limit, on a command that
    # has no --depth to lower
    monkeypatch.setattr(ertkit.kernel, "_DEEP_STACK", 3_000)
    body = "; ".join(["x := x + 1"] * 1500)
    spec = tmp_path / "long.spec"
    spec.write_text(
        f"check: upper\nprogram: while (c = 1) {{ {body} }}\ninvariant: 1\n"
        "domain: c in {0, 1}; x in {0}\n"
    )
    code, out, err = run(capsys, "check-inv", str(spec))
    assert (code, out) == (2, "")
    assert err == "error: the evaluation nests deeper than the recursion limit\n"
    assert "--depth" not in err and "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "crosscheck"])
def test_recursion_limit_on_a_loop_free_program_gives_no_depth_advice(
    command, monkeypatch, tmp_path, capsys
):
    # no --depth can help a program that has no loop to unroll
    monkeypatch.setattr(ertkit.kernel, "_DEEP_STACK", 3_000)
    prog = tmp_path / "flat.pp"
    prog.write_text("; ".join(["x := x + 1"] * 1500))
    code, out, err = run(capsys, command, str(prog), "--state", "x=0")
    assert (code, out) == (2, "")
    assert err == "error: the evaluation nests deeper than the recursion limit\n"
    assert "Traceback" not in err


def test_timings_are_opt_in(capsys):
    argv = ("eval", "corpus:trunc", "--format", "json")
    _, plain, _ = run(capsys, *argv)
    assert "timings" not in json.loads(plain)
    _, timed, _ = run(capsys, *argv, "--timings")
    assert "timings" in json.loads(timed)
    code, out, err = run(capsys, "eval", "corpus:trunc", "--timings")
    assert "time:" in err and "time:" not in out


def test_crosscheck_pass(capsys):
    code, out, _ = run(capsys, "crosscheck", "corpus:trunc")
    assert code == 0
    assert "pass: exact equality" in out


def test_crosscheck_json_carries_both_sides(capsys):
    code, out, _ = run(capsys, "crosscheck", "corpus:geo", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["status"] == "pass"
    assert doc["result"]["model"]["rational"] == "5"
    assert doc["result"]["transformer"]["kind"] == "lower"


def test_check_inv_holds(capsys):
    code, out, _ = run(capsys, "check-inv", str(SPECS / "geo_upper.spec"))
    assert code == 0
    assert "Holds" in out


def test_check_inv_fails_with_witness(tmp_path, capsys):
    weak = tmp_path / "weak.spec"
    weak.write_text(
        "check: upper\ncorpus: geo\ninvariant: 1 + [c = 1] * 3\ndomain: c in {0, 1}\n"
    )
    code, out, _ = run(capsys, "check-inv", str(weak))
    assert code == 1
    assert "witness {c=1}" in out
    assert "9/2" in out


def test_check_inv_rejects_wrong_kind(capsys):
    code, _, err = run(capsys, "check-inv", str(SPECS / "geo_omega.spec"))
    assert code == 2
    assert "expected upper" in err


# An error at a state of the domain names that state, whatever its kind: a
# non-boolean read as a guard (in the bound), a cell out of bounds (in the
# loop body) and an undefined name.
STATE_ERRORS = {
    "kind": (
        "while (x > 0) { x := x - 1 }",
        "1 + [x > 0] * [x]",
        "error: expected a boolean, got 1 (at state {x=1})\n",
    ),
    "index": (
        "while (x > 0) { a := [0, 0]; y := a[x + 5]; x := x - 1 }",
        "1 + 10 * x",
        "error: a[6] out of bounds (length 2, indices are 1-based) (at state {x=1})\n",
    ),
    "unbound": (
        "while (x > 0) { x := x - 1 }",
        "1 + y",
        "error: undefined variable 'y' (at state {x=0})\n",
    ),
}


@pytest.mark.parametrize("case", sorted(STATE_ERRORS))
def test_check_inv_error_names_the_state(case, tmp_path, capsys):
    program, invariant, expected = STATE_ERRORS[case]
    spec = tmp_path / "error.spec"
    spec.write_text(
        "check: upper\nprogram: %s\ninvariant: %s\ndomain: x in 0 .. 2\n"
        % (program, invariant)
    )
    assert run(capsys, "check-inv", str(spec)) == (2, "", expected)


def test_check_omega_both_directions(capsys):
    code, out, _ = run(capsys, "check-omega", str(SPECS / "geo_omega.spec"))
    assert code == 0
    assert "omega invariant (lower): Holds" in out
    assert "omega invariant (upper): Holds" in out
    assert "consistent" in out


def test_check_omega_failing_sequence(tmp_path, capsys):
    bad = tmp_path / "bad.spec"
    bad.write_text(
        "check: omega\ncorpus: geo\ninvariant_n: 1 + [c = 1] * 5\n"
        "direction: lower\ndomain: c in {0, 1}\nnmax: 10\n"
    )
    code, out, _ = run(capsys, "check-omega", str(bad))
    assert code == 1
    assert "Fails" in out


OMEGA_GEO = (
    "check: omega\ncorpus: geo\ninvariant_n: 1 + [c = 1] * (4 - 3 * (1/2)^n)\n"
    "direction: lower\ndomain: c in {0, 1}\n"
)


@pytest.mark.parametrize(
    "limit, line, message",
    [
        ("4", "tol: -1", "tol must be at least 0, found '-1'"),
        ("4", "tol: 1/-3", "tol must be at least 0, found '1/-3'"),
        ("inf", "big: 0", "big must be positive, found '0'"),
        ("inf", "big: -2", "big must be positive, found '-2'"),
    ],
)
def test_spec_tolerance_and_big_are_checked(limit, line, message, tmp_path, capsys):
    spec = tmp_path / "limit.spec"
    spec.write_text(OMEGA_GEO + f"limit: 1 + [c = 1] * {limit}\n{line}\n")
    code, out, err = run(capsys, "check-omega", str(spec))
    assert code == 2
    assert out == ""
    assert err == f"spec error: line 7: {message}\n"


def test_spec_limit_edge_values_still_decide(tmp_path, capsys):
    # a zero tolerance is allowed, and a wrong infinite limit fails under
    # the default stand-in for infinity
    spec = tmp_path / "limit.spec"
    spec.write_text(OMEGA_GEO + "limit: 1 + [c = 1] * 4\ntol: 0\n")
    code, out, _ = run(capsys, "check-omega", str(spec))
    assert code == 1
    assert "limit consistency (probe 60): Fails" in out
    spec.write_text(OMEGA_GEO + "limit: 1 + [c = 1] * inf\n")
    code, out, _ = run(capsys, "check-omega", str(spec))
    assert code == 1
    assert "lhs 5 vs rhs 1000000" in out


def test_refine_table(capsys):
    code, out, _ = run(capsys, "refine", str(SPECS / "geo_refine.spec"))
    assert code == 0
    assert "{c=0}: 1" in out
    assert "{c=1}: 6" in out


def test_refine_precondition_failure(tmp_path, capsys):
    bad = tmp_path / "bad_refine.spec"
    bad.write_text(
        "check: refine\ncorpus: geo\ninvariant: 1 + [c = 1] * 3\n"
        "domain: c in {0, 1}\nrounds: 1\n"
    )
    code, out, _ = run(capsys, "refine", str(bad))
    assert code == 1
    assert "precondition failed" in out


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_refine_on_a_domain_that_is_not_closed_is_an_input_error(fmt, tmp_path, capsys):
    spec = tmp_path / "open_refine.spec"
    spec.write_text(
        "check: refine\nprogram: while (x < 5) { x := x + 1 }\n"
        "invariant: 1 + 2 * (5 - x) + 3\nrounds: 2\ndomain: x in 0 .. 3\n"
    )
    code, out, err = run(capsys, "refine", str(spec), "--format", fmt)
    assert code == 2
    assert out == ""
    assert "Traceback" not in err
    assert err.startswith("error: round 1: ") and "{x=4}" in err


def test_props_clean_and_mutant(capsys):
    code, out, _ = run(capsys, "props", "--count", "30", "--seed", "5")
    assert code == 0
    assert "all properties hold" in out
    # the mutant lives in the tests, so the command has no switch for it
    with pytest.raises(SystemExit) as exc:
        main(["props", "--count", "20", "--seed", "5", "--mutant"])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert out == ""
    assert "unrecognized arguments: --mutant" in err


def test_corpus_command(capsys):
    code, out, _ = run(capsys, "corpus", "geo")
    assert code == 0
    assert "all checks passed" in out
    code, _, err = run(capsys, "corpus", "nosuch")
    assert code == 2
    assert "unknown corpus entry" in err


UNKNOWN_ENTRY = "unknown corpus entry 'nosuch' (known: coupon, geo, npast, race, rwalk, trunc)"


@pytest.mark.parametrize(
    "argv",
    [
        ("corpus", "nosuch"),
        ("eval", "corpus:nosuch"),
        ("crosscheck", "corpus:nosuch", "--param", "N=2"),
    ],
)
def test_unknown_corpus_entry_names_the_known_ones(argv, capsys):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err == f"error: {UNKNOWN_ENTRY}\n"


def test_unknown_corpus_entry_in_a_spec(tmp_path, capsys):
    spec = tmp_path / "nosuch.spec"
    spec.write_text("check: upper\ncorpus: nosuch\ninvariant: 1\ndomain: c in {0, 1}\n")
    code, out, err = run(capsys, "check-inv", str(spec))
    assert code == 2
    assert out == ""
    assert err == f"spec error: line 2: {UNKNOWN_ENTRY}\n"


@pytest.mark.parametrize(
    "domain, message",
    [
        ("c in {0, x}", "value 'x' of 'c' is not an integer"),
        ("c in 5 .. 2", "empty range 5..2 for 'c'"),
        ("c in {0, 1}; c in {2}", "variable 'c' listed twice in the domain"),
    ],
)
def test_bad_domain_is_an_input_error_with_its_line(domain, message, tmp_path, capsys):
    spec = tmp_path / "domain.spec"
    spec.write_text(f"check: upper\ncorpus: geo\ninvariant: 1 + [c = 1] * 6\ndomain: {domain}\n")
    code, out, err = run(capsys, "check-inv", str(spec))
    assert (code, out, err) == (2, "", f"spec error: line 4: {message}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "program, loop, message",
    [
        ("corpus: geo", "loop: 3", "line 5: loop index 3 out of range; the program has 1 loop(s)"),
        ("program: x := 1", "", "line 2: the program contains no loop"),
    ],
)
def test_missing_loop_is_an_input_error_with_its_line(program, loop, message, tmp_path, capsys):
    spec = tmp_path / "loop.spec"
    spec.write_text(f"check: upper\n{program}\ninvariant: 1\ndomain: c in {{0, 1}}\n{loop}\n")
    code, out, err = run(capsys, "check-inv", str(spec))
    assert (code, out, err) == (2, "", f"spec error: {message}\n")
    assert "Traceback" not in err


def test_corpus_parameter_flags(capsys):
    code, out, _ = run(capsys, "corpus", "coupon", "--param", "N=2", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["params"]["N"] == 2
    assert all(c["ok"] for c in doc["checks"])


@pytest.mark.parametrize("name", ["race", "rwalk"])
def test_corpus_json_matches_golden_output(name, capsys):
    code, out, _ = run(capsys, "corpus", name, "--format", "json")
    assert code == 0
    assert out == (DATA / f"corpus_{name}.json").read_text(encoding="utf-8")


def test_export_mdp_stdout_and_file(tmp_path, capsys):
    code, out, _ = run(capsys, "export-mdp", "corpus:trunc")
    assert code == 0
    assert out.startswith("digraph")
    target = tmp_path / "m.dot"
    code, out, _ = run(capsys, "export-mdp", "corpus:trunc", "--out", str(target))
    assert code == 0
    assert target.read_text().startswith("digraph")


@pytest.mark.parametrize("flags", [["--format", "json"], ["--timings"], ["--seed", "1"]])
def test_export_mdp_refuses_the_report_flags(flags, capsys):
    # its output is always DOT, so it has no report format, timings or seed
    with pytest.raises(SystemExit) as exc:
        main(["export-mdp", "corpus:geo", *flags])
    out, err = capsys.readouterr()
    assert exc.value.code == 2
    assert "digraph" not in out
    assert f"unrecognized arguments: {' '.join(flags)}" in err


# the property suite is the one command that draws random programs, so a
# seed given to any other would change nothing
@pytest.mark.parametrize("argv", [
    ["eval", "corpus:geo"], ["crosscheck", "corpus:geo"], ["corpus", "geo"],
    ["check-inv", str(SPECS / "geo_upper.spec")], ["check-omega", str(SPECS / "geo_omega.spec")],
    ["refine", str(SPECS / "geo_refine.spec")],
], ids=lambda argv: argv[0])
def test_only_props_takes_a_seed(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*argv, "--seed", "1"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_library_and_command_line_fall_back_to_the_same_depth(capsys):
    rwalk = ertkit.corpus.ENTRIES["rwalk"].program()
    sigma = ertkit.kernel.State({"x": 1})
    report = cross_check(rwalk, sigma=sigma, cfg=MdpConfig(node_cap=2000))
    assert (report.status, report.bounded_at) == ("pass", 40)
    code, out, _ = run(
        capsys, "crosscheck", "corpus:rwalk", "--node-cap", "2000", "--format", "json"
    )
    result = json.loads(out)["result"]
    assert (code, result["status"], result["bounded_at"]) == (0, "pass", 40)
    assert result["nodes"] == report.node_count


def test_export_mdp_cap_error(capsys):
    code, _, err = run(capsys, "export-mdp", "corpus:coupon", "--node-cap", "10")
    assert code == 2
    assert "node" in err.lower()


def test_cap_hit_again_after_the_fallback_is_an_input_error(capsys):
    code, out, err = run(
        capsys, "crosscheck", "corpus:rwalk", "--node-cap", "20", "--fallback-depth", "30"
    )
    assert (code, out) == (2, "")
    assert err == "error: reachable node count exceeded the cap of 20\n"


def test_export_over_the_cap_is_an_input_error(capsys):
    code, out, err = run(capsys, "export-mdp", "corpus:rwalk", "--node-cap", "20")
    assert (code, out) == (2, "")
    assert err == (
        "error: reachable node count exceeded the cap of 20; raise --node-cap or "
        "export a bounded variant of the program\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "{missing}"),
        ("crosscheck", "{missing}"),
        ("check-inv", "{missing}"),
        ("eval", "corpus:trunc", "--f", "{directory}"),
        ("eval", "corpus:trunc", "--f", "{missing_rt}"),
        ("crosscheck", "{directory}"),
        ("check-inv", "{directory}"),
        ("eval", "{binary}"),
        ("eval", "corpus:trunc", "--f", "{binary_rt}"),
        ("crosscheck", "{binary}"),
        ("check-inv", "{binary}"),
        ("export-mdp", "{binary}"),
        ("export-mdp", "corpus:trunc", "--out", "{missing_dir}/x.dot"),
        ("export-mdp", "corpus:trunc", "--out", "{directory}"),
    ],
    ids=lambda argv: "-".join(argv).replace("{", "").replace("}", ""),
)
def test_unreadable_input_is_an_input_error(argv, tmp_path, capsys):
    paths = {
        "missing": tmp_path / "missing.pp",
        "missing_rt": tmp_path / "missing.rt",
        "directory": tmp_path / "dir.rt",
        "binary": tmp_path / "bin.pp",
        "binary_rt": tmp_path / "bin.rt",
        "missing_dir": tmp_path / "missing_dir",
    }
    paths["directory"].mkdir()
    for key in ("binary", "binary_rt"):
        paths[key].write_bytes(b"\xff\xfe skip")
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("error: cannot ") and "Traceback" not in err


_LONG = "1" * 5000
# 10^4999 and 10^4999 - 1, without converting 5000 digits
_TEN, _NINES = "1" + "0" * 4999, "9" * 4999


@pytest.mark.parametrize("limit", [4300, 0])
@pytest.mark.parametrize(
    "argv, source, message",
    [
        (("eval", "corpus:trunc", "--f", _LONG), None, "parse error: 1:1: "),
        (("eval", "{path}"), "x := " + _LONG, "parse error: 1:6: "),
        (("eval", "{path}"), f"x :~ 1/{_TEN}*<0> + {_NINES}/{_TEN}*<1>", "parse error: 1:8: "),
        (
            ("check-inv", "{path}"),
            f"check: upper\nprogram: while (c = {_LONG}) {{ c := 0 }}\n"
            "invariant: 1\ndomain: c in {0}\n",
            "spec error: line 2: program does not parse: 1:12: ",
        ),
    ],
    ids=["runtime", "program", "weight", "spec"],
)
def test_a_literal_longer_than_python_reads_is_a_parse_error(
    argv, source, message, limit, tmp_path, capsys
):
    path = tmp_path / "long.in"
    if source is not None:
        path.write_text(source)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(limit)
    try:
        code, _, err = run(capsys, *(a.format(path=path) for a in argv))
    finally:
        sys.set_int_max_str_digits(old)
    assert "Traceback" not in err
    if limit:
        assert code == 2
        assert err == message + (
            "integer literal has more digits than Python reads (4300); "
            "raise the limit with PYTHONINTMAXSTRDIGITS\n"
        )
    else:
        # no limit: the literal is read
        assert (code, err) == (0, "")


_DIGIT_LIMIT = (
    " has more digits than Python reads (4300); "
    "raise the limit with PYTHONINTMAXSTRDIGITS\n"
)


@pytest.mark.parametrize(
    "argv, source, message",
    [
        (("corpus", "coupon", "--param", f"N={_LONG}"), None, "error: parameter 'N'"),
        (
            ("eval", "corpus:trunc", "--state", f"c={_LONG}"), None,
            "error: the value of 'c' in --state",
        ),
        (
            ("eval", "corpus:coupon", "--state", f"cp=[0;{_LONG}]"), None,
            "error: a cell of 'cp' in --state",
        ),
    ]
    + [
        (
            ("check-omega", "{path}"),
            f"check: omega\ncorpus: geo\ninvariant_n: 1\ndomain: c in {{0}}\n{key}: {_LONG}\n",
            f"spec error: line 5: {key}",
        )
        for key in ("loop", "nmax", "probe")
    ]
    + [
        (
            ("refine", "{path}"),
            f"check: refine\ncorpus: geo\ninvariant: 9\ndomain: c in {{0}}\nrounds: {_LONG}\n",
            "spec error: line 5: rounds",
        )
    ],
    ids=["param", "state", "state-cell", "loop", "nmax", "probe", "rounds"],
)
def test_an_integer_longer_than_python_reads_is_refused_by_name(
    argv, source, message, tmp_path, capsys
):
    # the message names the limit, not the 5000 digits
    path = tmp_path / "long.spec"
    if source is not None:
        path.write_text(source)
    old = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(4300)
    try:
        code, out, err = run(capsys, *(a.format(path=path) for a in argv))
    finally:
        sys.set_int_max_str_digits(old)
    assert (code, out, err) == (2, "", message + _DIGIT_LIMIT)


def _nested_ifs(depth: int) -> str:
    return "x := 0; " + "if (x >= 0) { " * depth + "x := x + 1" + " }" * depth


@pytest.mark.parametrize(
    "argv",
    [
        ("eval", "{deep_program}"),
        ("crosscheck", "{deep_program}"),
        ("eval", "corpus:trunc", "--f", "{deep_runtime}"),
    ],
    ids=lambda argv: "-".join(argv).replace("{", "").replace("}", ""),
)
def test_deep_nesting_is_a_parse_error(argv, tmp_path, capsys):
    paths = {"deep_program": tmp_path / "deep.pp", "deep_runtime": tmp_path / "deep.rt"}
    paths["deep_program"].write_text(_nested_ifs(20000))
    paths["deep_runtime"].write_text("(" * 5000 + "1" + ")" * 5000)
    code, _, err = run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith("parse error: 1:") and "nesting deeper than" in err
    assert "Traceback" not in err


def test_nesting_at_the_limit_evaluates(tmp_path, capsys):
    program = tmp_path / "limit.pp"
    program.write_text(_nested_ifs(MAX_NESTING))
    runtime = tmp_path / "limit.rt"
    runtime.write_text("(" * MAX_NESTING + "x" + ")" * MAX_NESTING)
    code, out, _ = run(capsys, "eval", str(program), "--f", str(runtime))
    assert code == 0
    # x := 0, 64 guards and x := x + 1, then f reads x = 1
    assert "{}: %d (exact)" % (MAX_NESTING + 3) in out


# a statement chain and an operator chain each longer than Python's default
# recursion limit
LONG_SOURCES = {
    "statements": "x := 0; " + "; ".join(["x := x + 1"] * 2999),
    "operators": "x := " + " + ".join(["1"] * 3000),
}


@pytest.mark.parametrize("kind", sorted(LONG_SOURCES))
def test_export_of_a_long_program(kind, tmp_path, capsys):
    prog = tmp_path / "long.pp"
    prog.write_text(LONG_SOURCES[kind])
    code, out, err = run(capsys, "export-mdp", str(prog))
    assert code == 0, err
    assert out.startswith("digraph mdp {") and out.endswith("}")
    assert 'n1 [label="x := ' in out


@pytest.mark.parametrize("kind", sorted(LONG_SOURCES))
def test_crosscheck_of_a_long_program(kind, tmp_path, capsys):
    prog = tmp_path / "long.pp"
    prog.write_text(LONG_SOURCES[kind])
    limit = sys.getrecursionlimit()
    code, out, err = run(capsys, "crosscheck", str(prog), "--format", "json")
    assert code == 0, err
    assert json.loads(out)["result"]["detail"] == "exact equality"
    assert sys.getrecursionlimit() == limit


def test_module_entry_point():
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run(
        [sys.executable, "-m", "ertkit", "eval", "corpus:trunc"],
        capture_output=True, text=True, env=env, timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert "5/2 (exact)" in proc.stdout


def test_parse_error_exit_code(tmp_path, capsys):
    bad = tmp_path / "bad.pp"
    bad.write_text("while x > 0 { skip }")
    code, _, err = run(capsys, "eval", str(bad))
    assert code == 2
    assert "parse error" in err


def test_state_parse_error(capsys):
    code, _, err = run(capsys, "eval", "corpus:geo", "--state", "c")
    assert code == 2
    assert "name=value" in err


def test_unbound_variable_reported(tmp_path, capsys):
    prog = tmp_path / "free.pp"
    prog.write_text("while (x > 0) { x := x - 1 }")
    code, _, err = run(capsys, "eval", str(prog))
    assert code == 2
    assert "x" in err


# Loops whose states recur at several unroll depths, so the transformer reads
# the guard and the distribution of a revisited state from its tables.  Each
# program has one reachable error; both legs must report it, exit 2.
ERRORS_IN_LOOPS = {
    "index": (
        "a := [0, 0, 0]; i := 1;\n"
        "while (i <= 4) { i :~ 1/2*<i> + 1/2*<i + 1>; a[i] :~ 1/2*<0> + 1/2*<i> }\n",
        (),
        "error: a[4] out of bounds (length 3, indices are 1-based)\n",
    ),
    # the distribution's successor x = 0 divides the run-time by zero
    "division": (
        "while (x > 1) { x :~ 1/2*<x> + 1/4*<x - 1> + 1/4*<x - 2> }\n",
        ("--state", "x=3", "--f", "1/x"),
        "error: division by zero\n",
    ),
}


@pytest.mark.parametrize("command", ["eval", "crosscheck"])
@pytest.mark.parametrize("case", sorted(ERRORS_IN_LOOPS))
def test_evaluation_error_inside_a_loop(case, command, tmp_path, capsys):
    source, extra, expected = ERRORS_IN_LOOPS[case]
    prog = tmp_path / "prog.pp"
    prog.write_text(source)
    code, out, err = run(capsys, command, str(prog), *extra)
    assert (code, out, err) == (2, "", expected)


def test_error_beyond_an_infinite_unrolling_is_reported(tmp_path, capsys):
    # with f = inf the depth-2 unrolling is already infinite; the error at
    # x = 3 needs depth 4.  Both legs explore the whole loop and report it.
    prog = tmp_path / "prog.pp"
    prog.write_text(
        "a := [0]; x := 0;\n"
        "while (x < 5) { x :~ 1/2*<5> + 1/2*<x + 1>; if (x = 3) { a[2] := 0 } else { skip } }\n"
    )
    for command in ("eval", "crosscheck"):
        code, out, err = run(capsys, command, str(prog), "--f", "inf")
        assert (code, out) == (2, "")
        assert err == "error: a[2] out of bounds (length 1, indices are 1-based)\n"


# A variable keeps its kind and an array its length, a cell is written only
# in an array and at an integer index, and an array is read only by cell.
# Every leg reports the first bad access, exit 2.
BAD_ACCESSES = {
    "array-over-int": (
        "x := 1; x := [4, 5]; y := x + x[2]",
        "error: cannot assign array value to int variable 'x'\n",
    ),
    "int-over-array": (
        "x := [1, 2]; x := 3",
        "error: cannot assign int value to array variable 'x'\n",
    ),
    "bool-index": (
        "a := [0, 0]; a[true] := 5",
        "error: array index must be an integer, got True\n",
    ),
    "undefined-array": ("y[1] := 3", "error: undefined array 'y'\n"),
    "cell-of-int": ("x := 3; x[1] := 3", "error: int variable 'x' is not an array\n"),
    "array-by-name": (
        "a := [1, 2]; y := a",
        "error: array 'a' is read without an index\n",
    ),
    # 1 == True, but the else path's x = true must not share x = 1's value
    "bool-after-int-path": (
        "if (1/2*<true> + 1/2*<false>) { x := 1 } else { x := true }; y := x + 1",
        "error: arithmetic operand must be an integer, got True\n",
    ),
    # one choice of 1 or true, as a weighted list and as an `if`: the list
    # keeps the two kinds apart as `State` does, so both assign a bool to x
    "int-or-bool-list": (
        "x := 0; x :~ 1/2*<1> + 1/2*<true>; y := x + 1",
        "error: cannot assign bool value to int variable 'x'\n",
    ),
    "int-or-bool-if": (
        "x := 0; if (1/2*<true> + 1/2*<false>) { x := 1 } else { x := true }; y := x + 1",
        "error: cannot assign bool value to int variable 'x'\n",
    ),
}


@pytest.mark.parametrize("command", ["eval", "crosscheck", "export-mdp"])
@pytest.mark.parametrize("case", sorted(BAD_ACCESSES))
def test_bad_variable_access_is_an_input_error(case, command, tmp_path, capsys):
    source, expected = BAD_ACCESSES[case]
    prog = tmp_path / "prog.pp"
    prog.write_text(source)
    code, out, err = run(capsys, command, str(prog))
    assert (code, out, err) == (2, "", expected)


@pytest.mark.parametrize(
    "name",
    [
        "geo_upper",
        "geo_omega",
        "geo_refine",
        "rwalk_lower",
        "npast_b_omega",
        "npast_drain_omega",
    ],
)
def test_shipped_specs_all_pass(name, capsys):
    path = SPECS / f"{name}.spec"
    code, _, _ = run(capsys, _spec_command(path), str(path))
    assert code == 0


def _spec_command(path):
    with open(path) as handle:
        kind = [l.split(":", 1)[1].strip() for l in handle if l.startswith("check:")][0]
    return {"upper": "check-inv", "omega": "check-omega", "refine": "refine"}[kind]


# the shipped specs, two whose body loop is cut off (every premise is
# inconclusive) and the geometric chain with a wrong limit (the probe fails)
SPEC_EXITS = {
    "geo_upper": 0,
    "geo_omega": 0,
    "geo_refine": 0,
    "rwalk_lower": 0,
    "npast_b_omega": 0,
    "npast_drain_omega": 0,
    "nested_upper": 3,
    "nested_omega": 3,
    "geo_wrong_limit": 1,
}


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("name", list(SPEC_EXITS))
def test_spec_output_matches_golden(name, fmt, monkeypatch, capsys):
    path = SPECS / f"{name}.spec"
    if not path.exists():
        path = DATA / "specs" / f"{name}.spec"
    # run beside the spec, so the JSON's argv echo holds only its file name
    monkeypatch.chdir(path.parent)
    code, out, err = run(capsys, _spec_command(path), path.name, "--format", fmt)
    assert (code, err) == (SPEC_EXITS[name], "")
    golden = DATA / "spec_golden" / f"{name}.{'txt' if fmt == 'text' else 'json'}"
    assert out == golden.read_text()


def test_harmonic_of_a_large_argument_is_an_input_error():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    proc = subprocess.run(
        [sys.executable, "-m", "ertkit", "eval", "corpus:trunc", "--f", "harmonic(20000)"],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: the exact value has more digits than Python prints")
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize(
    "bound",
    ["1 + [c = 1] * 4 + harmonic(3000)", "[c = 1] * 4" + " + 1" * 2999],
    ids=["harmonic", "long-sum"],
)
def test_spec_bounds_evaluate_on_a_deep_stack(bound, tmp_path, capsys):
    spec = tmp_path / "deep.spec"
    spec.write_text(f"check: upper\ncorpus: geo\ninvariant: {bound}\ndomain: c in {{0, 1}}\n")
    limit = sys.getrecursionlimit()
    code, out, err = run(capsys, "check-inv", str(spec))
    assert (code, out, err) == (0, "upper invariant: Holds\n", "")
    assert sys.getrecursionlimit() == limit


def test_repeated_main_calls_see_only_their_own_flags(capsys):
    docs = []
    for n in (1, 2):
        argv = ["eval", "corpus:coupon", "--param", f"N={n}", "--state", f"z={n}"]
        code, out, _ = run(capsys, *argv, "--format", "json")
        assert code == 0
        docs.append(json.loads(out))
    for n, doc in zip((1, 2), docs):
        assert [r["state"] for r in doc["results"]] == [f"{{z={n}}}"]
        source = ertkit.corpus.ENTRIES["coupon"].source(N=n)
        assert doc["program_sha256"] == hashlib.sha256(source.encode()).hexdigest()


@pytest.mark.parametrize("count", ["-5", "0"])
def test_count_below_one_is_an_input_error(count, capsys):
    code, out, err = run(capsys, "props", "--count", count)
    assert (code, out, err) == (2, "", "error: --count must be at least 1\n")


@pytest.mark.parametrize(
    "command, states",
    [
        ("eval", ["x=1,x=[1;2]"]),
        ("eval", ["x=1,x=2"]),
        ("eval", ["x=[1;2], x=3"]),
        # repeated flags of crosscheck and export-mdp form one state
        ("crosscheck", ["x=1", "x=2"]),
        ("export-mdp", ["y=0,x=1", "x=[1]"]),
    ],
)
def test_name_bound_twice_in_one_state_is_an_input_error(command, states, capsys):
    argv = [command, "corpus:trunc"]
    for s in states:
        argv += ["--state", s]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: x is bound twice in --state\n")


def test_repeated_state_flags_of_eval_are_separate_states(tmp_path, capsys):
    prog = tmp_path / "drain.pp"
    prog.write_text("while (x > 0) { x := x - 1 }\n")
    code, out, _ = run(capsys, "eval", str(prog), "--state", "x=1", "--state", "x=2")
    assert code == 0
    assert out.splitlines()[1:] == ["{x=1}: 3 (exact)", "{x=2}: 5 (exact)"]


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_closed_stdout_is_an_input_error_without_a_traceback(fmt):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(SRC)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    read_end, write_end = os.pipe()
    os.close(read_end)  # the reader is gone before the first write
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "ertkit", "eval", "corpus:trunc", "--format", fmt],
            stdout=write_end, stderr=subprocess.PIPE, text=True, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (2, "")


@pytest.mark.parametrize("command", ["eval", "crosscheck", "export-mdp"])
@pytest.mark.parametrize("binding, name", [
    ("=1", ""), ("x y=1", "x y"), ("1x=2", "1x"), ("while=0", "while"), ("x=1,c-d=2", "c-d"),
])
def test_state_name_a_program_cannot_read_is_an_input_error(command, binding, name, capsys):
    code, out, err = run(capsys, command, "corpus:trunc", "--state", binding)
    assert (code, out, err) == (2, "", f"error: {name!r} is not a variable name in --state\n")


@pytest.mark.parametrize("params", [["N=2,N=3"], ["N=2", "N=3"], ["N=3", " N = 3"]])
@pytest.mark.parametrize("command", ["corpus", "eval"])
def test_parameter_bound_twice_is_an_input_error(command, params, capsys):
    argv = [command, "coupon" if command == "corpus" else "corpus:coupon"]
    for p in params:
        argv += ["--param", p]
    code, out, err = run(capsys, *argv)
    assert (code, out, err) == (2, "", "error: N is bound twice in --param\n")


UNREAD_KEYS = {
    # the same loop and domain under each check, with one key it does not read
    "check-inv": (
        "check: upper\ncorpus: geo\ninvariant: 1 + [c = 1] * 4\ndomain: c in {0, 1}\n"
        "rounds: 5\nnmax: 3\nlimit: 7\ndirection: both\n",
        "line 5: `rounds` is not read by check: upper, only by refine",
    ),
    "check-omega": (
        "check: omega\ncorpus: geo\ninvariant_n: 1 + [c = 1] * (4 - 3 * (1/2)^n)\n"
        "domain: c in {0, 1}\ninvariant: 1 + [c = 1] * 4\n",
        "line 5: `invariant` is not read by check: omega, only by upper and refine",
    ),
    "refine": (
        "check: refine\ncorpus: geo\ninvariant: 1 + [c = 1] * 6\ndomain: c in {0, 1}\n"
        "probe: 60\n",
        "line 5: `probe` is not read by check: refine, only by omega",
    ),
}


@pytest.mark.parametrize("command", sorted(UNREAD_KEYS))
def test_spec_key_the_check_does_not_read_is_an_input_error(command, tmp_path, capsys):
    text, message = UNREAD_KEYS[command]
    spec = tmp_path / "unread.spec"
    spec.write_text(text)
    code, out, err = run(capsys, command, str(spec))
    assert (code, out, err) == (2, "", f"spec error: {message}\n")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["eval", "crosscheck", "export-mdp"])
@pytest.mark.parametrize("entry, param", [("rwalk", "start=5"), ("npast", "threshold=3")])
def test_parameter_outside_the_program_is_an_input_error(command, entry, param, capsys):
    code, out, err = run(capsys, command, f"corpus:{entry}", "--param", param)
    name = param.partition("=")[0]
    assert (code, out) == (2, "")
    assert err == (
        f"error: parameter {name} does not occur in the program of corpus entry "
        f"{entry}; it applies to `ertkit corpus {entry}` only\n"
    )
    assert "Traceback" not in err


def test_template_parameters_are_read_without_get_identifiers(monkeypatch, capsys):
    # Template.get_identifiers only exists from Python 3.11
    import string

    monkeypatch.delattr(string.Template, "get_identifiers", raising=False)
    code, _, err = run(capsys, "eval", "corpus:rwalk", "--param", "start=5")
    assert code == 2 and "parameter start does not occur" in err
    code, out, _ = run(capsys, "eval", "corpus:coupon", "--param", "N=3", "--format", "json")
    assert code == 0
    source = ertkit.corpus.ENTRIES["coupon"].source(N=3)
    assert json.loads(out)["program_sha256"] == hashlib.sha256(source.encode()).hexdigest()


def test_corpus_parameters_have_no_flags_of_their_own(capsys):
    parser = _build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    options = {s for a in commands.choices["corpus"]._actions for s in a.option_strings}
    params = {k for entry in ertkit.corpus.ENTRIES.values() for k in entry.params}
    assert not {o.lstrip("-") for o in options} & params
    with pytest.raises(SystemExit) as exc:
        main(["corpus", "coupon", "--N", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --N 2" in capsys.readouterr().err


def test_the_readme_synopsis_lists_each_commands_flags():
    section = README.read_text(encoding="utf-8").split("## Command line", 1)[1]
    block = section.split("```text\n", 1)[1].split("```", 1)[0]
    # an indented line continues the synopsis above it
    synopses = re.sub(r"\n\s+", " ", block).splitlines()
    documented = {}
    for line in synopses:
        assert line.startswith("ertkit ")
        name = line.split()[1]
        flags = set(re.findall(r"--[a-z-]+", line))
        # "Every command but `export-mdp` also takes [--format ...] [--timings]"
        if name != "export-mdp":
            flags |= {"--format", "--timings"}
        documented[name] = flags
    commands = next(
        a for a in _build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    parsed = {
        name: {s for a in p._actions for s in a.option_strings} - {"-h", "--help"}
        for name, p in commands.choices.items()
    }
    assert documented == parsed
