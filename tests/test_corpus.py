from fractions import Fraction

import pytest

from ertkit import corpus
from ertkit.corpus import ENTRIES, coupon_closed_form
from ertkit.kernel import State, XReal
from ertkit.mdp import FALLBACK_UNROLL, CrossCheckReport, NodeCapExceeded, build_mdp
from ertkit.parser import parse_program
from ertkit.semantics import harmonic_number
from ertkit.transformer import expected_runtime


def test_registry_shape():
    assert sorted(ENTRIES) == ["coupon", "geo", "npast", "race", "rwalk", "trunc"]
    for name, entry in ENTRIES.items():
        assert entry.name == name
        assert entry.notes
        parse_program(entry.source())  # every template parses with defaults


def test_parameter_overrides_are_validated():
    with pytest.raises(KeyError):
        ENTRIES["geo"].source(bogus=1)
    assert "3" in ENTRIES["coupon"].source(N=3)
    for name, param, low in (("coupon", "N", 1), ("rwalk", "start", 0),
                             ("rwalk", "threshold", 0), ("npast", "threshold", 0)):
        entry = ENTRIES[name]
        assert entry.resolved(**{param: low})[param] == low
        with pytest.raises(ValueError, match=f"{param} of corpus entry {name} must be at least {low}"):
            entry.run_checks(**{param: low - 1})
    assert ENTRIES["race"].resolved(lead=-3)["lead"] == -3  # no minimum


def test_coupon_closed_form_values():
    assert coupon_closed_form(2) == 16
    assert coupon_closed_form(3) == 25
    assert coupon_closed_form(4) == 4 + 8 * (2 + harmonic_number(3))


def test_coupon_template_tracks_its_parameter():
    entry = ENTRIES["coupon"]
    for n in (2, 3, 4):
        src = entry.source(N=n)
        assert src.count("0") >= n  # the collected array starts all zeros
        parse_program(src)


def test_trunc_checks():
    assert all(o.ok for o in ENTRIES["trunc"].run_checks())


def test_geo_checks():
    assert all(o.ok for o in ENTRIES["geo"].run_checks())


def test_rwalk_checks():
    assert all(o.ok for o in ENTRIES["rwalk"].run_checks())


def test_race_checks():
    assert all(o.ok for o in ENTRIES["race"].run_checks())


@pytest.mark.parametrize("name", ["race", "rwalk"])
def test_infinite_case_studies_have_no_full_model(name):
    # the race's lead t grows every round while the hare may stand still,
    # and the walk reaches every x, so neither reachable model is finite;
    # their cross-checks therefore start from the depth-bounded program
    entry = ENTRIES[name]
    with pytest.raises(NodeCapExceeded):
        build_mdp(entry.program(), entry.initial_state(), node_cap=5_000)


def test_coupon_checks_default_and_n3():
    assert all(o.ok for o in ENTRIES["coupon"].run_checks())
    assert all(o.ok for o in ENTRIES["coupon"].run_checks(N=3))


def test_coupon_over_the_node_cap_raises_as_its_model_build_does(monkeypatch):
    # the closed form is about the full model, so a cross-check that fell
    # back to the bounded program cannot answer it; a real one needs N = 13
    # and seconds of building
    cross_check = corpus.cross_check

    def bounded(*args):
        cc = cross_check(*args)
        return CrossCheckReport(
            cc.status, cc.ert_kind, cc.ert_value, cc.mdp_value, cc.method,
            cc.node_count, FALLBACK_UNROLL, cc.detail,
        )

    monkeypatch.setattr(corpus, "cross_check", bounded)
    with pytest.raises(NodeCapExceeded, match="^reachable node count exceeded the cap of 200000$"):
        ENTRIES["coupon"].run_checks()


def test_npast_checks():
    outcomes = ENTRIES["npast"].run_checks()
    assert all(o.ok for o in outcomes)
    names = [o.name for o in outcomes]
    assert "part-one-exact" in names or any("part" in n for n in names)


def test_npast_threshold_override():
    # a threshold beyond the composed value makes its check fail honestly
    outcomes = ENTRIES["npast"].run_checks(threshold=200)
    by_name = {o.name: o for o in outcomes}
    failing = [o for o in outcomes if not o.ok]
    assert failing, by_name
    assert all("exceed" in o.name or "threshold" in o.detail for o in failing)


def test_race_lead_parameter_changes_the_program():
    a = ENTRIES["race"].source()
    b = ENTRIES["race"].source(lead=9)
    assert a != b
    parse_program(b)


def test_entry_values_stay_frozen():
    geo = ENTRIES["geo"].program()
    r = expected_runtime(geo, None, State({"c": 1}))
    assert r.value == XReal(Fraction(5) - Fraction(3, 2**63))
    trunc = ENTRIES["trunc"].program()
    assert expected_runtime(trunc).value == XReal(Fraction(5, 2))
