from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmlauthz.gate import UnsupportedActionError, decide, explain, to_records
from xmlauthz.paths import AbsolutePath, PathExpr, parse_path_expr
from xmlauthz.predicates import intersect, is_subset, parse_predicate, satisfies
from xmlauthz.rules import (
    apply_rule,
    compile_documents,
    parse_rule_document,
)
from xmlauthz.store import XatStore

from conftest import fixture
from helpers import (
    oracle_decision,
    random_predicate,
    random_rules,
    random_universe,
    reference_expand,
    sample_values,
)


@pytest.fixture
def full_store(department_universe):
    xat = XatStore()
    compile_documents(
        [
            parse_rule_document(fixture("auth1.xml")),
            parse_rule_document(fixture("auth2.xml")),
        ],
        department_universe,
        xat,
    )
    return xat


class TestDecide:
    def test_staff_gpa_granted(self, department_universe, full_store):
        decision = decide(
            "staff", "select", parse_path_expr("//gpa"), department_universe, full_store
        )
        assert len(decision.grants) == 2 and not decision.denied_paths
        for _, effective in decision.grants:
            assert effective == parse_predicate("[.>=2.0]")

    def test_staff_city_denied(self, department_universe, full_store):
        decision = decide(
            "staff",
            "select",
            parse_path_expr("/department/undergradstudent/address/city"),
            department_universe,
            full_store,
        )
        assert not decision.grants
        assert decision.denied_paths == (
            AbsolutePath.parse("/department/undergradstudent/address/city"),
        )

    def test_query_condition_intersected(self, department_universe, full_store):
        decision = decide(
            "faculty",
            "select",
            parse_path_expr("//gradstudent//zip[.<50000]"),
            department_universe,
            full_store,
        )
        assert len(decision.grants) == 1
        _, effective = decision.grants[0]
        assert effective == parse_predicate("[.<50000]")

    def test_empty_effective_is_denied(self, department_universe, full_store):
        decision = decide(
            "staff", "select", parse_path_expr("//gpa[.<1.0]"), department_universe, full_store
        )
        assert not decision.grants and len(decision.denied_paths) == 2

    def test_unknown_action_rejected(self, department_universe, full_store):
        with pytest.raises(UnsupportedActionError):
            decide("staff", "update", parse_path_expr("//gpa"), department_universe, full_store)

    def test_default_deny_on_empty_table(self, department_universe):
        decision = decide(
            "staff", "select", parse_path_expr("//gpa"), department_universe, XatStore()
        )
        assert not decision.grants and len(decision.denied_paths) == 2


class TestExplain:
    def test_grant_lines(self, department_universe, full_store):
        decision = decide(
            "staff", "select", parse_path_expr("//gpa"), department_universe, full_store
        )
        report = explain(decision)
        assert report.count("GRANT") == 2
        assert ".>= 2.0" in report

    def test_no_match_notice(self, department_universe, full_store):
        decision = decide(
            "staff", "select", parse_path_expr("//nothing"), department_universe, full_store
        )
        assert "no paths matched" in explain(decision)

    def test_mixed_report(self, department_universe, full_store):
        decision = decide(
            "staff", "select", parse_path_expr("//zip[.<1000]"), department_universe, full_store
        )
        report = explain(decision)
        assert "denied:" in report
        decision2 = decide(
            "faculty", "select", parse_path_expr("//address"), department_universe, full_store
        )
        report2 = explain(decision2)
        assert "granted:" in report2 and "denied:" in report2

    def test_records_sorted_by_path(self, department_universe, full_store):
        decision = decide(
            "faculty", "select", parse_path_expr("//address"), department_universe, full_store
        )
        records = to_records(decision)
        assert records == sorted(records, key=lambda r: r["path"])
        assert {r["verdict"] for r in records} == {"grant", "deny"}


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_gate_soundness_vs_oracle(seed):
    rng = Random(seed)
    universe = random_universe(rng)
    if not len(universe):
        return
    rules = random_rules(rng, universe)
    expansions = [reference_expand(r, universe) for r in rules]
    xat = XatStore()
    for r in rules:
        apply_rule(r, universe, xat)
    values = sample_values([r.predicate for r in rules])
    for subject in ("staff", "faculty"):
        for path in universe:
            expr = parse_path_expr(path.text)
            decision = decide(subject, "select", expr, universe, xat)
            granted = {p: eff for p, eff in decision.grants}
            for v in values:
                gate_says = path in granted and satisfies(v, granted[path])
                assert gate_says == oracle_decision(
                    rules, universe, subject, path, v, expansions
                )


@given(st.integers(0, 10**9))
@settings(max_examples=100, deadline=None)
def test_gate_monotonicity(seed):
    rng = Random(seed)
    universe = random_universe(rng)
    if not len(universe):
        return
    rules = random_rules(rng, universe)
    xat = XatStore()
    for r in rules:
        apply_rule(r, universe, xat)
    base_cond = random_predicate(rng)
    narrowed = intersect(base_cond, random_predicate(rng))
    for path in sorted(universe, key=lambda p: p.text)[:5]:
        segments = parse_path_expr(path.text).segments
        wide = decide("staff", "select", PathExpr(segments, base_cond), universe, xat)
        narrow = decide("staff", "select", PathExpr(segments, narrowed), universe, xat)
        wide_grants = dict(wide.grants)
        for p, eff in narrow.grants:
            assert p in wide_grants
            assert is_subset(eff, wide_grants[p])
