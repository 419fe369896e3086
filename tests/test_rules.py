from decimal import Decimal
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmlauthz.paths import AbsolutePath, AllPaths, parse_path_expr
from xmlauthz.predicates import UNIVERSAL, parse_predicate, satisfies
from xmlauthz.rules import (
    AuthRule,
    Mode,
    RuleError,
    Scope,
    apply_rule,
    compile_documents,
    expand_object,
    parse_rule_document,
)
from xmlauthz.store import XatStore

from conftest import fixture
from helpers import (
    oracle_decision,
    random_rules,
    random_universe,
    reference_expand,
    sample_values,
)

SAMPLE_RULE = """
<rules>
  <rule>
    <subject>staff</subject>
    <object>//zip[.&gt;48000]</object>
    <action>select</action>
    <type>L</type>
    <mode>grant</mode>
  </rule>
</rules>
"""


def rule(subject, object_text, scope=Scope.LOCAL, mode=Mode.GRANT):
    return AuthRule(subject, parse_path_expr(object_text), "Select", scope, mode)


class TestParseDocument:
    def test_sample_rule(self):
        doc = parse_rule_document(SAMPLE_RULE)
        assert len(doc.rules) == 1
        r = doc.rules[0]
        assert r.subject == "staff"
        assert r.scope is Scope.LOCAL
        assert r.mode is Mode.GRANT
        assert satisfies(48001, r.predicate)
        assert not satisfies(48000, r.predicate)

    def test_auth1_order_preserved(self):
        doc = parse_rule_document(fixture("auth1.xml"))
        assert [r.subject for r in doc.rules] == [
            "staff", "staff", "staff", "faculty", "faculty",
        ]

    def test_empty_document(self):
        assert parse_rule_document("<rules/>").rules == ()

    def test_missing_child_names_rule_index(self):
        with pytest.raises(RuleError, match="rule 0"):
            parse_rule_document("<rules><rule><subject>x</subject></rule></rules>")

    def test_unknown_mode_rejected(self):
        bad = SAMPLE_RULE.replace("grant", "maybe")
        with pytest.raises(RuleError, match="mode"):
            parse_rule_document(bad)

    def test_unsupported_action_rejected(self):
        bad = SAMPLE_RULE.replace("select", "update")
        with pytest.raises(RuleError, match="action"):
            parse_rule_document(bad)

    def test_malformed_xml(self):
        with pytest.raises(RuleError, match="malformed"):
            parse_rule_document("<rules><rule></rules>")


class TestExpand:
    def test_local_gpa(self, department_universe):
        got = expand_object(rule("staff", "//gpa"), department_universe)
        assert len(got) == 2

    def test_recursive_address(self, department_universe):
        got = expand_object(
            rule("staff", "/department/undergradstudent/address", Scope.RECURSIVE),
            department_universe,
        )
        assert len(got) == 4

    def test_no_match_is_empty(self, department_universe):
        assert expand_object(rule("staff", "//nonexistent"), department_universe) == set()


class TestApply:
    def test_grant_inserts(self, department_universe):
        xat = XatStore()
        summary = apply_rule(rule("staff", "//gpa"), department_universe, xat)
        assert summary.inserted == 2 and len(xat) == 2
        for entry in xat.entries():
            assert entry.predicate.is_universal

    def test_recursive_deny_deletes_subtree(self, department_universe):
        xat = XatStore()
        compile_documents(
            [parse_rule_document(fixture("auth1.xml"))], department_universe, xat
        )
        summary = apply_rule(
            rule("staff", "//undergradstudent/address", Scope.RECURSIVE, Mode.DENY),
            department_universe,
            xat,
        )
        assert summary.deleted == 4

    def test_conditional_deny_updates(self, department_universe):
        xat = XatStore()
        compile_documents(
            [parse_rule_document(fixture("auth1.xml"))], department_universe, xat
        )
        summary = apply_rule(
            rule("staff", "//gpa[.<2.0]", mode=Mode.DENY), department_universe, xat
        )
        assert summary.updated == 2
        entry = xat.lookup(
            "staff", AbsolutePath.parse("/department/gradstudent/gpa"), "Select"
        )
        assert entry.predicate == parse_predicate("[.>=2.0]")

    def test_deny_without_grant_is_noop(self, department_universe):
        xat = XatStore()
        summary = apply_rule(
            rule("staff", "//gpa", mode=Mode.DENY), department_universe, xat
        )
        assert (summary.inserted, summary.updated, summary.deleted) == (0, 0, 0)

    def test_empty_object_set_is_noop(self, department_universe):
        xat = XatStore()
        summary = apply_rule(rule("staff", "//nothing"), department_universe, xat)
        assert len(xat) == 0 and summary.inserted == 0

    def test_repeated_grant_unions(self, department_universe):
        xat = XatStore()
        apply_rule(rule("staff", "//gpa[.<1.0]"), department_universe, xat)
        apply_rule(rule("staff", "//gpa[.>3.0]"), department_universe, xat)
        entry = xat.lookup(
            "staff", AbsolutePath.parse("/department/gradstudent/gpa"), "Select"
        )
        assert satisfies(Decimal("0.5"), entry.predicate)
        assert satisfies(Decimal("3.5"), entry.predicate)
        assert not satisfies(Decimal("2.0"), entry.predicate)


class TestCompile:
    def test_table1(self, department_universe):
        xat = XatStore()
        compile_documents(
            [parse_rule_document(fixture("auth1.xml"))], department_universe, xat
        )
        assert len(xat) == 12

    def test_table2(self, department_universe):
        xat = XatStore()
        compile_documents(
            [
                parse_rule_document(fixture("auth1.xml")),
                parse_rule_document(fixture("auth2.xml")),
            ],
            department_universe,
            xat,
        )
        assert len(xat) == 7

    def test_empty_compile_is_noop(self, department_universe):
        xat = XatStore()
        apply_rule(rule("staff", "//gpa"), department_universe, xat)
        before = xat.to_csv_text()
        compile_documents([], department_universe, xat)
        assert xat.to_csv_text() == before

    def test_grant_only_invariant(self, department_universe):
        xat = XatStore()
        compile_documents(
            [
                parse_rule_document(fixture("auth1.xml")),
                parse_rule_document(fixture("auth2.xml")),
            ],
            department_universe,
            xat,
        )
        for entry in xat.entries():
            assert not entry.predicate.is_empty

    def test_order_sensitivity(self, department_universe):
        grant = rule("staff", "//gpa")
        deny = rule("staff", "//gpa", mode=Mode.DENY)
        xat_gd = XatStore()
        apply_rule(grant, department_universe, xat_gd)
        apply_rule(deny, department_universe, xat_gd)
        assert len(xat_gd) == 0
        xat_dg = XatStore()
        apply_rule(deny, department_universe, xat_dg)
        apply_rule(grant, department_universe, xat_dg)
        assert len(xat_dg) == 2

    def test_redundant_deny_idempotent(self, department_universe):
        xat = XatStore()
        apply_rule(rule("staff", "//gpa"), department_universe, xat)
        deny = rule("staff", "//gpa[.<2.0]", mode=Mode.DENY)
        apply_rule(deny, department_universe, xat)
        once = xat.to_csv_text()
        apply_rule(deny, department_universe, xat)
        assert xat.to_csv_text() == once


def check_oracle_equivalence(seed):
    rng = Random(seed)
    universe = random_universe(rng, max_paths=40)
    if not len(universe):
        return
    rules = random_rules(rng, universe)
    expansions = [reference_expand(r, universe) for r in rules]
    xat = XatStore()
    for r in rules:
        apply_rule(r, universe, xat)
    values = sample_values([r.predicate for r in rules])
    for subject in {"staff", "faculty"}:
        for path in universe:
            row = xat.lookup(subject, path, "Select")
            for v in values:
                table_says = row is not None and satisfies(v, row.predicate)
                oracle = oracle_decision(rules, universe, subject, path, v, expansions)
                assert table_says == oracle, (subject, path.text, v, rules)


@given(st.integers(0, 10**9))
@settings(max_examples=150, deadline=None)
def test_oracle_equivalence_random(seed):
    check_oracle_equivalence(seed)
