"""Acceptance suite: one test per exit criterion, each printing a
PASS/FAIL line.  Tolerances are exact; the randomized criteria run a
fixed number of seeded trials."""

import time
from random import Random

import pytest

from xmlauthz.paths import (
    build_allpaths_from_document,
    load_allpaths_from_list,
    match_paths,
    parse_path_expr,
    recursive_closure,
)
from xmlauthz.predicates import (
    complement,
    difference,
    intersect,
    is_subset,
    parse_predicate_text,
    render_predicate,
    satisfies,
    union,
)
from xmlauthz.rules import (
    Mode,
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


def report(name, ok):
    print("%s: %s" % ("PASS" if ok else "FAIL", name))
    assert ok, name


def compile_fixture_documents(universe, *names):
    xat = XatStore()
    compile_documents(
        [parse_rule_document(fixture(n)) for n in names], universe, xat
    )
    return xat


def test_criterion_1_table1_reproduction(department_universe):
    start = time.monotonic()
    xat = compile_fixture_documents(department_universe, "auth1.xml")
    expected = open(fixture("table1_expected.csv"), encoding="utf-8").read()
    ok = xat.to_csv_text() == expected and len(xat) == 12
    ok = ok and (time.monotonic() - start) < 1.0
    report("criterion 1: first document compiles to the 12 expected rows", ok)


def test_criterion_2_table2_reproduction(department_universe):
    start = time.monotonic()
    xat = compile_fixture_documents(department_universe, "auth1.xml", "auth2.xml")
    expected = open(fixture("table2_expected.csv"), encoding="utf-8").read()
    ok = xat.to_csv_text() == expected and len(xat) == 7
    ok = ok and (time.monotonic() - start) < 1.0
    report("criterion 2: both documents compile to the 7 expected rows", ok)


def test_criterion_3_conflict_cases(department_universe):
    outcomes = []
    for name, expected_rows, expected_predicate in [
        ("cases/case1.xml", 0, None),
        ("cases/case2.xml", 2, ".>= 2.0"),
        ("cases/case3.xml", 0, None),
        ("cases/case4.xml", 2, "2.0 <= . < 3.0"),
    ]:
        xat = compile_fixture_documents(department_universe, name)
        ok = len(xat) == expected_rows
        if expected_predicate is not None:
            ok = ok and all(
                render_predicate(e.predicate) == expected_predicate
                for e in xat.entries()
            )
        outcomes.append(ok)
    report("criterion 3: the four grant/deny conflict cases resolve as stated", all(outcomes))


def test_criterion_4_oracle_equivalence():
    start = time.monotonic()
    rng = Random(20260824)
    mismatches = 0
    for _ in range(1000):
        universe = random_universe(rng, max_paths=40)
        if not len(universe):
            continue
        rules = random_rules(rng, universe, max_rules=12)
        expansions = [reference_expand(r, universe) for r in rules]
        xat = XatStore()
        for r in rules:
            apply_rule(r, universe, xat)
        values = sample_values([r.predicate for r in rules])
        # predicate satisfaction per (rule, value), computed once per trial
        rule_sat = [[satisfies(v, r.predicate) for v in values] for r in rules]
        for subject in ("staff", "faculty"):
            for path in universe:
                relevant = [
                    i for i, (r, objs) in enumerate(zip(rules, expansions))
                    if r.subject == subject and path in objs
                ]
                row = xat.lookup(subject, path, "Select")
                if not relevant and row is None:
                    continue
                for vi, v in enumerate(values):
                    table_says = row is not None and satisfies(v, row.predicate)
                    verdict = False
                    for i in relevant:
                        if rule_sat[i][vi]:
                            verdict = rules[i].mode is Mode.GRANT
                    if table_says != verdict:
                        mismatches += 1
    elapsed = time.monotonic() - start
    report(
        "criterion 4: 1000 random policies match the last-rule oracle "
        "(%d mismatches, %.1fs)" % (mismatches, elapsed),
        mismatches == 0 and elapsed < 30.0,
    )


def test_criterion_5_predicate_laws():
    start = time.monotonic()
    rng = Random(42)
    failures = 0
    for _ in range(10_000):
        a = random_predicate(rng)
        b = random_predicate(rng)
        checks = [
            difference(a, b) == intersect(a, complement(b)),
            is_subset(a, b) == difference(a, b).is_empty,
            intersect(difference(a, b), b).is_empty,
            union(difference(a, b), intersect(a, b)) == a,
        ]
        for v in sample_values([a, b]):
            checks.append(
                satisfies(v, difference(a, b)) == (satisfies(v, a) and not satisfies(v, b))
            )
            checks.append(satisfies(v, union(a, b)) == (satisfies(v, a) or satisfies(v, b)))
        if not a.is_empty:
            checks.append(parse_predicate_text(render_predicate(a)) == a)
        if not all(checks):
            failures += 1
    elapsed = time.monotonic() - start
    report(
        "criterion 5: 10000 random predicate-algebra law checks "
        "(%d failures, %.1fs)" % (failures, elapsed),
        failures == 0 and elapsed < 10.0,
    )


def test_criterion_6_path_matching(department_universe, department_universe_from_list):
    gpa = match_paths(parse_path_expr("//gpa"), department_universe)
    address = recursive_closure(
        match_paths(
            parse_path_expr("/department/undergradstudent/address"), department_universe
        ),
        department_universe,
    )
    ok = (
        len(gpa) == 2
        and len(address) == 4
        and len(department_universe) == 39
        and department_universe == department_universe_from_list
    )
    report("criterion 6: path matching counts and the 39-path universe", ok)


def test_criterion_7_csv_round_trip(department_universe):
    ok = True
    for names in (("auth1.xml",), ("auth1.xml", "auth2.xml")):
        xat = compile_fixture_documents(department_universe, *names)
        once = xat.to_csv_text()
        twice = XatStore.from_csv_text(once).to_csv_text()
        ok = ok and once == twice
    report("criterion 7: export-import-export is byte-identical for both tables", ok)
