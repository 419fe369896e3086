import io
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from xmlauthz.paths import (
    CHILD,
    DESCENDANT,
    AbsolutePath,
    AllPaths,
    PathExpr,
    PathSyntaxError,
    build_allpaths_from_document,
    load_allpaths_from_list,
    match_paths,
    parse_path_expr,
    recursive_closure,
)
from xmlauthz.predicates import UNIVERSAL, satisfies

from helpers import (
    random_path_expr,
    random_universe,
    reference_closure,
    reference_match,
)


def paths(*texts):
    return {AbsolutePath.parse(t) for t in texts}


class TestParseExpr:
    def test_descendant_single(self):
        e = parse_path_expr("//gpa")
        assert e.segments == ((DESCENDANT, "gpa"),)
        assert e.condition.is_universal

    def test_child_chain(self):
        e = parse_path_expr("/department/undergradstudent/address")
        assert e.segments == (
            (CHILD, "department"),
            (CHILD, "undergradstudent"),
            (CHILD, "address"),
        )

    def test_condition_attached(self):
        e = parse_path_expr("//gradstudent//zip[.<60000]")
        assert e.segments == ((DESCENDANT, "gradstudent"), (DESCENDANT, "zip"))
        assert not satisfies(60000, e.condition)
        assert satisfies(59999, e.condition)

    def test_attribute_final_step(self):
        e = parse_path_expr("/a/@id")
        assert e.segments == ((CHILD, "a"), (CHILD, "@id"))

    @pytest.mark.parametrize("bad", ["", "   ", "a/b", "///", "/a//", "/a/[.<2]x", "/@id/a"])
    def test_syntax_errors(self, bad):
        with pytest.raises(PathSyntaxError):
            parse_path_expr(bad)

    def test_error_carries_position(self):
        with pytest.raises(PathSyntaxError, match="position"):
            parse_path_expr("/a//")


class TestAbsolutePath:
    def test_canonical_text(self):
        assert AbsolutePath.parse("/a/b/@id").text == "/a/b/@id"

    def test_attribute_must_be_last(self):
        with pytest.raises(PathSyntaxError):
            AbsolutePath(("a", "@id", "b"))

    def test_rejects_non_canonical(self):
        with pytest.raises(PathSyntaxError):
            AbsolutePath.parse("a/b")
        with pytest.raises(PathSyntaxError):
            AbsolutePath.parse("/a//b")


class TestBuildAllPaths:
    def test_department_has_39_paths(self, department_universe):
        assert len(department_universe) == 39

    def test_single_element(self):
        assert set(build_allpaths_from_document("<a/>")) == paths("/a")

    def test_duplicates_collapse(self):
        assert set(build_allpaths_from_document("<a><b/><b/></a>")) == paths("/a", "/a/b")

    def test_attributes_become_leaf_steps(self):
        got = build_allpaths_from_document('<a id="1"><b n="2"/></a>')
        assert got == AllPaths.from_paths(paths("/a/@id", "/a/b/@n"))

    def test_malformed_xml(self):
        with pytest.raises(Exception):
            build_allpaths_from_document("<a><b></a>")

    def test_direct_construction_needs_every_parent(self):
        assert len(AllPaths(frozenset(paths("/a", "/a/b")))) == 2
        with pytest.raises(ValueError, match="/a/b has no parent"):
            AllPaths(frozenset(paths("/a/b")))


class TestLoadAllPaths:
    def test_prefix_closure(self):
        got = load_allpaths_from_list(io.StringIO("/a/b/c\n"))
        assert set(got) == paths("/a", "/a/b", "/a/b/c")

    def test_empty_file(self):
        assert len(load_allpaths_from_list(io.StringIO(""))) == 0

    def test_comments_and_blanks_skipped(self):
        got = load_allpaths_from_list(io.StringIO("# comment\n\n/a\n"))
        assert set(got) == paths("/a")

    def test_malformed_line_numbered(self):
        with pytest.raises(PathSyntaxError, match="line 2"):
            load_allpaths_from_list(io.StringIO("/a\nnot-a-path\n"))

    def test_list_matches_document(self, department_universe, department_universe_from_list):
        assert department_universe == department_universe_from_list


class TestMatch:
    def test_descendant_gpa(self, department_universe):
        got = match_paths(parse_path_expr("//gpa"), department_universe)
        assert got == paths(
            "/department/gradstudent/gpa", "/department/undergradstudent/gpa"
        )

    def test_exact_child_chain(self, department_universe):
        got = match_paths(
            parse_path_expr("/department/undergradstudent/address"), department_universe
        )
        assert got == paths("/department/undergradstudent/address")

    def test_double_descendant(self, department_universe):
        got = match_paths(parse_path_expr("//gradstudent//zip"), department_universe)
        assert got == paths("/department/gradstudent/address/zip")

    def test_no_match(self):
        universe = AllPaths.from_paths(paths("/a"))
        assert match_paths(parse_path_expr("/x/y"), universe) == set()

    def test_whole_step_matching(self):
        universe = AllPaths.from_paths(paths("/a/myzip", "/a/zip"))
        got = match_paths(parse_path_expr("//zip"), universe)
        assert got == paths("/a/zip")

    def test_descendant_consumes_at_least_one_step(self):
        # //b anchored after /a must not match /a itself
        universe = AllPaths.from_paths(paths("/a/b/a"))
        got = match_paths(parse_path_expr("/a//a"), universe)
        assert got == paths("/a/b/a")


class TestRecursiveClosure:
    def test_address_subtree(self, department_universe):
        start = paths("/department/undergradstudent/address")
        got = recursive_closure(start, department_universe)
        assert got == paths(
            "/department/undergradstudent/address",
            "/department/undergradstudent/address/city",
            "/department/undergradstudent/address/state",
            "/department/undergradstudent/address/zip",
        )

    def test_leaf_closure_is_itself(self, department_universe):
        start = paths("/department/deptname")
        assert recursive_closure(start, department_universe) == start

    def test_root_closure_is_whole_universe(self, department_universe):
        got = recursive_closure(paths("/department"), department_universe)
        assert got == set(department_universe)


@given(st.integers(0, 10**9))
@settings(max_examples=150)
def test_match_properties_random(seed):
    rng = Random(seed)
    universe = random_universe(rng)
    if not len(universe):
        return
    expr = random_path_expr(rng, universe, UNIVERSAL)
    got = match_paths(expr, universe)
    assert got <= set(universe)
    if not expr.has_descendant_axis():
        assert len(got) <= 1
        if got:
            assert next(iter(got)).steps == tuple(s for _, s in expr.segments)
    # widening any child axis to descendant never shrinks the match set
    for i, (axis, step) in enumerate(expr.segments):
        if axis == CHILD:
            widened = PathExpr(
                expr.segments[:i] + ((DESCENDANT, step),) + expr.segments[i + 1:],
                expr.condition,
            )
            assert got <= match_paths(widened, universe)


@given(st.integers(0, 10**9))
@settings(max_examples=150)
def test_closure_idempotent_monotone_random(seed):
    rng = Random(seed)
    universe = random_universe(rng)
    members = sorted(universe, key=lambda p: p.text)
    if not members:
        return
    subset = set(rng.sample(members, rng.randint(1, len(members))))
    closed = recursive_closure(subset, universe)
    assert recursive_closure(closed, universe) == closed
    smaller = set(rng.sample(sorted(subset, key=lambda p: p.text), rng.randint(1, len(subset))))
    assert recursive_closure(smaller, universe) <= closed


@given(st.integers(0, 10**9))
@settings(max_examples=100)
def test_document_allpaths_prefix_closed(seed):
    rng = Random(seed)
    universe = random_universe(rng)
    assert AllPaths.from_paths(universe) == universe


# Patterns whose steps repeat along one path, plus attribute leaves.
REPEATING_PATTERNS = ["//a//a", "/a//b/a", "//a/a", "/a//a//a", "//b//@c", "//@a"]


@given(st.integers(0, 10**9), st.integers(1, 500))
@settings(max_examples=100, deadline=None)
def test_trie_agrees_with_reference(seed, max_paths):
    rng = Random(seed)
    universe = random_universe(rng, max_paths=max_paths, max_depth=12)
    members = sorted(universe, key=lambda p: p.text)
    if not members:
        return
    some = rng.sample(members, rng.randint(1, min(20, len(members))))
    assert AllPaths.from_paths(some) == AllPaths(frozenset(
        AbsolutePath(p.steps[:n]) for p in some for n in range(1, len(p.steps) + 1)
    ))
    exprs = [parse_path_expr(text) for text in REPEATING_PATTERNS]
    exprs.append(random_path_expr(rng, universe, UNIVERSAL))
    exprs.append(PathExpr(tuple(
        (rng.choice((CHILD, DESCENDANT)), rng.choice("abcd"))
        for _ in range(rng.randint(1, 4))
    )))
    for expr in exprs:
        matched = match_paths(expr, universe)
        assert matched == reference_match(expr, universe), expr.text
        closed = recursive_closure(matched, universe)
        assert closed == reference_closure(matched, universe), expr.text
