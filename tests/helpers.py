"""Shared test utilities: random policy generation and the independent
last-matching-rule oracle used to cross-check the compiled table.

The oracle expands rule objects with its own reference matcher (a regex
over path text) and closure (by text prefix), so it shares no matching
code with ``xmlauthz.paths``."""

import re
from decimal import Decimal
from random import Random

from xmlauthz.paths import AbsolutePath, AllPaths, PathExpr, CHILD, DESCENDANT
from xmlauthz.predicates import (
    EMPTY,
    UNIVERSAL,
    Interval,
    Predicate,
    predicate_from_intervals,
    satisfies,
    union,
)
from xmlauthz.rules import AuthRule, Mode, Scope


def reference_match(expr: PathExpr, universe: AllPaths) -> set[AbsolutePath]:
    """Paths whose whole text matches the pattern as a regex: ``/name``
    is one step, ``//name`` is any number of steps then ``/name``."""
    pattern = re.compile("".join(
        ("(?:/[^/]+)*/" if axis == DESCENDANT else "/") + re.escape(step)
        for axis, step in expr.segments
    ))
    return {p for p in universe if pattern.fullmatch(p.text)}


def reference_closure(paths, universe: AllPaths) -> set[AbsolutePath]:
    """The given paths plus every universe path whose text extends one of
    theirs by ``/...``."""
    prefixes = tuple(p.text + "/" for p in paths)
    return set(paths) | {q for q in universe if q.text.startswith(prefixes)}


def reference_expand(rule: AuthRule, universe: AllPaths) -> set[AbsolutePath]:
    matched = reference_match(rule.object, universe)
    if rule.scope is Scope.RECURSIVE:
        matched = reference_closure(matched, universe)
    return matched


def oracle_decision(rules, universe, subject, path, value, expansions=None) -> bool:
    """Scan the rule sequence in order; the last rule whose object set
    contains the path and whose predicate admits the value wins.
    Default is deny.  ``expansions`` may carry precomputed
    ``reference_expand`` object sets (one per rule, same order) to avoid
    re-expanding on every call."""
    if expansions is None:
        expansions = [reference_expand(rule, universe) for rule in rules]
    verdict = False
    for rule, objects in zip(rules, expansions):
        if rule.subject != subject:
            continue
        if path in objects and satisfies(value, rule.predicate):
            verdict = rule.mode is Mode.GRANT
    return verdict


def random_interval(rng: Random, lo=-20, hi=20) -> Interval:
    a = Decimal(rng.randint(lo, hi))
    kind = rng.randrange(5)
    if kind == 0:
        return Interval(None, False, a, rng.random() < 0.5)
    if kind == 1:
        return Interval(a, rng.random() < 0.5, None, False)
    if kind == 2:
        return Interval(a, True, a, True)
    b = a + Decimal(rng.randint(1, 10))
    return Interval(a, rng.random() < 0.5, b, rng.random() < 0.5)


def random_predicate(rng: Random) -> Predicate:
    roll = rng.random()
    if roll < 0.1:
        return UNIVERSAL
    if roll < 0.15:
        return EMPTY
    n = rng.randint(1, 3)
    return predicate_from_intervals(random_interval(rng) for _ in range(n))


def random_universe(rng: Random, max_paths=15, max_depth=6) -> AllPaths:
    """A random prefix-closed universe over four names, so deep paths
    repeat a name.  About one element in five carries an ``@name`` leaf."""
    names = ["a", "b", "c", "d"]
    paths = set()
    frontier = [()]
    while frontier and len(paths) < max_paths:
        base = frontier.pop(rng.randrange(len(frontier)))
        for name in rng.sample(names, rng.randint(1, len(names))):
            steps = base + (name,)
            if len(paths) >= max_paths:
                break
            paths.add(AbsolutePath(steps))
            if len(paths) < max_paths and rng.random() < 0.2:
                paths.add(AbsolutePath(steps + ("@" + rng.choice(names),)))
            if len(steps) < max_depth and rng.random() < 0.6:
                frontier.append(steps)
    return AllPaths.from_paths(paths)


def random_path_expr(rng: Random, universe: AllPaths, condition: Predicate) -> PathExpr:
    path = rng.choice(sorted(universe, key=lambda p: p.text))
    segments = []
    skipping = False
    for i, step in enumerate(path.steps):
        if skipping or rng.random() < 0.25:
            # fold this step into a descendant gap or keep it as the
            # descendant segment itself
            if rng.random() < 0.5 and i < len(path.steps) - 1:
                skipping = True
                continue
            segments.append((DESCENDANT, step))
            skipping = False
        else:
            segments.append((CHILD, step))
    if not segments:
        segments.append((DESCENDANT, path.steps[-1]))
    return PathExpr(tuple(segments), condition)


def random_rules(rng: Random, universe: AllPaths, max_rules=12) -> list[AuthRule]:
    rules = []
    for _ in range(rng.randint(1, max_rules)):
        condition = random_predicate(rng)
        if condition.is_empty:
            condition = UNIVERSAL
        rules.append(
            AuthRule(
                subject=rng.choice(["staff", "faculty"]),
                object=random_path_expr(rng, universe, condition),
                action="Select",
                scope=rng.choice([Scope.LOCAL, Scope.RECURSIVE]),
                mode=rng.choice([Mode.GRANT, Mode.DENY]),
            )
        )
    return rules


def sample_values(predicates) -> list[Decimal]:
    """Every finite bound of the given predicates, +/- 1, plus midpoints
    between consecutive distinct bounds."""
    bounds = set()
    for p in predicates:
        for iv in p.intervals:
            for v in (iv.lower, iv.upper):
                if v is not None:
                    bounds.add(v)
    values = set()
    ordered = sorted(bounds)
    for v in ordered:
        values.update({v, v - 1, v + 1})
    for lo, hi in zip(ordered, ordered[1:]):
        values.add((lo + hi) / 2)
    if not values:
        values.add(Decimal(0))
    return sorted(values)


def union_all(predicates) -> Predicate:
    out = EMPTY
    for p in predicates:
        out = union(out, p)
    return out
