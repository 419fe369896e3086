"""Seeded input generators for the three workloads.

Every generator takes a ``random.Random`` built from a string seed, so the
same ``--seed`` gives byte-identical inputs in every process.  The program
under test only ever sees the strings produced here: XML documents, rule
documents, CSV table text and query expressions.

Condition constants come from the paper's fixed-point domain with at most
two decimals: zip codes (integers), GPAs (0.00-4.00) and salaries
(30000.00-200000.00).  Literals below 1e-6, which trigger the known
``1E-7`` render/parse round-trip defect, are never produced here; finding
that defect is the job of the test generators, not of the benchmark.
Nothing generated is filtered afterwards: if an operation fails on these
inputs, the failure is counted.
"""

from __future__ import annotations

import hashlib
import random
from decimal import Decimal
from xml.sax.saxutils import escape

# Element names of the wide documents.  A small alphabet makes the same name
# recur at many depths, so ``//x`` and ``//x//y`` objects match widely.
ALPHABET = (
    "item", "name", "note", "data", "list", "ref",
    "node", "meta", "info", "part", "unit", "tag",
)
ROLES = ("staff", "faculty", "student", "auditor")
# A subject that never appears in any rule or table row.
NO_ROW_SUBJECT = "visitor"

# field -> (low, high, decimals)
DOMAINS = {
    "zip": (10000, 99999, 0),
    "gpa": (0, 4, 2),
    "salary": (30000, 200000, 2),
}


def rng_for(*parts) -> random.Random:
    return random.Random(":".join(str(p) for p in parts))


def fixed_point(rng: random.Random, field: str) -> Decimal:
    lo, hi, decimals = DOMAINS[field]
    scale = 10 ** decimals
    return Decimal(rng.randint(lo * scale, hi * scale)).scaleb(-decimals)


def digest(*texts) -> str:
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode("utf-8"))
        h.update(b"\0")
    return h.hexdigest()


# --------------------------------------------------------------------------
# Universes


def wide_tree(rng: random.Random, n_paths: int) -> list[tuple[str, ...]]:
    """Exactly ``n_paths`` distinct, prefix-closed paths below a ``root`` element.

    The tree grows breadth first: each node gets 1 to 5 children with
    distinct names from ALPHABET, so the depth profile is the same for every
    seed while the names differ.  About one element in twenty also carries a
    ``@key`` attribute (an attribute path).
    """
    root = ("root",)
    paths = [root]
    queue = [root]
    head = 0
    while len(paths) < n_paths:
        node = queue[head]
        head += 1
        for name in rng.sample(ALPHABET, rng.randint(1, 5)):
            if len(paths) == n_paths:
                break
            child = node + (name,)
            paths.append(child)
            queue.append(child)
            if len(paths) < n_paths and rng.random() < 0.05:
                paths.append(child + ("@key",))
    return paths


def tree_to_xml(paths: list[tuple[str, ...]]) -> str:
    """One element per element path; attribute paths become attributes."""
    kids: dict[tuple[str, ...], list[str]] = {}
    attrs: dict[tuple[str, ...], list[str]] = {}
    for p in paths[1:]:
        target = attrs if p[-1].startswith("@") else kids
        target.setdefault(p[:-1], []).append(p[-1])
    out = ['<?xml version="1.0" encoding="utf-8"?>']

    def emit(node: tuple[str, ...], depth: int) -> None:
        tag = node[-1]
        attr_text = "".join(' %s="v"' % a[1:] for a in attrs.get(node, ()))
        names = kids.get(node, [])
        pad = "  " * depth
        if not names:
            out.append("%s<%s%s>x</%s>" % (pad, tag, attr_text, tag))
            return
        out.append("%s<%s%s>" % (pad, tag, attr_text))
        for name in names:
            emit(node + (name,), depth + 1)
        out.append("%s</%s>" % (pad, tag))

    emit(paths[0], 0)
    return "\n".join(out) + "\n"


DEPT_GROUPS = ("gradstudent", "undergradstudent", "staff", "faculty")


def department_xml(rng: random.Random) -> str:
    """A department document of about 50 distinct paths: four groups with
    name, address, contact fields and a numeric field (gpa or salary)."""
    lines = ['<?xml version="1.0" encoding="utf-8"?>', "<department>",
             "  <deptname>Computer Science</deptname>"]
    for group in DEPT_GROUPS:
        numeric = "gpa" if group.endswith("student") else "salary"
        attr = ' id="%d"' % rng.randint(1, 999) if rng.random() < 0.5 else ""
        lines.append("  <%s%s>" % (group, attr))
        lines.append("    <name><firstname>A</firstname><lastname>B</lastname></name>")
        lines.append("    <address><city>C</city><state>NC</state><zip>%s</zip></address>"
                     % fixed_point(rng, "zip"))
        lines.append("    <phone>555</phone><email>e@x.edu</email><office>1</office>")
        lines.append("    <%s>%s</%s>" % (numeric, fixed_point(rng, numeric), numeric))
        lines.append("  </%s>" % group)
    lines.append("</department>")
    return "\n".join(lines) + "\n"


# --------------------------------------------------------------------------
# Rules


def condition(op: str, value: Decimal) -> str:
    return "[.%s%s]" % (op, value)


def rule_document(rules: list[tuple[str, str, str, str]]) -> str:
    """Render (subject, object, scope, mode) tuples as a ``<rules>`` document."""
    out = ['<?xml version="1.0" encoding="utf-8"?>', "<rules>"]
    for subject, obj, scope, mode in rules:
        out.append(
            "  <rule><subject>%s</subject><object>%s</object><action>Select</action>"
            "<type>%s</type><mode>%s</mode></rule>" % (subject, escape(obj), scope, mode)
        )
    out.append("</rules>")
    return "\n".join(out) + "\n"


def _random_condition(rng: random.Random) -> str:
    """Half the rules are unconditional; the rest compare one field."""
    if rng.random() < 0.5:
        return ""
    field = rng.choice(tuple(DOMAINS))
    return condition(rng.choice(("<", "<=", ">", ">=", "=")), fixed_point(rng, field))


def wide_rules(rng: random.Random, paths: list[tuple[str, ...]]) -> list[tuple[str, str, str, str]]:
    """A compile-wide document of 30 rules, 10 per object kind.

    Kinds: absolute ``/a/b/c`` paths, ``//x`` and ``//x//y``; 4 objects per
    kind, three granted to two subjects and one to one (objects repeat
    across subjects): 7 grants per kind.  Three denies per kind each reuse
    an earlier grant's subject and object and are placed after it, so there
    are about two grants per deny.  Scopes: 2 R of the 10 absolute rules,
    4 R of the 10 rules of each descendant kind.  The R descendant rules are
    the slow ones, so p95 falls among them and p50 among the L rules.
    """
    deep = [p for p in paths if len(p) >= 4 and not p[-1].startswith("@")]
    kinds = [
        (2, lambda: "/" + "/".join(rng.choice(deep))),
        (4, lambda: "//" + rng.choice(ALPHABET)),
        (4, lambda: "//%s//%s" % tuple(rng.sample(ALPHABET, 2))),
    ]
    grants, denies = [], []
    for n_recursive, make in kinds:
        pairs = [(subject, obj) for obj, k in zip([make() for _ in range(4)], (2, 2, 2, 1))
                 for subject in rng.sample(ROLES, k)]
        scopes = ["R"] * n_recursive + ["L"] * (10 - n_recursive)
        rng.shuffle(scopes)
        grants += [(s, o + _random_condition(rng), scopes.pop(), "Grant") for s, o in pairs]
        denies += [(s, o + _random_condition(rng), scopes.pop(), "Deny")
                   for s, o in rng.sample(pairs, 3)]
    rng.shuffle(grants)
    # sort key: grant i sits at i; each deny lands somewhere after its grant
    keyed = [(float(i), rule) for i, rule in enumerate(grants)]
    for deny in denies:
        g = next(i for i, r in enumerate(grants)
                 if r[0] == deny[0] and r[1].split("[")[0] == deny[1].split("[")[0])
        keyed.append((rng.uniform(g + 0.01, len(grants)), deny))
    keyed.sort(key=lambda kv: kv[0])
    return [rule for _, rule in keyed]


CHURN_OBJECTS = {
    "zip": ["//zip", "//address//zip"] + ["/department/%s/address/zip" % g for g in DEPT_GROUPS],
    "gpa": ["//gpa"] + ["/department/%s/gpa" % g for g in DEPT_GROUPS[:2]],
    "salary": ["//salary"] + ["/department/%s/salary" % g for g in DEPT_GROUPS[2:]],
}
# Each field draws its points from a pool, so grants and denies collide.
CHURN_POOL = 150


def churn_pools(rng: random.Random) -> dict[str, list[Decimal]]:
    return {f: sorted({fixed_point(rng, f) for _ in range(CHURN_POOL)}) for f in DOMAINS}


def churn_rules(rng: random.Random, pools, n_rules: int) -> list[tuple[str, str, str, str]]:
    """Point-heavy policy edits on the numeric fields.

    Grants are 95% ``[.=v]`` and 5% ``[.>=v]``/``[.<=v]``; denies (one
    rule in three) are ``[.=v]`` and punch holes in the granted ranges.
    Over eight 400-rule documents a stored predicate grows to 10-20
    intervals; more ranges would keep merging it back to a few.
    """
    rules = []
    for _ in range(n_rules):
        field = rng.choice(tuple(DOMAINS))
        obj = rng.choice(CHURN_OBJECTS[field])
        value = rng.choice(pools[field])
        subject = rng.choice(ROLES)
        if rng.random() < 1 / 3:
            rules.append((subject, obj + condition("=", value), "L", "Deny"))
        elif rng.random() < 0.95:
            rules.append((subject, obj + condition("=", value), "L", "Grant"))
        else:
            op = ">=" if rng.random() < 0.5 else "<="
            rules.append((subject, obj + condition(op, value), "L", "Grant"))
    return rules


BASE_POINTS = 14


def churn_base_csv(rng: random.Random, pools, path_texts) -> str:
    """The starting table of a churn epoch: a table that has already seen
    much churn.  Each subject's row on a numeric field holds BASE_POINTS
    granted points, about what eight 400-rule documents leave, so check
    cost stays level through the epoch instead of growing from nothing.
    Half of the other (subject, path) keys get a row as in ``table_csv``.
    """
    lines = ["Subject,Object,Predicate,Action"]
    for subject in ROLES:
        for path in sorted(path_texts):
            field = path.rsplit("/", 1)[-1]
            if field in pools:
                points = sorted(rng.sample(pools[field], BASE_POINTS))
                pred = " or ".join(".= %s" % v for v in points)
            elif rng.random() < 0.5:
                pred = _random_predicate_text(rng)
            else:
                continue
            lines.append("%s,%s,%s,Select" % (subject, path, pred))
    return "\n".join(lines) + "\n"


def churn_queries(rng: random.Random, pools, n: int) -> list[tuple[str, str]]:
    """(subject, query) pairs for ``xmlauthz check`` after a compile."""
    out = []
    for _ in range(n):
        roll = rng.random()
        subject = NO_ROW_SUBJECT if roll < 0.1 else rng.choice(ROLES)
        field = rng.choice(tuple(DOMAINS))
        kind = rng.random()
        if kind < 0.1:
            query = "//nosuch"
        elif kind < 0.5:
            query = rng.choice(CHURN_OBJECTS[field])
        else:
            op = rng.choice(("<", "<=", ">", ">=", "="))
            query = rng.choice(CHURN_OBJECTS[field]) + condition(op, rng.choice(pools[field]))
        out.append((subject, query))
    return out


# --------------------------------------------------------------------------
# Tables (decide-queries, and the starting table of policy-churn) and queries


def _random_predicate_text(rng: random.Random) -> str:
    """Canonical stored-predicate text: '-' or 1-3 disjoint sorted parts."""
    if rng.random() < 0.4:
        return "-"
    field = rng.choice(tuple(DOMAINS))
    points = sorted({fixed_point(rng, field) for _ in range(6)})
    k = rng.randint(1, 3)
    if len(points) < 2 * k:
        return ".>= %s" % points[0]
    chosen = sorted(rng.sample(points, 2 * k))
    parts = []
    for i in range(k):
        lo, hi = chosen[2 * i], chosen[2 * i + 1]
        if i == 0 and rng.random() < 0.3:
            parts.append(".<= %s" % hi)
        elif i == k - 1 and rng.random() < 0.3:
            parts.append(".> %s" % lo)
        else:
            parts.append("%s <= . < %s" % (lo, hi))
    return " or ".join(parts)


def table_csv(rng: random.Random, paths: list[tuple[str, ...]], n_rows: int) -> str:
    """CSV text of ``n_rows`` grant rows over distinct (subject, path) keys."""
    keys = set()
    texts = ["/" + "/".join(p) for p in paths]
    while len(keys) < n_rows:
        keys.add((rng.choice(ROLES), rng.choice(texts)))
    lines = ["Subject,Object,Predicate,Action"]
    for subject, path in sorted(keys):
        lines.append("%s,%s,%s,Select" % (subject, path, _random_predicate_text(rng)))
    return "\n".join(lines) + "\n"


def decide_query(rng: random.Random, paths: list[tuple[str, ...]]) -> tuple[str, str, str]:
    """(kind, subject, query): 25% child-only, 55% ``//x``, 20% conditioned
    (half of them ``//x``); one query in ten comes from a subject with no rows.

    Child-only queries cost less than ``//x`` ones, so a 50/50 mix would put
    the median on the step between the two; with 65% ``//x`` it sits inside.
    """
    subject = NO_ROW_SUBJECT if rng.random() < 0.1 else rng.choice(ROLES)
    roll = rng.random()
    if roll < 0.25:
        return "child", subject, "/" + "/".join(rng.choice(paths))
    if roll < 0.8:
        return "descendant", subject, "//" + rng.choice(ALPHABET)
    op = rng.choice(("<", "<=", ">", ">=", "="))
    field = rng.choice(tuple(DOMAINS))
    base = ("//" + rng.choice(ALPHABET) if rng.random() < 0.5
            else "/" + "/".join(p for p in rng.choice(paths) if not p.startswith("@")))
    return "conditioned", subject, base + condition(op, fixed_point(rng, field))
