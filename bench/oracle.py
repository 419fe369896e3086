"""Independent oracle for the benchmark's outputs.

It shares no code with ``xmlauthz`` beyond reading what the program writes:

* path matching is a regular expression over path text, and R scope adds
  every path whose text extends a matched one by further steps;
* conditions and stored predicates are evaluated from their text at sample
  values, with ``Decimal`` comparisons and no interval-set algebra;
* a grant decision is the mode of the last rule whose object set holds the
  path and whose condition holds at the value (default deny).

Every breakpoint of every condition and predicate involved is a fixed-point
number with at most two decimals, so sampling each bound ``b`` and
``b +/- 0.005`` visits every piece of the piecewise-constant verdict.
"""

from __future__ import annotations

import bisect
import csv
import io
import re
import xml.etree.ElementTree as ET
from decimal import Decimal

HALF_STEP = Decimal("0.005")
_NUM = r"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?"
# The generators write no ``!=`` condition, and stored predicates never
# contain one, so the oracle does not read it.
_COND = re.compile(r"^\[\s*\.\s*(<=|>=|<|>|=)\s*(" + _NUM + r")\s*\]$")
_SINGLE = re.compile(r"^\.\s*(<=|>=|<|>|=)\s*(" + _NUM + r")$")
_RANGE = re.compile(r"^(" + _NUM + r")\s*(<=|<)\s*\.\s*(<=|<)\s*(" + _NUM + r")$")
_STEP = re.compile(r"(//|/)([^/\[]+)")

class OracleError(ValueError):
    """The program printed or wrote text the oracle cannot read."""


# --------------------------------------------------------------------------
# Conditions and predicate text


class Cond:
    """A conjunction of comparisons ``(op, value)``; empty means always."""

    __slots__ = ("parts",)

    def __init__(self, parts=()):
        self.parts = tuple(parts)

    def bounds(self):
        return [v for _, v in self.parts]

    def span(self, xs: list[Decimal]) -> tuple[int, int]:
        """The index range of the sorted samples ``xs`` where this holds."""
        lo, hi = 0, len(xs)
        for op, v in self.parts:
            if op in (">", ">=", "="):
                lo = max(lo, (bisect.bisect_right if op == ">" else bisect.bisect_left)(xs, v))
            if op in ("<", "<=", "="):
                hi = min(hi, (bisect.bisect_left if op == "<" else bisect.bisect_right)(xs, v))
        return lo, max(lo, hi)

    def mask(self, xs: list[Decimal]) -> list[bool]:
        lo, hi = self.span(xs)
        return [lo <= i < hi for i in range(len(xs))]


def split_object(text: str) -> tuple[str, Cond]:
    """``//a/b[.<3]`` -> (``//a/b``, condition)."""
    bracket = text.find("[")
    if bracket == -1:
        return text, Cond()
    m = _COND.match(text[bracket:])
    if not m:
        raise OracleError("bad condition in %r" % text)
    return text[:bracket], Cond([(m.group(1), Decimal(m.group(2)))])


class PredText:
    """A stored predicate read from its text: a disjunction of conditions."""

    __slots__ = ("disjuncts",)

    def __init__(self, text: str):
        text = text.strip()
        if text == "-":
            self.disjuncts = [Cond()]
            return
        self.disjuncts = []
        for part in text.split(" or "):
            part = part.strip()
            m = _SINGLE.match(part)
            if m:
                self.disjuncts.append(Cond([(m.group(1), Decimal(m.group(2)))]))
                continue
            m = _RANGE.match(part)
            if not m:
                raise OracleError("unreadable predicate %r" % text)
            lo, lo_op, hi_op, hi = m.groups()
            self.disjuncts.append(Cond([
                (">" if lo_op == "<" else ">=", Decimal(lo)),
                (hi_op, Decimal(hi)),
            ]))

    def bounds(self):
        return [v for c in self.disjuncts for v in c.bounds()]

    def mask(self, xs: list[Decimal]) -> list[bool]:
        out = [False] * len(xs)
        for c in self.disjuncts:
            lo, hi = c.span(xs)
            out[lo:hi] = [True] * (hi - lo)
        return out


def samples(bounds) -> list[Decimal]:
    out = {Decimal(0)}
    for b in bounds:
        out.update((b, b - HALF_STEP, b + HALF_STEP))
    return sorted(out)


# --------------------------------------------------------------------------
# Path matching


def pattern_regex(pattern: str) -> re.Pattern:
    """``/`` is one step; ``//x`` is any number of steps ending in ``x``."""
    pos, out = 0, ["^"]
    for m in _STEP.finditer(pattern):
        if m.start() != pos:
            raise OracleError("bad pattern %r" % pattern)
        pos = m.end()
        if m.group(1) == "//":
            out.append("(?:/[^/]+)*")
        out.append("/" + re.escape(m.group(2)))
    if pos != len(pattern) or pos == 0:
        raise OracleError("bad pattern %r" % pattern)
    out.append("$")
    return re.compile("".join(out))


def document_paths(xml_text: str) -> set[str]:
    """Every root-to-node path text of a document, attributes as ``@name``."""
    out = set()
    stack = [(ET.fromstring(xml_text), "")]
    while stack:
        elem, prefix = stack.pop()
        here = prefix + "/" + elem.tag
        out.add(here)
        out.update(here + "/@" + a for a in elem.attrib)
        stack.extend((child, here) for child in elem)
    return out


class Universe:
    """Path texts of the protected document, with cached pattern results."""

    def __init__(self, path_texts):
        self.paths = sorted(path_texts)
        self.children: dict[str, list[str]] = {}
        for p in self.paths:
            self.children.setdefault(p[:p.rfind("/")], []).append(p)
        self._cache: dict[tuple[str, str], frozenset[str]] = {}

    def expand(self, pattern: str, scope: str = "L") -> frozenset[str]:
        key = (pattern, scope)
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        rx = pattern_regex(pattern)
        matched = {p for p in self.paths if rx.match(p)}
        if scope == "R":  # add every path below a matched one
            stack = list(matched)
            while stack:
                below = self.children.get(stack.pop(), ())
                matched.update(below)
                stack.extend(below)
        result = self._cache[key] = frozenset(matched)
        return result


# --------------------------------------------------------------------------
# Last-matching-rule verdicts


class History:
    """The ordered rules that touch one (subject, path), plus an optional
    starting predicate that holds where no rule matches."""

    def __init__(self, base: PredText | None = None):
        self.base = base
        self.rules: list[tuple[bool, Cond]] = []

    def add(self, grant: bool, cond: Cond) -> None:
        self.rules.append((grant, cond))

    def bounds(self):
        out = [v for _, c in self.rules for v in c.bounds()]
        if self.base is not None:
            out += self.base.bounds()
        return out

    def mask(self, xs: list[Decimal]) -> list[bool]:
        """The verdict at each sample: rules are replayed in order, so each
        sample ends with the mode of the last rule whose condition holds."""
        out = self.base.mask(xs) if self.base is not None else [False] * len(xs)
        for grant, cond in self.rules:
            lo, hi = cond.span(xs)
            out[lo:hi] = [grant] * (hi - lo)
        return out


class Policy:
    """The oracle's model of the table: a History per (subject, path)."""

    def __init__(self, universe: Universe):
        self.universe = universe
        self.keys: dict[tuple[str, str], History] = {}

    def load_base(self, csv_text: str) -> None:
        for subject, path, pred, _ in read_csv(csv_text):
            self.keys[(subject, path)] = History(PredText(pred))

    def apply(self, subject: str, obj: str, scope: str, mode: str) -> None:
        pattern, cond = split_object(obj)
        grant = mode == "Grant"
        for path in self.universe.expand(pattern, scope):
            hist = self.keys.get((subject, path))
            if hist is None:
                hist = self.keys[(subject, path)] = History()
            hist.add(grant, cond)

    def history(self, subject: str, path: str) -> History | None:
        return self.keys.get((subject, path))


def read_csv(text: str):
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["Subject", "Object", "Predicate", "Action"]:
        raise OracleError("bad table header")
    out = []
    for row in rows[1:]:
        if len(row) != 4 or row[3] != "Select":
            raise OracleError("bad table row %r" % row)
        out.append(tuple(row))
    return out


def table_mismatches(policy: Policy, csv_text: str) -> int:
    """Keys where the written table disagrees with the last-matching-rule
    verdict at some sample value; a row that grants nothing counts too."""
    rows = {}
    for subject, path, pred, _ in read_csv(csv_text):
        if (subject, path) in rows:
            return 1 + len(policy.keys)
        rows[(subject, path)] = PredText(pred)
    bad = 0
    for key in set(rows) | set(policy.keys):
        hist = policy.keys.get(key)
        row = rows.get(key)
        xs = samples((hist.bounds() if hist else []) + (row.bounds() if row else []))
        want = hist.mask(xs) if hist else [False] * len(xs)
        got = row.mask(xs) if row else [False] * len(xs)
        if want != got or (row is not None and not any(got)):
            bad += 1
    return bad


def decision_ok(universe: Universe, query: str, grants: dict[str, str],
                denied: set[str], row_for) -> bool:
    """Check one decision.

    ``grants`` maps each granted path to the effective predicate text the
    program produced; ``row_for(path)`` returns the subject's row as a
    ``PredText`` or ``History`` (both have ``mask`` and ``bounds``), or None
    when there is no row.
    """
    pattern, cond = split_object(query)
    matched = universe.expand(pattern)
    if set(grants) | denied != matched or set(grants) & denied:
        return False
    for path in matched:
        row = row_for(path)
        effective = PredText(grants[path]) if path in grants else None
        bounds = cond.bounds() + (row.bounds() if row else [])
        if effective is not None:
            bounds += effective.bounds()
        xs = samples(bounds)
        want = [False] * len(xs)
        if row is not None:
            want = [c and r for c, r in zip(cond.mask(xs), row.mask(xs))]
        if effective is None:
            if any(want):
                return False
        elif effective.mask(xs) != want or not any(want):
            return False
    return True


_GRANT_LINE = re.compile(r"^  GRANT (\S+)  predicate (.+)$")
_DENY_LINE = re.compile(r"^  DENY (\S+)  ")


def parse_check_output(text: str) -> tuple[dict[str, str], set[str]]:
    grants, denied = {}, set()
    for line in text.splitlines():
        m = _GRANT_LINE.match(line)
        if m:
            grants[m.group(1)] = m.group(2)
            continue
        m = _DENY_LINE.match(line)
        if m:
            denied.add(m.group(1))
    return grants, denied
