"""Path expressions, absolute paths, and the global path table.

The expression language is the XPath subset the rules use: child
(``/``), descendant (``//``) and attribute (``@``) axes, with an
optional value condition on the final step.  Patterns are expanded
against the set of every root-to-node path of the protected document
(the AllPaths table).  AllPaths is prefix-closed, so it is stored as a
trie: a map from each parent's steps to its child paths.  A pattern runs
as a nondeterministic automaton over that trie, one state per matched
segment, and recursive closure walks the subtrees below its paths.
"""

from __future__ import annotations

import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Optional

from .predicates import UNIVERSAL, Predicate, parse_predicate

CHILD = "child"
DESCENDANT = "descendant"

_STEP_RE = re.compile(r"@?[^/\[\]@\s]+")


class PathSyntaxError(ValueError):
    """Raised for malformed path expressions or path list lines."""


@dataclass(frozen=True, order=True)
class AbsolutePath:
    """A fully resolved root-to-node path, e.g. ``/department/staff/name``.

    An attribute node is an ordinary final step spelled ``@name``.
    """

    steps: tuple[str, ...]

    def __post_init__(self):
        if not self.steps:
            raise PathSyntaxError("absolute path needs at least one step")
        for i, step in enumerate(self.steps):
            if not step or "/" in step:
                raise PathSyntaxError("bad step %r" % step)
            if step.startswith("@") and i != len(self.steps) - 1:
                raise PathSyntaxError("attribute step %r must be last" % step)

    @property
    def text(self) -> str:
        return "/" + "/".join(self.steps)

    def __str__(self) -> str:
        return self.text

    @classmethod
    def parse(cls, text: str) -> "AbsolutePath":
        text = text.strip()
        if not text.startswith("/") or "//" in text:
            raise PathSyntaxError("not a canonical absolute path: %r" % text)
        return cls(tuple(text[1:].split("/")))


@dataclass(frozen=True)
class PathExpr:
    """A parsed path pattern: axis-tagged segments plus optional condition."""

    segments: tuple[tuple[str, str], ...]
    condition: Predicate = UNIVERSAL

    def __post_init__(self):
        if not self.segments:
            raise PathSyntaxError("path expression needs at least one segment")

    @property
    def text(self) -> str:
        return "".join(
            ("//" if axis == DESCENDANT else "/") + step for axis, step in self.segments
        )

    def has_descendant_axis(self) -> bool:
        return any(axis == DESCENDANT for axis, _ in self.segments)


def parse_path_expr(text: str) -> PathExpr:
    """Parse a path pattern with optional trailing ``[...]`` condition."""
    if not text or not text.strip():
        raise PathSyntaxError("empty path expression")
    text = text.strip()
    condition = UNIVERSAL
    bracket = text.find("[")
    if bracket != -1:
        if not text.endswith("]"):
            raise PathSyntaxError(
                "malformed brackets at position %d in %r" % (bracket, text)
            )
        condition = parse_predicate(text[bracket:])
        text = text[:bracket]
    if not text.startswith("/"):
        raise PathSyntaxError("path expression must start with '/': %r" % text)
    segments = []
    pos = 0
    while pos < len(text):
        if text.startswith("//", pos):
            axis, pos = DESCENDANT, pos + 2
        else:
            axis, pos = CHILD, pos + 1
        m = _STEP_RE.match(text, pos)
        if not m:
            raise PathSyntaxError("empty or malformed step at position %d in %r" % (pos, text))
        step = m.group(0)
        pos = m.end()
        segments.append((axis, step))
    for axis, step in segments[:-1]:
        if step.startswith("@"):
            raise PathSyntaxError("attribute step %r must be last" % step)
    return PathExpr(tuple(segments), condition)


@dataclass(frozen=True)
class AllPaths:
    """Prefix-closed set of every absolute path in the protected document.

    ``children`` is the trie over ``paths``: parent steps (``()`` for the
    root) to the child paths one step below.  Each key is the parent
    path's own steps tuple, so the trie copies no steps.
    """

    paths: frozenset[AbsolutePath] = field(default_factory=frozenset)
    children: dict[tuple[str, ...], list[AbsolutePath]] = field(
        init=False, compare=False, repr=False
    )

    def __post_init__(self):
        own = {p.steps: p.steps for p in self.paths}
        own[()] = ()
        children: dict[tuple[str, ...], list[AbsolutePath]] = {}
        for p in self.paths:
            parent = own.get(p.steps[:-1])
            if parent is None:
                raise ValueError("paths are not prefix-closed: %s has no parent" % p)
            children.setdefault(parent, []).append(p)
        object.__setattr__(self, "children", children)

    @classmethod
    def from_paths(cls, paths: Iterable[AbsolutePath]) -> "AllPaths":
        closed = {p.steps: p for p in paths}
        for steps in list(closed):
            # stop at the first prefix present: its own walk closes it
            steps = steps[:-1]
            while steps and steps not in closed:
                closed[steps] = AbsolutePath(steps)
                steps = steps[:-1]
        return cls(frozenset(closed.values()))

    def __contains__(self, path: AbsolutePath) -> bool:
        return path in self.paths

    def __len__(self) -> int:
        return len(self.paths)

    def __iter__(self) -> Iterator[AbsolutePath]:
        return iter(self.paths)

    def sorted(self) -> list[AbsolutePath]:
        return sorted(self.paths, key=lambda p: p.text)


def build_allpaths_from_document(source) -> AllPaths:
    """Collect every distinct root-to-node path of an XML document.

    ``source`` is a file path, file object, or XML string.  Attribute
    nodes contribute ``@name`` leaf paths.
    """
    if isinstance(source, str) and source.lstrip().startswith("<"):
        root = ET.fromstring(source)
    else:
        root = ET.parse(source).getroot()
    found: set[AbsolutePath] = set()
    stack = [(root, (root.tag,))]
    while stack:
        elem, steps = stack.pop()
        found.add(AbsolutePath(steps))
        for name in elem.attrib:
            found.add(AbsolutePath(steps + ("@" + name,)))
        stack.extend((child, steps + (child.tag,)) for child in elem)
    return AllPaths.from_paths(found)


def load_allpaths_from_list(source) -> AllPaths:
    """Read a newline-delimited path list; ``#`` starts a comment line."""
    if hasattr(source, "read"):
        lines = source.read().splitlines()
    else:
        with open(source, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    paths = []
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            paths.append(AbsolutePath.parse(line))
        except PathSyntaxError as exc:
            raise PathSyntaxError("line %d: %s" % (lineno, exc)) from None
    return AllPaths.from_paths(paths)


def match_paths(expr: PathExpr, universe: AllPaths) -> set[AbsolutePath]:
    """Every path of the universe matched by the pattern.

    State ``i`` means the first ``i`` segments have matched.  Each trie
    node is visited at most once, with the states its parent passed on:
    a child segment only advances on its step name, a descendant segment
    also stays put.  A node carrying no live state prunes its subtree.
    """
    segments = expr.segments
    final = len(segments)
    children = universe.children
    out = set()
    stack = [(children.get((), ()), {0})]
    while stack:
        kids, states = stack.pop()
        for child in kids:
            name = child.steps[-1]
            nxt = set()
            for i in states:
                axis, want = segments[i]
                if axis == DESCENDANT:
                    nxt.add(i)
                if want == name:
                    nxt.add(i + 1)
            if final in nxt:
                out.add(child)
                nxt.discard(final)
            if nxt and (grandkids := children.get(child.steps)):
                stack.append((grandkids, nxt))
    return out


def recursive_closure(paths: set[AbsolutePath], universe: AllPaths) -> set[AbsolutePath]:
    """The given paths plus every universe path strictly below one of them."""
    children = universe.children
    out = set(paths)
    stack = [p.steps for p in paths]
    while stack:
        for child in children.get(stack.pop(), ()):
            if child not in out:
                out.add(child)
                stack.append(child.steps)
    return out
