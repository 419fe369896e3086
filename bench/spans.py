"""Spans around the calls into each xmlauthz module, recorded from outside.

``Tracer.install()`` replaces the public functions at the module attributes
the program calls through (``xmlauthz.rules.match_paths``,
``xmlauthz.gate.intersect``, ``XatStore.lookup`` ...) with wrappers, and
``uninstall()`` puts the originals back.  Nothing in the package changes.

Two kinds of wrapper:

* span: records (id, name, start, end, parent) in memory; the layer is the
  part of the name before the first dot;
* hot: per-row calls (store lookups, predicate algebra, CSV codec) only add
  a count and a time to their parent span, so tracing them stays cheap.
  A hot call must not reach another wrapped function, or its time would
  be counted twice.

A layer's self time is the time of its spans minus the time of the spans
and hot calls nested in them, plus the time of its hot calls.
"""

from __future__ import annotations

import json
import time
from collections import Counter, defaultdict

LAYERS = ("paths", "predicates", "rules", "store", "gate", "cli")


class Span:
    __slots__ = ("id", "name", "parent", "start", "end", "hot_time", "hot_calls")

    def __init__(self, sid, name, parent, start):
        self.id = sid
        self.name = name
        self.parent = parent
        self.start = start
        self.end = None
        self.hot_time = defaultdict(float)
        self.hot_calls = Counter()


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.counts = Counter()   # observations made by the wrappers
        self.last = {}            # last observed value, e.g. universe size
        self.active = False
        self._saved = []
        self._root = Span(0, "bench.root", None, 0.0)

    # -- recording ---------------------------------------------------------

    def _span_wrapper(self, name, fn, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            parent = tracer.stack[-1].id if tracer.stack else None
            span = Span(len(tracer.spans) + 1, name, parent, time.perf_counter())
            tracer.spans.append(span)
            tracer.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer.stack.pop()
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _hot_wrapper(self, name, fn, observe):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            start = time.perf_counter()
            result = fn(*args, **kwargs)
            parent = tracer.stack[-1] if tracer.stack else tracer._root
            parent.hot_time[name] += time.perf_counter() - start
            parent.hot_calls[name] += 1
            if observe is not None:
                observe(tracer, args, result)
            return result

        return wrapper

    def _patch(self, owner, attr, name, hot=False, observe=None, kind=None):
        original = owner.__dict__[attr]
        fn = original.__func__ if kind is classmethod else original
        make = self._hot_wrapper if hot else self._span_wrapper
        wrapped = make(name, fn, observe)
        setattr(owner, attr, classmethod(wrapped) if kind is classmethod else wrapped)
        self._saved.append((owner, attr, original))

    def install(self) -> None:
        import xmlauthz.cli as cli
        import xmlauthz.gate as gate
        import xmlauthz.paths as paths
        import xmlauthz.rules as rules
        import xmlauthz.store as store

        def universe(t, args, result):
            t.last["universe_size"] = len(result)

        def matched(t, args, result):
            t.counts["match.examined"] += len(args[1])
            t.counts["match.matched"] += len(result)

        def closure(t, args, result):
            t.counts["closure.out"] += len(result)

        def expanded(t, args, result):
            t.counts["expand.paths"] += len(result)

        def applied(t, args, summary):
            t.counts["rows.inserted"] += summary.inserted
            t.counts["rows.updated"] += summary.updated
            t.counts["rows.deleted"] += summary.deleted

        def conflict(t, args, result):
            t.counts["conflict." + result.kind.value] += 1

        def decided(t, args, decision):
            t.counts["decide.granted"] += len(decision.grants)
            t.counts["decide.matched"] += len(decision.grants) + len(decision.denied_paths)

        def csv_in(t, args, result):
            t.counts["csv.bytes"] += len(args[-1].encode("utf-8"))

        def csv_out(t, args, result):
            t.counts["csv.bytes"] += len(result.encode("utf-8"))

        for mod in (paths, cli):
            self._patch(mod, "build_allpaths_from_document", "paths.build", observe=universe)
        for mod in (rules, gate):
            self._patch(mod, "match_paths", "paths.match", observe=matched)
        self._patch(rules, "recursive_closure", "paths.closure", observe=closure)
        for mod in (rules, cli):
            self._patch(mod, "parse_path_expr", "paths.parse_expr")
        self._patch(paths, "parse_predicate", "predicates.parse_condition", hot=True)
        for mod in (rules, cli):
            self._patch(mod, "parse_rule_document", "rules.parse")
            self._patch(mod, "apply_rule", "rules.apply", observe=applied)
        self._patch(rules, "compile_documents", "rules.compile")
        self._patch(rules, "expand_object", "rules.expand", observe=expanded)
        self._patch(rules, "union", "predicates.union", hot=True)
        self._patch(rules, "classify_conflict", "predicates.classify", hot=True, observe=conflict)
        self._patch(gate, "intersect", "predicates.intersect", hot=True)
        self._patch(store, "parse_predicate_text", "predicates.parse", hot=True)
        for mod in (store, gate):
            self._patch(mod, "render_predicate", "predicates.render", hot=True)
        for mod in (gate, cli):
            self._patch(mod, "decide", "gate.decide", observe=decided)
        self._patch(cli, "explain", "gate.explain")
        xat = store.XatStore
        for op in ("lookup", "upsert", "delete"):
            self._patch(xat, op, "store." + op, hot=True)
        self._patch(xat, "from_csv_text", "store.csv_load", observe=csv_in, kind=classmethod)
        self._patch(xat, "import_csv", "store.import_csv", kind=classmethod)
        self._patch(xat, "to_csv_text", "store.csv_save", observe=csv_out)
        self._patch(cli, "main", "cli.main")

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    # -- reporting -----------------------------------------------------------

    def _all_spans(self):
        return [self._root] + self.spans

    def span_time(self, name: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.name == name)

    def span_calls(self, name: str) -> int:
        return sum(1 for s in self.spans if s.name == name)

    def hot_time(self, name: str) -> float:
        return sum(s.hot_time[name] for s in self._all_spans())

    def hot_calls(self, name: str) -> int:
        return sum(s.hot_calls[name] for s in self._all_spans())

    def self_times(self) -> dict[str, float]:
        """Self time per span name; hot calls count under their own name."""
        child = defaultdict(float)
        for s in self.spans:
            child[s.parent] += s.end - s.start
        out = defaultdict(float)
        for s in self._all_spans():
            hot = sum(s.hot_time.values())
            if s is not self._root:
                out[s.name] += (s.end - s.start) - child[s.id] - hot
            for name, t in s.hot_time.items():
                out[name] += t
        return out

    def layer_self_times(self) -> dict[str, float]:
        out = dict.fromkeys(LAYERS, 0.0)
        for name, t in self.self_times().items():
            out[_layer(name)] += t
        return out

    def write_jsonl(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for s in self._all_spans():
                fh.write(json.dumps({
                    "id": s.id, "name": s.name, "parent": s.parent,
                    "start": s.start, "end": s.end,
                    "hot": {k: [s.hot_calls[k], s.hot_time[k]] for k in s.hot_calls},
                }) + "\n")
