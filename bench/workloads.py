"""The three workloads: inputs, set-up, one unit of timed work, and checks.

Each workload is a closed loop with one client in one thread: every call
into the program waits for the previous one.  Program calls go through the
module attributes (``rules.compile_documents``, ``cli.main`` ...) so that a
traced run sees them; everything between them (input generation, oracle
checks, file writes of generated inputs) is untimed and untraced.
"""

from __future__ import annotations

import contextlib
import io
import os
import time

import gen
import oracle

TIMER = time.thread_time


class Record:
    """What one pass measured and checked."""

    def __init__(self):
        self.setup_s = 0.0     # program time of the pass's set-up
        self.busy = 0.0        # all timed program time, for the run length
        self.rate_time = 0.0   # denominator of ops_per_s
        self.ops = 0           # numerator of ops_per_s
        self.latencies = []    # seconds, one per latency sample
        self.attempted = 0
        self.failed = 0
        self.matched = []      # oracle: paths per rule, or per query
        self.doc_stats = []    # (share R scope, share repeated objects) per document
        self.final_csv = None  # text of the last table, for row statistics

    def check(self, ok: bool, weight: int = 1) -> None:
        self.attempted += weight
        if not ok:
            self.failed += weight


class Program:
    """Marks the calls into the program, so a tracer records only them."""

    def __init__(self, tracer=None):
        self.tracer = tracer

    def __enter__(self):
        if self.tracer is not None:
            self.tracer.active = True

    def __exit__(self, *exc):
        if self.tracer is not None:
            self.tracer.active = False


def object_stats(rules) -> tuple[float, float]:
    """(share of R-scope rules, share of rules whose object an earlier rule
    of the same document already named)."""
    seen, repeated = set(), 0
    for _, obj, _, _ in rules:
        pattern = obj.split("[")[0]
        repeated += pattern in seen
        seen.add(pattern)
    return sum(r[2] == "R" for r in rules) / len(rules), repeated / len(rules)


class Workload:
    name = ""
    why = ""
    setup_reps = 20     # set-up samples in a timed run; the median is reported
    fixed_units = 1     # units of work in a traced pass
    latency_name = ""   # what p50_ms / p95_ms measure here
    rate_name = ""      # what ops_per_s counts here

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir

    def rng(self, *parts):
        return gen.rng_for(self.name, self.seed, *parts)

    def digest(self) -> str:
        """Hash of the generated inputs of the first ``fixed_units`` units."""
        raise NotImplementedError

    def setup(self, program: Program):
        raise NotImplementedError

    def unit(self, state, i: int, rec: Record, program: Program) -> None:
        raise NotImplementedError

    def properties(self, rec: Record) -> dict:
        raise NotImplementedError

    def final_table(self, rec: Record) -> str:
        """CSV text of the table the pass ended with."""
        return rec.final_csv


# --------------------------------------------------------------------------


class CompileWide(Workload):
    name = "compile-wide"
    why = ("3000-path document, 30-rule documents of /a/b/c, //x and //x//y "
           "objects in L and R scope: paths matching and closure do nearly all "
           "the work")
    latency_name = "time to apply one rule"
    rate_name = ("compile_rules_per_s: rules per second through parse_rule_document"
                 " + compile_documents")
    fixed_units = 2
    n_paths = 3000

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tree = gen.wide_tree(self.rng("universe"), self.n_paths)
        self.xml = gen.tree_to_xml(self.tree)
        self.universe = oracle.Universe(oracle.document_paths(self.xml))

    def doc(self, i):
        """Generated afresh on each call, so memory does not grow with the
        number of documents a run gets through."""
        rules = gen.wide_rules(self.rng("doc", i), self.tree)
        return rules, gen.rule_document(rules)

    def digest(self):
        return gen.digest(self.xml, *(self.doc(i)[1] for i in range(self.fixed_units)))

    def setup(self, program):
        from xmlauthz import paths
        with program:
            return paths.build_allpaths_from_document(self.xml)

    def unit(self, universe, i, rec, program):
        from xmlauthz import rules as R
        from xmlauthz.store import XatStore
        rules, text = self.doc(i)
        with program:
            start = TIMER()
            doc = R.parse_rule_document(text)
            xat = XatStore()
            elapsed = TIMER() - start
            for rule in doc.rules:
                single = R.RuleDocument((rule,))
                t = TIMER()
                R.compile_documents([single], universe, xat)
                dt = TIMER() - t
                elapsed += dt
                rec.latencies.append(dt)
        rec.busy += elapsed
        rec.rate_time += elapsed
        rec.ops += len(rules)
        rec.final_csv = xat.to_csv_text()
        rec.doc_stats.append(object_stats(rules))
        expected = oracle.Universe(self.universe.paths)  # pattern cache per document
        policy = oracle.Policy(expected)
        for rule in rules:
            policy.apply(*rule)
            rec.matched.append(len(expected.expand(rule[1].split("[")[0], rule[2])))
        rec.check(len(doc.rules) == len(rules)
                  and oracle.table_mismatches(policy, rec.final_csv) == 0, len(rules))

    def properties(self, rec):
        return {
            "universe_paths": len(self.universe.paths),
            "rules_per_document": rec.ops // len(rec.doc_stats),
            **doc_properties(rec),
        }


# --------------------------------------------------------------------------


class PolicyChurn(Workload):
    name = "policy-churn"
    why = ("in-process xmlauthz compile of 400-rule point-heavy documents onto "
           "one CSV table of ~15-interval rows, then check calls: predicate "
           "algebra, CSV codec and cli own a large share")
    latency_name = "cli_check: one in-process `xmlauthz check` call"
    rate_name = "churn_rules_per_s: rules per second over all `xmlauthz compile` calls"
    setup_reps = 40
    docs_per_epoch = 8
    rules_per_doc = 400
    checks_per_doc = 8

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.xml = gen.department_xml(self.rng("universe"))
        self.universe = oracle.Universe(oracle.document_paths(self.xml))
        self.pools = gen.churn_pools(self.rng("pools"))
        self.base_csv = gen.churn_base_csv(self.rng("base"), self.pools, self.universe.paths)
        self.doc_path = os.path.join(workdir, "department.xml")
        self.base_path = os.path.join(workdir, "base.csv")
        self.xat_path = os.path.join(workdir, "xat.csv")
        for path, text in ((self.doc_path, self.xml), (self.base_path, self.base_csv)):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)

    def epoch(self, e):
        """Generated afresh on each call, like CompileWide.doc."""
        for d in range(self.docs_per_epoch):
            rules = gen.churn_rules(self.rng("epoch", e, "doc", d), self.pools,
                                    self.rules_per_doc)
            checks = gen.churn_queries(self.rng("epoch", e, "checks", d), self.pools,
                                       self.checks_per_doc)
            yield rules, gen.rule_document(rules), checks

    def digest(self):
        parts = [self.xml, self.base_csv]
        for rules, text, checks in self.epoch(0):
            parts += [text] + ["%s %s" % c for c in checks]
        return gen.digest(*parts)

    def setup(self, program):
        from xmlauthz import paths
        from xmlauthz.store import XatStore
        with program:
            universe = paths.build_allpaths_from_document(self.doc_path)
            XatStore.import_csv(self.base_path)
        return universe

    def _cli(self, argv, program):
        from xmlauthz import cli
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), program:
            start = TIMER()
            code = cli.main(argv)
            elapsed = TIMER() - start
        return code, out.getvalue(), elapsed

    def unit(self, state, e, rec, program):
        with open(self.xat_path, "w", encoding="utf-8") as fh:
            fh.write(self.base_csv)
        policy = oracle.Policy(self.universe)
        policy.load_base(self.base_csv)
        common = ["--paths-doc", self.doc_path, "--xat", self.xat_path]
        for d, (rules, text, checks) in enumerate(self.epoch(e)):
            rule_path = os.path.join(self.workdir, "rules-%d.xml" % d)
            with open(rule_path, "w", encoding="utf-8") as fh:
                fh.write(text)
            code, _, elapsed = self._cli(["compile"] + common + ["--rules", rule_path], program)
            rec.busy += elapsed
            rec.rate_time += elapsed
            rec.ops += len(rules)
            rec.doc_stats.append(object_stats(rules))
            for rule in rules:
                policy.apply(*rule)
                rec.matched.append(len(self.universe.expand(rule[1].split("[")[0], rule[2])))
            with open(self.xat_path, encoding="utf-8") as fh:
                rec.final_csv = fh.read()
            rec.check(code == 0 and oracle.table_mismatches(policy, rec.final_csv) == 0)
            for subject, query in checks:
                argv = ["check"] + common + ["--subject", subject, "--query", query]
                code, out, elapsed = self._cli(argv, program)
                rec.busy += elapsed
                rec.latencies.append(elapsed)
                rec.check(self._check_ok(policy, subject, query, code, out))

    def _check_ok(self, policy, subject, query, code, out):
        grants, denied = oracle.parse_check_output(out)
        matched = self.universe.expand(oracle.split_object(query)[0])
        expected = 4 if not matched else (0 if grants else 3)
        return code == expected and oracle.decision_ok(
            self.universe, query, grants, denied, lambda p: policy.history(subject, p))

    def properties(self, rec):
        return {
            "universe_paths": len(self.universe.paths),
            "rules_per_document": self.rules_per_doc,
            "base_rows": len(oracle.read_csv(self.base_csv)),
            **doc_properties(rec),
            "intervals_per_row": intervals_per_row(rec.final_csv),
        }


# --------------------------------------------------------------------------


class DecideQueries(Workload):
    name = "decide-queries"
    why = ("2000-path universe and a 1600-row table loaded from CSV, then child, "
           "//x and conditioned gate.decide queries: the read path, no compile")
    latency_name = "decide: one gate.decide call"
    rate_name = "decide_per_s: gate.decide queries per second"
    fixed_units = 500
    n_paths = 2000
    n_rows = 1600

    def __init__(self, seed, workdir):
        super().__init__(seed, workdir)
        self.tree = gen.wide_tree(self.rng("universe"), self.n_paths)
        self.xml = gen.tree_to_xml(self.tree)
        self.csv = gen.table_csv(self.rng("table"), self.tree, self.n_rows)
        self.universe = oracle.Universe(oracle.document_paths(self.xml))
        self.rows = {(s, p): oracle.PredText(pred) for s, p, pred, _ in oracle.read_csv(self.csv)}
        self._query_rng = self.rng("queries")
        self._queries = []

    def query(self, i):
        while len(self._queries) <= i:
            self._queries.append(gen.decide_query(self._query_rng, self.tree))
        return self._queries[i]

    def digest(self):
        return gen.digest(self.xml, self.csv,
                          *("%s %s %s" % self.query(i) for i in range(self.fixed_units)))

    def setup(self, program):
        from xmlauthz import paths
        from xmlauthz.store import XatStore
        with program:
            return paths.build_allpaths_from_document(self.xml), XatStore.from_csv_text(self.csv)

    def unit(self, state, i, rec, program):
        from xmlauthz import gate, predicates
        from xmlauthz.paths import parse_path_expr
        universe, xat = state
        _, subject, text = self.query(i)
        query = parse_path_expr(text)
        with program:
            start = TIMER()
            decision = gate.decide(subject, "select", query, universe, xat)
            elapsed = TIMER() - start
        rec.busy += elapsed
        rec.rate_time += elapsed
        rec.ops += 1
        rec.latencies.append(elapsed)
        grants = {p.text: predicates.render_predicate(eff) for p, eff in decision.grants}
        denied = {p.text for p in decision.denied_paths}
        rec.matched.append(len(grants) + len(denied))
        rec.check(oracle.decision_ok(self.universe, text, grants, denied,
                                     lambda p: self.rows.get((subject, p))))

    def properties(self, rec):
        queries = self._queries[:rec.ops]
        kinds = [q[0] for q in queries]
        return {
            "universe_paths": len(self.universe.paths),
            "table_rows": len(self.rows),
            "queries": len(queries),
            "query_mix": {k: kinds.count(k) / len(queries) for k in sorted(set(kinds))},
            "share_no_row_subject": sum(q[1] == gen.NO_ROW_SUBJECT
                                        for q in queries) / len(queries),
            "mean_matched_paths_per_query": sum(rec.matched) / max(1, len(rec.matched)),
            "intervals_per_row": intervals_per_row(self.csv),
        }

    def final_table(self, rec):
        return self.csv


def doc_properties(rec: Record) -> dict:
    """Input properties of the rule documents a compile pass went through."""
    n = len(rec.doc_stats)
    return {
        "documents": n,
        "share_scope_R": sum(r for r, _ in rec.doc_stats) / n,
        "share_repeated_objects": sum(rep for _, rep in rec.doc_stats) / n,
        "mean_matched_paths_per_rule": sum(rec.matched) / len(rec.matched),
        "final_rows": len(oracle.read_csv(rec.final_csv)),
    }


def intervals_per_row(csv_text: str) -> float:
    rows = oracle.read_csv(csv_text)
    return sum(len(oracle.PredText(r[2]).disjuncts) for r in rows) / max(1, len(rows))


WORKLOADS = {w.name: w for w in (CompileWide, PolicyChurn, DecideQueries)}
