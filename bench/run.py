"""xmlauthz benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 bench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout; the program is imported from
``src/``.  With ``--trace 0`` the run measures the end-to-end metrics for
``--seconds`` seconds of program time.  With ``--trace 1`` it runs a fixed,
seed-determined amount of work four times (untraced and traced, twice),
reports the per-layer metrics of the first traced pass and the tracing
overhead, checks that both traced passes counted the same, and writes the
spans to ``.bench-out/``.  Every output is checked against the independent
oracle in ``oracle.py``; the run exits 1 if any check fails.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "fixtures")

sys.path.insert(0, HERE)

import workloads as W  # noqa: E402
from spans import LAYERS, Tracer  # noqa: E402

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "p50_ms": "ms",
    "p95_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    """The benchmark cannot run here (no sources, no fixtures)."""


def import_program():
    if not os.path.isfile(os.path.join(SRC, "xmlauthz", "__init__.py")):
        raise BenchError("no xmlauthz sources under %s" % SRC)
    if not os.path.isdir(FIXTURES):
        raise BenchError("no fixtures directory at %s" % FIXTURES)
    sys.path.insert(0, SRC)
    import xmlauthz
    if os.path.dirname(os.path.dirname(os.path.abspath(xmlauthz.__file__))) != SRC:
        raise BenchError("xmlauthz imported from %s, not from %s" % (xmlauthz.__file__, SRC))


def fixture_checks(rec: W.Record) -> None:
    """The paper's two documents compile byte for byte to its tables."""
    from xmlauthz import paths, rules
    from xmlauthz.store import XatStore

    universe = paths.build_allpaths_from_document(os.path.join(FIXTURES, "department.xml"))
    docs = []
    for name, expected in (("auth1.xml", "table1_expected.csv"),
                           ("auth2.xml", "table2_expected.csv")):
        docs.append(rules.parse_rule_document(os.path.join(FIXTURES, name)))
        xat = XatStore()
        rules.compile_documents(docs, universe, xat)
        with open(os.path.join(FIXTURES, expected), encoding="utf-8", newline="") as fh:
            rec.check(xat.to_csv_text() == fh.read())


def percentile(values, p):
    return statistics.quantiles(values, n=100, method="inclusive")[p - 1]


def timed_setup(workload, program):
    gc.collect()
    start = W.TIMER()
    state = workload.setup(program)
    return state, W.TIMER() - start


def run_pass(workload, units, tracer=None):
    """Set up once, then run ``units`` units of work."""
    program = W.Program(tracer)
    rec = W.Record()
    state, rec.setup_s = timed_setup(workload, program)
    for i in range(units):
        workload.unit(state, i, rec, program)
    return rec


def timed_run(workload, seconds):
    """Run units until ``seconds`` of program time are measured.

    The set-up samples are spread evenly over the run, so their median sees
    the same machine conditions as the other metrics.
    """
    program = W.Program()
    main = W.Record()
    state, first = timed_setup(workload, program)
    setups = [first]
    i = 0
    while main.busy < seconds:
        if main.busy >= len(setups) * seconds / workload.setup_reps:
            setups.append(timed_setup(workload, program)[1])
        workload.unit(state, i, main, program)
        i += 1
    lat_ms = [t * 1000 for t in main.latencies]
    metrics = {
        "setup_s": statistics.median(setups),
        "ops_per_s": main.ops / main.rate_time,
        "p50_ms": statistics.median(lat_ms),
        "p95_ms": percentile(lat_ms, 95),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {"latency_samples": len(lat_ms), "setup_samples": len(setups),
             "measured_s": main.busy}
    if len(lat_ms) >= 1000:
        extra["p99_ms"] = percentile(lat_ms, 99)
    return main, metrics, extra


def layer_metrics(tracer: Tracer, final_csv: str) -> dict:
    c = tracer.counts
    span_t, span_n = tracer.span_time, tracer.span_calls
    hot_t, hot_n = tracer.hot_time, tracer.hot_calls
    selfs = tracer.self_times()
    layer_self = tracer.layer_self_times()
    total_self = sum(layer_self.values()) or 1.0
    rules_applied = span_n("rules.apply")
    decide_matched = c["decide.matched"]
    out = {
        "paths.build_s": (span_t("paths.build"), "s"),
        "paths.universe_size": (tracer.last.get("universe_size", 0), "paths"),
        "paths.match_s": (span_t("paths.match"), "s"),
        "paths.match_calls": (span_n("paths.match"), "count"),
        "paths.examined_per_match": (c["match.examined"] / max(1, c["match.matched"]), "ratio"),
        "paths.closure_s": (span_t("paths.closure"), "s"),
        "paths.closure_calls": (span_n("paths.closure"), "count"),
        "paths.closure_out": (c["closure.out"], "paths"),
        "predicates.classify_s": (hot_t("predicates.classify"), "s"),
        "predicates.union_s": (hot_t("predicates.union"), "s"),
        "predicates.conflicts.none": (c["conflict.none"], "count"),
        "predicates.conflicts.absolute": (c["conflict.absolute"], "count"),
        "predicates.conflicts.partial": (c["conflict.partial"], "count"),
        "predicates.intervals_per_row": (W.intervals_per_row(final_csv), "intervals"),
        "predicates.intersect_s": (hot_t("predicates.intersect"), "s"),
        "predicates.parse_s": (hot_t("predicates.parse"), "s"),
        "predicates.render_s": (hot_t("predicates.render"), "s"),
        "rules.parse_s": (span_t("rules.parse"), "s"),
        "rules.apply_self_s": (selfs.get("rules.apply", 0.0), "s"),
        "rules.rules_applied": (rules_applied, "count"),
        "rules.rows_inserted": (c["rows.inserted"], "count"),
        "rules.rows_updated": (c["rows.updated"], "count"),
        "rules.rows_deleted": (c["rows.deleted"], "count"),
        "rules.paths_per_rule": (c["expand.paths"] / max(1, rules_applied), "paths"),
        "store.lookup_calls": (hot_n("store.lookup"), "count"),
        "store.upsert_calls": (hot_n("store.upsert"), "count"),
        "store.delete_calls": (hot_n("store.delete"), "count"),
        "store.ops_s": (sum(hot_t("store." + op) for op in ("lookup", "upsert", "delete")), "s"),
        "store.csv_load_s": (span_t("store.csv_load"), "s"),
        "store.csv_save_s": (span_t("store.csv_save"), "s"),
        "store.csv_bytes": (c["csv.bytes"], "B"),
        "store.rows": (len(final_csv.splitlines()) - 1, "rows"),
        "gate.decide_self_s": (selfs.get("gate.decide", 0.0), "s"),
        "gate.paths_per_query": (decide_matched / max(1, span_n("gate.decide")), "paths"),
        "gate.grant_ratio": (c["decide.granted"] / max(1, decide_matched), "ratio"),
        "cli.calls": (span_n("cli.main"), "count"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for layer in LAYERS:  # cli.self_s: cli.main time minus child spans
        out[layer + ".self_s"] = (layer_self[layer], "s")
        out[layer + ".self_share"] = (layer_self[layer] / total_self, "share")
    return out


def determinism_key(tracer: Tracer, final_csv: str) -> tuple:
    c = tracer.counts
    return (
        len(final_csv.splitlines()),
        c["conflict.none"], c["conflict.absolute"], c["conflict.partial"],
        c["expand.paths"], tracer.span_calls("rules.apply"),
    )


def traced_run(workload, out_dir):
    """Untraced and traced passes alternate, so slow drift of the machine's
    speed falls on both sides of the overhead estimate."""
    n = workload.fixed_units
    plain, passes = [], []
    for _ in range(2):
        plain.append(run_pass(workload, n))
        tracer = Tracer()
        tracer.install()
        try:
            passes.append((tracer, run_pass(workload, n, tracer)))
        finally:
            tracer.uninstall()
    (tracer, rec), (tracer2, rec2) = passes
    final_csv = workload.final_table(rec)
    for other in plain + [rec2]:
        rec.attempted += other.attempted
        rec.failed += other.failed
    rec.check(determinism_key(tracer, final_csv)
              == determinism_key(tracer2, workload.final_table(rec2)))
    metrics = layer_metrics(tracer, final_csv)
    untraced = statistics.mean(r.setup_s + r.busy for r in plain)
    traced = statistics.mean(r.setup_s + r.busy for _, r in passes)
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.overhead_share"] = ((traced - untraced) / untraced, "share")
    os.makedirs(out_dir, exist_ok=True)
    span_file = os.path.join(out_dir, "trace-%s-%d.jsonl" % (workload.name, workload.seed))
    tracer.write_jsonl(span_file)
    return rec, metrics, {"spans_file": os.path.relpath(span_file, ROOT),
                          "untraced_s": untraced, "traced_s": traced}


def run_one(args) -> int:
    import_program()
    cls = W.WORKLOADS[args.workload]
    work_root = os.path.join(ROOT, ".bench-work")
    os.makedirs(work_root, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="%s-%d-" % (args.workload, args.seed), dir=work_root)
    try:
        checks = W.Record()
        fixture_checks(checks)
        workload = cls(args.seed, workdir)
        again = cls(args.seed, workdir)
        checks.check(workload.digest() == again.digest())
        del again
        if args.trace:
            rec, metrics, extra = traced_run(workload, os.path.join(ROOT, ".bench-out"))
        else:
            rec, values, extra = timed_run(workload, args.seconds)
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in values.items()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            os.rmdir(work_root)
    attempted = rec.attempted + checks.attempted
    failed = rec.failed + checks.failed
    props = workload.properties(rec)

    print("workload %s  seed %d  (%s)" % (workload.name, workload.seed, workload.why))
    print("  ops_per_s is %s" % workload.rate_name)
    print("  p50_ms / p95_ms measure %s" % workload.latency_name)
    for name, (value, unit) in metrics.items():
        print("  %-32s %14.6g %s" % (name, value, unit))
    for name, value in extra.items():
        print("  %-32s %14s" % (name, value if isinstance(value, str) else "%.6g" % value))
    print("  %-32s %14.6g (%d failed / %d attempted)"
          % ("fail_ratio", failed / attempted, failed, attempted))
    print("  inputs " + json.dumps(props, sort_keys=True))
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(args) -> int:
    """Each workload in its own process, so peak RSS stays per workload."""
    status = 0
    for name in W.WORKLOADS:
        argv = [sys.executable, os.path.abspath(__file__), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)]
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1] if proc.returncode in (0, 1) else lines))
        status = status or proc.returncode
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=list(W.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=40.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.workload == "all":
            return run_all(args)
        return run_one(args)
    except BenchError as exc:
        print("bench: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
