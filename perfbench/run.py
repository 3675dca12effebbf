#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the mmc library.

Run from the root of a checkout of the repository:

    python3 perfbench/run.py --workload soak-msc --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --quick-test

The script builds perfbench/bench.exe with dune, then runs measured
repeats of one workload, each in a fresh process, until --seconds have
gone by.  With --trace 0 it prints the end-to-end metrics; with
--trace 1 it alternates untraced and traced repeats and prints the
per-layer metrics.  Every repeat of one seed must reproduce the same
exact counts (and a traced repeat those of the untraced one); the last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--quick-test runs every workload at small sizes and checks that each
metric is printed with its unit and that the exact counts of one seed
repeat across two runs.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

WORKLOADS = ["soak-msc", "soak-rmsc-lossy", "shard-seg-verify", "chaos-rmsc"]

# (name, unit) of the end-to-end metrics, printed with --trace 0.
END_TO_END = [
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("update_p99_vt", "vt"),
    ("latency_p99_vt", "vt"),
    ("msgs_per_op", "msgs/op"),
    ("peak_heap_mb", "MiB"),
]

# (name, unit) of the per-layer metrics, printed with --trace 1.  A
# layer's time is given as its self time's share of the traced wall
# time ([trace.wall_s]): a layer a workload does not use reads 0.
PER_LAYER = [
    ("setup.build_share", "ratio"),
    ("workload.gen_share", "ratio"),
    ("engine.self_share", "ratio"),
    ("engine.events_per_op", "events/op"),
    ("engine.alloc_words_per_op", "words/op"),
    ("store.invoke_share", "ratio"),
    ("store.stability_acks_per_op", "msgs/op"),
    ("transport.dropped_per_op", "msgs/op"),
    ("transport.retransmits_per_op", "msgs/op"),
    ("transport.abandoned", "count"),
    ("transport.heal_catchup_vt", "vt"),
    ("detector.beats_per_op", "msgs/op"),
    ("detector.false_suspicions", "count"),
    ("broadcast.epochs", "count"),
    ("broadcast.resubmits", "count"),
    ("broadcast.fenced", "count"),
    ("broadcast.holes", "count"),
    ("fastpath.local_share", "ratio"),
    ("fastpath.flushes", "count"),
    ("router.cross_shard_share", "ratio"),
    ("rlog.appends_per_op", "count/op"),
    ("rlog.scrubbed_per_op", "count/op"),
    ("rlog.torn", "count"),
    ("rlog.corrupt", "count"),
    ("rlog.repaired", "count"),
    ("rlog.ckpt_fallbacks", "count"),
    ("catchup.pulls", "count"),
    ("catchup.entries_pushed", "count"),
    ("recovery.recoveries", "count"),
    ("soak.self_share", "ratio"),
    ("soak.queue_wait_p999_vt", "vt"),
    ("soak.max_queue", "count"),
    ("recorder.drain_share", "ratio"),
    ("window_check.feed_share", "ratio"),
    ("window_check.checks", "count"),
    ("window_check.max_resident_words", "words"),
    ("window_check.recycled_words", "words"),
    ("window_check.arena_hit_share", "ratio"),
    ("window_check.inconclusive", "count"),
    ("window_check.alloc_words_per_op", "words/op"),
    ("history.build_share", "ratio"),
    ("history.alloc_words_per_op", "words/op"),
    ("check.trace_share", "ratio"),
    ("check_sharded.check_share", "ratio"),
    ("check_sharded.oracle_share", "ratio"),
    ("check.alloc_words_per_op", "words/op"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "ratio"),
]

# Workloads whose every output check must hold.  chaos-rmsc instead
# measures the share of fuzzed fault plans that fail their oracles:
# the m-operations of a failing plan count as failed, and the output
# stays correct as long as every plan was checked.
MUST_PASS = {"soak-msc", "soak-rmsc-lossy", "shard-seg-verify"}

# Per-layer self times must cover this share of the traced wall time.
MIN_COVERAGE = 0.95

# Fields of a repeat's output that are exact functions of the seed.
EXACT = ["attempted", "completed", "failed", "messages", "events",
         "latency_vt", "verdict", "extra", "problems"]

BENCH_EXE = os.path.join("_build", "default", "perfbench", "bench.exe")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def build():
    """Build the benchmark (and the library it links) from source."""
    for need in ("dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(need):
            fail("run from the root of an mmc checkout (missing %s)" % need)
    try:
        proc = subprocess.run(
            ["dune", "build", "--root", ".", "./perfbench/bench.exe"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            timeout=850)
    except (OSError, subprocess.TimeoutExpired) as e:
        fail("build failed: %s" % e, 3)
    if proc.returncode != 0 or not os.path.exists(BENCH_EXE):
        sys.stderr.write(proc.stdout)
        fail("build failed", 3)


def child_env():
    env = dict(os.environ)
    # The benchmark fixes its own GC settings.
    env.pop("OCAMLRUNPARAM", None)
    return env


def repeat(mode, workload, seed, quick, spans=None):
    """One measured repeat in a fresh process; its JSON result."""
    cmd = [BENCH_EXE, mode, "--workload", workload, "--seed", str(seed)]
    if quick:
        cmd.append("--quick")
    if spans:
        cmd += ["--spans", spans]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True,
                              timeout=170, env=child_env())
    except subprocess.TimeoutExpired:
        fail("%s repeat of %s timed out" % (mode, workload), 4)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        fail("%s repeat of %s exited %d" % (mode, workload, proc.returncode), 4)
    return json.loads(lines[-1])


def exact(r):
    return {k: r[k] for k in EXACT}


def quantile(q, cls, p):
    return float(q[cls][p])


def end_to_end(runs):
    r = runs[0]
    q = r["latency_vt"]
    verified = r["attempted"] - r["failed"]
    setups = [s for x in runs for s in x["setup_s"]]
    return {
        "ops_per_s": statistics.median(verified / x["wall_s"] for x in runs),
        "setup_s": statistics.median(setups),
        "update_p99_vt": quantile(q, "update", "p99"),
        "latency_p99_vt": quantile(q, "all", "p99"),
        "msgs_per_op": r["messages"] / max(1, r["completed"]),
        "peak_heap_mb": r["peak_heap_words"] * r["gc"]["word_bytes"] / 2**20,
    }


def per_layer(runs, traces):
    layers = {}
    for name, _ in PER_LAYER:
        if name.startswith("trace."):
            continue
        seconds = name[:-len("_share")] + "_s"
        if name.endswith("_share") and seconds in traces[0]["layers"]:
            layers[name] = statistics.median(
                t["layers"][seconds] / t["wall_s"] for t in traces)
        else:
            # A counter a workload never touches is absent: it reads 0.
            layers[name] = traces[0]["layers"].get(name, 0.0)
    traced_wall = statistics.median(t["wall_s"] for t in traces)
    layers["trace.wall_s"] = traced_wall
    layers["trace.overhead_s"] = (
        traced_wall - statistics.median(x["wall_s"] for x in runs))
    layers["trace.coverage"] = statistics.median(
        t["covered_s"] / t["wall_s"] for t in traces)
    return layers


def measure(workload, seed, seconds, trace, quick, spans_dir=None):
    """Repeat for [seconds] (at least once); return (result, report)."""
    report = []
    runs, traces = [], []
    start = time.monotonic()
    while True:
        began = time.monotonic()
        runs.append(repeat("run", workload, seed, quick))
        if trace:
            spans = None
            if spans_dir and not traces:
                os.makedirs(spans_dir, exist_ok=True)
                spans = os.path.join(
                    spans_dir, "spans-%s-%d.tsv" % (workload, seed))
            traces.append(repeat("trace", workload, seed, quick, spans))
        # Start another repeat only if it can end within [seconds].
        now = time.monotonic()
        if now + (now - began) - start > seconds:
            break
    base = exact(runs[0])
    consistent = True
    for x in runs[1:] + traces:
        if exact(x) != base:
            consistent = False
            report.append("counts differ between repeats (%s): %s vs %s"
                          % (x["mode"], json.dumps(exact(x)), json.dumps(base)))
    for x in runs[1:]:
        if x["peak_heap_words"] != runs[0]["peak_heap_words"]:
            consistent = False
            report.append("peak heap differs between repeats")
    r = runs[0]
    report.append("gc %s" % json.dumps(r["gc"]))
    report.append("repeats %d untraced%s; wall_s %s; cpu/wall %.3f" % (
        len(runs), (", %d traced" % len(traces)) if trace else "",
        " ".join("%.3f" % x["wall_s"] for x in runs),
        statistics.median(x["cpu_s"] / x["wall_s"] for x in runs)))
    q = r["latency_vt"]
    for cls in ("query", "update", "all"):
        report.append("latency %-6s n=%d p50=%g p99=%g p999=%g vt" % (
            cls, q[cls]["n"], q[cls]["p50"], q[cls]["p99"], q[cls]["p999"]))
    report.append("verdict %s; failed %d of %d" % (
        r["verdict"], r["failed"], r["attempted"]))
    for p in r["problems"]:
        report.append("check failed: " + p)
    correct = consistent and not (workload in MUST_PASS and r["problems"])
    if trace:
        metrics = per_layer(runs, traces)
        names = PER_LAYER
        for k, v in traces[0]["layers"].items():
            if k.endswith("_s"):
                report.append("layer %-24s %.4f s self time (first traced repeat)"
                              % (k, v))
        if metrics["trace.coverage"] < MIN_COVERAGE:
            correct = False
            report.append("layer self times cover %.3f of traced wall time"
                          % metrics["trace.coverage"])
    else:
        metrics = end_to_end(runs)
        names = END_TO_END
    result = {
        "correct": correct,
        "attempted": r["attempted"],
        "failed": r["failed"],
        "metrics": {n: {"value": metrics[n], "unit": u} for n, u in names},
    }
    return result, report


def quick_test():
    """Every workload small: metrics named with units, counts repeat."""
    build()
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    declared = None
    bj = os.path.join(root, "BENCHMARK.json")
    if os.path.exists(bj):
        with open(bj) as f:
            b = json.load(f)
        declared = (
            [(m["name"], m["unit"]) for m in b["end_to_end"]],
            [(m["name"], m["unit"]) for m in b["per_layer"]],
            [w["name"] for w in b["workloads"]])
    errors = []
    if declared and declared != (END_TO_END, PER_LAYER, WORKLOADS):
        errors.append("BENCHMARK.json does not list run.py's metrics")
    reported = set()
    for w in WORKLOADS:
        for k in repeat("trace", w, 1, True)["layers"]:
            reported.add(k[:-len("_s")] + "_share" if k.endswith("_s") else k)
        first, _ = measure(w, 1, 0, 0, quick=True)
        second, _ = measure(w, 1, 0, 0, quick=True)
        traced, report = measure(w, 1, 0, 1, quick=True)
        for res, names in ((first, END_TO_END), (traced, PER_LAYER)):
            for n, u in names:
                m = res["metrics"].get(n)
                if m is None or m["unit"] != u or not isinstance(
                        m["value"], (int, float)):
                    errors.append("%s: metric %s missing or without unit %s"
                                  % (w, n, u))
        for res in (first, second, traced):
            if not res["correct"]:
                errors.append("%s: output not correct: %s" % (w, report))
        for n, _ in END_TO_END:
            if n in ("ops_per_s", "setup_s"):
                continue
            if first["metrics"][n] != second["metrics"][n]:
                errors.append("%s: %s differs across runs of one seed" % (w, n))
        if (first["attempted"], first["failed"]) != (
                second["attempted"], second["failed"]):
            errors.append("%s: counts differ across runs of one seed" % w)
        print("quick %-17s attempted=%d failed=%d" % (
            w, first["attempted"], first["failed"]))
    for n, _ in PER_LAYER:
        if not n.startswith("trace.") and n not in reported:
            errors.append("no workload reports per-layer metric %s" % n)
    for e in errors:
        print("FAIL " + e)
    print("quick test %s" % ("FAILED" if errors else "passed"))
    return 1 if errors else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--quick-test", action="store_true",
                    help="run every workload small and check the output")
    a = ap.parse_args()
    if a.quick_test:
        sys.exit(quick_test())
    if a.workload is None:
        fail("--workload is required")
    build()
    result, report = measure(
        a.workload, a.seed, a.seconds, a.trace, quick=False,
        spans_dir=os.path.join("perfbench", "out") if a.trace else None)
    for line in report:
        print("# " + line)
    for n, m in result["metrics"].items():
        print("# %-34s %.6g %s" % (n, m["value"], m["unit"]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
