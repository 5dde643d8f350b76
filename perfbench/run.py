"""Benchmark of srlcomb on three workloads, with output checks.

    python3 perfbench/run.py --workload combine-probsum --seed 1 --seconds 25 --trace 0

Workloads (see BENCHMARK.json and perfbench/RATIONALE.md):
  combine-probsum  `srlcomb infer --engine cs` on 300-sentence sections
  learn            `srlcomb train` (svm, perceptron-global) + `infer --engine dp`
  search-hard      exact search sentence by sentence on large noisy pools

The run writes the inputs from --seed, then runs the workload in a fresh
worker process (so that its peak RSS is its own), then checks the outputs
with code that shares nothing with the solvers.  It prints a report, and as
its last line one JSON object: end-to-end metrics with --trace 0, per-layer
metrics from a traced run with --trace 1.  A failed check exits with 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from pathlib import Path

import machine

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER_TIMEOUT_S = 150

# per-layer time metrics: the spans whose durations they sum
SPAN_TIMES = {
    "corpus_io.parse_s": ("corpus_io.parse_props", "corpus_io.parse_scores"),
    "corpus_io.emit_s": ("corpus_io.emit_props",),
    "pool.build_s": ("pool.build_pool",),
    "pool.align_s": ("pool.align_gold",),
    "pool.to_props_s": ("pool.solutions_to_props",),
    "calibrate.attach_s": ("calibrate.attach_probs",),
    "calibrate.intervals_s": ("calibrate.build_intervals",),
    "features.extract_s": ("features.extract_pool",),
    "learn.train_svm_s": ("learn.train_local_svm",),
    "learn.train_gp_s": ("learn.train_global_perceptron",),
    "learn.score_pool_s": ("learn.score_pool",),
    "learn.model_io_s": ("learn.model_io",),
    "infer_cs.solve_s": ("infer_cs.solve_with_stats",),
    "infer_dp.decode_s": ("infer_dp.infer_sentence",),
    "evaluate.score_s": ("evaluate.score",),
    "evaluate.bootstrap_s": ("evaluate.bootstrap",),
}
SPAN_CALLS = {"infer_cs.calls": "infer_cs.solve_with_stats",
              "infer_dp.calls": "infer_dp.infer_sentence"}
LAYERS = ("corpus_io", "pool", "calibrate", "features", "learn", "infer_cs", "infer_dp",
          "evaluate", "cli", "bench")
# counters that must repeat exactly on the same inputs and differ across shards
EXACT_COUNTERS = ("infer_cs.nodes", "infer_cs.budget_hits", "pool.candidates",
                  "learn.support_vectors", "learn.gram_entries", "learn.kernel_evals",
                  "learn.gp_updates", "features.vocab", "corpus_io.bytes_in")


def tail(values: list):
    """(p, value) for the highest of p99.9, p99, p90, p75, p50 that has at
    least ten samples beyond it, or None."""
    ordered = sorted(values)
    n = len(ordered)
    for p in (99.9, 99.0, 90.0, 75.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p, ordered[math.ceil(p / 100.0 * n) - 1]
    return None


def per_shard_medians(ops: list, value) -> list:
    by_shard = defaultdict(list)
    for o in ops:
        by_shard[o["shard"]].append(value(o))
    return [statistics.median(v) for v in by_shard.values()]


def sentence_medians(ops: list) -> list:
    """Decode time per distinct sentence, the median over its repeats."""
    by_sentence = defaultdict(list)
    for o in ops:
        for i, ms in enumerate(o["sent_ms"]):
            by_sentence[(o["shard"], i)].append(ms)
    return [statistics.median(v) for v in by_sentence.values()]


class Report:
    def __init__(self) -> None:
        self.lines: list = []

    def add(self, name: str, value: float, unit: str, note: str = "") -> None:
        self.lines.append(f"  {name:<32} {value:>14.6g} {unit:<12} {note}")

    def text(self, note: str) -> None:
        self.lines.append(note)


def run_checks(name: str, shards: list, result: dict, checks, workloads) -> tuple:
    """Output checks and exact-repeat counters; returns (errors, counters per
    shard, F1 over all shards, sentences checked per kind of check)."""
    errors: list = []
    checked: dict = defaultdict(int)
    counts: dict = {}
    f1_counts = [0, 0, 0]
    for shard in shards:
        sid, out_dir = shard["id"], Path(shard["dir"])
        mine = [o for o in result["ops"] if o["shard"] == sid]
        corpus = shard["test"] if name == "learn" else shard["corpus"]
        predicted = checks.read_props(str(out_dir / "pred.props"))
        gold, pools = checks.read_props(corpus["gold"]), checks.read_pool(corpus)
        c = checks.match_counts(predicted, gold)
        f1_counts = [a + b for a, b in zip(f1_counts, c)]
        f1 = checks.f1_points(*c)
        if any(abs(o["cli_f1"] - f1) > 0.006 for o in mine):
            errors.append(f"shard {sid}: F1 {f1:.4f} differs from srlcomb's {mine[0]['cli_f1']}")
        if len({o["fingerprint"] for o in mine}) != 1:
            errors.append(f"shard {sid}: outputs differ between repeats of the same input")

        # learn decodes predicate by predicate, where only c1 and c2 apply
        rules = "12" if name == "learn" else workloads.HARD_CONSTRAINTS
        errs = checks.structure_errors(predicted, gold, pools, rules)
        checked["structure"] += len(predicted)
        if name == "combine-probsum":
            more, n = checks.pred_scope_errors(corpus, workloads.GAMMA, workloads.BIAS)
            checked["cs_vs_dp"] += n
        elif name == "search-hard":
            skip = {h for o in mine for h in o["hits"]}
            more, n = checks.milp_errors(predicted, pools, skip, workloads.GAMMA,
                                         workloads.BIAS, rules)
            checked["milp"] += n
        else:
            more = []
        errors += [f"shard {sid}: {e}" for e in errs + more]

        if name == "learn":
            train_pools = checks.read_pool(shard["corpus"])
            shard_counts = checks.corpus_counters([(shard["corpus"], train_pools),
                                                   (corpus, pools)])
            shard_counts.update(checks.learn_counters(
                checks.read_props(shard["corpus"]["gold"]), train_pools, pools,
                str(out_dir / "model.svm")))
        else:
            shard_counts = checks.corpus_counters([(corpus, pools)])
        by_keys = defaultdict(list)
        for o in mine:
            if "counts" in o:
                by_keys[tuple(sorted(o["counts"]))].append(o["counts"])
        for same in by_keys.values():
            if any(x != same[0] for x in same):
                errors.append(f"shard {sid}: counters differ between repeats: {same}")
        if by_keys:   # the traced operations carry the most counters
            shard_counts.update(max(by_keys.values(), key=lambda s: len(s[0]))[0])
        counts[sid] = shard_counts
    vectors = [tuple(v.get(k) for k in EXACT_COUNTERS) for v in counts.values()]
    if len(set(vectors)) != len(vectors):
        errors.append("two shards with different seeds gave identical counters")
    return errors, counts, checks.f1_points(*f1_counts), dict(checked)


def end_to_end(name: str, result: dict, setup_times: list, setup_refs: list,
               worker_refs: list, peak_rss_mb: float, f1: float, report: Report) -> dict:
    """End-to-end metrics; times are scaled to nominal machine speed by the
    reference timings taken in the same phase (see machine.py)."""
    timed = [o for o in result["ops"] if o["phase"] == "timed"]
    slow = machine.slowdown(worker_refs)
    slow_setup = machine.slowdown(setup_refs)
    rates = per_shard_medians(timed, lambda o: o["sentences"] / o["infer_s"])
    if name == "search-hard":
        per_op = samples = sentence_medians(timed)
        op_note = "exact decode of one sentence (decode_p50_ms)"
    else:
        per_op = per_shard_medians(timed, lambda o: o["op_ms"])
        samples = [o["op_ms"] for o in timed]
        op_note = ("srlcomb infer on one section" if name == "combine-probsum"
                   else "train svm + train perceptron-global on one section")
    metrics = {
        "setup_s": statistics.median(setup_times) / slow_setup,
        "infer_sent_per_s": statistics.median(rates) * slow,
        "op_p50_ms": statistics.median(per_op) / slow,
        "peak_rss_mb": peak_rss_mb,
        "f1": f1,
    }
    report.text(f"end-to-end ({len(timed)} timed operations after one warm-up); the machine "
                f"ran {slow:.3f}x slower than nominal ({slow_setup:.3f}x during set-up): times "
                f"are scaled to nominal speed, as measured in brackets")
    report.add("setup_s", metrics["setup_s"], "s", f"[{statistics.median(setup_times):.6g}] "
               f"median of {len(setup_times)} shard set-ups")
    report.add("infer_sent_per_s", metrics["infer_sent_per_s"], "sentences/s",
               f"[{statistics.median(rates):.6g}] median of {len(rates)} shards, "
               f"{len(timed)} calls")
    report.add("op_p50_ms", metrics["op_p50_ms"], "ms", f"[{statistics.median(per_op):.6g}] "
               f"median of {len(per_op)}: {op_note}")
    t = tail(samples)
    if t is not None:
        report.add("op_tail_ms", t[1] / slow, "ms", f"[{t[1]:.6g}] p{t[0]:g} of {len(samples)}")
    report.add("peak_rss_mb", peak_rss_mb, "MB", "worker process")
    report.add("f1", f1, "points", "all shards' outputs, scored here")
    if name == "learn":
        for key in ("train_svm_s", "train_gp_s"):
            vals = per_shard_medians(timed, lambda o: o[key])
            report.add(key, statistics.median(vals) / slow, "s",
                       f"[{statistics.median(vals):.6g}] median of {len(vals)} sections")
    if name == "search-hard":
        report.add("decode_p50_ms", metrics["op_p50_ms"], "ms/sentence",
                   f"[{statistics.median(per_op):.6g}] median of {len(per_op)} sentences")
        if t is not None:
            report.add("decode_tail_ms", t[1] / slow, "ms/sentence",
                       f"[{t[1]:.6g}] p{t[0]:g} of {len(per_op)}")
        hits = sum(len(o["hits"]) for o in timed)
        report.add("exact_frac", 1.0 - hits / sum(o["sentences"] for o in timed), "ratio",
                   "solved to proven optimum within the node budget")
    return metrics


def per_layer(result: dict, counts: dict, worker_refs: list, units: dict,
              report: Report) -> dict:
    passes = result["passes"]
    by_name, self_by_layer, calls = (result["by_name"], result["self_by_layer"],
                                     result["calls"])
    metrics = {key: sum(by_name.get(s, 0.0) for s in names) / passes
               for key, names in SPAN_TIMES.items()}
    metrics.update({key: calls.get(span, 0) / passes for key, span in SPAN_CALLS.items()})
    metrics.update({f"{layer}.self_s": self_by_layer.get(layer, 0.0) / passes
                    for layer in LAYERS})
    shard_counts = list(counts.values())
    for key in EXACT_COUNTERS:
        metrics[key] = sum(c.get(key, 0) for c in shard_counts)
    metrics["pool.cands_per_sent_max"] = max(c["pool.cands_per_sent_max"] for c in shard_counts)
    vectors = sum(c.get("features.vectors", 0) for c in shard_counts)
    metrics["features.nnz_mean"] = (sum(c.get("features.nnz", 0) for c in shard_counts)
                                    / vectors if vectors else 0.0)
    solve_s = metrics["infer_cs.solve_s"]
    metrics["infer_cs.nodes_per_s"] = metrics["infer_cs.nodes"] / solve_s if solve_s else 0.0

    traced = [o for o in result["ops"] if o["phase"] == "traced"]
    untraced = [o for o in result["ops"] if o["phase"] == "untraced"]
    rate = lambda ops: (sum(o["sentences"] for o in ops)  # noqa: E731
                        / sum(o["infer_s"] for o in ops))
    metrics["bench.traced_s"] = sum(o["outer_s"] for o in traced) / passes
    metrics["bench.untraced_s"] = sum(o["outer_s"] for o in untraced) / passes
    metrics["bench.traced_sent_per_s"] = rate(traced)
    metrics["bench.untraced_sent_per_s"] = rate(untraced)
    metrics["bench.trace_overhead_pct"] = 100.0 * (
        metrics["bench.untraced_sent_per_s"] / metrics["bench.traced_sent_per_s"] - 1.0)
    metrics["bench.slowdown"] = machine.slowdown(worker_refs)

    self_sum = sum(metrics[f"{layer}.self_s"] for layer in LAYERS)
    report.text(f"per layer, per pass over all shards ({passes} traced pass(es), "
                f"{len(traced)} operations; counters are per pass)")
    for key, value in metrics.items():
        n = calls.get(SPAN_TIMES.get(key, ("",))[0], 0)
        report.add(key, value, units[key], f"{n} calls" if n else "")
    report.text(f"  self times add up to {self_sum:.4f} s per pass; the untraced pass took "
                f"{metrics['bench.untraced_s']:.4f} s; tracing overhead "
                f"{metrics['bench.trace_overhead_pct']:.2f}% on infer_sent_per_s")
    return metrics


def run_worker(plan: Path, env: dict, refs: list) -> int:
    """Run worker.py to its end, timing the machine reference whenever it asks."""
    with subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(plan)], env=env,
                          stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True) as proc:
        timer = threading.Timer(WORKER_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            for line in proc.stdout:
                if line.strip() == "reference":
                    machine.sample(refs)
                    proc.stdin.write("go\n")
                    proc.stdin.flush()
        finally:
            timer.cancel()
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return proc.returncode


def run(args, bench: dict, work: Path) -> int:
    import checks
    import workloads

    report = Report()
    setup_refs: list = []
    shards, setup_times = workloads.set_up(args.workload, args.seed, work, setup_refs)
    plan = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
            "shards": shards, "result": str(work / "result.json"),
            "spans_out": str(ROOT / ".perfbench" / f"spans-{args.workload}-{args.seed}.json")}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")
    # one process on one core: no worker fan-out, no BLAS threads
    env = {k: v for k, v in os.environ.items() if k != "SRLCOMB_JOBS"}
    env.update(OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    t0 = time.perf_counter()
    worker_refs: list = []
    returncode = run_worker(work / "plan.json", env, worker_refs)
    worker_s = time.perf_counter() - t0
    if returncode != 0:
        print(f"perfbench: worker exited with {returncode}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))

    t0 = time.perf_counter()
    errors, counts, f1, checked = run_checks(args.workload, shards, result, checks, workloads)
    report.text(f"workload {args.workload}, seed {args.seed}: {len(shards)} shards; "
                f"worker {worker_s:.1f} s, checks {time.perf_counter() - t0:.1f} s "
                f"(sentences checked: {checked})")
    measured = [o for o in result["ops"] if o["phase"] != "warmup"]
    attempted = sum(o["sentences"] for o in measured)
    failed = sum(len(o.get("hits", ())) for o in measured)
    wanted = bench["per_layer"] if args.trace else bench["end_to_end"]
    if args.trace:
        metrics = per_layer(result, counts, worker_refs, {m["name"]: m["unit"] for m in wanted},
                            report)
    else:
        metrics = end_to_end(args.workload, result, setup_times, setup_refs, worker_refs,
                             result["peak_rss_mb"], f1, report)
    report.text(f"operations: {attempted} sentences attempted, {failed} failed "
                f"(node budget exhausted)")
    for e in errors[:20]:
        report.text(f"CHECK FAILED: {e}")
    print("\n".join(report.lines))
    print(json.dumps({
        "correct": not errors, "attempted": attempted, "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }))
    return 1 if errors else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    src = ROOT / "src" / "srlcomb" / "__init__.py"
    if not src.is_file():
        print(f"perfbench: srlcomb sources not found at {src.parent}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(ROOT / "src"))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    work = ROOT / ".perfbench" / f"work-{os.getpid()}"
    try:
        return run(args, bench, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
