"""Run one workload's operations in a fresh process.

Started by run.py with a plan file; writes a result file next to it.  Before
each operation it asks run.py, over stdout and stdin, to time the reference
computation of machine.py, and waits for the answer.  Each
operation reads one shard's text inputs and writes its outputs beside them.
Without tracing, shards are processed round-robin until the time is up and
every shard has been done at least once.  With tracing, whole passes over
the shards run, each shard once with spans on and once with spans off, so
that the two can be compared on the same work.

    python3 perfbench/worker.py PLAN.json
"""

from __future__ import annotations

import hashlib
import io
import json
import sys
import time
from collections import Counter
from contextlib import nullcontext, redirect_stdout
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from srlcomb import cli, infer_cs  # noqa: E402
from srlcomb.infer_cs import CsConfig, InferenceTimeout, Scope  # noqa: E402
from srlcomb.model import ConstraintSet  # noqa: E402

import spans  # noqa: E402
from workloads import BIAS, GAMMA, HARD_CONSTRAINTS, WORKLOADS  # noqa: E402


def _span(tracer, name):
    return tracer.span(name) if tracer is not None else nullcontext()


def _digest(*paths) -> str:
    h = hashlib.sha1()
    for p in paths:
        h.update(Path(p).read_bytes())
    return h.hexdigest()


def _run_cli(argv: list, tracer) -> tuple[float, str]:
    buf = io.StringIO()
    t0 = time.perf_counter()
    with redirect_stdout(buf), _span(tracer, "cli.main"):
        rc = cli.main(argv + ["--jobs", "1"])
    wall = time.perf_counter() - t0
    if rc != 0:
        raise RuntimeError(f"srlcomb {' '.join(argv)} exited with {rc}")
    return wall, buf.getvalue()


def _inputs(corpus: dict) -> list:
    args = ["--gold", corpus["gold"]]
    for props, scores in corpus["systems"]:
        args += ["--system", f"{props}:{scores}"]
    return args


def _cli_f1(stdout: str) -> float:
    line = next(l for l in stdout.splitlines() if l.startswith("overall"))
    return float(line.split()[-1])


def op_combine(shard: dict, tracer) -> dict:
    corpus, pred = shard["corpus"], Path(shard["dir"]) / "pred.props"
    wall, out = _run_cli(["infer", "--engine", "cs", "--out", str(pred)] + _inputs(corpus),
                         tracer)
    return {"op_ms": wall * 1e3, "infer_s": wall,
            "sentences": corpus["sentences"], "cli_f1": _cli_f1(out),
            "fingerprint": _digest(pred)}


def op_learn(shard: dict, tracer) -> dict:
    train, test = shard["corpus"], shard["test"]
    out_dir = Path(shard["dir"])
    svm, gp, pred = out_dir / "model.svm", out_dir / "model.gp", out_dir / "pred.props"
    t_svm, _ = _run_cli(["train", "--scorer", "svm", "--out", str(svm)] + _inputs(train),
                        tracer)
    t_gp, _ = _run_cli(["train", "--scorer", "perceptron-global", "--out", str(gp)]
                       + _inputs(train), tracer)
    t_inf, out = _run_cli(["infer", "--engine", "dp", "--scorer", "svm", "--scope", "pred",
                           "--model", str(svm), "--out", str(pred)] + _inputs(test), tracer)
    return {"op_ms": (t_svm + t_gp) * 1e3, "infer_s": t_inf,
            "train_svm_s": t_svm, "train_gp_s": t_gp,
            "sentences": test["sentences"], "cli_f1": _cli_f1(out),
            "fingerprint": _digest(svm, gp, pred)}


def op_search(shard: dict, tracer) -> dict:
    """Text in, one exact decode per sentence, props written and scored.
    Library calls go through the names the CLI itself uses, so that the
    same spans cover this path and the CLI's."""
    corpus, pred = shard["corpus"], Path(shard["dir"]) / "pred.props"
    budget = WORKLOADS["search-hard"]["node_budget"]
    cfg = CsConfig(bias=BIAS, scope=Scope.FULL_SENTENCE,
                   constraints=ConstraintSet.parse(HARD_CONSTRAINTS), node_budget=budget)
    t0 = time.perf_counter()
    gold = cli.parse_props(Path(corpus["gold"]).read_text(encoding="utf-8"))
    systems = [(f"M{i}", cli.parse_props(Path(p).read_text(encoding="utf-8")),
                cli.parse_scores(Path(s).read_text(encoding="utf-8")))
               for i, (p, s) in enumerate(corpus["systems"], 1)]
    pool = cli.attach_probs(cli.align_gold(cli.build_pool(systems), gold), gamma=GAMMA)
    solutions, sent_ms, hits, nodes = [], [], [], 0
    for sent in pool.sentences:
        t = time.perf_counter()
        try:
            sol, visited = infer_cs.solve_with_stats(sent.candidates, cfg, sent.sentence_id)
        except InferenceTimeout as exc:
            sol, visited = exc.best, budget + 1
            hits.append(sent.sentence_id)
        sent_ms.append((time.perf_counter() - t) * 1e3)
        solutions.append(sol)
        nodes += visited
    predicted = cli.solutions_to_props(pool, solutions)
    pred.write_text(cli.emit_props(predicted), encoding="utf-8")
    report = cli.score(predicted, gold)
    wall = time.perf_counter() - t0
    return {"infer_s": wall, "sentences": corpus["sentences"],
            "sent_ms": sent_ms, "hits": hits, "cli_f1": round(report.f1, 2),
            "fingerprint": _digest(pred),
            "counts": {"infer_cs.nodes": nodes, "infer_cs.budget_hits": len(hits)}}


OPS = {"combine-probsum": op_combine, "learn": op_learn, "search-hard": op_search}


def main(plan_path: str) -> int:
    plan = json.loads(Path(plan_path).read_text(encoding="utf-8"))
    op, shards, seconds = OPS[plan["workload"]], plan["shards"], plan["seconds"]
    ops: list = []

    def record(phase: str, shard: dict, run_op) -> None:
        # the parent times the machine-speed reference while this process
        # waits, so that the reference adds nothing to this process's RSS
        print("reference", flush=True)
        sys.stdin.readline()
        t0 = time.perf_counter()
        rec = run_op(shard)
        rec.update(phase=phase, shard=shard["id"], outer_s=time.perf_counter() - t0)
        ops.append(rec)

    def untraced_op(shard: dict) -> dict:
        return op(shard, None)

    result: dict = {"ops": ops}
    if not plan["trace"]:
        record("warmup", shards[0], untraced_op)
        done, t_end = 0, time.perf_counter() + seconds
        while done < len(shards) or time.perf_counter() < t_end:
            shard = shards[done % len(shards)]
            record("timed", shard, untraced_op)
            done += 1
    else:
        tracer = spans.Tracer()
        passes, t_end = 0, time.perf_counter() + seconds

        def traced_op(shard: dict) -> dict:
            tracer.counts = Counter()
            with tracer.span("bench.op"):
                rec = op(shard, tracer)
            rec["counts"] = {**rec.get("counts", {}), **tracer.counts}
            return rec

        with spans.installed(tracer):
            record("warmup", shards[0], traced_op)
        tracer.spans.clear()
        while passes == 0 or time.perf_counter() < t_end:
            for shard in shards:
                with spans.installed(tracer):
                    record("traced", shard, traced_op)
                record("untraced", shard, untraced_op)
            passes += 1
        by_name, self_by_layer, calls = spans.layer_times(tracer.spans)
        result.update(passes=passes, by_name=by_name, self_by_layer=self_by_layer,
                      calls=calls)
        Path(plan["spans_out"]).write_text(
            json.dumps({"fields": ["name", "start", "end", "parent"], "spans": tracer.spans}),
            encoding="utf-8")
    result["peak_rss_mb"] = _peak_rss_mb()
    Path(plan["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


def _peak_rss_mb() -> float:
    """This process's own peak RSS.  getrusage would also count the pages of
    the parent this process was forked from, before it started Python."""
    for line in Path("/proc/self/status").read_text(encoding="ascii").splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM line in /proc/self/status")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
