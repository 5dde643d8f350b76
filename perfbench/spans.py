"""In-memory spans around calls into srlcomb's layers.

Spans are recorded from the benchmark's side only: while a Tracer is
installed, the module attributes through which one layer calls another are
replaced by timing wrappers, and restored afterwards.  No file under src/
changes.  A span is (name, start, end, parent index); a name is
``<layer>.<function>``, and a layer's self time is the time its spans cover
minus the time covered by their direct children.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from srlcomb import cli, features, infer_cs, infer_dp, learn
from srlcomb.infer_cs import InferenceTimeout


class Tracer:
    def __init__(self) -> None:
        self.spans: list = []        # [name, start, end, parent]
        self.counts: Counter = Counter()
        self._stack: list = []

    @contextmanager
    def span(self, name: str):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[idx][2] = time.perf_counter()

    def wrap(self, fn, name: str, on_result=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with self.span(name):
                out = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self.counts, args, out)
            return out
        return wrapper


def _solve_counted(tracer: Tracer, fn):
    """solve_with_stats returns (solution, nodes); a timeout raises after
    visiting node_budget + 1 nodes."""
    @functools.wraps(fn)
    def wrapper(candidates, cfg, *args, **kwargs):
        try:
            with tracer.span("infer_cs.solve_with_stats"):
                sol, nodes = fn(candidates, cfg, *args, **kwargs)
        except InferenceTimeout:
            tracer.counts["infer_cs.budget_hits"] += 1
            tracer.counts["infer_cs.nodes"] += cfg.node_budget + 1
            raise
        tracer.counts["infer_cs.nodes"] += nodes
        return sol, nodes
    return wrapper


def _count_gp_updates(counts, _args, out) -> None:
    _model, log = out
    counts["learn.gp_updates"] += sum(promoted + demoted for promoted, demoted, _, _ in log.ledger)


def _count_nnz(counts, _args, pool) -> None:
    for cand in pool.all_candidates():
        counts["features.vectors"] += 1
        counts["features.nnz"] += len(cand.features)


def _targets(tracer: Tracer) -> list:
    """(owner, attribute, replacement) for every call site that is traced."""
    w = tracer.wrap
    out = [(cli, name, w(getattr(cli, name), f"{layer}.{name}"))
           for layer, names in (
               ("corpus_io", ("parse_props", "parse_scores", "emit_props")),
               ("pool", ("build_pool", "align_gold", "solutions_to_props")),
               ("calibrate", ("attach_probs", "build_intervals")),
               ("learn", ("train_local_svm", "score_pool", "label_datasets",
                          "make_examples")),
               ("infer_cs", ("infer_corpus",)),
               ("infer_dp", ("decode_corpus",)),
               ("evaluate", ("score", "bootstrap")))
           for name in names]
    out += [
        (cli, "train_global_perceptron",
         w(cli.train_global_perceptron, "learn.train_global_perceptron", _count_gp_updates)),
        (features.FeatureExtractor, "extract_pool",
         w(features.FeatureExtractor.extract_pool, "features.extract_pool", _count_nnz)),
        (learn.ScoreModel, "save", w(learn.ScoreModel.save, "learn.model_io")),
        (learn.ScoreModel, "load",
         classmethod(w(learn.ScoreModel.load.__func__, "learn.model_io"))),
        # per-sentence entry points, looked up as module globals by the
        # corpus-level helpers and by global Perceptron training
        (infer_cs, "solve_with_stats", _solve_counted(tracer, infer_cs.solve_with_stats)),
        (infer_dp, "infer_sentence", w(infer_dp.infer_sentence, "infer_dp.infer_sentence")),
        (learn, "infer_sentence", w(learn.infer_sentence, "infer_dp.infer_sentence")),
    ]
    return out


@contextmanager
def installed(tracer: Tracer):
    targets = _targets(tracer)
    saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in targets]
    try:
        for owner, attr, replacement in targets:
            setattr(owner, attr, replacement)
        yield tracer
    finally:
        for owner, attr, original in saved:
            setattr(owner, attr, original)


def layer_times(spans: list) -> tuple[dict, dict, dict]:
    """Sum span durations per name, self time per layer, and calls per name."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    by_name: dict = defaultdict(float)
    calls: dict = defaultdict(int)
    self_by_layer: dict = defaultdict(float)
    for i, (name, start, end, _parent) in enumerate(spans):
        by_name[name] += end - start
        calls[name] += 1
        self_by_layer[name.split(".", 1)[0]] += end - start - child[i]
    return dict(by_name), dict(self_by_layer), dict(calls)
