"""Workload definitions and input set-up.

Every workload is a list of shards.  A shard is one small corpus with its own
seed, derived from the run seed, written as props/scores text; the program
under test only ever reads that text.  Shards play the role of corpus
sections: each one is processed by one operation, and medians are taken
over shards, so that one heavy-tailed shard cannot move a run's figures.
"""

from __future__ import annotations

import time
from pathlib import Path

import machine
from srlcomb.corpus_io import SyntheticConfig, emit_props, emit_scores, generate_synthetic

GAMMA = 0.1          # the CLI's default softmax temperature
BIAS = 0.30          # the CLI's default O
HARD_CONSTRAINTS = "1+2+5+6"

# search-hard pools: six noisy systems, long sentences, several predicates.
# The knobs keep the node-count tail far below the budget (the largest of
# 10 000 sentences needed about 80 k nodes), so that no sentence times out.
HARD_KNOBS = dict(n_systems=6, tokens_range=(20, 40), predicates_range=(1, 4),
                  args_range=(2, 4), precision=0.6, correct_score_mean=3.0,
                  wrong_score_mean=-3.0, score_sd=20.0)

WORKLOADS = {
    # default synthetic knobs, one `srlcomb infer --engine cs` call per shard
    "combine-probsum": dict(shards=10, sentences=300, knobs={}),
    # per shard: train an SVM and a global Perceptron on `sentences`, then
    # decode a separately seeded test corpus of `test_sentences` with the SVM
    "learn": dict(shards=16, sentences=75, test_sentences=75, knobs={}),
    # sentence-by-sentence exact search through infer_cs.solve_with_stats
    "search-hard": dict(shards=20, sentences=100, knobs=HARD_KNOBS,
                        node_budget=2_000_000),
}


def shard_seed(seed: int, shard: int, test: bool = False) -> int:
    return seed * 1000 + shard * 2 + int(test)


def write_corpus(out: Path, n_sentences: int, seed: int, knobs: dict) -> dict:
    """Generate one synthetic corpus and write it as text; returns its paths."""
    gold, systems = generate_synthetic(
        SyntheticConfig(n_sentences=n_sentences, seed=seed, **knobs))
    out.mkdir(parents=True, exist_ok=True)
    paths = {"gold": str(out / "gold.props"), "systems": []}
    (out / "gold.props").write_text(emit_props(gold), encoding="utf-8")
    for i, (doc, table) in enumerate(systems, 1):
        props, scores = out / f"sys{i}.props", out / f"sys{i}.scores"
        props.write_text(emit_props(doc), encoding="utf-8")
        scores.write_text(emit_scores(table), encoding="utf-8")
        paths["systems"].append([str(props), str(scores)])
    paths["sentences"] = n_sentences
    return paths


def set_up(name: str, seed: int, work: Path, refs: list) -> tuple[list, list]:
    """Write every shard of a workload; returns (shards, set-up seconds per
    shard).  Reference timings taken between shards are appended to `refs`."""
    spec = WORKLOADS[name]
    shards, times = [], []
    for k in range(spec["shards"]):
        machine.sample(refs)
        t0 = time.perf_counter()
        shard = {"id": k, "dir": str(work / f"shard{k}")}
        shard["corpus"] = write_corpus(work / f"shard{k}" / "in", spec["sentences"],
                                       shard_seed(seed, k), spec["knobs"])
        if "test_sentences" in spec:
            shard["test"] = write_corpus(work / f"shard{k}" / "test", spec["test_sentences"],
                                         shard_seed(seed, k, test=True), spec["knobs"])
        times.append(time.perf_counter() - t0)
        shards.append(shard)
    return shards, times
