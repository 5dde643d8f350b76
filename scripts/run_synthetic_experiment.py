#!/usr/bin/env python3
"""Compare every combination strategy on one synthetic corpus.

Generates a train and a test corpus with the same noise knobs, then scores:
the individual systems, both baselines, both oracles, constraint-satisfaction
inference, the local SVM ranker, and the Perceptron ranker with local/global
feedback at both inference scopes.
"""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from srlcomb.calibrate import DEFAULT_GAMMA, build_intervals
from srlcomb.corpus_io import SyntheticConfig, generate_synthetic
from srlcomb.evaluate import (
    baseline_precision,
    baseline_recall,
    bootstrap,
    oracle_combination,
    oracle_rerank,
    score,
)
from srlcomb.features import FeatureExtractor
from srlcomb.infer_cs import CsConfig, Scope, infer_corpus
from srlcomb.infer_dp import decode_corpus
from srlcomb.learn import (
    label_datasets,
    make_examples,
    score_pool,
    train_global_perceptron,
    train_local_perceptron,
    train_local_svm,
)
from srlcomb.pool import build_pool, solutions_to_props


def build_world(n_sentences, seed, knobs):
    gold, systems = generate_synthetic(SyntheticConfig(
        n_sentences=n_sentences, seed=seed, **knobs))
    pool = build_pool([(f"M{i + 1}", d, t) for i, (d, t) in enumerate(systems)],
                      gold, DEFAULT_GAMMA)
    return gold, systems, pool


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-sentences", type=int, default=250)
    ap.add_argument("--test-sentences", type=int, default=500)
    ap.add_argument("--precision", type=float, default=0.80)
    ap.add_argument("--recall", type=float, default=0.75)
    ap.add_argument("--epochs", type=int, default=5)
    args = ap.parse_args()

    knobs = dict(precision=args.precision, recall=args.recall)
    train_gold, _train_systems, train_pool = build_world(
        args.train_sentences, args.seed + 1, knobs)
    test_gold, test_systems, test_pool = build_world(
        args.test_sentences, args.seed + 2, knobs)

    rows = []

    def add(name, predicted):
        report = score(predicted, test_gold)
        boot = bootstrap(report, seed=args.seed)
        rows.append((name, report.pprops, report.precision, report.recall,
                     boot.formatted()))

    for i, (doc, _) in enumerate(test_systems, 1):
        add(f"individual M{i}", doc)
    add("baseline recall", solutions_to_props(test_pool, baseline_recall(test_pool)))
    add("baseline precision",
        solutions_to_props(test_pool, baseline_precision(test_pool)))
    add("oracle combination",
        solutions_to_props(test_pool, oracle_combination(test_pool)))
    add("oracle re-ranking",
        solutions_to_props(test_pool, oracle_rerank(test_pool, test_gold)))

    t0 = time.perf_counter()
    add("cs pred 1+2", solutions_to_props(test_pool, infer_corpus(
        test_pool, CsConfig.for_scope(Scope.PRED_BY_PRED))))
    add("cs sentence 1+2+5+6", solutions_to_props(test_pool, infer_corpus(
        test_pool, CsConfig())))

    intervals = build_intervals(train_pool)
    extractor = FeatureExtractor()
    train_featured = extractor.extract_pool(train_pool, intervals=intervals)
    test_featured = extractor.extract_pool(test_pool, intervals=intervals)
    datasets = label_datasets(train_featured)
    examples = make_examples(train_featured, train_gold)
    n_val = max(1, len(examples) // 10)

    def decode(model, scope):
        solutions = decode_corpus(score_pool(model, test_featured),
                                  [sp.sentence_id for sp in test_featured.sentences], scope)
        return solutions_to_props(test_featured, solutions)

    svm = train_local_svm(datasets, space=extractor.space,
                          feature_config=extractor.config, intervals=intervals)
    add("svm local, pred", decode(svm, Scope.PRED_BY_PRED))

    local_perc = train_local_perceptron(datasets, epochs=args.epochs,
                                        space=extractor.space,
                                        feature_config=extractor.config,
                                        intervals=intervals)
    for scope in Scope:
        add(f"perceptron local, {scope.value}", decode(local_perc, scope))

    for scope in Scope:
        model, log = train_global_perceptron(
            examples[:-n_val], scope=scope, epochs=args.epochs,
            space=extractor.space, feature_config=extractor.config,
            intervals=intervals, validation=examples[-n_val:])
        add(f"perceptron global, {scope.value}", decode(model, scope))

    print(f"\n{args.test_sentences} test sentences, "
          f"P/R knobs {args.precision}/{args.recall}, seed {args.seed} "
          f"({time.perf_counter() - t0:.1f}s)\n")
    print(f"{'system':<28} {'PProps':>8} {'Prec':>8} {'Recall':>8}  F1")
    for name, pprops, precision, recall, f1 in rows:
        print(f"{name:<28} {pprops:>7.2f}% {precision:>7.2f}% {recall:>7.2f}%  {f1}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
