#!/usr/bin/env python3
"""How the combination scales with the number of pooled systems: build pools
from the top k of M synthetic systems and compare local vs global rankers
plus the oracle upper bounds."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from srlcomb.calibrate import DEFAULT_GAMMA, build_intervals
from srlcomb.corpus_io import SyntheticConfig, generate_synthetic
from srlcomb.evaluate import oracle_combination, oracle_rerank, score
from srlcomb.features import FeatureExtractor
from srlcomb.infer_cs import Scope
from srlcomb.infer_dp import decode_corpus
from srlcomb.learn import (
    label_datasets,
    make_examples,
    score_pool,
    train_global_perceptron,
    train_local_svm,
)
from srlcomb.pool import build_pool, solutions_to_props


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--systems", type=int, default=6)
    ap.add_argument("--train-sentences", type=int, default=150)
    ap.add_argument("--test-sentences", type=int, default=300)
    args = ap.parse_args()

    # later systems get progressively noisier, like a ranked submission pool
    precisions = tuple(max(0.55, 0.85 - 0.04 * i) for i in range(args.systems))
    recalls = tuple(max(0.50, 0.80 - 0.04 * i) for i in range(args.systems))
    knobs = dict(n_systems=args.systems, precision=precisions, recall=recalls)
    train_gold, train_systems = generate_synthetic(SyntheticConfig(
        n_sentences=args.train_sentences, seed=args.seed + 1, **knobs))
    test_gold, test_systems = generate_synthetic(SyntheticConfig(
        n_sentences=args.test_sentences, seed=args.seed + 2, **knobs))

    print(f"{'pool':<6} {'oracle-comb':>12} {'oracle-rerank':>14} "
          f"{'local F1':>9} {'global F1':>10}")
    for k in range(2, args.systems + 1):
        triples_tr = [(f"M{i + 1}", d, t) for i, (d, t) in enumerate(train_systems[:k])]
        triples_te = [(f"M{i + 1}", d, t) for i, (d, t) in enumerate(test_systems[:k])]
        train_pool = build_pool(triples_tr, train_gold, DEFAULT_GAMMA)
        test_pool = build_pool(triples_te, test_gold, DEFAULT_GAMMA)
        extractor = FeatureExtractor(intervals=build_intervals(train_pool))
        train_featured = extractor.extract_pool(train_pool)

        comb = score(solutions_to_props(
            test_pool, oracle_combination(test_pool)), test_gold).f1
        rerank = score(solutions_to_props(
            test_pool, oracle_rerank(test_pool, test_gold)), test_gold).f1

        def decode(model, scope):
            solutions = decode_corpus(test_pool, score_pool(model, test_pool), scope)
            return score(solutions_to_props(test_pool, solutions), test_gold).f1

        svm = train_local_svm(label_datasets(train_featured), extractor=extractor)
        local_f1 = decode(svm, Scope.PRED_BY_PRED)

        examples = make_examples(train_featured, train_gold)
        n_val = max(1, len(examples) // 10)
        global_model, _ = train_global_perceptron(
            examples[:-n_val], scope=Scope.FULL_SENTENCE, extractor=extractor,
            validation=examples[-n_val:])
        global_f1 = decode(global_model, Scope.FULL_SENTENCE)

        print(f"C{k:<5} {comb:>11.2f} {rerank:>14.2f} "
              f"{local_f1:>9.2f} {global_f1:>10.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
