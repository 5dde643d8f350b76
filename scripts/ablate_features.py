#!/usr/bin/env python3
"""Cumulative feature ablation for the local SVM ranker: train one model per
prefix FS1, FS1-FS2, ..., FS1-FS6 and score each on a held-out corpus."""

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from srlcomb.calibrate import DEFAULT_GAMMA, build_intervals
from srlcomb.corpus_io import SyntheticConfig, generate_synthetic
from srlcomb.evaluate import score
from srlcomb.features import ALL_GROUPS, FeatureConfig, FeatureExtractor
from srlcomb.infer_cs import Scope
from srlcomb.infer_dp import decode_corpus
from srlcomb.learn import label_datasets, score_pool, train_local_svm
from srlcomb.pool import build_pool, solutions_to_props


def build_world(n_sentences, seed):
    gold, systems = generate_synthetic(SyntheticConfig(
        n_sentences=n_sentences, seed=seed))
    pool = build_pool([(f"M{i + 1}", d, t) for i, (d, t) in enumerate(systems)],
                      gold, DEFAULT_GAMMA)
    return gold, pool


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--train-sentences", type=int, default=200)
    ap.add_argument("--test-sentences", type=int, default=300)
    args = ap.parse_args()

    train_gold, train_pool = build_world(args.train_sentences, args.seed + 1)
    test_gold, test_pool = build_world(args.test_sentences, args.seed + 2)
    intervals = build_intervals(train_pool)

    print(f"{'features':<14} {'PProps':>8} {'Prec':>8} {'Recall':>8} {'F1':>8}")
    for k in range(1, len(ALL_GROUPS) + 1):
        config = FeatureConfig(groups=ALL_GROUPS[:k])
        extractor = FeatureExtractor(config)
        train_featured = extractor.extract_pool(train_pool, intervals=intervals)
        test_featured = extractor.extract_pool(test_pool, intervals=intervals)
        model = train_local_svm(label_datasets(train_featured),
                                space=extractor.space, feature_config=config,
                                intervals=intervals)
        solutions = decode_corpus(score_pool(model, test_featured),
                                  [sp.sentence_id for sp in test_featured.sentences],
                                  Scope.PRED_BY_PRED)
        report = score(solutions_to_props(test_featured, solutions), test_gold)
        name = "FS1" if k == 1 else f"+ {ALL_GROUPS[k - 1]}"
        print(f"{name:<14} {report.pprops:>7.2f}% {report.precision:>7.2f}% "
              f"{report.recall:>7.2f}% {report.f1:>8.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
