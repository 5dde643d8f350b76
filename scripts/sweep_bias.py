#!/usr/bin/env python3
"""Precision/recall tradeoff of constraint-satisfaction inference over the
bias score O, on a synthetic corpus.  Writes a CSV and prints the table."""

import argparse
import sys

sys.path.insert(0, "src")

from srlcomb.calibrate import DEFAULT_GAMMA, attach_probs
from srlcomb.corpus_io import SyntheticConfig, generate_synthetic
from srlcomb.infer_cs import CsConfig, sweep_bias
from srlcomb.pool import align_gold, build_pool


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--sentences", type=int, default=300)
    ap.add_argument("--gamma", type=float, default=DEFAULT_GAMMA)
    ap.add_argument("--out", default="sweep.csv")
    args = ap.parse_args()

    gold, systems = generate_synthetic(SyntheticConfig(
        n_sentences=args.sentences, seed=args.seed))
    pool = attach_probs(align_gold(build_pool(
        [(f"M{i + 1}", d, t) for i, (d, t) in enumerate(systems)]), gold),
        gamma=args.gamma)
    result = sweep_bias(pool, gold, CsConfig())
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(result.csv())
    print(f"{'O':>5} {'Prec':>8} {'Recall':>8} {'F1':>8}")
    for row in result.rows:
        print(f"{row.bias:>5.2f} {row.precision:>7.2f}% {row.recall:>7.2f}% "
              f"{row.f1:>8.2f}")
    print(f"\nrecall monotone in O: {result.recall_monotone}; wrote {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
