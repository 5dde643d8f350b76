"""Brute-force selection oracle for the inference tests.

Enumerates every subset of candidates with vectorized numpy and applies the
constraint rules independently of the solver implementation, so agreement
between the two is meaningful evidence of exactness.
"""

import numpy as np

from srlcomb.model import ConstraintSet, LabelKind, SpanRelation, span_relation


def _shared_kind(label) -> bool:
    if label.kind in (LabelKind.ADJUNCT, LabelKind.CONTINUATION):
        return True
    return (label.kind is LabelKind.REFERENCE and label.base is not None
            and label.base.startswith("AM"))


def broken_rules(a, b) -> list:
    """The names of the pairwise rules (c1, c2, c5, c6) that selecting both
    candidates breaks, whether or not a constraint set enforces them."""
    rel = span_relation(a.argument.span, b.argument.span)
    rules = []
    if a.argument.predicate == b.argument.predicate:
        if rel is not SpanRelation.DISJOINT:
            rules.append("c1")
        if (a.argument.label.kind is LabelKind.CORE
                and a.argument.label.text == b.argument.label.text):
            rules.append("c2")
    else:
        if rel is SpanRelation.CROSSING:
            rules.append("c5")
        if (rel is SpanRelation.EQUAL
                and a.argument.label.text == b.argument.label.text
                and _shared_kind(a.argument.label)):
            rules.append("c6")
    return rules


def enumerate_best(candidates, margins, cs: ConstraintSet, constant: float = 0.0):
    """Return (best objective, best selection mask) over all 2^n subsets."""
    n = len(candidates)
    margins = np.asarray(margins, dtype=float)
    masks = np.arange(1 << n, dtype=np.int64)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(np.float64)
    objective = bits @ margins + constant
    feasible = np.ones(len(masks), dtype=bool)

    for i in range(n):
        for j in range(i + 1, n):
            both = (bits[:, i] > 0) & (bits[:, j] > 0)
            for rule in (getattr(cs, cid) for cid in broken_rules(candidates[i], candidates[j])):
                if rule.mode == "hard":
                    feasible &= ~both
                elif rule.mode == "soft":
                    objective -= rule.penalty * both

    for i, c in enumerate(candidates):
        label = c.argument.label
        if label.kind is LabelKind.REFERENCE and cs.c3.active:
            support = np.zeros(len(masks), dtype=bool)
            for j, o in enumerate(candidates):
                if (o.argument.predicate == c.argument.predicate
                        and o.argument.label.text == label.base):
                    support |= bits[:, j] > 0
            broken = (bits[:, i] > 0) & ~support
            if cs.c3.mode == "hard":
                feasible &= ~broken
            else:
                objective -= cs.c3.penalty * broken
        if label.kind is LabelKind.CONTINUATION and cs.c4.active:
            support = np.zeros(len(masks), dtype=bool)
            for j, o in enumerate(candidates):
                if (o.argument.predicate == c.argument.predicate
                        and o.argument.label.text == label.base
                        and o.argument.span.start < c.argument.span.start):
                    support |= bits[:, j] > 0
            broken = (bits[:, i] > 0) & ~support
            if cs.c4.mode == "hard":
                feasible &= ~broken
            else:
                objective -= cs.c4.penalty * broken

    objective[~feasible] = -np.inf
    best = int(np.argmax(objective))
    return float(objective[best]), int(masks[best])
