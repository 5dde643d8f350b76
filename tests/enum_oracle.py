"""Brute-force selection oracle and rule checker for the inference tests.

Enumerates every subset of candidates with vectorized numpy and applies the
constraint rules independently of the solver implementation, so agreement
between the two is meaningful evidence of exactness.  ``violations`` checks
one selection by the same rules, and ``tie_rule_best`` applies the tie rule
among all optimal subsets; nothing here calls the solver's own
``pair_rules``, ``licenses`` or tie signature.
"""

from enum import Enum

import numpy as np

from srlcomb.model import ConstraintSet, LabelKind, Span


class SpanRelation(Enum):
    EQUAL = "equal"
    DISJOINT = "disjoint"
    A_CONTAINS_B = "a_contains_b"
    B_CONTAINS_A = "b_contains_a"
    CROSSING = "crossing"


def span_relation(a: Span, b: Span) -> SpanRelation:
    """Classify two spans; exactly one relation holds for any pair."""
    if a == b:
        return SpanRelation.EQUAL
    if not a.intersects(b):
        return SpanRelation.DISJOINT
    if a.contains(b):
        return SpanRelation.A_CONTAINS_B
    if b.contains(a):
        return SpanRelation.B_CONTAINS_A
    return SpanRelation.CROSSING


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


def _supports(base, dependent) -> bool:
    """Whether ``base`` is an argument that the R-/C- ``dependent`` needs:
    its X, of the same predicate, and for a C-X one that starts earlier."""
    label = dependent.argument.label
    return (base.argument.predicate == dependent.argument.predicate
            and base.argument.label.text == label.base
            and (label.kind is LabelKind.REFERENCE
                 or base.argument.span.start < dependent.argument.span.start))


def _existential_rule(label):
    return {LabelKind.REFERENCE: "c3", LabelKind.CONTINUATION: "c4"}.get(label.kind)


def violations(selected, cs: ConstraintSet) -> list:
    """(name, rule) for each break of an active rule in a selection: one per
    offending pair for c1, c2, c5 and c6, one per R-/C- candidate without a
    base for c3 and c4.  A hard rule's break makes the selection infeasible;
    a soft one's costs the rule's penalty."""
    selected = list(selected)
    out = []
    for i, a in enumerate(selected):
        for b in selected[i + 1:]:
            out += [(cid, cs.rule(cid)) for cid in broken_rules(a, b) if cs.rule(cid).active]
    for c in selected:
        cid = _existential_rule(c.argument.label)
        if cid is not None and cs.rule(cid).active and not any(
                _supports(o, c) for o in selected):
            out.append((cid, cs.rule(cid)))
    return out


def hard_violations(selected, cs: ConstraintSet) -> list:
    """The names of the hard rules that a selection breaks; empty when it
    is feasible."""
    return [cid for cid, rule in violations(selected, cs) if rule.mode == "hard"]


def assert_feasible(solutions, pool, cs: ConstraintSet) -> None:
    """One solution per pool sentence, each made of that sentence's
    candidates and breaking no hard rule of ``cs``."""
    assert len(solutions) == len(pool.sentences)
    for sol, spool in zip(solutions, pool.sentences):
        assert sol.sentence_id == spool.sentence_id
        assert set(sol.selected) <= set(spool.candidates)
        assert hard_violations(sol.selected, cs) == []


def _subset_objectives(candidates, margins, cs: ConstraintSet, constant: float):
    """(masks, objective of each mask) over all 2^n subsets; an infeasible
    subset scores -inf."""
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
        cid = _existential_rule(c.argument.label)
        rule = cs.rule(cid) if cid is not None else None
        if rule is None or not rule.active:
            continue
        support = np.zeros(len(masks), dtype=bool)
        for j, o in enumerate(candidates):
            if _supports(o, c):
                support |= bits[:, j] > 0
        broken = (bits[:, i] > 0) & ~support
        if rule.mode == "hard":
            feasible &= ~broken
        else:
            objective -= rule.penalty * broken

    objective[~feasible] = -np.inf
    return masks, objective


def enumerate_best(candidates, margins, cs: ConstraintSet, constant: float = 0.0):
    """Return (best objective, best selection mask) over all 2^n subsets."""
    masks, objective = _subset_objectives(candidates, margins, cs, constant)
    best = int(np.argmax(objective))
    return float(objective[best]), int(masks[best])


def tie_rule_best(candidates, margins, cs: ConstraintSet, constant: float = 0.0,
                  tol: float = 1e-9):
    """(best objective, the optimal selection the tie rule picks, number of
    optimal subsets).  Among the subsets within ``tol`` of the optimum the
    rule takes the fewest candidates, then the least sorted tuple of
    (-votes, start, label, end, predicate) entries, one per candidate."""
    masks, objective = _subset_objectives(candidates, margins, cs, constant)
    best = float(objective.max())
    entries = [(-len(c.votes), c.argument.span.start, c.argument.label.text,
                c.argument.span.end, c.argument.predicate) for c in candidates]
    ranked = []
    for mask in masks[objective >= best - tol].tolist():
        members = [i for i in range(len(candidates)) if mask >> i & 1]
        ranked.append((len(members), sorted(entries[i] for i in members), members))
    _size, _entries, members = min(ranked)
    return best, {candidates[i] for i in members}, len(ranked)
