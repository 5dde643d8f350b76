"""Learning-based inference: pick the maximum-confidence consistent structure.

Each sentence's candidates and their trained scorer's margins, in the same
order, go to the one exact decoder, ``infer_cs.decode``, under the cs
engine's predicate-scope rules, hard c1+c2, or under hard c1+c2+c5 at
sentence scope (cross-predicate embedding allowed).  ``decode`` selects only
positive margins, the tie rule at 0, and rejects a margin that is not finite.

``ScoredCandidate`` and the interval dynamic program ``dp_predicate`` are the
independent reference for the predicate scope only; no runtime path calls
them, and perfbench/checks.py imports both.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import STRUCTURAL_RULES, Candidate, LabelKind, Solution
from .infer_cs import Scope, decode, default_constraints
from .pool import CandidatePool

_RULES = {Scope.PRED_BY_PRED: default_constraints(Scope.PRED_BY_PRED),
          Scope.FULL_SENTENCE: STRUCTURAL_RULES}


@dataclass(frozen=True)
class ScoredCandidate:
    """The input of the reference ``dp_predicate``; perfbench/checks.py builds it."""

    candidate: Candidate
    confidence: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.confidence):
            raise ValueError("confidence must be finite")


def dp_predicate(scored: Sequence[ScoredCandidate]) -> Solution:
    """Best disjoint-span selection for one predicate's candidates, with at
    most one candidate per core label A0-A5.

    Exact; complexity is spans times the 64 core-label masks.  The reference
    for ``infer_sentence`` at predicate scope; no runtime path calls it.
    """
    live = sorted((s for s in scored if s.confidence > 0.0),
                  key=lambda s: (s.candidate.span.start, s.candidate.span.end,
                                 -len(s.candidate.votes), s.candidate.label.text))
    sid = scored[0].candidate.sentence_id if scored else 0
    if not live:
        return Solution.make(sid, (), 0.0)
    if len({s.candidate.predicate for s in live}) > 1:
        raise ValueError("dp_predicate expects candidates of a single predicate")

    def core_bit(cand: Candidate) -> int:
        return 1 << cand.label.core_index if cand.label.kind is LabelKind.CORE else 0

    by_start: dict = {}
    for s in live:
        by_start.setdefault(s.candidate.span.start, []).append(s)
    first = min(by_start)
    limit = max(s.candidate.span.end for s in live) + 1

    # table[t][mask]: best (score, selection) using candidates starting at >= t
    # whose core labels avoid the ones already used in `mask`
    empty = (0.0, ())
    table: list = [dict() for _ in range(limit + 2)]
    used_masks = {0}
    for c in live:
        used_masks |= {m | core_bit(c.candidate) for m in list(used_masks)}
    for t in range(limit, first - 1, -1):
        row = table[t]
        for mask in used_masks:
            if t >= limit:
                row[mask] = empty
                continue
            result = table[t + 1][mask]
            for sc in by_start.get(t, ()):
                bit = core_bit(sc.candidate)
                if bit & mask:
                    continue
                nxt = sc.candidate.span.end + 1
                sub_score, sub_sel = table[nxt][mask | bit] if nxt <= limit else empty
                total = sc.confidence + sub_score
                if total > result[0] + 1e-12:
                    result = (total, (sc.candidate,) + sub_sel)
            row[mask] = result
    score, selection = table[first][0]
    return Solution.make(sid, selection, score)


def infer_sentence(candidates: Sequence[Candidate], margins: Sequence[float], scope: Scope,
                   sentence_id: int, node_budget: Optional[int] = None) -> Solution:
    """Decode one sentence's candidates, with their margins in the same
    order, under the rules of ``scope``.  Both scopes enforce c1 and c2:
    same-predicate spans disjoint, no duplicate cores per predicate.  Joint
    decoding adds c5: no crossing between predicates (embedding allowed).
    ``node_budget`` bounds the whole sentence's search."""
    return decode(candidates, margins, _RULES[scope], sentence_id, node_budget=node_budget)[0]


def decode_corpus(pool: CandidatePool, margins: Sequence[Sequence[float]], scope: Scope,
                  node_budget: Optional[int] = None) -> list[Solution]:
    """Decode every pool sentence, one by one, with its row of ``margins``."""
    return [infer_sentence(sent.candidates, sent_margins, scope, sent.sentence_id, node_budget)
            for sent, sent_margins in zip(pool.sentences, margins, strict=True)]
