"""Learning-based inference: pick the maximum-confidence consistent structure.

Per predicate, a bottom-up interval dynamic program selects pairwise-disjoint
spans; a 2^6 mask over core labels inside the state makes the no-duplicate
rule exact rather than repaired afterwards.  Sentence-level decoding with
cross-predicate embedding delegates to the exact branch-and-bound optimizer,
since hierarchical embedding breaks the interval decomposition.

Candidates with confidence <= 0 can never improve the objective and are
filtered up front, which is also the documented tie rule at score 0.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

from .model import STRUCTURAL_RULES, Candidate, LabelKind, Solution
from .infer_cs import Scope, map_sentences, optimize


@dataclass(frozen=True)
class ScoredCandidate:
    candidate: Candidate
    confidence: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.confidence):
            raise ValueError("confidence must be finite")


def _canonical(scored: Sequence[ScoredCandidate]) -> list[ScoredCandidate]:
    return sorted(scored, key=lambda s: (s.candidate.span.start, s.candidate.span.end,
                                         -len(s.candidate.votes), s.candidate.label.text))


def dp_predicate(scored: Sequence[ScoredCandidate],
                 enforce_no_dup_core: bool = True,
                 sentence_id: Optional[int] = None) -> Solution:
    """Best disjoint-span selection for one predicate's candidates.

    With the flag on, at most one candidate per core label A0-A5 survives.
    Exact; complexity is spans times the 64 core-label masks.
    """
    live = _canonical([s for s in scored if s.confidence > 0.0])
    if sentence_id is None:
        sid = (scored[0].candidate.sentence_id if scored else 0)
    else:
        sid = sentence_id
    if not live:
        return Solution.make(sid, (), 0.0)
    predicates = {s.candidate.predicate for s in live}
    if len(predicates) > 1:
        raise ValueError("dp_predicate expects candidates of a single predicate")

    def core_bit(cand: Candidate) -> int:
        if enforce_no_dup_core and cand.label.kind is LabelKind.CORE:
            return 1 << cand.label.core_index
        return 0

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


def infer_sentence(scored: Sequence[ScoredCandidate], scope: Scope | str,
                   sentence_id: Optional[int] = None,
                   node_budget: Optional[int] = None) -> Solution:
    """Decode one sentence predicate by predicate, or jointly.

    ``scope`` is a Scope or its value, "pred" or "sentence".  Joint decoding
    enforces c1, c2 and c5: same-predicate spans disjoint, no duplicate cores
    per predicate, and no crossing between predicates (embedding allowed).
    """
    scope = Scope(scope)
    if sentence_id is None:
        sentence_id = scored[0].candidate.sentence_id if scored else 0
    if scope is Scope.FULL_SENTENCE:
        live = _canonical([s for s in scored if s.confidence > 0.0])
        if not live:
            return Solution.make(sentence_id, (), 0.0)
        chosen, objective, _ = optimize([s.candidate for s in live],
                                        [s.confidence for s in live],
                                        STRUCTURAL_RULES, 0.0, node_budget)
        return Solution.make(sentence_id, chosen, objective)
    selected: list[Candidate] = []
    objective = 0.0
    for p in sorted({s.candidate.predicate for s in scored}):
        sol = dp_predicate([s for s in scored if s.candidate.predicate == p],
                           True, sentence_id)
        selected += list(sol.selected)
        objective += sol.objective
    return Solution.make(sentence_id, selected, objective)


def decode_corpus(scored_lists: Sequence[Sequence[ScoredCandidate]],
                  sentence_ids: Sequence[int], scope: Scope | str, jobs: int = 1,
                  node_budget: Optional[int] = None) -> list[Solution]:
    """Decode many sentences, over `jobs` processes."""
    return map_sentences(infer_sentence,
                         [(list(sc), scope, sid, node_budget)
                          for sc, sid in zip(scored_lists, sentence_ids)], jobs)
