"""Merge per-system solutions into a unique candidate-argument pool.

Candidates are deduplicated on exact (predicate, label, span); votes and raw
scores are merged, V pseudo-arguments stay out of the pool.  Gold alignment
marks each candidate as correct or not, which feeds the oracles, the training
targets, and the agreement statistics.  ``build_pool`` sets gold flags and
calibrated probabilities as it makes each candidate; ``align_gold`` and
``calibrate.attach_probs`` do the same to a pool built without them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .calibrate import system_probs
from .corpus_io import (
    AlignmentError,
    PropsDocument,
    PropsSentence,
    ScoreTable,
    check_skeleton,
)
from .model import Argument, Candidate, Solution, Span, V_LABEL


@dataclass(frozen=True)
class SentencePool:
    """One sentence's skeleton and its candidates, in key order."""

    sentence_id: int
    n_tokens: int
    predicates: tuple[tuple[int, str], ...]
    candidates: tuple[Candidate, ...]

    def by_predicate(self, predicate: int) -> tuple[Candidate, ...]:
        return tuple(c for c in self.candidates if c.predicate == predicate)

    def gold_candidates(self) -> tuple[Candidate, ...]:
        return tuple(c for c in self.candidates if c.is_gold)


@dataclass(frozen=True)
class CandidatePool:
    """All candidates of a corpus plus the system roster that produced them."""

    system_ids: tuple[str, ...]
    sentences: tuple[SentencePool, ...]
    feature_digest: Optional[str] = None
    feature_space: Optional[object] = None

    @property
    def m(self) -> int:
        return len(self.system_ids)

    def __len__(self) -> int:
        return len(self.sentences)

    def all_candidates(self) -> Iterable[Candidate]:
        for sent in self.sentences:
            yield from sent.candidates

    def is_aligned(self) -> bool:
        return all(c.is_gold is not None for c in self.all_candidates())

    def with_candidates(self, per_sentence: Sequence[Sequence[Candidate]],
                        feature_digest: Optional[str] = None,
                        feature_space: Optional[object] = None) -> "CandidatePool":
        """This pool with each sentence's candidates replaced by new ones in
        key order, such as a one-to-one rebuild of its own candidates."""
        sentences = tuple(
            SentencePool(sp.sentence_id, sp.n_tokens, sp.predicates, tuple(cands))
            for sp, cands in zip(self.sentences, per_sentence))
        return CandidatePool(self.system_ids, sentences,
                             feature_digest or self.feature_digest,
                             feature_space or self.feature_space)


def build_pool(systems: Sequence[tuple[str, PropsDocument, Optional[ScoreTable]]],
               gold: Optional[PropsDocument] = None,
               gamma: Optional[float] = None) -> CandidatePool:
    """Pool the outputs of several systems over one shared skeleton.  With
    ``gold``, which must share that skeleton, each candidate carries its
    is_gold flag; with the softmax temperature ``gamma``, its per-system
    probabilities (``calibrate.system_probs``).  A score record that names no
    argument of its own system is an AlignmentError."""
    if not systems:
        raise ValueError("need at least one system")
    ids = [sid for sid, _, _ in systems]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate system ids")
    check_skeleton([doc for _, doc, _ in systems])

    first = systems[0][1]
    keys = None if gold is None else _checked_gold_keys(first.sentences, gold)
    sentences = []
    matched = dict.fromkeys(ids, 0)     # score records that name an argument
    for s, skeleton in enumerate(first.sentences):
        merged: dict = {}      # key -> (argument, votes, raw scores)
        for sid, doc, table in systems:
            sent = doc.sentences[s]
            for p in range(len(sent.predicates)):
                for arg in sent.scored_arguments(p):
                    key = (s, p, arg.label.text, arg.span)
                    entry = merged.get(key)
                    if entry is None:
                        entry = merged[key] = (arg, set(), {})
                    elif sid in entry[1]:
                        continue    # the system repeats an argument
                    entry[1].add(sid)
                    score = table.get(key) if table is not None else None
                    if score is not None:
                        entry[2][sid] = score
                        matched[sid] += 1
        gold_here = keys[s] if keys is not None else None
        candidates = tuple(
            Candidate(s, arg, frozenset(votes), tuple(raws.items()),
                      system_probs(votes, raws, gamma) if gamma is not None else (),
                      None, key in gold_here if gold_here is not None else None)
            for key, (arg, votes, raws) in sorted(merged.items()))
        sentences.append(SentencePool(s, skeleton.n_tokens, skeleton.predicates, candidates))
    for sid, doc, table in systems:
        if table is not None and len(table) > matched[sid]:
            # each record matched at most once, so some record is unmatched
            proposed = {(s, p, a.label.text, a.span)
                        for s, sent in enumerate(doc.sentences)
                        for p in range(len(sent.predicates)) for a in sent.scored_arguments(p)}
            sent, pred, label, span = min(set(table) - proposed)
            raise AlignmentError(
                f"system {sid}: score record {sent} {pred} {label} {span.start} {span.end} "
                f"names no argument of its props")
    return CandidatePool(tuple(ids), tuple(sentences))


def gold_keys(gold: PropsDocument) -> list[frozenset]:
    out = []
    for s, sent in enumerate(gold.sentences):
        out.append(frozenset(
            (s, p, a.label.text, a.span)
            for p in range(len(sent.predicates)) for a in sent.scored_arguments(p)))
    return out


def align_gold(pool: CandidatePool, gold: PropsDocument) -> CandidatePool:
    """Return a pool whose candidates carry is_gold flags."""
    keys = _checked_gold_keys(pool.sentences, gold)
    return pool.with_candidates([
        [c.with_gold(c.key in keys[sent.sentence_id]) for c in sent.candidates]
        for sent in pool.sentences])


def _checked_gold_keys(skeleton: Sequence, gold: PropsDocument) -> list[frozenset]:
    """``gold_keys(gold)`` once gold is known to have the sentences of
    ``skeleton``, each with the same token count and predicates."""
    if len(gold) != len(skeleton):
        raise AlignmentError(
            f"sentence counts differ: pool {len(skeleton)} vs document {len(gold)}")
    for s, (sk, gs) in enumerate(zip(skeleton, gold.sentences)):
        if sk.n_tokens != gs.n_tokens or sk.predicates != gs.predicates:
            raise AlignmentError(f"sentence {s}: skeletons differ")
    return gold_keys(gold)


@dataclass(frozen=True)
class PoolStats:
    """Per-label distribution of correct candidates by system agreement."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[float, ...]], ...]   # label -> percentages
    counts: tuple[tuple[str, tuple[int, ...]], ...]

    def text_table(self) -> str:
        widths = [max(len("label"), *(len(r[0]) for r in self.rows))] if self.rows else [5]
        header = ["label"] + [f"{c:>10}" for c in self.columns]
        lines = ["  ".join([header[0].ljust(widths[0])] + header[1:])]
        for label, pcts in self.rows:
            cells = [label.ljust(widths[0])] + [f"{p:>9.2f}%" for p in pcts]
            lines.append("  ".join(cells))
        return "\n".join(lines)


def pool_stats(pool: CandidatePool) -> PoolStats:
    """Agreement table over gold candidates: full / partial / single-system."""
    if not pool.is_aligned():
        raise ValueError("pool_stats requires gold alignment (run align_gold first)")
    m = pool.m
    columns = tuple(f"∩ of {k}" for k in range(m, 1, -1)) + pool.system_ids

    def column_of(cand: Candidate) -> str:
        v = len(cand.votes)
        if v >= 2:
            return f"∩ of {v}"
        return next(iter(cand.votes))

    per_label: dict = {}
    for cand in pool.all_candidates():
        if cand.is_gold:
            row = per_label.setdefault(cand.label.text, {c: 0 for c in columns})
            row[column_of(cand)] += 1
    rows = []
    counts = []
    for label in sorted(per_label):
        row = per_label[label]
        total = sum(row.values())
        counts.append((label, tuple(row[c] for c in columns)))
        rows.append((label, tuple(100.0 * row[c] / total for c in columns)))
    return PoolStats(columns, tuple(rows), tuple(counts))


def solutions_to_props(pool: CandidatePool, solutions: Sequence[Solution]) -> PropsDocument:
    """Turn per-sentence solutions back into a props document over the pool skeleton."""
    by_id = {sol.sentence_id: sol for sol in solutions}
    sentences = []
    for sent in pool.sentences:
        per_pred: list[list[Argument]] = [
            [Argument(p, V_LABEL, Span(pos, pos))]
            for p, (pos, _lemma) in enumerate(sent.predicates)]
        sol = by_id.get(sent.sentence_id)
        if sol is not None:
            for cand in sol.selected:
                per_pred[cand.predicate].append(cand.argument)
        sentences.append(PropsSentence(
            sent.n_tokens, sent.predicates, tuple(tuple(a) for a in per_pred)))
    return PropsDocument(tuple(sentences))


# ---------------------------------------------------------------------------
# Pool dump (JSON, line oriented enough for diffing)


def dump_pool(pool: CandidatePool) -> str:
    doc = {
        "systems": list(pool.system_ids),
        "sentences": [
            {
                "id": sent.sentence_id,
                "n_tokens": sent.n_tokens,
                "predicates": [[i, lemma] for i, lemma in sent.predicates],
                "candidates": [
                    {
                        "predicate": c.predicate,
                        "label": c.label.text,
                        "span": [c.span.start, c.span.end],
                        "votes": sorted(c.votes),
                        "raw_scores": {k: v for k, v in c.raw_scores},
                        "probs": {k: v for k, v in c.probs},
                        "is_gold": c.is_gold,
                    }
                    for c in sent.candidates
                ],
            }
            for sent in pool.sentences
        ],
    }
    return json.dumps(doc, indent=1, sort_keys=True)
