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
import math
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .calibrate import two_class_prob
from .corpus_io import (
    AlignmentError,
    PropsDocument,
    PropsSentence,
    ScoreTable,
    check_skeleton,
)
from .model import Argument, Candidate, CandidateKey, LabelKind, Solution, Span, V_LABEL

_VERB = LabelKind.VERB


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

    def with_candidates(self, per_sentence: Sequence[Sequence[Candidate]]) -> "CandidatePool":
        """This pool with each sentence's candidates replaced by new ones in
        key order, such as a one-to-one rebuild of its own candidates."""
        sentences = tuple(
            SentencePool(sp.sentence_id, sp.n_tokens, sp.predicates, tuple(cands))
            for sp, cands in zip(self.sentences, per_sentence))
        return CandidatePool(self.system_ids, sentences)


def build_pool(systems: Sequence[tuple[str, PropsDocument, Optional[ScoreTable]]],
               gold: Optional[PropsDocument] = None,
               gamma: Optional[float] = None) -> CandidatePool:
    """Pool the outputs of several systems over one shared skeleton.  With
    ``gold``, which must share that skeleton, each candidate carries its
    is_gold flag; with the softmax temperature ``gamma``, its per-system
    probabilities, as ``calibrate.system_probs`` gives them.  A score record
    that names no argument of its own system is an AlignmentError.

    Each candidate is made once, without the checks of ``Candidate``'s
    constructor: its votes, scores and probabilities come from voting
    systems only, merged in id order.  The pool holds one vote set per vote
    pattern, which every candidate with that pattern shares."""
    if not systems:
        raise ValueError("need at least one system")
    ids = [sid for sid, _, _ in systems]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate system ids")
    named = [(f"system {sid}", doc) for sid, doc, _ in systems]
    check_skeleton(named if gold is None else named + [("gold", gold)])
    if gamma is not None and not math.isfinite(gamma):
        raise ValueError("gamma must be finite")    # as two_class_prob would

    keys = None if gold is None else gold_keys(gold)
    tables = [table if table is not None else {} for _, _, table in systems]
    matched = [0] * len(systems)    # score records that name an argument
    # merged in id order, so that each candidate's votes, raw scores and
    # probabilities come out in system order
    order = sorted(range(len(systems)), key=ids.__getitem__)
    vote_sets: dict = {}    # votes in system order -> their one frozenset
    sentences = []
    for s, skeleton in enumerate(systems[0][1].sentences):
        merged: dict = {}      # key -> (argument, votes, raw scores, probabilities)
        for j in order:
            sid, doc, _ = systems[j]
            scores = tables[j]
            for p, args in enumerate(doc.sentences[s].arguments):
                for arg in args:
                    label = arg.label
                    if label.kind is _VERB:
                        continue
                    key = (s, p, label.text, arg.span)
                    entry = merged.get(key)
                    if entry is None:
                        entry = merged[key] = (arg, [], [], [])
                    elif entry[1][-1] == sid:
                        continue    # the system repeats an argument: its vote is the last
                    entry[1].append(sid)
                    score = scores.get(key)
                    if score is not None:
                        entry[2].append((sid, score))
                        matched[j] += 1
                        if gamma is not None:
                            entry[3].append((sid, two_class_prob(score, gamma)))
                    elif gamma is not None:
                        # no score: the background level 0, of probability exactly 0.5
                        entry[3].append((sid, 0.5))
        gold_here = keys[s] if keys is not None else None
        candidates = []
        for key in sorted(merged, key=_plain_order):
            arg, votes, raws, probs = merged[key]
            votes = tuple(votes)
            vote_set = vote_sets.get(votes)
            if vote_set is None:
                vote_set = vote_sets[votes] = frozenset(votes)
            candidates.append(Candidate._trusted(
                s, arg, vote_set, tuple(raws), tuple(probs), None,
                key in gold_here if gold_here is not None else None, key))
        sentences.append(SentencePool(s, skeleton.n_tokens, skeleton.predicates,
                                      tuple(candidates)))
    for (sid, doc, _), scores, found in zip(systems, tables, matched):
        if len(scores) > found:
            # each record matched at most once, so some record is unmatched
            sent, pred, label, span = min(set(scores).difference(*gold_keys(doc)))
            raise AlignmentError(
                f"system {sid}: score record {sent} {pred} {label} {span.start} {span.end} "
                f"names no argument of its props")
    return CandidatePool(tuple(ids), tuple(sentences))


def _plain_order(key: CandidateKey) -> tuple:
    """The order of one sentence's candidate keys, (predicate, label, start,
    end), as plain values: cheaper to compare than the keys' spans."""
    span = key[3]
    return key[1], key[2], span.start, span.end


def gold_keys(doc: PropsDocument) -> list[frozenset]:
    """The candidate keys of each sentence's arguments, V left out; of a
    gold document, the keys of the correct candidates."""
    return [frozenset((s, p, a.label.text, a.span)
                      for p, args in enumerate(sent.arguments)
                      for a in args if a.label.kind is not _VERB)
            for s, sent in enumerate(doc.sentences)]


def align_gold(pool: CandidatePool, gold: PropsDocument) -> CandidatePool:
    """Return a pool whose candidates carry is_gold flags."""
    check_skeleton([("pool", pool), ("gold", gold)])
    keys = gold_keys(gold)
    return pool.with_candidates([
        [c.with_gold(c.key in keys[sent.sentence_id]) for c in sent.candidates]
        for sent in pool.sentences])


@dataclass(frozen=True)
class PoolStats:
    """Per-label distribution of correct candidates by system agreement."""

    columns: tuple[str, ...]
    rows: tuple[tuple[str, tuple[float, ...]], ...]   # label -> percentages

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
        raise ValueError("pool_stats needs gold flags: build the pool with gold")
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
    for label in sorted(per_label):
        row = per_label[label]
        total = sum(row.values())
        rows.append((label, tuple(100.0 * row[c] / total for c in columns)))
    return PoolStats(columns, tuple(rows))


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
