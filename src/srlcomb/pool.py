"""Merge per-system solutions into a unique candidate-argument pool.

Candidates are deduplicated on exact (predicate, label, span); votes and raw
scores are merged, V pseudo-arguments stay out of the pool.  Gold alignment
marks each candidate as correct or not, which feeds the oracles, the training
targets, and the agreement statistics.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .corpus_io import (
    AlignmentError,
    FormatError,
    PropsDocument,
    PropsSentence,
    ScoreTable,
    check_skeleton,
)
from .model import Argument, Candidate, RoleLabel, Solution, Span, V_LABEL


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


def build_pool(systems: Sequence[tuple[str, PropsDocument, Optional[ScoreTable]]]) -> CandidatePool:
    """Pool the outputs of several systems over one shared skeleton.  A score
    record that names no argument of its own system is an AlignmentError."""
    if not systems:
        raise ValueError("need at least one system")
    ids = [sid for sid, _, _ in systems]
    if len(set(ids)) != len(ids):
        raise ValueError("duplicate system ids")
    check_skeleton([doc for _, doc, _ in systems])

    first = systems[0][1]
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
        candidates = tuple(
            Candidate.make(s, arg, votes=votes, raw_scores=raws)
            for _key, (arg, votes, raws) in sorted(merged.items()))
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
    _check_pool_skeleton(pool, gold)
    keys = gold_keys(gold)
    return pool.with_candidates([
        [Candidate(c.sentence_id, c.argument, c.votes, c.raw_scores, c.probs,
                   c.features, c.key in keys[sent.sentence_id])
         for c in sent.candidates]
        for sent in pool.sentences])


def _check_pool_skeleton(pool: CandidatePool, doc: PropsDocument) -> None:
    if len(doc) != len(pool.sentences):
        raise AlignmentError(
            f"sentence counts differ: pool {len(pool.sentences)} vs document {len(doc)}")
    for sp, ds in zip(pool.sentences, doc.sentences):
        if sp.n_tokens != ds.n_tokens or sp.predicates != ds.predicates:
            raise AlignmentError(f"sentence {sp.sentence_id}: skeletons differ")


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


def load_pool(text: str) -> CandidatePool:
    """Read a pool that ``dump_pool`` wrote.  Text that is not JSON raises
    json's ValueError; a document of another shape, a FormatError that names
    what is wrong."""
    doc = json.loads(text)
    systems = _field(doc, "systems", list, "pool")
    _check_items(systems, str, "pool: 'systems'")
    sentences = []
    for s, sent in enumerate(_field(doc, "sentences", list, "pool")):
        where = f"pool sentence {s}"
        sentence_id = _field(sent, "id", int, where)
        predicates = _field(sent, "predicates", list, where)
        if not all(type(p) is list and len(p) == 2 and type(p[0]) is int and type(p[1]) is str
                   for p in predicates):
            raise FormatError(f"{where}: each predicate must be [index, lemma]")
        candidates = []
        for k, c in enumerate(_field(sent, "candidates", list, where)):
            at = f"{where}, candidate {k}"
            span = _field(c, "span", list, at)
            if len(span) != 2:
                raise FormatError(f"{at}: 'span' must be [start, end]")
            _check_items(span, int, f"{at}: 'span'")
            votes = _field(c, "votes", list, at)
            _check_items(votes, str, f"{at}: 'votes'")
            raw_scores, probs = _field(c, "raw_scores", dict, at), _field(c, "probs", dict, at)
            for name, values in (("raw_scores", raw_scores), ("probs", probs)):
                _check_items(values.values(), (int, float), f"{at}: {name!r}")
            candidates.append(Candidate.make(
                sentence_id,
                Argument(_field(c, "predicate", int, at),
                         RoleLabel.parse(_field(c, "label", str, at)), Span(*span)),
                votes=votes, raw_scores=raw_scores, probs=probs,
                is_gold=_field(c, "is_gold", (bool, type(None)), at)))
        sentences.append(SentencePool(
            sentence_id, _field(sent, "n_tokens", int, where),
            tuple((i, lemma) for i, lemma in predicates),
            tuple(sorted(candidates, key=lambda c: c.key))))
    return CandidatePool(tuple(systems), tuple(sentences))


def _field(obj, key: str, kinds, where: str):
    """``obj[key]``, which must exist and have exactly one of the types
    ``kinds``; ``obj`` must be a JSON object."""
    if type(obj) is not dict:
        raise FormatError(f"{where} must be a JSON object")
    if key not in obj:
        raise FormatError(f"{where} lacks {key!r}")
    value = obj[key]
    _check_items((value,), kinds, f"{where}: {key!r}")
    return value


def _check_items(values, kinds, what: str) -> None:
    """Each of ``values`` has exactly one of the types ``kinds``; a bool is
    no int here."""
    kinds = kinds if isinstance(kinds, tuple) else (kinds,)
    for value in values:
        if type(value) not in kinds:
            raise FormatError(
                f"{what} holds {json.dumps(value)[:40]}, which is no "
                f"{' or '.join(k.__name__ for k in kinds)}")
