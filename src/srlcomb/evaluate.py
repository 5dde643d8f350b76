"""Scoring, bootstrap significance, oracle upper bounds, and the two
baseline combiners.

An argument counts as correct iff its (predicate, label, span) matches gold
exactly after the continuation repair pass: within each predicate, a C-X
with no earlier selected X is relabeled X before comparison.  V is never
scored.  Empty predictions score precision 100 by convention, so F1 goes to
0 through recall.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .calibrate import linear_quantile
from .corpus_io import PropsDocument, check_skeleton
from .model import (
    STRUCTURAL_RULES,
    Candidate,
    LabelKind,
    RoleLabel,
    Solution,
    Span,
    pair_rules,
)
from .pool import CandidatePool, gold_keys


def repair_continuations(args: Sequence[tuple[RoleLabel, Span]]) -> list[tuple[RoleLabel, Span]]:
    """Relabel each C-X without a preceding X to X, in span order. Idempotent."""
    ordered = sorted(args, key=lambda a: (a[1].start, a[1].end, a[0].text))
    seen: set = set()
    out = []
    for label, span in ordered:
        if label.kind is LabelKind.CONTINUATION and label.base not in seen:
            label = RoleLabel.parse(label.base)
        seen.add(label.text)
        out.append((label, span))
    return out


@dataclass(frozen=True)
class LabelScore:
    correct: int
    predicted: int
    gold: int

    @property
    def precision(self) -> float:
        return _prf(self.correct, self.predicted, self.gold)[0]

    @property
    def recall(self) -> float:
        return _prf(self.correct, self.predicted, self.gold)[1]

    @property
    def f1(self) -> float:
        return _prf(self.correct, self.predicted, self.gold)[2]


@dataclass(frozen=True)
class ScoreReport:
    precision: float
    recall: float
    f1: float
    pprops: float
    per_label: dict
    n_sentences: int
    n_predicates: int
    per_sentence: tuple     # (correct, predicted, gold) per sentence, for bootstrap

    def text_table(self) -> str:
        lines = [f"{'label':<10} {'correct':>8} {'pred':>8} {'gold':>8} "
                 f"{'prec':>8} {'recall':>8} {'f1':>8}"]
        for label in sorted(self.per_label):
            s = self.per_label[label]
            lines.append(f"{label:<10} {s.correct:>8} {s.predicted:>8} {s.gold:>8} "
                         f"{s.precision:>8.2f} {s.recall:>8.2f} {s.f1:>8.2f}")
        lines.append(f"{'overall':<10} {'':>8} {'':>8} {'':>8} "
                     f"{self.precision:>8.2f} {self.recall:>8.2f} {self.f1:>8.2f}")
        lines.append(f"PProps: {self.pprops:.2f}%  ({self.n_predicates} predicates, "
                     f"{self.n_sentences} sentences)")
        return "\n".join(lines)

    def csv(self) -> str:
        lines = ["label,correct,predicted,gold,precision,recall,f1"]
        for label in sorted(self.per_label):
            s = self.per_label[label]
            lines.append(f"{label},{s.correct},{s.predicted},{s.gold},"
                         f"{s.precision:.4f},{s.recall:.4f},{s.f1:.4f}")
        lines.append(f"overall,,,,{self.precision:.4f},{self.recall:.4f},{self.f1:.4f}")
        return "\n".join(lines) + "\n"


def _sentence_counts(predicted: PropsDocument, gold: PropsDocument):
    """Per-sentence (correct, predicted, gold) plus per-label and frame stats."""
    check_skeleton([("prediction", predicted), ("gold", gold)])
    per_sentence = []
    per_label: dict = defaultdict(lambda: [0, 0, 0])     # [correct, predicted, gold]
    perfect = 0
    n_predicates = 0
    for psent, gsent in zip(predicted.sentences, gold.sentences):
        correct = n_pred = n_gold = 0
        for p in range(len(gsent.predicates)):
            n_predicates += 1
            pred_args = repair_continuations(
                [(a.label, a.span) for a in psent.scored_arguments(p)])
            gold_args = [(a.label, a.span) for a in gsent.scored_arguments(p)]
            pred_set = {(l.text, s) for l, s in pred_args}
            gold_set = {(l.text, s) for l, s in gold_args}
            matched = pred_set & gold_set
            correct += len(matched)
            n_pred += len(pred_set)
            n_gold += len(gold_set)
            if pred_set == gold_set:
                perfect += 1
            for l, _ in pred_set:
                per_label[l][1] += 1
            for l, _ in gold_set:
                per_label[l][2] += 1
            for l, _ in matched:
                per_label[l][0] += 1
        per_sentence.append((correct, n_pred, n_gold))
    return per_sentence, per_label, perfect, n_predicates


def _prf(correct: int, predicted: int, gold: int) -> tuple[float, float, float]:
    p = 100.0 * correct / predicted if predicted else 100.0
    r = 100.0 * correct / gold if gold else 100.0
    f = 2.0 * p * r / (p + r) if p + r else 0.0
    return p, r, f


def score(predicted: PropsDocument, gold: PropsDocument) -> ScoreReport:
    """Precision/recall/F1/PProps of a predicted document against gold."""
    per_sentence, per_label, perfect, n_predicates = (
        _sentence_counts(predicted, gold))
    correct = sum(c for c, _, _ in per_sentence)
    n_pred = sum(p for _, p, _ in per_sentence)
    n_gold = sum(g for _, _, g in per_sentence)
    p, r, f = _prf(correct, n_pred, n_gold)
    return ScoreReport(
        precision=p, recall=r, f1=f,
        pprops=100.0 * perfect / n_predicates if n_predicates else 100.0,
        per_label={lab: LabelScore(*c) for lab, c in per_label.items()},
        n_sentences=len(gold.sentences),
        n_predicates=n_predicates,
        per_sentence=tuple(per_sentence))


# ---------------------------------------------------------------------------
# Bootstrap significance


BOOTSTRAP_LEVEL = 0.95
_BOOTSTRAP_BLOCK = 64     # resamples drawn and summed at a time


@dataclass(frozen=True)
class BootstrapResult:
    f1: float
    half_width: float
    b: int
    lower: float
    upper: float

    def formatted(self) -> str:
        return f"{self.f1:.2f} ±{self.half_width:.1f}"


def bootstrap(report: ScoreReport, b: int = 1000, seed: int = 0) -> BootstrapResult:
    """95% percentile interval for F1 from resampling the report's sentences.
    With no sentences the interval is the point F1 itself.

    The (b, n) resample matrix is drawn and summed _BOOTSTRAP_BLOCK rows at a
    time from one generator.  PCG64 keeps the unused half of a 64-bit draw
    in its state, so the blocks continue one stream and give the draws of a
    single (b, n) call, while memory holds one block and the b F1 values."""
    if b < 100:
        raise ValueError("need at least 100 resamples")
    n = len(report.per_sentence)
    if n == 0:
        return BootstrapResult(report.f1, 0.0, b, report.f1, report.f1)
    columns = np.array(report.per_sentence, dtype=np.int64).T      # (3, n)
    rng = np.random.default_rng(seed)
    f = np.empty(b)
    with np.errstate(invalid="ignore", divide="ignore"):
        for start in range(0, b, _BOOTSTRAP_BLOCK):
            idx = rng.integers(0, n, size=(min(_BOOTSTRAP_BLOCK, b - start), n))
            # exact integer sums over the resampled sentences, one count at a time
            tp, pred, gold = [col[idx].sum(axis=1) for col in columns]
            p = np.where(pred > 0, 100.0 * tp / pred, 100.0)
            r = np.where(gold > 0, 100.0 * tp / gold, 100.0)
            f[start:start + len(idx)] = np.where(p + r > 0, 2.0 * p * r / (p + r), 0.0)
    f.sort()
    alpha = 100.0 * (1.0 - BOOTSTRAP_LEVEL) / 2.0      # percentiles, as numpy takes them
    lower = float(linear_quantile(f, alpha / 100))
    upper = float(linear_quantile(f, (100.0 - alpha) / 100))
    return BootstrapResult(report.f1, (upper - lower) / 2.0, b, lower, upper)


# ---------------------------------------------------------------------------
# Oracles


def oracle_combination(pool: CandidatePool) -> list[Solution]:
    """Perfect filter: keep exactly the candidates that match gold."""
    if not pool.is_aligned():
        raise ValueError("oracle needs gold alignment")
    return [Solution.make(sent.sentence_id, sent.gold_candidates(),
                          float(len(sent.gold_candidates())))
            for sent in pool.sentences]


def _frame_f1(frame: Sequence[tuple[RoleLabel, Span]], gold: set) -> float:
    pred = {(l.text, s) for l, s in repair_continuations(list(frame))}
    return _prf(len(pred & gold), len(pred), len(gold))[2]


def oracle_rerank(pool: CandidatePool, gold: PropsDocument) -> list[Solution]:
    """Per predicate, keep the single system's frame with the best F1."""
    keys = gold_keys(gold)
    solutions = []
    for sent in pool.sentences:
        sid = sent.sentence_id
        gold_frames: dict = {p: set() for p in range(len(sent.predicates))}
        for s, p, label, span in keys[sid]:
            gold_frames[p].add((label, span))
        selected: list[Candidate] = []
        for p in range(len(sent.predicates)):
            best_f1 = -1.0
            best_frame: tuple = ()
            for system in pool.system_ids:
                frame = tuple(c for c in sent.by_predicate(p) if system in c.votes)
                f1 = _frame_f1([(c.label, c.span) for c in frame], gold_frames[p])
                if f1 > best_f1 + 1e-12:
                    best_f1, best_frame = f1, frame
            selected += list(best_frame)
        # a duplicate-keyed candidate can only enter once: keys are unique per pool
        solutions.append(Solution.make(sid, selected, 0.0))
    return solutions


# ---------------------------------------------------------------------------
# Baselines


def _greedy(candidates: Sequence[Candidate], sentence_id: int, priority: dict) -> Solution:
    chosen: list[Candidate] = []
    for cand in sorted(candidates, key=lambda c: (-len(c.votes), -len(c.span),
                                                  min(priority[s] for s in c.votes), c.key)):
        # keep it unless it breaks c1, c2 or c5 with a candidate already kept
        if not any(STRUCTURAL_RULES.rule(cid).active
                   for other in chosen for cid in pair_rules(cand, other)):
            chosen.append(cand)
    return Solution.make(sentence_id, chosen, float(len(chosen)))


def baseline_recall(pool: CandidatePool) -> list[Solution]:
    """Merge everything: sort by votes, then token length, then system
    priority (the order of ``pool.system_ids``), then key, and greedily keep
    whatever does not conflict with the selection so far."""
    ranks = {sid: i for i, sid in enumerate(pool.system_ids)}
    return [_greedy(sent.candidates, sent.sentence_id, ranks) for sent in pool.sentences]


def baseline_precision(pool: CandidatePool) -> list[Solution]:
    """Keep only full-agreement candidates, then resolve conflicts greedily
    in the order of ``baseline_recall``."""
    ranks = {sid: i for i, sid in enumerate(pool.system_ids)}
    m = pool.m
    return [_greedy([c for c in sent.candidates if len(c.votes) == m],
                    sent.sentence_id, ranks)
            for sent in pool.sentences]
