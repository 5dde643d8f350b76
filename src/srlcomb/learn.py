"""Candidate-scoring models: per-label max-margin classifiers trained in
batch (SMO) and kernel Perceptrons trained locally or with global feedback
through the inference engine.

All scorers are dual-form: a list of (coefficient, update tick, support
vector) rows under a polynomial kernel (u.v + 1)^d.  Averaged predictions
weight each update by how many parameter states it survived, following the
standard averaging trick, so both the final and the averaged predictor are
recoverable from the same rows.

Kernel rows come from posting lists (feature id -> the rows that hold it):
the dot products of one vector with all rows are one bincount over the lists
of its ids, so a row costs the summed length of those lists rather than one
set intersection per support.  Both Perceptron trainers cache every training
candidate's margin and add one kernel row to the cache per update, instead
of re-scoring candidates against all supports.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from .calibrate import IntervalTable
from .features import COUNT_CAP, NGRAM_CAP, PATH_THRESHOLD, FeatureConfig, FeatureSpace
from .infer_cs import Scope
from .infer_dp import ScoredCandidate, infer_sentence
from .model import Candidate, FeatureVector, RoleLabel
from .pool import CandidatePool, gold_keys

MODEL_HEADER = "SRLCOMB-MODEL v1"
DEFAULT_DEGREE = 2
DEFAULT_EPOCHS = 5
DEFAULT_C = 1.0
DEFAULT_KKT_TOL = 1e-3
# the fixed feature caps, as the config line of a model file states them
_CAPS = (("ngram_cap", NGRAM_CAP), ("path_threshold", PATH_THRESHOLD), ("count_cap", COUNT_CAP))


class ModelMismatchError(ValueError):
    """Pool features were not extracted with this model's configuration."""


class _Postings:
    """Binary feature vectors indexed by feature id: each id maps to the rows
    that contain it.  The dot products of one vector with every row are one
    bincount over the posting lists of the vector's ids, so a kernel row costs
    the total length of those lists, not a loop over the rows."""

    def __init__(self, vectors: Sequence[FeatureVector]):
        self.n = len(vectors)
        lists: dict = {}
        for row, v in enumerate(vectors):
            for fid in v.ids:
                lists.setdefault(fid, []).append(row)
        self._lists = {fid: np.array(rows, dtype=np.intp) for fid, rows in lists.items()}

    def kernel_row(self, fv: FeatureVector, degree: int) -> np.ndarray:
        """(u.v + 1)^degree of ``fv`` against every row, as floats.  The power
        is a chain of products, exact while the kernel stays below 2^53."""
        hits = [self._lists[fid] for fid in fv.ids if fid in self._lists]
        dots = np.bincount(np.concatenate(hits), minlength=self.n) if hits else np.zeros(self.n)
        base = dots + 1.0
        row = base
        for _ in range(degree - 1):
            row = row * base
        return row


@dataclass
class LabelScorer:
    """Dual-form scorer for one role label."""

    label: str
    degree: int = DEFAULT_DEGREE
    bias: float = 0.0
    supports: list = field(default_factory=list)   # (coef, tick, FeatureVector)
    updates: int = 0                               # averaging horizon
    degenerate: bool = False                       # single-class training data

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("kernel degree must be >= 1")

    def scores(self, vectors: Sequence[FeatureVector], averaged: bool = False) -> list[float]:
        """bias + sum over supports of w * (sv.v + 1)^degree for each vector,
        with w = coef, or coef * (updates - tick) / updates when averaged
        after at least one update.

        The terms are added in support order (cumsum is sequential), so a
        score equals the support-by-support sum bit for bit and does not
        depend on which other vectors are scored with it.
        """
        if not self.supports:
            return [self.bias] * len(vectors)
        weights = np.array([coef for coef, _tick, _sv in self.supports])
        if averaged and self.updates > 0:
            u = self.updates
            weights = weights * ((u - np.array([t for _c, t, _sv in self.supports])) / u)
        postings = _Postings([sv for _coef, _tick, sv in self.supports])
        out = []
        for fv in vectors:
            terms = weights * postings.kernel_row(fv, self.degree)
            terms[0] += self.bias
            out.append(float(np.cumsum(terms)[-1]))
        return out

    def raw_score(self, fv: FeatureVector) -> float:
        return self.scores([fv])[0]


@dataclass
class ScoreModel:
    kind: str                      # svm | perceptron-local | perceptron-global
    degree: int
    feature_config: FeatureConfig
    space: FeatureSpace
    scorers: dict
    intervals: Optional[IntervalTable] = None

    # -- persistence ---------------------------------------------------------

    def saves(self) -> str:
        lines = [MODEL_HEADER,
                 f"kind {self.kind}",
                 f"degree {self.degree}",
                 f"config groups={','.join(self.feature_config.groups)} "
                 + " ".join(f"{key}={value}" for key, value in _CAPS)]
        table = self.intervals or IntervalTable()
        lines.append(f"intervals {len(table.cuts)}")
        for (sys_id, label), cuts in sorted(table.cuts.items()):
            flag = "degenerate" if (sys_id, label) in table.degenerate else "ok"
            lines.append(f"{sys_id} {label} {cuts[0]!r} {cuts[1]!r} {cuts[2]!r} {cuts[3]!r} {flag}")
        # the vocabulary, in the format FeatureSpace.load reads
        lines.append(f"vocab {len(self.space)}\n{self.space.dump()}".rstrip("\n"))
        lines.append(f"labels {len(self.scorers)}")
        for label in sorted(self.scorers):
            sc = self.scorers[label]
            lines.append(f"label {label}")
            lines.append(f"degree {sc.degree}")
            lines.append(f"bias {sc.bias!r}")
            lines.append(f"updates {sc.updates}")
            lines.append(f"degenerate {int(sc.degenerate)}")
            lines.append(f"supports {len(sc.supports)}")
            for coef, tick, sv in sc.supports:
                lines.append(" ".join([repr(coef), str(tick)] + [str(i) for i in sv.ids]))
            lines.append("end")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.saves())

    @classmethod
    def loads(cls, text: str) -> "ScoreModel":
        lines = text.splitlines()
        pos = 0

        def take(prefix: str) -> str:
            nonlocal pos
            if pos >= len(lines) or not lines[pos].startswith(prefix):
                raise ValueError(f"model file: expected {prefix!r} at line {pos + 1}")
            value = lines[pos][len(prefix):].strip()
            pos += 1
            return value

        def fields(what: str, count: int, exact: bool = True) -> list:
            nonlocal pos
            parts = lines[pos].split() if pos < len(lines) else []
            if len(parts) < count or (exact and len(parts) > count):
                raise ValueError(f"model file: {what} row at line {pos + 1} has {len(parts)} "
                                 f"fields, expected {'' if exact else 'at least '}{count}")
            pos += 1
            return parts

        # each number below sits on line `pos`, the line just taken
        def integer(text: str) -> int:
            try:
                return int(text)
            except ValueError:
                raise ValueError(f"model file: bad integer {text!r} at line {pos}") from None

        def count(text: str) -> int:
            value = integer(text)
            if value < 0:
                raise ValueError(f"model file: negative count {value} at line {pos}")
            return value

        def finite(text: str) -> float:
            try:
                value = float(text)
            except ValueError:
                raise ValueError(f"model file: bad number {text!r} at line {pos}") from None
            if not math.isfinite(value):
                raise ValueError(f"model file: non-finite value {text} at line {pos}")
            return value

        if take("") != MODEL_HEADER:
            raise ValueError("not a model file")
        kind = take("kind ")
        degree = integer(take("degree "))
        cfg_line = take("config ")
        try:
            cfg_map = dict(part.split("=", 1) for part in cfg_line.split())
            for key, value in _CAPS:
                if int(cfg_map[key]) != value:
                    raise ValueError(f"{key} must be {value}, not {cfg_map[key]}")
            config = FeatureConfig(groups=tuple(cfg_map["groups"].split(",")))
        except (KeyError, ValueError) as exc:
            raise ValueError(f"model file: config at line {pos} is missing or bad: {exc}") from None
        n_intervals = count(take("intervals "))
        cuts = {}
        degenerate = set()
        for _ in range(n_intervals):
            parts = fields("intervals", 7)
            key = (parts[0], parts[1])
            cuts[key] = tuple(finite(x) for x in parts[2:6])
            if parts[6] == "degenerate":
                degenerate.add(key)
        intervals = IntervalTable(cuts, degenerate) if cuts else None
        n_vocab = count(take("vocab "))
        try:
            space = FeatureSpace.load("\n".join(lines[pos:pos + n_vocab]))
        except ValueError as exc:
            raise ValueError(f"model file: vocabulary at lines {pos + 1}-{pos + n_vocab}: "
                             f"{exc}") from None
        pos += n_vocab
        n_labels = count(take("labels "))
        scorers = {}
        for _ in range(n_labels):
            label = take("label ")
            try:
                RoleLabel.parse(label)
            except ValueError as exc:
                raise ValueError(f"model file: {exc} at line {pos}") from None
            if label in scorers:
                raise ValueError(f"model file: label {label} given twice at line {pos}")
            sc = LabelScorer(label, degree=integer(take("degree ")),
                             bias=finite(take("bias ")),
                             updates=count(take("updates ")),
                             degenerate=bool(integer(take("degenerate "))))
            n_sup = count(take("supports "))
            for _ in range(n_sup):
                parts = fields("supports", 2, exact=False)
                ids = tuple(integer(x) for x in parts[2:])
                if ids and not 0 <= min(ids) <= max(ids) < len(space):
                    raise ValueError(f"model file: feature id out of vocabulary at line {pos}")
                if any(a >= b for a, b in zip(ids, ids[1:])):
                    raise ValueError(
                        f"model file: feature ids not strictly increasing at line {pos}")
                sc.supports.append((finite(parts[0]), integer(parts[1]), FeatureVector(ids)))
            take("end")
            scorers[label] = sc
        return cls(kind, degree, config, space, scorers, intervals)

    @classmethod
    def load(cls, path) -> "ScoreModel":
        with open(path, "r", encoding="utf-8") as fh:
            return cls.loads(fh.read())


def score_pool(model: ScoreModel, pool: CandidatePool) -> list[list[ScoredCandidate]]:
    """Score every pool candidate with its label's averaged scorer.

    The pool must have been feature-extracted with the model's configuration
    and feature space; anything else is a vocabulary mismatch.  Candidates
    whose label the model has no scorer for score 0.0, with one stderr
    warning per such label.
    """
    if pool.feature_digest != model.feature_config.digest():
        raise ModelMismatchError(
            f"pool features {pool.feature_digest} do not match model "
            f"{model.feature_config.digest()}")
    if pool.feature_space is not model.space:
        raise ModelMismatchError("pool was extracted with a different feature space")
    flat = list(pool.all_candidates())
    by_label: dict = {}
    for i, cand in enumerate(flat):
        by_label.setdefault(cand.label.text, []).append(i)
    confidence = [0.0] * len(flat)
    for label, rows in by_label.items():
        scorer = model.scorers.get(label)
        if scorer is None:
            print(f"srlcomb: warning: model has no scorer for label {label}; "
                  f"{len(rows)} candidates scored 0.0", file=sys.stderr)
            continue
        values = scorer.scores([flat[i].features for i in rows], averaged=True)
        for i, value in zip(rows, values):
            confidence[i] = value
    scored = iter(ScoredCandidate(c, v) for c, v in zip(flat, confidence))
    return [[next(scored) for _ in sent.candidates] for sent in pool.sentences]


# ---------------------------------------------------------------------------
# Local training: one binary problem per label


LabelDataset = Mapping[str, Sequence[tuple[FeatureVector, int]]]


def label_datasets(pool: CandidatePool) -> dict:
    """Group (features, +-1) pairs by label; requires alignment + features."""
    datasets: dict = {}
    for cand in pool.all_candidates():
        if cand.is_gold is None or cand.features is None:
            raise ValueError("training pool needs gold alignment and features")
        datasets.setdefault(cand.label.text, []).append(
            (cand.features, 1 if cand.is_gold else -1))
    return datasets


def _gram(vectors: Sequence[FeatureVector], degree: int) -> np.ndarray:
    """(x @ x.T + 1) ** degree for the 0/1 rows x of `vectors` over the
    features they use.  x is float32: its dot products count shared
    features, integers far below 2**24, so they are exact, and casting them
    to float64 before the + 1 and the power gives the float64 build's bits."""
    cols: dict = {}
    rows, hits = [], []
    for r, v in enumerate(vectors):
        for fid in v.ids:
            rows.append(r)
            hits.append(cols.setdefault(fid, len(cols)))
    x = np.zeros((len(vectors), max(len(cols), 1)), dtype=np.float32)
    x[rows, hits] = 1.0
    return ((x @ x.T).astype(np.float64) + 1.0) ** degree


def _smo(k: np.ndarray, y: np.ndarray, c: float, tol: float,
         max_steps: Optional[int] = None) -> tuple[np.ndarray, float, np.ndarray, int, float]:
    """Sequential minimal optimization of the soft-margin dual, one pair per step.

    Working-set rule of LIBSVM (Fan, Chen & Lin, JMLR 2005): with
    f = K @ (alpha*y) - y, i is the maximal violator (the argmax of -f over
    I_up) and j the violator in I_low with the largest second-order gain
    (f_j - f_i)^2 / eta_ij; stop once max(-f over I_up) - min(-f over I_low)
    < tol.  f is cached (Platt 1998; Keerthi et al. 2001): it starts at -y
    and each step adds two kernel rows.  b is the mean of -f over the free
    points, or the midpoint of the two set bounds if none is free.

    Returns (alpha, b, E = f + b, steps, violation), where violation is the
    largest KKT violation left; it exceeds `tol` only when the loop stopped
    at `max_steps` (default 100 n).
    """
    n = len(y)
    alpha = np.zeros(n)
    f = -y.astype(float)
    positive = y > 0
    cap = 100 * n if max_steps is None else max_steps
    for steps in range(cap + 1):
        above, below = alpha > 1e-12, alpha < c - 1e-12
        up = np.where(positive, below, above)
        low = np.where(positive, above, below)
        i = int(np.argmax(np.where(up, -f, -np.inf)))
        top, bottom = float(-f[i]), float(np.min(-f[low]))
        if top - bottom < tol or steps == cap:
            break
        eta = np.maximum(k[i, i] + np.diagonal(k) - 2.0 * k[i], 1e-12)
        j = int(np.argmax(np.where(low & (-f < top), (f - f[i]) ** 2 / eta, -1.0)))
        a_i, a_j = alpha[i], alpha[j]
        s = y[i] * y[j]
        if s < 0:
            lo, hi = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
        new_j = min(max(a_j + y[j] * (f[i] - f[j]) / eta[j], lo), hi)
        new_i = a_i + s * (a_j - new_j)
        alpha[i], alpha[j] = new_i, new_j
        f += y[i] * (new_i - a_i) * k[i] + y[j] * (new_j - a_j) * k[j]
    free = above & below
    b = float(np.mean(-f[free])) if free.any() else (top + bottom) / 2.0
    err = f + b
    r = y * err
    violation = np.maximum(np.where(below, -r, 0.0), np.where(above, r, 0.0))
    return alpha, b, err, steps, float(violation.max())


def train_local_svm(datasets: LabelDataset, *, degree: int = DEFAULT_DEGREE,
                    c: float = DEFAULT_C, tol: float = DEFAULT_KKT_TOL,
                    space: FeatureSpace, feature_config: FeatureConfig,
                    intervals: Optional[IntervalTable] = None) -> ScoreModel:
    """One soft-margin binary SVM per label, trained with SMO."""
    scorers = {}
    for label in sorted(datasets):
        data = list(datasets[label])
        ys = np.array([y for _, y in data], dtype=float)
        if len(set(ys.tolist())) < 2:
            scorers[label] = LabelScorer(label, degree=degree, bias=float(ys[0]),
                                         degenerate=True)
            continue
        vectors = [fv for fv, _ in data]
        k = _gram(vectors, degree)
        alpha, bias, _err, steps, violation = _smo(k, ys, c, tol)
        if violation > tol:
            print(f"srlcomb: warning: SMO for label {label} stopped after {steps} steps "
                  f"with KKT violation {violation:.3g} > tol {tol:g}", file=sys.stderr)
        sc = LabelScorer(label, degree=degree, bias=float(bias))
        for i, a in enumerate(alpha):
            if a > 1e-10:
                sc.supports.append((float(a * ys[i]), 0, vectors[i]))
        scorers[label] = sc
    return ScoreModel("svm", degree, feature_config, space, scorers, intervals)


def train_local_perceptron(datasets: LabelDataset, *, degree: int = DEFAULT_DEGREE,
                           epochs: int = DEFAULT_EPOCHS,
                           space: FeatureSpace, feature_config: FeatureConfig,
                           intervals: Optional[IntervalTable] = None) -> ScoreModel:
    """Kernel Perceptron per label, updated on every sign error; averaged.

    Each point's raw margin is cached and every update adds one kernel row
    to the cache; the margins are sums of integers, so they are exact.
    """
    scorers = {}
    for label in sorted(datasets):
        data = list(datasets[label])
        postings = _Postings([fv for fv, _y in data])
        margin = np.zeros(len(data))
        sc = LabelScorer(label, degree=degree)
        tick = 0
        for _epoch in range(epochs):
            for i, (fv, y) in enumerate(data):
                if y * margin[i] <= 0.0:
                    sc.supports.append((float(y), tick, fv))
                    margin += y * postings.kernel_row(fv, degree)
                    tick += 1
        sc.updates = tick
        scorers[label] = sc
    return ScoreModel("perceptron-local", degree, feature_config, space, scorers, intervals)


# ---------------------------------------------------------------------------
# Global training: Perceptron through inference


@dataclass(frozen=True)
class TrainExample:
    """One sentence's candidates plus the reachable correct argument set.

    Gold arguments no system proposed cannot be promoted; they are counted in
    ``n_unreachable`` and only weigh on the recall metric.
    """

    sentence_id: int
    candidates: tuple
    gold_keys: frozenset
    n_unreachable: int = 0


def make_examples(pool: CandidatePool, gold=None) -> list[TrainExample]:
    unreachable = [0] * len(pool.sentences)
    if gold is not None:
        for s, keys in enumerate(gold_keys(gold)):
            have = {c.key for c in pool.sentences[s].candidates}
            unreachable[s] = len(keys - have)
    out = []
    for sent in pool.sentences:
        golds = frozenset(c.key for c in sent.candidates if c.is_gold)
        out.append(TrainExample(sent.sentence_id, sent.candidates, golds,
                                unreachable[sent.sentence_id]))
    return out


@dataclass
class GlobalTrainLog:
    ledger: list          # per example: (n_promoted, n_demoted, |y\yhat|, |yhat\y|)
    epoch_f1: list
    selected_epoch: int


def _example_f1(examples: Sequence[TrainExample], predictions: Sequence[frozenset]) -> float:
    correct = predicted = gold = 0
    for ex, pred in zip(examples, predictions):
        correct += len(pred & ex.gold_keys)
        predicted += len(pred)
        gold += len(ex.gold_keys) + ex.n_unreachable
    p = correct / predicted if predicted else 1.0
    r = correct / gold if gold else 1.0
    return 200.0 * p * r / (p + r) if p + r else 0.0


def train_global_perceptron(examples: Sequence[TrainExample], *,
                            scope: Scope = Scope.PRED_BY_PRED,
                            degree: int = DEFAULT_DEGREE,
                            epochs: int = DEFAULT_EPOCHS,
                            space: FeatureSpace, feature_config: FeatureConfig,
                            intervals: Optional[IntervalTable] = None,
                            validation: Optional[Sequence[TrainExample]] = None,
                            ) -> tuple[ScoreModel, GlobalTrainLog]:
    """Online Perceptron corrected by post-inference mistakes.

    For each example the current scorers rank the candidates, inference picks
    a structure, and arguments missing from it are promoted while spurious
    ones are demoted.  Epoch-end F1 on the validation split selects the
    parameter state that is kept.

    Every training and holdout candidate keeps two running sums over its
    label's supports, S1 = sum c*K and S2 = sum c*tick*K, and each update
    adds one kernel row to both.  The raw score is S1 and the averaged score
    after u updates is (u*S1 - S2)/u.  The sums hold integers, so they are
    exact, and the averaged score is rounded once, at the division.
    """
    model = ScoreModel("perceptron-global", degree, feature_config, space, {}, intervals)
    holdout = validation if validation is not None else examples
    tick = 0
    ledger = []
    epoch_f1 = []
    snapshots = []   # (tick, {label: n_supports}) at each epoch end

    flat: list = []   # one slot per training, then per holdout candidate
    slots = []
    for ex in list(examples) + list(validation or ()):
        slots.append(np.arange(len(flat), len(flat) + len(ex.candidates)))
        flat.extend(ex.candidates)
    holdout_slots = slots[len(examples):] if validation is not None else slots
    by_label: dict = {}
    for slot, cand in enumerate(flat):
        by_label.setdefault(cand.label.text, []).append(slot)
    kernels = {label: (np.array(rows), _Postings([flat[s].features for s in rows]))
               for label, rows in by_label.items()}
    s1 = np.zeros(len(flat))
    s2 = np.zeros(len(flat))

    def update(cand: Candidate, coef: float) -> None:
        nonlocal tick
        sc = model.scorers.get(cand.label.text)
        if sc is None:
            sc = model.scorers[cand.label.text] = LabelScorer(cand.label.text, degree=degree)
        sc.supports.append((coef, tick, cand.features))
        rows, postings = kernels[cand.label.text]
        k = postings.kernel_row(cand.features, degree)
        s1[rows] += coef * k
        s2[rows] += (coef * tick) * k
        tick += 1

    def predict(ex: TrainExample, ex_slots: np.ndarray, averaged: bool) -> frozenset:
        margins = s1[ex_slots]
        if averaged and tick > 0:
            margins = (tick * margins - s2[ex_slots]) / tick
        scored = [ScoredCandidate(c, m) for c, m in zip(ex.candidates, margins.tolist())]
        return infer_sentence(scored, scope, ex.sentence_id).keys()

    for _epoch in range(epochs):
        for ex, ex_slots in zip(examples, slots):
            yhat = predict(ex, ex_slots, averaged=False)
            promote = [c for c in ex.candidates if c.key in ex.gold_keys and c.key not in yhat]
            demote = [c for c in ex.candidates if c.key in yhat and c.key not in ex.gold_keys]
            for cand in promote:
                update(cand, 1.0)
            for cand in demote:
                update(cand, -1.0)
            ledger.append((len(promote), len(demote),
                           len(ex.gold_keys - yhat), len(yhat - ex.gold_keys)))
        snapshots.append((tick, {lab: len(sc.supports) for lab, sc in model.scorers.items()}))
        epoch_f1.append(_example_f1(holdout, [predict(ex, ex_slots, averaged=True)
                                              for ex, ex_slots in zip(holdout, holdout_slots)]))

    best_epoch = max(range(len(epoch_f1)), key=lambda i: (epoch_f1[i], -i))
    keep_tick, keep_counts = snapshots[best_epoch]
    for label, sc in model.scorers.items():
        del sc.supports[keep_counts.get(label, 0):]
        sc.updates = keep_tick
    model.scorers = {lab: sc for lab, sc in sorted(model.scorers.items()) if sc.supports}
    return model, GlobalTrainLog(ledger, epoch_f1, best_epoch)
