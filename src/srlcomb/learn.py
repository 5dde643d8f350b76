"""Candidate-scoring models: per-label max-margin classifiers trained in
batch (SMO) and kernel Perceptrons trained locally or with global feedback
through the inference engine.

All scorers are dual-form: a list of (coefficient, update tick, support
vector) rows under a polynomial kernel (u.v + 1)^d.  Averaged predictions
weight each update by how many parameter states it survived, following the
standard averaging trick; a model scores with them, and global training
reads the final predictor off the same rows.

A model holds the ``FeatureExtractor`` it was trained with (feature groups,
vocabulary and probability intervals) and scores a pool by extracting its
features with it.  The vocabulary is frozen once the model is built, so
scoring never grows it.

The trainers read kernel rows from posting lists (feature id -> the rows
that hold it): the dot products of one vector with all rows are one bincount
over the lists of its ids, so a row costs the summed length of those lists
rather than one set intersection per support.  Both Perceptron trainers
cache every training candidate's margin and add one kernel row per update;
SMO caches g = y - K @ (alpha*y), g starts at y, each step subtracts two
memoized kernel rows, and no n x n Gram matrix is built.

A scorer reads the kernel in dense tiles instead: at most ``_KERNEL_BLOCK``
candidates against at most ``_KERNEL_BLOCK`` supports, as one product of
two float64 0/1 matrices over the support block's feature columns.  Every
dot is an integer no larger than nnz, which ``check_degree`` keeps far below
2^53, so the tiles give the posting rows' bits whatever the BLAS summation
order or thread count.

numpy is imported by each function that calls it, not by the module:
loading this module or a model file leaves numpy unloaded, and only
training and scoring load it.
"""

from __future__ import annotations

import math
import operator
import sys
from dataclasses import dataclass, field
from functools import cache
from itertools import chain, islice
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Mapping, Optional, Sequence

from .calibrate import IntervalTable
from .corpus_io import PropsDocument, text_lines
from .features import (
    COUNT_CAP,
    NGRAM_CAP,
    PATH_THRESHOLD,
    FeatureConfig,
    FeatureExtractor,
    FeatureSpace,
)
from .infer_cs import Scope
from .infer_dp import infer_sentence
from .model import Candidate, RoleLabel, Sentence
from .pool import CandidatePool, gold_keys

if TYPE_CHECKING:
    import numpy as np

MODEL_HEADER = "SRLCOMB-MODEL v1"
DEFAULT_DEGREE = 2
DEFAULT_EPOCHS = 5
DEFAULT_C = 1.0
DEFAULT_KKT_TOL = 1e-3
# the fixed feature caps, as the config line of a model file states them
_CAPS = (("ngram_cap", NGRAM_CAP), ("path_threshold", PATH_THRESHOLD), ("count_cap", COUNT_CAP))
# candidates and supports per scoring tile, so that scoring holds arrays of
# this many candidates by a label's supports, whatever the number of candidates
_KERNEL_BLOCK = 256


class ModelMismatchError(ValueError):
    """A model file of another kind than the one asked for."""


def _kernel(dots: np.ndarray, degree: int) -> np.ndarray:
    """(dots + 1)^degree as floats.  The power is a chain of products, exact
    while the kernel stays below 2^53."""
    base = dots + 1.0
    row = base
    for _ in range(degree - 1):
        row = row * base
    return row


def _id_rows(vectors: Sequence[tuple[int, ...]]) -> tuple[np.ndarray, np.ndarray]:
    """The feature ids of ``vectors`` end to end, and the row of each."""
    import numpy as np
    lengths = [len(v) for v in vectors]
    ids = np.fromiter(chain.from_iterable(vectors), np.intp, sum(lengths))
    return ids, np.repeat(np.arange(len(vectors)), lengths)


class _Postings:
    """Binary feature vectors indexed by feature id: each id maps to the rows
    that contain it.  The dot products of one vector with every row are one
    bincount over the posting lists of the vector's ids, so a kernel row costs
    the total length of those lists, not a loop over the rows."""

    def __init__(self, vectors: Sequence[tuple[int, ...]]):
        import numpy as np
        self.n = len(vectors)
        ids, rows = _id_rows(vectors)
        # group the (id, row) pairs by id: each list is a slice of one array
        order = np.argsort(ids)
        ids, rows = ids[order], rows[order]
        cuts = np.flatnonzero(np.diff(ids, prepend=-1)).tolist() + [len(ids)]
        self._lists = {fid: rows[a:b] for fid, a, b in zip(ids[cuts[:-1]].tolist(), cuts, cuts[1:])}

    def kernel_row(self, fv: tuple[int, ...], degree: int) -> np.ndarray:
        """(u.v + 1)^degree of ``fv`` against every row, as floats."""
        import numpy as np
        hits = [self._lists[fid] for fid in fv if fid in self._lists]
        dots = np.bincount(np.concatenate(hits), minlength=self.n) if hits else np.zeros(self.n)
        return _kernel(dots, degree)


def _design(ids: np.ndarray, rows: np.ndarray, n: int, cols: np.ndarray) -> np.ndarray:
    """The float64 0/1 matrix of n vectors (ids and rows as ``_id_rows``
    gives them) over the feature ids ``cols``, which are ascending and end
    in -1; ids that ``cols`` lacks are dropped."""
    import numpy as np
    pos = np.searchsorted(cols[:-1], ids)
    # an id past all of cols finds the -1
    hit = cols[pos] == ids
    design = np.zeros((n, len(cols) - 1))
    design[rows[hit], pos[hit]] = 1.0
    return design


class _Tiles:
    """Binary feature vectors in blocks of at most ``_KERNEL_BLOCK``, each a
    float64 0/1 matrix over the feature ids the block holds."""

    def __init__(self, vectors: Sequence[tuple[int, ...]]):
        import numpy as np
        self.n = len(vectors)
        self._blocks = []
        for lo in range(0, self.n, _KERNEL_BLOCK):
            block = vectors[lo:lo + _KERNEL_BLOCK]
            ids, rows = _id_rows(block)
            # np.unique of ids without its hashing, sized by the largest id,
            # which lies in the vocabulary
            cols = np.append(np.flatnonzero(np.bincount(ids)), -1)
            self._blocks.append((lo, cols, _design(ids, rows, len(block), cols).T))

    def kernel_rows(self, block: Sequence[tuple[int, ...]], degree: int) -> np.ndarray:
        """(u.v + 1)^degree of each vector of ``block`` against every vector
        of the tiles, as float rows: one matrix product per tile.  Its size
        is that of ``block`` times the tiles'; scoring passes at most
        ``_KERNEL_BLOCK`` vectors."""
        import numpy as np
        ids, rows = _id_rows(block)
        dots = np.empty((len(block), self.n))
        for start, cols, matrix in self._blocks:
            np.matmul(_design(ids, rows, len(block), cols), matrix,
                      out=dots[:, start:start + matrix.shape[1]])
        return _kernel(dots, degree)


def check_degree(degree: int, vectors: Iterable[tuple[int, ...]]) -> None:
    """Raise ValueError if (nnz + 1)^degree reaches 2^53 for some vector.  No
    kernel value with it exceeds that, so below the bound every kernel row is
    exact and the SVM's diagonal equals the rows' diagonal; above it, values
    round and then overflow to inf."""
    nnz = max(map(len, vectors), default=0)
    # a base of 2 or more reaches 2^53 by degree 53, so the power stays small
    if nnz and (degree >= 53 or (nnz + 1) ** degree >= 2 ** 53):
        raise ValueError(f"degree {degree} is too large for a vector of {nnz} features: "
                         f"({nnz} + 1)^{degree} reaches 2^53, past exact kernel values")


@dataclass
class LabelScorer:
    """Dual-form scorer for one role label."""

    label: str
    degree: int = DEFAULT_DEGREE
    bias: float = 0.0
    supports: list = field(default_factory=list)   # (coef, tick, feature ids)
    updates: int = 0                               # averaging horizon
    degenerate: bool = False                       # single-class training data

    def __post_init__(self) -> None:
        if self.degree < 1:
            raise ValueError("kernel degree must be >= 1")

    def scores(self, vectors: Sequence[tuple[int, ...]]) -> list[float]:
        """bias + sum over supports of w * (sv.v + 1)^degree for each vector,
        with the averaged weight w = coef * (updates - tick) / updates after
        at least one update, and w = coef without updates (an SVM's rows).

        The kernel is read in tiles of at most ``_KERNEL_BLOCK`` vectors
        against at most ``_KERNEL_BLOCK`` supports (``_Tiles``); every dot is
        an exact integer, so a tile gives the bits of the posting rows.
        The terms are added in support order (cumsum is sequential), so a
        score equals the support-by-support sum bit for bit and does not
        depend on which other vectors are scored with it.
        """
        import numpy as np
        if not self.supports:
            return [self.bias] * len(vectors)
        weights = np.array([coef for coef, _tick, _sv in self.supports])
        if self.updates > 0:
            u = self.updates
            weights = weights * ((u - np.array([t for _c, t, _sv in self.supports])) / u)
        tiles = _Tiles([sv for _coef, _tick, sv in self.supports])
        out: list[float] = []
        for lo in range(0, len(vectors), _KERNEL_BLOCK):
            out += self._block_scores(tiles, weights, vectors[lo:lo + _KERNEL_BLOCK])
        return out

    def _block_scores(self, tiles: _Tiles, weights: np.ndarray,
                      block: Sequence[tuple[int, ...]]) -> list[float]:
        import numpy as np
        # one block's arrays, freed before the next block's are made
        terms = tiles.kernel_rows(block, self.degree)
        terms *= weights
        terms[:, 0] += self.bias
        return np.cumsum(terms, axis=1)[:, -1].tolist()


@dataclass
class ScoreModel:
    """Scorers and the extractor whose features they were trained on.  The
    extractor's vocabulary is frozen once the model is built, so that
    scoring cannot grow it."""

    kind: str                      # svm | perceptron-local | perceptron-global
    degree: int
    extractor: FeatureExtractor
    scorers: dict

    def __post_init__(self) -> None:
        self.extractor.space.frozen = True

    # -- persistence ---------------------------------------------------------

    def saves(self) -> str:
        extractor = self.extractor
        lines = [MODEL_HEADER,
                 f"kind {self.kind}",
                 f"degree {self.degree}",
                 f"config groups={','.join(extractor.config.groups)} "
                 + " ".join(f"{key}={value}" for key, value in _CAPS)]
        table = extractor.intervals
        lines.append(f"intervals {len(table.cuts)}")
        for (sys_id, label), cuts in sorted(table.cuts.items()):
            flag = "degenerate" if (sys_id, label) in table.degenerate else "ok"
            lines.append(f"{sys_id} {label} {cuts[0]!r} {cuts[1]!r} {cuts[2]!r} {cuts[3]!r} {flag}")
        # the vocabulary, in the format FeatureSpace.load reads
        lines.append(f"vocab {len(extractor.space)}\n{extractor.space.dump()}".rstrip("\n"))
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
                lines.append(" ".join([repr(coef), str(tick), *map(str, sv)]))
            lines.append("end")
        return "\n".join(lines) + "\n"

    def save(self, path) -> None:
        Path(path).parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.saves())

    @classmethod
    def loads(cls, text: str) -> "ScoreModel":
        lines = text_lines(text)
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
        if degree < 1:
            raise ValueError(f"model file: kernel degree {degree} is below 1 at line {pos}")
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
            if key in cuts:
                raise ValueError(f"model file: intervals of {parts[0]} {parts[1]} given twice "
                                 f"at line {pos}")
            cuts[key] = tuple(finite(x) for x in parts[2:6])
            if any(a > b for a, b in zip(cuts[key], cuts[key][1:])):
                raise ValueError(f"model file: cut points decrease at line {pos}")
            if parts[6] not in ("ok", "degenerate"):
                raise ValueError(f"model file: intervals flag {parts[6]!r} is neither 'ok' "
                                 f"nor 'degenerate' at line {pos}")
            if parts[6] == "degenerate":
                degenerate.add(key)
        intervals = IntervalTable(cuts, degenerate)
        n_vocab = count(take("vocab "))
        try:
            space = FeatureSpace.load("\n".join(lines[pos:pos + n_vocab]), pos + 1)
        except ValueError as exc:
            raise ValueError(f"model file: vocabulary at lines {pos + 1}-{pos + n_vocab}: "
                             f"{exc}") from None
        pos += n_vocab
        n_space = len(space)
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
            if integer(take("degree ")) != degree:
                raise ValueError(f"model file: label {label} has a degree other than the "
                                 f"model's {degree} at line {pos}")
            bias, updates = finite(take("bias ")), count(take("updates "))
            flag = integer(take("degenerate "))
            if flag not in (0, 1):
                raise ValueError(f"model file: degenerate flag {flag} is neither 0 nor 1 "
                                 f"at line {pos}")
            sc = LabelScorer(label, degree=degree, bias=bias, updates=updates,
                             degenerate=bool(flag))
            # a support's tick is the update that made it, so it lies below
            # the averaging horizon; without updates (SVM) every tick is 0
            last_tick = max(sc.updates - 1, 0)
            n_sup = count(take("supports "))
            for _ in range(n_sup):
                parts = fields("supports", 2, exact=False)
                tick = integer(parts[1])
                if not 0 <= tick <= last_tick:
                    raise ValueError(f"model file: support tick {tick} is outside "
                                     f"0..{last_tick} at line {pos}")
                try:
                    ids = tuple(map(int, parts[2:]))
                except ValueError:
                    ids = tuple(integer(x) for x in parts[2:])     # words the error
                # ascending ids lie in the vocabulary when their ends do
                if ids and not (0 <= ids[0] and ids[-1] < n_space
                                and all(map(operator.lt, ids, ids[1:]))):
                    if not 0 <= min(ids) <= max(ids) < n_space:
                        raise ValueError(f"model file: feature id out of vocabulary at line {pos}")
                    raise ValueError(
                        f"model file: feature ids not strictly increasing at line {pos}")
                sc.supports.append((finite(parts[0]), tick, ids))
            take("end")
            scorers[label] = sc
        return cls(kind, degree, FeatureExtractor(config, space, intervals), scorers)

    @classmethod
    def load(cls, path) -> "ScoreModel":
        # newline="": ``loads`` ends lines itself (corpus_io.text_lines)
        with open(path, "r", encoding="utf-8", newline="") as fh:
            return cls.loads(fh.read())


def score_pool(model: ScoreModel, pool: CandidatePool,
               sentences: Optional[Sequence[Sentence]] = None) -> list[list[float]]:
    """Score every pool candidate with its label's scorer: one row of
    margins per sentence, in the order of its candidates.

    The candidates' features are extracted with the model's own extractor,
    from ``sentences`` if given (``FeatureExtractor.extract_pool``); names
    its vocabulary lacks are dropped, which changes no score.  Candidates
    whose label the model has no scorer for score 0.0, with one stderr
    warning per such label.  A score that is not finite, which finite but
    huge coefficients can give, is a ValueError that names the label.
    """
    import numpy as np
    pool = model.extractor.extract_pool(pool, sentences)
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
        with np.errstate(over="ignore", invalid="ignore"):     # checked just below
            values = scorer.scores([flat[i].features for i in rows])
        overflow = [v for v in values if not math.isfinite(v)]
        if overflow:
            raise ValueError(f"label {label} scores a candidate {overflow[0]}, "
                             "so its coefficients are too large")
        for i, value in zip(rows, values):
            confidence[i] = value
    scores = iter(confidence)
    return [list(islice(scores, len(sent.candidates))) for sent in pool.sentences]


# ---------------------------------------------------------------------------
# Local training: one binary problem per label


LabelDataset = Mapping[str, Sequence[tuple[tuple[int, ...], int]]]


def label_datasets(pool: CandidatePool) -> dict:
    """Group (features, +-1) pairs by label; requires alignment + features."""
    datasets: dict = {}
    for cand in pool.all_candidates():
        if cand.is_gold is None or cand.features is None:
            raise ValueError("training pool needs gold alignment and features")
        datasets.setdefault(cand.label.text, []).append(
            (cand.features, 1 if cand.is_gold else -1))
    return datasets


def _smo(row, diag: np.ndarray, y: np.ndarray, c: float, tol: float,
         max_steps: Optional[int] = None) -> tuple[np.ndarray, float, np.ndarray, int, float]:
    """Sequential minimal optimization of the soft-margin dual, one pair per step.

    ``row(i)`` returns kernel row i and ``diag`` is the kernel diagonal.
    Working-set rule of LIBSVM (Fan, Chen & Lin, JMLR 2005): with
    f = K @ (alpha*y) - y and g = -f, i is the maximal violator (the argmax
    of g over I_up) and j the violator in I_low with the largest second-order
    gain (g_j - g_i)^2 / eta_ij; stop once max(g over I_up) - min(g over
    I_low) < tol.  g is cached (Platt 1998; Keerthi et al. 2001): it starts
    at y, each step subtracts two memoized kernel rows, so only the rows of
    points that enter a working set are ever computed.  b is the mean of g
    over the free points, or the midpoint of the two set bounds if none is
    free.

    A step makes a fixed dozen or so numpy calls into preallocated buffers:
    I_up and I_low are offset arrays, 0 on their members and -inf / +inf
    elsewhere, updated only at i and j, and the two-variable clip runs on
    Python floats.  Negation is exact and g takes one subtraction of the
    same sum that f would add, so g is -f bit for bit.

    Returns (alpha, b, E = f + b, steps, violation), where violation is the
    largest KKT violation left; it exceeds `tol` only when the loop stopped
    at `max_steps` (default 100 n).
    """
    import numpy as np
    n = len(y)
    ys = y.tolist()
    alpha = [0.0] * n
    g = y.astype(float)
    cap = 100 * n if max_steps is None else max_steps
    # alpha = 0 is below c and not above 0: I_up holds the positives, I_low the rest
    up_off = np.where(y > 0, 0.0, -np.inf)
    low_off = np.where(y > 0, np.inf, 0.0)
    scan, eta, gain, push = np.empty(n), np.empty(n), np.empty(n), np.empty(n)
    outside = np.empty(n, dtype=bool)
    for steps in range(cap + 1):
        i = int(np.add(g, up_off, out=scan).argmax())
        top = g.item(i)
        np.add(g, low_off, out=scan)
        bottom = g.item(int(scan.argmin()))
        if top - bottom < tol or steps == cap:
            break
        k_i = row(i)
        np.add(diag, diag[i], out=eta)
        np.subtract(eta, np.multiply(k_i, 2.0, out=gain), out=eta)
        np.maximum(eta, 1e-12, out=eta)
        # only members of I_low below top are candidates for j
        np.greater_equal(scan, top, out=outside)
        np.subtract(g, top, out=gain)
        np.divide(np.square(gain, out=gain), eta, out=gain)
        np.putmask(gain, outside, -1.0)
        j = int(gain.argmax())
        a_i, a_j, y_i, y_j = alpha[i], alpha[j], ys[i], ys[j]
        s = y_i * y_j
        if s < 0:
            lo, hi = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
        new_j = min(max(a_j + y_j * (g.item(j) - top) / eta.item(j), lo), hi)
        new_i = a_i + s * (a_j - new_j)
        alpha[i], alpha[j] = new_i, new_j
        for t, a in ((i, new_i), (j, new_j)):   # only they can change sets
            above, below = a > 1e-12, a < c - 1e-12
            up, low = (below, above) if ys[t] > 0 else (above, below)
            up_off[t] = 0.0 if up else -np.inf
            low_off[t] = 0.0 if low else np.inf
        np.multiply(k_i, y_i * (new_i - a_i), out=push)
        np.add(push, np.multiply(row(j), y_j * (new_j - a_j), out=gain), out=push)
        np.subtract(g, push, out=g)
    alpha = np.array(alpha)
    above, below = alpha > 1e-12, alpha < c - 1e-12
    free = above & below
    b = float(np.mean(g[free])) if free.any() else (top + bottom) / 2.0
    err = b - g
    r = y * err
    violation = np.maximum(np.where(below, -r, 0.0), np.where(above, r, 0.0))
    return alpha, b, err, steps, float(violation.max())


def train_local_svm(datasets: LabelDataset, *, degree: int = DEFAULT_DEGREE,
                    c: float = DEFAULT_C, tol: float = DEFAULT_KKT_TOL,
                    extractor: FeatureExtractor) -> ScoreModel:
    """One soft-margin binary SVM per label, trained with SMO."""
    import numpy as np
    scorers = {}
    for label in sorted(datasets):
        data = list(datasets[label])
        ys = np.array([y for _, y in data], dtype=float)
        if len(set(ys.tolist())) < 2:
            scorers[label] = LabelScorer(label, degree=degree, bias=float(ys[0]),
                                         degenerate=True)
            continue
        vectors = [fv for fv, _ in data]
        postings = _Postings(vectors)
        # the kernel rows SMO has read, kept for this label only
        row = cache(lambda i: postings.kernel_row(vectors[i], degree))
        # the rows' diagonal: a vector shares all its ids with itself
        diag = (np.array([len(v) for v in vectors]) + 1.0) ** degree
        alpha, bias, _err, steps, violation = _smo(row, diag, ys, c, tol)
        if violation > tol:
            print(f"srlcomb: warning: SMO for label {label} stopped after {steps} steps "
                  f"with KKT violation {violation:.3g} > tol {tol:g}", file=sys.stderr)
        sc = LabelScorer(label, degree=degree, bias=float(bias))
        for i, a in enumerate(alpha):
            if a > 1e-10:
                sc.supports.append((float(a * ys[i]), 0, vectors[i]))
        scorers[label] = sc
    return ScoreModel("svm", degree, extractor, scorers)


def train_local_perceptron(datasets: LabelDataset, *, degree: int = DEFAULT_DEGREE,
                           epochs: int = DEFAULT_EPOCHS,
                           extractor: FeatureExtractor) -> ScoreModel:
    """Kernel Perceptron per label, updated on every sign error; averaged.

    Each point's raw margin is cached and every update adds one kernel row
    to the cache; the margins are sums of integers, so they are exact.
    """
    import numpy as np
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
    return ScoreModel("perceptron-local", degree, extractor, scorers)


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


def make_examples(pool: CandidatePool, gold: PropsDocument) -> list[TrainExample]:
    """One example per pool sentence; the gold arguments of ``gold`` that
    no candidate holds are counted as unreachable."""
    out = []
    for sent, keys in zip(pool.sentences, gold_keys(gold), strict=True):
        golds = frozenset(c.key for c in sent.candidates if c.is_gold)
        have = {c.key for c in sent.candidates}
        out.append(TrainExample(sent.sentence_id, sent.candidates, golds, len(keys - have)))
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
                            extractor: FeatureExtractor,
                            validation: Sequence[TrainExample],
                            ) -> tuple[ScoreModel, GlobalTrainLog]:
    """Online Perceptron corrected by post-inference mistakes.

    For each example the current scorers rank the candidates, inference picks
    a structure, and arguments missing from it are promoted while spurious
    ones are demoted.  Epoch-end F1 on the validation split selects the
    parameter state that is kept.

    Every training and validation candidate keeps two running sums over its
    label's supports, S1 = sum c*K and S2 = sum c*tick*K, and each update
    adds one kernel row to both.  The raw score is S1 and the averaged score
    after u updates is (u*S1 - S2)/u.  The sums hold integers, so they are
    exact, and the averaged score is rounded once, at the division.
    """
    import numpy as np
    model = ScoreModel("perceptron-global", degree, extractor, {})
    tick = 0
    ledger = []
    epoch_f1 = []
    snapshots = []   # (tick, {label: n_supports}) at each epoch end

    flat: list = []   # one slot per training, then per validation candidate
    slots = []
    for ex in list(examples) + list(validation):
        slots.append(slice(len(flat), len(flat) + len(ex.candidates)))
        flat.extend(ex.candidates)
    # each training candidate with its key and whether it is gold, built once
    marked = [[(c, c.key, c.key in ex.gold_keys) for c in ex.candidates] for ex in examples]
    val_slots = slots[len(examples):]
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

    def predict(ex: TrainExample, ex_slots: slice, averaged: bool) -> frozenset:
        margins = s1[ex_slots]
        if averaged and tick > 0:
            margins = (tick * margins - s2[ex_slots]) / tick
        return infer_sentence(ex.candidates, margins.tolist(), scope, ex.sentence_id).keys()

    for _epoch in range(epochs):
        for ex, ex_slots, ex_marked in zip(examples, slots, marked):
            yhat = predict(ex, ex_slots, averaged=False)
            promote = [c for c, key, gold in ex_marked if gold and key not in yhat]
            demote = [c for c, key, gold in ex_marked if not gold and key in yhat]
            for cand in promote:
                update(cand, 1.0)
            for cand in demote:
                update(cand, -1.0)
            ledger.append((len(promote), len(demote),
                           len(ex.gold_keys - yhat), len(yhat - ex.gold_keys)))
        snapshots.append((tick, {lab: len(sc.supports) for lab, sc in model.scorers.items()}))
        epoch_f1.append(_example_f1(validation, [predict(ex, ex_slots, averaged=True)
                                                 for ex, ex_slots in zip(validation, val_slots)]))

    best_epoch = max(range(len(epoch_f1)), key=lambda i: (epoch_f1[i], -i))
    keep_tick, keep_counts = snapshots[best_epoch]
    for label, sc in model.scorers.items():
        del sc.supports[keep_counts.get(label, 0):]
        sc.updates = keep_tick
    model.scorers = {lab: sc for lab, sc in sorted(model.scorers.items()) if sc.supports}
    return model, GlobalTrainLog(ledger, epoch_f1, best_epoch)
