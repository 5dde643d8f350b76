"""Score calibration: softmax probabilities, rejection curves, and the
equal-frequency probability intervals used as discrete features."""

from __future__ import annotations

import bisect
import math
from typing import TYPE_CHECKING, Iterable, Optional, Sequence

import numpy as np

if TYPE_CHECKING:   # pool imports this module, since build_pool calibrates as it pools
    from .pool import CandidatePool


DEFAULT_GAMMA = 0.1     # softmax temperature


def softmax(scores: Sequence[float], gamma: float) -> list[float]:
    """exp(gamma*s_i) / sum_j exp(gamma*s_j), computed with max subtraction."""
    if len(scores) == 0:
        raise ValueError("softmax needs at least one score")
    if not math.isfinite(gamma):
        raise ValueError("gamma must be finite")
    vals = []
    for s in scores:
        if not math.isfinite(s):
            raise ValueError(f"non-finite score {s!r}")
        vals.append(gamma * s)
    top = max(vals)
    exps = [math.exp(v - top) for v in vals]
    z = sum(exps)
    return [e / z for e in exps]


def two_class_prob(score: float, gamma: float = DEFAULT_GAMMA) -> float:
    """Probability of one proposed argument against a background score of 0.

    Systems that expose a single raw activation per argument get this
    degenerate two-class softmax.
    """
    if not (math.isfinite(gamma) and math.isfinite(score)):
        return softmax([score, 0.0], gamma)[0]     # raises softmax's error
    # softmax's float operations on two values, in its order: bit-identical
    a, b = gamma * score, gamma * 0.0
    top = max(a, b)
    ea, eb = math.exp(a - top), math.exp(b - top)
    return ea / (ea + eb)


def system_probs(votes: Iterable[str], raw_scores: dict,
                 gamma: float) -> tuple[tuple[str, float], ...]:
    """(system, probability) for each voting system, in id order: the
    two-class probability of its raw score.  A voting system without a raw
    score is treated as scoring at the background level 0, i.e. probability
    0.5; non-voting systems contribute 0 implicitly."""
    return tuple((sid, two_class_prob(raw_scores.get(sid, 0.0), gamma))
                 for sid in sorted(votes))


def attach_probs(pool: CandidatePool, gamma: float = DEFAULT_GAMMA) -> CandidatePool:
    """Fill per-system probabilities (``system_probs``) from raw scores
    across a pool.  ``build_pool`` does the same when given ``gamma``."""
    return pool.with_candidates([
        [c.with_probs(system_probs(c.votes, dict(c.raw_scores), gamma))
         for c in sent.candidates]
        for sent in pool.sentences])


# ---------------------------------------------------------------------------
# Rejection curves


def rejection_curve(items: Sequence[tuple[float, bool]]) -> list[tuple[float, float]]:
    """Accuracy of the kept set as the lowest-probability n% is rejected.

    Items are (probability, is_correct); ties keep input order.  Returns one
    (rejection_pct, accuracy) point for n in {0, 5, ..., 95}.
    """
    if not items:
        raise ValueError("rejection curve needs at least one item")
    for p, _ in items:
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} out of [0, 1]")
    order = sorted(range(len(items)), key=lambda i: -items[i][0])
    flags = [1 if items[i][1] else 0 for i in order]
    prefix = []
    total = 0
    for f in flags:
        total += f
        prefix.append(total)
    n = len(items)
    curve = []
    for level in range(0, 100, 5):
        kept = max(1, math.ceil(n * (100 - level) / 100))
        curve.append((float(level), prefix[kept - 1] / kept))
    return curve


def curve_csv(curve: Sequence[tuple[float, float]]) -> str:
    lines = ["rejection_pct,accuracy"]
    for pct, acc in curve:
        lines.append(f"{pct:g},{acc:.6f}")
    return "\n".join(lines) + "\n"


def pool_rejection_items(pool: CandidatePool) -> list[tuple[float, bool]]:
    """One (probability, correct) item per (system, proposed argument) pair."""
    if not pool.is_aligned():
        raise ValueError("rejection items require gold alignment")
    items = []
    for sent in pool.sentences:
        for c in sent.candidates:
            for sid, p in c.probs:
                items.append((p, bool(c.is_gold)))
    return items


# ---------------------------------------------------------------------------
# Probability intervals


_DEGENERATE_CUTS = (0.5, 0.5, 0.5, 0.5)


class IntervalTable:
    """Per (system, label) cut points defining five equal-frequency intervals."""

    def __init__(self, cuts: Optional[dict] = None, degenerate: Optional[set] = None):
        self.cuts = dict(cuts or {})
        self.degenerate = set(degenerate or set())
        for key, values in self.cuts.items():
            if len(values) != 4 or any(values[i] > values[i + 1] for i in range(3)):
                raise ValueError(f"cut points for {key} must be 4 non-decreasing values")

    def cuts_for(self, system: str, label: str):
        return self.cuts.get((system, label))

    def __eq__(self, other) -> bool:
        return (isinstance(other, IntervalTable) and self.cuts == other.cuts
                and self.degenerate == other.degenerate)

    def __len__(self) -> int:
        return len(self.cuts)


def build_intervals(pool: CandidatePool) -> IntervalTable:
    """Fit 20/40/60/80 percentile cuts per (system, label) from pool probabilities.

    Keys with fewer than 5 observations get a degenerate table (all cuts at
    the median) and are flagged.
    """
    obs: dict = {}
    for sent in pool.sentences:
        for c in sent.candidates:
            for sid, p in c.probs:
                obs.setdefault((sid, c.label.text), []).append(p)
    cuts = {}
    degenerate = set()
    for key, values in obs.items():
        if len(values) >= 5:
            pct = np.percentile(np.asarray(values, dtype=float), [20, 40, 60, 80])
            cuts[key] = tuple(float(x) for x in pct)
        else:
            med = float(np.median(np.asarray(values, dtype=float)))
            cuts[key] = (med, med, med, med)
            degenerate.add(key)
    return IntervalTable(cuts, degenerate)


def discretize(p: Optional[float], system: str, label: str,
               table: Optional[IntervalTable]) -> Optional[int]:
    """Map a probability to its interval index 0..4; None stands for "none".

    Unknown (system, label) keys fall back to a half-split degenerate table.
    """
    if p is None:
        return None
    cuts = table.cuts_for(system, label) if table is not None else None
    if cuts is None:
        cuts = _DEGENERATE_CUTS
    return bisect.bisect_right(cuts, p)
