import bisect
import inspect
import math
import random

import mpmath
import numpy as np
import pytest
from hypothesis import given, strategies as st

from srlcomb.calibrate import (
    DEFAULT_GAMMA,
    IntervalTable,
    attach_probs,
    build_intervals,
    linear_quantile,
    curve_csv,
    rejection_curve,
    softmax,
    two_class_prob,
)
from srlcomb.corpus_io import SyntheticConfig, generate_synthetic
from srlcomb.model import Argument, Candidate, RoleLabel, Span
from srlcomb.pool import CandidatePool, SentencePool, align_gold, build_pool


def discretize(p, system, label, table):
    """The FS6 interval index of a probability under a table's cuts."""
    return bisect.bisect_right(table.cuts_for(system, label), p)


def softmax_oracle(scores, gamma, dps=50):
    """Arbitrary-precision reference implementation."""
    with mpmath.workdps(dps):
        exps = [mpmath.exp(mpmath.mpf(gamma) * mpmath.mpf(s)) for s in scores]
        z = sum(exps)
        return [float(e / z) for e in exps]


finite_scores = st.lists(
    st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=8)


class TestSoftmax:
    def test_uniform_for_equal_scores(self):
        for k in (1, 2, 5):
            out = softmax([3.7] * k, gamma=2.0)
            assert all(abs(p - 1.0 / k) < 1e-12 for p in out)

    def test_gamma_zero_uniform(self):
        out = softmax([5.0, -3.0, 0.1], gamma=0.0)
        assert all(abs(p - 1 / 3) < 1e-12 for p in out)

    def test_reference_value(self):
        # (1.0, 0.0) at gamma 0.1 -> (0.52498, 0.47502)
        got = softmax([1.0, 0.0], gamma=0.1)
        want = softmax_oracle([1.0, 0.0], 0.1)
        assert abs(got[0] - want[0]) < 1e-12
        assert abs(got[0] - 0.52498) < 1e-5
        assert abs(got[1] - 0.47502) < 1e-5

    def test_overflow_safe(self):
        out = softmax([1e4, 0.0], gamma=1.0)
        assert out[0] > 0.999 and math.isfinite(out[0])

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            softmax([float("nan"), 0.0], 0.1)
        with pytest.raises(ValueError):
            softmax([], 0.1)

    @given(finite_scores, st.floats(min_value=0.0, max_value=5.0))
    def test_sums_to_one_and_positive(self, scores, gamma):
        out = softmax(scores, gamma)
        assert abs(sum(out) - 1.0) < 1e-9
        assert all(p > 0.0 for p in out)

    @given(finite_scores)
    def test_argmax_invariance(self, scores):
        ordered = sorted(scores, reverse=True)
        if len(scores) > 1 and ordered[0] - ordered[1] < 1e-3:
            return  # near-ties are resolved by float noise, not by gamma
        best = max(range(len(scores)), key=lambda i: scores[i])
        for gamma in (0.01, 0.1, 1.0, 10.0):
            out = softmax(scores, gamma)
            assert max(range(len(out)), key=lambda i: out[i]) == best

    @given(finite_scores, st.floats(min_value=-20, max_value=20))
    def test_shift_invariance(self, scores, shift):
        a = softmax(scores, 0.5)
        b = softmax([s + shift for s in scores], 0.5)
        assert all(abs(x - y) < 1e-12 for x, y in zip(a, b))

    def test_two_class_matches_softmax(self):
        assert two_class_prob(1.0, 0.1) == softmax([1.0, 0.0], 0.1)[0]

    @given(st.floats(allow_nan=False, allow_infinity=False),
           st.floats(allow_nan=False, allow_infinity=False))
    def test_two_class_bit_identical_to_softmax(self, score, gamma):
        got = two_class_prob(score, gamma)
        if math.isinf(gamma * score):   # softmax gives nan there; see the limit test
            assert got == (1.0 if gamma * score > 0 else 0.0)
        else:
            assert got == softmax([score, 0.0], gamma)[0]

    @pytest.mark.parametrize("score,gamma,want", [
        (1e308, 2.0, 1.0), (-1e308, 2.0, 0.0), (1.0, 1e308, 1.0),
        (2.0, 1e308, 1.0), (-2.0, 1e308, 0.0), (1e308, -1e308, 0.0), (-1e308, -1e308, 1.0),
        (1e200, 1e200, 1.0), (1e-300, 1e-300, 0.5),
    ])
    def test_two_class_overflow_gives_softmax_limit(self, score, gamma, want):
        assert two_class_prob(score, gamma) == want

    @given(st.floats(), st.floats())
    def test_two_class_raises_like_softmax(self, score, gamma):
        if math.isfinite(score) and math.isfinite(gamma):
            return
        with pytest.raises(ValueError) as want:
            softmax([score, 0.0], gamma)
        with pytest.raises(ValueError) as got:
            two_class_prob(score, gamma)
        assert str(got.value) == str(want.value)


class TestRejectionCurve:
    def test_all_correct_flat_at_one(self):
        curve = rejection_curve([(random.Random(0).random(), True) for _ in range(50)])
        assert [acc for _, acc in curve] == [1.0] * 20

    def test_levels(self):
        curve = rejection_curve([(0.5, True)])
        assert [lvl for lvl, _ in curve] == [float(x) for x in range(0, 100, 5)]

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rejection_curve([])

    def test_independent_scores_flat(self):
        rng = random.Random(4)
        items = [(rng.random(), rng.random() < 0.7) for _ in range(10000)]
        curve = rejection_curve(items)
        accs = [acc for _, acc in curve]
        assert max(accs) - min(accs) < 0.06
        assert all(abs(a - 0.7) < 0.03 for a in accs)

    def test_calibrated_scores_non_decreasing(self):
        # correctness drawn with probability equal to the score itself
        rng = random.Random(7)
        items = []
        for _ in range(10000):
            p = rng.random()
            items.append((p, rng.random() < p))
        curve = rejection_curve(items)
        accs = [acc for _, acc in curve]
        assert all(b >= a - 0.02 for a, b in zip(accs, accs[1:]))

    def test_csv_header(self):
        text = curve_csv(rejection_curve([(0.9, True), (0.1, False)]))
        assert text.startswith("rejection_pct,accuracy\n")


class TestIntervals:
    def test_uniform_observations_split_evenly(self):
        rng = random.Random(13)
        values = [rng.random() for _ in range(100)]
        table = IntervalTable({("M1", "A0"): tuple(
            sorted(values)[i] for i in (19, 39, 59, 79))})
        counts = [0] * 5
        for v in values:
            counts[discretize(v, "M1", "A0", table)] += 1
        assert all(abs(c - 20) <= 2 for c in counts)

    def test_extremes(self):
        table = IntervalTable({("M1", "A0"): (0.2, 0.4, 0.6, 0.8)})
        assert discretize(0.05, "M1", "A0", table) == 0
        assert discretize(0.95, "M1", "A0", table) == 4

    def test_degenerate_flagged(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=1, seed=8))
        pool = attach_probs(align_gold(build_pool(
            [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold))
        table = build_intervals(pool)
        few = [key for key, vals in table.cuts.items()
               if vals[0] == vals[1] == vals[2] == vals[3]]
        assert set(few) >= table.degenerate

    def test_build_from_pool_percentiles(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=200, seed=8))
        pool = attach_probs(align_gold(build_pool(
            [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold))
        table = build_intervals(pool)
        assert len(table) > 0
        # every candidate probability discretizes somewhere
        for sent in pool.sentences:
            for c in sent.candidates:
                for sid, p in c.probs:
                    assert discretize(p, sid, c.label.text, table) in range(5)


def _numpy_cuts(values):
    """The oracle: the cuts numpy gives, with the median for fewer than 5."""
    arr = np.asarray(values, dtype=float)
    if len(values) >= 5:
        return tuple(float(x) for x in np.percentile(arr, [20, 40, 60, 80]))
    return (float(np.median(arr)),) * 4


def _bits(cuts):
    return [float(x).hex() for x in cuts]


def _one_key_pool(values) -> CandidatePool:
    """A pool whose candidates give system M1 and label A0 the ``values``."""
    a0 = RoleLabel.parse("A0")
    cands = tuple(Candidate(0, Argument(0, a0, Span(i, i)), frozenset(["M1"]), (),
                            (("M1", v),)) for i, v in enumerate(values))
    return CandidatePool(("M1",), (SentencePool(0, len(values), ((0, "v"),), cands),))


class TestCutPointsAgainstNumpy:
    """``build_intervals`` computes its cuts without numpy; they must be the
    bits ``numpy.percentile`` and ``numpy.median`` give."""

    @staticmethod
    def _check(values):
        table = build_intervals(_one_key_pool(values))
        assert _bits(table.cuts[("M1", "A0")]) == _bits(_numpy_cuts(values))
        assert (("M1", "A0") in table.degenerate) == (len(values) < 5)

    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60))
    def test_random_sizes(self, values):
        self._check(values)

    def test_long_list(self):
        rng = random.Random(20)
        self._check([rng.random() for _ in range(1013)])

    @given(st.lists(st.sampled_from([0.0, 0.5, 1.0]), min_size=1, max_size=60))
    def test_ties_at_zero_half_and_one(self, values):
        self._check(values)

    @pytest.mark.parametrize("values", [[0.1, 0.9, 0.3, 0.7, 0.5], [0.5] * 5,
                                        [0.0, 0.0, 1.0, 1.0, 1.0], [1e-300, 0.2, 0.2, 0.4, 1.0]])
    def test_exactly_five_values(self, values):
        self._check(values)

    @given(st.lists(st.floats(0.0, 100.0), min_size=1, max_size=60),
           st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.025, 0.975, 1.0])))
    def test_linear_quantile_at_any_q(self, values, q):
        """The rule itself, the bootstrap's bounds included: up to both ends."""
        values.sort()
        want = np.quantile(np.asarray(values, dtype=float), q)
        assert float(linear_quantile(values, q)).hex() == float(want).hex()

    def test_default_1000_pool(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=1000, seed=7))
        pool = build_pool([(f"sys{i + 1}", d, t) for i, (d, t) in enumerate(systems)], gold, 0.1)
        obs = {}
        for c in pool.all_candidates():
            for sid, p in c.probs:
                obs.setdefault((sid, c.label.text), []).append(p)
        table = build_intervals(pool)
        assert set(table.cuts) == set(obs) and len(obs) > 20
        for key, values in obs.items():
            assert _bits(table.cuts[key]) == _bits(_numpy_cuts(values)), key
        assert table.degenerate == {key for key, values in obs.items() if len(values) < 5}


class TestConfigDefaults:
    def test_gamma_default(self):
        assert DEFAULT_GAMMA == 0.1
        for fn in (attach_probs, two_class_prob):
            assert inspect.signature(fn).parameters["gamma"].default == DEFAULT_GAMMA

    def test_gamma_validated(self):
        _gold, systems = generate_synthetic(SyntheticConfig(n_sentences=3, seed=1))
        pool = build_pool([(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)])
        with pytest.raises(ValueError):
            attach_probs(pool, gamma=float("inf"))
