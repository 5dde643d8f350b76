import random

import numpy as np
import pytest

from srlcomb.corpus_io import (
    AlignmentError,
    PropsDocument,
    PropsSentence,
    SyntheticConfig,
    generate_synthetic,
)
from srlcomb.evaluate import (
    baseline_precision,
    baseline_recall,
    bootstrap,
    oracle_combination,
    oracle_rerank,
    repair_continuations,
    score,
)
from srlcomb.model import (
    Argument,
    ConstraintSet,
    RoleLabel,
    Span,
    V_LABEL,
    enumerate_violations,
)
from srlcomb.pool import align_gold, build_pool, solutions_to_props


def _doc(*sentences):
    return PropsDocument(tuple(sentences))


def _sent(n_tokens, pred_at, args):
    """args: list of (label, start, end) for one predicate."""
    full = [Argument(0, V_LABEL, Span(pred_at, pred_at))]
    full += [Argument(0, RoleLabel.parse(l), Span(s, e)) for l, s, e in args]
    return PropsSentence(n_tokens, ((pred_at, "v"),), (tuple(full),))


def _triples(systems):
    return [(f"M{i + 1}", doc, table) for i, (doc, table) in enumerate(systems)]


class TestRepair:
    def test_lone_continuation_becomes_base(self):
        args = [(RoleLabel.parse("C-A1"), Span(5, 9))]
        repaired = repair_continuations(args)
        assert repaired[0][0].text == "A1"

    def test_supported_continuation_untouched(self):
        args = [(RoleLabel.parse("A1"), Span(0, 1)),
                (RoleLabel.parse("C-A1"), Span(5, 9))]
        repaired = repair_continuations(args)
        assert [l.text for l, _ in repaired] == ["A1", "C-A1"]

    def test_only_first_orphan_converted(self):
        args = [(RoleLabel.parse("C-A1"), Span(0, 1)),
                (RoleLabel.parse("C-A1"), Span(5, 9))]
        repaired = repair_continuations(args)
        assert [l.text for l, _ in repaired] == ["A1", "C-A1"]

    def test_idempotent_on_random_fixtures(self):
        rng = random.Random(50)
        labels = ["A0", "A1", "C-A1", "C-A0", "AM-TMP", "C-AM-TMP", "R-A0"]
        for _ in range(50):
            args = []
            start = 0
            for _k in range(rng.randint(1, 6)):
                length = rng.randint(1, 3)
                args.append((RoleLabel.parse(rng.choice(labels)),
                             Span(start, start + length - 1)))
                start += length + 1
            once = repair_continuations(args)
            twice = repair_continuations(once)
            assert once == twice


class TestScore:
    def test_identity_scores_100(self):
        gold, _ = generate_synthetic(SyntheticConfig(n_sentences=25, seed=40))
        report = score(gold, gold)
        assert report.precision == 100.0
        assert report.recall == 100.0
        assert report.f1 == 100.0
        assert report.pprops == 100.0

    def test_continuation_repair_counts_correct(self):
        gold = _doc(_sent(10, 0, [("A1", 5, 9)]))
        predicted = _doc(_sent(10, 0, [("C-A1", 5, 9)]))
        report = score(predicted, gold)
        assert report.f1 == 100.0

    def test_empty_prediction_convention(self):
        gold = _doc(_sent(10, 0, [("A1", 5, 9)]))
        predicted = _doc(_sent(10, 0, []))
        report = score(predicted, gold)
        assert report.precision == 100.0
        assert report.recall == 0.0
        assert report.f1 == 0.0

    def test_wrong_label_confusion_recorded(self):
        gold = _doc(_sent(10, 0, [("A1", 5, 9)]))
        predicted = _doc(_sent(10, 0, [("A2", 5, 9)]))
        report = score(predicted, gold)
        assert report.confusion == {("A1", "A2"): 1}
        assert report.f1 == 0.0

    def test_pprops_partial(self):
        gold = _doc(_sent(10, 0, [("A1", 5, 9)]), _sent(10, 0, [("A1", 5, 9)]))
        predicted = _doc(_sent(10, 0, [("A1", 5, 9)]), _sent(10, 0, []))
        report = score(predicted, gold)
        assert report.pprops == 50.0

    def test_skeleton_mismatch(self):
        gold = _doc(_sent(10, 0, [("A1", 5, 9)]))
        predicted = _doc(_sent(10, 1, [("A1", 5, 9)]))
        with pytest.raises(AlignmentError):
            score(predicted, gold)

    def test_per_label_rows(self):
        gold = _doc(_sent(10, 0, [("A1", 5, 9), ("AM-TMP", 2, 3)]))
        predicted = _doc(_sent(10, 0, [("A1", 5, 9)]))
        report = score(predicted, gold)
        assert report.per_label["A1"].f1 == 100.0
        assert report.per_label["AM-TMP"].recall == 0.0


def _float_gather_bootstrap(predicted, gold, b, seed, level=0.95):
    """(f1, lower, upper, half width) summed the old way, over a float
    (b, n, 3) gather of the per-sentence counts."""
    counts = np.array(score(predicted, gold).per_sentence, dtype=float)
    tp, n_pred, n_gold = (int(x) for x in counts.sum(axis=0))
    p = 100.0 * tp / n_pred if n_pred else 100.0
    r = 100.0 * tp / n_gold if n_gold else 100.0
    point = 2.0 * p * r / (p + r) if p + r else 0.0
    idx = np.random.default_rng(seed).integers(0, len(counts), size=(b, len(counts)))
    sums = counts[idx].sum(axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        p = np.where(sums[:, 1] > 0, 100.0 * sums[:, 0] / sums[:, 1], 100.0)
        r = np.where(sums[:, 2] > 0, 100.0 * sums[:, 0] / sums[:, 2], 100.0)
        f = np.where(p + r > 0, 2.0 * p * r / (p + r), 0.0)
    alpha = 100.0 * (1.0 - level) / 2.0
    lower, upper = np.percentile(f, [alpha, 100.0 - alpha])
    return point, float(lower), float(upper), float(upper - lower) / 2.0


class TestBootstrap:
    def test_identity_interval_is_zero_width(self):
        gold, _ = generate_synthetic(SyntheticConfig(n_sentences=20, seed=41))
        result = bootstrap(score(gold, gold), b=200, seed=1)
        assert result.f1 == 100.0
        assert result.half_width == 0.0

    def test_formatted_presentation(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=50, seed=42))
        result = bootstrap(score(systems[0][0], gold), b=500, seed=3)
        text = result.formatted()
        assert "±" in text
        left, right = text.split(" ±")
        assert abs(float(left) - result.f1) < 0.01
        assert abs(float(right) - result.half_width) < 0.05

    def test_interval_contains_point_estimate(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=30, seed=43))
        report = score(systems[0][0], gold)
        for seed in range(1000):
            result = bootstrap(report, b=100, seed=seed)
            assert result.lower - 1e-9 <= result.f1 <= result.upper + 1e-9

    def test_deterministic(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=30, seed=43))
        a = bootstrap(score(systems[0][0], gold), b=200, seed=5)
        b = bootstrap(score(systems[0][0], gold), b=200, seed=5)
        assert a == b

    @pytest.mark.parametrize("n_sentences", [1, 300])
    def test_equals_float_gather_reference(self, n_sentences):
        """Same draws, same interval: the float (b, n, 3) gather that
        bootstrap used to sum gives bit-identical bounds."""
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=n_sentences, seed=45))
        doc = systems[0][0]
        for seed in range(5):
            for b in (100, 1000):
                got = bootstrap(score(doc, gold), b=b, seed=seed)
                want = _float_gather_bootstrap(doc, gold, b, seed)
                assert (got.f1, got.lower, got.upper, got.half_width) == want

    def test_minimum_resamples(self):
        gold, _ = generate_synthetic(SyntheticConfig(n_sentences=5, seed=4))
        with pytest.raises(ValueError):
            bootstrap(score(gold, gold), b=50)


@pytest.fixture(scope="module")
def corpus():
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=60, seed=44))
    pool = align_gold(build_pool(_triples(systems)), gold)
    return gold, systems, pool


class TestOracles:
    def test_combination_selects_gold_exactly(self, corpus):
        gold, _systems, pool = corpus
        for sol, sent in zip(oracle_combination(pool), pool.sentences):
            assert {c.key for c in sol.selected} == \
                {c.key for c in sent.candidates if c.is_gold}

    def test_combination_recall_is_pool_coverage(self, corpus):
        gold, _systems, pool = corpus
        from srlcomb.pool import gold_keys
        covered = sum(1 for c in pool.all_candidates() if c.is_gold)
        total = sum(len(k) for k in gold_keys(gold))
        report = score(solutions_to_props(pool, oracle_combination(pool)), gold)
        assert abs(report.recall - 100.0 * covered / total) < 1e-9

    def test_full_coverage_gives_full_recall(self):
        gold, systems = generate_synthetic(SyntheticConfig(
            n_sentences=10, precision=1.0, recall=1.0,
            label_noise=0.0, boundary_noise=0.0, seed=4))
        pool = align_gold(build_pool(_triples(systems)), gold)
        report = score(solutions_to_props(pool, oracle_combination(pool)), gold)
        assert report.recall == 100.0

    def test_rerank_perfect_when_one_system_right(self):
        gold, systems = generate_synthetic(SyntheticConfig(
            n_sentences=10, precision=1.0, recall=1.0,
            label_noise=0.0, boundary_noise=0.0, seed=4))
        pool = align_gold(build_pool(_triples(systems)), gold)
        report = score(solutions_to_props(pool, oracle_rerank(pool, gold)), gold)
        assert report.pprops == 100.0

    def test_rerank_split_frames_lose_to_combination(self):
        # each system is right about a different argument; only argument-level
        # recombination recovers both
        gold = _doc(_sent(10, 0, [("A0", 1, 2), ("A1", 5, 6)]))
        sys1 = _doc(_sent(10, 0, [("A0", 1, 2), ("A1", 7, 8)]))
        sys2 = _doc(_sent(10, 0, [("A0", 3, 4), ("A1", 5, 6)]))
        pool = align_gold(build_pool([("M1", sys1, None), ("M2", sys2, None)]), gold)
        comb = score(solutions_to_props(pool, oracle_combination(pool)), gold)
        rerank = score(solutions_to_props(pool, oracle_rerank(pool, gold)), gold)
        assert comb.recall == 100.0
        assert rerank.recall < comb.recall

    def test_recall_dominance(self, corpus):
        gold, _systems, pool = corpus
        comb = score(solutions_to_props(pool, oracle_combination(pool)), gold)
        rerank = score(solutions_to_props(pool, oracle_rerank(pool, gold)), gold)
        assert comb.recall >= rerank.recall

    def test_oracle_recall_bounds_every_engine(self, corpus):
        from srlcomb.calibrate import attach_probs
        from srlcomb.infer_cs import CsConfig, infer_corpus
        from srlcomb.infer_dp import ScoredCandidate, infer_sentence
        gold, _systems, pool = corpus
        pool = attach_probs(pool)
        oracle = score(solutions_to_props(pool, oracle_combination(pool)), gold)
        cs_out = score(solutions_to_props(
            pool, infer_corpus(pool, CsConfig())), gold)
        dp_solutions = [
            infer_sentence([ScoredCandidate(c, c.prob_sum() - 0.3)
                            for c in sent.candidates], "pred", sent.sentence_id)
            for sent in pool.sentences]
        dp_out = score(solutions_to_props(pool, dp_solutions), gold)
        assert oracle.recall >= cs_out.recall
        assert oracle.recall >= dp_out.recall

    def test_rerank_tie_prefers_lower_system_index(self):
        # both systems score frame F1 = 50; the earlier system's frame wins
        gold = _doc(_sent(10, 0, [("A0", 1, 2), ("A1", 5, 6)]))
        sys1 = _doc(_sent(10, 0, [("A0", 1, 2)]))
        sys2 = _doc(_sent(10, 0, [("A1", 5, 6)]))
        pool = align_gold(build_pool([("M1", sys1, None), ("M2", sys2, None)]), gold)
        sol = oracle_rerank(pool, gold)[0]
        assert [c.label.text for c in sol.selected] == ["A0"]


class TestBaselines:
    def test_agreeing_systems_pass_through(self):
        gold, systems = generate_synthetic(SyntheticConfig(
            n_sentences=10, precision=1.0, recall=1.0,
            label_noise=0.0, boundary_noise=0.0, seed=4))
        pool = align_gold(build_pool(_triples(systems)), gold)
        for solutions in (baseline_recall(pool), baseline_precision(pool)):
            report = score(solutions_to_props(pool, solutions), gold)
            assert report.f1 == 100.0

    def test_vote_dominance_on_crossing(self):
        base = _sent(10, 0, [("A0", 1, 4)])
        other = _sent(10, 0, [("A1", 3, 6)])
        pool = build_pool([("M1", _doc(base), None), ("M2", _doc(base), None),
                           ("M3", _doc(other), None)])
        sol = baseline_recall(pool)[0]
        assert [c.label.text for c in sol.selected] == ["A0"]

    def test_precision_baseline_requires_full_agreement(self, corpus):
        _gold, _systems, pool = corpus
        for sol in baseline_precision(pool):
            for c in sol.selected:
                assert len(c.votes) == pool.m

    def test_precision_selected_in_every_system(self, corpus):
        _gold, systems, pool = corpus
        keys_by_system = []
        for doc, _ in systems:
            keys = set()
            for s, sent in enumerate(doc.sentences):
                for p in range(len(sent.predicates)):
                    for a in sent.scored_arguments(p):
                        keys.add((s, p, a.label.text, a.span))
            keys_by_system.append(keys)
        for sol in baseline_precision(pool):
            for c in sol.selected:
                assert all(c.key in keys for keys in keys_by_system)

    def test_outputs_validate(self, corpus):
        _gold, _systems, pool = corpus
        rules = ConstraintSet.hard_rules(1, 2, 5)
        for solutions in (baseline_recall(pool), baseline_precision(pool)):
            for sol in solutions:
                assert [v for v in enumerate_violations(sol.selected, rules) if v.hard] == []

    def test_precision_dominates_recall_baseline(self):
        # expectation over seeds with independent noise
        wins = 0
        for seed in range(10):
            gold, systems = generate_synthetic(SyntheticConfig(
                n_sentences=50, seed=seed))
            pool = align_gold(build_pool(_triples(systems)), gold)
            p_rec = score(solutions_to_props(pool, baseline_recall(pool)), gold).precision
            p_pre = score(solutions_to_props(pool, baseline_precision(pool)), gold).precision
            wins += p_pre >= p_rec
        assert wins >= 9

    def test_ties_broken_by_length_then_system_order(self):
        # one vote each: the longer span wins; equal lengths: the earlier system
        longer = build_pool([("M1", _doc(_sent(10, 0, [("A0", 1, 2)])), None),
                             ("M2", _doc(_sent(10, 0, [("A1", 2, 5)])), None)])
        assert [c.label.text for c in baseline_recall(longer)[0].selected] == ["A1"]
        earlier = build_pool([("M1", _doc(_sent(10, 0, [("A1", 3, 5)])), None),
                              ("M2", _doc(_sent(10, 0, [("A0", 2, 4)])), None)])
        assert [c.label.text for c in baseline_recall(earlier)[0].selected] == ["A1"]
