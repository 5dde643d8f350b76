import math
import random

import pytest

from srlcomb.calibrate import DEFAULT_GAMMA
from srlcomb.corpus_io import SyntheticConfig, generate_synthetic
from srlcomb.infer_cs import CsConfig, Scope, decode, infer_corpus, solve_with_stats
from srlcomb.infer_dp import ScoredCandidate, decode_corpus, dp_predicate, infer_sentence
from srlcomb.model import STRUCTURAL_RULES, ConstraintSet
from srlcomb.pool import build_pool
from conftest import HARD_50, cand, random_candidates
from enum_oracle import enumerate_best, hard_violations, tie_rule_best


def sc(confidence, **kwargs):
    return ScoredCandidate(cand(**kwargs), confidence)


class TestDpPredicate:
    def test_all_negative_gives_empty(self):
        scored = [sc(-1.0, span=(0, 1)), sc(-0.2, label="A1", span=(3, 4))]
        sol = dp_predicate(scored)
        assert sol.selected == () and sol.objective == 0.0

    def test_crossing_keeps_stronger(self):
        a = sc(2.0, label="A0", span=(0, 5))
        b = sc(1.5, label="A1", span=(3, 8))
        sol = dp_predicate([a, b])
        assert sol.selected == (a.candidate,)
        assert abs(sol.objective - 2.0) < 1e-12

    def test_core_duplicate_flag(self):
        hi = sc(2.0, label="A0", span=(0, 1))
        lo = sc(1.5, label="A0", span=(3, 4))
        sol = dp_predicate([hi, lo])
        assert sol.selected == (hi.candidate,)

    def test_embedding_forbidden_same_predicate(self):
        outer = sc(1.0, label="A0", span=(0, 5))
        inner = sc(0.9, label="A1", span=(1, 2))
        sol = dp_predicate([outer, inner])
        assert sol.selected == (outer.candidate,)

    def test_zero_confidence_excluded(self):
        sol = dp_predicate([sc(0.0, span=(0, 1))])
        assert sol.selected == ()

    def test_rejects_mixed_predicates(self):
        with pytest.raises(ValueError):
            dp_predicate([sc(1.0, pred=0, span=(0, 1)),
                          sc(1.0, pred=1, label="A1", span=(3, 4))])

    def test_matches_enumeration(self):
        rng = random.Random(31)
        cs = ConstraintSet.hard_rules(1, 2)
        for trial in range(150):
            cands = random_candidates(rng, rng.randint(1, 10), n_predicates=1,
                                      n_tokens=18)
            confs = [round(rng.uniform(-2, 3), 6) for _ in cands]
            sol = dp_predicate([ScoredCandidate(c, v) for c, v in zip(cands, confs)])
            want, _ = enumerate_best(cands, confs, cs)
            assert abs(sol.objective - max(want, 0.0)) < 1e-9, f"trial {trial}"

    def test_permutation_invariant(self):
        rng = random.Random(8)
        cands = random_candidates(rng, 9, n_predicates=1)
        confs = [rng.uniform(-1, 2) for _ in cands]
        scored = [ScoredCandidate(c, v) for c, v in zip(cands, confs)]
        baseline = dp_predicate(scored)
        for _ in range(10):
            shuffled = scored[:]
            rng.shuffle(shuffled)
            sol = dp_predicate(shuffled)
            assert sol.selected == baseline.selected
            assert abs(sol.objective - baseline.objective) < 1e-12

    def test_adding_compatible_candidate_never_hurts(self):
        rng = random.Random(9)
        for _ in range(30):
            cands = random_candidates(rng, 6, n_predicates=1, n_tokens=12)
            confs = [rng.uniform(-1, 2) for _ in cands]
            scored = [ScoredCandidate(c, v) for c, v in zip(cands, confs)]
            before = dp_predicate(scored).objective
            extra = ScoredCandidate(
                cand(pred=0, label="AM-MNR", span=(15, 16)), 0.5)
            after = dp_predicate(scored + [extra]).objective
            assert after >= before - 1e-12


def margins_of(scored):
    """The candidates and margins of ScoredCandidate-style pairs, as
    ``infer_sentence`` takes them."""
    return [s.candidate for s in scored], [s.confidence for s in scored]


class TestDpSentence:
    def test_cross_predicate_crossing_resolved(self):
        a = sc(2.0, pred=0, label="A0", span=(0, 5))
        b = sc(1.5, pred=1, label="A1", span=(3, 8))
        sol = infer_sentence(*margins_of([a, b]), Scope.FULL_SENTENCE, 0)
        assert sol.selected == (a.candidate,)

    def test_cross_predicate_embedding_allowed(self):
        outer = sc(2.0, pred=0, label="A0", span=(0, 5))
        inner = sc(1.5, pred=1, label="A1", span=(1, 3))
        sol = infer_sentence(*margins_of([outer, inner]), Scope.FULL_SENTENCE, 0)
        assert set(sol.selected) == {outer.candidate, inner.candidate}

    def test_matches_enumeration(self):
        rng = random.Random(14)
        cs = ConstraintSet.hard_rules(1, 2, 5)
        for trial in range(100):
            cands = random_candidates(rng, rng.randint(1, 11), n_predicates=3)
            confs = [round(rng.uniform(-2, 3), 6) for _ in cands]
            sol = infer_sentence(cands, confs, Scope.FULL_SENTENCE, 0)
            want, _ = enumerate_best(cands, confs, cs)
            assert abs(sol.objective - max(want, 0.0)) < 1e-9, f"trial {trial}"

    @pytest.mark.parametrize("scope,rules", [(Scope.PRED_BY_PRED, (1, 2)),
                                             (Scope.FULL_SENTENCE, (1, 2, 5))])
    def test_nonpositive_margins_match_enumeration(self, scope, rules):
        """Margins at or below 0, exact zeros among them, never enter the
        selection: it is the tie-rule optimum of the enumeration."""
        rng = random.Random(17)
        cs = ConstraintSet.hard_rules(*rules)
        for trial in range(100):
            cands = random_candidates(rng, rng.randint(1, 11), n_predicates=3)
            confs = [rng.choice([0.0, -0.0, round(rng.uniform(-2, 0), 6),
                                 round(rng.uniform(0, 3), 6)]) for _ in cands]
            sol = infer_sentence(cands, confs, scope, 5)
            want, best, _ = tie_rule_best(cands, confs, cs)
            assert sol.sentence_id == 5
            assert abs(sol.objective - want) < 1e-9, f"trial {trial}"
            assert set(sol.selected) == set(best), f"trial {trial}"
            assert all(m > 0.0 for c, m in zip(cands, confs) if c in sol.selected)

    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
    def test_non_finite_margin_rejected(self, bad):
        """``decode`` checks the margins of both engines."""
        cands = [cand(span=(0, 1)), cand(label="A1", span=(3, 4))]
        with pytest.raises(ValueError, match="margins must be finite"):
            infer_sentence(cands, [1.0, bad], Scope.PRED_BY_PRED, 0)
        with pytest.raises(ValueError, match="margins must be finite"):
            decode(cands, [bad, 1.0], STRUCTURAL_RULES, 0)
        # a cs margin is s_i - O
        with pytest.raises(ValueError, match="margins must be finite"):
            solve_with_stats(cands, CsConfig.for_scope(Scope.PRED_BY_PRED, bias=-bad), 0)

    @pytest.mark.parametrize("margins,message", [
        ([1.0, 0.5, 2.0], "3 margins for 2 candidates"),    # an extra one was ignored
        ([1.0], "1 margins for 2 candidates"),              # a short list: IndexError
    ])
    def test_margin_count_checked(self, margins, message):
        cands = [cand(span=(0, 1)), cand(label="A1", span=(3, 4))]
        with pytest.raises(ValueError, match=message):
            decode(cands, margins, STRUCTURAL_RULES, 0)

    def test_projections_match_dp_predicate_when_independent(self):
        rng = random.Random(15)
        for _ in range(40):
            scored = []
            for p in range(2):
                # keep the predicates in disjoint token ranges: no interaction
                base = 20 * p
                for c in random_candidates(rng, 4, n_predicates=1, n_tokens=18):
                    arg = c.argument
                    from srlcomb.model import Argument, Span, Candidate
                    moved = Candidate(
                        0, Argument(p, arg.label,
                                    Span(arg.span.start + base, arg.span.end + base)),
                        votes=c.votes, probs=c.probs)
                    scored.append(ScoredCandidate(moved, rng.uniform(-1, 2)))
            joint = infer_sentence(*margins_of(scored), Scope.FULL_SENTENCE, 0)
            split: set = set()
            for p in range(2):
                part = [s for s in scored if s.candidate.predicate == p]
                split |= set(dp_predicate(part).selected)
            assert set(joint.selected) == split

    def test_outputs_validate(self):
        rng = random.Random(16)
        cs = ConstraintSet.hard_rules(1, 2, 5)
        for _ in range(50):
            cands = random_candidates(rng, 10)
            sol = infer_sentence(cands, [rng.uniform(-1, 2) for _ in cands],
                                 Scope.FULL_SENTENCE, 0)
            assert hard_violations(sol.selected, cs) == []

    def test_infer_sentence_scopes(self):
        a = sc(2.0, pred=0, label="A0", span=(0, 5))
        b = sc(1.5, pred=1, label="A1", span=(3, 8))
        pred_scope = infer_sentence(*margins_of([a, b]), Scope.PRED_BY_PRED, 0)
        assert set(pred_scope.selected) == {a.candidate, b.candidate}
        sent_scope = infer_sentence(*margins_of([a, b]), Scope.FULL_SENTENCE, 0)
        assert sent_scope.selected == (a.candidate,)

    def test_one_tie_rule_at_both_scopes(self):
        # equal votes and margins: both engines keep the earlier span
        tmp = cand(label="AM-TMP", span=(0, 1), probs={"M1": 1.0})
        loc = cand(label="AM-LOC", span=(1, 2), probs={"M1": 1.0})
        assert infer_sentence([loc, tmp], [1.0, 1.0], Scope.PRED_BY_PRED, 0).selected == (tmp,)
        assert infer_sentence([loc, tmp], [1.0, 1.0], Scope.FULL_SENTENCE, 0).selected == (tmp,)
        cfg = CsConfig.for_scope(Scope.PRED_BY_PRED, bias=0.0)
        assert solve_with_stats([loc, tmp], cfg, 0)[0].selected == (tmp,)


@pytest.fixture(scope="module", params=[
    (1000, 7, {}), (100, 1, {}), (100, 2, {}), (50, 3, HARD_50),
], ids=["default-1000", "seed-1", "seed-2", "hard-50"])
def cli_pool(request):
    """A synthetic corpus pooled as the command line pools it."""
    n, seed, knobs = request.param
    _gold, systems = generate_synthetic(SyntheticConfig(n_sentences=n, seed=seed, **knobs))
    return build_pool([(f"M{i}", d, t) for i, (d, t) in enumerate(systems, 1)],
                      gamma=DEFAULT_GAMMA)


def _selections(solutions) -> list:
    return [sol.keys() for sol in solutions]


class TestProbsumIsCs:
    """Decoding summed probabilities less O is the cs engine at that O: the
    dp engine's rules at either scope are a cs rule set, and the cs
    engine's predicate scope only bans c5/c6, which no search reads."""

    @pytest.mark.parametrize("o", [0.0, 0.3, 0.6])
    @pytest.mark.parametrize("scope,spec", [(Scope.PRED_BY_PRED, "1+2"),
                                            (Scope.FULL_SENTENCE, "1+2+5")],
                             ids=["pred", "sentence"])
    def test_dp_over_probsum_is_cs(self, cli_pool, scope, spec, o):
        margins = [[c.prob_sum() - o for c in sent.candidates] for sent in cli_pool.sentences]
        cfg = CsConfig(bias=o, constraints=ConstraintSet.parse(spec))
        assert (_selections(decode_corpus(cli_pool, margins, scope))
                == _selections(sol for sol, _nodes in infer_corpus(cli_pool, cfg)))

    @pytest.mark.parametrize("o", [0.0, 0.3, 0.6])
    def test_cs_pred_scope_is_its_rules(self, cli_pool, o):
        assert (infer_corpus(cli_pool, CsConfig.for_scope(Scope.PRED_BY_PRED, bias=o))
                == infer_corpus(cli_pool, CsConfig(bias=o,
                                                   constraints=ConstraintSet.hard_rules(1, 2))))
