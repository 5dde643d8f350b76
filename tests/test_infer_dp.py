import random

import pytest

from srlcomb.infer_cs import CsConfig, Scope, solve_with_stats
from srlcomb.infer_dp import ScoredCandidate, dp_predicate, infer_sentence
from srlcomb.model import ConstraintSet
from conftest import cand, random_candidates
from enum_oracle import enumerate_best, hard_violations


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


class TestDpSentence:
    def test_cross_predicate_crossing_resolved(self):
        a = sc(2.0, pred=0, label="A0", span=(0, 5))
        b = sc(1.5, pred=1, label="A1", span=(3, 8))
        sol = infer_sentence([a, b], "sentence")
        assert sol.selected == (a.candidate,)

    def test_cross_predicate_embedding_allowed(self):
        outer = sc(2.0, pred=0, label="A0", span=(0, 5))
        inner = sc(1.5, pred=1, label="A1", span=(1, 3))
        sol = infer_sentence([outer, inner], "sentence")
        assert set(sol.selected) == {outer.candidate, inner.candidate}

    def test_matches_enumeration(self):
        rng = random.Random(14)
        cs = ConstraintSet.hard_rules(1, 2, 5)
        for trial in range(100):
            cands = random_candidates(rng, rng.randint(1, 11), n_predicates=3)
            confs = [round(rng.uniform(-2, 3), 6) for _ in cands]
            sol = infer_sentence([ScoredCandidate(c, v) for c, v in zip(cands, confs)],
                                 "sentence")
            want, _ = enumerate_best(cands, confs, cs)
            assert abs(sol.objective - max(want, 0.0)) < 1e-9, f"trial {trial}"

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
            joint = infer_sentence(scored, "sentence")
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
            scored = [ScoredCandidate(c, rng.uniform(-1, 2)) for c in cands]
            sol = infer_sentence(scored, "sentence")
            assert hard_violations(sol.selected, cs) == []

    def test_infer_sentence_scopes(self):
        a = sc(2.0, pred=0, label="A0", span=(0, 5))
        b = sc(1.5, pred=1, label="A1", span=(3, 8))
        pred_scope = infer_sentence([a, b], "pred")
        assert set(pred_scope.selected) == {a.candidate, b.candidate}
        sent_scope = infer_sentence([a, b], "sentence")
        assert sent_scope.selected == (a.candidate,)

    def test_one_tie_rule_at_both_scopes(self):
        # equal votes and margins: both engines keep the earlier span
        tmp = cand(label="AM-TMP", span=(0, 1), probs={"M1": 1.0})
        loc = cand(label="AM-LOC", span=(1, 2), probs={"M1": 1.0})
        scored = [ScoredCandidate(loc, 1.0), ScoredCandidate(tmp, 1.0)]
        assert infer_sentence(scored, "pred").selected == (tmp,)
        assert infer_sentence(scored, "sentence").selected == (tmp,)
        cfg = CsConfig.for_scope(Scope.PRED_BY_PRED, bias=0.0)
        assert solve_with_stats([loc, tmp], cfg)[0].selected == (tmp,)

    def test_infer_sentence_accepts_scope_members(self):
        a = sc(2.0, pred=0, label="A0", span=(0, 5))
        b = sc(1.5, pred=1, label="A1", span=(3, 8))
        for scope in Scope:
            assert infer_sentence([a, b], scope) == infer_sentence([a, b], scope.value)

    @pytest.mark.parametrize("scope", ["full", "sentnce", "Pred", ""])
    def test_infer_sentence_rejects_unknown_scope(self, scope):
        with pytest.raises(ValueError):
            infer_sentence([sc(1.0, span=(0, 1))], scope)
