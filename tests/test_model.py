import dataclasses
import random

import pytest
from hypothesis import given, strategies as st

from srlcomb.model import (
    ConstraintSet,
    FeatureVector,
    LabelKind,
    RoleLabel,
    Sentence,
    Solution,
    Span,
    SpanRelation,
    StructureError,
    Token,
    enumerate_violations,
    pair_rules,
    span_relation,
    validate,
)
from conftest import cand, random_candidates


spans = st.tuples(st.integers(0, 30), st.integers(0, 30)).map(
    lambda t: Span(min(t), max(t)))


class TestSpanRelation:
    def test_equal(self):
        assert span_relation(Span(2, 5), Span(2, 5)) is SpanRelation.EQUAL

    def test_disjoint_adjacent(self):
        assert span_relation(Span(0, 3), Span(4, 9)) is SpanRelation.DISJOINT

    def test_crossing(self):
        assert span_relation(Span(0, 5), Span(3, 8)) is SpanRelation.CROSSING

    def test_containment(self):
        assert span_relation(Span(0, 5), Span(1, 3)) is SpanRelation.A_CONTAINS_B
        assert span_relation(Span(1, 3), Span(0, 5)) is SpanRelation.B_CONTAINS_A

    @given(spans, spans)
    def test_total_and_symmetric(self, a, b):
        rel = span_relation(a, b)
        rev = span_relation(b, a)
        flip = {
            SpanRelation.EQUAL: SpanRelation.EQUAL,
            SpanRelation.DISJOINT: SpanRelation.DISJOINT,
            SpanRelation.CROSSING: SpanRelation.CROSSING,
            SpanRelation.A_CONTAINS_B: SpanRelation.B_CONTAINS_A,
            SpanRelation.B_CONTAINS_A: SpanRelation.A_CONTAINS_B,
        }
        assert rev is flip[rel]

    @given(spans, spans)
    def test_crossing_definition(self, a, b):
        rel = span_relation(a, b)
        intersects = a.intersects(b)
        neither_contains = not a.contains(b) and not b.contains(a)
        assert (rel is SpanRelation.CROSSING) == (intersects and neither_contains)

    def test_bad_span_rejected(self):
        with pytest.raises(ValueError):
            Span(3, 2)
        with pytest.raises(ValueError):
            Span(-1, 0)


class TestCandidate:
    def test_with_features_copies_every_other_field(self):
        c = cand(0, 1, "AM-TMP", (2, 4), votes=("M1", "M2"), probs={"M2": 0.25},
                 raw={"M1": -1.5}, is_gold=True)
        fv = FeatureVector((1, 3))
        copy = c.with_features(fv)
        assert copy == dataclasses.replace(c, features=fv)
        assert c.features is None and copy.features is fv
        assert [f.name for f in dataclasses.fields(copy)] == [
            "sentence_id", "argument", "votes", "raw_scores", "probs", "features", "is_gold"]

    def test_with_gold_and_with_probs_copy_every_other_field(self):
        c = cand(0, 1, "AM-TMP", (2, 4), votes=("M1", "M2"), raw={"M1": -1.5},
                 features=FeatureVector((1, 3)))
        assert c.with_gold(True) == dataclasses.replace(c, is_gold=True)
        probs = (("M2", 0.25), ("M1", 0.5))
        assert c.with_probs(probs) == dataclasses.replace(c, probs=probs)
        assert c.with_probs(probs).probs == (("M1", 0.5), ("M2", 0.25))

    @pytest.mark.parametrize("probs,message", [
        ((("M9", 0.5),), "non-voting system 'M9'"),
        ((("M1", 1.5),), r"probability 1.5 out of \[0, 1\]"),
    ])
    def test_with_probs_checks_what_it_adds(self, probs, message):
        c = cand(votes=("M1", "M2"))
        for build in (lambda: c.with_probs(probs),
                      lambda: dataclasses.replace(c, probs=probs)):
            with pytest.raises(ValueError, match=message):
                build()


class TestRoleLabel:
    @pytest.mark.parametrize("text,kind,base", [
        ("V", LabelKind.VERB, None),
        ("A0", LabelKind.CORE, None),
        ("A5", LabelKind.CORE, None),
        ("AM-TMP", LabelKind.ADJUNCT, None),
        ("AM", LabelKind.ADJUNCT, None),
        ("R-A0", LabelKind.REFERENCE, "A0"),
        ("R-AM-TMP", LabelKind.REFERENCE, "AM-TMP"),
        ("C-A1", LabelKind.CONTINUATION, "A1"),
        ("C-AM-LOC", LabelKind.CONTINUATION, "AM-LOC"),
    ])
    def test_parse(self, text, kind, base):
        label = RoleLabel.parse(text)
        assert label.kind is kind and label.base == base and label.text == text

    @pytest.mark.parametrize("text", ["A6", "B0", "R-V", "R-R-A0", "C-C-A1", "x", ""])
    def test_rejects(self, text):
        with pytest.raises(ValueError):
            RoleLabel.parse(text)

    def test_core_index(self):
        assert RoleLabel.parse("A3").core_index == 3
        assert RoleLabel.parse("R-A3").core_index is None


def _sentence(n_tokens=12, predicates=((4, "sold"),)):
    tokens = tuple(Token(i, f"w{i}") for i in range(n_tokens))
    return Sentence(0, tokens, predicates)


class TestValidate:
    def test_crossing_same_predicate(self):
        sent = _sentence()
        sol = Solution.make(0, [cand(span=(0, 5), label="A0"),
                                cand(span=(3, 8), label="A1")], 0.0)
        violations = validate(sol, ConstraintSet.hard_rules(1), sent)
        assert [v.constraint for v in violations] == ["c1"]
        assert violations[0].hard

    def test_duplicate_core(self):
        sent = _sentence()
        sol = Solution.make(0, [cand(span=(0, 1), label="A0"),
                                cand(span=(6, 7), label="A0")], 0.0)
        violations = validate(sol, ConstraintSet.hard_rules(2), sent)
        assert [v.constraint for v in violations] == ["c2"]

    def test_equal_span_counts_as_overlap(self):
        # same-predicate equal spans violate c1 even with different labels
        sol = Solution.make(0, [cand(span=(2, 4), label="A0"),
                                cand(span=(2, 4), label="A1")], 0.0)
        violations = enumerate_violations(sol.selected, ConstraintSet.hard_rules(1))
        assert [v.constraint for v in violations] == ["c1"]

    def test_empty_solution_vacuous(self):
        sent = _sentence()
        sol = Solution.make(0, [], 0.0)
        assert validate(sol, ConstraintSet.hard_rules(1, 2, 3, 4, 5, 6), sent) == []

    def test_reference_needs_base(self):
        cs = ConstraintSet.hard_rules(3)
        alone = [cand(span=(0, 1), label="R-A0")]
        assert [v.constraint for v in enumerate_violations(alone, cs)] == ["c3"]
        supported = alone + [cand(span=(6, 7), label="A0")]
        assert enumerate_violations(supported, cs) == []

    def test_continuation_needs_earlier_base(self):
        cs = ConstraintSet.hard_rules(4)
        late_base = [cand(span=(0, 1), label="C-A1"), cand(span=(6, 7), label="A1")]
        assert [v.constraint for v in enumerate_violations(late_base, cs)] == ["c4"]
        early_base = [cand(span=(0, 1), label="A1"), cand(span=(6, 7), label="C-A1")]
        assert enumerate_violations(early_base, cs) == []

    def test_cross_predicate_crossing_and_embedding(self):
        cs = ConstraintSet.hard_rules(5)
        crossing = [cand(pred=0, span=(0, 5)), cand(pred=1, label="A1", span=(3, 8))]
        assert [v.constraint for v in enumerate_violations(crossing, cs)] == ["c5"]
        embedded = [cand(pred=0, span=(0, 5)), cand(pred=1, label="A1", span=(1, 3))]
        assert enumerate_violations(embedded, cs) == []
        # equality across predicates counts as mutual embedding, not overlap
        equal = [cand(pred=0, span=(0, 5)), cand(pred=1, label="A1", span=(0, 5))]
        assert enumerate_violations(equal, cs) == []

    def test_shared_adjunct_forbidden(self):
        cs = ConstraintSet.hard_rules(6)
        shared = [cand(pred=0, label="AM-TMP", span=(0, 2)),
                  cand(pred=1, label="AM-TMP", span=(0, 2))]
        assert [v.constraint for v in enumerate_violations(shared, cs)] == ["c6"]
        shared_core = [cand(pred=0, label="A0", span=(0, 2)),
                       cand(pred=1, label="A0", span=(0, 2))]
        assert enumerate_violations(shared_core, cs) == []

    def test_soft_violations_do_not_invalidate(self):
        from srlcomb.model import soft, ConstraintSet
        cs = ConstraintSet(c1=soft(0.5))
        sol = [cand(span=(0, 5), label="A0"), cand(span=(3, 8), label="A1")]
        violations = enumerate_violations(sol, cs)
        assert len(violations) == 1 and not violations[0].hard
        assert violations[0].penalty == 0.5
        assert [v for v in violations if v.hard] == []

    def test_pair_rules_match_span_relations(self):
        # reference written from the rule texts with span_relation
        rng = random.Random(5)
        seen = set()
        for _ in range(4000):
            a, b = random_candidates(rng, 2, n_predicates=2, n_tokens=4)
            rel = span_relation(a.span, b.span)
            same_label = a.label.text == b.label.text
            if a.predicate == b.predicate:
                want = [cid for cid, broken in (
                    ("c1", rel is not SpanRelation.DISJOINT),
                    ("c2", same_label and a.label.kind is LabelKind.CORE)) if broken]
            else:
                shared = a.label.kind in (LabelKind.ADJUNCT, LabelKind.CONTINUATION) or (
                    a.label.kind is LabelKind.REFERENCE and a.label.base.startswith("AM"))
                want = [cid for cid, broken in (
                    ("c5", rel is SpanRelation.CROSSING),
                    ("c6", rel is SpanRelation.EQUAL and same_label and shared)) if broken]
            assert pair_rules(a, b) == pair_rules(b, a) == tuple(want), (a.key, b.key)
            seen.add(tuple(want))
        assert len(seen) == 6   # (), c1, c2, c1+c2, c5, c6 all exercised

    def test_unknown_sentence_candidate(self):
        sent = _sentence()
        sol = Solution.make(3, [cand(sentence_id=3)], 0.0)
        with pytest.raises(StructureError):
            validate(sol, ConstraintSet(), sent)


class TestConstraintSet:
    def test_parse_round_trip(self):
        cs = ConstraintSet.parse("1+2+5+6")
        assert cs == ConstraintSet.hard_rules(1, 2, 5, 6)
        assert cs.c1.mode == "hard" and cs.c3.mode == "off"

    def test_parse_soft(self):
        cs = ConstraintSet.parse("1+3:soft=0.5")
        assert cs.c3.mode == "soft" and cs.c3.penalty == 0.5

    def test_parse_rejects(self):
        with pytest.raises(ValueError):
            ConstraintSet.parse("7")
        with pytest.raises(ValueError):
            ConstraintSet.parse("1+1")
