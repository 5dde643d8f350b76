import dataclasses
import math
import random

import pytest
from hypothesis import given, strategies as st

from srlcomb.model import (
    EXISTENTIAL_RULES,
    ConstraintSet,
    LabelKind,
    RoleLabel,
    Sentence,
    Solution,
    Span,
    TagError,
    Token,
    broken_pairs,
    licenses,
    pair_rules,
    soft,
)
from conftest import HARD_50, SEARCH_HARD, cand, pool_sentences, random_candidates
from enum_oracle import (SpanRelation, broken_rules, enumerate_best, hard_violations,
                         span_relation, violations)


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

    def test_kept_hash_is_the_tuple_hash(self):
        """Sets and dicts of spans keep the order that hash((start, end))
        gives them, and a replaced span hashes by its new fields."""
        for start, end in ((0, 0), (3, 7), (1000, 65535)):
            assert hash(Span(start, end)) == hash((start, end))
        assert hash(dataclasses.replace(Span(1, 2), end=5)) == hash((1, 5))


class TestCandidate:
    def test_with_features_copies_every_other_field(self):
        c = cand(0, 1, "AM-TMP", (2, 4), votes=("M1", "M2"), probs={"M2": 0.25},
                 raw={"M1": -1.5}, is_gold=True)
        fv = (1, 3)
        copy = c.with_features(fv)
        assert copy == dataclasses.replace(c, features=fv)
        assert c.features is None and copy.features is fv
        assert [f.name for f in dataclasses.fields(copy)] == [
            "sentence_id", "argument", "votes", "raw_scores", "probs", "features", "is_gold"]

    def test_key_is_stored_once(self):
        """Every read gives the one tuple the candidate was made with, and
        a copy shares it; the key is no field, so equality and hashing are
        those of the fields."""
        c = cand(3, 1, "AM-TMP", (2, 4), votes=("M1",))
        assert c.key == (3, 1, "AM-TMP", Span(2, 4)) and c.key is c.key
        assert c.with_features((1,)).key is c.key
        assert c.with_gold(True).key == c.key
        assert hash(c) == hash(tuple(getattr(c, f.name) for f in dataclasses.fields(c)))

    def test_with_gold_and_with_probs_copy_every_other_field(self):
        c = cand(0, 1, "AM-TMP", (2, 4), votes=("M1", "M2"), raw={"M1": -1.5},
                 features=(1, 3))
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


def _sentence(chunks, clauses, nes=None) -> Sentence:
    return Sentence(0, tuple(Token(i, f"w{i}", "NN", chunk, clause, "O" if nes is None else nes[i])
                             for i, (chunk, clause) in enumerate(zip(chunks, clauses))))


class TestSentenceSyntax:
    def test_decoded_once_when_made(self):
        sent = _sentence(["B-NP", "I-NP", "O", "B-VP", "B-VP"], ["(S*", "(SBAR(S*", "*S)", "*",
                                                                "*SBAR)S)"],
                         ["B-PER", "I-PER", "O", "O", "B-LOC"])
        assert sent.chunks == (("NP", 0, 1), ("VP", 3, 3), ("VP", 4, 4))
        assert sent.nes == (("PER", 0, 1), ("LOC", 4, 4))
        assert sent.clauses == ((0, 4), (1, 4), (1, 2))
        assert sent.clause_events == (("(S",), ("(SBAR", "(S"), ("S)",), (), ("SBAR)", "S)"))

    @pytest.mark.parametrize("chunks,clauses,token,reason", [
        (["B-NP", "I-VP"], ["(S*", "*S)"], 1, "chunk tag 'I-VP' continues nothing"),
        (["O", "I-NP"], ["(S*", "*S)"], 1, "chunk tag 'I-NP' continues nothing"),
        (["B-NP", "B-"], ["(S*", "*S)"], 1, "malformed chunk tag 'B-'"),
        (["X-NP", "I-VP"], ["(S*", "*S)"], 0, "malformed chunk tag 'X-NP'"),
        (["B-NP", "I-NP"], ["(S*", "S)"], 1, "malformed clause tag 'S)'"),
        (["B-NP", "I-NP"], ["*S)", "(S*"], 0, "clause bracket closed but never opened"),
        (["B-NP", "I-NP"], ["(S*", "(S*S)"], 1, "unclosed clause bracket"),
    ])
    def test_damage_names_its_token(self, chunks, clauses, token, reason):
        with pytest.raises(TagError) as err:
            _sentence(chunks, clauses)
        assert (err.value.token, err.value.reason) == (token, reason)
        assert str(err.value) == f"token {token}: {reason}"

    def test_chunks_are_checked_before_entities_and_clauses(self):
        with pytest.raises(TagError, match="named-entity tag 'I-PER'"):
            _sentence(["B-NP", "I-NP"], ["*S)", "*"], ["O", "I-PER"])
        with pytest.raises(TagError, match="chunk tag 'I-VP'"):
            _sentence(["B-NP", "I-VP"], ["*S)", "*"], ["O", "I-PER"])


def _broken(selected, cs):
    """The names of the active rules that a selection breaks, as the oracle
    finds them; the solver's ``pair_rules`` and ``licenses`` must agree."""
    want = [cid for cid, _rule in violations(selected, cs)]
    got = [cid for i, a in enumerate(selected) for b in selected[i + 1:]
           for cid in pair_rules(a, b) if cs.rule(cid).active]
    got += [EXISTENTIAL_RULES[c.label.kind] for c in selected
            if c.label.kind in EXISTENTIAL_RULES and cs.rule(EXISTENTIAL_RULES[c.label.kind]).active
            and not any(licenses(o, c) for o in selected)]
    assert got == want
    return want


class TestValidate:
    def test_crossing_same_predicate(self):
        sol = Solution.make(0, [cand(span=(0, 5), label="A0"),
                                cand(span=(3, 8), label="A1")], 0.0)
        cs = ConstraintSet.hard_rules(1)
        assert _broken(sol.selected, cs) == ["c1"]
        assert hard_violations(sol.selected, cs) == ["c1"]

    def test_duplicate_core(self):
        sol = Solution.make(0, [cand(span=(0, 1), label="A0"),
                                cand(span=(6, 7), label="A0")], 0.0)
        assert _broken(sol.selected, ConstraintSet.hard_rules(2)) == ["c2"]

    def test_equal_span_counts_as_overlap(self):
        # same-predicate equal spans violate c1 even with different labels
        sol = Solution.make(0, [cand(span=(2, 4), label="A0"),
                                cand(span=(2, 4), label="A1")], 0.0)
        assert _broken(sol.selected, ConstraintSet.hard_rules(1)) == ["c1"]

    def test_empty_solution_vacuous(self):
        sol = Solution.make(0, [], 0.0)
        assert _broken(sol.selected, ConstraintSet.hard_rules(1, 2, 3, 4, 5, 6)) == []

    def test_reference_needs_base(self):
        cs = ConstraintSet.hard_rules(3)
        alone = [cand(span=(0, 1), label="R-A0")]
        assert _broken(alone, cs) == ["c3"]
        supported = alone + [cand(span=(6, 7), label="A0")]
        assert _broken(supported, cs) == []
        other_predicate = alone + [cand(pred=1, span=(6, 7), label="A0")]
        assert _broken(other_predicate, cs) == ["c3"]

    def test_continuation_needs_earlier_base(self):
        cs = ConstraintSet.hard_rules(4)
        late_base = [cand(span=(0, 1), label="C-A1"), cand(span=(6, 7), label="A1")]
        assert _broken(late_base, cs) == ["c4"]
        early_base = [cand(span=(0, 1), label="A1"), cand(span=(6, 7), label="C-A1")]
        assert _broken(early_base, cs) == []

    def test_cross_predicate_crossing_and_embedding(self):
        cs = ConstraintSet.hard_rules(5)
        crossing = [cand(pred=0, span=(0, 5)), cand(pred=1, label="A1", span=(3, 8))]
        assert _broken(crossing, cs) == ["c5"]
        embedded = [cand(pred=0, span=(0, 5)), cand(pred=1, label="A1", span=(1, 3))]
        assert _broken(embedded, cs) == []
        # equality across predicates counts as mutual embedding, not overlap
        equal = [cand(pred=0, span=(0, 5)), cand(pred=1, label="A1", span=(0, 5))]
        assert _broken(equal, cs) == []

    def test_shared_adjunct_forbidden(self):
        cs = ConstraintSet.hard_rules(6)
        shared = [cand(pred=0, label="AM-TMP", span=(0, 2)),
                  cand(pred=1, label="AM-TMP", span=(0, 2))]
        assert _broken(shared, cs) == ["c6"]
        shared_core = [cand(pred=0, label="A0", span=(0, 2)),
                       cand(pred=1, label="A0", span=(0, 2))]
        assert _broken(shared_core, cs) == []

    def test_soft_violations_do_not_invalidate(self):
        cs = ConstraintSet(c1=soft(0.5))
        sol = [cand(span=(0, 5), label="A0"), cand(span=(3, 8), label="A1")]
        assert _broken(sol, cs) == ["c1"]
        assert violations(sol, cs) == [("c1", soft(0.5))]
        assert hard_violations(sol, cs) == []
        # both are still selected, at the penalty
        assert enumerate_best(sol, [1.0, 1.0], cs) == (1.5, 0b11)

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


def _checked_pairs(cands) -> list:
    """``broken_pairs`` of ``cands``, checked to ask ``pair_rules`` once
    about each overlapping or same-predicate same-core pair and about no
    other, to be strictly ascending with i > j, to flag exactly the pairs
    that the oracle's ``broken_rules`` flags, and to carry on each exactly
    the oracle's rules."""
    index = {id(c): k for k, c in enumerate(cands)}
    asked = []

    def recorded(a, b):
        p, q = index[id(a)], index[id(b)]
        asked.append((max(p, q), min(p, q)))
        return pair_rules(a, b)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("srlcomb.model.pair_rules", recorded)
        got = broken_pairs(cands)
    pairs = [(i, j) for i in range(len(cands)) for j in range(i)]
    a = [c.argument for c in cands]
    assert sorted(asked) == [(i, j) for i, j in pairs
                             if span_relation(a[i].span, a[j].span) is not SpanRelation.DISJOINT
                             or (a[i].predicate == a[j].predicate and a[i].label == a[j].label
                                 and a[i].label.kind is LabelKind.CORE)]
    assert all(i > j for i, j, _ in got)
    assert all(p[:2] < q[:2] for p, q in zip(got, got[1:]))
    assert broken_pairs([c.argument for c in cands]) == got
    assert got == [(i, j, tuple(broken_rules(cands[i], cands[j])))
                   for i, j in pairs if broken_rules(cands[i], cands[j])]
    return got


class TestOverlapOrCorePairs:
    def test_complete_on_random_draws(self):
        # few tokens and many candidates, so that equal spans across
        # predicates (c6) and disjoint repeated cores of one predicate (c2)
        # come up often, among R-, C- and AM labels
        rng = random.Random(20)
        rules = {"c1": 0, "c2": 0, "c5": 0, "c6": 0}
        disjoint_c2 = 0
        for _ in range(300):
            cands = random_candidates(rng, rng.randint(0, 24), n_predicates=rng.randint(1, 3),
                                      n_tokens=rng.randint(1, 12))
            for _i, _j, broken in _checked_pairs(cands):
                for cid in broken:
                    rules[cid] += 1
                disjoint_c2 += broken == ("c2",)
        assert min(rules.values()) > 50 and disjoint_c2 > 50, (rules, disjoint_c2)

    @pytest.mark.parametrize("n,seed,knobs", [(30, 11, SEARCH_HARD), (50, 3, HARD_50)])
    def test_complete_on_noisy_pools(self, n, seed, knobs):
        found = sum(len(_checked_pairs(sent.candidates))
                    for sent in pool_sentences(n, seed, knobs))
        assert found > 0

    def test_pairs_in_order(self):
        cands = [cand(label="A0", span=(6, 7)), cand(label="A1", span=(0, 9)),
                 cand(label="A0", span=(0, 1)), cand(pred=1, label="AM-TMP", span=(3, 4)),
                 cand(pred=1, label="A0", span=(11, 12)), cand(pred=1, label="A2", span=(8, 11))]
        assert broken_pairs(cands) == [(1, 0, ("c1",)), (2, 0, ("c2",)), (2, 1, ("c1",)),
                                       (5, 1, ("c5",)), (5, 4, ("c1",))]
        assert broken_pairs(cands[:1]) == broken_pairs([]) == []


class TestConstraintSet:
    def test_parse_round_trip(self):
        cs = ConstraintSet.parse("1+2+5+6")
        assert cs == ConstraintSet.hard_rules(1, 2, 5, 6)
        assert cs.c1.mode == "hard" and cs.c3.mode == "off"

    def test_parse_soft(self):
        cs = ConstraintSet.parse("1+3:soft=0.5")
        assert cs.c3.mode == "soft" and cs.c3.penalty == 0.5

    @pytest.mark.parametrize("penalty", [math.inf, -1.0, math.nan])
    def test_soft_rejects_penalty_not_finite_and_nonnegative(self, penalty):
        # only a hard rule may cost inf
        with pytest.raises(ValueError):
            soft(penalty)

    def test_cost(self):
        cs = ConstraintSet.parse("1+3:soft=0.5")
        assert (cs.c1.cost, cs.c2.cost, cs.c3.cost) == (math.inf, 0.0, 0.5)

    def test_parse_rejects(self):
        for spec in ("7", "1+1", "3:soft=1e999", "3:soft=-1", "3:soft=nan"):
            with pytest.raises(ValueError):
                ConstraintSet.parse(spec)
