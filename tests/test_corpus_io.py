import random

import pytest
from srlcomb.corpus_io import (
    FormatError,
    PropsDocument,
    PropsSentence,
    SerializationError,
    SyntheticConfig,
    emit_props,
    emit_scores,
    emit_syntax,
    generate_synthetic,
    parse_props,
    parse_scores,
    parse_syntax,
    skeleton_sentences,
)
from srlcomb.evaluate import score
from srlcomb.model import Argument, RoleLabel, Span, V_LABEL, clause_intervals, decode_bio


SIMPLE_PROPS = """\
- (A0*
- *)
- *
- *
sold (V*)
- (A1*
- *
- *)

"""


class TestParseProps:
    def test_basic_spans(self):
        doc = parse_props(SIMPLE_PROPS)
        assert len(doc) == 1
        sent = doc.sentences[0]
        assert sent.n_tokens == 8
        assert sent.predicates == ((4, "sold"),)
        labels = [(a.label.text, (a.span.start, a.span.end)) for a in sent.arguments[0]]
        assert ("A0", (0, 1)) in labels
        assert ("A1", (5, 7)) in labels
        assert ("V", (4, 4)) in labels

    def test_single_token_verb(self):
        doc = parse_props(SIMPLE_PROPS)
        v = [a for a in doc.sentences[0].arguments[0] if a.label.text == "V"]
        assert v[0].span == Span(4, 4)

    def test_column_count_mismatch(self):
        bad = SIMPLE_PROPS.replace("- *\n- *\nsold", "- *\n-\nsold")
        with pytest.raises(FormatError) as err:
            parse_props(bad)
        assert err.value.line is not None

    def test_verb_column_mismatch(self):
        bad = SIMPLE_PROPS.replace("sold", "-")
        with pytest.raises(FormatError):
            parse_props(bad)

    @pytest.mark.parametrize("damage", [
        ("*)", "*"),          # drop a close
        ("(A0*", "*"),        # drop an open
        ("(A1*", "(A1*)"),    # close early, orphan the later close
        ("(V*)", "(V*"),      # unclosed single-token argument
    ])
    def test_unbalanced_rejected_with_line(self, damage):
        bad = SIMPLE_PROPS.replace(*damage, 1)
        with pytest.raises(FormatError) as err:
            parse_props(bad)
        assert err.value.line is not None

    def test_empty_text(self):
        assert parse_props("") == PropsDocument(())

    def test_tabs_and_extra_spaces_accepted(self):
        tabbed = "\n".join("\t".join(line.split()) for line in SIMPLE_PROPS.splitlines())
        padded = "\n".join("   ".join(line.split()) for line in SIMPLE_PROPS.splitlines())
        want = parse_props(SIMPLE_PROPS)
        assert parse_props(tabbed + "\n") == want
        assert parse_props(padded + "\n") == want


class TestEmitProps:
    def test_empty_document(self):
        assert emit_props(PropsDocument(())) == ""

    def test_single_token_argument(self):
        sent = PropsSentence(
            4, ((0, "ran"),),
            ((Argument(0, V_LABEL, Span(0, 0)),
              Argument(0, RoleLabel.parse("A1"), Span(2, 2))),))
        text = emit_props(PropsDocument((sent,)))
        assert text.splitlines()[2].split() == ["-", "(A1*)"]

    def test_overlap_unserializable(self):
        sent = PropsSentence(
            6, ((0, "ran"),),
            ((Argument(0, V_LABEL, Span(0, 0)),
              Argument(0, RoleLabel.parse("A1"), Span(2, 4)),
              Argument(0, RoleLabel.parse("A2"), Span(3, 5))),))
        with pytest.raises(SerializationError):
            emit_props(PropsDocument((sent,)))

    def test_round_trip_random_documents(self):
        for seed in range(100):
            gold, systems = generate_synthetic(
                SyntheticConfig(n_sentences=3, seed=seed))
            for doc in [gold] + [d for d, _ in systems]:
                text = emit_props(doc)
                assert parse_props(text) == doc
                assert emit_props(parse_props(text)) == text


SYNTAX_WITH_PARSE = """\
The DT B-NP (S* O (S(NP*
cat NN I-NP * O *)
sat VBD B-VP * O (VP*
today NN B-NP *S) B-DATE *))

"""


class TestSyntax:
    def test_chunks_and_clauses(self):
        sents = parse_syntax(SYNTAX_WITH_PARSE)
        assert len(sents) == 1
        sent = sents[0]
        assert decode_bio([t.chunk for t in sent.tokens]) == [("NP", 0, 1), ("VP", 2, 2),
                                                              ("NP", 3, 3)]
        assert clause_intervals([t.clause for t in sent.tokens]) == [(0, 3)]
        assert decode_bio([t.ne for t in sent.tokens]) == [("DATE", 3, 3)]

    def test_parse_tree(self):
        sent = parse_syntax(SYNTAX_WITH_PARSE)[0]
        assert sent.parse is not None
        assert sent.parse.label == "S"
        assert [c.label for c in sent.parse.children] == ["NP", "VP"]
        assert sent.parse.children[1].span == Span(2, 3)

    def test_round_trip(self):
        sents = parse_syntax(SYNTAX_WITH_PARSE)
        text = emit_syntax(sents)
        assert parse_syntax(text) == sents
        assert emit_syntax(parse_syntax(text)) == text

    def test_unbalanced_parse_rejected(self):
        bad = SYNTAX_WITH_PARSE.replace("*))", "*)")
        with pytest.raises(FormatError) as err:
            parse_syntax(bad)
        assert err.value.line is not None

    def test_unbalanced_clause_rejected(self):
        bad = SYNTAX_WITH_PARSE.replace("*S)", "*")
        with pytest.raises(FormatError):
            parse_syntax(bad)

    def test_damaged_bio_rejected(self):
        bad = SYNTAX_WITH_PARSE.replace("cat NN I-NP", "cat NN I-VP")
        with pytest.raises(FormatError):
            parse_syntax(bad)

    def test_no_parse_column(self):
        text = "dogs NN B-NP (S* O\nbark VB B-VP *S) O\n\n"
        sent = parse_syntax(text)[0]
        assert sent.parse is None
        assert emit_syntax([sent]) == text


class TestScores:
    def test_basic(self):
        table = parse_scores("0 0 A0 0 3 2.57\n")
        assert table == {(0, 0, "A0", Span(0, 3)): 2.57}

    def test_empty(self):
        assert parse_scores("") == {}
        assert emit_scores({}) == ""

    def test_duplicate_rejected(self):
        with pytest.raises(FormatError) as err:
            parse_scores("0 0 A0 0 3 2.5\n0 0 A0 0 3 1.0\n")
        assert err.value.line == 2

    def test_malformed_rejected(self):
        with pytest.raises(FormatError):
            parse_scores("0 0 A0 0 x 2.5\n")
        with pytest.raises(FormatError):
            parse_scores("0 0 A0 0 3\n")

    def test_round_trip_large_random(self):
        rng = random.Random(9)
        table = {}
        while len(table) < 1000:
            key = (rng.randrange(50), rng.randrange(3),
                   rng.choice(["A0", "A1", "AM-TMP", "C-A1"]),
                   Span(rng.randrange(10), rng.randrange(10, 20)))
            table[key] = rng.gauss(0, 10)
        text = emit_scores(table)
        assert parse_scores(text) == table
        assert emit_scores(parse_scores(text)) == text


class TestSynthetic:
    def test_noise_free_fixpoint(self):
        cfg = SyntheticConfig(n_sentences=20, precision=1.0, recall=1.0,
                              label_noise=0.0, boundary_noise=0.0, seed=5)
        gold, systems = generate_synthetic(cfg)
        for doc, _table in systems:
            assert doc == gold

    def test_deterministic(self):
        cfg = SyntheticConfig(n_sentences=25, seed=11)
        a = generate_synthetic(cfg)
        b = generate_synthetic(cfg)
        assert emit_props(a[0]) == emit_props(b[0])
        for (da, ta), (db, tb) in zip(a[1], b[1]):
            assert emit_props(da) == emit_props(db)
            assert emit_scores(ta) == emit_scores(tb)

    def test_knobs_roughly_met(self):
        cfg = SyntheticConfig(n_sentences=500, seed=2)
        gold, systems = generate_synthetic(cfg)
        for doc, _ in systems:
            report = score(doc, gold)
            assert abs(report.recall / 100.0 - 0.75) < 0.05
            assert abs(report.precision / 100.0 - 0.80) < 0.05

    def test_skeleton_sentences(self):
        gold, _ = generate_synthetic(SyntheticConfig(n_sentences=5, seed=1))
        sents = skeleton_sentences(gold)
        for sent, props in zip(sents, gold.sentences):
            assert len(sent.tokens) == props.n_tokens
            lemmas = tuple((i, sent.tokens[i].form) for i, _lemma in props.predicates)
            assert lemmas == props.predicates
            assert clause_intervals([t.clause for t in sent.tokens]) == [(0, props.n_tokens - 1)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(precision=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(tokens_range=(5, 3))
        with pytest.raises(ValueError):
            SyntheticConfig(precision=(0.8, 0.9))  # needs one knob per system
