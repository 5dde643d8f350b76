import random
from dataclasses import fields

import pytest
from srlcomb import corpus_io, model
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
from srlcomb.model import Argument, RoleLabel, Span, Syntax, V_LABEL
from conftest import NOT_LINE_BREAKS
from rich_syntax import rich_sentences


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
        assert sent.chunks == (("NP", 0, 1), ("VP", 2, 2), ("NP", 3, 3))
        assert sent.clauses == ((0, 3),)
        assert sent.nes == (("DATE", 3, 3),)
        assert sent.clause_events == (("(S",), (), (), ("S)",))

    def test_tokens_equal_their_checked_rebuilds(self):
        """parse_syntax writes each token's slots without the constructor;
        every token equals, and hashes as, the one the constructor makes
        from the same fields, on a skeleton and on rich syntax."""
        gold, _systems = generate_synthetic(SyntheticConfig(n_sentences=20, seed=5))
        for sentences in (skeleton_sentences(gold), rich_sentences(gold, 1)):
            parsed = parse_syntax(emit_syntax(sentences))
            assert [s.tokens for s in parsed] == [s.tokens for s in sentences]
            for token in (t for s in parsed for t in s.tokens):
                rebuilt = model.Token(*(getattr(token, f.name) for f in fields(model.Token)))
                assert type(token) is model.Token
                assert token == rebuilt and hash(token) == hash(rebuilt)

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
        assert str(err.value) == "line 2: duplicate score record 0 0 A0 0 3"

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


class TestLineBreaks:
    r"""Lines end at "\n" alone, in props, syntax and score files alike."""

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_score_error_keeps_its_line(self, char):
        with pytest.raises(FormatError, match="^line 3: could not convert"):
            parse_scores(f"0 0 A0 0 3 2.5{char}\n0 0 A1 4 5 1.0\n0 0 A2 6 7 x\n")

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_props_block_is_not_split(self, char):
        """The character is whitespace inside its line, so it neither breaks
        the sentence nor hides the real fault further down."""
        text = SIMPLE_PROPS.replace("- (A0*\n", f"- (A0*{char}\n")
        assert parse_props(text) == parse_props(SIMPLE_PROPS)
        damaged = text.replace("- *\n- *\nsold", "- (A9*)\n- *\nsold")
        with pytest.raises(FormatError, match="^line 3: unknown role label 'A9'$"):
            parse_props(damaged)

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_syntax_row_is_not_split(self, char):
        text = SYNTAX_WITH_PARSE.replace("(S(NP*\n", f"(S(NP*{char}\n")
        assert parse_syntax(text) == parse_syntax(SYNTAX_WITH_PARSE)

    def test_crlf_reads_as_lf(self):
        assert parse_props(SIMPLE_PROPS.replace("\n", "\r\n")) == parse_props(SIMPLE_PROPS)
        syntax = SYNTAX_WITH_PARSE.replace("\n", "\r\n")
        assert parse_syntax(syntax) == parse_syntax(SYNTAX_WITH_PARSE)
        scores = "0 0 A0 0 3 2.5\r\n\r\n0 0 A1 4 5 1.0\r\n"
        assert parse_scores(scores) == parse_scores(scores.replace("\r", ""))
        with pytest.raises(FormatError, match="^line 3: expected 6 fields, found 5$"):
            parse_scores("0 0 A0 0 3 2.5\r\n\r\n0 0 A1 4 5\r\n")

    def test_lone_carriage_return_is_whitespace(self):
        with pytest.raises(FormatError, match="^line 1: expected 6 fields, found 12$"):
            parse_scores("0 0 A0 0 3 2.5\r0 0 A1 4 5 1.0\n")
        assert parse_props(SIMPLE_PROPS.replace("- *)\n", "- *)\r\r\n", 1)) == \
            parse_props(SIMPLE_PROPS)


def _letters(i: int) -> str:
    """A distinct run of letters for each i >= 0."""
    out = ""
    while True:
        i, r = divmod(i, 26)
        out += "abcdefghijklmnopqrstuvwxyz"[r]
        if not i:
            return out


class TestMemos:
    """The parse memos stay within their bounds on hostile input and never
    hold a text that raised."""

    @pytest.fixture(autouse=True)
    def fresh_memos(self, monkeypatch):
        monkeypatch.setattr(corpus_io, "_CELLS", {})
        monkeypatch.setattr(corpus_io, "_SPANS", {})
        monkeypatch.setattr(model, "_LABEL_CACHE", {})
        monkeypatch.setattr(model, "_CLAUSE_CACHE", {})

    def test_bounded_under_distinct_texts(self):
        names = [f"AM-{_letters(i)}" for i in range(10_000)]
        doc = parse_props("run (V*)\n" + "".join(f"- ({name}*)\n" for name in names))
        assert [a.label.text for a in doc.sentences[0].arguments[0][1:]] == names
        sentences = parse_syntax("".join(f"w NN O (S{i}*S{i}) O\n" for i in range(10_000)))
        assert sentences[0].tokens[-1].clause == "(S9999*S9999)"
        table = parse_scores("".join(f"0 0 A0 {i} {i + 1} 1.0\n" for i in range(70_000)))
        assert len(table) == 70_000
        assert len(corpus_io._CELLS) == corpus_io._CELLS_MAX
        assert len(model._LABEL_CACHE) == model._LABEL_CACHE_MAX
        assert len(model._CLAUSE_CACHE) == model._CLAUSE_CACHE_MAX
        assert len(corpus_io._SPANS) == corpus_io._SPANS_MAX

    def test_no_text_that_raised(self):
        cells = ("(A9*", "(R-V*)", "(C-R-A0*)", "(A0**", "((A0*", "(*)", "(AM-*")
        for cell in cells:
            with pytest.raises(FormatError):
                parse_props(f"run (V*)\n- {cell}\n- *)\n")
        for record in ("0 0 A9 0 1 1.0", "0 0 R-V 0 1 1.0", "0 0 A0 3 2 1.0",
                       "0 0 A0 -1 2 1.0"):
            with pytest.raises(FormatError):
                parse_scores(record + "\n")
        for tag in ("(S*x", "((S*", "S)"):
            with pytest.raises(FormatError):
                parse_syntax(f"w NN O {tag} O\n")
        assert parse_props("run (V*)\n- (A0*\n- *)\n")     # the memos still fill
        assert not set(corpus_io._CELLS) & set(cells) and corpus_io._CELLS
        assert not {"A9", "R-V", "C-R-A0", "AM-"} & set(model._LABEL_CACHE)
        assert not {"(S*x", "((S*", "S)"} & set(model._CLAUSE_CACHE)
        assert not {(3, 2), (-1, 2)} & set(corpus_io._SPANS) and corpus_io._SPANS


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
            assert sent.clauses == ((0, props.n_tokens - 1),)

    @pytest.mark.parametrize("n_tokens,predicates", [
        (0, ()), (1, ((0, "go"),)), (2, ()), (6, ((1, "sell"), (4, "buy")))])
    def test_skeleton_syntax_decodes_its_own_tags(self, n_tokens, predicates):
        syntax = corpus_io.skeleton_syntax(n_tokens, predicates)
        doc = PropsDocument((PropsSentence(n_tokens, predicates, ((),) * len(predicates)),))
        [sent] = skeleton_sentences(doc)
        assert Syntax(sent.chunks, sent.nes, sent.clauses, sent.clause_events) == syntax
        assert [kind for kind, _s, _e in syntax.chunks] == [
            "VP" if i in dict(predicates) else "NP" for i in range(n_tokens)]

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SyntheticConfig(precision=1.5)
        with pytest.raises(ValueError):
            SyntheticConfig(tokens_range=(5, 3))
        with pytest.raises(ValueError):
            SyntheticConfig(precision=(0.8, 0.9))  # needs one knob per system
