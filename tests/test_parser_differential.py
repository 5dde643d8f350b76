"""The props and score parsers against their regex reference, and the syntax
parser under mutation.

For every input, srlcomb.corpus_io must return a document equal to the one
tests/regex_parsers.py returns, or raise the same error with the same
message and line number.  Inputs are emitted synthetic corpora, single-line
and single-cell mutations of them, and hand-picked damaged bracket cells,
also read with the bracket-cell memo warm.
``parse_syntax`` has no reference parser: on single-line and single-cell
mutations of an emitted syntax file with a parse column, it must return
sentences or raise FormatError, and nothing else.
"""

import pytest
from hypothesis import given, settings, strategies as st

import regex_parsers
from srlcomb import corpus_io
from srlcomb.corpus_io import (
    FormatError,
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
from srlcomb.model import ParseNode, Sentence, Span

DAMAGED_CELLS = ("(*)", "(A0", "((A0*", "(A0*))", "(A 0*", "*)*", "(*", "*", "*)", "(",
                 ")", "(A0**", "(A0*)*", "(A0*)", "(V*)", "(A9*", "(R-V*)", "(C-R-A0*",
                 "(R-AM-TMP*)", "(AM-TMP*", "(AM-*", "(A0*A0)", "(A0\t*")
SCORE_TOKENS = ("x", "-1", "0", "3", "1.5", "nan", "inf", "-inf", "1e999", "A0", "A9",
                "V", "R-V", "C-A1", "AM-TMP", "")
CELL_TEXT = st.text(alphabet="()*AVMRC-019 ", max_size=8)
SYNTAX_CELLS = ("*", "(S*", "*)", "(S*)", "(S(NP*", "*))", "(NP*)", "(NP*", "(", ")", "**",
                "(*", "(S *", "B-NP", "I-NP", "I-VP", "B-", "-NP", "B", "O", "I-PER", "NN", "")
SYNTAX_TEXT = st.text(alphabet="()*SNPVBIO- ", max_size=8)


def _outcome(parse, text: str):
    try:
        return "ok", parse(text)
    except Exception as exc:        # noqa: BLE001 - any difference is a failure
        return type(exc), str(exc), getattr(exc, "line", None)


def _assert_same(new, ref, text: str) -> None:
    got, want = _outcome(new, text), _outcome(ref, text)
    assert got == want, text
    assert got[0] in ("ok", FormatError), got


@st.composite
def corpora(draw):
    """(props text, scores text) of one emitted synthetic system or gold."""
    cfg = SyntheticConfig(n_sentences=draw(st.integers(1, 4)), seed=draw(st.integers(0, 10**6)),
                          n_systems=1, tokens_range=(4, 12), predicates_range=(1, 3))
    gold, [(doc, table)] = generate_synthetic(cfg)
    return emit_props(draw(st.sampled_from([gold, doc]))), emit_scores(table)


@st.composite
def mutated_lines(draw, text: str, token):
    """`text` with one line deleted, duplicated, blanked or rewritten, or
    with one whitespace-separated field of one line replaced."""
    lines = text.splitlines() or [""]
    row = draw(st.integers(0, len(lines) - 1))
    edit = draw(st.sampled_from(["delete", "duplicate", "blank", "text", "field"]))
    if edit == "delete":
        del lines[row]
    elif edit == "duplicate":
        lines.insert(row, lines[row])
    elif edit == "blank":
        lines[row] = draw(st.sampled_from(["", " ", "\t"]))
    elif edit == "text":
        lines[row] = draw(st.text(max_size=30))
    else:
        fields = lines[row].split() or [""]
        fields[draw(st.integers(0, len(fields) - 1))] = draw(token)
        lines[row] = " ".join(fields)
    return "\n".join(lines) + "\n"


@settings(max_examples=200, deadline=None)
@given(corpora())
def test_emitted_corpora_parse_alike(corpus):
    props, scores = corpus
    _assert_same(parse_props, regex_parsers.parse_props, props)
    _assert_same(parse_scores, regex_parsers.parse_scores, scores)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_props_parse_alike(data):
    props, _scores = data.draw(corpora())
    cell = st.one_of(st.sampled_from(DAMAGED_CELLS), CELL_TEXT)
    text = data.draw(mutated_lines(props, cell))
    _assert_same(parse_props, regex_parsers.parse_props, text)


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_mutated_scores_parse_alike(data):
    _props, scores = data.draw(corpora())
    token = st.one_of(st.sampled_from(SCORE_TOKENS), st.text(max_size=6))
    text = data.draw(mutated_lines(scores, token))
    _assert_same(parse_scores, regex_parsers.parse_scores, text)


def _frame(cells) -> str:
    """A one-predicate props sentence whose bracket column is ``cells``."""
    return "".join(f"{'run' if i == 0 else '-'} {c}\n" for i, c in enumerate(cells))


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(DAMAGED_CELLS), st.sampled_from(["(A1*", "*", "*)", "(A1*)"]),
       st.integers(0, 3))
def test_damaged_cells_parse_alike(cell, neighbour, row):
    """One damaged cell in a small frame, after an open, closed or no argument."""
    cells = ["(V*)", neighbour, "*", "*)", "*"]
    cells[1 + row] = cell
    _assert_same(parse_props, regex_parsers.parse_props, _frame(cells))


@pytest.mark.parametrize("cell", DAMAGED_CELLS)
def test_damaged_cells_parse_alike_with_warm_memo(cell):
    """The cell memo is warm, both with the open cell "(A1*" and with the
    cell itself where it is valid; then the cell comes right after "(A1*"."""
    for warm in (["(V*)", "(A1*", "*)"], ["(V*)", cell], ["(V*)", cell, "*)"]):
        try:
            parse_props(_frame(warm))
        except FormatError:
            pass
    assert "(A1*" in corpus_io._CELLS
    _assert_same(parse_props, regex_parsers.parse_props,
                 _frame(["(V*)", "(A1*", cell, "*", "*)"]))


@st.composite
def syntax_files(draw):
    """An emitted syntax file whose parse column puts every chunk of a
    sentence under one S node."""
    cfg = SyntheticConfig(n_sentences=draw(st.integers(1, 4)), seed=draw(st.integers(0, 10**6)),
                          n_systems=1, tokens_range=(4, 12), predicates_range=(1, 3))
    gold, _systems = generate_synthetic(cfg)
    sentences = []
    for sent in skeleton_sentences(gold):
        chunks = tuple(ParseNode(kind, Span(start, end)) for kind, start, end in sent.chunks)
        root = ParseNode("S", Span(0, len(sent.tokens) - 1), chunks)
        sentences.append(Sentence(sent.id, sent.tokens, root))
    return emit_syntax(sentences)


@settings(max_examples=500, deadline=None)
@given(st.data())
def test_mutated_syntax_raises_only_format_errors(data):
    text = data.draw(syntax_files())
    assert all(sent.parse is not None for sent in parse_syntax(text))
    cell = st.one_of(st.sampled_from(SYNTAX_CELLS), SYNTAX_TEXT)
    mutated = data.draw(mutated_lines(text, cell))
    try:
        parse_syntax(mutated)
    except FormatError:
        pass
