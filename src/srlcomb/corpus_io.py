"""Column-format corpus I/O and a synthetic corpus generator.

Three line-oriented formats are supported, all with blank-line sentence
separators and whitespace-delimited columns:

* props: column 1 is the target-verb lemma or "-"; columns 2..k hold one
  bracket column per predicate, where "(LABEL*" opens an argument, "*)"
  closes it, "(LABEL*)" covers a single token, and "*" is filler.
* syntax: word, POS, chunk B-I-O, clause brackets, NE B-I-O, and an
  optional parse-bracket column ("(S(NP*" style).
* scores: one "sentIdx predIdx label start end score" record per line.
"""

from __future__ import annotations

import math
import random
import re
from dataclasses import dataclass
from itertools import groupby
from typing import Iterator, Optional, Sequence

from .model import (
    Argument,
    LabelKind,
    ParseNode,
    RoleLabel,
    Sentence,
    Span,
    Syntax,
    TagError,
    Token,
    V_LABEL,
    set_frozen_field,
)


class FormatError(ValueError):
    """Malformed input file; ``line`` is the 1-based offending line."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        super().__init__(f"line {line}: {message}" if line is not None else message)


class SerializationError(ValueError):
    """The in-memory document cannot be expressed in the target format."""


class AlignmentError(ValueError):
    """Documents disagree on the sentence/predicate skeleton."""


# ---------------------------------------------------------------------------
# Props documents


@dataclass(frozen=True, init=False)
class PropsSentence:
    """Predicate/argument annotations of one sentence.

    ``arguments[p]`` holds the arguments of predicate ``p`` (including its V
    pseudo-argument), kept sorted by span start; spans of one predicate are
    disjoint, which is what the bracket format can express.
    """

    n_tokens: int
    predicates: tuple[tuple[int, str], ...]
    arguments: tuple[tuple[Argument, ...], ...]

    def __init__(self, n_tokens: int, predicates: Sequence[tuple[int, str]],
                 arguments: Sequence[Sequence[Argument]]) -> None:
        if len(predicates) != len(arguments):
            raise ValueError("one argument set required per predicate")
        normalized = []
        for p, args in enumerate(arguments):
            last_start, ordered = -1, True
            for arg in args:
                if arg.predicate != p:
                    raise ValueError("argument filed under the wrong predicate")
                span = arg.span
                if span.end >= n_tokens:
                    raise ValueError("argument span exceeds sentence length")
                ordered = ordered and span.start > last_start
                last_start = span.start
            # strictly increasing starts, as a bracket column gives, are sorted
            normalized.append(tuple(args) if ordered else tuple(
                sorted(args, key=lambda a: (a.span.start, a.span.end, a.label.text))))
        set_frozen_field(self, "n_tokens", n_tokens)
        set_frozen_field(self, "predicates", tuple(predicates))
        set_frozen_field(self, "arguments", tuple(normalized))

    def scored_arguments(self, predicate: int) -> tuple[Argument, ...]:
        """Arguments of one predicate without the V pseudo-argument."""
        return tuple(a for a in self.arguments[predicate] if a.label.is_scored())


@dataclass(frozen=True)
class PropsDocument:
    sentences: tuple[PropsSentence, ...]

    def __len__(self) -> int:
        return len(self.sentences)


def check_skeleton(docs: Sequence[tuple[str, PropsDocument]]) -> None:
    """Verify that all (name, document) pairs share sentence count, token
    counts and predicates.  A document only needs ``len`` and ``sentences``
    with ``n_tokens`` and ``predicates``, so a ``CandidatePool`` will do.
    The error names the document that differs and the first document."""
    if not docs:
        return
    first_name, first = docs[0]
    for name, doc in docs[1:]:
        if len(doc) != len(first):
            raise AlignmentError(f"sentence counts differ: {first_name} has {len(first)}, "
                                 f"{name} has {len(doc)}")
        for s, (a, b) in enumerate(zip(first.sentences, doc.sentences)):
            if a.n_tokens != b.n_tokens:
                raise AlignmentError(f"sentence {s}: token counts differ: {first_name} has "
                                     f"{a.n_tokens}, {name} has {b.n_tokens}")
            if a.predicates != b.predicates:
                raise AlignmentError(
                    f"sentence {s}: predicates differ between {first_name} and {name}")


def text_lines(text: str) -> list[str]:
    r"""The lines of a text, broken at "\n" only: every reader of srlcomb
    counts lines this way.  "\r\n" is one break, and a final break ends the
    last line, as ``str.splitlines`` has it.  Unlike ``splitlines``, no other
    character ends a line: "\x0b", "\x0c", "\x1c"-"\x1e", "\x85", "\u2028"
    and "\u2029" stay inside it, and so does a lone "\r", which the
    whitespace-separated formats read as whitespace."""
    if "\r" in text:
        text = text.replace("\r\n", "\n")
    lines = text.split("\n")
    if not lines[-1]:
        lines.pop()
    return lines


def _sentence_blocks(text: str) -> Iterator[tuple[int, list[list[str]]]]:
    """Runs of non-blank lines, each as (line number of its first line, the
    whitespace-separated fields of each line).  A blank line has no fields."""
    line_no = 1
    for filled, run in groupby(map(str.split, text_lines(text)), bool):
        run = list(run)
        if filled:
            yield line_no, run
        line_no += len(run)


# spans built so far, shared between equal spans; the bound keeps hostile
# input from growing the memo without limit
_SPANS: dict = {}
_SPANS_MAX = 65536


def _span(start: int, end: int) -> Span:
    """Span(start, end), shared between equal spans: parsing builds many
    equal spans, and a shared one is cheaper to build and to compare."""
    span = _SPANS.get((start, end))
    if span is None:
        span = Span(start, end)
        if len(_SPANS) < _SPANS_MAX:
            _SPANS[start, end] = span
    return span


# the label name inside "(NAME*" and "(NAME*)" cells
_CELL_NAME_RE = re.compile(r"[^()\s*]+")

# valid open cells read so far, each as (label, single): "(A0*)" is (A0, True);
# a corpus uses a few dozen, and the bound keeps hostile input from growing
# the memo without limit.  A cell that raised is never stored.
_CELLS: dict = {}
_CELLS_MAX = 4096


# Argument's and Token's slot setters: the bracket scan has checked each
# argument it makes, a syntax row's cells are the token's fields as they
# are, and setting the slots directly costs about half of what the generated
# __init__ does
_new = object.__new__
_set_predicate = Argument.predicate.__set__
_set_label = Argument.label.__set__
_set_span = Argument.span.__set__
_set_index, _set_form, _set_pos, _set_chunk, _set_clause, _set_ne = (
    getattr(Token, name).__set__ for name in ("index", "form", "pos", "chunk", "clause", "ne"))


def parse_props(text: str) -> PropsDocument:
    """Parse a props file; raises FormatError with a line number on damage.

    The bracket scan rejects every damaged cell and gives each predicate its
    arguments with strictly increasing starts inside the sentence, which is
    all ``PropsSentence`` checks, so each sentence is made without those
    checks and their sort."""
    sentences = []
    for first, rows in _sentence_blocks(text):
        width = len(rows[0])
        if len(set(map(len, rows))) > 1:
            k = next(k for k, cols in enumerate(rows) if len(cols) != width)
            raise FormatError(f"expected {width} columns, found {len(rows[k])}", first + k)
        columns = list(zip(*rows))
        predicates = tuple([(i, lemma) for i, lemma in enumerate(columns[0]) if lemma != "-"])
        if len(predicates) != width - 1:
            raise FormatError(
                f"{len(predicates)} target verbs but {width - 1} argument columns", first)
        sent = _new(PropsSentence)
        set_frozen_field(sent, "n_tokens", len(rows))
        set_frozen_field(sent, "predicates", predicates)
        set_frozen_field(sent, "arguments", tuple(
            [_bracket_column(p, column, first) for p, column in enumerate(columns[1:])]))
        sentences.append(sent)
    return PropsDocument(tuple(sentences))


def _bracket_column(p: int, column: Sequence[str], first: int) -> tuple[Argument, ...]:
    """The arguments of predicate ``p`` from its bracket column, in start
    order; ``first`` is the line number of the column's first cell."""
    args: list[Argument] = []
    open_label: Optional[RoleLabel] = None
    open_start = -1
    for i, cell in enumerate(column):
        if cell == "*":
            continue
        if cell == "*)":
            if open_label is None:
                raise FormatError("argument closed but never opened", first + i)
            label, span = open_label, _span(open_start, i)
            open_label = None
        else:
            opened = _CELLS.get(cell)
            if opened is None:
                opened = _open_cell(cell, open_label is not None, first + i)
            elif open_label is not None:
                raise FormatError("argument opened while another is open", first + i)
            label, single = opened
            if not single:
                open_label = label
                open_start = i
                continue
            span = _span(i, i)
        arg = _new(Argument)
        _set_predicate(arg, p)
        _set_label(arg, label)
        _set_span(arg, span)
        args.append(arg)
    if open_label is not None:
        raise FormatError(f"argument {open_label.text} never closed", first + len(column) - 1)
    return tuple(args)


def _open_cell(cell: str, nested: bool, line: int) -> tuple[RoleLabel, bool]:
    """(label, single) of a cell that opens an argument, checked in this
    order: its shape, then ``nested`` (another argument is open), then its
    label.  A valid cell is memoised in ``_CELLS``."""
    single = cell.endswith("*)")
    name = cell[1:-2] if single else cell[1:-1]
    if (cell[0] != "(" or not (single or cell[-1] == "*")
            or not _CELL_NAME_RE.fullmatch(name)):
        raise FormatError(f"malformed bracket cell {cell!r}", line)
    if nested:
        raise FormatError("argument opened while another is open", line)
    try:
        opened = RoleLabel.parse(name), single
    except ValueError as exc:
        raise FormatError(str(exc), line) from exc
    if len(_CELLS) < _CELLS_MAX:
        _CELLS[cell] = opened
    return opened


def emit_props(doc: PropsDocument) -> str:
    """Serialize a props document; deterministic, one blank line per sentence."""
    lines: list[str] = []
    for s, sent in enumerate(doc.sentences):
        k = len(sent.predicates)
        cells = [["-"] + ["*"] * k for _ in range(sent.n_tokens)]
        for idx, lemma in sent.predicates:
            cells[idx][0] = lemma
        for p, args in enumerate(sent.arguments):
            prev_end = -1
            for arg in args:  # already sorted by span start
                if arg.span.start <= prev_end:
                    raise SerializationError(
                        f"sentence {s}, predicate {p}: overlapping spans cannot "
                        f"be written to a bracket column")
                prev_end = arg.span.end
                col = p + 1
                if len(arg.span) == 1:
                    cells[arg.span.start][col] = f"({arg.label.text}*)"
                else:
                    cells[arg.span.start][col] = f"({arg.label.text}*"
                    cells[arg.span.end][col] = "*)"
        for row in cells:
            lines.append(" ".join(row))
        lines.append("")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Syntax documents


_PARSE_CELL_RE = re.compile(r"^((?:\([^()\s*]+)*)\*(\)*)$")


def _parse_tree_column(cells: Sequence[tuple[int, str]], n_tokens: int) -> Optional[ParseNode]:
    stack: list[tuple[str, int, list[ParseNode]]] = []
    roots: list[ParseNode] = []
    for i, (line_no, cell) in enumerate(cells):
        m = _PARSE_CELL_RE.match(cell)
        if not m:
            raise FormatError(f"malformed parse cell {cell!r}", line_no)
        for label in (part for part in m.group(1).split("(") if part):
            stack.append((label, i, []))
        for _ in m.group(2):
            if not stack:
                raise FormatError("parse bracket closed but never opened", line_no)
            label, start, children = stack.pop()
            node = ParseNode(label, Span(start, i), tuple(children))
            if stack:
                stack[-1][2].append(node)
            else:
                roots.append(node)
    if stack:
        raise FormatError(f"unclosed parse bracket ({stack[-1][0]}", cells[-1][0])
    if not roots:
        return None
    if len(roots) == 1:
        return roots[0]
    return ParseNode("TOP", Span(0, n_tokens - 1), tuple(roots))


def _tokens(rows: Sequence[Sequence[str]]) -> tuple[Token, ...]:
    """The tokens of one sentence's syntax rows, made through their slot
    setters."""
    tokens = []
    for i, cols in enumerate(rows):
        token = _new(Token)
        _set_index(token, i)
        _set_form(token, cols[0])
        _set_pos(token, cols[1])
        _set_chunk(token, cols[2])
        _set_clause(token, cols[3])
        _set_ne(token, cols[4])
        tokens.append(token)
    return tuple(tokens)


def parse_syntax(text: str) -> list[Sentence]:
    """Parse a syntax file into Sentences.  Each sentence is checked in this
    order: its column counts, its chunk, named-entity and clause columns
    (as ``Sentence`` decodes them), then its parse column."""
    sentences: list[Sentence] = []
    for sent_id, (first, rows) in enumerate(_sentence_blocks(text)):
        width = len(rows[0])
        if width not in (5, 6):
            raise FormatError(f"expected 5 or 6 columns, found {width}", first)
        for line_no, cols in enumerate(rows, first):
            if len(cols) != width:
                raise FormatError(f"expected {width} columns, found {len(cols)}", line_no)
        try:
            sentence = Sentence(sent_id, _tokens(rows))
        except TagError as exc:
            raise FormatError(exc.reason, first + exc.token) from exc
        if width == 6:
            # read after the tags, whose errors come first; a tree read off
            # the sentence's own column fits it, so it is set unchecked
            set_frozen_field(sentence, "parse", _parse_tree_column(
                [(line_no, cols[5]) for line_no, cols in enumerate(rows, first)], len(rows)))
        sentences.append(sentence)
    return sentences


def emit_syntax(sentences: Sequence[Sentence]) -> str:
    lines: list[str] = []
    for sent in sentences:
        opens: dict[int, list[str]] = {}
        closes: dict[int, int] = {}
        if sent.parse is not None:
            for node in sent.parse.walk():  # preorder: outer nodes first
                opens.setdefault(node.span.start, []).append(node.label)
                closes[node.span.end] = closes.get(node.span.end, 0) + 1
        for tok in sent.tokens:
            cols = [tok.form, tok.pos, tok.chunk, tok.clause, tok.ne]
            if sent.parse is not None:
                cell = "".join(f"({lab}" for lab in opens.get(tok.index, []))
                cell += "*" + ")" * closes.get(tok.index, 0)
                cols.append(cell)
            lines.append(" ".join(cols))
        lines.append("")
    return "\n".join(lines) + "\n" if lines else ""


def skeleton_sentences(doc: PropsDocument) -> list[Sentence]:
    """Fabricate plain sentences for a props document lacking a syntax file.

    Tokens get placeholder forms and the tags of ``skeleton_syntax``: good
    enough to make partial-syntax features well defined.
    """
    out = []
    for s, sent in enumerate(doc.sentences):
        preds = dict(sent.predicates)
        syntax = skeleton_syntax(sent.n_tokens, sent.predicates)
        # each token's clause tag: what it opens, "*", then what it closes
        clause_tags = ["".join(e for e in events if e[0] == "(") + "*"
                       + "".join(e for e in events if e[0] != "(")
                       for events in syntax.clause_events]
        tokens = tuple(
            Token(i, preds[i], "VBD", "B-" + kind, clause, "O") if i in preds
            else Token(i, f"w{i}", "NN", "B-" + kind, clause, "O")
            for i, ((kind, _s, _e), clause) in enumerate(zip(syntax.chunks, clause_tags)))
        out.append(Sentence(s, tokens))
    return out


def skeleton_syntax(n_tokens: int, predicates: tuple[tuple[int, str], ...]) -> Syntax:
    """A skeleton sentence's syntax, decoded as ``Sentence`` decodes a real
    one: single-token chunks, VP at the predicates and NP elsewhere, no named
    entity, and one clause spanning the sentence."""
    indices = [-1] + [i for i, _lemma in predicates] + [n_tokens]
    if not all(a < b for a, b in zip(indices, indices[1:])):
        raise ValueError(f"predicate indices {indices[1:-1]} must increase "
                         f"from 0 and stay below {n_tokens}")
    preds = set(indices[1:-1])
    chunks = tuple([("VP" if i in preds else "NP", i, i) for i in range(n_tokens)])
    events = [()] * n_tokens
    if n_tokens:
        events[0] += ("(S",)
        events[-1] += ("S)",)
    return Syntax(chunks, (), ((0, n_tokens - 1),) if n_tokens else (), tuple(events))


# ---------------------------------------------------------------------------
# Score sidecars


ScoreTable = dict


def parse_scores(text: str) -> ScoreTable:
    """Parse a raw-score sidecar into a {(sent, pred, label, span): score} table."""
    table: ScoreTable = {}
    for line_no, raw in enumerate(text_lines(text), 1):
        parts = raw.split()
        if not parts:
            continue
        if len(parts) != 6:
            raise FormatError(f"expected 6 fields, found {len(parts)}", line_no)
        try:
            sent, pred = int(parts[0]), int(parts[1])
            label = RoleLabel.parse(parts[2])
            span = _span(int(parts[3]), int(parts[4]))
            score = float(parts[5])
        except ValueError as exc:
            raise FormatError(str(exc), line_no) from exc
        if not math.isfinite(score):
            raise FormatError(f"non-finite score {parts[5]}", line_no)
        size = len(table)
        table[sent, pred, label.text, span] = score
        if len(table) == size:
            raise FormatError(f"duplicate score record {sent} {pred} {label.text} "
                              f"{span.start} {span.end}", line_no)
    return table


def emit_scores(table: ScoreTable) -> str:
    lines = []
    for (sent, pred, label, span), score in sorted(table.items()):
        lines.append(f"{sent} {pred} {label} {span.start} {span.end} {score!r}")
    return "\n".join(lines) + "\n" if lines else ""


# ---------------------------------------------------------------------------
# Synthetic corpus generator


_CORE_LABELS = ("A0", "A1", "A2", "A3", "A4")
_ADJUNCT_LABELS = ("AM-TMP", "AM-LOC", "AM-MNR", "AM-ADV")


@dataclass(frozen=True)
class SyntheticConfig:
    """Knobs for the synthetic corpus generator.

    Per-system precision/recall may be scalars (shared) or one value per
    system.  Label and boundary noise corrupt kept arguments; the keep
    probability is compensated so measured recall tracks the recall knob.
    """

    n_sentences: int = 100
    tokens_range: tuple[int, int] = (8, 26)
    predicates_range: tuple[int, int] = (1, 3)
    args_range: tuple[int, int] = (1, 4)
    n_systems: int = 3
    precision: object = 0.80
    recall: object = 0.75
    label_noise: float = 0.05
    boundary_noise: float = 0.05
    seed: int = 0
    correct_score_mean: float = 15.0
    wrong_score_mean: float = -15.0
    score_sd: float = 6.0

    def __post_init__(self) -> None:
        if self.n_sentences < 0 or self.n_systems < 1:
            raise ValueError("need n_sentences >= 0 and n_systems >= 1")
        for lo, hi in (self.tokens_range, self.predicates_range, self.args_range):
            if lo < 1 or hi < lo:
                raise ValueError("ranges must be non-empty with lo >= 1")
        for p in (*self.precisions, *self.recalls, self.label_noise, self.boundary_noise):
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} out of [0, 1]")

    @property
    def precisions(self) -> tuple[float, ...]:
        return self._per_system(self.precision)

    @property
    def recalls(self) -> tuple[float, ...]:
        return self._per_system(self.recall)

    def _per_system(self, value) -> tuple[float, ...]:
        if isinstance(value, (int, float)):
            return (float(value),) * self.n_systems
        values = tuple(float(v) for v in value)
        if len(values) != self.n_systems:
            raise ValueError("need one knob per system")
        return values


def _carve_span(rng: random.Random, segments: list[tuple[int, int]],
                max_len: int = 4) -> Optional[Span]:
    if not segments:
        return None
    idx = rng.randrange(len(segments))
    lo, hi = segments.pop(idx)
    length = rng.randint(1, min(max_len, hi - lo + 1))
    start = rng.randint(lo, hi - length + 1)
    end = start + length - 1
    if lo <= start - 1:
        segments.append((lo, start - 1))
    if end + 1 <= hi:
        segments.append((end + 1, hi))
    segments.sort()
    return Span(start, end)


def _pick_label(rng: random.Random, used_cores: set) -> RoleLabel:
    free_cores = [c for c in _CORE_LABELS if c not in used_cores]
    if free_cores and rng.random() < 0.7:
        text = rng.choice(free_cores)
        used_cores.add(text)
    else:
        text = rng.choice(_ADJUNCT_LABELS)
    return RoleLabel.parse(text)


def _generate_gold(cfg: SyntheticConfig, rng: random.Random) -> PropsDocument:
    sentences = []
    for _s in range(cfg.n_sentences):
        n_tok = rng.randint(*cfg.tokens_range)
        n_pred = min(rng.randint(*cfg.predicates_range), max(1, n_tok // 4))
        positions = sorted(rng.sample(range(n_tok), n_pred))
        predicates = tuple((pos, f"verb{pos}") for pos in positions)

        segments: list[tuple[int, int]] = []
        prev = -1
        for pos in positions + [n_tok]:
            if prev + 1 <= pos - 1:
                segments.append((prev + 1, pos - 1))
            prev = pos

        arguments: list[list[Argument]] = []
        for p, (pos, _lemma) in enumerate(predicates):
            args = [Argument(p, V_LABEL, Span(pos, pos))]
            used_cores: set = set()
            for _ in range(rng.randint(*cfg.args_range)):
                span = _carve_span(rng, segments)
                if span is None:
                    break
                args.append(Argument(p, _pick_label(rng, used_cores), span))
            arguments.append(args)
        sentences.append(PropsSentence(n_tok, predicates, tuple(tuple(a) for a in arguments)))
    return PropsDocument(tuple(sentences))


def _relabel(rng: random.Random, arg: Argument, taken_cores: set) -> Argument:
    choices = [c for c in _CORE_LABELS if c not in taken_cores and c != arg.label.text]
    choices += [a for a in _ADJUNCT_LABELS if a != arg.label.text]
    return Argument(arg.predicate, RoleLabel.parse(rng.choice(choices)), arg.span)


def _jitter(rng: random.Random, arg: Argument, n_tok: int, blocked: list[Span]) -> Optional[Argument]:
    moves = []
    s, e = arg.span.start, arg.span.end
    for cand in (Span(s, e + 1) if e + 1 < n_tok else None,
                 Span(s, e - 1) if e > s else None,
                 Span(s - 1, e) if s > 0 else None,
                 Span(s + 1, e) if s < e else None):
        if cand is not None and not any(cand.intersects(b) for b in blocked):
            moves.append(cand)
    if not moves:
        return None
    return Argument(arg.predicate, arg.label, rng.choice(moves))


def _corrupt_system(cfg: SyntheticConfig, rng: random.Random, gold: PropsDocument,
                    precision: float, recall: float):
    keep_prob = min(1.0, recall / max(1e-9, (1 - cfg.label_noise) * (1 - cfg.boundary_noise)))
    sentences = []
    table: ScoreTable = {}
    for s, gsent in enumerate(gold.sentences):
        gold_keys = {(s, a.predicate, a.label.text, a.span)
                     for args in gsent.arguments for a in args if a.label.is_scored()}
        per_pred: list[list[Argument]] = []
        n_correct = 0
        n_corrupted = 0
        for p, (pos, _lemma) in enumerate(gsent.predicates):
            args = [Argument(p, V_LABEL, Span(pos, pos))]
            taken_cores: set = set()
            kept = [arg for arg in gsent.scored_arguments(p)
                    if rng.random() < keep_prob]
            spans = [arg.span for arg in kept]
            for i, arg in enumerate(kept):
                r = rng.random()
                out_arg = arg
                if r < cfg.label_noise:
                    out_arg = _relabel(rng, arg, taken_cores)
                elif r < cfg.label_noise + cfg.boundary_noise:
                    # must stay clear of the predicate token and every other
                    # kept argument's current span
                    blocked = [Span(pos, pos)] + spans[:i] + spans[i + 1:]
                    jittered = _jitter(rng, arg, gsent.n_tokens, blocked)
                    if jittered is not None:
                        out_arg = jittered
                        spans[i] = jittered.span
                if (s, p, out_arg.label.text, out_arg.span) in gold_keys:
                    n_correct += 1
                else:
                    n_corrupted += 1
                if out_arg.label.kind is LabelKind.CORE:
                    taken_cores.add(out_arg.label.text)
                args.append(out_arg)
            per_pred.append(args)

        # spuriously add wrong arguments until the precision knob is met
        target_bad = n_correct * (1 - precision) / max(precision, 1e-9)
        want = max(0.0, target_bad - n_corrupted)
        n_spurious = int(want) + (1 if rng.random() < want - int(want) else 0)
        for _ in range(n_spurious):
            for _attempt in range(8):
                p = rng.randrange(len(gsent.predicates))
                length = rng.randint(1, 3)
                start = rng.randrange(max(1, gsent.n_tokens - length + 1))
                span = Span(start, min(start + length - 1, gsent.n_tokens - 1))
                if any(span.intersects(a.span) for a in per_pred[p]):
                    continue
                taken = {a.label.text for a in per_pred[p] if a.label.kind is LabelKind.CORE}
                choices = [c for c in _CORE_LABELS if c not in taken] + list(_ADJUNCT_LABELS)
                label = RoleLabel.parse(rng.choice(choices))
                if (s, p, label.text, span) in gold_keys:
                    continue
                per_pred[p].append(Argument(p, label, span))
                break

        for p, args in enumerate(per_pred):
            for arg in args:
                if not arg.label.is_scored():
                    continue
                correct = (s, p, arg.label.text, arg.span) in gold_keys
                mean = cfg.correct_score_mean if correct else cfg.wrong_score_mean
                table[(s, p, arg.label.text, arg.span)] = rng.gauss(mean, cfg.score_sd)
        sentences.append(PropsSentence(
            gsent.n_tokens, gsent.predicates, tuple(tuple(a) for a in per_pred)))
    return PropsDocument(tuple(sentences)), table


def generate_synthetic(cfg: SyntheticConfig):
    """Generate a gold document plus noisy per-system outputs with raw scores.

    Deterministic for a fixed seed.  Each system is a corruption of gold that
    keeps same-predicate spans disjoint and approximately hits the configured
    precision/recall; raw scores of correct arguments stochastically dominate
    those of wrong ones.
    """
    rng = random.Random(cfg.seed)
    gold = _generate_gold(cfg, rng)
    systems = []
    for j in range(cfg.n_systems):
        systems.append(_corrupt_system(cfg, rng, gold, cfg.precisions[j], cfg.recalls[j]))
    return gold, systems
