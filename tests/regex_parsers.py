"""The props and score parsers as they were written with one regular
expression per bracket-cell shape, kept as the reference that
test_parser_differential.py compares srlcomb.corpus_io against.  Only the
document types and label parsing are shared with srlcomb."""

from __future__ import annotations

import math
import re
from typing import Optional

from srlcomb.corpus_io import FormatError, PropsDocument, PropsSentence
from srlcomb.model import Argument, RoleLabel, Span


def _lines(text: str) -> list[str]:
    r"""Lines end at "\n" alone; "\r\n" counts as one line end, and a lone
    "\r" is whitespace inside its line."""
    return text.replace("\r\n", "\n").split("\n")


def _sentence_blocks(text: str) -> list[list[tuple[int, str]]]:
    blocks: list[list[tuple[int, str]]] = []
    current: list[tuple[int, str]] = []
    for line_no, raw in enumerate(_lines(text), 1):
        if raw.strip():
            current.append((line_no, raw))
        elif current:
            blocks.append(current)
            current = []
    if current:
        blocks.append(current)
    return blocks


_OPEN_CELL_RE = re.compile(r"^\(([^()\s*]+)\*$")
_SINGLE_CELL_RE = re.compile(r"^\(([^()\s*]+)\*\)$")


def parse_props(text: str) -> PropsDocument:
    sentences = []
    for block in _sentence_blocks(text):
        rows = []
        width = None
        for line_no, raw in block:
            cols = raw.split()
            if width is None:
                width = len(cols)
                if width < 1:
                    raise FormatError("empty line inside sentence", line_no)
            elif len(cols) != width:
                raise FormatError(
                    f"expected {width} columns, found {len(cols)}", line_no)
            rows.append((line_no, cols))

        n_tokens = len(rows)
        n_cols = width - 1
        predicates = tuple(
            (i, cols[0]) for i, (_ln, cols) in enumerate(rows) if cols[0] != "-")
        if len(predicates) != n_cols:
            raise FormatError(
                f"{len(predicates)} target verbs but {n_cols} argument columns",
                rows[0][0])

        arguments: list[tuple[Argument, ...]] = []
        for p in range(n_cols):
            args: list[Argument] = []
            open_label: Optional[RoleLabel] = None
            open_start = -1
            for i, (line_no, cols) in enumerate(rows):
                cell = cols[p + 1]
                if cell == "*":
                    continue
                if cell == "*)":
                    if open_label is None:
                        raise FormatError("argument closed but never opened", line_no)
                    args.append(Argument(p, open_label, Span(open_start, i)))
                    open_label = None
                    continue
                single = _SINGLE_CELL_RE.match(cell)
                opener = _OPEN_CELL_RE.match(cell)
                if single or opener:
                    if open_label is not None:
                        raise FormatError("argument opened while another is open", line_no)
                    try:
                        label = RoleLabel.parse((single or opener).group(1))
                    except ValueError as exc:
                        raise FormatError(str(exc), line_no) from exc
                    if single:
                        args.append(Argument(p, label, Span(i, i)))
                    else:
                        open_label = label
                        open_start = i
                    continue
                raise FormatError(f"malformed bracket cell {cell!r}", line_no)
            if open_label is not None:
                raise FormatError(
                    f"argument {open_label.text} never closed", rows[-1][0])
            arguments.append(tuple(args))
        sentences.append(PropsSentence(n_tokens, predicates, tuple(arguments)))
    return PropsDocument(tuple(sentences))


def parse_scores(text: str) -> dict:
    table: dict = {}
    for line_no, raw in enumerate(_lines(text), 1):
        if not raw.strip():
            continue
        parts = raw.split()
        if len(parts) != 6:
            raise FormatError(f"expected 6 fields, found {len(parts)}", line_no)
        try:
            sent, pred = int(parts[0]), int(parts[1])
            label = RoleLabel.parse(parts[2])
            span = Span(int(parts[3]), int(parts[4]))
            score = float(parts[5])
        except ValueError as exc:
            raise FormatError(str(exc), line_no) from exc
        if not math.isfinite(score):
            raise FormatError(f"non-finite score {parts[5]}", line_no)
        key = (sent, pred, label.text, span)
        if key in table:
            raise FormatError(f"duplicate score record {sent} {pred} {label.text} "
                              f"{span.start} {span.end}", line_no)
        table[key] = score
    return table
