"""What ``parse_syntax`` makes of damaged syntax files, pinned.

A seeded campaign mutates one emitted syntax file, with chunks of several
tokens, named entities, nested clauses and a parse column
(tests/rich_syntax.py): 400 single-line and single-cell mutations drawn from
``random.Random(0)``.  For each, ``tests/syntax_errors.json`` holds either the
error raised (its type, message and line) or the SHA-256 of ``emit_syntax``
of what parsed.  So every message, every line number and the order in which
a sentence's columns are checked stay as they are.

A change that is meant to change an outcome rewrites the table with

    PYTHONPATH=src python tests/test_syntax_errors.py

and says in CHANGES.md which outcomes changed, and why.
"""

from __future__ import annotations

import hashlib
import json
import random
import re
from pathlib import Path

from rich_syntax import rich_sentences
from srlcomb.corpus_io import (
    FormatError,
    SyntheticConfig,
    emit_syntax,
    generate_synthetic,
    parse_syntax,
)

TABLE = Path(__file__).resolve().parent / "syntax_errors.json"
N_MUTATIONS = 400

# cells of every column, valid and damaged
CELLS = ("*", "O", "B-NP", "I-NP", "I-VP", "B-PER", "I-PER", "I-LOC", "B-", "I-", "-NP", "B",
         "I", "B-NP-X", "(S*", "*S)", "(S*S)", "(S(SBAR*", "*SBAR)S)", "(SBAR*", "(S*x", "((S*",
         "S)", "(*", "**", "(NP*", "*)", "(NP*)", "(S(NP*", "*))", "(", ")", "NN", "VBD", ",")
TEXT = "()*SNPVBIO- "


def base_text() -> str:
    gold, _systems = generate_synthetic(SyntheticConfig(
        n_sentences=8, seed=5, n_systems=1, tokens_range=(3, 12), predicates_range=(1, 3)))
    return emit_syntax(rich_sentences(gold, 5))


def _random_text(rng: random.Random, size: int) -> str:
    return "".join(rng.choice(TEXT) for _ in range(rng.randint(0, size)))


def mutate(rng: random.Random, lines: list) -> tuple[str, str]:
    """(what was done, the mutated text) of one mutation of ``lines``: one
    line deleted, duplicated, blanked or rewritten, or one cell replaced."""
    lines = list(lines)
    row = rng.randrange(len(lines))
    edit = rng.choice(("delete", "duplicate", "blank", "text", "cell", "cell", "cell", "cell"))
    if edit == "delete":
        del lines[row]
    elif edit == "duplicate":
        lines.insert(row, lines[row])
    elif edit == "blank":
        lines[row] = rng.choice(("", " ", "\t"))
    elif edit == "text":
        lines[row] = _random_text(rng, 30)
    else:
        fields = lines[row].split() or [""]
        k = rng.randrange(len(fields))
        fields[k] = rng.choice(CELLS) if rng.random() < 0.8 else _random_text(rng, 8)
        lines[row] = " ".join(fields)
        edit = f"cell {k + 1}"
    what = f"line {row + 1} {edit}" + (f": {lines[row]!r}" if edit != "delete" else "")
    return what, "\n".join(lines) + "\n"


def outcome(text: str) -> list:
    """[type, message, line] of the error ``parse_syntax`` raises on ``text``,
    or ["ok", SHA-256 of emit_syntax of the sentences it returns]."""
    try:
        sentences = parse_syntax(text)
    except Exception as exc:        # noqa: BLE001 - any error is recorded
        return [type(exc).__name__, str(exc), getattr(exc, "line", None)]
    return ["ok", hashlib.sha256(emit_syntax(sentences).encode()).hexdigest()]


def campaign() -> list:
    """[what was done, *outcome] of each mutation, in order."""
    lines = base_text().split("\n")[:-1]
    rng = random.Random(0)
    table = []
    for _ in range(N_MUTATIONS):
        what, text = mutate(rng, lines)
        table.append([what, *outcome(text)])
    return table


def _table() -> list:
    return json.loads(TABLE.read_text(encoding="utf-8"))


def test_base_file_round_trips():
    text = base_text()
    sentences = parse_syntax(text)
    assert emit_syntax(sentences) == text
    assert all(sent.parse is not None for sent in sentences)


def test_outcomes_match_the_table():
    assert campaign() == _table()


def test_table_raises_only_format_errors_of_each_column():
    """Each of today's syntax messages occurs, the quoted cell masked."""
    table = _table()
    assert {row[1] for row in table} == {"ok", FormatError.__name__}
    kinds = {re.sub(r"'.*'|\d+", "X", row[2].partition(": ")[2]) for row in table
             if row[1] != "ok"}
    assert kinds >= {
        "malformed chunk tag X", "chunk tag X continues nothing",
        "malformed named-entity tag X", "named-entity tag X continues nothing",
        "malformed clause tag X", "clause bracket closed but never opened",
        "unclosed clause bracket", "malformed parse cell X",
        "parse bracket closed but never opened", "unclosed parse bracket (S",
        "expected X or X columns, found X", "expected X columns, found X"}

if __name__ == "__main__":
    rows = ",\n".join(json.dumps(row) for row in campaign())
    TABLE.write_text(f"[\n{rows}\n]\n", encoding="utf-8")
    print(f"{N_MUTATIONS} outcomes written to {TABLE}")
