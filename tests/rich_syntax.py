"""Deterministic syntax for a props document, with what a real syntax file
holds and a skeleton lacks: chunks of several tokens and tokens outside any
chunk, named entities, nested clauses, and a parse column.

``rich_sentences(doc, seed)`` gives one sentence per props sentence, with
its token count; its predicates are verbs named by their lemmas.  The same
document and seed always give the same sentences, so ``emit_syntax`` of them
is a fixed file.
"""

from __future__ import annotations

import random

from srlcomb.corpus_io import PropsDocument
from srlcomb.model import ParseNode, Sentence, Span, Token

PHRASES = ("NP", "VP", "PP", "ADVP", "S", "SBAR", "NP", "VP")
CHUNK_KINDS = ("NP", "VP", "PP", "ADVP")
NE_KINDS = ("PER", "LOC", "ORG", "DATE")
POS = ("NN", "DT", "JJ", "IN", "CC", "VBZ", "NNP", ",")


def _phrase(rng: random.Random, lo: int, hi: int, label: str, depth: int) -> ParseNode:
    """A phrase over tokens lo..hi whose children cover it; some are unary."""
    if depth < 4 and rng.random() < 0.1:
        return ParseNode(label, Span(lo, hi), (_phrase(rng, lo, hi, rng.choice(PHRASES),
                                                       depth + 1),))
    children = []
    if hi > lo and depth < 4:
        cuts = sorted(rng.sample(range(lo + 1, hi + 1), rng.randint(1, min(3, hi - lo))))
        children = [_phrase(rng, a, b - 1, rng.choice(PHRASES), depth + 1)
                    for a, b in zip([lo] + cuts, cuts + [hi + 1])]
    return ParseNode(label, Span(lo, hi), tuple(children))


def _clause_tags(root: ParseNode, n: int) -> list:
    """The bracket column of the tree's S and SBAR nodes: at each token the
    outer clauses open first and the inner ones close first."""
    opens, closes = [""] * n, [""] * n
    for node in root.walk():        # preorder: outer nodes first
        if node.label in ("S", "SBAR"):
            opens[node.span.start] += f"({node.label}"
            closes[node.span.end] = f"{node.label})" + closes[node.span.end]
    return [o + "*" + c for o, c in zip(opens, closes)]


def _bio(rng: random.Random, n: int, kinds: tuple, start_p: float, skip: set) -> list:
    """B-I-O tags of runs of one to three tokens; a run starts at a token with
    probability ``start_p`` and never covers a token in ``skip``."""
    tags = ["O"] * n
    i = 0
    while i < n:
        if i in skip or rng.random() >= start_p:
            i += 1
            continue
        kind = rng.choice(kinds)
        length = rng.randint(1, 3)
        tags[i] = "B-" + kind
        i += 1
        while i < n and length > 1 and i not in skip:
            tags[i] = "I-" + kind
            i += 1
            length -= 1
    return tags


def rich_sentences(doc: PropsDocument, seed: int) -> list[Sentence]:
    rng = random.Random(seed)
    out = []
    for s, sent in enumerate(doc.sentences):
        n = sent.n_tokens
        lemmas = dict(sent.predicates)
        pos = ["VBD" if i in lemmas else rng.choice(POS) for i in range(n)]
        commas = {i for i, tag in enumerate(pos) if tag == ","}
        chunks = _bio(rng, n, CHUNK_KINDS, 0.8, commas)
        nes = _bio(rng, n, NE_KINDS, 0.2, commas | set(lemmas))
        root = _phrase(rng, 0, n - 1, "S", 0)
        tokens = tuple(
            Token(i, lemmas.get(i, "," if pos[i] == "," else f"w{i}"), pos[i], chunk, clause, ne)
            for i, (chunk, clause, ne) in enumerate(zip(chunks, _clause_tags(root, n), nes)))
        out.append(Sentence(s, tokens, root))
    return out
