import random

import pytest

from srlcomb.calibrate import attach_probs
from srlcomb.corpus_io import PropsDocument, PropsSentence, SyntheticConfig, generate_synthetic
from srlcomb.model import Argument, Candidate, LabelKind, RoleLabel, Span
from srlcomb.pool import build_pool


def cand(sentence_id=0, pred=0, label="A0", span=(0, 1), votes=None,
         probs=None, raw=None, features=None, is_gold=None):
    """Shorthand candidate builder; votes default to the prob/score keys."""
    if votes is None:
        votes = set((probs or {})) | set((raw or {})) or {"M1"}
    return Candidate(
        sentence_id,
        Argument(pred, RoleLabel.parse(label), Span(*span)),
        votes=frozenset(votes),
        raw_scores=tuple((raw or {}).items()),
        probs=tuple((probs or {}).items()),
        features=features,
        is_gold=is_gold,
    )


# the characters besides "\n" and "\r" at which str.splitlines ends a line;
# srlcomb's readers keep each inside its line
NOT_LINE_BREAKS = ("\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029")


# the search-hard knobs of perfbench, and the hard-50 corpus of the ROADMAP
SEARCH_HARD = dict(n_systems=6, tokens_range=(20, 40), predicates_range=(1, 4),
                   args_range=(2, 4), precision=0.6, correct_score_mean=3.0,
                   wrong_score_mean=-3.0, score_sd=20.0)
HARD_50 = dict(n_systems=10, tokens_range=(30, 60), predicates_range=(1, 8),
               args_range=(2, 5), precision=0.5, correct_score_mean=3.0,
               wrong_score_mean=-3.0, score_sd=40.0)


def pool_sentences(n_sentences, seed, knobs):
    """The pooled sentences, with probabilities, of a synthetic corpus."""
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=n_sentences, seed=seed,
                                                       **knobs))
    pool = attach_probs(build_pool([(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]))
    return pool.sentences


_LABELS = ("A0", "A1", "A2", "A3", "A4", "AM-TMP", "AM-LOC",
           "R-A0", "R-AM-TMP", "C-A1", "C-AM-TMP")


def random_candidates(rng: random.Random, n: int, n_predicates: int = 2,
                      n_tokens: int = 20, labels=_LABELS) -> list:
    """Random pooled candidates over a small sentence, each with per-system
    probabilities; keys are unique as in a real pool."""
    out = []
    used = set()
    systems = ("M1", "M2", "M3")
    for _ in range(n):
        for _attempt in range(200):
            pred = rng.randrange(n_predicates)
            start = rng.randrange(n_tokens)
            end = min(start + rng.randint(0, 4), n_tokens - 1)
            label = rng.choice(labels)
            key = (pred, label, start, end)
            if key not in used:
                used.add(key)
                break
        votes = rng.sample(systems, rng.randint(1, 3))
        probs = {s: rng.random() for s in votes}
        out.append(cand(0, pred, label, (start, end), votes, probs=probs))
    return out


@pytest.fixture
def rng():
    return random.Random(12345)


def relabelled(doc: PropsDocument, table, share: float):
    """``doc`` and its score table with about ``share`` of the core and
    adjunct arguments turned into R-X or C-X of their own label.  The choice
    depends on the argument alone, so the systems and gold make the same one."""
    moved = {}
    sentences = []
    for s, sent in enumerate(doc.sentences):
        per_pred = []
        for p, args in enumerate(sent.arguments):
            taken = {(a.label.text, a.span) for a in args}
            out = []
            for a in args:
                key = (s, p, a.label.text, a.span)
                rng = random.Random(repr(key))
                if a.label.kind in (LabelKind.CORE, LabelKind.ADJUNCT) and rng.random() < share:
                    label = RoleLabel.parse(rng.choice(("R-", "C-")) + a.label.text)
                    if (label.text, a.span) not in taken:
                        taken.add((label.text, a.span))
                        moved[key] = (s, p, label.text, a.span)
                        a = Argument(p, label, a.span)
                out.append(a)
            per_pred.append(tuple(out))
        sentences.append(PropsSentence(sent.n_tokens, sent.predicates, tuple(per_pred)))
    return PropsDocument(tuple(sentences)), None if table is None else {moved.get(k, k): v for k, v in table.items()}
