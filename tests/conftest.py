import random

import pytest

from srlcomb.model import Argument, Candidate, RoleLabel, Span


def cand(sentence_id=0, pred=0, label="A0", span=(0, 1), votes=None,
         probs=None, raw=None, features=None, is_gold=None):
    """Shorthand candidate builder; votes default to the prob/score keys."""
    if votes is None:
        votes = set((probs or {})) | set((raw or {})) or {"M1"}
    return Candidate.make(
        sentence_id,
        Argument(pred, RoleLabel.parse(label), Span(*span)),
        votes=votes,
        probs=probs,
        raw_scores=raw,
        features=features,
        is_gold=is_gold,
    )


# the search-hard knobs of perfbench, and the hard-50 corpus of the ROADMAP
SEARCH_HARD = dict(n_systems=6, tokens_range=(20, 40), predicates_range=(1, 4),
                   args_range=(2, 4), precision=0.6, correct_score_mean=3.0,
                   wrong_score_mean=-3.0, score_sd=20.0)
HARD_50 = dict(n_systems=10, tokens_range=(30, 60), predicates_range=(1, 8),
               args_range=(2, 5), precision=0.5, correct_score_mean=3.0,
               wrong_score_mean=-3.0, score_sd=40.0)


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
