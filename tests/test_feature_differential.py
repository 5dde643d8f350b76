"""The feature extractor against its reference.

tests/reference_features.py keeps the extractor as it was before its hot
path was rewritten.  On every pool below, srlcomb.features must give each
candidate the same feature names, and its vocabulary must dump to the same
text, which also pins the order names are interned in.  The pools are
synthetic corpora with skeleton sentences, random sentences with chunk,
clause and named-entity columns and a parse tree, frozen vocabularies, and
subsets of the feature groups.
"""

import dataclasses
import random
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

import reference_features as ref
from srlcomb import features as new
from srlcomb.calibrate import IntervalTable, attach_probs, build_intervals
from srlcomb.corpus_io import AlignmentError, SyntheticConfig, generate_synthetic
from srlcomb.model import Argument, Candidate, ParseNode, RoleLabel, Sentence, Span, Token
from srlcomb.pool import CandidatePool, SentencePool, align_gold, build_pool

GROUP_SUBSETS = ("all", "FS1-FS4", "FS1", "FS2", "FS3", "FS4", "FS5", "FS6",
                 "FS2,FS3", "FS1,FS6", "FS4,FS5")
SYSTEMS = ("M1", "M2", "M3", "M4")
LABELS = ("A0", "A1", "A2", "AM-TMP", "AM-LOC", "R-A0", "C-A1")
PHRASES = ("S", "SBAR", "SINV", "NP", "VP", "PP", "ADVP")
POS = ("NN", "DT", "VBD", "VBZ", "VB", "CC", "IN", "JJ", ",")
CHUNK_TAGS = ("O", "B-NP", "I-NP", "B-VP", "I-VP", "I-PP", "B-PP")
NE_TAGS = ("O", "O", "O", "B-PER", "I-PER", "B-LOC", "I-ORG")


def _synthetic(seed: int, **knobs) -> CandidatePool:
    gold, systems = generate_synthetic(SyntheticConfig(seed=seed, **knobs))
    pool = build_pool([(f"M{i + 1}", doc, table) for i, (doc, table) in enumerate(systems)])
    return attach_probs(align_gold(pool, gold), 0.1)


def _names(pool: CandidatePool, space) -> list:
    return [(c.key, sorted(space.name(i) for i in c.features))
            for c in pool.all_candidates()]


def _assert_same(pool, sentences=None, intervals=None, groups="all",
                 ref_space=None, new_space=None) -> tuple:
    """Extract with both extractors; returns their spaces for chaining.
    Without intervals, both read an empty table."""
    intervals = intervals if intervals is not None else IntervalTable()
    r = ref.FeatureExtractor(ref.FeatureConfig.parse_groups(groups), ref_space)
    n = new.FeatureExtractor(new.FeatureConfig.parse_groups(groups), new_space, intervals)
    want = _names(r.extract_pool(pool, sentences, intervals), r.space)
    got = _names(n.extract_pool(pool, sentences), n.space)
    assert got == want
    assert n.space.dump() == r.space.dump()
    return r.space, n.space


# -- random sentences with syntax ---------------------------------------------


def _tree(rng: random.Random, lo: int, hi: int, depth: int = 0) -> ParseNode:
    """A phrase over tokens lo..hi: unary chains, gaps between children and
    single-token leaves all occur."""
    children = []
    roll = rng.random()
    if depth < 5 and roll < 0.15:
        children.append(_tree(rng, lo, hi, depth + 1))
    elif depth < 5 and hi > lo and roll < 0.85:
        cuts = sorted(rng.sample(range(lo + 1, hi + 1), rng.randint(1, min(3, hi - lo))))
        for a, b in zip([lo] + cuts, cuts + [hi + 1]):
            if rng.random() < 0.8:
                children.append(_tree(rng, a, b - 1, depth + 1))
    return ParseNode(rng.choice(PHRASES), Span(lo, hi), tuple(children))


def _clause_tags(rng: random.Random, n: int) -> list:
    """A balanced bracket column from the S-like phrases of a random tree."""
    opens, closes = [[] for _ in range(n)], [[] for _ in range(n)]
    stack = [_tree(rng, 0, n - 1)]
    while stack:
        node = stack.pop()
        if node.label.startswith("S"):
            opens[node.span.start].append(node.label)
            closes[node.span.end].append(node.label)
        stack.extend(node.children)
    return ["".join(f"({lab}" for lab in o) + "*" + "".join(f"{lab})" for lab in c)
            for o, c in zip(opens, closes)]


def _bio_tags(rng: random.Random, n: int, tags: tuple) -> list:
    """``n`` tags drawn from ``tags``, each I-X that would continue nothing
    made a B-X, so the column is valid B-I-O."""
    out: list = []
    for _ in range(n):
        tag = rng.choice(tags)
        if tag.startswith("I-") and (not out or out[-1][2:] != tag[2:]):
            tag = "B-" + tag[2:]
        out.append(tag)
    return out


def _random_sentence(rng: random.Random, sentence_id: int) -> tuple:
    """(sentence with a parse tree, its pool sentence over random candidates)."""
    n = rng.randint(1, 24)
    preds = tuple((i, f"v{i}") for i in sorted(rng.sample(range(n), rng.randint(1, min(3, n)))))
    clauses = _clause_tags(rng, n)
    # half of the sentences have single-token chunks, so long spans hold
    # more chunks than a stored sequence
    chunk_tags = CHUNK_TAGS if rng.random() < 0.5 else ("B-NP", "B-VP")
    pos = [rng.choice(POS) for _ in range(n)]
    chunks, nes = _bio_tags(rng, n, chunk_tags), _bio_tags(rng, n, NE_TAGS)
    tokens = tuple(Token(i, "," if pos[i] == "," else f"w{i}", pos[i], chunks[i], clauses[i],
                         nes[i]) for i in range(n))
    parse = _tree(rng, 0, n - 1) if rng.random() < 0.9 else None
    sentence = Sentence(sentence_id, tokens, parse)
    cands = {}
    for _ in range(rng.randint(1, 12)):
        start = rng.randrange(n)
        end = rng.randint(start, min(n - 1, start + rng.choice((0, 1, 2, 4, 23))))
        arg = Argument(rng.randrange(len(preds)), RoleLabel.parse(rng.choice(LABELS)),
                       Span(start, end))
        votes = rng.sample(SYSTEMS[:3], rng.randint(1, 3))
        probs = {sid: rng.choice((0.0, 0.5, 1.0, rng.random())) for sid in votes
                 if rng.random() < 0.8}
        cand = Candidate(sentence_id, arg, frozenset(votes), probs=tuple(probs.items()))
        cands[cand.key] = cand
    spool = SentencePool(sentence_id, n, preds, tuple(cands[k] for k in sorted(cands)))
    return sentence, spool


def _random_pool(rng: random.Random, n_sentences: int) -> tuple:
    pairs = [_random_sentence(rng, s) for s in range(n_sentences)]
    # one system that never votes, so FS6 also names "none" for every candidate
    pool = CandidatePool(SYSTEMS, tuple(spool for _, spool in pairs))
    return pool, [sentence for sentence, _ in pairs]


def _random_intervals(rng: random.Random) -> IntervalTable:
    """Cuts for some (system, label) pairs; the others fall back to the
    degenerate table."""
    return IntervalTable({
        (sid, label): tuple(sorted(rng.random() for _ in range(4)))
        for sid in SYSTEMS for label in LABELS if rng.random() < 0.5})


# -- tests ------------------------------------------------------------------------


def test_synthetic_pools_with_skeleton_sentences():
    for seed, knobs in ((1, {}), (7, {}),
                        (3, dict(n_systems=6, tokens_range=(20, 40), predicates_range=(1, 4),
                                 args_range=(2, 4), precision=0.6))):
        pool = _synthetic(seed, n_sentences=40, **knobs)
        _assert_same(pool, intervals=build_intervals(pool))
        _assert_same(pool)      # no intervals: every key is degenerate


def test_group_subsets():
    pool = _synthetic(5, n_sentences=25)
    intervals = build_intervals(pool)
    rng = random.Random(5)
    syntax_pool, sentences = _random_pool(rng, 25)
    for groups in GROUP_SUBSETS:
        _assert_same(pool, intervals=intervals, groups=groups)
        _assert_same(syntax_pool, sentences, _random_intervals(rng), groups=groups)


def test_every_group_subset():
    """Each of the 63 non-empty group sets, on skeleton and syntax sentences:
    the one loop of ``extract_pool`` tests each group's flag on its own."""
    pool = _synthetic(6, n_sentences=8)
    intervals = build_intervals(pool)
    syntax_pool, sentences = _random_pool(random.Random(6), 8)
    syntax_intervals = _random_intervals(random.Random(7))
    for size in range(1, len(new.ALL_GROUPS) + 1):
        for groups in combinations(new.ALL_GROUPS, size):
            _assert_same(pool, intervals=intervals, groups=",".join(groups))
            _assert_same(syntax_pool, sentences, syntax_intervals, groups=",".join(groups))


def test_extracted_candidates_are_copies_with_features():
    """Every candidate ``extract_pool`` returns is its pool candidate with
    the features set, field for field, and the pool keeps its skeleton."""
    pool, sentences = _random_pool(random.Random(9), 12)
    for given_sentences in (None, sentences):
        out = new.FeatureExtractor().extract_pool(pool, given_sentences)
        assert out.system_ids == pool.system_ids
        for sp, osp in zip(pool.sentences, out.sentences):
            assert (osp.sentence_id, osp.n_tokens, osp.predicates) == (
                sp.sentence_id, sp.n_tokens, sp.predicates)
            assert len(osp.candidates) == len(sp.candidates)
            for c, got in zip(sp.candidates, osp.candidates):
                assert type(got) is Candidate and got is not c and c.features is None
                want = c.with_features(got.features)
                names = [f.name for f in dataclasses.fields(c)]
                assert names[-1] == "key"
                assert ([getattr(got, f) for f in names] == [getattr(want, f) for f in names]
                        and got == want and hash(got) == hash(want))
                assert all(getattr(got, f) is getattr(c, f) for f in names if f != "features")
                assert list(got.features) == sorted(set(got.features))


def test_frozen_space():
    train, test = _synthetic(11, n_sentences=30), _synthetic(12, n_sentences=30)
    _, new_space = _assert_same(train, intervals=build_intervals(train))
    vocabulary = new_space.dump()
    ref_frozen, new_frozen = ref.FeatureSpace.load(vocabulary), new.FeatureSpace.load(vocabulary)
    _assert_same(test, intervals=build_intervals(test),
                 ref_space=ref_frozen, new_space=new_frozen)
    assert new_frozen.dump() == vocabulary
    # a frozen space built from another group set drops most names
    rng = random.Random(12)
    pool, sentences = _random_pool(rng, 20)
    _assert_same(pool, sentences, groups="FS4,FS5",
                 ref_space=ref.FeatureSpace.load(vocabulary),
                 new_space=new.FeatureSpace.load(vocabulary))


def test_random_syntax_covers_every_parse_feature():
    """Seeded pools whose names, taken together, include every kind of FS5
    name, so that the comparison runs each branch of the parse features."""
    rng = random.Random(2024)
    seen = set()
    for _ in range(30):
        pool, sentences = _random_pool(rng, 10)
        intervals = _random_intervals(rng)
        _, space = _assert_same(pool, sentences, intervals)
        seen |= {space.name(i).split("=")[0] for i in range(len(space))}
    assert {"fs5:path", "fs5:gpath_a", "fs5:gpath_b", "fs5:unmapped", "fs5:parse_absent",
            "fs5:subsump", "fs4:ne", "fs4:chunkseq_start", "fs4:clauseseq_end"} <= seen


@settings(max_examples=60, deadline=None)
@given(st.randoms(use_true_random=False), st.integers(1, 6),
       st.sampled_from(GROUP_SUBSETS))
def test_random_syntax(rng, n_sentences, groups):
    pool, sentences = _random_pool(rng, n_sentences)
    _assert_same(pool, sentences, _random_intervals(rng), groups=groups)


def test_bad_skeleton_rejected_like_the_reference():
    cand = Candidate(0, Argument(0, RoleLabel.parse("A0"), Span(0, 0)), frozenset(["M1"]))
    for n_tokens, preds in ((3, ((2, "a"), (1, "b"))), (3, ((1, "a"), (1, "b"))),
                            (3, ((3, "a"),))):
        pool = CandidatePool(("M1",), (SentencePool(0, n_tokens, preds, (cand,)),))
        for module in (ref, new):
            for groups in ("all", "FS1", "FS6"):
                with pytest.raises(ValueError):
                    module.FeatureExtractor(module.FeatureConfig.parse_groups(groups)) \
                        .extract_pool(pool)


def test_sentence_shorter_than_its_pool_sentence():
    """A sentence with fewer tokens than its pool sentence is rejected before
    any feature is extracted, so no span reaches past the sentence."""
    rng = random.Random(8)
    sentence, spool = _random_sentence(rng, 0)
    longer = SentencePool(0, spool.n_tokens + 7, spool.predicates, spool.candidates)
    pool = CandidatePool(SYSTEMS, (longer,))
    with pytest.raises(AlignmentError, match="^sentence 0: token counts differ$"):
        new.FeatureExtractor().extract_pool(pool, [sentence])
    with pytest.raises(AlignmentError, match="^syntax has 2 sentences, props has 1$"):
        new.FeatureExtractor().extract_pool(pool, [sentence, sentence])
