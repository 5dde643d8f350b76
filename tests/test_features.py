import random

import pytest

from srlcomb.calibrate import IntervalTable
from srlcomb.corpus_io import SyntheticConfig, generate_synthetic, parse_syntax
from srlcomb.features import ALL_GROUPS, FeatureConfig, FeatureExtractor, FeatureSpace
from srlcomb.model import Sentence, Span, Token
from srlcomb.pool import CandidatePool, SentencePool, align_gold, build_pool
from conftest import cand


def _names(ex: FeatureExtractor, target, spool, sentence, system_ids=None) -> set:
    """The feature names of ``target``, extracted from a one-sentence pool of
    ``spool``; the systems default to those that vote in it."""
    if system_ids is None:
        system_ids = tuple(sorted({s for c in spool.candidates for s in c.votes}))
    pool = ex.extract_pool(CandidatePool(tuple(system_ids), (spool,)), [sentence])
    [fv] = [c.features for c in pool.sentences[0].candidates if c.key == target.key]
    return {ex.space.name(i) for i in fv}


def _sentence(n=14, pred=6):
    tokens = []
    for i in range(n):
        clause = "(S*" if i == 0 else ("*S)" if i == n - 1 else "*")
        chunk = "B-VP" if i == pred else "B-NP"
        pos = "VBD" if i == pred else "NN"
        tokens.append(Token(i, f"w{i}", pos, chunk, clause, "O"))
    return Sentence(0, tuple(tokens))


@pytest.fixture
def combo_pool():
    """Three systems over one predicate: M1 proposes A0/A1/A2, M2 agrees on
    A1 and relabels M1's A2 span as A4, M3 proposes a shorter A0."""
    cands = [
        cand(0, 0, "A0", (0, 3), votes=("M1",)),
        cand(0, 0, "A0", (1, 3), votes=("M3",)),
        cand(0, 0, "A1", (7, 9), votes=("M1", "M2")),
        cand(0, 0, "A2", (11, 12), votes=("M1",)),
        cand(0, 0, "A4", (11, 12), votes=("M2",)),
    ]
    spool = SentencePool(0, 14, ((6, "sold"),), tuple(sorted(cands, key=lambda c: c.key)))
    return spool, _sentence()


def _get(spool, label, span):
    for c in spool.candidates:
        if c.label.text == label and c.span == Span(*span):
            return c
    raise KeyError((label, span))


class TestVoting:
    def test_agreed_argument(self, combo_pool):
        spool, sentence = combo_pool
        ex = FeatureExtractor(FeatureConfig(groups=("FS1",)))
        names = _names(ex, _get(spool, "A1", (7, 9)), spool, sentence,
                       system_ids=("M1", "M2", "M3"))
        assert "fs1:label=A1" in names
        assert "fs1:numsys=2" in names
        assert {"fs1:sys=M1", "fs1:sys=M2"} <= names
        assert "fs1:sys=M3" not in names
        assert "fs1:seq:M1=A0-V-A1-A2" in names
        assert "fs1:seq:M2=V-A1-A4" in names

    def test_single_vote(self, combo_pool):
        spool, sentence = combo_pool
        ex = FeatureExtractor(FeatureConfig(groups=("FS1", "FS2")))
        names = _names(ex, _get(spool, "A0", (0, 3)), spool, sentence,
                       system_ids=("M1", "M2", "M3"))
        assert "fs1:numsys=1" in names


class TestOverlap:
    def test_same_span_different_label(self, combo_pool):
        spool, sentence = combo_pool
        ex = FeatureExtractor(FeatureConfig(groups=("FS2",)))
        names = _names(ex, _get(spool, "A2", (11, 12)), spool, sentence)
        assert "fs2:samespan:n=1" in names
        assert "fs2:samespan:sys=M2" in names

    def test_included_and_containing(self, combo_pool):
        spool, sentence = combo_pool
        ex = FeatureExtractor(FeatureConfig(groups=("FS2",)))
        wide = _names(ex, _get(spool, "A0", (0, 3)), spool, sentence)
        assert "fs2:within:n=1" in wide and "fs2:within:sys=M3" in wide
        narrow = _names(ex, _get(spool, "A0", (1, 3)), spool, sentence)
        assert "fs2:contains:n=1" in narrow and "fs2:contains:sys=M1" in narrow

    def test_zero_counts_in_single_system_pool(self):
        c = cand(0, 0, "A0", (0, 1), votes=("M1",))
        spool = SentencePool(0, 6, ((3, "ran"),), (c,))
        ex = FeatureExtractor(FeatureConfig(groups=("FS1", "FS2", "FS3")))
        names = _names(ex, c, spool, _sentence(6, 3))
        assert "fs1:numsys=1" in names
        for group in ("fs2", "fs3"):
            for rel in ("samespan", "within", "contains", "crosses"):
                assert f"{group}:{rel}:n=0" in names

    def test_other_predicate_relations(self):
        cands = [cand(0, 0, "A0", (0, 5), votes=("M1",)),
                 cand(0, 1, "A1", (3, 8), votes=("M2",))]
        spool = SentencePool(0, 12, ((6, "a"), (10, "b")),
                             tuple(sorted(cands, key=lambda c: c.key)))
        sent = Sentence(0, tuple(Token(i, f"w{i}") for i in range(12)))
        ex = FeatureExtractor(FeatureConfig(groups=("FS3",)))
        names = _names(ex, cands[0], spool, sent)
        assert "fs3:crosses:n=1" in names and "fs3:crosses:sys=M2" in names


class TestPartialSyntax:
    def test_lengths_and_position(self, combo_pool):
        spool, sentence = combo_pool
        ex = FeatureExtractor(FeatureConfig(groups=("FS4",)))
        names = _names(ex, _get(spool, "A0", (0, 3)), spool, sentence)
        assert "fs4:toklen=4" in names
        assert "fs4:chunklen=4" in names       # skeleton chunks are single-token
        assert "fs4:position=before" in names
        assert "fs4:adjacent=false" in names

    def test_adjacency_and_between(self, combo_pool):
        spool, sentence = combo_pool
        ex = FeatureExtractor(FeatureConfig(groups=("FS4",)))
        names = _names(ex, _get(spool, "A1", (7, 9)), spool, sentence)
        assert "fs4:position=after" in names
        assert "fs4:adjacent=true" in names
        assert "fs4:nchunks_between=0" in names

    def test_bucketing(self, combo_pool):
        spool, sentence = combo_pool
        ex = FeatureExtractor(FeatureConfig(groups=("FS4",)))
        big = cand(0, 0, "A1", (7, 13), votes=("M1",))
        spool2 = SentencePool(0, 14, spool.predicates,
                              tuple(sorted(spool.candidates + (big,), key=lambda c: c.key)))
        names = _names(ex, big, spool2, sentence)
        assert "fs4:toklen=5+" in names

    def test_ngram_capping(self):
        sentence = _sentence(30, 0)
        c = cand(0, 0, "A1", (2, 29), votes=("M1",))
        spool = SentencePool(0, 30, ((0, "v"),), (c,))
        ex = FeatureExtractor(FeatureConfig(groups=("FS4",)))
        names = _names(ex, c, spool, sentence)
        assert any(n.startswith("fs4:chunkseq_start=") for n in names)
        assert any(n.startswith("fs4:chunkseq_end=") for n in names)
        assert not any(n.startswith("fs4:chunkseq=") for n in names)


SYNTAX = """\
The DT B-NP (S* O (S(NP*
cat NN I-NP * O *)
sat VBD B-VP * O (VP*
on IN B-PP * O (PP*
mats NN B-NP *S) O *)))

"""


class TestFullSyntax:
    def _setup(self, span, label="A0"):
        sent = parse_syntax(SYNTAX)[0]
        c = cand(0, 0, label, span, votes=("M1",))
        spool = SentencePool(0, 5, ((2, "sit"),), (c,))
        ex = FeatureExtractor(FeatureConfig(groups=("FS5",)))
        return _names(ex, c, spool, sent)

    def test_exact_constituent(self):
        names = self._setup((0, 1))
        assert "fs5:label=NP" in names
        assert "fs5:path=NP^S_VP_VBD" in names
        assert "fs5:pathlen=4" in names
        assert "fs5:gov=S" in names
        assert "fs5:clauses_up=1" in names
        assert "fs5:vps_down=1" in names

    def test_fallback_mapping(self):
        # span [0,2] has no exact node; NP [0,1] shares the left boundary
        names = self._setup((0, 2))
        assert "fs5:label=NP" in names

    def test_parse_absent_marker(self, combo_pool):
        spool, sentence = combo_pool
        ex = FeatureExtractor(FeatureConfig(groups=("FS5",)))
        names = _names(ex, _get(spool, "A0", (0, 3)), spool, sentence)
        assert names == {"fs5:parse_absent"}

    def test_generalized_paths(self):
        names = self._setup((3, 4), label="AM-LOC")  # PP under VP: longer path
        assert any(n.startswith("fs5:gpath_a=") or n.startswith("fs5:gpath_b=")
                   for n in names) or "fs5:pathlen=3" in names

    def test_fallback_property_random_trees(self, rng):
        # whenever a candidate has no exact node, the mapped node's span is
        # inside the candidate span and shares its start
        sent = parse_syntax(SYNTAX)[0]
        from srlcomb.features import _ParseIndex
        index = _ParseIndex(sent.parse)
        for _ in range(200):
            start = rng.randrange(5)
            end = rng.randint(start, 4)
            span = Span(start, end)
            node = index.map_span(span)
            if node is not None and node.span != span:
                assert span.contains(node.span)
                assert node.span.start == span.start


class TestProbabilities:
    def test_interval_feature_and_none(self):
        c = cand(0, 0, "A0", (0, 1), votes=("M1",), probs={"M1": 0.9})
        spool = SentencePool(0, 6, ((3, "v"),), (c,))
        table = IntervalTable({("M1", "A0"): (0.2, 0.4, 0.6, 0.8)})
        ex = FeatureExtractor(FeatureConfig(groups=("FS6",)), intervals=table)
        names = _names(ex, c, spool, _sentence(6, 3), system_ids=("M1", "M2"))
        assert "fs6:M1=4" in names
        assert "fs6:M2=none" in names


class TestExtractorProperties:
    def test_deterministic(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=10, seed=4))
        pool = align_gold(build_pool(
            [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold)
        a = FeatureExtractor().extract_pool(pool)
        b = FeatureExtractor().extract_pool(pool)
        for sa, sb in zip(a.sentences, b.sentences):
            for ca, cb in zip(sa.candidates, sb.candidates):
                assert ca.features == cb.features

    def test_unrelated_candidate_leaves_fs1_fs2_alone(self, combo_pool):
        spool, sentence = combo_pool
        preds = ((6, "sold"), (13, "ran"))
        spool = SentencePool(0, 14, preds, spool.candidates)
        target = _get(spool, "A1", (7, 9))
        cfg = FeatureConfig(groups=("FS1", "FS2"))
        ex = FeatureExtractor(cfg)
        before = _names(ex, target, spool, sentence, system_ids=("M1", "M2", "M3"))
        extra = cand(0, 1, "A1", (0, 2), votes=("M3",))
        spool2 = SentencePool(0, 14, preds,
                              tuple(sorted(spool.candidates + (extra,), key=lambda c: c.key)))
        ex2 = FeatureExtractor(cfg)
        after = _names(ex2, target, spool2, sentence, system_ids=("M1", "M2", "M3"))
        assert before == after

    def test_group_config_validation(self):
        with pytest.raises(ValueError):
            FeatureConfig(groups=())
        with pytest.raises(ValueError):
            FeatureConfig(groups=("FS9",))
        assert FeatureConfig.parse_groups("FS1-FS3").groups == ("FS1", "FS2", "FS3")
        assert FeatureConfig.parse_groups("all").groups == ALL_GROUPS

    def test_interning_dense_and_in_sorted_order(self):
        space = FeatureSpace()
        assert space.ids(["b", "a", "b"]) == (0, 1)
        assert [space.name(i) for i in range(2)] == ["a", "b"]
        # known names keep their ids; new ones follow in sorted order
        assert space.ids(["d", "b", "c"]) == (1, 2, 3)
        assert space.dump() == "0\ta\n1\tb\n2\tc\n3\td\n"
        assert space.intern("a") == 0 and space.intern("e") == 4 and len(space) == 5

    def test_vocabulary_dump_stable(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=5, seed=4))
        pool = align_gold(build_pool(
            [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold)
        ex1, ex2 = FeatureExtractor(), FeatureExtractor()
        ex1.extract_pool(pool)
        ex2.extract_pool(pool)
        assert ex1.space.dump() == ex2.space.dump()
        reloaded = FeatureSpace.load(ex1.space.dump())
        assert reloaded.dump() == ex1.space.dump()

    def test_loaded_space_is_frozen(self):
        def pool_for(seed):
            gold, systems = generate_synthetic(SyntheticConfig(n_sentences=5, seed=seed))
            return align_gold(build_pool(
                [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold)

        trained = FeatureExtractor()
        trained.extract_pool(pool_for(4))
        frozen = FeatureSpace.load(trained.space.dump())
        n = len(frozen)
        open_ex, frozen_ex = FeatureExtractor(), FeatureExtractor(space=frozen)
        grown = open_ex.extract_pool(pool_for(9))
        kept = frozen_ex.extract_pool(pool_for(9))
        assert len(frozen) == n
        dropped = 0
        for a, b in zip(grown.all_candidates(), kept.all_candidates()):
            names = {open_ex.space.name(i) for i in a.features}
            assert {frozen.name(i) for i in b.features} == {
                name for name in names if frozen.ids([name])}
            dropped += len(a.features) - len(b.features)
        assert dropped > 0
        with pytest.raises(ValueError):
            frozen.intern("fs1:label=never-seen")
        assert frozen.ids(["fs1:label=never-seen", frozen.name(0)]) == (0,)
