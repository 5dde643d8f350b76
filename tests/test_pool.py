import json

import pytest
from hypothesis import given, settings, strategies as st

from srlcomb.corpus_io import (
    PropsDocument,
    PropsSentence,
    ScoreTable,
    SyntheticConfig,
    generate_synthetic,
)
from srlcomb.model import Argument, Span, V_LABEL
from srlcomb.pool import (
    AlignmentError,
    CandidatePool,
    align_gold,
    build_pool,
    dump_pool,
    gold_keys,
    load_pool,
    pool_stats,
)


def system_view(pool: CandidatePool, system_id: str) -> tuple[PropsDocument, ScoreTable]:
    """Reconstruct one system's document (and score table) from the pool."""
    if system_id not in pool.system_ids:
        raise ValueError(f"unknown system {system_id!r}")
    sentences = []
    table: ScoreTable = {}
    for sent in pool.sentences:
        per_pred: list[list[Argument]] = [
            [Argument(p, V_LABEL, Span(pos, pos))]
            for p, (pos, _lemma) in enumerate(sent.predicates)]
        for cand in sent.candidates:
            if system_id in cand.votes:
                per_pred[cand.predicate].append(cand.argument)
                raw = cand.raw_score(system_id)
                if raw is not None:
                    table[cand.key] = raw
        sentences.append(PropsSentence(
            sent.n_tokens, sent.predicates, tuple(tuple(a) for a in per_pred)))
    return PropsDocument(tuple(sentences)), table


def _triples(systems):
    return [(f"M{i + 1}", doc, table) for i, (doc, table) in enumerate(systems)]


@pytest.fixture(scope="module")
def corpus():
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=40, seed=21))
    return gold, systems


@pytest.fixture(scope="module")
def aligned(corpus):
    gold, systems = corpus
    return align_gold(build_pool(_triples(systems)), gold)


class TestBuildPool:
    def test_votes_merge_on_identical_arguments(self, corpus):
        gold, systems = corpus
        pool = build_pool(_triples(systems))
        multi = [c for c in pool.all_candidates() if len(c.votes) >= 2]
        assert multi, "independent systems should still agree somewhere"
        for c in multi:
            for sid in c.votes:
                assert sid in pool.system_ids

    def test_identical_proposal_becomes_one_candidate(self):
        from srlcomb.corpus_io import PropsDocument, PropsSentence
        from srlcomb.model import Argument, RoleLabel, V_LABEL

        def doc(extra=()):
            args = (Argument(0, V_LABEL, Span(3, 3)),
                    Argument(0, RoleLabel.parse("A1"), Span(5, 9))) + extra
            return PropsDocument((PropsSentence(12, ((3, "v"),), (args,)),))

        pool = build_pool([("M1", doc(), None), ("M2", doc(), None)])
        assert len(pool.sentences[0].candidates) == 1
        assert pool.sentences[0].candidates[0].votes == frozenset({"M1", "M2"})

    def test_single_system_pool(self, corpus):
        _gold, systems = corpus
        doc, table = systems[0]
        pool = build_pool([("M1", doc, table)])
        for c in pool.all_candidates():
            assert c.votes == frozenset({"M1"})
        n_args = sum(
            len(sent.scored_arguments(p))
            for sent in doc.sentences for p in range(len(sent.predicates)))
        assert sum(len(s.candidates) for s in pool.sentences) == n_args

    def test_pool_size_is_key_union(self, corpus):
        _gold, systems = corpus
        pool = build_pool(_triples(systems))
        union = set()
        for s, (doc, _) in enumerate(systems):
            for i, sent in enumerate(doc.sentences):
                for p in range(len(sent.predicates)):
                    for a in sent.scored_arguments(p):
                        union.add((i, p, a.label.text, a.span))
        assert {c.key for c in pool.all_candidates()} == union

    def test_no_verb_candidates(self, aligned):
        assert all(c.label.text != "V" for c in aligned.all_candidates())

    def test_skeleton_mismatch(self, corpus):
        gold, systems = corpus
        other, _ = generate_synthetic(SyntheticConfig(n_sentences=40, seed=99))
        with pytest.raises(AlignmentError):
            build_pool([("M1", systems[0][0], None), ("M2", other, None)])

    @pytest.mark.parametrize("record", [(999, 0, "A0", Span(0, 1)),
                                        (0, 0, "AM-ADV", Span(0, 0))])
    def test_unmatched_score_record_rejected(self, corpus, record):
        _gold, systems = corpus
        (doc1, table1), (doc2, table2) = systems[:2]
        assert record not in table2
        with pytest.raises(AlignmentError, match=r"system M2: score record "
                           rf"{record[0]} {record[1]} {record[2]} {record[3].start} "
                           rf"{record[3].end} "):
            build_pool([("M1", doc1, table1), ("M2", doc2, {**table2, record: 5.0})])

    def test_raw_scores_kept_per_system(self, corpus):
        _gold, systems = corpus
        pool = build_pool(_triples(systems))
        for c in pool.all_candidates():
            for sid, value in c.raw_scores:
                doc_index = int(sid[1:]) - 1
                assert systems[doc_index][1][c.key] == value

    def test_idempotent_via_system_views(self, aligned):
        views = [(sid,) + system_view(aligned, sid) for sid in aligned.system_ids]
        rebuilt = build_pool(views)
        assert {c.key for c in rebuilt.all_candidates()} == \
            {c.key for c in aligned.all_candidates()}
        for a, b in zip(rebuilt.all_candidates(), aligned.all_candidates()):
            assert a.votes == b.votes and a.raw_scores == b.raw_scores


class TestAlignGold:
    def test_exact_match_is_gold(self, corpus, aligned):
        gold, _ = corpus
        keys = gold_keys(gold)
        for sent in aligned.sentences:
            for c in sent.candidates:
                assert c.is_gold == (c.key in keys[sent.sentence_id])

    def test_wrong_label_not_gold(self, corpus):
        gold, systems = corpus
        pool = align_gold(build_pool(_triples(systems)), gold)
        keys = gold_keys(gold)
        wrong = [c for c in pool.all_candidates()
                 if not c.is_gold
                 and any(k[0] == c.sentence_id and k[1] == c.predicate and k[3] == c.span
                         and k[2] != c.label.text
                         for k in keys[c.sentence_id])]
        for c in wrong:
            assert c.is_gold is False

    def test_gold_count_bounded(self, corpus, aligned):
        gold, _ = corpus
        n_gold_args = sum(len(k) for k in gold_keys(gold))
        n_gold_cands = sum(1 for c in aligned.all_candidates() if c.is_gold)
        assert n_gold_cands <= n_gold_args

    def test_full_coverage_equality(self):
        # perfect systems propose every gold arg, so flags cover gold exactly
        gold, systems = generate_synthetic(SyntheticConfig(
            n_sentences=10, precision=1.0, recall=1.0,
            label_noise=0.0, boundary_noise=0.0, seed=3))
        pool = align_gold(build_pool(_triples(systems)), gold)
        assert sum(1 for c in pool.all_candidates() if c.is_gold) == \
            sum(len(k) for k in gold_keys(gold))


class TestPoolStats:
    def test_rows_sum_to_100(self, aligned):
        stats = pool_stats(aligned)
        for _label, pcts in stats.rows:
            assert abs(sum(pcts) - 100.0) < 0.01

    def test_identical_systems_full_agreement(self):
        gold, systems = generate_synthetic(SyntheticConfig(
            n_sentences=10, precision=1.0, recall=1.0,
            label_noise=0.0, boundary_noise=0.0, seed=3))
        pool = align_gold(build_pool(_triples(systems)), gold)
        stats = pool_stats(pool)
        full = stats.columns.index("∩ of 3")
        for _label, pcts in stats.rows:
            assert pcts[full] == 100.0

    def test_unaligned_pool_rejected(self, corpus):
        _gold, systems = corpus
        with pytest.raises(ValueError):
            pool_stats(build_pool(_triples(systems)))

    def test_disjoint_systems_all_single_columns(self):
        from srlcomb.corpus_io import PropsDocument, PropsSentence
        from srlcomb.model import Argument, RoleLabel, V_LABEL

        def doc(label, start, end):
            args = (Argument(0, V_LABEL, Span(5, 5)),
                    Argument(0, RoleLabel.parse(label), Span(start, end)))
            return PropsDocument((PropsSentence(12, ((5, "v"),), (args,)),))

        gold = PropsDocument((PropsSentence(
            12, ((5, "v"),),
            ((Argument(0, V_LABEL, Span(5, 5)),
              Argument(0, RoleLabel.parse("A0"), Span(0, 1)),
              Argument(0, RoleLabel.parse("A1"), Span(8, 9))),)),))
        pool = align_gold(build_pool([("M1", doc("A0", 0, 1), None),
                                      ("M2", doc("A1", 8, 9), None)]), gold)
        stats = pool_stats(pool)
        single = {label: dict(zip(stats.columns, pcts)) for label, pcts in stats.rows}
        assert single["A0"]["M1"] == 100.0
        assert single["A1"]["M2"] == 100.0

    def test_recall_upper_bound_is_union(self, corpus, aligned):
        # the gold flags mark exactly the union of the systems' correct args
        gold, systems = corpus
        keys = gold_keys(gold)
        union_correct = set()
        for s, (doc, _) in enumerate(systems):
            for i, sent in enumerate(doc.sentences):
                for p in range(len(sent.predicates)):
                    for a in sent.scored_arguments(p):
                        k = (i, p, a.label.text, a.span)
                        if k in keys[i]:
                            union_correct.add(k)
        flagged = {c.key for c in aligned.all_candidates() if c.is_gold}
        assert flagged == union_correct


class TestDump:
    def test_round_trip(self, aligned):
        reloaded = load_pool(dump_pool(aligned))
        assert reloaded.system_ids == aligned.system_ids
        assert len(reloaded.sentences) == len(aligned.sentences)
        for a, b in zip(reloaded.sentences, aligned.sentences):
            assert a == b

    def test_unknown_system_view_rejected(self, aligned):
        with pytest.raises(ValueError):
            system_view(aligned, "M9")


# -- load_pool under damage ------------------------------------------------------

_JSON_VALUES = (None, True, False, 0, -1, 7, 1.5, float("nan"), float("inf"), 10 ** 20,
                "", "A0", "V", "M1", "x", [], [0], [0, 1], ["M1"], [[0, "v"]], {}, {"M1": 0.5},
                {"a": 1})


def _small_dump() -> str:
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=2, seed=3,
                                                       tokens_range=(4, 8)))
    pool = build_pool([(f"M{i + 1}", d, t) for i, (d, t) in enumerate(systems)])
    return dump_pool(align_gold(pool, gold))


_DUMP = _small_dump()


def _paths(value, path=()):
    """Every path to a value inside a JSON document, the root included."""
    yield path
    if isinstance(value, dict):
        for key, child in value.items():
            yield from _paths(child, path + (key,))
    elif isinstance(value, list):
        for i, child in enumerate(value):
            yield from _paths(child, path + (i,))


def _replaced(doc, path, value, delete: bool):
    if not path:
        return value
    head, rest = path[0], path[1:]
    if isinstance(doc, dict):
        out = dict(doc)
    else:
        out = list(doc)
    if rest:
        out[head] = _replaced(doc[head], rest, value, delete)
    elif delete:
        del out[head]
    else:
        out[head] = value
    return out


def _load_outcome(text: str):
    try:
        load_pool(text)
    except ValueError:
        return "rejected"
    return "ok"


class TestLoadPoolFuzz:
    """Single-line and single-value mutations of a dump_pool output: load_pool
    either reads them or raises a ValueError, which the CLI turns into exit 2."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_line_mutations(self, data):
        lines = _DUMP.splitlines()
        i = data.draw(st.integers(0, len(lines) - 1))
        how = data.draw(st.sampled_from(["delete", "duplicate", "replace", "swap"]))
        if how == "delete":
            del lines[i]
        elif how == "duplicate":
            lines.insert(i, lines[i])
        elif how == "swap":
            j = data.draw(st.integers(0, len(lines) - 1))
            lines[i], lines[j] = lines[j], lines[i]
        else:
            lines[i] = data.draw(st.text(alphabet='{}[]",:-0123456789.eaAMVnulltrfs ',
                                         max_size=20))
        _load_outcome("\n".join(lines))

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_single_value_mutations(self, data):
        doc = json.loads(_DUMP)
        path = data.draw(st.sampled_from(list(_paths(doc))))
        delete = bool(path) and data.draw(st.booleans())
        value = data.draw(st.sampled_from(_JSON_VALUES))
        _load_outcome(json.dumps(_replaced(doc, path, value, delete)))

    def test_dump_itself_loads(self):
        assert _load_outcome(_DUMP) == "ok"

    # each crash the fuzz found, as the exception it raised before
    @pytest.mark.parametrize("path,value,delete", [
        ((), [], False),                                        # TypeError: not an object
        ((), 7, False),                                         # TypeError
        (("systems",), None, True),                             # KeyError
        (("sentences",), None, False),                          # TypeError: not a list
        (("sentences", 0, "predicates"), None, False),          # TypeError
        (("sentences", 0, "candidates", 0, "is_gold"), None, True),   # KeyError
        (("sentences", 0, "candidates", 0, "raw_scores"), [0], False),  # AttributeError
        (("sentences", 0, "candidates", 0, "label"), 7, False),       # TypeError
        (("sentences", 0, "candidates", 0, "span"), [0], False),      # IndexError
        (("sentences", 0, "candidates", 0, "span", 0), None, False),  # TypeError
        (("sentences", 0, "candidates", 0, "votes"), None, False),    # TypeError
        (("sentences", 0, "candidates", 0, "probs"), "x", False),     # TypeError
        (("sentences", 0, "candidates", 0, "predicate"), None, False),  # TypeError on sort
    ])
    def test_damaged_document_rejected(self, path, value, delete):
        doc = json.loads(_DUMP)
        if path[-1:] == ("probs",):     # a text probability of the first voter
            value = {doc["sentences"][0]["candidates"][0]["votes"][0]: value}
        text = json.dumps(_replaced(doc, path, value, delete))
        with pytest.raises(ValueError):
            load_pool(text)
