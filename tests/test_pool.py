import dataclasses
import gc
import json
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from srlcomb.calibrate import DEFAULT_GAMMA, attach_probs
from srlcomb.corpus_io import (
    PropsDocument,
    PropsSentence,
    ScoreTable,
    SyntheticConfig,
    emit_props,
    emit_scores,
    generate_synthetic,
    parse_props,
    parse_scores,
)
from srlcomb.model import Argument, Candidate, RoleLabel, Span, V_LABEL
from srlcomb.pool import (
    AlignmentError,
    CandidatePool,
    align_gold,
    build_pool,
    dump_pool,
    gold_keys,
    pool_stats,
)
from conftest import HARD_50, SEARCH_HARD, relabelled


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
                raw = dict(cand.raw_scores).get(system_id)
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
        with pytest.raises(AlignmentError) as info:
            build_pool([("M1", systems[0][0], None), ("M2", other, None)])
        assert str(info.value) == \
            "sentence 0: token counts differ: system M1 has 13, system M2 has 20"

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

    @pytest.mark.parametrize("gamma", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize("sidecars", [True, False])
    def test_non_finite_gamma_rejected(self, corpus, gamma, sidecars):
        """With or without a score to calibrate, as a voting system without
        one is calibrated too."""
        _gold, systems = corpus
        triples = [(sid, doc, table if sidecars else None)
                   for sid, doc, table in _triples(systems)]
        with pytest.raises(ValueError, match="gamma must be finite"):
            build_pool(triples, gamma=gamma)

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
        with pytest.raises(ValueError, match="build the pool with gold"):
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
        pool = attach_probs(aligned)
        doc = json.loads(dump_pool(pool))
        assert doc["systems"] == list(pool.system_ids)
        assert len(doc["sentences"]) == len(pool.sentences)
        for d, sent in zip(doc["sentences"], pool.sentences):
            assert (d["id"], d["n_tokens"]) == (sent.sentence_id, sent.n_tokens)
            assert [tuple(p) for p in d["predicates"]] == list(sent.predicates)
            assert [(c["predicate"], c["label"], tuple(c["span"]), c["votes"],
                     c["raw_scores"], c["probs"], c["is_gold"]) for c in d["candidates"]] == [
                (c.predicate, c.label.text, (c.span.start, c.span.end), sorted(c.votes),
                 dict(c.raw_scores), dict(c.probs), c.is_gold) for c in sent.candidates]

    def test_unknown_system_view_rejected(self, aligned):
        with pytest.raises(ValueError):
            system_view(aligned, "M9")



# -- one pass against the three stages --------------------------------------------


def _with_repeats(doc: PropsDocument) -> PropsDocument:
    """``doc`` with the first scored argument of each predicate given twice."""
    sentences = []
    for sent in doc.sentences:
        per_pred = []
        for p, args in enumerate(sent.arguments):
            scored = sent.scored_arguments(p)
            per_pred.append(args + scored[:1])
        sentences.append(PropsSentence(sent.n_tokens, sent.predicates, tuple(per_pred)))
    return PropsDocument(tuple(sentences))


def _case(name: str):
    """(systems, gold) of one differential case; gold may be None."""
    if name.startswith("default-seed-"):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=60,
                                                           seed=int(name.rsplit("-", 1)[1])))
        return _triples(systems), gold
    if name == "hard-50":
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=50, seed=3, **HARD_50))
        return _triples(systems), gold
    if name == "search-hard-relabelled":
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=30, seed=11,
                                                           **SEARCH_HARD))
        gold, _ = relabelled(gold, None, 0.25)
        return _triples([relabelled(d, t, 0.25) for d, t in systems]), gold
    if name == "ten-systems":
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=40, seed=21,
                                                           n_systems=10))
        return _triples(systems), gold
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=40, seed=21))
    triples = _triples(systems)
    if name == "named-cab":
        triples = [(sid, doc, table) for sid, (_, doc, table) in zip("cab", triples)]
    elif name == "no-sidecar":
        triples[1] = (triples[1][0], triples[1][1], None)
    elif name == "repeats":
        triples[0] = (triples[0][0], _with_repeats(triples[0][1]), triples[0][2])
    elif name == "no-gold":
        gold = None
    return triples, gold


class TestOnePass:
    """build_pool with gold and gamma equals build_pool, then align_gold,
    then attach_probs: every field of every candidate, in the same order.
    In "named-cab" and "ten-systems" the --system order is not the id order."""

    @pytest.mark.parametrize("name", [
        "default-seed-0", "default-seed-1", "default-seed-7", "hard-50",
        "search-hard-relabelled", "no-sidecar", "repeats", "no-gold", "named-cab",
        "ten-systems"])
    @pytest.mark.parametrize("gamma", [0.1, 0.5])
    def test_equals_three_stages(self, name, gamma):
        systems, gold = _case(name)
        staged = build_pool(systems)
        if gold is not None:
            staged = align_gold(staged, gold)
        assert build_pool(systems, gold) == staged
        staged = attach_probs(staged, gamma)
        one_pass = build_pool(systems, gold, gamma)
        assert one_pass == staged
        cands = list(one_pass.all_candidates())
        assert cands and all(len(c.probs) == len(c.votes) for c in cands)
        assert all((c.is_gold is None) == (gold is None) for c in cands)

    @pytest.mark.parametrize("name", [
        "hard-50", "search-hard-relabelled", "named-cab", "ten-systems"])
    def test_candidates_equal_their_checked_rebuilds(self, name):
        """build_pool makes its candidates without the constructor's checks;
        the checked constructor, given the same fields, makes the same
        candidate and stores the same key, keeping every tuple as it is."""
        systems, gold = _case(name)
        for c in build_pool(systems, gold, 0.1).all_candidates():
            rebuilt = Candidate(c.sentence_id, c.argument, c.votes, c.raw_scores, c.probs,
                                c.features, c.is_gold)
            names = [f.name for f in dataclasses.fields(c)]
            assert names[-1] == "key"
            assert ([getattr(c, f) for f in names] == [getattr(rebuilt, f) for f in names]
                    and c == rebuilt and hash(c) == hash(rebuilt))
            assert rebuilt.raw_scores is c.raw_scores and rebuilt.probs is c.probs

    @pytest.mark.parametrize("name", ["hard-50", "search-hard-relabelled"])
    def test_one_vote_set_per_pattern(self, name):
        """A pooled candidate keeps its fields in slots, with no instance
        dict; the pool holds one vote set per vote pattern, and a copy of a
        candidate keeps its candidate's set."""
        systems, gold = _case(name)
        cands = list(build_pool(systems, gold, 0.1).all_candidates())
        assert not any(hasattr(c, "__dict__") for c in cands)
        assert len({id(c.votes) for c in cands}) == len({c.votes for c in cands}) > 1
        for c in cands:
            for copy in (c.with_features((1,)), c.with_gold(not c.is_gold),
                         c.with_probs(c.probs)):
                assert copy.votes is c.votes

    def test_memory_per_candidate(self):
        """build_pool keeps under 600 bytes a candidate on hard-50 (about 570
        with slotted candidates and shared vote sets, about 920 with an
        instance dict and a vote set per candidate)."""
        systems, gold = _case("hard-50")
        gc.collect()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            pool = build_pool(systems, gold, 0.1)
            gc.collect()
            kept = tracemalloc.get_traced_memory()[0] - before
        finally:
            tracemalloc.stop()
        assert kept / sum(len(sp.candidates) for sp in pool.sentences) < 600

    def test_cases_have_what_they_name(self):
        systems, gold = _case("search-hard-relabelled")
        flagged = {c.label.text[:2] for c in build_pool(systems, gold).all_candidates()
                   if c.is_gold}
        assert {"R-", "C-"} <= flagged
        systems, _ = _case("no-sidecar")
        pool = build_pool(systems)
        assert all("M2" not in dict(c.raw_scores) for c in pool.all_candidates())
        systems, _ = _case("repeats")
        repeated = sum(len(a) - len(set(a)) for sent in systems[0][1].sentences
                       for a in sent.arguments)
        assert repeated > 0
        for name, first in (("named-cab", "c"), ("ten-systems", "M1"), ("hard-50", "M1")):
            systems, _ = _case(name)
            ids = [sid for sid, _, _ in systems]
            assert ids[0] == first and ids != sorted(ids)

    @pytest.mark.parametrize("gold_sentences,message", [
        (39, "sentence counts differ: {first} has 40, gold has 39"),
        (None, "sentence 0: token counts differ: {first} has 13, gold has 20"),
    ], ids=["gold-count", "gold-tokens"])
    def test_both_paths_reject_a_gold_skeleton_mismatch(self, corpus, gold_sentences, message):
        """The one-pass and staged pools reject gold alike; the message names
        gold and what it was compared with: the first system, or the pool."""
        gold, systems = corpus
        if gold_sentences is None:
            gold, _ = generate_synthetic(SyntheticConfig(n_sentences=40, seed=99))
        else:
            gold = PropsDocument(gold.sentences[:gold_sentences])
        for first, stage in (("pool", lambda: align_gold(build_pool(_triples(systems)), gold)),
                             ("system M1", lambda: build_pool(_triples(systems), gold, 0.1))):
            with pytest.raises(AlignmentError) as info:
                stage()
            assert str(info.value) == message.format(first=first)


# -- damaged input files ------------------------------------------------------------


def _small_files() -> dict:
    """The files a pool is loaded from: each system's props and score
    sidecar, and gold, as ``srlcomb synth`` writes them."""
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=6, seed=21))
    files = {"gold": emit_props(gold)}
    for sid, doc, table in _triples(systems):
        files[sid] = emit_props(doc)
        files[sid + ".scores"] = emit_scores(table)
    return files


_FILES = _small_files()

_FIELD_VALUES = ("", "-", "*", "*)", "(A0*", "(A0*)", "(V*)", "(V*", "verb3", "0", "-1", "7",
                 "1.5", "nan", "inf", "1e400", "A0", "R-A0", "C-A1", "AM-TMP", "V", "x", "None")


def _load(files: dict, staged: bool):
    """Read ``files`` as the CLI does: systems first, then gold.  The pool is
    built in one pass, or by build_pool, align_gold and attach_probs."""
    systems = []
    for sid in ("M1", "M2", "M3"):
        systems.append((sid, parse_props(files[sid]), parse_scores(files[sid + ".scores"])))
    gold = parse_props(files["gold"])
    if staged:
        return attach_probs(align_gold(build_pool(systems), gold), DEFAULT_GAMMA)
    return build_pool(systems, gold, DEFAULT_GAMMA)


def _load_outcome(files: dict):
    """"ok" or "rejected"; any error but a ValueError fails the test, and the
    one-pass and staged loads must agree."""
    outcomes = []
    for staged in (False, True):
        try:
            outcomes.append(_load(files, staged))
        except ValueError:
            outcomes.append("rejected")
    one_pass, staged = outcomes
    assert one_pass == staged
    return "rejected" if one_pass == "rejected" else "ok"


def _damaged(files: dict, path: tuple, value, delete: bool) -> dict:
    """``files`` with one line (path ``(file, line)``, ``value`` its list of
    fields) or one field of a line (path ``(file, line, field)``) replaced by
    the text of ``value``, or deleted."""
    name, line = path[0], path[1]
    lines = files[name].split("\n")
    if len(path) == 2:
        if delete:
            del lines[line]
        else:
            lines[line] = " ".join(map(str, value))
    else:
        fields = lines[line].split()
        if delete:
            del fields[path[2]]
        else:
            fields[path[2]] = str(value)
        lines[line] = " ".join(fields)
    return {**files, name: "\n".join(lines)}


class TestLoadPoolFuzz:
    """Single-line and single-value mutations of the files a pool is loaded
    from: build_pool either reads them or raises a ValueError, which the CLI
    turns into exit 2, and the one-pass build agrees with the three stages."""

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_single_line_mutations(self, data):
        name = data.draw(st.sampled_from(sorted(_FILES)))
        lines = _FILES[name].splitlines()
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
            lines[i] = data.draw(st.text(alphabet="()*-AVMRC0123456789. eanifxvrb",
                                         max_size=20))
        _load_outcome({**_FILES, name: "\n".join(lines) + "\n"})

    @settings(max_examples=400, deadline=None)
    @given(st.data())
    def test_single_value_mutations(self, data):
        name = data.draw(st.sampled_from(sorted(_FILES)))
        lines = _FILES[name].split("\n")
        i = data.draw(st.sampled_from([i for i, line in enumerate(lines) if line.strip()]))
        j = data.draw(st.integers(0, len(lines[i].split()) - 1))
        delete = data.draw(st.booleans())
        value = data.draw(st.sampled_from(_FIELD_VALUES))
        _load_outcome(_damaged(_FILES, (name, i, j), value, delete))

    def test_dump_itself_loads(self):
        assert _load_outcome(_FILES) == "ok"
        pool = _load(_FILES, staged=False)
        doc = json.loads(dump_pool(pool))
        assert sum(len(d["candidates"]) for d in doc["sentences"]) == \
            len(list(pool.all_candidates())) > 0

    # each a damaged file that must be rejected; a field holding None is one
    # that a writer printed as Python's None
    @pytest.mark.parametrize("path,value,delete", [
        (("M1.scores", 0), ["0", "0", "A1"], False),        # a record of 3 fields
        (("M1.scores", 0, 1), 7, False),                    # predicate 7 of sentence 0
        (("M1.scores", 0, 5), None, True),                  # no score
        (("M1.scores", 0, 5), None, False),                 # a score of None
        (("M1.scores", 0, 0), None, False),                 # a sentence index of None
        (("gold", 0), None, True),                          # a gold token line deleted
        (("M2", 0), ["x"], False),                          # a props line of one column
        (("M1.scores", 0, 0), 7, False),                    # sentence 7 of 6
        (("gold", 0), ["x"], False),                        # a gold line of one column
        (("M1.scores", 0, 1), None, False),                 # a predicate index of None
        (("M1.scores", 0, 3), None, False),                 # a span start of None
        (("M1.scores", 0, 2), "x", False),                  # an unknown label
        (("M1.scores", 0, 4), None, False),                 # a span end of None
        (("M1.scores", 0, 5), "nan", False),                # a non-finite score
    ])
    def test_damaged_document_rejected(self, path, value, delete):
        assert _load_outcome(_damaged(_FILES, path, value, delete)) == "rejected"
