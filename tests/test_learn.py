import functools
import math
import random
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from srlcomb.features import FeatureExtractor, FeatureSpace
from srlcomb import learn
from srlcomb.calibrate import DEFAULT_GAMMA, attach_probs, build_intervals
from srlcomb.infer_cs import Scope
from srlcomb.learn import (
    DEFAULT_C,
    DEFAULT_DEGREE,
    DEFAULT_EPOCHS,
    DEFAULT_KKT_TOL,
    LabelScorer,
    ScoreModel,
    TrainExample,
    _smo,
    label_datasets,
    make_examples,
    score_pool,
    train_global_perceptron,
    train_local_perceptron,
    train_local_svm,
)
from srlcomb.corpus_io import SyntheticConfig, generate_synthetic, skeleton_sentences
from srlcomb.infer_dp import infer_sentence
from srlcomb.pool import align_gold, build_pool
from conftest import NOT_LINE_BREAKS, cand
import reference_smo


def fv(space: FeatureSpace, *names: str) -> tuple[int, ...]:
    return tuple(sorted({space.intern(n) for n in names}))


def ref_kernel(u: tuple[int, ...], v: tuple[int, ...], degree: int) -> float:
    """(|u & v| + 1)^degree over id sets; shares no code with srlcomb."""
    return float((len(set(u) & set(v)) + 1) ** degree)


def ref_score(scorer: LabelScorer, v: tuple[int, ...], averaged: bool = False) -> float:
    """bias + sum of coef * kernel over the supports, one support at a time;
    averaged weights are coef * (u - tick) / u after u > 0 updates."""
    u = scorer.updates
    total = scorer.bias
    for coef, tick, sv in scorer.supports:
        weight = coef * ((u - tick) / u) if averaged and u > 0 else coef
        total += weight * ref_kernel(sv, v, scorer.degree)
    return total


def one_support(u: tuple[int, ...], degree: int) -> LabelScorer:
    return LabelScorer("A0", degree=degree, supports=[(1.0, 0, u)])


class TestKernel:
    """A scorer with one unit support is the kernel itself."""

    def test_empty_vectors(self):
        empty = ()
        assert one_support(empty, 2).scores([empty])[0] == ref_kernel(empty, empty, 2) == 1.0

    def test_three_shared_degree_two(self):
        u = (1, 2, 3, 9)
        v = (1, 2, 3, 17)
        assert one_support(u, 2).scores([v])[0] == ref_kernel(u, v, 2) == 16.0

    def test_symmetric_random(self, rng):
        for _ in range(1000):
            u = tuple(sorted(rng.sample(range(50), rng.randint(0, 10))))
            v = tuple(sorted(rng.sample(range(50), rng.randint(0, 10))))
            d = rng.randint(1, 3)
            assert one_support(u, d).scores([v])[0] == one_support(v, d).scores([u])[0]
            assert one_support(u, d).scores([v])[0] == ref_kernel(u, v, d)

    def test_degree_validated(self):
        with pytest.raises(ValueError):
            LabelScorer("A0", degree=0)


def _separable_dataset(space: FeatureSpace, n: int = 10):
    data = []
    for i in range(n):
        data.append((fv(space, "side=pos", f"id={i}"), 1))
        data.append((fv(space, "side=neg", f"id={i + 100}"), -1))
    return data


def _dual_objective(alpha, y, k):
    v = alpha * y
    return float(alpha.sum() - 0.5 * v @ k @ v)


def _qp_oracle(k, y, c):
    """Dense reference solution of the soft-margin dual via SLSQP."""
    n = len(y)

    def neg_obj(alpha):
        return -_dual_objective(alpha, y, k)

    def grad(alpha):
        return -(np.ones(n) - (k * np.outer(y, y)) @ alpha)

    res = minimize(neg_obj, np.full(n, min(c / 2, 0.5)), jac=grad, method="SLSQP",
                   bounds=[(0.0, c)] * n,
                   constraints=[{"type": "eq", "fun": lambda a: a @ y}],
                   options={"maxiter": 500, "ftol": 1e-12})
    return -res.fun


def _kernel_matrix(vectors, degree):
    n = len(vectors)
    k = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            k[i, j] = ref_kernel(vectors[i], vectors[j], degree)
    return k


def _float64_gram(vectors, degree):
    """The Gram matrix from a float64 0/1 design matrix, one cell at a time."""
    cols = {fid: i for i, fid in enumerate(sorted({f for v in vectors for f in v}))}
    x = np.zeros((len(vectors), max(len(cols), 1)))
    for r, v in enumerate(vectors):
        for fid in v:
            x[r, cols[fid]] = 1.0
    return (x @ x.T + 1.0) ** degree


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_gram_bit_identical_to_float64_build(featured_pool, degree, monkeypatch):
    """SMO reads posting rows and the (nnz + 1)^degree diagonal, and scoring
    reads dense tiles; all give the bits of the float64 Gram matrix, with
    one tile or several (blocks of 7)."""
    datasets = label_datasets(featured_pool[0])
    label = max(datasets, key=lambda lab: len(datasets[lab]))
    empty = [(), ()]
    for vectors in ([x for x, _ in datasets[label]], empty):
        postings = learn._Postings(vectors)
        rows = np.stack([postings.kernel_row(v, degree) for v in vectors])
        want = _float64_gram(vectors, degree)
        assert rows.dtype == np.float64
        assert np.array_equal(rows, want)
        diag = (np.array([len(v) for v in vectors]) + 1.0) ** degree
        assert np.array_equal(diag, np.diagonal(want))
        for block in (learn._KERNEL_BLOCK, 7):
            monkeypatch.setattr(learn, "_KERNEL_BLOCK", block)
            tiles = learn._Tiles(vectors)
            tiles = np.concatenate([tiles.kernel_rows(vectors[lo:lo + block], degree)
                                    for lo in range(0, len(vectors), block)])
            assert tiles.dtype == np.float64
            assert np.array_equal(tiles, want)
            monkeypatch.undo()
    assert len(datasets[label]) > 7
    assert np.array_equal(want, np.ones((2, 2)))


@pytest.fixture(scope="module")
def largest_label():
    """(label, dataset, extractor) of the label with the most candidates
    in a 300-sentence corpus."""
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=300, seed=7))
    pool = build_pool([(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)],
                      gold, DEFAULT_GAMMA)
    extractor = FeatureExtractor(intervals=build_intervals(pool))
    datasets = label_datasets(extractor.extract_pool(pool))
    label = max(datasets, key=lambda lab: len(datasets[lab]))
    return label, datasets[label], extractor


class TestLocalSvm:
    def test_separable_zero_errors(self):
        space = FeatureSpace()
        data = _separable_dataset(space)
        model = train_local_svm({"A0": data}, extractor=FeatureExtractor(space=space))
        scorer = model.scorers["A0"]
        assert not scorer.degenerate
        for x, y in data:
            assert y * scorer.scores([x])[0] > 0

    def test_objective_matches_qp_oracle(self):
        space = FeatureSpace()
        data = _separable_dataset(space, 4)
        # duplicated conflicting points force bounded support vectors
        clash = fv(space, "side=pos", "id=999")
        data += [(clash, 1), (clash, -1)]
        model = train_local_svm({"A0": data}, c=1.0, tol=1e-5,
                                extractor=FeatureExtractor(space=space))
        vectors = [x for x, _ in data]
        ys = np.array([y for _, y in data], dtype=float)
        k = _kernel_matrix(vectors, 2)
        alpha = np.zeros(len(data))
        for coef, _tick, sv in model.scorers["A0"].supports:
            idx = next(i for i, v in enumerate(vectors)
                       if v == sv and np.sign(ys[i]) == np.sign(coef)
                       and alpha[i] == 0)
            alpha[idx] = abs(coef)
        got = _dual_objective(alpha, ys, k)
        want = _qp_oracle(k, ys, 1.0)
        assert abs(got - want) < 1e-4

    def test_large_c_keeps_signs_on_separable_data(self):
        space = FeatureSpace()
        data = _separable_dataset(space)
        small = train_local_svm({"A0": data}, c=10.0, extractor=FeatureExtractor(space=space))
        big = train_local_svm({"A0": data}, c=1e4, extractor=FeatureExtractor(space=space))
        for x, _y in data:
            a = small.scorers["A0"].scores([x])[0]
            b = big.scorers["A0"].scores([x])[0]
            assert np.sign(a) == np.sign(b)

    def test_stopped_at_max_steps_warns(self, featured_pool, monkeypatch, capsys):
        pool, extractor, _raw, _gold = featured_pool
        monkeypatch.setattr(learn, "_smo", functools.partial(learn._smo, max_steps=1))
        train_local_svm({"A1": label_datasets(pool)["A1"]}, extractor=extractor)
        err = capsys.readouterr().err
        assert "label A1 stopped after 1 steps" in err

    def test_peak_memory_below_one_gram(self, largest_label):
        """SMO keeps only the kernel rows it reads: on the largest label of a
        300-sentence corpus (A3, 287 points), training peaks below the bytes
        of one float64 Gram matrix."""
        label, data, extractor = largest_label
        n = len(data)
        assert (label, n) == ("A3", 287)
        tracemalloc.start()
        try:
            train_local_svm({label: data}, extractor=extractor)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * n * n

    def test_converged_separable_is_silent(self, capsys):
        space = FeatureSpace()
        train_local_svm({"A0": _separable_dataset(space)},
                        extractor=FeatureExtractor(space=space))
        assert capsys.readouterr().err == ""

    def test_single_class_degenerate(self):
        space = FeatureSpace()
        data = [(fv(space, "a"), 1), (fv(space, "b"), 1)]
        unseen = fv(space, "zzz")
        model = train_local_svm({"A0": data}, extractor=FeatureExtractor(space=space))
        scorer = model.scorers["A0"]
        assert scorer.degenerate
        assert scorer.scores([unseen])[0] > 0


@pytest.fixture(scope="module")
def real_label_problems():
    """(label, kernel matrix, labels) for every label of a feature-extracted
    synthetic pool with 30-60 training points, plus the first of them with
    8 of its points repeated under flipped labels (eta = 0 between copies)."""
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=40, seed=31))
    pool = attach_probs(align_gold(build_pool(
        [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold))
    pool = FeatureExtractor(intervals=build_intervals(pool)).extract_pool(pool)
    datasets = [(label, list(data)) for label, data in sorted(label_datasets(pool).items())
                if 30 <= len(data) <= 60]
    assert len(datasets) >= 3
    label, data = datasets[0]
    datasets.append((f"{label} with flipped duplicates", data + [(x, -y) for x, y in data[:8]]))
    return [(label, _kernel_matrix([x for x, _ in data], 2),
             np.array([y for _, y in data], dtype=float)) for label, data in datasets]


class TestSmoOracle:
    @pytest.mark.parametrize("c", [1.0, 5e-4])
    def test_optimum_kkt_and_error_cache(self, real_label_problems, c):
        tol = DEFAULT_KKT_TOL
        for label, k, y in real_label_problems:
            alpha, b, err, _passes, violation = _smo(lambda i: k[i], np.diagonal(k), y, c, tol)
            assert abs(_dual_objective(alpha, y, k) - _qp_oracle(k, y, c)) < 1e-6, label
            margin = y * (k @ (alpha * y) + b) - 1.0
            at_zero, at_c = alpha <= 1e-8, alpha >= c - 1e-8
            assert np.all(margin[at_zero] >= -tol), label
            assert np.all(margin[at_c] <= tol), label
            assert np.all(np.abs(margin[~at_zero & ~at_c]) <= tol), label
            assert np.all((alpha >= -1e-12) & (alpha <= c + 1e-12)), label
            assert abs(alpha @ y) < 1e-9, label
            assert violation <= tol, label
            np.testing.assert_allclose(err, k @ (alpha * y) + b - y, rtol=0, atol=1e-9)

    @pytest.mark.parametrize("max_steps", [None, 1, 7])
    @pytest.mark.parametrize("c", [1.0, 5e-4])
    def test_same_path_as_reference(self, real_label_problems, c, max_steps):
        """The rewritten loop takes the reference's working sets, so every
        output is the same bit for bit, also when stopped early; the last
        problem holds flipped duplicates, whose pairs clamp eta."""
        assert real_label_problems[-1][0].endswith("with flipped duplicates")
        for label, k, y in real_label_problems:
            row, diag = (lambda i: k[i]), np.diagonal(k)
            alpha, b, err, steps, violation = _smo(row, diag, y, c, DEFAULT_KKT_TOL, max_steps)
            want = reference_smo._smo(row, diag, y, c, DEFAULT_KKT_TOL, max_steps)
            assert np.array_equal(alpha, want[0]), label
            assert b == want[1], label
            assert np.array_equal(err, want[2]), label
            assert (steps, violation) == (want[3], want[4]), label
            if max_steps is not None:
                assert steps == max_steps, label

    def test_model_file_same_as_reference(self, featured_pool, monkeypatch):
        pool, extractor, _raw, _gold = featured_pool
        def train() -> str:
            return train_local_svm(label_datasets(pool), extractor=extractor).saves()
        text = train()
        monkeypatch.setattr(learn, "_smo", reference_smo._smo)
        assert train() == text


class TestLocalPerceptron:
    def test_zero_model_scores_zero(self):
        scorer = LabelScorer("A0", degree=2)
        assert scorer.scores([(1, 2)])[0] == 0.0

    def test_separable_converges(self):
        space = FeatureSpace()
        data = _separable_dataset(space)
        model = train_local_perceptron({"A0": data}, epochs=10,
                                       extractor=FeatureExtractor(space=space))
        scorer = model.scorers["A0"]
        for x, y in data:
            assert y * ref_score(scorer, x) > 0

    def test_final_predictor_matches_replay(self):
        space = FeatureSpace()
        rng = random.Random(2)
        data = []
        for i in range(30):
            names = ["side=pos" if rng.random() < 0.5 else "side=neg",
                     f"id={i}", f"noise={rng.randrange(5)}"]
            data.append((fv(space, *names), rng.choice([1, -1])))
        probe = fv(space, "side=pos", "id=3")
        model = train_local_perceptron({"A0": data}, epochs=3,
                                       extractor=FeatureExtractor(space=space))

        # independent replay of the update rule
        replay: list = []
        for _epoch in range(3):
            for x, y in data:
                s = sum(c * ref_kernel(sv, x, 2) for c, sv in replay)
                if y * s <= 0:
                    replay.append((float(y), x))
        scorer = model.scorers["A0"]
        assert [(c, sv) for c, _t, sv in scorer.supports] == replay
        want = sum(c * ref_kernel(sv, probe, 2) for c, sv in replay)
        assert abs(ref_score(scorer, probe) - want) < 1e-9

    def test_averaged_differs_from_final_mid_training(self):
        space = FeatureSpace()
        g, j = fv(space, "side=pos"), fv(space, "side=neg")
        model = train_local_perceptron({"A0": [(g, 1), (j, -1)]}, epochs=1,
                                       extractor=FeatureExtractor(space=space))
        scorer = model.scorers["A0"]
        assert scorer.updates >= 2
        assert scorer.scores([j])[0] == ref_score(scorer, j, averaged=True)
        assert scorer.scores([j])[0] != ref_score(scorer, j)


def _marked_examples(space: FeatureSpace, n_sentences=8, seed=0):
    """Sentences whose gold candidates carry a dedicated marker feature."""
    rng = random.Random(seed)
    examples = []
    for s in range(n_sentences):
        cands = []
        for i, (label, span) in enumerate(
                [("A0", (0, 1)), ("A1", (3, 4)), ("A2", (6, 7)), ("AM-TMP", (9, 10))]):
            gold = i % 2 == 0
            marker = "mark=gold" if gold else "mark=junk"
            features = fv(space, marker, f"uniq={s}:{i}:{rng.randrange(99)}")
            cands.append(cand(s, 0, label, span, votes=("M1",),
                              features=features, is_gold=gold))
        golds = frozenset(c.key for c in cands if c.is_gold)
        examples.append(TrainExample(s, tuple(cands), golds))
    return examples


def _marked_model(n_sentences: int, epochs: int) -> ScoreModel:
    """A global Perceptron trained on marked examples, validated on them."""
    space = FeatureSpace()
    examples = _marked_examples(space, n_sentences)
    return train_global_perceptron(examples, epochs=epochs, extractor=FeatureExtractor(space=space),
                                   validation=examples)[0]


class TestGlobalPerceptron:
    def test_first_example_promotes_all_reachable_gold(self):
        space = FeatureSpace()
        examples = _marked_examples(space, n_sentences=4)
        _model, log = train_global_perceptron(
            examples, epochs=1, extractor=FeatureExtractor(space=space), validation=examples)
        n_gold = len(examples[0].gold_keys)
        assert log.ledger[0] == (n_gold, 0, n_gold, 0)

    def test_ledger_matches_set_differences(self):
        space = FeatureSpace()
        examples = _marked_examples(space, n_sentences=10, seed=3)
        _model, log = train_global_perceptron(
            examples, epochs=3, extractor=FeatureExtractor(space=space), validation=examples)
        for n_promote, n_demote, missing, spurious in log.ledger:
            assert n_promote == missing and n_demote == spurious

    def test_separable_reaches_perfect_f1(self):
        space = FeatureSpace()
        examples = _marked_examples(space, n_sentences=8)
        model, log = train_global_perceptron(
            examples, epochs=3, extractor=FeatureExtractor(space=space), validation=examples)
        assert max(log.epoch_f1) == 100.0

    def test_fixpoint_no_updates(self):
        space = FeatureSpace()
        examples = _marked_examples(space, n_sentences=6)
        model, _ = train_global_perceptron(
            examples, epochs=3, extractor=FeatureExtractor(space=space), validation=examples)
        # retrain starting from the converged model: replay more epochs and
        # confirm the tail of the ledger is all zeros
        _model2, log2 = train_global_perceptron(
            examples, epochs=5, extractor=FeatureExtractor(space=space), validation=examples)
        tail = log2.ledger[-len(examples):]
        assert all(entry == (0, 0, 0, 0) for entry in tail)

    def test_mistake_bound_on_identical_marked_points(self):
        # all gold candidates share one vector, all junk another: radius^2=4,
        # margin 3/sqrt(6), so the classical bound allows at most 2 updates
        space = FeatureSpace()
        g, j = fv(space, "mark=gold"), fv(space, "mark=junk")
        examples = []
        for s in range(10):
            gold = s % 2 == 0
            c = cand(s, 0, "A0", (0, 1), votes=("M1",),
                     features=g if gold else j, is_gold=gold)
            examples.append(TrainExample(
                s, (c,), frozenset({c.key} if gold else ())))
        _model, log = train_global_perceptron(
            examples, epochs=5, extractor=FeatureExtractor(space=space), validation=examples)
        total_updates = sum(p + d for p, d, _, _ in log.ledger)
        assert total_updates <= 2

    def test_deterministic_serialization(self):
        models = []
        for space in (FeatureSpace(), FeatureSpace()):
            examples = _marked_examples(space, 8)
            models.append(train_global_perceptron(
                examples, epochs=3, extractor=FeatureExtractor(space=space),
                validation=examples)[0])
        assert models[0].saves() == models[1].saves()

    def test_scope_sentence_runs(self):
        space = FeatureSpace()
        examples = _marked_examples(space, 6)
        model, log = train_global_perceptron(
            examples, scope=Scope.FULL_SENTENCE, epochs=2,
            extractor=FeatureExtractor(space=space), validation=examples)
        assert log.epoch_f1


def _synthetic_pool(n_sentences: int, seed: int):
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=n_sentences, seed=seed))
    pool = align_gold(build_pool(
        [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold)
    return attach_probs(pool), gold


@pytest.fixture(scope="module")
def featured_pool():
    """(featured pool, its extractor, the pool before extraction, gold).
    Every model trained on it freezes the extractor's vocabulary, which
    then holds every name of the pool."""
    pool, gold = _synthetic_pool(20, 30)
    extractor = FeatureExtractor(intervals=build_intervals(pool))
    return extractor.extract_pool(pool), extractor, pool, gold


class TestScorePool:
    def test_empty_model_scores_zero(self, featured_pool):
        pool, extractor, raw, _gold = featured_pool
        model = ScoreModel("svm", 2, extractor, {})
        margins = score_pool(model, raw)
        assert [len(m) for m in margins] == [len(s.candidates) for s in pool.sentences]
        assert all(m == 0.0 for row in margins for m in row)

    def test_per_label_decomposition(self, featured_pool):
        pool, extractor, raw, _gold = featured_pool
        datasets = label_datasets(pool)
        one_label = {"A0": datasets["A0"]}
        model = train_local_svm(one_label, extractor=extractor)
        for sent, margins in zip(pool.sentences, score_pool(model, raw)):
            for c, m in zip(sent.candidates, margins, strict=True):
                if c.label.text != "A0":
                    assert m == 0.0

    @pytest.mark.parametrize("syntax", [False, True], ids=["skeleton", "syntax"])
    @pytest.mark.parametrize("kind", ["svm", "perceptron-local", "perceptron-global"])
    def test_unseen_names_leave_the_vocabulary_alone(self, featured_pool, kind, syntax):
        """A pool with names the model never saw: scoring it leaves the
        vocabulary as it was, and its margins equal those of extracting
        with a frozen copy of the vocabulary and scoring label by label."""
        model = _train(kind, featured_pool, 2)
        extractor = model.extractor
        n_names = len(extractor.space)
        pool, gold = _synthetic_pool(15, 31)
        sentences = skeleton_sentences(gold) if syntax else None
        copy = FeatureExtractor(extractor.config, FeatureSpace.load(extractor.space.dump()),
                                extractor.intervals)
        featured = copy.extract_pool(pool, sentences)
        margins = score_pool(model, pool, sentences)
        assert len(extractor.space) == n_names
        # the new pool has names of its own, which both paths drop
        grown = FeatureExtractor(extractor.config, intervals=extractor.intervals)
        grown.extract_pool(pool, sentences)
        names = {extractor.space.name(i) for i in range(n_names)}
        assert any(grown.space.name(i) not in names for i in range(len(grown.space)))
        want = {}
        by_label: dict = {}
        for c in featured.all_candidates():
            by_label.setdefault(c.label.text, []).append(c)
        for label, cands in by_label.items():
            scorer = model.scorers.get(label)
            values = (scorer.scores([c.features for c in cands]) if scorer is not None
                      else [0.0] * len(cands))
            want.update(zip((c.key for c in cands), values))
        got = {c.key: m for sent, row in zip(pool.sentences, margins, strict=True)
               for c, m in zip(sent.candidates, row, strict=True)}
        assert got == want


def _svm_model_text(featured_pool) -> str:
    pool, extractor, _raw, _gold = featured_pool
    return train_local_svm(label_datasets(pool), extractor=extractor).saves()


@pytest.fixture(scope="module")
def svm_model_text(featured_pool) -> str:
    return _svm_model_text(featured_pool)


class TestModelFile:
    def test_round_trip_bytes_and_scores(self, featured_pool):
        pool, extractor, _raw, _gold = featured_pool
        model = train_local_svm(label_datasets(pool), extractor=extractor)
        text = model.saves()
        reloaded = ScoreModel.loads(text)
        assert reloaded.saves() == text
        assert reloaded.extractor.intervals == model.extractor.intervals
        probe = next(iter(pool.all_candidates()))
        label = probe.label.text
        assert (reloaded.scorers[label].scores([probe.features])
                == pytest.approx(model.scorers[label].scores([probe.features])))

    def test_round_trip_global(self):
        model = _marked_model(6, epochs=2)
        assert ScoreModel.loads(model.saves()).saves() == model.saves()

    def test_short_intervals_row_rejected(self, featured_pool):
        text = _svm_model_text(featured_pool)
        lines = text.splitlines()
        row = lines.index(next(l for l in lines if l.startswith("intervals "))) + 1
        lines[row] = " ".join(lines[row].split()[:6])
        with pytest.raises(ValueError, match=f"line {row + 1}"):
            ScoreModel.loads("\n".join(lines))

    @pytest.mark.parametrize("bad_id", ["999999", "-1"])
    def test_out_of_vocabulary_support_id_rejected(self, featured_pool, bad_id):
        lines = _svm_model_text(featured_pool).splitlines()
        row = next(i for i, l in enumerate(lines)
                   if l.startswith("supports ") and l != "supports 0") + 1
        lines[row] += " " + bad_id
        with pytest.raises(ValueError, match=f"vocabulary at line {row + 1}"):
            ScoreModel.loads("\n".join(lines))

    @pytest.mark.parametrize("how", ["repeated", "descending"])
    def test_unordered_support_ids_rejected(self, featured_pool, how):
        lines = _svm_model_text(featured_pool).splitlines()
        row = next(i for i, l in enumerate(lines)
                   if l.startswith("supports ") and l != "supports 0") + 1
        coef, tick, *ids = lines[row].split()
        assert len(ids) >= 2
        ids = [ids[0], *ids] if how == "repeated" else ids[::-1]
        lines[row] = " ".join([coef, tick, *ids])
        with pytest.raises(ValueError, match=f"not strictly increasing at line {row + 1}"):
            ScoreModel.loads("\n".join(lines))

    @pytest.mark.parametrize("edit, message", [
        (lambda ids: ["-1", *ids], "feature id out of vocabulary"),
        (lambda ids: [ids[1], "999999", ids[0]], "feature id out of vocabulary"),
        (lambda ids: [ids[0], "x7", *ids[1:]], "bad integer 'x7'"),
        (lambda ids: [*ids[:-1], "2.0"], "bad integer '2.0'"),
        (lambda ids: [ids[1], ids[0]], "feature ids not strictly increasing")])
    def test_support_id_errors_keep_their_wording(self, featured_pool, edit, message):
        """The checks that word a support row's error, in their order: a bad
        token, then an id outside the vocabulary, then the order."""
        lines = _svm_model_text(featured_pool).splitlines()
        row = next(i for i, l in enumerate(lines)
                   if l.startswith("supports ") and l != "supports 0") + 1
        coef, tick, *ids = lines[row].split()
        lines[row] = " ".join([coef, tick, *edit(ids)])
        with pytest.raises(ValueError, match=f"^model file: {message} at line {row + 1}$"):
            ScoreModel.loads("\n".join(lines))

    @pytest.mark.parametrize("name", ["ZZ", "A9", "R-V", "C-R-A0"])
    def test_unknown_label_rejected(self, featured_pool, name):
        lines = _svm_model_text(featured_pool).splitlines()
        row = next(i for i, l in enumerate(lines) if l.startswith("label "))
        lines[row] = f"label {name}"
        with pytest.raises(ValueError, match=f"line {row + 1}"):
            ScoreModel.loads("\n".join(lines))

    def test_duplicate_label_rejected(self, featured_pool):
        lines = _svm_model_text(featured_pool).splitlines()
        first, second = [i for i, l in enumerate(lines) if l.startswith("label ")][:2]
        lines[second] = lines[first]
        with pytest.raises(ValueError, match=f"twice at line {second + 1}"):
            ScoreModel.loads("\n".join(lines))

    @pytest.mark.parametrize("char", NOT_LINE_BREAKS)
    def test_only_newline_ends_a_line(self, svm_model_text, char):
        """Another line separator is whitespace inside its line, so a later
        damaged row keeps its line number; the vocabulary reads alike."""
        lines = svm_model_text.split("\n")
        lines[1] += char            # the kind line
        assert ScoreModel.loads("\n".join(lines)).saves() == svm_model_text
        first, second = [i for i, l in enumerate(lines) if l.startswith("label ")][:2]
        lines[second] = lines[first]
        with pytest.raises(ValueError, match=f"twice at line {second + 1}$"):
            ScoreModel.loads("\n".join(lines))
        with pytest.raises(ValueError, match="^line 3 repeats feature 'c' of id 1$"):
            FeatureSpace.load(f"0\ta{char}b\n1\tc\n2\tc\n")

    @pytest.mark.parametrize("tick", ["999999", "-1", "updates", "last"])
    def test_support_tick_within_horizon(self, tick):
        """A support's tick lies below its label's update count; past it, the
        averaged weight coef * (updates - tick) / updates is zero or flips sign."""
        model = _marked_model(6, epochs=2)
        lines = model.saves().split("\n")
        head = next(i for i, l in enumerate(lines) if l.startswith("updates "))
        updates = int(lines[head].split()[1])
        assert updates > 1 and lines[head + 2] != "supports 0"
        coef, _tick, *ids = lines[head + 3].split()
        value = {"updates": str(updates), "last": str(updates - 1)}.get(tick, tick)
        lines[head + 3] = " ".join([coef, value, *ids])
        if tick == "last":
            assert ScoreModel.loads("\n".join(lines)).saves() == "\n".join(lines)
            return
        with pytest.raises(ValueError, match=f"^model file: support tick {value} is outside "
                                             f"0..{updates - 1} at line {head + 4}$"):
            ScoreModel.loads("\n".join(lines))

    def test_svm_support_tick_is_zero(self, svm_model_text):
        lines = svm_model_text.split("\n")
        row = next(i for i, l in enumerate(lines)
                   if l.startswith("supports ") and l != "supports 0") + 1
        assert lines[row - 3] == "updates 0"
        coef, _tick, *ids = lines[row].split()
        lines[row] = " ".join([coef, "1", *ids])
        with pytest.raises(ValueError, match=f"tick 1 is outside 0..0 at line {row + 1}$"):
            ScoreModel.loads("\n".join(lines))

    @pytest.mark.parametrize("flag", ["7", "-1", "2"])
    def test_degenerate_flag_is_zero_or_one(self, svm_model_text, flag):
        lines = svm_model_text.split("\n")
        row = next(i for i, l in enumerate(lines) if l.startswith("degenerate "))
        lines[row] = f"degenerate {flag}"
        with pytest.raises(ValueError, match=f"^model file: degenerate flag {flag} is neither "
                                             f"0 nor 1 at line {row + 1}$"):
            ScoreModel.loads("\n".join(lines))

    def test_crlf_model_reads_as_lf(self, svm_model_text):
        crlf = svm_model_text.replace("\n", "\r\n")
        assert ScoreModel.loads(crlf).saves() == svm_model_text

    def test_repeated_vocabulary_name_rejected(self, featured_pool):
        """A name given twice would leave its first id matching nothing."""
        with pytest.raises(ValueError, match="^line 2 repeats feature 'foo' of id 0$"):
            FeatureSpace.load("0\tfoo\n1\tfoo\n2\tbar\n")
        lines = _svm_model_text(featured_pool).splitlines()
        start = lines.index(next(l for l in lines if l.startswith("vocab "))) + 1
        n_vocab = int(lines[start - 1].split()[1])
        name = lines[start].split("\t", 1)[1]
        lines[start + 2] = f"2\t{name}"
        with pytest.raises(ValueError) as err:
            ScoreModel.loads("\n".join(lines))
        assert str(err.value) == (f"model file: vocabulary at lines {start + 1}-"
                                  f"{start + n_vocab}: line {start + 3} repeats feature "
                                  f"{name!r} of id 0")

    @pytest.mark.parametrize("damaged", ["x\t{name}", "2 {name}", "3\t{name}", ""],
                             ids=["bad-id", "no-tab", "out-of-order", "empty"])
    def test_damaged_vocabulary_row_names_its_line(self, featured_pool, damaged):
        lines = _svm_model_text(featured_pool).splitlines()
        start = lines.index(next(l for l in lines if l.startswith("vocab "))) + 1
        n_vocab = int(lines[start - 1].split()[1])
        lines[start + 2] = damaged.format(name=lines[start + 2].split("\t", 1)[1])
        with pytest.raises(ValueError) as err:
            ScoreModel.loads("\n".join(lines))
        assert str(err.value) == (f"model file: vocabulary at lines {start + 1}-"
                                  f"{start + n_vocab}: line {start + 3} does not start "
                                  "with feature id 2 and a tab")

    def test_valid_untrained_label_scores_zero(self, featured_pool, capsys):
        pool, extractor, raw, _gold = featured_pool
        model = train_local_svm(label_datasets(pool), extractor=extractor)
        label = next(iter(pool.all_candidates())).label.text
        del model.scorers[label]
        capsys.readouterr()
        scored = [m for sent, margins in zip(pool.sentences, score_pool(model, raw))
                  for c, m in zip(sent.candidates, margins, strict=True)
                  if c.label.text == label]
        assert scored and all(m == 0.0 for m in scored)
        assert capsys.readouterr().err == (f"srlcomb: warning: model has no scorer for label "
                                           f"{label}; {len(scored)} candidates scored 0.0\n")

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_damaged_line_rejected_or_finite(self, svm_model_text, data):
        """One line changed: loading raises ValueError, or every float in the
        model (biases, support coefficients, interval cuts) is finite."""
        lines = svm_model_text.splitlines()
        vocab = next(i for i, l in enumerate(lines) if l.startswith("vocab "))
        outside_vocab = [i for i in range(len(lines))
                         if i <= vocab or i > vocab + int(lines[vocab].split()[1])]
        row = data.draw(st.one_of(st.sampled_from(outside_vocab),
                                  st.integers(0, len(lines) - 1)))
        tokens = lines[row].split() or [""]
        token = st.one_of(st.sampled_from(["nan", "inf", "-inf", "1e999", "-1", "0", "x", ""]),
                          st.text(max_size=8))
        edit = data.draw(st.one_of(st.none(), st.text(max_size=30),
                                   st.tuples(st.integers(0, len(tokens) - 1), token)))
        if edit is None:
            del lines[row]
        elif isinstance(edit, str):
            lines[row] = edit
        else:
            tokens[edit[0]] = edit[1]
            lines[row] = " ".join(tokens)
        try:
            model = ScoreModel.loads("\n".join(lines))
        except ValueError:
            return
        values = [x for cuts in model.extractor.intervals.cuts.values() for x in cuts]
        for sc in model.scorers.values():
            values += [sc.bias] + [coef for coef, _tick, _sv in sc.supports]
        assert all(math.isfinite(x) for x in values)

    def test_header_enforced(self):
        with pytest.raises(ValueError):
            ScoreModel.loads("not a model\n")

    def test_defaults(self):
        assert DEFAULT_DEGREE == 2
        assert DEFAULT_EPOCHS == 5
        assert DEFAULT_C == 1.0


def _train(kind: str, featured_pool, degree: int) -> ScoreModel:
    pool, extractor, _raw, gold = featured_pool
    common = dict(degree=degree, extractor=extractor)
    if kind == "svm":
        return train_local_svm(label_datasets(pool), **common)
    if kind == "perceptron-local":
        return train_local_perceptron(label_datasets(pool), epochs=2, **common)
    examples = make_examples(pool, gold)
    return train_global_perceptron(examples[:-4], epochs=2, validation=examples[-4:],
                                   **common)[0]


class TestDualSum:
    """Scores against the one-support-at-a-time reference `ref_score`: the
    dual sums add the same terms in the same order, so they agree bit for bit."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["svm", "perceptron-local", "perceptron-global"])
    def test_score_pool_matches_reference(self, featured_pool, kind, degree):
        pool, _extractor, raw, _gold = featured_pool
        model = _train(kind, featured_pool, degree)
        assert sum(len(sc.supports) for sc in model.scorers.values()) > 0
        for sent, margins in zip(pool.sentences, score_pool(model, raw), strict=True):
            for c, m in zip(sent.candidates, margins, strict=True):
                scorer = model.scorers.get(c.label.text)
                want = 0.0 if scorer is None else ref_score(scorer, c.features, averaged=True)
                assert m == want, (kind, degree)
                if scorer is not None:
                    assert scorer.scores([c.features])[0] == want

    @pytest.mark.parametrize("kind", ["svm", "perceptron-global"])
    def test_edge_cases(self, featured_pool, kind):
        pool, extractor, raw, _gold = featured_pool
        model = _train(kind, featured_pool, 2)
        labels = sorted(model.scorers)
        # a bias-only scorer, and a label the model has no scorer for
        model.scorers[labels[0]] = LabelScorer(labels[0], degree=2, bias=-0.75,
                                               degenerate=True)
        del model.scorers[labels[1]]
        seen_kinds = set()
        for sent, margins in zip(pool.sentences, score_pool(model, raw), strict=True):
            for c, m in zip(sent.candidates, margins, strict=True):
                label = c.label.text
                scorer = model.scorers.get(label)
                if scorer is None:
                    assert m == 0.0
                    seen_kinds.add("no scorer")
                    continue
                if label == labels[0]:
                    assert m == -0.75
                    seen_kinds.add("bias only")
                assert m == ref_score(scorer, c.features, averaged=True)
        assert seen_kinds == {"no scorer", "bias only"}
        # empty vectors and ids that no support shares, in one call with
        # ordinary vectors: those kernel values are 1
        unseen = len(extractor.space) + 1000
        for label, scorer in model.scorers.items():
            vectors = _mixed_vectors(pool, label, unseen)
            assert scorer.scores(vectors) == [ref_score(scorer, v, averaged=True)
                                              for v in vectors]

    @pytest.mark.parametrize("block", [1, 7])
    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["svm", "perceptron-local", "perceptron-global"])
    def test_tile_edges(self, featured_pool, monkeypatch, kind, degree, block):
        """With tiles of 1 and 7 vectors, the labels span several support
        tiles and several candidate tiles, and the scores keep their bits."""
        pool, extractor, raw, _gold = featured_pool
        model = _train(kind, featured_pool, degree)
        monkeypatch.setattr(learn, "_KERNEL_BLOCK", block)
        assert max(len(sc.supports) for sc in model.scorers.values()) > block
        for sent, margins in zip(pool.sentences, score_pool(model, raw), strict=True):
            for c, m in zip(sent.candidates, margins, strict=True):
                scorer = model.scorers.get(c.label.text)
                assert m == (0.0 if scorer is None else ref_score(scorer, c.features,
                                                                  averaged=True))
        unseen = len(extractor.space) + 1000
        for label, scorer in model.scorers.items():
            vectors = _mixed_vectors(pool, label, unseen)
            assert len(vectors) > block
            assert scorer.scores(vectors) == [ref_score(scorer, v, averaged=True)
                                              for v in vectors]

    def test_memory_does_not_grow_with_candidates(self, largest_label):
        """Scoring holds one tile of candidates at a time: on A3 of a
        300-sentence corpus, the traced peak of scoring 4q vectors exceeds
        that of q vectors by no more than the list of scores returned."""
        label, data, extractor = largest_label
        scorer = train_local_svm({label: data}, extractor=extractor).scorers[label]
        vectors = [x for x, _ in data]
        assert len(vectors) > learn._KERNEL_BLOCK
        peaks = []
        for batch in (vectors, vectors * 4):
            tracemalloc.start()
            try:
                out = scorer.scores(batch)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert out[:len(vectors)] == scorer.scores(vectors)
        returned = sys.getsizeof(out) + sum(map(sys.getsizeof, out))
        assert peaks[1] - peaks[0] <= returned, (peaks, returned)


def _mixed_vectors(pool, label: str, unseen: int) -> list:
    """Vectors of ``label``'s candidates in ``pool``, each followed by the
    empty vector, two ids no support holds (``unseen`` and the next), and
    itself with ``unseen`` added."""
    out = []
    for c in [c for c in pool.all_candidates() if c.label.text == label][:12]:
        out += [c.features, (), (unseen, unseen + 1), c.features + (unseen,)]
    return out


def _naive_local(datasets, degree: int, epochs: int) -> dict:
    """The local Perceptron, re-scoring every point with `ref_score`."""
    out = {}
    for label in sorted(datasets):
        sc = LabelScorer(label, degree=degree)
        for _epoch in range(epochs):
            for fv, y in datasets[label]:
                if y * ref_score(sc, fv) <= 0.0:
                    sc.supports.append((float(y), sc.updates, fv))
                    sc.updates += 1
        out[label] = sc
    return out


def _naive_global(examples, scope, degree: int, epochs: int, validation):
    """The global Perceptron, re-scoring every candidate with `ref_score`.
    Returns ({label: supports}, kept tick, ledger, epoch F1, kept epoch)."""
    supports: dict = {}
    tick = 0
    ledger, epoch_f1, snapshots = [], [], []

    def predict(ex, averaged):
        margins = []
        for c in ex.candidates:
            sc = LabelScorer(c.label.text, degree=degree,
                             supports=supports.get(c.label.text, []), updates=tick)
            margins.append(ref_score(sc, c.features, averaged))
        return infer_sentence(ex.candidates, margins, scope, ex.sentence_id).keys()

    def f1(exs, preds):
        correct = sum(len(p & ex.gold_keys) for ex, p in zip(exs, preds))
        predicted = sum(len(p) for p in preds)
        gold = sum(len(ex.gold_keys) + ex.n_unreachable for ex in exs)
        p = correct / predicted if predicted else 1.0
        r = correct / gold if gold else 1.0
        return 200.0 * p * r / (p + r) if p + r else 0.0

    for _epoch in range(epochs):
        for ex in examples:
            yhat = predict(ex, False)
            promote = [c for c in ex.candidates if c.key in ex.gold_keys and c.key not in yhat]
            demote = [c for c in ex.candidates if c.key in yhat and c.key not in ex.gold_keys]
            for coef, group in ((1.0, promote), (-1.0, demote)):
                for c in group:
                    supports.setdefault(c.label.text, []).append((coef, tick, c.features))
                    tick += 1
            ledger.append((len(promote), len(demote),
                           len(ex.gold_keys - yhat), len(yhat - ex.gold_keys)))
        snapshots.append((tick, {lab: len(sup) for lab, sup in supports.items()}))
        epoch_f1.append(f1(validation, [predict(ex, True) for ex in validation]))
    best = max(range(len(epoch_f1)), key=lambda i: (epoch_f1[i], -i))
    keep_tick, counts = snapshots[best]
    kept = {lab: sup[:counts.get(lab, 0)] for lab, sup in supports.items()
            if counts.get(lab, 0)}
    return kept, keep_tick, ledger, epoch_f1, best


class TestPerceptronReplay:
    """The margin-cached trainers against trainers that re-score everything."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_local(self, featured_pool, degree):
        pool, extractor, _raw, _gold = featured_pool
        datasets = label_datasets(pool)
        model = train_local_perceptron(datasets, degree=degree, epochs=3, extractor=extractor)
        want = _naive_local(datasets, degree, 3)
        assert sorted(model.scorers) == sorted(want)
        for label, sc in model.scorers.items():
            assert sc.supports == want[label].supports, label
            assert sc.updates == want[label].updates

    @pytest.mark.parametrize("scope, degree, lone_label", [
        (Scope.PRED_BY_PRED, 2, True),
        (Scope.FULL_SENTENCE, 2, True),
        (Scope.PRED_BY_PRED, 3, False),
        (Scope.FULL_SENTENCE, 1, False),
    ])
    def test_global(self, featured_pool, scope, degree, lone_label):
        pool, extractor, _raw, gold = featured_pool
        examples = make_examples(pool, gold)
        n_val = 5 if lone_label else 3
        train, validation = examples[:-n_val], examples[-n_val:]
        if lone_label:
            # a held-out gold candidate whose label no training candidate has
            assert all(c.label.text != "A5" for ex in train for c in ex.candidates)
            lone = cand(999, 0, "A5", (0, 1), votes=("M1",),
                        features=train[0].candidates[0].features, is_gold=True)
            validation = validation + [TrainExample(999, (lone,), frozenset({lone.key}))]
        model, log = train_global_perceptron(
            train, scope=scope, degree=degree, epochs=3, extractor=extractor,
            validation=validation)
        kept, keep_tick, ledger, epoch_f1, best = _naive_global(
            train, scope, degree, 3, validation)
        assert log.ledger == ledger
        assert log.epoch_f1 == epoch_f1
        assert log.selected_epoch == best
        assert sum(p + d for p, d, _, _ in ledger) > 0
        assert sorted(model.scorers) == sorted(kept)
        assert "A5" not in model.scorers
        for label, sc in model.scorers.items():
            assert sc.supports == kept[label], label
            assert sc.updates == keep_tick
