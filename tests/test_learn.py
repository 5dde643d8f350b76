import dataclasses
import functools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import minimize

from srlcomb.features import FeatureConfig, FeatureExtractor, FeatureSpace
from srlcomb import learn
from srlcomb.calibrate import attach_probs, build_intervals
from srlcomb.infer_cs import Scope
from srlcomb.learn import (
    DEFAULT_C,
    DEFAULT_DEGREE,
    DEFAULT_EPOCHS,
    DEFAULT_KKT_TOL,
    LabelScorer,
    ModelMismatchError,
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
from srlcomb.corpus_io import SyntheticConfig, generate_synthetic
from srlcomb.infer_dp import ScoredCandidate, infer_sentence
from srlcomb.model import FeatureVector
from srlcomb.pool import align_gold, build_pool
from conftest import cand


def fv(space: FeatureSpace, *names: str) -> FeatureVector:
    return FeatureVector(tuple(sorted({space.intern(n) for n in names})))


def ref_kernel(u: FeatureVector, v: FeatureVector, degree: int) -> float:
    """(|u & v| + 1)^degree over id sets; shares no code with srlcomb."""
    return float((len(set(u.ids) & set(v.ids)) + 1) ** degree)


def ref_score(scorer: LabelScorer, v: FeatureVector, averaged: bool = False) -> float:
    """bias + sum of coef * kernel over the supports, one support at a time;
    averaged weights are coef * (u - tick) / u after u > 0 updates."""
    u = scorer.updates
    total = scorer.bias
    for coef, tick, sv in scorer.supports:
        weight = coef * ((u - tick) / u) if averaged and u > 0 else coef
        total += weight * ref_kernel(sv, v, scorer.degree)
    return total


def one_support(u: FeatureVector, degree: int) -> LabelScorer:
    return LabelScorer("A0", degree=degree, supports=[(1.0, 0, u)])


class TestKernel:
    """A scorer with one unit support is the kernel itself."""

    def test_empty_vectors(self):
        empty = FeatureVector(())
        assert one_support(empty, 2).raw_score(empty) == ref_kernel(empty, empty, 2) == 1.0

    def test_three_shared_degree_two(self):
        u = FeatureVector((1, 2, 3, 9))
        v = FeatureVector((1, 2, 3, 17))
        assert one_support(u, 2).raw_score(v) == ref_kernel(u, v, 2) == 16.0

    def test_symmetric_random(self, rng):
        for _ in range(1000):
            u = FeatureVector(tuple(sorted(rng.sample(range(50), rng.randint(0, 10)))))
            v = FeatureVector(tuple(sorted(rng.sample(range(50), rng.randint(0, 10)))))
            d = rng.randint(1, 3)
            assert one_support(u, d).raw_score(v) == one_support(v, d).raw_score(u)
            assert one_support(u, d).raw_score(v) == ref_kernel(u, v, d)

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
    cols = {fid: i for i, fid in enumerate(sorted({f for v in vectors for f in v.ids}))}
    x = np.zeros((len(vectors), max(len(cols), 1)))
    for r, v in enumerate(vectors):
        for fid in v.ids:
            x[r, cols[fid]] = 1.0
    return (x @ x.T + 1.0) ** degree


@pytest.mark.parametrize("degree", [1, 2, 3])
def test_gram_bit_identical_to_float64_build(featured_pool, degree):
    datasets = label_datasets(featured_pool[0])
    label = max(datasets, key=lambda lab: len(datasets[lab]))
    vectors = [x for x, _ in datasets[label]]
    gram = learn._gram(vectors, degree)
    assert gram.dtype == np.float64
    assert np.array_equal(gram, _float64_gram(vectors, degree))
    empty = [FeatureVector(()), FeatureVector(())]
    assert np.array_equal(learn._gram(empty, degree), np.ones((2, 2)))


class TestLocalSvm:
    def test_separable_zero_errors(self):
        space = FeatureSpace()
        data = _separable_dataset(space)
        model = train_local_svm({"A0": data}, space=space,
                                feature_config=FeatureConfig())
        scorer = model.scorers["A0"]
        assert not scorer.degenerate
        for x, y in data:
            assert y * scorer.raw_score(x) > 0

    def test_objective_matches_qp_oracle(self):
        space = FeatureSpace()
        data = _separable_dataset(space, 4)
        # duplicated conflicting points force bounded support vectors
        clash = fv(space, "side=pos", "id=999")
        data += [(clash, 1), (clash, -1)]
        model = train_local_svm({"A0": data}, c=1.0, tol=1e-5, space=space,
                                feature_config=FeatureConfig())
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
        small = train_local_svm({"A0": data}, c=10.0, space=space,
                                feature_config=FeatureConfig())
        big = train_local_svm({"A0": data}, c=1e4, space=space,
                              feature_config=FeatureConfig())
        for x, _y in data:
            a = small.scorers["A0"].raw_score(x)
            b = big.scorers["A0"].raw_score(x)
            assert np.sign(a) == np.sign(b)

    def test_stopped_at_max_steps_warns(self, featured_pool, monkeypatch, capsys):
        pool, extractor, intervals, _gold = featured_pool
        monkeypatch.setattr(learn, "_smo", functools.partial(learn._smo, max_steps=1))
        train_local_svm({"A1": label_datasets(pool)["A1"]}, space=extractor.space,
                        feature_config=extractor.config, intervals=intervals)
        err = capsys.readouterr().err
        assert "label A1 stopped after 1 steps" in err

    def test_converged_separable_is_silent(self, capsys):
        space = FeatureSpace()
        train_local_svm({"A0": _separable_dataset(space)}, space=space,
                        feature_config=FeatureConfig())
        assert capsys.readouterr().err == ""

    def test_single_class_degenerate(self):
        space = FeatureSpace()
        data = [(fv(space, "a"), 1), (fv(space, "b"), 1)]
        model = train_local_svm({"A0": data}, space=space,
                                feature_config=FeatureConfig())
        scorer = model.scorers["A0"]
        assert scorer.degenerate
        assert scorer.raw_score(fv(space, "zzz")) > 0


@pytest.fixture(scope="module")
def real_label_problems():
    """(label, kernel matrix, labels) for every label of a feature-extracted
    synthetic pool with 30-60 training points, plus the first of them with
    8 of its points repeated under flipped labels (eta = 0 between copies)."""
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=40, seed=31))
    pool = attach_probs(align_gold(build_pool(
        [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold))
    pool = FeatureExtractor().extract_pool(pool, intervals=build_intervals(pool))
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
            alpha, b, err, _passes, violation = _smo(k, y, c, tol)
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


class TestLocalPerceptron:
    def test_zero_model_scores_zero(self):
        scorer = LabelScorer("A0", degree=2)
        assert scorer.raw_score(FeatureVector((1, 2))) == 0.0
        assert scorer.scores([FeatureVector((1, 2))], averaged=True)[0] == 0.0

    def test_separable_converges(self):
        space = FeatureSpace()
        data = _separable_dataset(space)
        model = train_local_perceptron({"A0": data}, epochs=10, space=space,
                                       feature_config=FeatureConfig())
        scorer = model.scorers["A0"]
        for x, y in data:
            assert y * scorer.raw_score(x) > 0

    def test_final_predictor_matches_replay(self):
        space = FeatureSpace()
        rng = random.Random(2)
        data = []
        for i in range(30):
            names = ["side=pos" if rng.random() < 0.5 else "side=neg",
                     f"id={i}", f"noise={rng.randrange(5)}"]
            data.append((fv(space, *names), rng.choice([1, -1])))
        model = train_local_perceptron({"A0": data}, epochs=3, space=space,
                                       feature_config=FeatureConfig())

        # independent replay of the update rule
        replay: list = []
        for _epoch in range(3):
            for x, y in data:
                s = sum(c * ref_kernel(sv, x, 2) for c, sv in replay)
                if y * s <= 0:
                    replay.append((float(y), x))
        scorer = model.scorers["A0"]
        assert [(c, sv) for c, _t, sv in scorer.supports] == replay
        probe = fv(space, "side=pos", "id=3")
        want = sum(c * ref_kernel(sv, probe, 2) for c, sv in replay)
        assert abs(scorer.raw_score(probe) - want) < 1e-9

    def test_averaged_differs_from_final_mid_training(self):
        space = FeatureSpace()
        g, j = fv(space, "side=pos"), fv(space, "side=neg")
        model = train_local_perceptron({"A0": [(g, 1), (j, -1)]}, epochs=1,
                                       space=space, feature_config=FeatureConfig())
        scorer = model.scorers["A0"]
        assert scorer.updates >= 2
        assert scorer.scores([j], averaged=True)[0] != scorer.raw_score(j)


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


class TestGlobalPerceptron:
    def test_first_example_promotes_all_reachable_gold(self):
        space = FeatureSpace()
        examples = _marked_examples(space, n_sentences=4)
        _model, log = train_global_perceptron(
            examples, epochs=1, space=space, feature_config=FeatureConfig())
        n_gold = len(examples[0].gold_keys)
        assert log.ledger[0] == (n_gold, 0, n_gold, 0)

    def test_ledger_matches_set_differences(self):
        space = FeatureSpace()
        examples = _marked_examples(space, n_sentences=10, seed=3)
        _model, log = train_global_perceptron(
            examples, epochs=3, space=space, feature_config=FeatureConfig())
        for n_promote, n_demote, missing, spurious in log.ledger:
            assert n_promote == missing and n_demote == spurious

    def test_separable_reaches_perfect_f1(self):
        space = FeatureSpace()
        examples = _marked_examples(space, n_sentences=8)
        model, log = train_global_perceptron(
            examples, epochs=3, space=space, feature_config=FeatureConfig())
        assert max(log.epoch_f1) == 100.0

    def test_fixpoint_no_updates(self):
        space = FeatureSpace()
        examples = _marked_examples(space, n_sentences=6)
        model, _ = train_global_perceptron(
            examples, epochs=3, space=space, feature_config=FeatureConfig())
        # retrain starting from the converged model: replay more epochs and
        # confirm the tail of the ledger is all zeros
        _model2, log2 = train_global_perceptron(
            examples, epochs=5, space=space, feature_config=FeatureConfig())
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
            examples, epochs=5, space=space, feature_config=FeatureConfig())
        total_updates = sum(p + d for p, d, _, _ in log.ledger)
        assert total_updates <= 2

    def test_deterministic_serialization(self):
        space1, space2 = FeatureSpace(), FeatureSpace()
        m1, _ = train_global_perceptron(_marked_examples(space1, 8), epochs=3,
                                        space=space1, feature_config=FeatureConfig())
        m2, _ = train_global_perceptron(_marked_examples(space2, 8), epochs=3,
                                        space=space2, feature_config=FeatureConfig())
        assert m1.saves() == m2.saves()

    def test_scope_sentence_runs(self):
        space = FeatureSpace()
        examples = _marked_examples(space, 6)
        model, log = train_global_perceptron(
            examples, scope=Scope.FULL_SENTENCE, epochs=2, space=space,
            feature_config=FeatureConfig())
        assert log.epoch_f1


@pytest.fixture(scope="module")
def featured_pool():
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=20, seed=30))
    pool = align_gold(build_pool(
        [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold)
    pool = attach_probs(pool)
    intervals = build_intervals(pool)
    extractor = FeatureExtractor()
    return extractor.extract_pool(pool, intervals=intervals), extractor, intervals, gold


class TestScorePool:
    def test_empty_model_scores_zero(self, featured_pool):
        pool, extractor, intervals, _gold = featured_pool
        model = ScoreModel("svm", 2, extractor.config, extractor.space, {}, intervals)
        for sent_scores in score_pool(model, pool):
            assert all(s.confidence == 0.0 for s in sent_scores)

    def test_per_label_decomposition(self, featured_pool):
        pool, extractor, intervals, _gold = featured_pool
        datasets = label_datasets(pool)
        one_label = {"A0": datasets["A0"]}
        model = train_local_svm(one_label, space=extractor.space,
                                feature_config=extractor.config, intervals=intervals)
        for sent_scores in score_pool(model, pool):
            for s in sent_scores:
                if s.candidate.label.text != "A0":
                    assert s.confidence == 0.0

    def test_config_mismatch_rejected(self, featured_pool):
        pool, extractor, intervals, _gold = featured_pool
        other_cfg = FeatureConfig(groups=("FS1",))
        model = ScoreModel("svm", 2, other_cfg, extractor.space, {}, intervals)
        with pytest.raises(ModelMismatchError):
            score_pool(model, pool)

    def test_space_mismatch_rejected(self, featured_pool):
        pool, extractor, intervals, _gold = featured_pool
        model = ScoreModel("svm", 2, extractor.config, FeatureSpace(), {}, intervals)
        with pytest.raises(ModelMismatchError):
            score_pool(model, pool)


def _svm_model_text(featured_pool) -> str:
    pool, extractor, intervals, _gold = featured_pool
    return train_local_svm(label_datasets(pool), space=extractor.space,
                           feature_config=extractor.config, intervals=intervals).saves()


@pytest.fixture(scope="module")
def svm_model_text(featured_pool) -> str:
    return _svm_model_text(featured_pool)


class TestModelFile:
    def test_round_trip_bytes_and_scores(self, featured_pool):
        pool, extractor, intervals, gold = featured_pool
        model = train_local_svm(label_datasets(pool), space=extractor.space,
                                feature_config=extractor.config, intervals=intervals)
        text = model.saves()
        reloaded = ScoreModel.loads(text)
        assert reloaded.saves() == text
        assert reloaded.intervals == model.intervals
        probe = next(iter(pool.all_candidates()))
        label = probe.label.text
        assert (reloaded.scorers[label].scores([probe.features])
                == pytest.approx(model.scorers[label].scores([probe.features])))

    def test_round_trip_global(self):
        space = FeatureSpace()
        model, _ = train_global_perceptron(_marked_examples(space, 6), epochs=2,
                                           space=space, feature_config=FeatureConfig())
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

    def test_valid_untrained_label_scores_zero(self, featured_pool, capsys):
        pool, extractor, intervals, gold = featured_pool
        model = train_local_svm(label_datasets(pool), space=extractor.space,
                                feature_config=extractor.config, intervals=intervals)
        label = next(iter(pool.all_candidates())).label.text
        del model.scorers[label]
        capsys.readouterr()
        scored = [s for sent in score_pool(model, pool) for s in sent
                  if s.candidate.label.text == label]
        assert scored and all(s.confidence == 0.0 for s in scored)
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
        values = [x for cuts in (model.intervals.cuts.values() if model.intervals else ())
                  for x in cuts]
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
    pool, extractor, intervals, gold = featured_pool
    common = dict(degree=degree, space=extractor.space, feature_config=extractor.config,
                  intervals=intervals)
    if kind == "svm":
        return train_local_svm(label_datasets(pool), **common)
    if kind == "perceptron-local":
        return train_local_perceptron(label_datasets(pool), epochs=2, **common)
    examples = make_examples(pool, gold)
    return train_global_perceptron(examples[:-4], epochs=2, validation=examples[-4:],
                                   **common)[0]


def _close(got: float, want: float) -> bool:
    return abs(got - want) <= 1e-9 * max(1.0, abs(want))


class TestDualSum:
    """Scores against the one-support-at-a-time reference `ref_score`."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    @pytest.mark.parametrize("kind", ["svm", "perceptron-local", "perceptron-global"])
    def test_score_pool_matches_reference(self, featured_pool, kind, degree):
        pool = featured_pool[0]
        model = _train(kind, featured_pool, degree)
        assert sum(len(sc.supports) for sc in model.scorers.values()) > 0
        for sent_scores in score_pool(model, pool):
            for s in sent_scores:
                scorer = model.scorers.get(s.candidate.label.text)
                want = 0.0 if scorer is None else ref_score(
                    scorer, s.candidate.features, averaged=True)
                assert _close(s.confidence, want), (kind, degree)
                if scorer is not None:
                    for averaged in (False, True):
                        alone = scorer.scores([s.candidate.features], averaged)[0]
                        assert _close(alone, ref_score(scorer, s.candidate.features, averaged))

    @pytest.mark.parametrize("kind", ["svm", "perceptron-global"])
    def test_edge_cases(self, featured_pool, kind):
        pool, extractor, _intervals, _gold = featured_pool
        model = _train(kind, featured_pool, 2)
        labels = sorted(model.scorers)
        # a bias-only scorer, and a label the model has no scorer for
        model.scorers[labels[0]] = LabelScorer(labels[0], degree=2, bias=-0.75,
                                               degenerate=True)
        del model.scorers[labels[1]]
        unseen = len(extractor.space) + 1000
        per_sentence = []
        for sent in pool.sentences:
            cands = list(sent.candidates)
            cands[0] = dataclasses.replace(cands[0], features=FeatureVector(()))
            if len(cands) > 1:
                cands[1] = dataclasses.replace(
                    cands[1], features=FeatureVector((unseen, unseen + 1)))
            per_sentence.append(cands)
        edge_pool = pool.with_candidates(per_sentence)
        seen_kinds = set()
        for sent_scores in score_pool(model, edge_pool):
            for s in sent_scores:
                label = s.candidate.label.text
                scorer = model.scorers.get(label)
                if scorer is None:
                    assert s.confidence == 0.0
                    seen_kinds.add("no scorer")
                    continue
                if label == labels[0]:
                    assert s.confidence == -0.75
                    seen_kinds.add("bias only")
                if not s.candidate.features.ids:
                    seen_kinds.add("empty")
                if s.candidate.features.ids and min(s.candidate.features.ids) >= unseen:
                    # no support shares an id: every kernel value is 1
                    seen_kinds.add("unseen ids")
                assert _close(s.confidence,
                              ref_score(scorer, s.candidate.features, averaged=True))
        assert seen_kinds == {"no scorer", "bias only", "empty", "unseen ids"}


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


def _naive_global(examples, scope, degree: int, epochs: int, validation=None):
    """The global Perceptron, re-scoring every candidate with `ref_score`.
    Returns ({label: supports}, kept tick, ledger, epoch F1, kept epoch)."""
    supports: dict = {}
    holdout = validation if validation is not None else examples
    tick = 0
    ledger, epoch_f1, snapshots = [], [], []

    def predict(ex, averaged):
        scored = []
        for c in ex.candidates:
            sc = LabelScorer(c.label.text, degree=degree,
                             supports=supports.get(c.label.text, []), updates=tick)
            scored.append(ScoredCandidate(c, ref_score(sc, c.features, averaged)))
        return infer_sentence(scored, scope, ex.sentence_id).keys()

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
        epoch_f1.append(f1(holdout, [predict(ex, True) for ex in holdout]))
    best = max(range(len(epoch_f1)), key=lambda i: (epoch_f1[i], -i))
    keep_tick, counts = snapshots[best]
    kept = {lab: sup[:counts.get(lab, 0)] for lab, sup in supports.items()
            if counts.get(lab, 0)}
    return kept, keep_tick, ledger, epoch_f1, best


def _rows(supports) -> list:
    return [(coef, tick, sv.ids) for coef, tick, sv in supports]


class TestPerceptronReplay:
    """The margin-cached trainers against trainers that re-score everything."""

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_local(self, featured_pool, degree):
        pool, extractor, _intervals, _gold = featured_pool
        datasets = label_datasets(pool)
        model = train_local_perceptron(datasets, degree=degree, epochs=3,
                                       space=extractor.space,
                                       feature_config=extractor.config)
        want = _naive_local(datasets, degree, 3)
        assert sorted(model.scorers) == sorted(want)
        for label, sc in model.scorers.items():
            assert _rows(sc.supports) == _rows(want[label].supports), label
            assert sc.updates == want[label].updates

    @pytest.mark.parametrize("scope, degree, split", [
        (Scope.PRED_BY_PRED, 2, True),
        (Scope.FULL_SENTENCE, 2, True),
        (Scope.PRED_BY_PRED, 3, False),
        (Scope.FULL_SENTENCE, 1, False),
    ])
    def test_global(self, featured_pool, scope, degree, split):
        pool, extractor, _intervals, gold = featured_pool
        examples = make_examples(pool, gold)
        train, validation = (examples[:-5], examples[-5:]) if split else (examples, None)
        if split:
            # a held-out gold candidate whose label no training candidate has
            assert all(c.label.text != "A5" for ex in train for c in ex.candidates)
            lone = cand(999, 0, "A5", (0, 1), votes=("M1",),
                        features=train[0].candidates[0].features, is_gold=True)
            validation = validation + [TrainExample(999, (lone,), frozenset({lone.key}))]
        model, log = train_global_perceptron(
            train, scope=scope, degree=degree, epochs=3, space=extractor.space,
            feature_config=extractor.config, validation=validation)
        kept, keep_tick, ledger, epoch_f1, best = _naive_global(
            train, scope, degree, 3, validation)
        assert log.ledger == ledger
        assert log.epoch_f1 == epoch_f1
        assert log.selected_epoch == best
        assert sum(p + d for p, d, _, _ in ledger) > 0
        assert sorted(model.scorers) == sorted(kept)
        assert "A5" not in model.scorers
        for label, sc in model.scorers.items():
            assert _rows(sc.supports) == _rows(kept[label]), label
            assert sc.updates == keep_tick
