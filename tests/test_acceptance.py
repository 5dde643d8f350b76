"""Acceptance suite: one test per shipped guarantee, each printing a
pass/fail line.  Run with ``pytest tests/test_acceptance.py -s`` to see the
per-criterion report."""

import contextlib
import random
import time

import mpmath
import pytest

from srlcomb.calibrate import DEFAULT_GAMMA, attach_probs, build_intervals, softmax
from srlcomb.corpus_io import (
    SyntheticConfig,
    emit_props,
    emit_scores,
    emit_syntax,
    generate_synthetic,
    parse_props,
    parse_scores,
    parse_syntax,
    skeleton_sentences,
    FormatError,
    PropsDocument,
    PropsSentence,
)
from srlcomb.evaluate import (
    BOOTSTRAP_LEVEL,
    BootstrapResult,
    baseline_precision,
    baseline_recall,
    oracle_combination,
    oracle_rerank,
    repair_continuations,
    score,
)
from srlcomb.features import FeatureExtractor, FeatureSpace
from srlcomb.infer_cs import (CsConfig, DEFAULT_BIAS, DEFAULT_O_GRID, Scope, infer_corpus,
                              solve_with_stats)
from srlcomb.infer_dp import ScoredCandidate, decode_corpus, dp_predicate, infer_sentence
from srlcomb.learn import (
    DEFAULT_C,
    DEFAULT_DEGREE,
    DEFAULT_EPOCHS,
    TrainExample,
    label_datasets,
    make_examples,
    score_pool,
    train_global_perceptron,
    train_local_svm,
)
from srlcomb.model import (
    Argument,
    ConstraintSet,
    RoleLabel,
    Span,
    V_LABEL,
)
from srlcomb.pool import align_gold, build_pool, solutions_to_props
from conftest import cand, random_candidates
from enum_oracle import assert_feasible, enumerate_best
from test_infer_cs import random_constraints


@contextlib.contextmanager
def criterion(n: int, description: str):
    try:
        yield
    except Exception:
        print(f"[FAIL] criterion {n}: {description}")
        raise
    print(f"[PASS] criterion {n}: {description}")


def _triples(systems):
    return [(f"M{i + 1}", doc, table) for i, (doc, table) in enumerate(systems)]


def test_criterion_1_exact_inference_equivalence():
    with criterion(1, "constraint solver matches exhaustive enumeration"):
        rng = random.Random(1001)
        start = time.perf_counter()
        for trial in range(200):
            n = rng.randint(1, 16)
            cands = random_candidates(rng, n, n_predicates=3, n_tokens=24)
            cs = random_constraints(rng)
            bias = rng.choice([0.0, 0.15, 0.3, 0.6])
            sol, _ = solve_with_stats(cands, CsConfig(bias=bias, scope=Scope.FULL_SENTENCE,
                                                      constraints=cs), 0)
            margins = [c.prob_sum() - bias for c in cands]
            want, _ = enumerate_best(cands, margins, cs, bias * len(cands))
            assert abs(sol.objective - want) < 1e-9, f"trial {trial}: " \
                f"{sol.objective} != {want} under {cs}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_2_dp_equivalence():
    with criterion(2, "dynamic-programming decoders match enumeration"):
        rng = random.Random(1002)
        start = time.perf_counter()
        cs_pred = ConstraintSet.hard_rules(1, 2)
        for trial in range(200):
            cands = random_candidates(rng, rng.randint(1, 14), n_predicates=1,
                                      n_tokens=25)
            confs = [round(rng.uniform(-2, 3), 6) for _ in cands]
            sol = dp_predicate([ScoredCandidate(c, v) for c, v in zip(cands, confs)])
            want, _ = enumerate_best(cands, confs, cs_pred)
            assert abs(sol.objective - max(want, 0.0)) < 1e-9, f"pred trial {trial}"
        cs_sent = ConstraintSet.hard_rules(1, 2, 5)
        for trial in range(100):
            cands = random_candidates(rng, rng.randint(1, 14), n_predicates=3,
                                      n_tokens=25)
            confs = [round(rng.uniform(-2, 3), 6) for _ in cands]
            sol = infer_sentence(cands, confs, Scope.FULL_SENTENCE, 0)
            want, _ = enumerate_best(cands, confs, cs_sent)
            assert abs(sol.objective - max(want, 0.0)) < 1e-9, f"sent trial {trial}"
        for trial in range(100):
            cands = random_candidates(rng, rng.randint(1, 14), n_predicates=3,
                                      n_tokens=25)
            confs = [round(rng.uniform(-2, 3), 6) for _ in cands]
            sol = infer_sentence(cands, confs, Scope.PRED_BY_PRED, 0)
            want, _ = enumerate_best(cands, confs, cs_pred)
            assert abs(sol.objective - max(want, 0.0)) < 1e-9, f"multi-pred trial {trial}"
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"took {elapsed:.1f}s"


def test_criterion_3_threshold_law():
    with criterion(3, "disjoint candidates select exactly {i: s_i > O}, nested over O"):
        labels = ["A0", "A1", "A2", "A3", "A4", "AM-TMP", "AM-LOC", "AM-MNR"]
        values = [0.0, 0.05, 0.10, 0.30, 0.45, 0.60, 0.85, 1.0]
        cands = [cand(label=labels[i], span=(2 * i, 2 * i), probs={"M1": v})
                 for i, v in enumerate(values)]
        cs = ConstraintSet.hard_rules(1, 2)
        previous = None
        assert len(DEFAULT_O_GRID) == 21
        for o in DEFAULT_O_GRID:
            sol, _ = solve_with_stats(cands, CsConfig(bias=o, scope=Scope.FULL_SENTENCE,
                                                      constraints=cs), 0)
            got = {c.key for c in sol.selected}
            want = {c.key for c, v in zip(cands, values) if v > o}
            assert got == want, f"O={o}: ties must not be selected"
            if previous is not None:
                assert got <= previous, f"selection must shrink at O={o}"
            previous = got


def test_criterion_4_softmax_suite():
    with criterion(4, "softmax normalization, argmax/shift invariance, reference value"):
        rng = random.Random(1004)
        for _ in range(200):
            scores = [rng.uniform(-40, 40) for _ in range(rng.randint(1, 9))]
            gamma = rng.choice([0.01, 0.1, 1.0, 10.0])
            out = softmax(scores, gamma)
            assert abs(sum(out) - 1.0) < 1e-9
            if gamma * (max(scores) - min(scores)) < 700:  # above: exp underflow
                assert all(p > 0 for p in out)
        for _ in range(100):
            scores = [rng.uniform(-10, 10) for _ in range(rng.randint(2, 6))]
            ordered = sorted(scores, reverse=True)
            if ordered[0] - ordered[1] < 1e-3:
                continue
            best = max(range(len(scores)), key=lambda i: scores[i])
            for gamma in (0.01, 0.1, 1.0, 10.0):
                out = softmax(scores, gamma)
                assert max(range(len(out)), key=lambda i: out[i]) == best
            shift = rng.uniform(-25, 25)
            a = softmax(scores, 0.1)
            b = softmax([s + shift for s in scores], 0.1)
            assert all(abs(x - y) < 1e-12 for x, y in zip(a, b))
        with mpmath.workdps(50):
            z = mpmath.exp(mpmath.mpf("0.1")) + 1
            want = float(mpmath.exp(mpmath.mpf("0.1")) / z)
        got = softmax([1.0, 0.0], 0.1)
        assert abs(got[0] - want) < 1e-5
        assert abs(got[0] - 0.52498) < 1e-5 and abs(got[1] - 0.47502) < 1e-5


def _marked_examples(space: FeatureSpace, n_sentences: int, seed: int):
    rng = random.Random(seed)
    examples = []
    for s in range(n_sentences):
        cands = []
        layout = [("A0", (0, 1)), ("A1", (3, 4)), ("A2", (6, 7)), ("AM-TMP", (9, 10))]
        for i, (label, span) in enumerate(layout):
            gold = i % 2 == 0
            marker = "mark=gold" if gold else "mark=junk"
            features = (space.intern(marker),
                        space.intern(f"uniq={s}:{i}:{rng.randrange(50)}"))
            cands.append(cand(s, 0, label, span, votes=("M1",),
                              features=features, is_gold=gold))
        examples.append(TrainExample(
            s, tuple(cands), frozenset(c.key for c in cands if c.is_gold)))
    return examples


def test_criterion_5_global_perceptron_conformance():
    with criterion(5, "global Perceptron: perfect F1 in 3 epochs, exact ledger, "
                      "byte-identical models"):
        space = FeatureSpace()
        examples = _marked_examples(space, 8, seed=5)
        model, log = train_global_perceptron(
            examples, epochs=3, extractor=FeatureExtractor(space=space), validation=examples)
        assert max(log.epoch_f1) == 100.0, f"epoch F1: {log.epoch_f1}"
        for n_promote, n_demote, missing, spurious in log.ledger:
            assert n_promote == missing and n_demote == spurious
        space2 = FeatureSpace()
        examples2 = _marked_examples(space2, 8, seed=5)
        model2, _ = train_global_perceptron(
            examples2, epochs=3, extractor=FeatureExtractor(space=space2), validation=examples2)
        assert model.saves() == model2.saves()


def test_criterion_6_oracle_and_baseline_laws():
    with criterion(6, "oracle recall dominance, full-vote precision baseline, "
                      "outputs that break no hard rule"):
        abc = ConstraintSet.hard_rules(1, 2, 5)
        for seed in range(100):
            gold, systems = generate_synthetic(SyntheticConfig(
                n_sentences=10, seed=10_000 + seed))
            pool = attach_probs(align_gold(build_pool(_triples(systems)), gold))
            comb = score(solutions_to_props(pool, oracle_combination(pool)), gold)
            rerank = score(solutions_to_props(pool, oracle_rerank(pool, gold)), gold)
            assert comb.recall >= rerank.recall - 1e-9

            for sol in baseline_precision(pool):
                for c in sol.selected:
                    assert len(c.votes) == pool.m

            cfg = CsConfig()
            assert_feasible([sol for sol, _ in infer_corpus(pool, cfg)], pool, cfg.constraints)
            dp = decode_corpus(pool, [[c.prob_sum() - DEFAULT_BIAS for c in sent.candidates]
                                      for sent in pool.sentences], Scope.FULL_SENTENCE)
            assert_feasible(dp, pool, abc)
            for solutions in (baseline_recall(pool), baseline_precision(pool)):
                assert_feasible(solutions, pool, abc)


def test_criterion_7_scorer_conformance():
    with criterion(7, "identity scores 100, continuation repair, repair idempotence"):
        gold, _ = generate_synthetic(SyntheticConfig(n_sentences=30, seed=1007))
        report = score(gold, gold)
        assert (report.precision, report.recall, report.f1, report.pprops) == \
            (100.0, 100.0, 100.0, 100.0)

        gold_fix = PropsDocument((PropsSentence(
            10, ((0, "v"),),
            ((Argument(0, V_LABEL, Span(0, 0)),
              Argument(0, RoleLabel.parse("A1"), Span(5, 9))),)),))
        pred_fix = PropsDocument((PropsSentence(
            10, ((0, "v"),),
            ((Argument(0, V_LABEL, Span(0, 0)),
              Argument(0, RoleLabel.parse("C-A1"), Span(5, 9))),)),))
        assert score(pred_fix, gold_fix).f1 == 100.0

        rng = random.Random(1007)
        labels = ["A0", "A1", "C-A1", "C-A0", "AM-TMP", "C-AM-TMP", "R-A0"]
        for _ in range(50):
            args, start = [], 0
            for _k in range(rng.randint(1, 6)):
                length = rng.randint(1, 3)
                args.append((RoleLabel.parse(rng.choice(labels)),
                             Span(start, start + length - 1)))
                start += length + 1
            once = repair_continuations(args)
            assert repair_continuations(once) == once


def test_criterion_8_end_to_end_synthetic_gain():
    with criterion(8, "all three combination strategies beat the best individual "
                      "system on a 500-sentence synthetic corpus"):
        start = time.perf_counter()
        knobs = dict(precision=0.80, recall=0.75)
        train_gold, train_systems = generate_synthetic(SyntheticConfig(
            n_sentences=250, seed=81, **knobs))
        test_gold, test_systems = generate_synthetic(SyntheticConfig(
            n_sentences=500, seed=82, **knobs))

        best_individual = max(score(doc, test_gold).f1 for doc, _ in test_systems)

        train_pool = attach_probs(align_gold(
            build_pool(_triples(train_systems)), train_gold))
        test_pool = attach_probs(align_gold(
            build_pool(_triples(test_systems)), test_gold))

        results = {}
        cs_solutions = [sol for sol, _ in infer_corpus(test_pool, CsConfig())]
        results["constraint-satisfaction"] = score(
            solutions_to_props(test_pool, cs_solutions), test_gold).f1

        extractor = FeatureExtractor(intervals=build_intervals(train_pool))
        train_featured = extractor.extract_pool(train_pool)

        svm = train_local_svm(label_datasets(train_featured), extractor=extractor)
        solutions = decode_corpus(test_pool, score_pool(svm, test_pool), Scope.PRED_BY_PRED)
        results["local-svm"] = score(solutions_to_props(test_pool, solutions), test_gold).f1

        examples = make_examples(train_featured, train_gold)
        global_model, _log = train_global_perceptron(
            examples[:-25], scope=Scope.FULL_SENTENCE, extractor=extractor,
            validation=examples[-25:])
        solutions = decode_corpus(test_pool, score_pool(global_model, test_pool),
                                  Scope.FULL_SENTENCE)
        results["global-perceptron"] = score(
            solutions_to_props(test_pool, solutions), test_gold).f1

        elapsed = time.perf_counter() - start
        print(f"  best individual F1 {best_individual:.2f}; " +
              "; ".join(f"{k} {v:.2f}" for k, v in results.items()) +
              f"; {elapsed:.1f}s")
        for name, f1 in results.items():
            assert f1 > best_individual + 0.5, \
                f"{name} F1 {f1:.2f} vs individual {best_individual:.2f}"
        assert elapsed < 120.0, f"took {elapsed:.1f}s"


def _fuzz_props(rng: random.Random, text: str) -> str:
    lines = text.splitlines()
    mutations = []
    for i, line in enumerate(lines):
        if "*)" in line and "(" not in line.split()[-1]:
            mutations.append((i, line.replace("*)", "*", 1)))
        cells = line.split()
        for j, cell in enumerate(cells):
            if cell.endswith("*") and cell.startswith("(") and not cell.endswith("*)"):
                mutations.append((i, " ".join(cells[:j] + ["*"] + cells[j + 1:])))
                mutations.append((i, " ".join(cells[:j] + ["((" + cell[1:]] + cells[j + 1:])))
            if cell == "*" and j > 0:
                mutations.append((i, " ".join(cells[:j] + ["*)"] + cells[j + 1:])))
            if cell.endswith("*)") and cell.startswith("("):
                mutations.append((i, " ".join(cells[:j] + [cell[:-1]] + cells[j + 1:])))
    if not mutations:
        return text
    i, new_line = mutations[rng.randrange(len(mutations))]
    return "\n".join(lines[:i] + [new_line] + lines[i + 1:]) + "\n"


def test_criterion_9_format_fidelity():
    with criterion(9, "byte-identical round trips on 100 corpora; corrupted "
                      "brackets rejected with a line number"):
        for seed in range(100):
            gold, systems = generate_synthetic(SyntheticConfig(
                n_sentences=4, seed=20_000 + seed))
            for doc in [gold] + [d for d, _ in systems]:
                text = emit_props(doc)
                assert emit_props(parse_props(text)) == text
            for _doc, table in systems:
                text = emit_scores(table)
                assert emit_scores(parse_scores(text)) == text
            syntax = emit_syntax(skeleton_sentences(gold))
            assert emit_syntax(parse_syntax(syntax)) == syntax

        rng = random.Random(1009)
        rejected = 0
        for seed in range(60):
            gold, _ = generate_synthetic(SyntheticConfig(
                n_sentences=3, seed=30_000 + seed))
            text = emit_props(gold)
            fuzzed = _fuzz_props(rng, text)
            if fuzzed == text:
                continue
            with pytest.raises(FormatError) as err:
                parse_props(fuzzed)
            assert err.value.line is not None
            rejected += 1
        assert rejected >= 50


def test_criterion_10_shipped_defaults():
    with criterion(10, "shipped defaults: gamma=0.1, O=0.30, degree=2, "
                       "5 epochs, bootstrap presentation"):
        from srlcomb import cli
        assert DEFAULT_GAMMA == 0.1
        assert cli.DEFAULT_GAMMA == 0.1
        assert CsConfig().bias == 0.30
        assert DEFAULT_BIAS == 0.30
        assert DEFAULT_DEGREE == 2
        assert DEFAULT_EPOCHS == 5
        assert DEFAULT_C == 1.0
        assert cli.DEFAULT_BOOTSTRAP == 1000
        assert BOOTSTRAP_LEVEL == 0.95
        sample = BootstrapResult(75.47, 0.8, 1000, 74.7, 76.3)
        assert sample.formatted() == "75.47 ±0.8"
        parser = cli.build_parser()
        sub = {a.dest: a for a in parser._actions}["command"]
        assert sub.choices["infer"].get_default("gamma") == 0.1
        assert sub.choices["infer"].get_default("bias") == 0.30
        assert sub.choices["infer"].get_default("bootstrap") == 1000
        assert sub.choices["train"].get_default("epochs") == 5
        assert sub.choices["train"].get_default("degree") == 2
