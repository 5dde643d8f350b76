import os
import random
from dataclasses import replace

import numpy as np
import pytest

from srlcomb.corpus_io import SyntheticConfig, generate_synthetic, skeleton_sentences
from srlcomb.calibrate import attach_probs
from srlcomb.infer_cs import (
    CsConfig,
    DEFAULT_O_GRID,
    InferenceTimeout,
    Scope,
    infer_corpus,
    map_sentences,
    solve,
    solve_with_stats,
    sweep_bias,
)
from srlcomb.model import (Argument, ConstraintSet, ConstraintRule, LabelKind, RoleLabel,
                           enumerate_violations, soft, validate)
from srlcomb.pool import align_gold, build_pool
from conftest import HARD_50, SEARCH_HARD, cand, random_candidates
from enum_oracle import broken_rules, enumerate_best


def _cfg(constraints, bias=0.0, scope=Scope.FULL_SENTENCE):
    return CsConfig(bias=bias, scope=scope, constraints=constraints)


def random_constraints(rng: random.Random) -> ConstraintSet:
    kwargs = {}
    for cid in ("c1", "c2", "c3", "c4", "c5", "c6"):
        mode = rng.choice(["off", "hard", "soft"])
        kwargs[cid] = soft(round(rng.uniform(0.05, 0.5), 3)) if mode == "soft" \
            else ConstraintRule(mode)
    return ConstraintSet(**kwargs)


class TestSolveExamples:
    def test_single_candidate_above_bias(self):
        c = cand(probs={"M1": 0.9})
        sol = solve([c], _cfg(ConstraintSet.hard_rules(1, 2), bias=0.3))
        assert sol.selected == (c,)
        assert abs(sol.objective - 0.9) < 1e-12

    def test_single_candidate_below_bias(self):
        c = cand(probs={"M1": 0.2})
        sol = solve([c], _cfg(ConstraintSet.hard_rules(1, 2), bias=0.3))
        assert sol.selected == ()
        assert abs(sol.objective - 0.3) < 1e-12

    def test_crossing_pair_keeps_stronger(self):
        a = cand(label="A0", span=(0, 5), probs={"M1": 0.9})
        b = cand(label="A1", span=(3, 8), probs={"M1": 0.8})
        sol = solve([a, b], _cfg(ConstraintSet.hard_rules(1)))
        assert sol.selected == (a,)
        want, _ = enumerate_best([a, b], [0.9, 0.8], ConstraintSet.hard_rules(1))
        assert abs(sol.objective - want) < 1e-9

    def test_duplicate_core_keeps_best_plus_other(self):
        a0_hi = cand(label="A0", span=(0, 1), probs={"M1": 0.9})
        a0_lo = cand(label="A0", span=(3, 4), probs={"M1": 0.8})
        a1 = cand(label="A1", span=(6, 7), probs={"M1": 0.7})
        sol = solve([a0_hi, a0_lo, a1], _cfg(ConstraintSet.hard_rules(2)))
        assert set(sol.selected) == {a0_hi, a1}
        want, _ = enumerate_best([a0_hi, a0_lo, a1], [0.9, 0.8, 0.7],
                                 ConstraintSet.hard_rules(2))
        assert abs(sol.objective - want) < 1e-9

    def test_empty_input(self):
        sol = solve([], _cfg(ConstraintSet.hard_rules(1)), sentence_id=7)
        assert sol.sentence_id == 7 and sol.selected == ()

    def test_reference_dragged_in_by_base(self):
        # R-A0 is worth selecting only together with its cheap base argument
        r = cand(label="R-A0", span=(0, 0), probs={"M1": 0.9, "M2": 0.9, "M3": 0.9})
        base = cand(label="A0", span=(2, 3), probs={"M1": 0.4})
        cfg = _cfg(ConstraintSet.hard_rules(3), bias=0.5)
        sol = solve([r, base], cfg)
        assert set(sol.selected) == {r, base}


class TestExactness:
    def test_matches_enumeration_random(self):
        rng = random.Random(77)
        for trial in range(120):
            n = rng.randint(1, 12)
            cands = random_candidates(rng, n)
            cs = random_constraints(rng)
            bias = rng.choice([0.0, 0.2, 0.5])
            sol = solve(cands, _cfg(cs, bias=bias))
            margins = [c.prob_sum() - bias for c in cands]
            want, _ = enumerate_best(cands, margins, cs, bias * len(cands))
            assert abs(sol.objective - want) < 1e-9, f"trial {trial}"

    def test_matches_reference_violations_semantics(self):
        # three-way check: the model-level violation enumerator prices every
        # subset; solve must reach the same optimum
        rng = random.Random(5)
        for _trial in range(30):
            n = rng.randint(1, 8)
            cands = random_candidates(rng, n)
            cs = random_constraints(rng)
            best = float("-inf")
            for mask in range(1 << n):
                subset = [cands[i] for i in range(n) if mask >> i & 1]
                violations = enumerate_violations(subset, cs)
                if any(v.hard for v in violations):
                    continue
                value = sum(c.prob_sum() for c in subset) - \
                    sum(v.penalty for v in violations)
                best = max(best, value)
            sol = solve(cands, _cfg(cs, bias=0.0))
            assert abs(sol.objective - best) < 1e-9

    def test_objective_formulation_invariance(self):
        # argmax is the same whether the bias enters as O*(1-l) or as margins
        rng = random.Random(3)
        for _ in range(40):
            cands = random_candidates(rng, rng.randint(1, 10))
            cs = random_constraints(rng)
            bias = rng.uniform(0.0, 1.0)
            sol = solve(cands, _cfg(cs, bias=bias))
            margins = [c.prob_sum() - bias for c in cands]
            reduced, _ = enumerate_best(cands, margins, cs, 0.0)
            chosen_margin = sum(c.prob_sum() - bias for c in sol.selected)
            penalties = sum(v.penalty for v in
                            enumerate_violations(sol.selected, cs))
            assert abs((chosen_margin - penalties) - reduced) < 1e-9

    def test_every_solution_validates(self):
        rng = random.Random(13)
        for _ in range(60):
            cands = random_candidates(rng, rng.randint(1, 12))
            cs = random_constraints(rng)
            sol = solve(cands, _cfg(cs, bias=0.3))
            assert [v for v in enumerate_violations(sol.selected, cs) if v.hard] == []


def _pool_sentences(n_sentences, seed, knobs):
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=n_sentences, seed=seed,
                                                       **knobs))
    pool = attach_probs(build_pool([(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]))
    return pool.sentences


def _supports(base, dependent) -> bool:
    """c3: an R-X needs an X of its predicate; c4: a C-X needs one that
    starts earlier."""
    b, d = base.argument, dependent.argument
    return (b.predicate == d.predicate and b.label.text == d.label.base
            and (d.label.kind is LabelKind.REFERENCE or b.span.start < d.span.start))


def milp_optimum(cands, margins, cs: ConstraintSet) -> float:
    """max sum(margins * x) minus penalties under ``cs``, proved by scipy's
    MILP.  Pair rows come from the enumeration oracle's rules.  A soft pair
    costs its penalty through y >= x_i + x_j - 1; a hard c3/c4 rule is
    x_dep <= sum(x_base), a soft one z >= x_dep - sum(x_base)."""
    milp = pytest.importorskip("scipy.optimize")
    n = len(cands)
    cost = [-m for m in margins]
    rows, upper = [], []

    def extra(penalty):     # a 0/1 indicator that costs `penalty` when set
        cost.append(penalty)
        return len(cost) - 1

    for i in range(n):
        for j in range(i):
            rules = [r for r in map(cs.rule, broken_rules(cands[i], cands[j])) if r.active]
            if any(r.mode == "hard" for r in rules):
                rows.append({i: 1.0, j: 1.0})
                upper.append(1.0)
            elif rules:
                rows.append({i: 1.0, j: 1.0, extra(sum(r.penalty for r in rules)): -1.0})
                upper.append(1.0)
    for i, c in enumerate(cands):
        cid = {LabelKind.REFERENCE: "c3", LabelKind.CONTINUATION: "c4"}.get(c.argument.label.kind)
        if cid is None or not cs.rule(cid).active:
            continue
        row = {i: 1.0}
        row.update((j, -1.0) for j, o in enumerate(cands) if _supports(o, c))
        if cs.rule(cid).mode == "soft":
            row[extra(cs.rule(cid).penalty)] = -1.0
        rows.append(row)
        upper.append(0.0)
    a = np.zeros((len(rows), len(cost)))
    for r, row in enumerate(rows):
        for k, v in row.items():
            a[r, k] = v
    res = milp.milp(np.array(cost),
                    constraints=milp.LinearConstraint(a, -np.inf, upper) if rows else None,
                    integrality=np.ones(len(cost)), bounds=milp.Bounds(0.0, 1.0),
                    options={"mip_rel_gap": 1e-12})
    assert res.status == 0
    return -res.fun


def _with_dependents(cands, rng: random.Random, share: float) -> list:
    """Turn about ``share`` of the candidates into R-X or C-X of their own
    label, keeping keys unique, so that c3 and c4 have work to do."""
    out, keys = [], {c.key for c in cands}
    for c in cands:
        if c.label.kind in (LabelKind.CORE, LabelKind.ADJUNCT) and rng.random() < share:
            label = RoleLabel.parse(rng.choice(("R-", "C-")) + c.label.text)
            moved = replace(c, argument=Argument(c.predicate, label, c.span))
            if moved.key not in keys:
                keys.add(moved.key)
                c = moved
        out.append(c)
    return out


class TestExactnessAtScale:
    def test_matches_milp_on_search_hard_pools(self):
        # pools far beyond the enumeration oracle's reach, checked against
        # scipy's MILP on a conflict graph built from the oracle's own rules
        milp = pytest.importorskip("scipy.optimize")
        gold, systems = generate_synthetic(SyntheticConfig(
            n_sentences=30, n_systems=6, tokens_range=(20, 40), predicates_range=(1, 4),
            args_range=(2, 4), precision=0.6, correct_score_mean=3.0,
            wrong_score_mean=-3.0, score_sd=20.0, seed=11))
        pool = attach_probs(build_pool([(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]))
        assert max(len(sent.candidates) for sent in pool.sentences) > 16
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+5+6"))
        for sent in pool.sentences:
            cands = sent.candidates
            margins = np.array([c.prob_sum() - cfg.bias for c in cands])
            pairs = [(i, j) for i in range(len(cands)) for j in range(i)
                     if broken_rules(cands[i], cands[j])]
            optimum = margins.clip(min=0.0).sum()
            if pairs:
                a = np.zeros((len(pairs), len(cands)))
                for r, (i, j) in enumerate(pairs):
                    a[r, i] = a[r, j] = 1.0
                res = milp.milp(-margins, constraints=milp.LinearConstraint(a, -np.inf, 1.0),
                                integrality=np.ones(len(cands)), bounds=milp.Bounds(0.0, 1.0),
                                options={"mip_rel_gap": 1e-12})
                assert res.status == 0
                optimum = -res.fun
            sol = solve(cands, cfg, sent.sentence_id)
            assert abs(sol.objective - (optimum + cfg.bias * len(cands))) < 1e-6, \
                sent.sentence_id

    def test_matches_milp_on_hard_50_pools(self):
        # 15-202 candidates per sentence, up to 128 with a positive margin; a
        # budget hit raises InferenceTimeout and fails the test
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+5+6"),
                       node_budget=2_000_000)
        sentences = _pool_sentences(50, 3, HARD_50)
        assert max(len(sent.candidates) for sent in sentences) > 150
        for sent in sentences:
            cands = sent.candidates
            sol = solve(cands, cfg, sent.sentence_id)
            optimum = milp_optimum(cands, [c.prob_sum() - cfg.bias for c in cands],
                                   cfg.constraints)
            assert abs(sol.objective - (optimum + cfg.bias * len(cands))) < 1e-6, \
                sent.sentence_id

    @pytest.mark.parametrize("spec,scope", [
        ("1+2+3+4+5+6", "sentence"),
        ("1+2+3+4:soft=0.5+5+6:soft=0.25", "sentence"),
        ("1+2:soft=0.3+3:soft=0.4+4+5+6", "sentence"),
        ("1+2:soft=0.3+3+4:soft=0.5", "pred"),
        ("1:soft=0.2+2+3:soft=0.4+4", "pred"),
    ])
    def test_matches_milp_with_soft_and_existential_rules(self, spec, scope):
        rng = random.Random(0)
        cfg = CsConfig(bias=0.3, scope=Scope(scope), constraints=ConstraintSet.parse(spec),
                       node_budget=2_000_000)
        dependents = 0
        for sent in _pool_sentences(30, 11, SEARCH_HARD):
            cands = _with_dependents(sent.candidates, rng, 0.25)
            dependents += sum(c.label.kind in (LabelKind.REFERENCE, LabelKind.CONTINUATION)
                              for c in cands)
            sol = solve(cands, cfg, sent.sentence_id)
            optimum = milp_optimum(cands, [c.prob_sum() - cfg.bias for c in cands],
                                   cfg.constraints)
            assert abs(sol.objective - (optimum + cfg.bias * len(cands))) < 1e-6, \
                sent.sentence_id
        assert dependents > 100

    def test_node_count_on_search_hard_pools(self):
        # the suffix bound (gain plus every positive margin left) took 19 851
        # nodes on these 30 sentences; the clique-cover bound takes 918
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+5+6"))
        nodes = sum(solve_with_stats(sent.candidates, cfg, sent.sentence_id)[1]
                    for sent in _pool_sentences(30, 11, SEARCH_HARD))
        assert nodes <= 1985


def _disjoint_candidates(values):
    labels = ["A0", "A1", "A2", "A3", "A4", "AM-TMP", "AM-LOC", "AM-MNR"]
    return [cand(label=labels[i], span=(2 * i, 2 * i), probs={"M1": v})
            for i, v in enumerate(values)]


class TestThresholdLaw:
    def test_selection_is_threshold_set(self):
        values = [0.05, 0.15, 0.30, 0.45, 0.60, 0.85, 1.0]
        cands = _disjoint_candidates(values)
        prev_keys = None
        for o in DEFAULT_O_GRID:
            sol = solve(cands, _cfg(ConstraintSet.hard_rules(1, 2), bias=o))
            got = {c.key for c in sol.selected}
            want = {c.key for c, v in zip(cands, values) if v > o}
            assert got == want, f"O={o}"
            if prev_keys is not None:
                assert got <= prev_keys
            prev_keys = got

    def test_tie_at_bias_not_selected(self):
        c = cand(probs={"M1": 0.3})
        sol = solve([c], _cfg(ConstraintSet.hard_rules(1, 2), bias=0.3))
        assert sol.selected == ()


class TestScope:
    def test_pred_scope_rejects_sentence_constraints(self):
        with pytest.raises(ValueError):
            CsConfig(scope=Scope.PRED_BY_PRED,
                     constraints=ConstraintSet.hard_rules(1, 2, 5))

    def test_pred_scope_equals_sentence_when_independent(self, rng):
        for _ in range(20):
            cands = random_candidates(rng, 8, n_predicates=2)
            cs = ConstraintSet.hard_rules(1, 2)
            a = solve(cands, CsConfig(bias=0.3, scope=Scope.PRED_BY_PRED, constraints=cs))
            b = solve(cands, CsConfig(bias=0.3, scope=Scope.FULL_SENTENCE, constraints=cs))
            assert abs(a.objective - b.objective) < 1e-9

    def test_defaults(self):
        assert CsConfig().bias == 0.30
        assert CsConfig().constraints == ConstraintSet.parse("1+2+5+6")
        assert CsConfig.for_scope(Scope.PRED_BY_PRED).constraints == ConstraintSet.parse("1+2")


class TestTimeout:
    def test_budget_carries_best_so_far(self):
        rng = random.Random(1)
        cands = random_candidates(rng, 14)
        with pytest.raises(InferenceTimeout) as err:
            solve(cands, CsConfig(bias=0.3, node_budget=3,
                                  constraints=ConstraintSet.hard_rules(1, 2, 5, 6)))
        assert err.value.best is not None

    @staticmethod
    def _three_predicates():
        cands = random_candidates(random.Random(5), 16, n_predicates=3)
        full = CsConfig.for_scope(Scope.PRED_BY_PRED, bias=0.0)
        per_pred = [solve_with_stats([c for c in cands if c.predicate == p], full)
                    for p in range(3)]
        return cands, per_pred

    def test_budget_covers_the_whole_sentence(self):
        cands, per_pred = self._three_predicates()
        nodes = [n for _, n in per_pred]
        assert max(nodes) < sum(nodes)
        # every predicate fits the budget on its own, but not all of them
        with pytest.raises(InferenceTimeout):
            solve(cands, CsConfig.for_scope(Scope.PRED_BY_PRED, bias=0.0,
                                            node_budget=max(nodes)))
        sol, visited = solve_with_stats(
            cands, CsConfig.for_scope(Scope.PRED_BY_PRED, bias=0.0, node_budget=sum(nodes)))
        assert visited == sum(nodes)
        assert set(sol.selected) == {c for s, _ in per_pred for c in s.selected}

    def test_timeout_best_merges_decoded_predicates(self):
        cands, per_pred = self._three_predicates()
        nodes = [n for _, n in per_pred]
        budget = nodes[0] + nodes[1] - 1    # one node short of finishing predicate 1
        assert nodes[0] < budget < nodes[0] + nodes[1]
        with pytest.raises(InferenceTimeout) as err:
            solve(cands, CsConfig.for_scope(Scope.PRED_BY_PRED, bias=0.0, node_budget=budget),
                  sentence_id=3)
        best = err.value.best
        assert best.sentence_id == 3
        # predicate 0 was decoded in full, predicate 1 partly, predicate 2 not at all
        assert {c for c in best.selected if c.predicate == 0} == set(per_pred[0][0].selected)
        assert any(c.predicate == 1 for c in best.selected)
        assert all(c.predicate != 2 for c in best.selected)
        assert abs(best.objective - sum(c.prob_sum() for c in best.selected)) < 1e-9


class TestFanOut:
    @pytest.mark.parametrize("cpus,n_tasks,want", [(2, 10, 2), (64, 3, 3)])
    def test_workers_capped_by_cpus_and_tasks(self, monkeypatch, cpus, n_tasks, want):
        import multiprocessing
        asked = []

        class Pool:     # records the size asked for and starts no process
            def __init__(self, processes):
                asked.append(processes)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def starmap(self, fn, tasks, chunksize=1):
                return [fn(*task) for task in tasks]

        monkeypatch.setattr(multiprocessing, "Pool", Pool)
        monkeypatch.setattr(os, "cpu_count", lambda: cpus)
        tasks = [(i,) for i in range(n_tasks)]
        assert map_sentences(abs, tasks, jobs=2000) == list(range(n_tasks))
        assert asked == [want]


@pytest.fixture(scope="module")
def pool():
    gold, systems = generate_synthetic(SyntheticConfig(n_sentences=30, seed=6))
    pool = attach_probs(align_gold(build_pool(
        [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold))
    return pool, gold


class TestSweep:
    def test_default_grid_has_21_rows(self, pool):
        p, gold = pool
        result = sweep_bias(p, gold, CsConfig())
        assert len(result.rows) == 21
        assert result.csv().startswith("O,precision,recall,f1\n")
        assert len(result.csv().strip().splitlines()) == 22

    def test_huge_bias_empties_selection(self, pool):
        p, gold = pool
        result = sweep_bias(p, gold, CsConfig(), o_values=[4.0])
        row = result.rows[0]
        assert row.precision == 100.0 and row.recall == 0.0 and row.f1 == 0.0

    def test_zero_bias_recall_at_least_default(self, pool):
        p, gold = pool
        result = sweep_bias(p, gold, CsConfig(), o_values=[0.0, 0.3])
        assert result.rows[0].recall >= result.rows[1].recall


class TestValidatorIntegration:
    def test_corpus_outputs_validate(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=25, seed=17))
        pool = attach_probs(align_gold(build_pool(
            [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold))
        cfg = CsConfig()
        sentences = skeleton_sentences(gold)
        for sol, sent in zip(infer_corpus(pool, cfg), sentences):
            assert [v for v in validate(sol, cfg.constraints, sent) if v.hard] == []
