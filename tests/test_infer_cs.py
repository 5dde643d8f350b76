import gc
import random
from dataclasses import replace

import numpy as np
import pytest

from srlcomb.corpus_io import SyntheticConfig, generate_synthetic
from srlcomb.calibrate import attach_probs
from srlcomb.infer_cs import (
    CsConfig,
    DEFAULT_O_GRID,
    InferenceTimeout,
    Scope,
    decode,
    infer_corpus,
    solve_with_stats,
    sweep_bias,
)
from srlcomb.model import (Argument, Candidate, ConstraintSet, ConstraintRule, LabelKind,
                           RoleLabel, pair_rules, soft)
from srlcomb.pool import align_gold, build_pool
from conftest import HARD_50, SEARCH_HARD, cand, pool_sentences, random_candidates
import reference_decode
from enum_oracle import (assert_feasible, broken_rules, enumerate_best, hard_violations,
                         tie_rule_best, violations)


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
        sol, _ = solve_with_stats([c], _cfg(ConstraintSet.hard_rules(1, 2), bias=0.3), 0)
        assert sol.selected == (c,)
        assert abs(sol.objective - 0.9) < 1e-12

    def test_single_candidate_below_bias(self):
        c = cand(probs={"M1": 0.2})
        sol, _ = solve_with_stats([c], _cfg(ConstraintSet.hard_rules(1, 2), bias=0.3), 0)
        assert sol.selected == ()
        assert abs(sol.objective - 0.3) < 1e-12

    def test_crossing_pair_keeps_stronger(self):
        a = cand(label="A0", span=(0, 5), probs={"M1": 0.9})
        b = cand(label="A1", span=(3, 8), probs={"M1": 0.8})
        sol, _ = solve_with_stats([a, b], _cfg(ConstraintSet.hard_rules(1)), 0)
        assert sol.selected == (a,)
        want, _ = enumerate_best([a, b], [0.9, 0.8], ConstraintSet.hard_rules(1))
        assert abs(sol.objective - want) < 1e-9

    def test_duplicate_core_keeps_best_plus_other(self):
        a0_hi = cand(label="A0", span=(0, 1), probs={"M1": 0.9})
        a0_lo = cand(label="A0", span=(3, 4), probs={"M1": 0.8})
        a1 = cand(label="A1", span=(6, 7), probs={"M1": 0.7})
        sol, _ = solve_with_stats([a0_hi, a0_lo, a1], _cfg(ConstraintSet.hard_rules(2)), 0)
        assert set(sol.selected) == {a0_hi, a1}
        want, _ = enumerate_best([a0_hi, a0_lo, a1], [0.9, 0.8, 0.7],
                                 ConstraintSet.hard_rules(2))
        assert abs(sol.objective - want) < 1e-9

    def test_empty_input(self):
        sol, _ = solve_with_stats([], _cfg(ConstraintSet.hard_rules(1)), sentence_id=7)
        assert sol.sentence_id == 7 and sol.selected == ()

    @pytest.mark.parametrize("penalty,selected", [(0.5, False), (0.375, True)])
    def test_soft_reference_without_base(self, penalty, selected):
        # selecting A1 drops A0, the only base of R-A0; R-A0's margin 0.5 then
        # at most pays its c3 penalty, so it joins only if the penalty is less
        r = cand(label="R-A0", span=(0, 0), probs={"M1": 0.5})
        base = cand(label="A0", span=(2, 3), probs={"M1": 0.25})
        a1 = cand(label="A1", span=(2, 4), probs={"M1": 0.875})
        cands = [r, base, a1]
        cs = ConstraintSet(c1=ConstraintRule("hard"), c3=soft(penalty))
        sol, _ = solve_with_stats(cands, _cfg(cs), 0)
        want, mask = enumerate_best(cands, [c.prob_sum() for c in cands], cs)
        assert set(sol.selected) == {c for i, c in enumerate(cands) if mask >> i & 1}
        assert set(sol.selected) == ({a1, r} if selected else {a1})
        assert sol.objective == want

    def test_reference_dragged_in_by_base(self):
        # R-A0 is worth selecting only together with its cheap base argument
        r = cand(label="R-A0", span=(0, 0), probs={"M1": 0.9, "M2": 0.9, "M3": 0.9})
        base = cand(label="A0", span=(2, 3), probs={"M1": 0.4})
        cfg = _cfg(ConstraintSet.hard_rules(3), bias=0.5)
        sol, _ = solve_with_stats([r, base], cfg, 0)
        assert set(sol.selected) == {r, base}


class TestExactness:
    def test_matches_enumeration_random(self):
        rng = random.Random(77)
        for trial in range(120):
            n = rng.randint(1, 12)
            cands = random_candidates(rng, n)
            cs = random_constraints(rng)
            bias = rng.choice([0.0, 0.2, 0.5])
            sol, _ = solve_with_stats(cands, _cfg(cs, bias=bias), 0)
            margins = [c.prob_sum() - bias for c in cands]
            want, _ = enumerate_best(cands, margins, cs, bias * len(cands))
            assert abs(sol.objective - want) < 1e-9, f"trial {trial}"

    def test_matches_reference_violations_semantics(self):
        # three-way check: the oracle's rule checker prices every subset;
        # solve_with_stats must reach the same optimum
        rng = random.Random(5)
        for _trial in range(30):
            n = rng.randint(1, 8)
            cands = random_candidates(rng, n)
            cs = random_constraints(rng)
            best = float("-inf")
            for mask in range(1 << n):
                subset = [cands[i] for i in range(n) if mask >> i & 1]
                broken = violations(subset, cs)
                if any(rule.mode == "hard" for _cid, rule in broken):
                    continue
                value = sum(c.prob_sum() for c in subset) - \
                    sum(rule.penalty for _cid, rule in broken)
                best = max(best, value)
            sol, _ = solve_with_stats(cands, _cfg(cs, bias=0.0), 0)
            assert abs(sol.objective - best) < 1e-9

    def test_objective_formulation_invariance(self):
        # argmax is the same whether the bias enters as O*(1-l) or as margins
        rng = random.Random(3)
        for _ in range(40):
            cands = random_candidates(rng, rng.randint(1, 10))
            cs = random_constraints(rng)
            bias = rng.uniform(0.0, 1.0)
            sol, _ = solve_with_stats(cands, _cfg(cs, bias=bias), 0)
            margins = [c.prob_sum() - bias for c in cands]
            reduced, _ = enumerate_best(cands, margins, cs, 0.0)
            chosen_margin = sum(c.prob_sum() - bias for c in sol.selected)
            penalties = sum(rule.penalty for _cid, rule in violations(sol.selected, cs))
            assert abs((chosen_margin - penalties) - reduced) < 1e-9

    def test_every_solution_validates(self):
        rng = random.Random(13)
        for _ in range(60):
            cands = random_candidates(rng, rng.randint(1, 12))
            cs = random_constraints(rng)
            sol, _ = solve_with_stats(cands, _cfg(cs, bias=0.3), 0)
            assert hard_violations(sol.selected, cs) == []


class TestTieRule:
    @staticmethod
    def _quarter_pool(rng, n):
        """Candidates of three predicates on a short sentence whose summed
        probabilities are multiples of 0.25, so that optima often tie exactly."""
        return [c.with_probs((s, rng.choice((0.25, 0.5, 0.75, 1.0))) for s in c.votes)
                for c in random_candidates(rng, n, n_predicates=3, n_tokens=10)]

    @staticmethod
    def _quarter_rules(rng, cids):
        modes = {cid: rng.choice(["off", "hard", "soft"]) for cid in cids}
        return ConstraintSet(**{cid: soft(rng.choice((0.25, 0.5, 1.0))) if mode == "soft"
                                else ConstraintRule(mode) for cid, mode in modes.items()})

    @pytest.mark.parametrize("scope", ["pred", "sentence"])
    def test_matches_tie_rule_oracle(self, scope):
        rng = random.Random(29 if scope == "pred" else 31)
        cids = ("c1", "c2", "c3", "c4") + (("c5", "c6") if scope == "sentence" else ())
        tied = 0
        for trial in range(150):
            cands = self._quarter_pool(rng, rng.randint(1, 11))
            bias = rng.choice((0.25, 0.5, 1.0))
            cfg = CsConfig(bias=bias, scope=Scope(scope), constraints=self._quarter_rules(rng, cids))
            sol, _ = solve_with_stats(cands, cfg, 0)
            want, chosen, optima = tie_rule_best(cands, [c.prob_sum() - bias for c in cands],
                                                 cfg.constraints, bias * len(cands))
            assert abs(sol.objective - want) < 1e-9, f"trial {trial}"
            assert set(sol.selected) == chosen, f"trial {trial}"
            tied += optima > 1
        assert tied >= 40


class TestRuleCosts:
    def test_alternating_sets_keep_their_own_costs(self):
        """decode reads each set's rule costs from the set itself: calls that
        alternate between two sets differing only in the c5 penalty each
        match the oracle under their own set, and the optima differ often
        enough that a stale or shared cost table would fail."""
        cheap = ConstraintSet.parse("1+2+5:soft=0.05")
        dear = replace(cheap, c5=soft(0.9))
        assert (cheap.broken_costs[("c5",)], dear.broken_costs[("c5",)]) == (0.05, 0.9)
        rng = random.Random(41)
        differ = 0
        for trial in range(80):
            cands = random_candidates(rng, rng.randint(2, 10), n_predicates=3, n_tokens=12)
            margins = [c.prob_sum() - 0.3 for c in cands]
            chosen = []
            for cs in (cheap, dear, cheap):
                sol, _ = decode(cands, margins, cs, 0)
                want, best = tie_rule_best(cands, margins, cs)[:2]
                assert abs(sol.objective - want) < 1e-9, f"trial {trial}"
                assert set(sol.selected) == best, f"trial {trial}"
                chosen.append(set(sol.selected))
            differ += chosen[0] != chosen[1]
        assert differ >= 10


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
            sol, _ = solve_with_stats(cands, cfg, sent.sentence_id)
            assert abs(sol.objective - (optimum + cfg.bias * len(cands))) < 1e-6, \
                sent.sentence_id

    def test_matches_milp_on_hard_50_pools(self):
        # 15-202 candidates per sentence, up to 128 with a positive margin; a
        # budget hit raises InferenceTimeout and fails the test
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+5+6"),
                       node_budget=2_000_000)
        sentences = pool_sentences(50, 3, HARD_50)
        assert max(len(sent.candidates) for sent in sentences) > 150
        for sent in sentences:
            cands = sent.candidates
            sol, _ = solve_with_stats(cands, cfg, sent.sentence_id)
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
        for sent in pool_sentences(30, 11, SEARCH_HARD):
            cands = _with_dependents(sent.candidates, rng, 0.25)
            dependents += sum(c.label.kind in (LabelKind.REFERENCE, LabelKind.CONTINUATION)
                              for c in cands)
            sol, _ = solve_with_stats(cands, cfg, sent.sentence_id)
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
                    for sent in pool_sentences(30, 11, SEARCH_HARD))
        assert nodes <= 1985

    def test_pair_count_on_search_hard_pools(self, monkeypatch):
        # asking pair_rules about all n(n-1)/2 kept pairs took 7 604 calls on
        # these 30 sentences; only the 688 overlapping or same-core pairs can
        # break a rule, and only they are asked about
        calls = 0

        def counted(a, b):
            nonlocal calls
            calls += 1
            return pair_rules(a, b)

        monkeypatch.setattr("srlcomb.model.pair_rules", counted)
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+5+6"))
        enumerated = 0
        for sent in pool_sentences(30, 11, SEARCH_HARD):
            solve_with_stats(sent.candidates, cfg, sent.sentence_id)
            kept = [c for c in sent.candidates if c.prob_sum() - cfg.bias > 0.0]
            enumerated += len(reference_decode.overlap_or_core_pairs(kept))
        assert calls == enumerated <= 860

    def test_no_label_kind_test_without_c3_c4(self, monkeypatch):
        # scanning every kept candidate's label kind for c3/c4 dependents
        # hashed a LabelKind 626 times here, with no c3/c4 rule active
        hashes = 0
        kind_hash = LabelKind.__hash__

        def counted(kind):
            nonlocal hashes
            hashes += 1
            return kind_hash(kind)

        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+5+6"))
        sentences = pool_sentences(30, 11, SEARCH_HARD)
        monkeypatch.setattr(LabelKind, "__hash__", counted)
        for sent in sentences:
            solve_with_stats(sent.candidates, cfg, sent.sentence_id)
        assert hashes == 0

    def test_node_count_on_hard_50_pools(self):
        # one search over the whole sentence took 38 484 nodes here, 7 835 on
        # one sentence; a search per conflict component takes 19 081
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+5+6"))
        nodes = sum(solve_with_stats(sent.candidates, cfg, sent.sentence_id)[1]
                    for sent in pool_sentences(50, 3, HARD_50))
        assert nodes <= 25_000

    def test_node_count_with_soft_dependents(self):
        # a soft c3/c4 priced only at the leaf took 512 006 nodes here, 427 477
        # on one sentence; charged as soon as its bases are gone, 1 298
        rng = random.Random(0)
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+3:soft=0.3+4:soft=0.5+5+6"),
                       node_budget=2_000_000)
        nodes = sum(solve_with_stats(_with_dependents(sent.candidates, rng, 0.25), cfg,
                                     sent.sentence_id)[1]
                    for sent in pool_sentences(30, 11, SEARCH_HARD))
        assert nodes <= 2600


def _same_as_reference(cands, margins, cs, sentence_id, bias) -> int:
    """Decode with ``decode`` and the reference decoder, in full and under
    budgets that cut the search short, and check that both select the same
    candidates with ``==`` objectives and node counts, or time out with the
    same best-so-far; returns the nodes of the full search."""
    got = decode(cands, margins, cs, sentence_id, bias)
    want = reference_decode.decode(cands, margins, cs, sentence_id, bias)
    assert got == want, sentence_id
    nodes = want[1]
    for budget in sorted({1, 2, nodes // 3, nodes // 2, nodes - 1} & set(range(1, nodes))):
        with pytest.raises(InferenceTimeout) as cut:
            decode(cands, margins, cs, sentence_id, bias, budget)
        with pytest.raises(InferenceTimeout) as ref_cut:
            reference_decode.decode(cands, margins, cs, sentence_id, bias, budget)
        assert cut.value.best == ref_cut.value.best, (sentence_id, budget)
    return nodes


class TestMatchesReference:
    """``decode`` against the decoder it replaced, kept verbatim in
    tests/reference_decode.py: the same selections, objectives, node counts
    and timeout best-so-far, bit for bit, with margins from the same sums."""

    @staticmethod
    def _check_pools(sentences, cfg) -> int:
        nodes = 0
        for cands, sid in sentences:
            margins = [reference_decode.prob_sum(c) - cfg.bias for c in cands]
            assert [c.prob_sum() - cfg.bias for c in cands] == margins
            assert solve_with_stats(cands, cfg, sid) == reference_decode.decode(
                cands, margins, cfg.constraints, sid, cfg.bias)
            nodes += _same_as_reference(cands, margins, cfg.constraints, sid, cfg.bias)
        return nodes

    def test_search_hard(self):
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+5+6"))
        sentences = [(s.candidates, s.sentence_id) for s in pool_sentences(30, 11, SEARCH_HARD)]
        assert self._check_pools(sentences, cfg) > 500

    def test_hard_50(self):
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+5+6"))
        sentences = [(s.candidates, s.sentence_id) for s in pool_sentences(50, 3, HARD_50)]
        assert self._check_pools(sentences, cfg) > 10_000

    def test_soft_dependents(self):
        rng = random.Random(0)
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse("1+2+3:soft=0.3+4:soft=0.5+5+6"))
        sentences = [(_with_dependents(s.candidates, rng, 0.25), s.sentence_id)
                     for s in pool_sentences(30, 11, SEARCH_HARD)]
        assert self._check_pools(sentences, cfg) > 500

    @pytest.mark.parametrize("rules", ["1+2:soft=0.3+5:soft=0.2+6:soft=0.1",
                                       "1:soft=0.4+2:soft=0.2+5+6:soft=0.05"])
    def test_soft_pairwise_rules(self, rules):
        # decode makes its soft penalty table only once a pair is priced softly
        cfg = CsConfig(bias=0.3, constraints=ConstraintSet.parse(rules))
        sentences = [(s.candidates, s.sentence_id) for s in pool_sentences(30, 11, SEARCH_HARD)]
        assert self._check_pools(sentences, cfg) > 500

    @pytest.mark.parametrize("seed", [1, 2])
    def test_default_pools_at_pred_scope(self, seed):
        cfg = CsConfig.for_scope(Scope.PRED_BY_PRED)
        sentences = [(s.candidates, s.sentence_id) for s in pool_sentences(100, seed, {})]
        assert self._check_pools(sentences, cfg) > 0

    def test_equal_margins_out_of_key_order(self):
        # margins drawn from a few values, so that most of a pool ties, on
        # candidates shuffled out of key order, under random rule sets
        rng = random.Random(27)
        ties = 0
        for trial in range(150):
            cands = random_candidates(rng, rng.randint(0, 18), n_predicates=3, n_tokens=12)
            rng.shuffle(cands)
            margins = [rng.choice((-0.2, -0.0, 0.0, 0.25, 0.5, 0.5, 0.75)) for _ in cands]
            ties += len(margins) - len(set(margins))
            _same_as_reference(cands, margins, random_constraints(rng), trial,
                               rng.choice((0.0, 0.3)))
        assert ties > 500


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
            sol, _ = solve_with_stats(cands, _cfg(ConstraintSet.hard_rules(1, 2), bias=o), 0)
            got = {c.key for c in sol.selected}
            want = {c.key for c, v in zip(cands, values) if v > o}
            assert got == want, f"O={o}"
            if prev_keys is not None:
                assert got <= prev_keys
            prev_keys = got

    def test_tie_at_bias_not_selected(self):
        c = cand(probs={"M1": 0.3})
        sol, _ = solve_with_stats([c], _cfg(ConstraintSet.hard_rules(1, 2), bias=0.3), 0)
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
            a, _ = solve_with_stats(
                cands, CsConfig(bias=0.3, scope=Scope.PRED_BY_PRED, constraints=cs), 0)
            b, _ = solve_with_stats(
                cands, CsConfig(bias=0.3, scope=Scope.FULL_SENTENCE, constraints=cs), 0)
            assert abs(a.objective - b.objective) < 1e-9

    def test_pred_scope_decodes_as_sentence_scope(self):
        # under c1-c4 no rule links two predicates, so both scopes search the
        # same components and visit the same nodes
        cs = ConstraintSet.hard_rules(1, 2)
        pred = CsConfig(bias=0.3, scope=Scope.PRED_BY_PRED, constraints=cs)
        sentence = CsConfig(bias=0.3, scope=Scope.FULL_SENTENCE, constraints=cs)
        searched = 0
        for sent in pool_sentences(30, 11, SEARCH_HARD):
            a, a_nodes = solve_with_stats(sent.candidates, pred, sent.sentence_id)
            b, b_nodes = solve_with_stats(sent.candidates, sentence, sent.sentence_id)
            assert a.selected == b.selected and a_nodes == b_nodes, sent.sentence_id
            searched += len({c.predicate for c in sent.candidates}) > 1 and a_nodes > 0
        assert searched >= 10

    def test_defaults(self):
        assert CsConfig().bias == 0.30
        assert CsConfig().constraints == ConstraintSet.parse("1+2+5+6")
        assert CsConfig.for_scope(Scope.PRED_BY_PRED).constraints == ConstraintSet.parse("1+2")


class TestTimeout:
    def test_budget_carries_best_so_far(self):
        rng = random.Random(1)
        cands = random_candidates(rng, 14)
        with pytest.raises(InferenceTimeout) as err:
            solve_with_stats(cands, CsConfig(bias=0.3, node_budget=3,
                                             constraints=ConstraintSet.hard_rules(1, 2, 5, 6)), 0)
        assert err.value.best is not None

    @staticmethod
    def _three_predicates():
        cands = random_candidates(random.Random(5), 16, n_predicates=3)
        full = CsConfig.for_scope(Scope.PRED_BY_PRED, bias=0.0)
        per_pred = [solve_with_stats([c for c in cands if c.predicate == p], full, 0)
                    for p in range(3)]
        return cands, per_pred

    def test_budget_covers_the_whole_sentence(self):
        cands, per_pred = self._three_predicates()
        nodes = [n for _, n in per_pred]
        assert max(nodes) < sum(nodes)
        # every predicate fits the budget on its own, but not all of them
        with pytest.raises(InferenceTimeout):
            solve_with_stats(cands, CsConfig.for_scope(Scope.PRED_BY_PRED, bias=0.0,
                                                       node_budget=max(nodes)), 0)
        sol, visited = solve_with_stats(
            cands, CsConfig.for_scope(Scope.PRED_BY_PRED, bias=0.0, node_budget=sum(nodes)), 0)
        assert visited == sum(nodes)
        assert set(sol.selected) == {c for s, _ in per_pred for c in s.selected}

    @staticmethod
    def _components(cands, cs):
        """The candidates joined by the active pair rules of ``cs``, as the
        oracle reads them, in the order of each part's best (margin, key)
        member."""
        part = {c: frozenset([c]) for c in cands}
        for i, a in enumerate(cands):
            for b in cands[:i]:
                if part[a] != part[b] and any(cs.rule(cid).active
                                              for cid in broken_rules(a, b)):
                    merged = part[a] | part[b]
                    part.update((c, merged) for c in merged)
        parts = []
        for c in sorted(cands, key=lambda c: (-c.prob_sum(), c.key)):
            if part[c] not in parts:
                parts.append(part[c])
        return parts

    def test_timeout_best_merges_searched_components(self):
        cs = ConstraintSet.hard_rules(1, 2)
        cands = random_candidates(random.Random(1), 16, n_predicates=3)
        parts = self._components(cands, cs)
        lone = {c for p in parts if len(p) == 1 for c in p}
        searched = [list(p) for p in parts if len(p) > 1]
        assert len(lone) >= 1 and len(searched) >= 4
        cfg = CsConfig(bias=0.0, scope=Scope.PRED_BY_PRED, constraints=cs)
        alone = [solve_with_stats(p, cfg, 0) for p in searched]
        nodes = [n for _, n in alone]
        assert min(nodes) > 1
        # one node short of finishing the second searched component
        with pytest.raises(InferenceTimeout) as cut:
            solve_with_stats(searched[1], replace(cfg, node_budget=nodes[1] - 1), 0)
        partial = set(cut.value.best.selected)
        assert partial
        with pytest.raises(InferenceTimeout) as err:
            solve_with_stats(cands, replace(cfg, node_budget=nodes[0] + nodes[1] - 1),
                             sentence_id=3)
        best = err.value.best
        assert best.sentence_id == 3
        # lone candidates are taken without search, the first component in
        # full, the cut one as far as it got, and the later ones not at all
        assert set(best.selected) == lone | set(alone[0][0].selected) | partial
        assert not set(best.selected) & {c for p in searched[2:] for c in p}
        assert abs(best.objective - sum(c.prob_sum() for c in best.selected)) < 1e-9


class TestNoCycles:
    def test_decoding_leaves_no_cyclic_garbage(self):
        """Each decode frees its own search state by reference counting, on
        a timeout too, so nothing is left for the cyclic collector."""
        cfg = CsConfig(bias=0.3)
        sentences = pool_sentences(20, 1, SEARCH_HARD)
        searched = [s for s in sentences
                    if solve_with_stats(s.candidates, cfg, s.sentence_id)[1] > 1]
        assert len(searched) >= 10
        budget = replace(cfg, node_budget=1)
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for s in sentences:
                solve_with_stats(s.candidates, cfg, s.sentence_id)
            assert gc.collect() == 0
            timeouts = 0
            for s in searched:
                try:
                    solve_with_stats(s.candidates, budget, s.sentence_id)
                except InferenceTimeout:
                    timeouts += 1
            assert timeouts == len(searched)
            assert gc.collect() == 0
        finally:
            if enabled:
                gc.enable()


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

    def test_recall_monotone_over_ascending_bias(self, pool):
        """Recall falls as O grows on this pool, in whatever order the grid
        gives O; the rows keep the grid's order."""
        p, gold = pool
        result = sweep_bias(p, gold, CsConfig(), o_values=[0.9, 0.1, 0.9])
        assert [r.bias for r in result.rows] == [0.9, 0.1, 0.9]
        assert result.rows[1].recall > result.rows[0].recall
        assert result.recall_monotone

    def test_probabilities_summed_once(self, pool, monkeypatch):
        """The sweep sums each candidate's probabilities once, not once per
        bias value: 21 times each on the default grid."""
        p, gold = pool
        want = sweep_bias(p, gold, CsConfig()).csv()
        calls = 0
        prob_sum = Candidate.prob_sum

        def counted(c):
            nonlocal calls
            calls += 1
            return prob_sum(c)

        monkeypatch.setattr(Candidate, "prob_sum", counted)
        assert sweep_bias(p, gold, CsConfig()).csv() == want
        assert calls == sum(len(s.candidates) for s in p.sentences)


class TestValidatorIntegration:
    def test_corpus_outputs_validate(self):
        gold, systems = generate_synthetic(SyntheticConfig(n_sentences=25, seed=17))
        pool = attach_probs(align_gold(build_pool(
            [(f"M{i+1}", d, t) for i, (d, t) in enumerate(systems)]), gold))
        cfg = CsConfig()
        assert_feasible([sol for sol, _ in infer_corpus(pool, cfg)], pool, cfg.constraints)
