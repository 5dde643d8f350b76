"""Exact constraint-satisfaction inference.

Maximizes sum_i [s_i*l_i + O*(1-l_i)] minus soft-constraint penalties over
0/1 selections, where s_i is the candidate's summed probability and O is a
uniform bias credited for every unselected candidate.  Hard constraints are
enforced exactly by depth-first branch and bound with an admissible bound
(current gain plus all remaining positive margins); there is no external ILP
dependency.

``decode`` is the one exact decoder of both engines, at sentence or
predicate scope: this engine decodes summed probabilities against the bias,
the learning-based engine (``infer_dp``) its scorers' confidences.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from typing import Optional, Sequence

from .evaluate import score
from .model import EXISTENTIAL_RULES, Candidate, ConstraintSet, Solution, licenses, pair_rules
from .pool import CandidatePool, solutions_to_props

_EPS = 1e-12


class Scope(Enum):
    PRED_BY_PRED = "pred"
    FULL_SENTENCE = "sentence"


class InferenceTimeout(RuntimeError):
    """Node budget exhausted; carries the best selection found so far."""

    def __init__(self, message: str, best: Optional[Solution] = None):
        super().__init__(message)
        self.best = best
        self.nonoptimal = True


DEFAULT_BIAS = 0.30


def default_constraints(scope: Scope) -> ConstraintSet:
    if scope is Scope.PRED_BY_PRED:
        return ConstraintSet.hard_rules(1, 2)
    return ConstraintSet.hard_rules(1, 2, 5, 6)


@dataclass(frozen=True)
class CsConfig:
    bias: float = DEFAULT_BIAS                     # the uniform O score
    scope: Scope = Scope.FULL_SENTENCE
    constraints: ConstraintSet = field(default_factory=lambda: default_constraints(Scope.FULL_SENTENCE))
    node_budget: Optional[int] = None

    def __post_init__(self) -> None:
        if self.scope is Scope.PRED_BY_PRED:
            if self.constraints.c5.active or self.constraints.c6.active:
                raise ValueError("predicate-by-predicate scope admits only c1..c4")

    @classmethod
    def for_scope(cls, scope: Scope, bias: float = DEFAULT_BIAS,
                  constraints: Optional[ConstraintSet] = None,
                  node_budget: Optional[int] = None) -> "CsConfig":
        return cls(bias=bias, scope=scope,
                   constraints=constraints if constraints is not None else default_constraints(scope),
                   node_budget=node_budget)


def _tie_signature(cands: Sequence[Candidate]) -> tuple:
    """Deterministic preference among equal-objective optima: candidates with
    more votes, earlier spans, then lexicographic labels win."""
    return tuple(sorted(
        (-len(c.votes), c.span.start, c.label.text, c.span.end, c.predicate)
        for c in cands))


def optimize(candidates: Sequence[Candidate], margins: Sequence[float],
             cs: ConstraintSet, constant: float = 0.0,
             node_budget: Optional[int] = None) -> tuple[list[Candidate], float, int]:
    """Maximize constant + sum of selected margins - soft penalties, exactly.

    Returns (selection, objective, nodes visited).  Hard pairwise conflicts
    prune branches immediately; the existential constraints c3/c4 are decided
    at leaves, which keeps the bound admissible.
    """
    order = sorted(range(len(candidates)), key=lambda i: (-margins[i], candidates[i].key))
    cands = [candidates[i] for i in order]
    gains = [margins[i] for i in order]
    n = len(cands)

    hard_mask = [0] * n
    soft_pen: list[dict] = [dict() for _ in range(n)]
    for i in range(n):
        for j in range(i):
            broken = pair_rules(cands[i], cands[j])
            if not broken:
                continue
            pen = 0.0
            hard = False
            for cid in broken:
                rule = cs.rule(cid)
                if rule.mode == "hard":
                    hard = True
                elif rule.mode == "soft":
                    pen += rule.penalty
            if hard:
                hard_mask[i] |= 1 << j
                hard_mask[j] |= 1 << i
            elif pen > 0.0:
                soft_pen[i][j] = soft_pen[i].get(j, 0.0) + pen
                soft_pen[j][i] = soft_pen[j].get(i, 0.0) + pen

    # existential constraints: R-X needs X; C-X needs an earlier-starting X
    leaf_rules = []
    for i, c in enumerate(cands):
        cid = EXISTENTIAL_RULES.get(c.label.kind)
        if cid is not None and cs.rule(cid).active:
            bases = sum(1 << j for j, o in enumerate(cands) if licenses(o, c))
            leaf_rules.append((i, bases, cs.rule(cid)))

    suffix_pos = [0.0] * (n + 1)
    for i in range(n - 1, -1, -1):
        suffix_pos[i] = suffix_pos[i + 1] + (gains[i] if gains[i] > 0.0 else 0.0)

    best = {"gain": float("-inf"), "mask": 0, "size": 0, "sig": None}
    nodes = [0]

    def leaf(mask: int, gain: float, size: int) -> None:
        for i, bases, rule in leaf_rules:
            if mask >> i & 1 and not (mask & bases):
                if rule.mode == "hard":
                    return
                gain -= rule.penalty
        if gain > best["gain"] + _EPS:
            pass
        elif gain >= best["gain"] - _EPS:
            if size > best["size"]:
                return
            if size == best["size"]:
                sig = _tie_signature([cands[i] for i in range(n) if mask >> i & 1])
                if best["sig"] is None:
                    best["sig"] = _tie_signature(
                        [cands[i] for i in range(n) if best["mask"] >> i & 1])
                if sig >= best["sig"]:
                    return
                best.update(gain=gain, mask=mask, size=size, sig=sig)
                return
        else:
            return
        best.update(gain=gain, mask=mask, size=size, sig=None)

    def dfs(idx: int, mask: int, gain: float, size: int) -> None:
        nodes[0] += 1
        if node_budget is not None and nodes[0] > node_budget:
            chosen = [cands[i] for i in range(n) if best["mask"] >> i & 1]
            found = best["gain"] if best["gain"] > float("-inf") else 0.0
            raise InferenceTimeout(
                f"node budget {node_budget} exhausted",
                Solution.make(cands[0].sentence_id if cands else 0, chosen,
                              constant + found))
        if gain + suffix_pos[idx] < best["gain"] - _EPS:
            return
        if idx == n:
            leaf(mask, gain, size)
            return
        if not (hard_mask[idx] & mask):
            pen = sum(p for j, p in soft_pen[idx].items() if mask >> j & 1)
            dfs(idx + 1, mask | (1 << idx), gain + gains[idx] - pen, size + 1)
        dfs(idx + 1, mask, gain, size)

    dfs(0, 0, 0.0, 0)
    chosen = [cands[i] for i in range(n) if best["mask"] >> i & 1]
    return chosen, constant + best["gain"], nodes[0]


def decode(candidates: Sequence[Candidate], margins: Sequence[float],
           cs: ConstraintSet, scope: Scope, sentence_id: int, bias: float = 0.0,
           node_budget: Optional[int] = None) -> tuple[Solution, int]:
    """The one exact decoder, returning (solution, nodes visited): branch and
    bound over the whole sentence, or over each predicate's candidates in
    turn, crediting ``bias`` for every candidate left out.  ``node_budget``
    bounds the nodes of the whole sentence; on a timeout the best-so-far holds
    the predicates already decoded plus the current one's partial selection.
    """
    if scope is Scope.FULL_SENTENCE:
        groups = [range(len(candidates))] if candidates else []
    else:
        groups = [[i for i, c in enumerate(candidates) if c.predicate == p]
                  for p in sorted({c.predicate for c in candidates})]
    selected: list[Candidate] = []
    objective = 0.0
    nodes = 0
    for group in groups:
        left = None if node_budget is None else node_budget - nodes
        try:
            chosen, obj, visited = optimize([candidates[i] for i in group],
                                            [margins[i] for i in group], cs,
                                            bias * len(group), left)
        except InferenceTimeout as exc:
            raise InferenceTimeout(
                f"node budget {node_budget} exhausted",
                Solution.make(sentence_id, selected + list(exc.best.selected),
                              objective + exc.best.objective)) from None
        selected += chosen
        objective += obj
        nodes += visited
    return Solution.make(sentence_id, selected, objective), nodes


def solve_with_stats(candidates: Sequence[Candidate], cfg: CsConfig,
                     sentence_id: Optional[int] = None) -> tuple[Solution, int]:
    """Like solve, but also reports how many search nodes were visited."""
    if sentence_id is None:
        sentence_id = candidates[0].sentence_id if candidates else 0
    return decode(candidates, [c.prob_sum() - cfg.bias for c in candidates],
                  cfg.constraints, cfg.scope, sentence_id, cfg.bias, cfg.node_budget)


def solve(candidates: Sequence[Candidate], cfg: CsConfig,
          sentence_id: Optional[int] = None) -> Solution:
    """Select the candidate subset maximizing the compatibility function.

    The reported objective is sum(s_i) over selected plus O per unselected
    candidate, minus soft penalties.  With no constraint interactions this
    reduces to selecting exactly the candidates with s_i > O (ties excluded).
    """
    return solve_with_stats(candidates, cfg, sentence_id)[0]


def map_sentences(fn, tasks: Sequence[tuple], jobs: int = 1) -> list:
    """``[fn(*task) for task in tasks]``.  Sentences are independent, so
    jobs > 1 fans the work out over processes with deterministic reassembly."""
    if jobs <= 1 or len(tasks) < 2:
        return [fn(*task) for task in tasks]
    import multiprocessing

    with multiprocessing.Pool(jobs) as workers:
        return workers.starmap(fn, tasks, chunksize=max(1, len(tasks) // (jobs * 4)))


def infer_corpus(pool: CandidatePool, cfg: CsConfig, jobs: int = 1) -> list[Solution]:
    """Solve every sentence, over `jobs` processes."""
    return map_sentences(solve, [(sent.candidates, cfg, sent.sentence_id)
                                 for sent in pool.sentences], jobs)


# ---------------------------------------------------------------------------
# Bias sweep


DEFAULT_O_GRID = tuple(round(0.05 * i, 2) for i in range(21))


@dataclass(frozen=True)
class SweepRow:
    bias: float
    precision: float
    recall: float
    f1: float


@dataclass(frozen=True)
class SweepResult:
    rows: tuple[SweepRow, ...]
    recall_monotone: bool   # recall never increased as the bias grew

    def csv(self) -> str:
        lines = ["O,precision,recall,f1"]
        for r in self.rows:
            lines.append(f"{r.bias:g},{r.precision:.4f},{r.recall:.4f},{r.f1:.4f}")
        return "\n".join(lines) + "\n"


def sweep_bias(pool: CandidatePool, gold, cfg: CsConfig,
               o_values: Sequence[float] = DEFAULT_O_GRID) -> SweepResult:
    """Score one full inference run per bias value; the precision/recall
    tradeoff harness."""
    rows = []
    prev_recall = None
    monotone = True
    for o in o_values:
        run_cfg = replace(cfg, bias=o)
        solutions = infer_corpus(pool, run_cfg)
        report = score(solutions_to_props(pool, solutions), gold)
        rows.append(SweepRow(o, report.precision, report.recall, report.f1))
        if prev_recall is not None and report.recall > prev_recall + 1e-9:
            monotone = False
        prev_recall = report.recall
    return SweepResult(tuple(rows), monotone)
