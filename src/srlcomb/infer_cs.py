"""Exact constraint-satisfaction inference.

Maximizes sum_i [s_i*l_i + O*(1-l_i)] minus the cost of every broken rule
over 0/1 selections, where s_i is the candidate's summed probability and O
is a uniform bias credited for every unselected candidate.  A rule costs
nothing when off, its penalty when soft and ``inf`` when hard, as in the
ILP form of Punyakanok, Roth & Yih (CL 2008).  Depth-first branch and bound
searches the candidates whose margin s_i - O is positive, plus the bases
their R-/C- arguments may need, and charges a soft c3/c4 as soon as it is
certain.  A node's bound is its gain plus, for each clique of a fixed cover
of the hard-conflict graph, the best margin still available in that clique;
there is no external ILP dependency.

``decode`` is the one exact decoder of both engines: this engine decodes
summed probabilities against the bias, the learning-based engine
(``infer_dp``) its scorers' confidences.  It searches each component of the
conflict graph alone, so a scope only chooses the rules.  Its setup makes
one sweep over the spans in start order, which asks ``pair_rules`` only
about the overlapping or same-core pairs, and prices each broken pair by
one lookup.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Optional, Sequence

from .evaluate import score
from .model import Candidate, ConstraintSet, Solution, broken_pairs, licenses
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


def _bits(mask: int):
    """The indices of the set bits of ``mask``, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def _by_margin(indices: list[int], margins: Sequence[float],
               candidates: Sequence[Candidate]) -> list[int]:
    """``indices`` sorted in place in (-margin, key) order: by margin, then
    by key within each run of equal margins."""
    indices.sort(key=margins.__getitem__, reverse=True)
    first = 0       # where the current run of equal margins starts
    for p in range(1, len(indices) + 1):
        if p == len(indices) or margins[indices[p]] != margins[indices[first]]:
            if p - first > 1:
                indices[first:p] = sorted(indices[first:p], key=lambda i: candidates[i].key)
            first = p
    return indices


def decode(candidates: Sequence[Candidate], margins: Sequence[float], cs: ConstraintSet,
           sentence_id: int, bias: float = 0.0,
           node_budget: Optional[int] = None) -> tuple[Solution, int]:
    """The one exact decoder: maximize bias * len(candidates) plus the
    selected margins less the cost of every broken rule; returns (solution,
    nodes visited).  Only the candidates with a positive margin, and those
    that could license one of them under an active c3/c4 rule, can raise the
    objective; only they are sorted, in (-margin, key) order.  A margin that
    is not finite, or a margin count other than the candidate count, is a
    ValueError.

    ``broken_pairs`` names the pairs that break a pairwise rule, with the
    rules ``pair_rules`` finds, and each pair's cost is one lookup of that
    rule tuple in ``cs.broken_costs``.  Two candidates are linked when
    their pair costs or one is a c3/c4 base of the other.  No cost crosses
    a connected component of the links, and the tie rule (fewest
    candidates, then the least sorted signature) ranks unions of disjoint
    parts part by part, so each component is searched alone, in the order
    of its first member.  A lone candidate that is no dependent is taken
    without search when its margin is above ``_EPS``, as the tie rule says.
    ``node_budget`` bounds the nodes of all components together; the
    timeout's best-so-far holds the lone candidates taken, the components
    searched in full and the best leaf of the current one.

    A node carries the bitmask of candidates still available and branches on
    the first of them, selecting it first.  Selecting a candidate drops those
    whose pair with it costs ``inf`` and charges the finite pair costs.  A
    c3/c4 dependent whose bases are all gone is settled at once: selected,
    it ends the branch if its cost is ``inf`` and is charged it otherwise;
    available, it drops out if its margin is at most its cost, as taking it
    could only lose or tie with more candidates.  A dependent is never a
    base, so dropping one loses no leaf, and no leaf breaks a hard rule.

    The bound is the clique-cover bound (Ostergard, Nordic J. Computing 2001)
    over a greedy partition of a component's positive members into cliques of
    the hard-conflict graph: a selection takes at most one more member of each
    clique, worth at most the margin of its first member still available.
    Only subtrees strictly worse than the best leaf are pruned, so every
    optimal leaf meets the tie rule.  The search closure refers to itself
    and is deleted on the way out, so no cycle is left for the collector.
    """
    if len(margins) != len(candidates):
        raise ValueError(f"{len(margins)} margins for {len(candidates)} candidates")
    if not all(map(math.isfinite, margins)):
        raise ValueError("margins must be finite")
    kept = _by_margin([i for i, m in enumerate(margins) if m > 0.0], margins, candidates)
    # the costs of the active existential rules: R-X needs X; C-X an earlier X
    existential = cs.existential_costs
    if existential:
        dependents = [candidates[i].argument for i in kept
                      if candidates[i].label.kind in existential]
        kept += _by_margin([i for i, m in enumerate(margins) if m <= 0.0 and any(
            licenses(candidates[i].argument, d) for d in dependents)], margins, candidates)
    cands = [candidates[i] for i in kept]
    args = [c.argument for c in cands]      # the rules read only the argument
    gains = [margins[i] for i in kept]
    n = len(cands)

    broken_cost = cs.broken_costs
    hard_mask = [0] * n
    soft_pen: Optional[list[dict]] = None     # made at the first pair priced softly
    # i and j are linked when their pair costs or one is a c3/c4 base of the
    # other; a dependent also links to itself, so that it is never lone
    links = [0] * n
    # in ascending (i, j) order, so each soft_pen[i] holds its j < i in index
    # order: the search selects in that order and adds up penalties in it
    for i, j, rules in broken_pairs(args):
        pen = broken_cost[rules]
        if pen == math.inf:
            hard_mask[i] |= 1 << j
            hard_mask[j] |= 1 << i
        elif pen > 0.0:
            if soft_pen is None:
                soft_pen = [{} for _ in range(n)]
            soft_pen[i][j] = pen
        else:
            continue
        links[i] |= 1 << j
        links[j] |= 1 << i

    # (bit, bases, margin, cost) of each c3/c4 dependent, checked at every node;
    # without an active c3/c4 rule there is none, and no label is tested
    deps: list[tuple] = []
    if existential:
        deps = [(1 << i, sum(1 << j for j, o in enumerate(args) if licenses(o, a)),
                 gains[i], existential[a.label.kind])
                for i, a in enumerate(args) if a.label.kind in existential]
    for bit, bases, _margin, _cost in deps:
        links[bit.bit_length() - 1] |= bases | bit
        for j in _bits(bases):
            links[j] |= bit

    best_gain, best_mask, best_size, best_sig = float("-inf"), 0, 0, None
    nodes = 0

    def leaf(mask: int, gain: float, size: int) -> None:
        nonlocal best_gain, best_mask, best_size, best_sig
        if gain > best_gain + _EPS:
            sig = None
        elif gain < best_gain - _EPS or size > best_size:
            return
        elif size == best_size:
            sig = _tie_signature([cands[i] for i in _bits(mask)])
            if best_sig is None:
                best_sig = _tie_signature([cands[i] for i in _bits(best_mask)])
            if sig >= best_sig:
                return
        else:
            sig = None
        best_gain, best_mask, best_size, best_sig = gain, mask, size, sig

    def dfs(avail: int, mask: int, gain: float, size: int) -> None:
        nonlocal nodes
        nodes += 1
        if node_budget is not None and nodes > node_budget:
            found = best_gain if best_gain > float("-inf") else 0.0
            raise InferenceTimeout(f"node budget {node_budget} exhausted", Solution.make(
                sentence_id, selected + [cands[i] for i in _bits(chosen | best_mask)],
                objective + found))
        net = gain      # the gain less the dependents already certain to cost
        for bit, bases, margin, cost in comp_deps:
            if not bases & (mask | avail):
                if mask & bit:
                    if cost == math.inf:
                        return
                    net -= cost
                elif margin <= cost:
                    avail &= ~bit
        floor = best_gain - _EPS
        if net < floor:     # prune unless the cliques can make up the gap
            bound = net
            for q in comp_cliques:
                q &= avail
                if q:
                    bound += gains[(q & -q).bit_length() - 1]
                    if bound >= floor:
                        break
            else:
                return
        if not avail:
            leaf(mask, net, size)
            return
        bit = avail & -avail
        i = bit.bit_length() - 1
        avail ^= bit
        pen = (sum(p for j, p in soft_pen[i].items() if mask >> j & 1)
               if soft_pen and soft_pen[i] else 0.0)
        dfs(avail & ~hard_mask[i], mask | bit, gain + gains[i] - pen, size + 1)
        dfs(avail, mask, gain, size)

    # a lone candidate needs no search; the others are searched by component
    lone = [i for i in range(n) if not links[i] and gains[i] > _EPS]
    selected: list[Candidate] = [cands[i] for i in lone]
    objective = sum((gains[i] for i in lone), bias * len(candidates))
    chosen = seen = 0   # the best leaves and the members of the components searched
    try:
        for i in range(n):
            if seen >> i & 1 or not links[i]:
                continue
            comp, todo = 0, 1 << i
            while todo:     # flood the links from i, the component's first member
                low = todo & -todo
                comp |= low
                todo = (todo | links[low.bit_length() - 1]) & ~comp
            seen |= comp
            comp_deps = [d for d in deps if d[0] & comp]
            # a greedy clique partition of the positive members; they are in
            # margin order, so a clique's lowest available bit is its best
            comp_cliques: list[int] = []
            for j in _bits(comp):
                if gains[j] <= 0.0:
                    break
                for k, q in enumerate(comp_cliques):
                    if hard_mask[j] & q == q:
                        comp_cliques[k] = q | 1 << j
                        break
                else:
                    comp_cliques.append(1 << j)
            best_gain, best_mask, best_size, best_sig = float("-inf"), 0, 0, None
            dfs(comp, 0, 0.0, 0)
            chosen |= best_mask
            objective += best_gain
    finally:
        del dfs
    selected += [cands[i] for i in _bits(chosen)]
    return Solution.make(sentence_id, selected, objective), nodes


def solve_with_stats(candidates: Sequence[Candidate], cfg: CsConfig,
                     sentence_id: int) -> tuple[Solution, int]:
    """The candidate subset maximizing sum(s_i) over selected plus O per
    unselected candidate minus soft penalties, and the search nodes visited."""
    return decode(candidates, [c.prob_sum() - cfg.bias for c in candidates],
                  cfg.constraints, sentence_id, cfg.bias, cfg.node_budget)


def infer_corpus(pool: CandidatePool, cfg: CsConfig) -> list[tuple[Solution, int]]:
    """(solution, nodes visited) of every sentence, decoded one by one."""
    return [solve_with_stats(sent.candidates, cfg, sent.sentence_id) for sent in pool.sentences]


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
    recall_monotone: bool   # recall never increased as the bias grew, in ascending O

    def csv(self) -> str:
        lines = ["O,precision,recall,f1"]
        for r in self.rows:
            lines.append(f"{r.bias:g},{r.precision:.4f},{r.recall:.4f},{r.f1:.4f}")
        return "\n".join(lines) + "\n"


def sweep_bias(pool: CandidatePool, gold, cfg: CsConfig,
               o_values: Sequence[float] = DEFAULT_O_GRID) -> SweepResult:
    """Score one full inference run per bias value; the precision/recall
    tradeoff harness.  Each run decodes the margins ``solve_with_stats``
    would at that bias, from probability sums taken once per candidate."""
    sums = [[c.prob_sum() for c in sent.candidates] for sent in pool.sentences]
    rows = []
    for o in o_values:
        solutions = [decode(sent.candidates, [s - o for s in sent_sums], cfg.constraints,
                            sent.sentence_id, o, cfg.node_budget)[0]
                     for sent, sent_sums in zip(pool.sentences, sums)]
        report = score(solutions_to_props(pool, solutions), gold)
        rows.append(SweepRow(o, report.precision, report.recall, report.f1))
    ascending = sorted(rows, key=lambda r: r.bias)
    return SweepResult(tuple(rows), all(b.recall <= a.recall + 1e-9
                                        for a, b in zip(ascending, ascending[1:])))
