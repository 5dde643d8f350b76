"""The exact decoder as it was before its setup was rewritten, kept verbatim
as the reference that tests/test_infer_cs.py compares srlcomb.infer_cs.decode
against: on every pool both must select the same candidates with ``==``
objectives and node counts, and time out with the same best-so-far.

Copied with its helpers: the tie signature, the bit iterator, the
overlap-or-core pair sweep, and the probability sum behind the margins.  It
reads the rules through srlcomb's ``pair_rules`` and ``licenses``, prices
each one by ``ConstraintSet.rule(cid).cost``, and raises srlcomb's
``InferenceTimeout``.
"""

from __future__ import annotations

import math
from typing import Optional, Sequence

from srlcomb.infer_cs import InferenceTimeout
from srlcomb.model import (Argument, Candidate, ConstraintSet, LabelKind, Solution, licenses,
                           pair_rules)

_EPS = 1e-12


def prob_sum(c: Candidate) -> float:
    return sum([v for _, v in c.probs])


def overlap_or_core_pairs(items: Sequence[Candidate | Argument]) -> list[tuple[int, int]]:
    """Every (i, j) with i > j, in ascending order, whose pair may break a
    rule of ``pair_rules``: the pairs whose spans overlap, since c1, c5 and
    c6 all need an overlap, and the pairs of one predicate with the same
    core label, which c2 needs.  Every other pair breaks none, so a caller
    that asks ``pair_rules`` only about these pairs misses no broken rule.

    A sweep over the spans in start order pairs each span with the later
    starts up to its end, which are exactly the spans that overlap it."""
    spans = [a.span for a in items]
    order = sorted(range(len(items)), key=lambda k: spans[k].start)
    pairs = []
    cores: dict = {}    # (predicate, core label) -> its indices in start order
    for p, i in enumerate(order):
        end = spans[i].end
        for j in order[p + 1:]:
            if spans[j].start > end:
                break
            pairs.append((i, j) if i > j else (j, i))
        a = items[i]
        if a.label.kind is LabelKind.CORE:
            same = cores.setdefault((a.predicate, a.label.text), [])
            start = spans[i].start
            for j in same:      # the overlapping ones are paired already
                if spans[j].end < start:
                    pairs.append((i, j) if i > j else (j, i))
            same.append(i)
    pairs.sort()
    return pairs


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


def decode(candidates: Sequence[Candidate], margins: Sequence[float], cs: ConstraintSet,
           sentence_id: int, bias: float = 0.0,
           node_budget: Optional[int] = None) -> tuple[Solution, int]:
    """The one exact decoder: maximize bias * len(candidates) plus the
    selected margins less the cost of every broken rule; returns (solution,
    nodes visited).  Only the candidates with a positive margin, and those
    that could license one of them under an active c3/c4 rule, can raise the
    objective; only they are sorted, in (-margin, key) order.  A margin that
    is not finite is a ValueError.

    Only a pair that overlaps, or that shares a predicate and a core label,
    can break a pairwise rule, so only the pairs ``overlap_or_core_pairs``
    yields are priced, by ``pair_rules``.  Two candidates are linked when
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
    over a greedy partition of the positive candidates into cliques of the
    hard-conflict graph: a selection takes at most one more member of each
    clique, worth at most the margin of its first member still available.
    Only subtrees strictly worse than the best leaf are pruned, so every
    optimal leaf meets the tie rule.  The search closure refers to itself
    and is deleted on the way out, so no cycle is left for the collector.
    """
    if not all(map(math.isfinite, margins)):
        raise ValueError("margins must be finite")
    def rank(i: int) -> tuple:
        return -margins[i], candidates[i].key

    everyone = range(len(candidates))
    kept = sorted((i for i in everyone if margins[i] > 0.0), key=rank)
    # the costs of the active existential rules: R-X needs X; C-X an earlier X
    existential = cs.existential_costs
    if existential:
        dependents = [candidates[i].argument for i in kept
                      if candidates[i].label.kind in existential]
        kept += sorted((i for i in everyone if margins[i] <= 0.0
                        and any(licenses(candidates[i].argument, d) for d in dependents)),
                       key=rank)
    cands = [candidates[i] for i in kept]
    args = [c.argument for c in cands]      # the rules read only the argument
    gains = [margins[i] for i in kept]
    n = len(cands)

    pair_cost = {cid: cs.rule(cid).cost for cid in ("c1", "c2", "c5", "c6")}
    hard_mask = [0] * n
    soft_pen: list[dict] = [dict() for _ in range(n)]
    # i and j are linked when their pair costs or one is a c3/c4 base of the
    # other; a dependent also links to itself, so that it is never lone
    links = [0] * n
    # in ascending (i, j) order, so each soft_pen[i] holds its j in index
    # order, the order in which the search adds up a node's penalties
    for i, j in overlap_or_core_pairs(args):
        broken = pair_rules(args[i], args[j])
        if not broken:
            continue
        pen = 0.0
        for cid in broken:
            pen += pair_cost[cid]
        if pen == math.inf:
            hard_mask[i] |= 1 << j
            hard_mask[j] |= 1 << i
        elif pen > 0.0:
            soft_pen[i][j] = soft_pen[j][i] = pen
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

    # a static greedy clique partition of the positive candidates; members
    # are in margin order, so a clique's lowest available bit is its best
    worth = {1 << i: g for i, g in enumerate(gains) if g > 0.0}
    cliques: list[int] = []
    for i in range(n):
        if gains[i] <= 0.0:
            break
        for k, q in enumerate(cliques):
            if hard_mask[i] & q == q:
                cliques[k] = q | 1 << i
                break
        else:
            cliques.append(1 << i)

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
                sentence_id, selected + [cands[i] for i in _bits(best_mask)], objective + found))
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
                    bound += worth[q & -q]
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
        pen = sum(p for j, p in soft_pen[i].items() if mask >> j & 1) if soft_pen[i] else 0.0
        dfs(avail & ~hard_mask[i], mask | bit, gain + gains[i] - pen, size + 1)
        dfs(avail, mask, gain, size)

    # a lone candidate needs no search; the others are searched by component
    lone = [i for i in range(n) if not links[i] and gains[i] > _EPS]
    selected: list[Candidate] = [cands[i] for i in lone]
    objective = sum((gains[i] for i in lone), bias * len(candidates))
    seen = 0
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
            comp_cliques = [q for q in cliques if q & comp]
            best_gain, best_mask, best_size, best_sig = float("-inf"), 0, 0, None
            dfs(comp, 0, 0.0, 0)
            selected += [cands[j] for j in _bits(best_mask)]
            objective += best_gain
    finally:
        del dfs
    return Solution.make(sentence_id, selected, objective), nodes
