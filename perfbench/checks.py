"""Output checks and counters that share no code with the solvers.

The readers, the constraint checker, the scorer and the conflict graph for
the MILP are written here from the file formats, not imported from srlcomb.
The one check that calls srlcomb compares two of its solvers with each other:
branch and bound at predicate scope against the interval DP.
"""

from __future__ import annotations

import math
import re
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

_CORE = re.compile(r"^A[0-5]$")
_OPEN = re.compile(r"^\(([^()\s*]+)\*(\)?)$")


def read_props(path: str) -> list:
    """Sentences as (n_tokens, predicate positions, per-predicate args), where
    an arg is (label, start, end) and V pseudo-arguments are left out."""
    sentences = []
    for block in Path(path).read_text(encoding="utf-8").split("\n\n"):
        rows = [line.split() for line in block.splitlines() if line.strip()]
        if not rows:
            continue
        positions = [i for i, row in enumerate(rows) if row[0] != "-"]
        args: list = [[] for _ in positions]
        for p in range(len(positions)):
            open_label, open_start = None, -1
            for i, row in enumerate(rows):
                cell = row[p + 1]
                if cell == "*":
                    continue
                if cell == "*)":
                    args[p].append((open_label, open_start, i))
                    open_label = None
                    continue
                m = _OPEN.match(cell)
                if m is None or open_label is not None:
                    raise ValueError(f"{path}: bad bracket cell {cell!r}")
                if m.group(2):
                    args[p].append((m.group(1), i, i))
                else:
                    open_label, open_start = m.group(1), i
            if open_label is not None:
                raise ValueError(f"{path}: argument {open_label} never closed")
        args = [[a for a in pa if a[0] != "V"] for pa in args]
        sentences.append((len(rows), positions, args))
    return sentences


def read_scores(path: str) -> dict:
    table = {}
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.strip():
            s, p, label, start, end, value = line.split()
            table[(int(s), int(p), label, int(start), int(end))] = float(value)
    return table


def read_pool(corpus: dict) -> list:
    """Per sentence: {(pred, label, start, end): {system: raw score or None}}."""
    pools: list = []
    for i, (props, scores) in enumerate(corpus["systems"]):
        table = read_scores(scores)
        for s, (_n, _pos, args) in enumerate(read_props(props)):
            if i == 0:
                pools.append({})
            for p, pa in enumerate(args):
                for label, start, end in pa:
                    pools[s].setdefault((p, label, start, end), {})[i] = \
                        table.get((s, p, label, start, end))
    return pools


def prob_sum(votes: dict, gamma: float) -> float:
    """Sum over voting systems of the two-class softmax against score 0; a
    vote without a score counts 0.5."""
    return sum(0.5 if raw is None else 1.0 / (1.0 + math.exp(-gamma * raw))
               for raw in votes.values())


# ---------------------------------------------------------------------------
# Hard rules


def _shared_label(label: str) -> bool:
    return label.startswith(("AM", "R-AM", "C-"))


def conflict(a: tuple, b: tuple, rules: str) -> str:
    """The hard rule that forbids selecting both (pred, label, start, end)
    tuples, or '' when they are compatible."""
    pa, la, sa, ea = a
    pb, lb, sb, eb = b
    disjoint = ea < sb or eb < sa
    if pa == pb:
        if "1" in rules and not disjoint:
            return "c1"
        if "2" in rules and la == lb and _CORE.match(la):
            return "c2"
        return ""
    nested = (sa <= sb and eb <= ea) or (sb <= sa and ea <= eb)
    if "5" in rules and not disjoint and not nested:
        return "c5"
    if "6" in rules and (sa, ea) == (sb, eb) and la == lb and _shared_label(la):
        return "c6"
    return ""


def structure_errors(predicted: list, gold: list, pools: list, rules: str) -> list:
    """Every emitted argument was proposed by some system, the skeleton is
    gold's, and no two emitted arguments of a sentence break a hard rule."""
    if [s[:2] for s in predicted] != [s[:2] for s in gold]:
        return ["skeleton differs from gold"]
    errors = []
    for s, (_n, _pos, args) in enumerate(predicted):
        chosen = [(p, *a) for p, pa in enumerate(args) for a in pa]
        errors += [f"sentence {s}: {c} was not proposed" for c in chosen if c not in pools[s]]
        for i in range(len(chosen)):
            for j in range(i):
                rule = conflict(chosen[i], chosen[j], rules)
                if rule:
                    errors.append(f"sentence {s}: {rule} between {chosen[i]} and {chosen[j]}")
    return errors


# ---------------------------------------------------------------------------
# Scoring


def _repair(args: list) -> set:
    """Relabel a C-X with no earlier X as X, in span order."""
    seen, out = set(), set()
    for label, start, end in sorted(args, key=lambda a: (a[1], a[2], a[0])):
        if label.startswith("C-") and label[2:] not in seen:
            label = label[2:]
        seen.add(label)
        out.add((label, start, end))
    return out


def match_counts(predicted: list, gold: list) -> tuple[int, int, int]:
    """(correct, predicted, gold) arguments under exact match."""
    correct = n_pred = n_gold = 0
    for (_n, _p, pargs), (_m, _q, gargs) in zip(predicted, gold):
        for pa, ga in zip(pargs, gargs):
            ps, gs = _repair(pa), set(ga)
            correct += len(ps & gs)
            n_pred += len(ps)
            n_gold += len(gs)
    return correct, n_pred, n_gold


def f1_points(correct: int, n_pred: int, n_gold: int) -> float:
    p = 100.0 * correct / n_pred if n_pred else 100.0
    r = 100.0 * correct / n_gold if n_gold else 100.0
    return 2.0 * p * r / (p + r) if p + r else 0.0


# ---------------------------------------------------------------------------
# Exactness


def milp_errors(predicted: list, pools: list, skip: set, gamma: float, bias: float,
                rules: str) -> tuple[list, int]:
    """For every sentence not in `skip`, the emitted selection's objective
    must equal the optimum that scipy's MILP finds on a conflict graph built
    here.  Returns (errors, sentences checked)."""
    from scipy.optimize import Bounds, LinearConstraint, milp

    errors, checked = [], 0
    for s, (_n, _pos, args) in enumerate(predicted):
        if s in skip:
            continue
        margin = {key: prob_sum(votes, gamma) - bias for key, votes in pools[s].items()}
        chosen = [(p, *a) for p, pa in enumerate(args) for a in pa]
        if any(key not in margin for key in chosen):
            continue   # reported by structure_errors
        emitted = sum(margin[key] for key in chosen)
        # a selection never gains from a candidate with margin <= 0
        live = [key for key, m in margin.items() if m > 0.0]
        rows = [(i, j) for i in range(len(live)) for j in range(i)
                if conflict(live[i], live[j], rules)]
        c = np.array([-margin[key] for key in live])
        if rows:
            a = np.zeros((len(rows), len(live)))
            for r, (i, j) in enumerate(rows):
                a[r, i] = a[r, j] = 1.0
            res = milp(c, constraints=LinearConstraint(a, -np.inf, 1.0),
                       integrality=np.ones(len(live)), bounds=Bounds(0.0, 1.0),
                       options={"mip_rel_gap": 1e-12})
            if res.status != 0:
                errors.append(f"sentence {s}: MILP status {res.status}")
                continue
            optimum = -res.fun
        else:
            optimum = float(-c.sum())
        checked += 1
        if abs(optimum - emitted) > 1e-6:
            errors.append(f"sentence {s}: objective {emitted:.9f}, "
                          f"MILP optimum {optimum:.9f}")
    return errors, checked


def pred_scope_errors(corpus: dict, gamma: float, bias: float) -> tuple[list, int]:
    """Branch and bound at predicate scope (c1, c2) and the interval DP must
    reach the same objective on every sentence."""
    from srlcomb.calibrate import attach_probs
    from srlcomb.corpus_io import parse_props, parse_scores
    from srlcomb.infer_cs import CsConfig, Scope, solve_with_stats
    from srlcomb.infer_dp import ScoredCandidate, dp_predicate
    from srlcomb.pool import build_pool

    systems = [(f"M{i}", parse_props(Path(p).read_text(encoding="utf-8")),
                parse_scores(Path(s).read_text(encoding="utf-8")))
               for i, (p, s) in enumerate(corpus["systems"], 1)]
    pool = attach_probs(build_pool(systems), gamma=gamma)
    cfg = CsConfig.for_scope(Scope.PRED_BY_PRED, bias=bias)
    errors = []
    for sent in pool.sentences:
        sol, _nodes = solve_with_stats(sent.candidates, cfg, sent.sentence_id)
        dp = 0.0
        for p in {c.predicate for c in sent.candidates}:
            dp += dp_predicate([ScoredCandidate(c, c.prob_sum() - bias)
                                for c in sent.candidates if c.predicate == p]).objective
        cs = sol.objective - bias * len(sent.candidates)
        if abs(cs - dp) > 1e-9:
            errors.append(f"sentence {sent.sentence_id}: cs {cs:.12f} vs dp {dp:.12f}")
    return errors, len(pool.sentences)


# ---------------------------------------------------------------------------
# Counters


def corpus_counters(corpora: list) -> dict:
    """Input bytes and candidate counts, from the files of (corpus, pools) pairs."""
    files = [f for corpus, _ in corpora
             for f in [corpus["gold"]] + [f for pair in corpus["systems"] for f in pair]]
    sizes = [len(pool) for _, pools in corpora for pool in pools]
    return {"corpus_io.bytes_in": sum(Path(f).stat().st_size for f in files),
            "pool.candidates": sum(sizes),
            "pool.cands_per_sent_max": max(sizes, default=0)}


def model_counts(path: str) -> tuple[int, dict]:
    """(vocabulary size, support vectors per label) of a model file."""
    vocab, supports, label = 0, {}, None
    for line in Path(path).read_text(encoding="utf-8").splitlines():
        if line.startswith("vocab "):
            vocab = int(line.split()[1])
        elif line.startswith("label "):
            label = line.split()[1]
        elif line.startswith("supports ") and label is not None:
            supports[label] = int(line.split()[1])
    return vocab, supports


def learn_counters(train_gold: list, train_pools: list, test_pools: list,
                   model_path: str) -> dict:
    """SVM size and kernel work: Gram entries of SMO (labels with both
    classes) and kernel evaluations of scoring the test pool."""
    per_label: dict = defaultdict(Counter)
    for s, pool in enumerate(train_pools):
        gold_args = {(p, *a) for p, pa in enumerate(train_gold[s][2]) for a in pa}
        for key in pool:
            per_label[key[1]][key in gold_args] += 1
    vocab, supports = model_counts(model_path)
    test_labels = Counter(key[1] for pool in test_pools for key in pool)
    return {"features.vocab": vocab,
            "learn.support_vectors": sum(supports.values()),
            "learn.gram_entries": sum(sum(c.values()) ** 2 for c in per_label.values()
                                      if len(c) == 2),
            "learn.kernel_evals": sum(n * supports.get(label, 0)
                                      for label, n in test_labels.items())}
