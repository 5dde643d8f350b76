"""Sparse binary features for candidate scoring, in six groups.

FS1 voting, FS2 same-predicate overlap, FS3 other-predicate overlap,
FS4 partial syntax (chunks/clauses), FS5 full syntax (parse tree),
FS6 discretized per-system probabilities.  Features are interned strings of
the form ``group:name=value``; counts above the cap collapse into "5+" so
the vocabulary stays bounded.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from .calibrate import IntervalTable
from .corpus_io import AlignmentError, skeleton_syntax, text_lines
from .model import ParseNode, Sentence, Span, Syntax, Token
from .pool import CandidatePool

ALL_GROUPS = ("FS1", "FS2", "FS3", "FS4", "FS5", "FS6")


class FeatureSpace:
    """Interned feature-string registry.

    A space read from a file is frozen: it is a trained model's vocabulary,
    which inference must not grow.  Names it lacks are in no support vector,
    so dropping them changes no score.
    """

    def __init__(self) -> None:
        self._by_name: dict = {}
        self._names: list[str] = []
        self.frozen = False

    def intern(self, name: str) -> int:
        fid = self._by_name.get(name)
        if fid is None:
            if self.frozen:
                raise ValueError(f"feature {name!r} is not in the frozen vocabulary")
            fid = self._by_name[name] = len(self._names)
            self._names.append(name)
        return fid

    def ids(self, names: Iterable[str]) -> tuple[int, ...]:
        """The distinct ids of ``names``, ascending.  A frozen space drops the
        names it lacks; any other space interns them in sorted order, so the
        ids it gives out depend only on the name set of each call."""
        by_name = self._by_name
        ids = set(map(by_name.get, names))
        if None in ids:
            ids.discard(None)
            if not self.frozen:
                ids.update(map(self.intern, sorted(set(names).difference(by_name))))
        return tuple(sorted(ids))

    def name(self, fid: int) -> str:
        return self._names[fid]

    def __len__(self) -> int:
        return len(self._names)

    def dump(self) -> str:
        return "".join(f"{i}\t{n}\n" for i, n in enumerate(self._names))

    @classmethod
    def load(cls, text: str, first_line: int = 1) -> "FeatureSpace":
        """The frozen space of a ``dump``; its lines count from ``first_line``."""
        space = cls()
        for number, line in enumerate(text_lines(text), first_line):
            fid, tab, name = line.partition("\t")
            if not tab or fid != str(len(space._names)):     # ids are dense and in order
                raise ValueError(f"line {number} does not start with feature id "
                                 f"{len(space._names)} and a tab")
            if name in space._by_name:
                raise ValueError(f"line {number} repeats feature {name!r} of id "
                                 f"{space._by_name[name]}")
            space._by_name[name] = len(space._names)
            space._names.append(name)
        space.frozen = True
        return space


# Fixed extraction caps.  Model files record them on their config line, and a
# model that gives other values is rejected when loaded.
NGRAM_CAP = 10        # longest stored chunk/clause sequence
PATH_THRESHOLD = 3    # generalize parse paths longer than this
COUNT_CAP = 5         # numeric values above this bucket to "5+"


@dataclass(frozen=True)
class FeatureConfig:
    groups: tuple[str, ...] = ALL_GROUPS

    def __post_init__(self) -> None:
        for g in self.groups:
            if g not in ALL_GROUPS:
                raise ValueError(f"unknown feature group {g!r}")
        if not self.groups:
            raise ValueError("at least one feature group must be enabled")
        object.__setattr__(self, "groups", tuple(sorted(set(self.groups), key=ALL_GROUPS.index)))

    @classmethod
    def parse_groups(cls, text: str) -> "FeatureConfig":
        """Accept "FS1,FS3", "FS1-FS4" (cumulative range), or "all"."""
        text = text.strip()
        if text.lower() == "all":
            return cls(groups=ALL_GROUPS)
        if "-" in text and "," not in text:
            lo, hi = (g.strip() for g in text.split("-", 1))
            for g in (lo, hi):
                if g not in ALL_GROUPS:
                    raise ValueError(f"unknown feature group {g!r}")
            return cls(groups=ALL_GROUPS[ALL_GROUPS.index(lo):ALL_GROUPS.index(hi) + 1])
        return cls(groups=tuple(g.strip() for g in text.split(",") if g.strip()))


def _bucket(n: int) -> str:
    return str(n) if n <= COUNT_CAP else f"{COUNT_CAP}+"


def _bucket_signed(n: int) -> str:
    if n > COUNT_CAP:
        return f"{COUNT_CAP}+"
    if n < -COUNT_CAP:
        return f"-{COUNT_CAP}+"
    return str(n)


# the names of bucketed counts, indexed by min(n, _CAPPED); signed ones by
# n clamped to -_CAPPED.._CAPPED, plus _CAPPED
_CAPPED = COUNT_CAP + 1
_TOKLEN, _CHUNKLEN, _NCHUNKS_BETWEEN = (
    tuple(f"fs4:{name}={_bucket(n)}" for n in range(_CAPPED + 1))
    for name in ("toklen", "chunklen", "nchunks_between"))
_CLAUSESUB = tuple(f"fs4:clausesub={_bucket_signed(n)}" for n in range(-_CAPPED, _CAPPED + 1))


def _sequence_features(feats: list, prefix: str, elems: Sequence[str]) -> None:
    if len(elems) <= NGRAM_CAP:
        feats.append(f"{prefix}={'-'.join(elems)}")
    else:
        feats.append(f"{prefix}_start={'-'.join(elems[:NGRAM_CAP])}")
        feats.append(f"{prefix}_end={'-'.join(elems[-NGRAM_CAP:])}")


class _ParseIndex:
    """Parent/depth maps over a parse tree and running token counts, built once per sentence."""

    def __init__(self, root: ParseNode, tokens: Sequence[Token] = ()):
        self.root = root
        self.parent: dict = {}
        self.depth: dict = {}
        # the nodes starting at each token, longest first, then shallowest
        self._by_start: dict = {}
        stack = [(root, None, 0)]
        while stack:
            node, parent, depth = stack.pop()
            self.parent[id(node)] = parent
            self.depth[id(node)] = depth
            self._by_start.setdefault(node.span.start, []).append(node)
            for child in node.children:
                stack.append((child, node, depth + 1))
        for nodes in self._by_start.values():
            nodes.sort(key=lambda n: (-len(n.span), self.depth[id(n)]))
        self._chains: dict = {}
        self.tokens = tokens
        # counts of verbs, commas and conjunctions among tokens 0..i-1
        self.n_vb, self.n_comma, self.n_cc = [0], [0], [0]
        for tok in tokens:
            self.n_vb.append(self.n_vb[-1] + tok.pos.startswith("VB"))
            self.n_comma.append(self.n_comma[-1] + (tok.form == ","))
            self.n_cc.append(self.n_cc[-1] + (tok.pos == "CC"))

    def ancestors(self, node: ParseNode) -> list[ParseNode]:
        """Chain from the node itself up to the root."""
        chain = [node]
        cur = self.parent[id(node)]
        while cur is not None:
            chain.append(cur)
            cur = self.parent[id(cur)]
        return chain

    def map_span(self, span: Span) -> Optional[ParseNode]:
        """Exact-boundary node climbed through unary chains, else the largest
        phrase inside the span sharing its left boundary."""
        for node in self._by_start.get(span.start, ()):
            if node.span.end <= span.end:
                return node
        return None

    def chain_to_token(self, index: int) -> list[ParseNode]:
        """Phrase nodes containing the token, outermost first; the node at
        position k has depth k."""
        chain = self._chains.get(index)
        if chain is None:
            chain = []
            node = self.root
            while node is not None and node.span.start <= index <= node.span.end:
                chain.append(node)
                node = next((c for c in node.children
                             if c.span.start <= index <= c.span.end), None)
            self._chains[index] = chain
        return chain


class _VoteNames(dict):
    """The names a vote mask gives: its bucketed count of systems, then one
    name per voting system.  Filled on first use of each mask.  It reads the
    system bits of its ``_PoolNames``, not the object itself, so that the
    two make no reference cycle."""

    def __init__(self, bits: dict, count: str, each: str):
        super().__init__()
        self.bits, self.count, self.each = bits, count, each

    def __missing__(self, mask: int) -> tuple[str, ...]:
        sids = sorted(sid for sid, bit in self.bits.items() if mask & bit)
        names = (self.count + _bucket(len(sids)),) + tuple(self.each + sid for sid in sids)
        self[mask] = names
        return names


_RELATIONS = ("samespan", "within", "contains", "crosses")


class _PoolNames:
    """What every sentence of one extraction shares: system ids as bits, so
    that the votes of several candidates unite by integer or, and the
    feature names of vote masks and intervals."""

    def __init__(self, system_ids: Sequence[str]):
        self._bit: dict = {}
        self._masks: dict = {}
        self.system_bits = [(sid, self._bit_of(sid)) for sid in system_ids]
        self.fs1 = _VoteNames(self._bit, "fs1:numsys=", "fs1:sys=")
        # by group (FS2, FS3), then relation in _RELATIONS order
        self.overlaps = tuple(
            tuple(_VoteNames(self._bit, f"{prefix}:{rel}:n=", f"{prefix}:{rel}:sys=")
                  for rel in _RELATIONS)
            for prefix in ("fs2", "fs3"))
        # the names of interval 0..4 of each system, then of "none"
        self.fs6 = [(sid, tuple(f"fs6:{sid}={i}" for i in range(5)) + (f"fs6:{sid}=none",))
                    for sid in system_ids]

    def _bit_of(self, sid: str) -> int:
        return self._bit.setdefault(sid, 1 << len(self._bit))

    def mask(self, votes: frozenset) -> int:
        mask = self._masks.get(votes)
        if mask is None:
            mask = 0
            for sid in votes:
                mask |= self._bit_of(sid)
            self._masks[votes] = mask
        return mask


def _label_sequences(rows: list, pred_pos: list, system_bits: list) -> list[dict]:
    """FS1's label sequence names by predicate, then system: the labels of
    the predicate's arguments that the system proposed, its V included, in
    span order."""
    entries: list = [[(pos, pos, "V", -1)] for pos in pred_pos]    # every system has the V
    for start, end, votes, pred, label in rows:
        entries[pred].append((start, end, label, votes))
    sequences = []
    for args in entries:
        args.sort()     # no two entries share (start, end, label)
        sequences.append({sid: f"fs1:seq:{sid}=" + "-".join(
            [label for _s, _e, label, votes in args if votes & bit]) for sid, bit in system_bits})
    return sequences


def _partial_syntax(syntax: Sentence | Syntax) -> tuple:
    """FS4's columns of one sentence's decoded syntax, a ``Sentence`` or what
    ``corpus_io.skeleton_syntax`` gives: chunk types, starts and ends (chunks
    are ordered and disjoint, so both ascend), named entities, clauses, and
    the clause events of every token in one list, those of tokens lo..hi
    being events[offsets[lo]:offsets[hi + 1]]."""
    chunks = syntax.chunks
    events: list = []
    offsets = [0]
    for token_events in syntax.clause_events:
        events += token_events
        offsets.append(len(events))
    return ([kind for kind, _s, _e in chunks], [start for _k, start, _e in chunks],
            [end for _k, _s, end in chunks], syntax.nes, syntax.clauses, events, offsets)


class FeatureExtractor:
    """One feature definition: the enabled groups, the vocabulary that names
    their features, and the probability intervals of FS6.  A model holds the
    extractor it was trained with and scores every pool with it.  Without
    intervals, every (system, label) discretizes at the half-split."""

    def __init__(self, config: Optional[FeatureConfig] = None,
                 space: Optional[FeatureSpace] = None,
                 intervals: Optional[IntervalTable] = None):
        self.config = config or FeatureConfig()
        self.space = space if space is not None else FeatureSpace()
        self.intervals = intervals if intervals is not None else IntervalTable()

    def extract_pool(self, pool: CandidatePool,
                     sentences: Optional[Sequence[Sentence]] = None) -> CandidatePool:
        """The pool with every candidate's features; without ``sentences``,
        each pool sentence's skeleton stands in for it.  Sentences of another
        count, or of another token count than their pool sentence, are an
        AlignmentError.

        One loop per sentence: the columns that the enabled groups read are
        built once, and each candidate's names are made from them inline.
        Names may come in any order and more than once: the space sees only
        the set."""
        if sentences is not None:
            if len(sentences) != len(pool):
                raise AlignmentError(
                    f"syntax has {len(sentences)} sentences, props has {len(pool)}")
            for k, (sentence, spool) in enumerate(zip(sentences, pool.sentences)):
                if len(sentence.tokens) != spool.n_tokens:
                    raise AlignmentError(f"sentence {k}: token counts differ")
        fs1, fs2, fs3, fs4, fs5, fs6 = (g in self.config.groups for g in ALL_GROUPS)
        shared = _PoolNames(pool.system_ids)
        (fs2_eq, fs2_in, fs2_around, fs2_cross), (fs3_eq, fs3_in, fs3_around,
                                                  fs3_cross) = shared.overlaps
        mask, vote_names, ids, intervals = shared.mask, shared.fs1, self.space.ids, self.intervals
        fs6_by_label: dict = {}     # label -> (system, its FS6 names, its cut points)
        per_sentence = []
        for k, spool in enumerate(pool.sentences):
            sentence = sentences[k] if sentences is not None else None
            # making a skeleton checks its predicate positions
            syntax = sentence if sentence is not None else skeleton_syntax(
                spool.n_tokens, spool.predicates)
            pred_pos = [pos for pos, _lemma in spool.predicates]
            # (start, end, vote mask, predicate, label) of every candidate
            rows = [(a.span.start, a.span.end, mask(c.votes), a.predicate, a.label.text)
                    for c in spool.candidates for a in (c.argument,)]
            if fs1:
                sequences = _label_sequences(rows, pred_pos, shared.system_bits)
            if fs4:
                (chunk_types, chunk_starts, chunk_ends, nes, clauses, events,
                 offsets) = _partial_syntax(syntax)
                pred_depth = [sum(a <= pos <= b for a, b in clauses) for pos in pred_pos]
            if fs5:
                parse = (_ParseIndex(sentence.parse, sentence.tokens)
                         if sentence is not None and sentence.parse is not None else None)
            out = []
            for c, (start, end, votes, pred, label) in zip(spool.candidates, rows):
                names: list[str] = []
                if fs1:
                    names.append("fs1:label=" + label)
                    names += vote_names[votes]
                    seqs = sequences[pred]
                    names += [seqs[sid] for sid in c.votes]
                if fs2 or fs3:
                    # the votes of the other candidates whose span equals this
                    # one (with another label), lies inside it, around it or
                    # crosses it: s_* of the same predicate, o_* of the others
                    s_eq = s_in = s_around = s_cross = o_eq = o_in = o_around = o_cross = 0
                    for o_start, o_end, o_mask, o_pred, o_label in rows:
                        if o_end < start or end < o_start:
                            continue
                        if o_pred == pred:
                            if o_start == start and o_end == end:
                                if o_label != label:
                                    s_eq |= o_mask
                            elif start <= o_start and o_end <= end:
                                s_in |= o_mask
                            elif o_start <= start and end <= o_end:
                                s_around |= o_mask
                            else:
                                s_cross |= o_mask
                        elif o_start == start and o_end == end:
                            o_eq |= o_mask
                        elif start <= o_start and o_end <= end:
                            o_in |= o_mask
                        elif o_start <= start and end <= o_end:
                            o_around |= o_mask
                        else:
                            o_cross |= o_mask
                    if fs2:
                        names += fs2_eq[s_eq]
                        names += fs2_in[s_in]
                        names += fs2_around[s_around]
                        names += fs2_cross[s_cross]
                    if fs3:
                        names += fs3_eq[o_eq]
                        names += fs3_in[o_in]
                        names += fs3_around[o_around]
                        names += fs3_cross[o_cross]
                pidx = pred_pos[pred]
                if fs4:
                    inside = chunk_types[bisect_left(chunk_starts, start):
                                         bisect_right(chunk_ends, end)]
                    clauses_in = events[offsets[start]:offsets[end + 1]]
                    if end < pidx:
                        position, lo, hi = "fs4:position=before", end + 1, pidx - 1
                    elif start > pidx:
                        position, lo, hi = "fs4:position=after", pidx + 1, start - 1
                    else:
                        position, lo, hi = "fs4:position=covers", 0, -1
                    between = (chunk_types[bisect_left(chunk_starts, lo):
                                           bisect_right(chunk_ends, hi)] if lo <= hi else [])
                    clauses_between = events[offsets[lo]:offsets[hi + 1]]
                    sub = -pred_depth[pred]
                    for c_start, c_end in clauses:
                        if c_start <= start and end <= c_end:
                            sub += 1
                    names += (_TOKLEN[min(end - start + 1, _CAPPED)],
                              _CHUNKLEN[min(len(inside), _CAPPED)], position,
                              "fs4:adjacent=true" if end + 1 == pidx or pidx + 1 == start
                              else "fs4:adjacent=false",
                              _NCHUNKS_BETWEEN[min(len(between), _CAPPED)],
                              _CLAUSESUB[max(-_CAPPED, min(sub, _CAPPED)) + _CAPPED])
                    _sequence_features(names, "fs4:chunkseq", inside)
                    _sequence_features(names, "fs4:clauseseq", clauses_in)
                    _sequence_features(names, "fs4:chunkseq_between", between)
                    _sequence_features(names, "fs4:clauseseq_between", clauses_between)
                    if nes:
                        names += ["fs4:ne=" + kind for kind, ne_start, ne_end in nes
                                  if start <= ne_start and ne_end <= end]
                if fs5:
                    if parse is None:
                        names.append("fs5:parse_absent")
                    else:
                        _fs5(names, c.argument.span, pidx, parse)
                if fs6:
                    probs = dict(c.probs)
                    columns = fs6_by_label.get(label)
                    if columns is None:
                        columns = fs6_by_label[label] = [
                            (sid, by_interval, intervals.cuts_for(sid, label))
                            for sid, by_interval in shared.fs6]
                    for sid, by_interval, cuts in columns:
                        p = probs.get(sid)
                        names.append(by_interval[-1] if p is None
                                     else by_interval[bisect_right(cuts, p)])
                out.append(c.with_features(ids(names)))
            per_sentence.append(out)
        return pool.with_candidates(per_sentence)


def _fs5(names: list, span: Span, pidx: int, parse: _ParseIndex) -> None:
    # surface distances need no tree node; the gap is tokens[lo:hi]
    if span.end < pidx:
        lo, hi = span.end + 1, pidx
    elif span.start > pidx:
        lo, hi = pidx + 1, span.start
    else:
        lo, hi = 0, 0
    names.append(f"fs5:sdist_tok={_bucket(hi - lo)}")
    names.append(f"fs5:sdist_vb={_bucket(parse.n_vb[hi] - parse.n_vb[lo])}")
    names.append(f"fs5:sdist_comma={_bucket(parse.n_comma[hi] - parse.n_comma[lo])}")
    names.append(f"fs5:sdist_cc={_bucket(parse.n_cc[hi] - parse.n_cc[lo])}")
    names.append(f"fs5:sdist_adj={str(span.end + 1 == pidx or pidx + 1 == span.start).lower()}")

    node = parse.map_span(span)
    if node is None:
        names.append("fs5:unmapped")
        return
    names.append(f"fs5:label={node.label}")

    up_chain = parse.ancestors(node)
    common_i = next(i for i, n in enumerate(up_chain)
                    if n.span.start <= pidx <= n.span.end)
    up_nodes = up_chain[:common_i + 1]          # node .. common ancestor
    ancestor = up_nodes[-1]
    pred_chain = parse.chain_to_token(pidx)
    down_nodes = pred_chain[parse.depth[id(ancestor)] + 1:]
    labels = ([n.label for n in up_nodes] + [n.label for n in down_nodes]
              + [parse.tokens[pidx].pos])
    path = "^".join(labels[:len(up_nodes)]) + "_" + "_".join(labels[len(up_nodes):])
    names.append(f"fs5:path={path}")
    names.append(f"fs5:pathlen={_bucket(len(labels))}")

    up_labels = labels[1:len(up_nodes)]          # strictly above the node, incl. ancestor
    down_labels = labels[len(up_nodes):]         # below the ancestor, incl. the POS
    for scope, part in (("", labels), ("_up", up_labels), ("_down", down_labels)):
        names.append(f"fs5:clauses{scope}={_bucket(sum(1 for l in part if l.startswith('S')))}")
        names.append(f"fs5:vps{scope}={_bucket(part.count('VP'))}")

    if len(labels) > PATH_THRESHOLD:
        arg_l, anc_l, pred_l = labels[0], ancestor.label, labels[-1]
        for n in down_nodes:
            names.append(f"fs5:gpath_a={arg_l}^{anc_l}_{n.label}_{pred_l}")
        for n in up_nodes[1:-1]:
            names.append(f"fs5:gpath_b={arg_l}^{n.label}^{anc_l}_{pred_l}")

    pred_depth = len(pred_chain) - 1 if pred_chain else 0
    names.append(f"fs5:subsump={_bucket_signed(parse.depth[id(node)] - pred_depth)}")

    gov = "none"
    for anc in up_chain[1:]:
        if anc.label == "VP":
            gov = "VP"
            break
        if anc.label.startswith("S"):
            gov = "S"
            break
    names.append(f"fs5:gov={gov}")
