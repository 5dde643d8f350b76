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

from .calibrate import IntervalTable, discretize
from .corpus_io import AlignmentError, skeleton_tags, text_lines
from .model import (
    Candidate,
    ParseNode,
    Sentence,
    Span,
    clause_events,
    clause_intervals,
    decode_bio,
)
from .pool import CandidatePool, SentencePool

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
                ids.update(map(self.intern, sorted({n for n in names if n not in by_name})))
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
    """Parent/depth maps over a parse tree, built once per sentence."""

    def __init__(self, root: ParseNode):
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
    feature names of vote masks, intervals and clause tags."""

    def __init__(self, system_ids: Sequence[str]):
        self.system_ids = system_ids
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
        self._clause_events: dict = {}

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

    def clause_events(self, tag: str) -> tuple[str, ...]:
        """A clause tag's events as sequence elements: "(S*S)" gives ("(S", "S)")."""
        events = self._clause_events.get(tag)
        if events is None:
            opens, closes = clause_events(tag)
            events = self._clause_events[tag] = (tuple(f"({lab}" for lab in opens)
                                                 + tuple(f"{lab})" for lab in closes))
        return events


class _SentenceContext:
    """What every candidate of one sentence shares, worked out once.  With no
    sentence, the sentence is the pool sentence's skeleton, read from the
    tags ``corpus_io.skeleton_tags`` gives it."""

    def __init__(self, spool: SentencePool, sentence: Optional[Sentence], shared: _PoolNames):
        if sentence is None:
            chunk_tags, clause_tags = skeleton_tags(spool.n_tokens, spool.predicates)
            ne_tags: Sequence[str] = ()     # a skeleton names no entity
            self.tokens, self.parse = (), None
        else:
            tokens = sentence.tokens
            chunk_tags = [t.chunk for t in tokens]
            clause_tags = [t.clause for t in tokens]
            ne_tags = [t.ne for t in tokens]
            self.tokens = tokens
            self.parse = _ParseIndex(sentence.parse) if sentence.parse is not None else None
        self.pred_pos = [pos for pos, _lemma in spool.predicates]
        chunks = decode_bio(chunk_tags)
        # chunks are ordered and disjoint, so both columns ascend
        self.chunk_types = [kind for kind, _s, _e in chunks]
        self.chunk_starts = [start for _k, start, _e in chunks]
        self.chunk_ends = [end for _k, _s, end in chunks]
        self.nes = decode_bio(ne_tags)
        self.clauses = clause_intervals(clause_tags)
        self.pred_clause_depth = [self.clause_depth(pos, pos) for pos in self.pred_pos]
        # the clause events of tokens lo..hi are events[offsets[lo]:offsets[hi + 1]]
        self.events: list = []
        self.offsets = [0]
        for tag in clause_tags:
            self.events += shared.clause_events(tag)
            self.offsets.append(len(self.events))
        if self.parse is not None:
            # counts of verbs, commas and conjunctions among tokens 0..i-1
            self.n_vb, self.n_comma, self.n_cc = [0], [0], [0]
            for tok in self.tokens:
                self.n_vb.append(self.n_vb[-1] + tok.pos.startswith("VB"))
                self.n_comma.append(self.n_comma[-1] + (tok.form == ","))
                self.n_cc.append(self.n_cc[-1] + (tok.pos == "CC"))

        mask = shared.mask
        # (start, end, vote mask, predicate, label) of every candidate, and
        # the (start, end, label, vote mask) of each predicate's arguments,
        # its V included
        self.rows = []
        entries: list = [[(pos, pos, "V", None)] for pos in self.pred_pos]
        for c in spool.candidates:
            arg = c.argument
            start, end, label, votes = arg.span.start, arg.span.end, arg.label.text, mask(c.votes)
            self.rows.append((start, end, votes, arg.predicate, label))
            entries[arg.predicate].append((start, end, label, votes))
        # each system's labels of each predicate in span order: the name of
        # that sequence by predicate, then system
        self.sequences = []
        for args in entries:
            args.sort(key=lambda e: e[:3])
            self.sequences.append({
                sid: f"fs1:seq:{sid}=" + "-".join(
                    label for _s, _e, label, votes in args if votes is None or votes & bit)
                for sid, bit in shared.system_bits})

    def clause_depth(self, start: int, end: int) -> int:
        depth = 0
        for c_start, c_end in self.clauses:
            if c_start <= start and end <= c_end:
                depth += 1
        return depth

    def clause_seq(self, lo: int, hi: int) -> list[str]:
        """Clause events of tokens lo..hi; none when lo > hi."""
        return self.events[self.offsets[lo]:self.offsets[hi + 1]]

    def chunk_seq(self, lo: int, hi: int) -> list[str]:
        """Types of the chunks inside tokens lo..hi."""
        return self.chunk_types[bisect_left(self.chunk_starts, lo):
                                bisect_right(self.chunk_ends, hi)]


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
        AlignmentError."""
        if sentences is not None:
            if len(sentences) != len(pool):
                raise AlignmentError(
                    f"syntax has {len(sentences)} sentences, props has {len(pool)}")
            for k, (sentence, spool) in enumerate(zip(sentences, pool.sentences)):
                if len(sentence.tokens) != spool.n_tokens:
                    raise AlignmentError(f"sentence {k}: token counts differ")
        shared = _PoolNames(pool.system_ids)
        per_sentence = []
        for k, spool in enumerate(pool.sentences):
            ctx = _SentenceContext(spool, sentences[k] if sentences is not None else None, shared)
            per_sentence.append([c.with_features(self._extract(c, ctx, shared))
                                 for c in spool.candidates])
        return pool.with_candidates(per_sentence)

    # -- group extractors ---------------------------------------------------

    def _extract(self, cand: Candidate, ctx: _SentenceContext,
                 shared: _PoolNames) -> tuple[int, ...]:
        """The candidate's feature ids.  Names may come in any order and
        more than once: the space sees only the set."""
        names: list[str] = []
        groups = self.config.groups
        arg = cand.argument
        start, end, pred, label = arg.span.start, arg.span.end, arg.predicate, arg.label.text
        if "FS1" in groups:
            names.append("fs1:label=" + label)
            names += shared.fs1[shared.mask(cand.votes)]
            sequences = ctx.sequences[pred]
            names += [sequences[sid] for sid in cand.votes]
        if "FS2" in groups or "FS3" in groups:
            self._overlaps(names, start, end, pred, label, ctx, shared)
        pidx = ctx.pred_pos[pred]
        if "FS4" in groups:
            self._fs4(names, start, end, pred, pidx, ctx)
        if "FS5" in groups:
            self._fs5(names, arg.span, pidx, ctx)
        if "FS6" in groups:
            probs = dict(cand.probs)
            for sid, by_interval in shared.fs6:
                p = probs.get(sid)
                names.append(by_interval[-1] if p is None
                             else by_interval[discretize(p, sid, label, self.intervals)])
        return self.space.ids(names)

    def _overlaps(self, names: list, start: int, end: int, pred: int, label: str,
                  ctx: _SentenceContext, shared: _PoolNames) -> None:
        """Votes of the other candidates by how their span relates to the
        candidate's: equal (with another label), inside it, around it or
        crossing it; FS2 for those of the same predicate, FS3 for the rest."""
        # votes[0:4] of the same predicate, votes[4:8] of the others
        votes = [0] * 8
        for o_start, o_end, o_mask, o_pred, o_label in ctx.rows:
            if o_end < start or end < o_start:
                continue
            base = 0 if o_pred == pred else 4
            if o_start == start and o_end == end:
                if base or o_label != label:
                    votes[base] |= o_mask
            elif start <= o_start and o_end <= end:
                votes[base + 1] |= o_mask
            elif o_start <= start and end <= o_end:
                votes[base + 2] |= o_mask
            else:
                votes[base + 3] |= o_mask
        groups = self.config.groups
        for base, group, by_relation in ((0, "FS2", shared.overlaps[0]),
                                         (4, "FS3", shared.overlaps[1])):
            if group in groups:
                for rel, table in enumerate(by_relation):
                    names += table[votes[base + rel]]

    def _fs4(self, names: list, start: int, end: int, pred: int, pidx: int,
             ctx: _SentenceContext) -> None:
        names.append(_TOKLEN[min(end - start + 1, _CAPPED)])
        inside = ctx.chunk_seq(start, end)
        names.append(_CHUNKLEN[min(len(inside), _CAPPED)])
        _sequence_features(names, "fs4:chunkseq", inside)
        _sequence_features(names, "fs4:clauseseq", ctx.clause_seq(start, end))
        for ne_type, ne_start, ne_end in ctx.nes:
            if start <= ne_start and ne_end <= end:
                names.append("fs4:ne=" + ne_type)

        if end < pidx:
            names.append("fs4:position=before")
            lo, hi = end + 1, pidx - 1
        elif start > pidx:
            names.append("fs4:position=after")
            lo, hi = pidx + 1, start - 1
        else:
            names.append("fs4:position=covers")
            lo, hi = 0, -1
        adjacent = end + 1 == pidx or pidx + 1 == start
        names.append("fs4:adjacent=true" if adjacent else "fs4:adjacent=false")

        between = ctx.chunk_seq(lo, hi) if lo <= hi else []
        _sequence_features(names, "fs4:chunkseq_between", between)
        names.append(_NCHUNKS_BETWEEN[min(len(between), _CAPPED)])
        _sequence_features(names, "fs4:clauseseq_between", ctx.clause_seq(lo, hi))
        sub = ctx.clause_depth(start, end) - ctx.pred_clause_depth[pred]
        names.append(_CLAUSESUB[max(-_CAPPED, min(sub, _CAPPED)) + _CAPPED])

    def _fs5(self, names: list, span: Span, pidx: int, ctx: _SentenceContext) -> None:
        parse = ctx.parse
        if parse is None:
            names.append("fs5:parse_absent")
            return

        # surface distances need no tree node; the gap is tokens[lo:hi]
        if span.end < pidx:
            lo, hi = span.end + 1, pidx
        elif span.start > pidx:
            lo, hi = pidx + 1, span.start
        else:
            lo, hi = 0, 0
        names.append(f"fs5:sdist_tok={_bucket(hi - lo)}")
        names.append(f"fs5:sdist_vb={_bucket(ctx.n_vb[hi] - ctx.n_vb[lo])}")
        names.append(f"fs5:sdist_comma={_bucket(ctx.n_comma[hi] - ctx.n_comma[lo])}")
        names.append(f"fs5:sdist_cc={_bucket(ctx.n_cc[hi] - ctx.n_cc[lo])}")
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
                  + [ctx.tokens[pidx].pos])
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
