"""The feature extractor as it was before its hot path was rewritten, kept
verbatim as the reference that test_feature_differential.py compares
srlcomb.features against: every candidate must get the same feature names,
and every vocabulary must intern them in the same order.  Only the document
types and the interval lookup are shared with srlcomb; the syntax decoding is
copied as srlcomb.model had it, the lenient B-I-O decoder included, so that
the reference decodes each sentence's tags on its own.

Sparse binary features for candidate scoring, in six groups.

FS1 voting, FS2 same-predicate overlap, FS3 other-predicate overlap,
FS4 partial syntax (chunks/clauses), FS5 full syntax (parse tree),
FS6 discretized per-system probabilities.  Features are interned strings of
the form ``group:name=value``; counts above the cap collapse into "5+" so
the vocabulary stays bounded.
"""

from __future__ import annotations

import bisect
import hashlib
import re
import threading
from dataclasses import dataclass
from typing import Iterable, Optional, Sequence

from srlcomb.calibrate import IntervalTable
from srlcomb.corpus_io import PropsDocument, PropsSentence, skeleton_sentences
from srlcomb.model import (
    Argument,
    Candidate,
    ParseNode,
    Sentence,
    Span,
    V_LABEL,
)
from srlcomb.pool import CandidatePool, SentencePool

ALL_GROUPS = ("FS1", "FS2", "FS3", "FS4", "FS5", "FS6")


def decode_bio(tags: Sequence[str]) -> list[tuple[str, int, int]]:
    """Decode a B-I-O tag sequence into (type, start, end) chunks, leniently."""
    out: list[tuple[str, int, int]] = []
    kind, start = None, 0        # the open chunk, if kind is not None
    for i, tag in enumerate(tags):
        if tag == "O" or tag == "":
            if kind is not None:
                out.append((kind, start, i - 1))
                kind = None
            continue
        mark, _, tag_kind = tag.partition("-")
        if mark == "B" or kind != tag_kind:
            if kind is not None:
                out.append((kind, start, i - 1))
            kind, start = tag_kind, i
    if kind is not None:
        out.append((kind, start, len(tags) - 1))
    return out


_CLAUSE_CELL_RE = re.compile(r"^((?:\([A-Z0-9]+)*)\*((?:[A-Z0-9]+\))*)$")

# valid clause tags split so far; a corpus uses a handful, and the bound keeps
# hostile input from growing the cache without limit
_CLAUSE_CACHE: dict = {}
_CLAUSE_CACHE_MAX = 4096


def clause_events(tag: str) -> tuple[tuple[str, ...], tuple[str, ...]]:
    """Split a clause bracket tag into labels opened and closed at the token.
    Valid tags are memoised, errors never are."""
    events = _CLAUSE_CACHE.get(tag)
    if events is None:
        m = _CLAUSE_CELL_RE.match(tag)
        if not m:
            raise ValueError(f"malformed clause tag {tag!r}")
        events = (tuple(part for part in m.group(1).split("(") if part),
                  tuple(part for part in m.group(2).split(")") if part))
        if len(_CLAUSE_CACHE) < _CLAUSE_CACHE_MAX:
            _CLAUSE_CACHE[tag] = events
    return events


def clause_intervals(tags: Sequence[str]) -> list[tuple[int, int]]:
    """(start, end) of each clause that a bracket column opens and closes,
    outermost first."""
    spans: list[tuple[int, int]] = []
    stack: list[int] = []
    for i, tag in enumerate(tags):
        opens, closes = clause_events(tag)
        for _ in opens:
            stack.append(i)
        for _ in closes:
            if not stack:
                raise ValueError(f"unbalanced clause brackets at token {i}")
            spans.append((stack.pop(), i))
    if stack:
        raise ValueError("unclosed clause bracket")
    spans.sort(key=lambda s: (s[0], -s[1]))
    return spans


def discretize(p: float, system: str, label: str, table: IntervalTable) -> int:
    """The interval index 0..4 of a probability; a (system, label) with no
    cuts splits at 0.5."""
    return bisect.bisect_right(table.cuts.get((system, label), (0.5,) * 4), p)


class FeatureSpace:
    """Interned feature-string registry; safe for concurrent extraction.

    A space read from a file is frozen: it is a trained model's vocabulary,
    which inference must not grow.  Names it lacks are in no support vector,
    so dropping them changes no score.
    """

    def __init__(self) -> None:
        self._by_name: dict = {}
        self._names: list[str] = []
        self._lock = threading.Lock()
        self.frozen = False

    def intern(self, name: str) -> int:
        fid = self._by_name.get(name)
        if fid is not None:
            return fid
        if self.frozen:
            raise ValueError(f"feature {name!r} is not in the frozen vocabulary")
        with self._lock:
            fid = self._by_name.get(name)
            if fid is None:
                fid = len(self._names)
                self._names.append(name)
                self._by_name[name] = fid
            return fid

    def lookup(self, name: str) -> Optional[int]:
        return self._by_name.get(name)

    def ids(self, names: Iterable[str]) -> tuple[int, ...]:
        """Ids of ``names`` in order; a frozen space drops the names it lacks,
        any other space interns them."""
        if self.frozen:
            return tuple(fid for fid in map(self.lookup, names) if fid is not None)
        return tuple(map(self.intern, names))

    def name(self, fid: int) -> str:
        return self._names[fid]

    def __len__(self) -> int:
        return len(self._names)

    def dump(self) -> str:
        return "".join(f"{i}\t{n}\n" for i, n in enumerate(self._names))

    @classmethod
    def load(cls, text: str) -> "FeatureSpace":
        space = cls()
        for line in text.splitlines():
            if not line:
                continue
            fid, _, name = line.partition("\t")
            if int(fid) != len(space._names):
                raise ValueError("feature ids must be dense and in order")
            space._names.append(name)
            space._by_name[name] = int(fid)
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
        groups = tuple(sorted(set(self.groups), key=ALL_GROUPS.index))
        if not groups:
            raise ValueError("at least one feature group must be enabled")
        for g in groups:
            if g not in ALL_GROUPS:
                raise ValueError(f"unknown feature group {g!r}")
        object.__setattr__(self, "groups", groups)

    def digest(self) -> str:
        payload = f"{','.join(self.groups)}|{NGRAM_CAP}|{PATH_THRESHOLD}|{COUNT_CAP}"
        return hashlib.sha256(payload.encode()).hexdigest()[:16]

    @classmethod
    def parse_groups(cls, text: str) -> "FeatureConfig":
        """Accept "FS1,FS3", "FS1-FS4" (cumulative range), or "all"."""
        text = text.strip()
        if text.lower() == "all":
            return cls(groups=ALL_GROUPS)
        if "-" in text and "," not in text:
            lo, hi = text.split("-", 1)
            i, j = ALL_GROUPS.index(lo.strip()), ALL_GROUPS.index(hi.strip())
            return cls(groups=ALL_GROUPS[i:j + 1])
        return cls(groups=tuple(g.strip() for g in text.split(",") if g.strip()))


def _bucket(n: int) -> str:
    return str(n) if n <= COUNT_CAP else f"{COUNT_CAP}+"


def _bucket_signed(n: int) -> str:
    if n > COUNT_CAP:
        return f"{COUNT_CAP}+"
    if n < -COUNT_CAP:
        return f"-{COUNT_CAP}+"
    return str(n)


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
        self.nodes: list[ParseNode] = []
        stack = [(root, None, 0)]
        while stack:
            node, parent, depth = stack.pop()
            self.nodes.append(node)
            self.parent[id(node)] = parent
            self.depth[id(node)] = depth
            for child in node.children:
                stack.append((child, node, depth + 1))

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
        exact = [n for n in self.nodes if n.span == span]
        if exact:
            return min(exact, key=lambda n: self.depth[id(n)])
        partial = [n for n in self.nodes
                   if span.contains(n.span) and n.span.start == span.start]
        if partial:
            return min(partial, key=lambda n: (-len(n.span), self.depth[id(n)]))
        return None

    def chain_to_token(self, index: int) -> list[ParseNode]:
        """Phrase nodes containing the token, outermost first."""
        chain = []
        node = self.root
        tok = Span(index, index)
        while node is not None and node.span.contains(tok):
            chain.append(node)
            node = next((c for c in node.children if c.span.contains(tok)), None)
        return chain


class _SentenceContext:
    """What every candidate of one sentence shares, worked out once."""

    def __init__(self, spool: SentencePool, sentence: Sentence, system_ids: Sequence[str]):
        self.spool = spool
        self.sentence = sentence
        tokens = sentence.tokens
        self.chunks = [(kind, Span(s, e)) for kind, s, e in decode_bio([t.chunk for t in tokens])]
        self.nes = [(kind, Span(s, e)) for kind, s, e in decode_bio([t.ne for t in tokens])]
        self.clauses = [Span(s, e) for s, e in clause_intervals([t.clause for t in tokens])]
        self.parse = _ParseIndex(sentence.parse) if sentence.parse is not None else None
        self.token_events = []
        for tok in sentence.tokens:
            opens, closes = clause_events(tok.clause)
            self.token_events.append([f"({lab}" for lab in opens] + [f"{lab})" for lab in closes])
        by_pred: dict = {p: [] for p in range(len(spool.predicates))}
        for c in spool.candidates:
            by_pred[c.predicate].append(c)
        # (start, end, votes, key) of the candidates of each predicate, and of
        # those of all other predicates
        self.rows = {p: [(c.span.start, c.span.end, c.votes, c.key) for c in cands]
                     for p, cands in by_pred.items()}
        self.other_rows = {p: [row for q, rows in self.rows.items() if q != p for row in rows]
                           for p in self.rows}
        self.sequences: dict = {}
        for p, (pos, _lemma) in enumerate(spool.predicates):
            for sid in system_ids:
                entries = [(Span(pos, pos), "V")]
                entries += [(c.span, c.label.text) for c in by_pred[p] if sid in c.votes]
                entries.sort(key=lambda e: (e[0].start, e[0].end, e[1]))
                self.sequences[(sid, p)] = "-".join(label for _, label in entries)

    def clause_depth(self, span: Span) -> int:
        return sum(1 for cs in self.clauses if cs.contains(span))

    def clause_boundary_seq(self, lo: int, hi: int) -> list[str]:
        return [event for events in self.token_events[lo:hi + 1] for event in events]


class FeatureExtractor:
    """Extracts the enabled feature groups for candidates of a pool."""

    def __init__(self, config: Optional[FeatureConfig] = None,
                 space: Optional[FeatureSpace] = None):
        self.config = config or FeatureConfig()
        self.space = space or FeatureSpace()

    def extract_pool(self, pool: CandidatePool,
                     sentences: Optional[Sequence[Sentence]] = None,
                     intervals: Optional[IntervalTable] = None) -> CandidatePool:
        if sentences is None:
            sentences = [self._skeleton(sp) for sp in pool.sentences]
        if len(sentences) != len(pool.sentences):
            raise ValueError("need one sentence per pool sentence")
        per_sentence = []
        for spool, sentence in zip(pool.sentences, sentences):
            ctx = _SentenceContext(spool, sentence, pool.system_ids)
            per_sentence.append([
                Candidate(c.sentence_id, c.argument, c.votes, c.raw_scores, c.probs,
                          self._extract(c, ctx, pool.system_ids, intervals), c.is_gold)
                for c in spool.candidates])
        return pool.with_candidates(per_sentence)

    def extract(self, candidate: Candidate, spool: SentencePool, sentence: Sentence,
                intervals: Optional[IntervalTable] = None,
                system_ids: Optional[Sequence[str]] = None) -> tuple[int, ...]:
        ids = system_ids or sorted({s for c in spool.candidates for s in c.votes})
        ctx = _SentenceContext(spool, sentence, ids)
        return self._extract(candidate, ctx, ids, intervals)

    @staticmethod
    def _skeleton(spool: SentencePool) -> Sentence:
        args = tuple(
            (Argument(p, V_LABEL, Span(pos, pos)),)
            for p, (pos, _lemma) in enumerate(spool.predicates))
        doc = PropsDocument((PropsSentence(spool.n_tokens, spool.predicates, args),))
        sent = skeleton_sentences(doc)[0]
        return Sentence(spool.sentence_id, sent.tokens)

    # -- group extractors ---------------------------------------------------

    def _extract(self, cand: Candidate, ctx: _SentenceContext,
                 system_ids: Sequence[str], intervals: Optional[IntervalTable]) -> tuple[int, ...]:
        names: list[str] = []
        groups = self.config.groups
        if "FS1" in groups:
            self._fs1(names, cand, ctx)
        if "FS2" in groups:
            self._overlaps(names, "fs2", cand, ctx.rows[cand.predicate])
        if "FS3" in groups:
            self._overlaps(names, "fs3", cand, ctx.other_rows[cand.predicate])
        if "FS4" in groups:
            self._fs4(names, cand, ctx)
        if "FS5" in groups:
            self._fs5(names, cand, ctx)
        if "FS6" in groups:
            probs = dict(cand.probs)
            for sid in system_ids:
                p = probs.get(sid)
                idx = None if p is None else discretize(p, sid, cand.label.text, intervals)
                names.append(f"fs6:{sid}={'none' if idx is None else idx}")
        return self.space.ids(sorted(set(names)))

    def _fs1(self, names: list, cand: Candidate, ctx: _SentenceContext) -> None:
        names.append(f"fs1:label={cand.label.text}")
        names.append(f"fs1:numsys={_bucket(len(cand.votes))}")
        for sid in sorted(cand.votes):
            names.append(f"fs1:sys={sid}")
            names.append(f"fs1:seq:{sid}={ctx.sequences[(sid, cand.predicate)]}")

    def _overlaps(self, names: list, prefix: str, cand: Candidate, rows: list) -> None:
        """Votes of the other candidates in ``rows`` by how their span relates
        to the candidate's: equal, inside it, around it or crossing it."""
        buckets = {"samespan": set(), "within": set(), "contains": set(), "crosses": set()}
        start, end = cand.span.start, cand.span.end
        for o_start, o_end, votes, key in rows:
            if o_end < start or end < o_start:
                continue
            if o_start == start and o_end == end:
                if key != cand.key:
                    buckets["samespan"] |= votes
            elif start <= o_start and o_end <= end:
                buckets["within"] |= votes
            elif o_start <= start and end <= o_end:
                buckets["contains"] |= votes
            else:
                buckets["crosses"] |= votes
        for name, votes in buckets.items():
            names.append(f"{prefix}:{name}:n={_bucket(len(votes))}")
            for sid in sorted(votes):
                names.append(f"{prefix}:{name}:sys={sid}")

    def _fs4(self, names: list, cand: Candidate, ctx: _SentenceContext) -> None:
        span = cand.span
        pidx = ctx.spool.predicates[cand.predicate][0]

        names.append(f"fs4:toklen={_bucket(len(span))}")
        inside = [(t, s) for t, s in ctx.chunks if span.contains(s)]
        names.append(f"fs4:chunklen={_bucket(len(inside))}")
        _sequence_features(names, "fs4:chunkseq", [t for t, _ in inside])
        _sequence_features(names, "fs4:clauseseq",
                           ctx.clause_boundary_seq(span.start, span.end))
        for ne_type, ne_span in ctx.nes:
            if span.contains(ne_span):
                names.append(f"fs4:ne={ne_type}")

        if span.end < pidx:
            position, lo, hi = "before", span.end + 1, pidx - 1
        elif span.start > pidx:
            position, lo, hi = "after", pidx + 1, span.start - 1
        else:
            position, lo, hi = "covers", 0, -1
        names.append(f"fs4:position={position}")
        names.append(f"fs4:adjacent={str(span.end + 1 == pidx or pidx + 1 == span.start).lower()}")

        between = [t for t, s in ctx.chunks if lo <= s.start and s.end <= hi] if lo <= hi else []
        _sequence_features(names, "fs4:chunkseq_between", between)
        names.append(f"fs4:nchunks_between={_bucket(len(between))}")
        _sequence_features(names, "fs4:clauseseq_between",
                           ctx.clause_boundary_seq(lo, hi))
        sub = ctx.clause_depth(span) - ctx.clause_depth(Span(pidx, pidx))
        names.append(f"fs4:clausesub={_bucket_signed(sub)}")

    def _fs5(self, names: list, cand: Candidate, ctx: _SentenceContext) -> None:
        if ctx.parse is None:
            names.append("fs5:parse_absent")
            return
        span = cand.span
        pidx = ctx.spool.predicates[cand.predicate][0]
        sentence = ctx.sentence

        # surface distances need no tree node
        if span.end < pidx:
            lo, hi = span.end + 1, pidx - 1
        elif span.start > pidx:
            lo, hi = pidx + 1, span.start - 1
        else:
            lo, hi = 0, -1
        gap = sentence.tokens[lo:hi + 1] if lo <= hi else ()
        names.append(f"fs5:sdist_tok={_bucket(len(gap))}")
        names.append(f"fs5:sdist_vb={_bucket(sum(1 for t in gap if t.pos.startswith('VB')))}")
        names.append(f"fs5:sdist_comma={_bucket(sum(1 for t in gap if t.form == ','))}")
        names.append(f"fs5:sdist_cc={_bucket(sum(1 for t in gap if t.pos == 'CC'))}")
        names.append(f"fs5:sdist_adj={str(span.end + 1 == pidx or pidx + 1 == span.start).lower()}")

        node = ctx.parse.map_span(span)
        if node is None:
            names.append("fs5:unmapped")
            return
        names.append(f"fs5:label={node.label}")

        up_chain = ctx.parse.ancestors(node)
        pred_span = Span(pidx, pidx)
        common_i = next(i for i, n in enumerate(up_chain) if n.span.contains(pred_span))
        up_nodes = up_chain[:common_i + 1]          # node .. common ancestor
        ancestor = up_nodes[-1]
        down_nodes = [n for n in ctx.parse.chain_to_token(pidx)
                      if ctx.parse.depth[id(n)] > ctx.parse.depth[id(ancestor)]]
        pred_pos = sentence.tokens[pidx].pos
        labels = [n.label for n in up_nodes] + [n.label for n in down_nodes] + [pred_pos]
        seps = ["^"] * (len(up_nodes) - 1) + ["_"] * (len(down_nodes) + 1)
        path = labels[0] + "".join(s + lab for s, lab in zip(seps, labels[1:]))
        names.append(f"fs5:path={path}")
        names.append(f"fs5:pathlen={_bucket(len(labels))}")

        up_labels = labels[1:len(up_nodes)]          # strictly above the node, incl. ancestor
        down_labels = labels[len(up_nodes):]         # below the ancestor, incl. the POS
        for scope, part in (("", labels), ("_up", up_labels), ("_down", down_labels)):
            names.append(f"fs5:clauses{scope}={_bucket(sum(1 for l in part if l.startswith('S')))}")
            names.append(f"fs5:vps{scope}={_bucket(sum(1 for l in part if l == 'VP'))}")

        if len(labels) > PATH_THRESHOLD:
            arg_l, anc_l, pred_l = labels[0], ancestor.label, labels[-1]
            for mid in [n.label for n in down_nodes]:
                names.append(f"fs5:gpath_a={arg_l}^{anc_l}_{mid}_{pred_l}")
            for mid in [n.label for n in up_nodes[1:-1]]:
                names.append(f"fs5:gpath_b={arg_l}^{mid}^{anc_l}_{pred_l}")

        pred_chain = ctx.parse.chain_to_token(pidx)
        pred_node = pred_chain[-1] if pred_chain else ctx.parse.root
        sub = ctx.parse.depth[id(node)] - ctx.parse.depth[id(pred_node)]
        names.append(f"fs5:subsump={_bucket_signed(sub)}")

        gov = "none"
        for anc in up_chain[1:]:
            if anc.label == "VP":
                gov = "VP"
                break
            if anc.label.startswith("S"):
                gov = "S"
                break
        names.append(f"fs5:gov={gov}")
