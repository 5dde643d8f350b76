"""Core domain types shared by every stage of the combination pipeline.

Spans, role labels, annotated sentences, candidate arguments, solutions,
and the constraint rules (c1..c6) that a consistent predicate-argument
structure must satisfy.  Everything here is immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import math
import re
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator, NamedTuple, Optional, Sequence


# sets a field of a frozen dataclass instance, as a generated __init__ does;
# a written-out __init__ that calls it saves looking it up for every field
set_frozen_field = object.__setattr__


# ---------------------------------------------------------------------------
# Spans


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """Inclusive token interval: ``start`` and ``end`` both index tokens."""

    start: int
    end: int
    # hash((start, end)), the generated hash, computed once: every key that
    # scores, pools and gold sets look up holds a span
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"span start must be >= 0, got {self.start}")
        if self.end < self.start:
            raise ValueError(f"span end {self.end} precedes start {self.start}")
        set_frozen_field(self, "_hash", hash((self.start, self.end)))

    def __hash__(self) -> int:
        return self._hash

    def __len__(self) -> int:
        return self.end - self.start + 1

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end

    def intersects(self, other: "Span") -> bool:
        return self.start <= other.end and other.start <= self.end


# ---------------------------------------------------------------------------
# Role labels


class LabelKind(Enum):
    VERB = "verb"
    CORE = "core"
    ADJUNCT = "adjunct"
    REFERENCE = "reference"
    CONTINUATION = "continuation"


_CORE_RE = re.compile(r"^A([0-5])$")
_ADJUNCT_RE = re.compile(r"^AM(?:-[A-Za-z]+)?$")

# valid label texts parsed so far; a corpus uses a few dozen, and the bound
# keeps hostile input from growing the cache without limit
_LABEL_CACHE: dict = {}
_LABEL_CACHE_MAX = 4096


@dataclass(frozen=True, order=True)
class RoleLabel:
    """A role label: V, core A0-A5, adjunct AM-*, or R-/C- prefixed variants.

    ``base`` carries the referred label text for R-/C- kinds, e.g. R-AM-TMP
    is a reference with base AM-TMP.
    """

    text: str
    kind: LabelKind = field(compare=False)
    base: Optional[str] = field(default=None, compare=False)

    @classmethod
    def parse(cls, text: str) -> "RoleLabel":
        """The label a text names; a text that names none raises ValueError.
        Valid texts are memoised, errors never are."""
        label = _LABEL_CACHE.get(text)
        if label is None:
            label = cls._parse(text)
            if len(_LABEL_CACHE) < _LABEL_CACHE_MAX:
                _LABEL_CACHE[text] = label
        return label

    @classmethod
    def _parse(cls, text: str) -> "RoleLabel":
        if text == "V":
            return cls(text, LabelKind.VERB)
        if _CORE_RE.match(text):
            return cls(text, LabelKind.CORE)
        if _ADJUNCT_RE.match(text):
            return cls(text, LabelKind.ADJUNCT)
        for prefix, kind in (("R-", LabelKind.REFERENCE), ("C-", LabelKind.CONTINUATION)):
            if text.startswith(prefix):
                base = text[len(prefix):]
                base_label = cls.parse(base)
                if base_label.kind in (LabelKind.REFERENCE, LabelKind.CONTINUATION, LabelKind.VERB):
                    raise ValueError(f"role {text!r}: base {base!r} may not itself be R-/C-/V")
                return cls(text, kind, base)
        raise ValueError(f"unknown role label {text!r}")

    @property
    def core_index(self) -> Optional[int]:
        m = _CORE_RE.match(self.text)
        return int(m.group(1)) if m else None

    def is_scored(self) -> bool:
        """Verb pseudo-arguments are stored but excluded from P/R/F1."""
        return self.kind is not LabelKind.VERB

    def __str__(self) -> str:
        return self.text


V_LABEL = RoleLabel.parse("V")


# ---------------------------------------------------------------------------
# Sentences


@dataclass(frozen=True, slots=True)
class Token:
    index: int
    form: str
    pos: str = "XX"
    chunk: str = "O"   # B-I-O chunk tag
    clause: str = "*"  # bracket tag, e.g. "(S*", "*S)", "(S*S)"
    ne: str = "O"      # B-I-O named-entity tag


@dataclass(frozen=True)
class ParseNode:
    """Phrase-structure node; children are ordered, disjoint, and contained."""

    label: str
    span: Span
    children: tuple["ParseNode", ...] = ()

    def __post_init__(self) -> None:
        prev_end = self.span.start - 1
        for child in self.children:
            if child.span.start <= prev_end:
                raise ValueError("parse children must be ordered and disjoint")
            if not self.span.contains(child.span):
                raise ValueError("parse child escapes parent span")
            prev_end = child.span.end

    def walk(self) -> Iterator["ParseNode"]:
        yield self
        for child in self.children:
            yield from child.walk()


class TagError(ValueError):
    """A damaged syntax tag or clause bracket; ``token`` indexes its token."""

    def __init__(self, token: int, reason: str):
        self.token, self.reason = token, reason
        super().__init__(f"token {token}: {reason}")


def decode_bio(tags: Sequence[str], what: str) -> tuple[tuple[str, int, int], ...]:
    """The (type, start, end) chunks of a B-I-O column of ``what`` tags.  A
    tag that is not O, B-X or I-X, or an I-X that continues no X, raises
    TagError."""
    out = []
    kind, start = None, 0        # the open chunk, if kind is not None
    for i, tag in enumerate(tags):
        if tag == "O":
            if kind is not None:
                out.append((kind, start, i - 1))
                kind = None
            continue
        mark, sep, tag_kind = tag.partition("-")
        if mark == "I" and sep and tag_kind:
            if tag_kind != kind:
                raise TagError(i, f"{what} tag {tag!r} continues nothing")
            continue
        if mark != "B" or not sep or not tag_kind:
            raise TagError(i, f"malformed {what} tag {tag!r}")
        if kind is not None:
            out.append((kind, start, i - 1))
        kind, start = tag_kind, i
    if kind is not None:
        out.append((kind, start, len(tags) - 1))
    return tuple(out)


_CLAUSE_CELL_RE = re.compile(r"^((?:\([A-Z0-9]+)*)\*((?:[A-Z0-9]+\))*)$")

# valid clause tags split so far; a corpus uses a handful, and the bound keeps
# hostile input from growing the cache without limit
_CLAUSE_CACHE: dict = {}
_CLAUSE_CACHE_MAX = 4096


def clause_events(tag: str) -> tuple[str, ...]:
    """The clauses a bracket tag opens, then those it closes, as sequence
    elements: "(S(SBAR*S)" gives ("(S", "(SBAR", "S)").  Valid tags are
    memoised, errors never are."""
    events = _CLAUSE_CACHE.get(tag)
    if events is None:
        m = _CLAUSE_CELL_RE.match(tag)
        if not m:
            raise ValueError(f"malformed clause tag {tag!r}")
        events = (tuple("(" + part for part in m.group(1).split("(") if part)
                  + tuple(part + ")" for part in m.group(2).split(")") if part))
        if len(_CLAUSE_CACHE) < _CLAUSE_CACHE_MAX:
            _CLAUSE_CACHE[tag] = events
    return events


def clause_intervals(tags: Sequence[str]) -> tuple[tuple[int, int], ...]:
    """(start, end) of each clause that a bracket column opens and closes,
    outermost first.  A malformed tag or an unbalanced bracket raises
    TagError."""
    spans = []
    stack = []
    for i, tag in enumerate(tags):
        try:
            events = clause_events(tag)
        except ValueError as exc:
            raise TagError(i, str(exc)) from exc
        for event in events:
            if event[0] == "(":
                stack.append(i)
            elif stack:
                spans.append((stack.pop(), i))
            else:
                raise TagError(i, "clause bracket closed but never opened")
    if stack:
        raise TagError(len(tags) - 1, "unclosed clause bracket")
    spans.sort(key=lambda s: (s[0], -s[1]))
    return tuple(spans)


class Syntax(NamedTuple):
    """A sentence's syntax columns, decoded: chunks and named entities as
    (type, start, end), clauses as (start, end) outermost first, and the
    ``clause_events`` of each token."""

    chunks: tuple[tuple[str, int, int], ...]
    nes: tuple[tuple[str, int, int], ...]
    clauses: tuple[tuple[int, int], ...]
    clause_events: tuple[tuple[str, ...], ...]


@dataclass(frozen=True)
class Sentence:
    """One input sentence with token-level annotations; its predicates are
    those of the props skeleton it is paired with.

    The token tags are decoded once, when the sentence is made, into the
    attributes that ``Syntax`` names: ``chunks``, ``nes``, ``clauses`` and
    ``clause_events``.  The tags determine them, so they are no fields and
    take no part in equality or hashing.  Damaged tags raise TagError,
    checked column by column: chunks, named entities, then clauses."""

    id: int
    tokens: tuple[Token, ...]
    parse: Optional[ParseNode] = None

    def __post_init__(self) -> None:
        if self.parse is not None and self.tokens and self.parse.span.end >= len(self.tokens):
            raise ValueError("parse tree exceeds sentence length")
        tokens = self.tokens
        set_frozen_field(self, "chunks", decode_bio([t.chunk for t in tokens], "chunk"))
        set_frozen_field(self, "nes", decode_bio([t.ne for t in tokens], "named-entity"))
        tags = [t.clause for t in tokens]
        set_frozen_field(self, "clauses", clause_intervals(tags))
        set_frozen_field(self, "clause_events", tuple(map(clause_events, tags)))

    def __len__(self) -> int:
        return len(self.tokens)


# ---------------------------------------------------------------------------
# Arguments, candidates, solutions


@dataclass(frozen=True, order=True, slots=True)
class Argument:
    """One labeled argument span of one predicate (``predicate`` indexes
    ``PropsSentence.predicates``)."""

    predicate: int
    label: RoleLabel
    span: Span


CandidateKey = tuple[int, int, str, Span]

_value = itemgetter(1)      # the value of a (system, value) pair
_key = attrgetter("key")    # a candidate's stored key


@dataclass(frozen=True, init=False)
class Candidate:
    """One pooled argument hypothesis with its per-system evidence.

    ``raw_scores`` and ``probs`` are stored as sorted (system, value) pairs so
    the candidate stays hashable; both may only mention voting systems.  A
    system that did not propose the argument contributes probability 0.
    ``features`` are the strictly increasing ids ``FeatureSpace.ids`` gives.
    ``key``, the (sentence id, predicate, label text, span) tuple that
    solutions, decoding and learning key candidates by, is stored when the
    candidate is made; the fields determine it, so it is no field of its own
    and takes no part in equality or hashing.
    """

    sentence_id: int
    argument: Argument
    votes: frozenset
    raw_scores: tuple[tuple[str, float], ...] = ()
    probs: tuple[tuple[str, float], ...] = ()
    features: Optional[tuple[int, ...]] = None
    is_gold: Optional[bool] = None

    def __init__(self, sentence_id: int, argument: Argument, votes: frozenset,
                 raw_scores: Iterable[tuple[str, float]] = (),
                 probs: Iterable[tuple[str, float]] = (),
                 features: Optional[tuple[int, ...]] = None,
                 is_gold: Optional[bool] = None) -> None:
        """The checked constructor, for every caller that cannot vouch for
        its fields; it stores ``raw_scores`` and ``probs`` sorted."""
        if not votes:
            raise ValueError("candidate must carry at least one vote")
        # a tuple already in order is kept, so that copies share their pairs
        ordered = tuple(sorted(raw_scores))
        raw_scores = raw_scores if ordered == raw_scores else ordered
        for sys_id, _ in raw_scores:
            if sys_id not in votes:
                raise ValueError(f"raw score for non-voting system {sys_id!r}")
        ordered = tuple(sorted(probs))
        probs = probs if ordered == probs else ordered
        for sys_id, p in probs:
            if sys_id not in votes:
                raise ValueError(f"probability for non-voting system {sys_id!r}")
            if not 0.0 <= p <= 1.0:
                raise ValueError(f"probability {p} out of [0, 1]")
        set_frozen_field(self, "sentence_id", sentence_id)
        set_frozen_field(self, "argument", argument)
        set_frozen_field(self, "votes", votes)
        set_frozen_field(self, "raw_scores", raw_scores)
        set_frozen_field(self, "probs", probs)
        set_frozen_field(self, "features", features)
        set_frozen_field(self, "is_gold", is_gold)
        set_frozen_field(self, "key", (sentence_id, argument.predicate, argument.label.text,
                                       argument.span))

    @classmethod
    def _trusted(cls, sentence_id: int, argument: Argument, votes: frozenset,
                 raw_scores: tuple[tuple[str, float], ...],
                 probs: tuple[tuple[str, float], ...], features: Optional[tuple[int, ...]],
                 is_gold: Optional[bool], key: CandidateKey) -> "Candidate":
        """A candidate with its fields as given, without the checks and sorts
        of ``__init__``: for a caller that guarantees what they would
        establish.  ``raw_scores`` and ``probs`` are tuples in system order
        that mention voting systems only, each probability is in [0, 1], and
        ``key`` is the candidate's key.  Writing the instance dict directly
        costs about a third of what one ``set_frozen_field`` call per field
        does."""
        candidate = object.__new__(cls)
        fields = candidate.__dict__
        fields["sentence_id"] = sentence_id
        fields["argument"] = argument
        fields["votes"] = votes
        fields["raw_scores"] = raw_scores
        fields["probs"] = probs
        fields["features"] = features
        fields["is_gold"] = is_gold
        fields["key"] = key
        return candidate

    def with_features(self, features: Optional[tuple[int, ...]]) -> "Candidate":
        """This candidate with another feature vector.  No other field
        changes, so the copy sets them as they are, without the checks."""
        return Candidate._trusted(self.sentence_id, self.argument, self.votes, self.raw_scores,
                                  self.probs, features, self.is_gold, self.key)

    def with_gold(self, is_gold: Optional[bool]) -> "Candidate":
        """This candidate with another gold flag."""
        return Candidate(self.sentence_id, self.argument, self.votes, self.raw_scores,
                         self.probs, self.features, is_gold)

    def with_probs(self, probs: Iterable[tuple[str, float]]) -> "Candidate":
        """This candidate with other per-system probabilities."""
        return Candidate(self.sentence_id, self.argument, self.votes, self.raw_scores,
                         probs, self.features, self.is_gold)

    @property
    def label(self) -> RoleLabel:
        return self.argument.label

    @property
    def span(self) -> Span:
        return self.argument.span

    @property
    def predicate(self) -> int:
        return self.argument.predicate

    def prob_sum(self) -> float:
        return sum(map(_value, self.probs))


@dataclass(frozen=True)
class Solution:
    """A per-sentence subset of candidates plus the objective it achieved."""

    sentence_id: int
    selected: tuple[Candidate, ...]
    objective: float

    @classmethod
    def make(cls, sentence_id: int, selected: Iterable[Candidate], objective: float) -> "Solution":
        return cls(sentence_id, tuple(sorted(selected, key=_key)), objective)

    def keys(self) -> frozenset:
        return frozenset(map(_key, self.selected))

    def __len__(self) -> int:
        return len(self.selected)


# ---------------------------------------------------------------------------
# Constraint rules


@dataclass(frozen=True)
class ConstraintRule:
    mode: str = "off"  # off | hard | soft
    penalty: float = 0.0

    def __post_init__(self) -> None:
        if self.mode not in ("off", "hard", "soft"):
            raise ValueError(f"unknown constraint mode {self.mode!r}")
        if self.mode == "soft":
            if not 0.0 <= self.penalty < math.inf:
                raise ValueError("soft penalty must be finite and >= 0")
        elif self.penalty != 0.0:
            raise ValueError("penalty only meaningful for soft constraints")

    @property
    def active(self) -> bool:
        return self.mode != "off"

    @property
    def cost(self) -> float:
        """What breaking the rule costs: 0 when off, its penalty when soft,
        ``math.inf`` when hard."""
        return math.inf if self.mode == "hard" else self.penalty


OFF = ConstraintRule("off")
HARD = ConstraintRule("hard")


def soft(penalty: float) -> ConstraintRule:
    return ConstraintRule("soft", penalty)


# the existential rules, by the label kind they constrain
EXISTENTIAL_RULES = {LabelKind.REFERENCE: "c3", LabelKind.CONTINUATION: "c4"}

# what ``pair_rules`` returns: one of these shared tuples, in rule order
_NONE: tuple[str, ...] = ()
_C1, _C2, _C1_C2, _C5, _C6 = ("c1",), ("c2",), ("c1", "c2"), ("c5",), ("c6",)


@dataclass(frozen=True)
class ConstraintSet:
    """Which of c1..c6 are active, each either hard or soft with a penalty.

    c1: same-predicate arguments may not overlap nor embed (Equal included).
    c2: a predicate may not select two core arguments with the same label.
    c3: a selected R-X needs a selected X for the same predicate.
    c4: a selected C-X needs a selected X starting earlier, same predicate.
    c5: arguments of different predicates may not cross (embedding allowed).
    c6: two predicates may not share an identical AM-X / R-AM-X / C-X argument.
    """

    c1: ConstraintRule = OFF
    c2: ConstraintRule = OFF
    c3: ConstraintRule = OFF
    c4: ConstraintRule = OFF
    c5: ConstraintRule = OFF
    c6: ConstraintRule = OFF

    def __post_init__(self) -> None:
        # what the decoder prices on every call, computed once per set and
        # only read: the cost of each active existential rule by the label
        # kind it constrains, and the summed cost of each rule tuple that
        # ``pair_rules`` can return
        object.__setattr__(self, "existential_costs", {
            kind: self.rule(cid).cost for kind, cid in EXISTENTIAL_RULES.items()
            if self.rule(cid).active})
        object.__setattr__(self, "broken_costs", {
            rules: sum((self.rule(cid).cost for cid in rules), 0.0)
            for rules in (_C1, _C2, _C1_C2, _C5, _C6)})

    @classmethod
    def hard_rules(cls, *numbers: int) -> "ConstraintSet":
        kwargs = {f"c{n}": HARD for n in numbers}
        return cls(**kwargs)

    @classmethod
    def parse(cls, text: str) -> "ConstraintSet":
        """Parse a constraint string such as ``1+2+5+6`` or ``1+2+3:soft=0.5``."""
        kwargs = {}
        text = text.strip()
        if not text:
            return cls()
        for item in text.split("+"):
            item = item.strip()
            m = re.match(r"^([1-6])(?::soft=([0-9.eE+-]+))?$", item)
            if not m:
                raise ValueError(f"bad constraint item {item!r}")
            cid = f"c{m.group(1)}"
            if cid in kwargs:
                raise ValueError(f"constraint {cid} given twice")
            kwargs[cid] = soft(float(m.group(2))) if m.group(2) is not None else HARD
        return cls(**kwargs)

    def rule(self, cid: str) -> ConstraintRule:
        return getattr(self, cid)


# c1, c2 and c5 as hard rules: the fixed rules of the dp engine at sentence
# scope and of the greedy baselines
STRUCTURAL_RULES = ConstraintSet.hard_rules(1, 2, 5)


def _shared_arg_label(label: RoleLabel) -> bool:
    """Labels covered by c6: AM-X, R-AM-X, and C-X of any base."""
    if label.kind is LabelKind.ADJUNCT or label.kind is LabelKind.CONTINUATION:
        return True
    return label.kind is LabelKind.REFERENCE and bool(label.base) and label.base.startswith("AM")


def pair_rules(a: Candidate | Argument, b: Candidate | Argument) -> tuple[str, ...]:
    """The pairwise rules among c1, c2, c5 and c6 that selecting both ``a``
    and ``b`` breaks, whether or not a constraint set activates them.  Either
    may be a candidate or its argument, whose fields are cheaper to read.

    The result is one of a few shared tuples, in rule order, so a caller
    that asks about many pairs allocates nothing.  The test is symmetric in
    ``a`` and ``b``; ``broken_pairs`` asks it about the pairs of a sentence.
    """
    sa, sb = a.span, b.span
    if a.predicate == b.predicate:
        overlap = sa.start <= sb.end and sb.start <= sa.end
        if a.label.kind is LabelKind.CORE and a.label.text == b.label.text:
            return _C1_C2 if overlap else _C2
        return _C1 if overlap else _NONE
    if sa.end < sb.start or sb.end < sa.start:
        return _NONE
    if sa.start == sb.start and sa.end == sb.end:
        return _C6 if a.label.text == b.label.text and _shared_arg_label(a.label) else _NONE
    if sa.start <= sb.start and sb.end <= sa.end or sb.start <= sa.start and sa.end <= sb.end:
        return _NONE    # embedding
    return _C5          # crossing


def broken_pairs(items: Sequence[Candidate | Argument]) -> list[tuple[int, int, tuple[str, ...]]]:
    """Every (i, j, rules) with i > j, in ascending order, whose pair breaks
    the rules ``pair_rules`` names.  Only a pair whose spans overlap, since
    c1, c5 and c6 all need an overlap, or of one predicate with the same
    core label, which c2 needs, can break one, so only those pairs are
    asked about.

    A sweep over the spans in start order pairs each span with the later
    starts up to its end, which are exactly the spans that overlap it."""
    starts = [a.span.start for a in items]
    order = sorted(range(len(items)), key=starts.__getitem__)
    ordered = sorted(starts)
    found = []
    cores: dict = {}    # (predicate, core label) -> its indices in start order
    for p, i in enumerate(order):
        a = items[i]
        partners = order[p + 1:bisect_right(ordered, a.span.end, p + 1)]
        if a.label.kind is LabelKind.CORE:
            same = cores.setdefault((a.predicate, a.label.text), [])
            for j in same:      # the overlapping ones are partners already
                if items[j].span.end < starts[i]:
                    partners.append(j)
            same.append(i)
        for j in partners:
            rules = pair_rules(a, items[j])
            if rules:
                found.append((i, j, rules) if i > j else (j, i, rules))
    found.sort()
    return found


def licenses(base: Candidate | Argument, dependent: Candidate | Argument) -> bool:
    """Whether selecting ``base`` satisfies c3 or c4 for ``dependent``: an
    R-X needs an X of the same predicate, a C-X one that starts earlier."""
    return (base.predicate == dependent.predicate
            and base.label.text == dependent.label.base
            and (dependent.label.kind is not LabelKind.CONTINUATION
                 or base.span.start < dependent.span.start))
