"""Core domain types shared by every stage of the combination pipeline.

Spans, role labels, annotated sentences, candidate arguments, solutions,
and the constraint rules (c1..c6) that a consistent predicate-argument
structure must satisfy.  Everything here is immutable after construction
and safe to share across threads.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Iterator, Optional, Sequence


class StructureError(ValueError):
    """A solution references candidates that do not belong to the sentence."""


# ---------------------------------------------------------------------------
# Spans


class SpanRelation(Enum):
    EQUAL = "equal"
    DISJOINT = "disjoint"
    A_CONTAINS_B = "a_contains_b"
    B_CONTAINS_A = "b_contains_a"
    CROSSING = "crossing"


@dataclass(frozen=True, order=True, slots=True)
class Span:
    """Inclusive token interval: ``start`` and ``end`` both index tokens."""

    start: int
    end: int

    def __post_init__(self) -> None:
        if self.start < 0:
            raise ValueError(f"span start must be >= 0, got {self.start}")
        if self.end < self.start:
            raise ValueError(f"span end {self.end} precedes start {self.start}")

    def __len__(self) -> int:
        return self.end - self.start + 1

    def contains(self, other: "Span") -> bool:
        return self.start <= other.start and other.end <= self.end

    def intersects(self, other: "Span") -> bool:
        return self.start <= other.end and other.start <= self.end


def span_relation(a: Span, b: Span) -> SpanRelation:
    """Classify two spans; exactly one relation holds for any pair."""
    if a == b:
        return SpanRelation.EQUAL
    if not a.intersects(b):
        return SpanRelation.DISJOINT
    if a.contains(b):
        return SpanRelation.A_CONTAINS_B
    if b.contains(a):
        return SpanRelation.B_CONTAINS_A
    return SpanRelation.CROSSING


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


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class Sentence:
    """One input sentence with token-level annotations and its predicates."""

    id: int
    tokens: tuple[Token, ...]
    predicates: tuple[tuple[int, str], ...] = ()
    parse: Optional[ParseNode] = None

    def __post_init__(self) -> None:
        last = -1
        for idx, _lemma in self.predicates:
            if idx <= last:
                raise ValueError("predicate indices must be strictly increasing")
            if idx >= len(self.tokens):
                raise ValueError(f"predicate index {idx} out of range")
            last = idx
        if self.parse is not None and self.tokens and self.parse.span.end >= len(self.tokens):
            raise ValueError("parse tree exceeds sentence length")

    def __len__(self) -> int:
        return len(self.tokens)

    def chunks(self) -> list[tuple[str, Span]]:
        return [(kind, Span(start, end))
                for kind, start, end in decode_bio([t.chunk for t in self.tokens])]

    def named_entities(self) -> list[tuple[str, Span]]:
        return [(kind, Span(start, end))
                for kind, start, end in decode_bio([t.ne for t in self.tokens])]

    def clause_spans(self) -> list[Span]:
        """Clause intervals decoded from the bracket column, outermost first."""
        return [Span(start, end)
                for start, end in clause_intervals([t.clause for t in self.tokens])]


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


# ---------------------------------------------------------------------------
# Arguments, candidates, solutions


@dataclass(frozen=True, order=True, slots=True)
class Argument:
    """One labeled argument span of one predicate (``predicate`` indexes
    ``Sentence.predicates``)."""

    predicate: int
    label: RoleLabel
    span: Span


@dataclass(frozen=True)
class FeatureVector:
    """Sparse binary feature vector: a strictly increasing tuple of interned
    feature ids.  The ids are taken as given: ``FeatureSpace.ids`` returns
    them so, and a model file's rows are checked as they are read."""

    ids: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.ids)


CandidateKey = tuple[int, int, str, Span]


def _checked_probs(votes: frozenset, probs: Iterable[tuple[str, float]]) -> tuple:
    """``probs`` as sorted (system, probability) pairs, each of a voting
    system and within [0, 1]."""
    probs = tuple(sorted(probs))
    for sys_id, p in probs:
        if sys_id not in votes:
            raise ValueError(f"probability for non-voting system {sys_id!r}")
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"probability {p} out of [0, 1]")
    return probs


@dataclass(frozen=True)
class Candidate:
    """One pooled argument hypothesis with its per-system evidence.

    ``raw_scores`` and ``probs`` are stored as sorted (system, value) pairs so
    the candidate stays hashable; both may only mention voting systems.  A
    system that did not propose the argument contributes probability 0.
    """

    sentence_id: int
    argument: Argument
    votes: frozenset
    raw_scores: tuple[tuple[str, float], ...] = ()
    probs: tuple[tuple[str, float], ...] = ()
    features: Optional[FeatureVector] = None
    is_gold: Optional[bool] = None

    def __post_init__(self) -> None:
        if not self.votes:
            raise ValueError("candidate must carry at least one vote")
        object.__setattr__(self, "raw_scores", tuple(sorted(self.raw_scores)))
        for sys_id, _ in self.raw_scores:
            if sys_id not in self.votes:
                raise ValueError(f"raw score for non-voting system {sys_id!r}")
        object.__setattr__(self, "probs", _checked_probs(self.votes, self.probs))

    @classmethod
    def make(
        cls,
        sentence_id: int,
        argument: Argument,
        votes: Iterable[str],
        raw_scores: Optional[dict] = None,
        probs: Optional[dict] = None,
        features: Optional[FeatureVector] = None,
        is_gold: Optional[bool] = None,
    ) -> "Candidate":
        return cls(
            sentence_id=sentence_id,
            argument=argument,
            votes=frozenset(votes),
            raw_scores=tuple((raw_scores or {}).items()),
            probs=tuple((probs or {}).items()),
            features=features,
            is_gold=is_gold,
        )

    def with_features(self, features: Optional[FeatureVector]) -> "Candidate":
        """This candidate with another feature vector."""
        return self._copy(self.probs, features, self.is_gold)

    def with_gold(self, is_gold: Optional[bool]) -> "Candidate":
        """This candidate with another gold flag."""
        return self._copy(self.probs, self.features, is_gold)

    def with_probs(self, probs: Iterable[tuple[str, float]]) -> "Candidate":
        """This candidate with other per-system probabilities, checked as
        ``__init__`` checks them."""
        return self._copy(_checked_probs(self.votes, probs), self.features, self.is_gold)

    def _copy(self, probs, features, is_gold) -> "Candidate":
        """This candidate with the given last three fields.  The others were
        checked when this one was built, so the copy skips the checks.  It
        sets each field as ``__init__`` does: copying ``__dict__`` would
        make attribute reads on both candidates slower."""
        copy = object.__new__(type(self))
        set_field = object.__setattr__
        set_field(copy, "sentence_id", self.sentence_id)
        set_field(copy, "argument", self.argument)
        set_field(copy, "votes", self.votes)
        set_field(copy, "raw_scores", self.raw_scores)
        set_field(copy, "probs", probs)
        set_field(copy, "features", features)
        set_field(copy, "is_gold", is_gold)
        return copy

    @property
    def key(self) -> CandidateKey:
        a = self.argument
        return (self.sentence_id, a.predicate, a.label.text, a.span)

    @property
    def label(self) -> RoleLabel:
        return self.argument.label

    @property
    def span(self) -> Span:
        return self.argument.span

    @property
    def predicate(self) -> int:
        return self.argument.predicate

    def raw_score(self, system: str) -> Optional[float]:
        for sys_id, v in self.raw_scores:
            if sys_id == system:
                return v
        return None

    def prob_sum(self) -> float:
        return sum(v for _, v in self.probs)


@dataclass(frozen=True)
class Solution:
    """A per-sentence subset of candidates plus the objective it achieved."""

    sentence_id: int
    selected: tuple[Candidate, ...]
    objective: float

    @classmethod
    def make(cls, sentence_id: int, selected: Iterable[Candidate], objective: float) -> "Solution":
        return cls(sentence_id, tuple(sorted(selected, key=lambda c: c.key)), objective)

    def keys(self) -> frozenset:
        return frozenset(c.key for c in self.selected)

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
            if not self.penalty >= 0.0 or self.penalty != self.penalty or self.penalty == float("inf"):
                raise ValueError("soft penalty must be finite and >= 0")
        elif self.penalty != 0.0:
            raise ValueError("penalty only meaningful for soft constraints")

    @property
    def active(self) -> bool:
        return self.mode != "off"


OFF = ConstraintRule("off")
HARD = ConstraintRule("hard")


def soft(penalty: float) -> ConstraintRule:
    return ConstraintRule("soft", penalty)


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


@dataclass(frozen=True)
class Violation:
    constraint: str
    candidates: tuple[Candidate, ...]
    hard: bool
    penalty: float = 0.0


def _shared_arg_label(label: RoleLabel) -> bool:
    """Labels covered by c6: AM-X, R-AM-X, and C-X of any base."""
    if label.kind is LabelKind.ADJUNCT or label.kind is LabelKind.CONTINUATION:
        return True
    return label.kind is LabelKind.REFERENCE and bool(label.base) and label.base.startswith("AM")


_NONE: tuple[str, ...] = ()
_C1, _C2, _C1_C2, _C5, _C6 = ("c1",), ("c2",), ("c1", "c2"), ("c5",), ("c6",)


def pair_rules(a: Candidate | Argument, b: Candidate | Argument) -> tuple[str, ...]:
    """The pairwise rules among c1, c2, c5 and c6 that selecting both ``a``
    and ``b`` breaks, whether or not a constraint set activates them.  Either
    may be a candidate or its argument, whose fields are cheaper to read.

    The result is one of a few shared tuples, in rule order, so the caller's
    per-pair loop allocates nothing.  The test is symmetric in ``a`` and ``b``.
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


# the existential rules, by the label kind they constrain
EXISTENTIAL_RULES = {LabelKind.REFERENCE: "c3", LabelKind.CONTINUATION: "c4"}


def licenses(base: Candidate | Argument, dependent: Candidate | Argument) -> bool:
    """Whether selecting ``base`` satisfies c3 or c4 for ``dependent``: an
    R-X needs an X of the same predicate, a C-X one that starts earlier."""
    return (base.predicate == dependent.predicate
            and base.label.text == dependent.label.base
            and (dependent.label.kind is not LabelKind.CONTINUATION
                 or base.span.start < dependent.span.start))


def enumerate_violations(selected: Sequence[Candidate], cs: ConstraintSet) -> list[Violation]:
    """List every countable constraint violation in a candidate selection.

    Pairwise constraints (c1, c2, c5, c6) yield one violation per offending
    pair; c3 and c4 yield one per unsupported R-/C- candidate.  Soft
    violations carry their penalty; hard ones make the selection invalid.
    """
    cands = sorted(selected, key=lambda c: c.key)
    out: list[Violation] = []

    def emit(cid: str, members: tuple[Candidate, ...]) -> None:
        rule = cs.rule(cid)
        out.append(Violation(cid, members, rule.mode == "hard",
                             rule.penalty if rule.mode == "soft" else 0.0))

    for i in range(len(cands)):
        for j in range(i + 1, len(cands)):
            for cid in pair_rules(cands[i], cands[j]):
                if cs.rule(cid).active:
                    emit(cid, (cands[i], cands[j]))
    for kind, cid in EXISTENTIAL_RULES.items():
        if cs.rule(cid).active:
            for c in cands:
                if c.label.kind is kind and not any(licenses(o, c) for o in cands):
                    emit(cid, (c,))
    return out


def validate(solution: Solution, cs: ConstraintSet, sentence: Sentence) -> list[Violation]:
    """Check a solution against a constraint set.

    Raises StructureError when a candidate does not belong to the sentence.
    The returned list is empty iff the solution satisfies every hard
    constraint and incurs no soft penalty; callers that only care about
    validity should filter on ``Violation.hard``.
    """
    for c in solution.selected:
        if c.sentence_id != sentence.id:
            raise StructureError(
                f"candidate {c.key} belongs to sentence {c.sentence_id}, not {sentence.id}")
        if c.predicate >= len(sentence.predicates):
            raise StructureError(f"candidate {c.key} names unknown predicate {c.predicate}")
        if sentence.tokens and c.span.end >= len(sentence.tokens):
            raise StructureError(f"candidate {c.key} exceeds sentence length")
    return enumerate_violations(solution.selected, cs)

