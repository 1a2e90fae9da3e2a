"""The principle catalog and the node grammar: the one parser and the one
printer of node text "FAMILY[:TAG]:CLASS[:CLASS2]", e.g. "DNE:S1",
"DML:S2:P2", "LEM:DPI:D1", where TAG (DSI, DPI) names a Delta variant.

A class literal is S<k>, P<k> or D<k> (the existential-leading,
universal-leading and equivalence-premise classes at level k), optionally
prefixed by "n" or "nn" (negated, doubly negated); class literals are
ordered by inclusion (class_lit_subset, class_lit_covers).  Rule patterns
may write the level as (k), (k-1), (k+2), ...  A single class on a binary family
abbreviates the diagonal ("DML:S1" is "DML:S1:S1").  The canonical form
writes P0 as S0 and sorts the arguments of the symmetric families.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache

__all__ = [
    "PLAIN", "DELTA_SIGMA", "DELTA_PI", "CATALOG", "FAMILIES",
    "PrincipleId", "ClassLit", "Node", "NodePat",
    "SchemaError", "UnknownFamily", "ArityMismatch",
    "principle", "parse_class_literal", "format_class_literal", "canonical_node",
    "class_lit_subset", "class_lit_covers", "parse_pattern",
]

PLAIN = "Plain"
DELTA_SIGMA = "DeltaSigma"
DELTA_PI = "DeltaPi"


class SchemaError(ValueError):
    pass


class UnknownFamily(SchemaError):
    pass


class ArityMismatch(SchemaError):
    pass


@dataclass(frozen=True, slots=True)
class PrincipleId:
    """A schema: family, variant (Plain, DeltaSigma, DeltaPi), arity."""

    family: str
    variant: str
    arity: int


CATALOG: tuple[tuple[PrincipleId, str], ...] = (
    (PrincipleId("LEM", PLAIN, 1), "phi \\/ ~phi"),
    (PrincipleId("LEM", DELTA_SIGMA, 1), "(phi <-> psi) -> phi \\/ dual(phi)"),
    (PrincipleId("LEM", DELTA_PI, 1), "(phi <-> psi) -> psi \\/ dual(psi)"),
    (PrincipleId("DNE", PLAIN, 1), "~~phi -> phi"),
    (PrincipleId("DNS", PLAIN, 1), "(A x. ~~phi) -> ~~A x. phi"),
    (PrincipleId("DML", PLAIN, 2), "~(phi /\\ psi) -> ~phi \\/ ~psi"),
    (PrincipleId("CD", PLAIN, 2),
     "(A x. (phi \\/ psi)) -> phi \\/ A x. psi, with x not free in phi"),
    (PrincipleId("COLL", PLAIN, 1),
     "(A w. E y < x. A z < w. phi) -> E y < x. A z. phi"),
    (PrincipleId("LN", PLAIN, 1),
     "(E x. phi) -> E x. (phi /\\ A y < x. ~phi(y))"),
    (PrincipleId("PEIRCE", PLAIN, 1), "((phi -> psi) -> phi) -> phi"),
    (PrincipleId("DUAL", PLAIN, 1), "~phi -> dual(phi)"),
    (PrincipleId("DUAL", DELTA_SIGMA, 1), "(phi <-> psi) -> (~phi -> dual(phi))"),
    (PrincipleId("DUAL", DELTA_PI, 1), "(phi <-> psi) -> (~psi -> dual(psi))"),
    (PrincipleId("WDUAL", PLAIN, 1), "~dual(phi) -> ~~phi"),
    (PrincipleId("WDUAL", DELTA_SIGMA, 1), "(phi <-> psi) -> (~dual(phi) -> ~~phi)"),
    (PrincipleId("WDUAL", DELTA_PI, 1), "(phi <-> psi) -> (~dual(psi) -> ~~psi)"),
    (PrincipleId("LEMBOT", PLAIN, 1), "phi \\/ dual(phi)"),
    (PrincipleId("DMLBOT", PLAIN, 2), "~(phi /\\ psi) -> dual(phi) \\/ dual(psi)"),
    (PrincipleId("DMLBOT", DELTA_SIGMA, 2),
     "(phi <-> phi') -> (~(phi /\\ psi) -> dual(phi) \\/ dual(psi))"),
    (PrincipleId("DMLBOT", DELTA_PI, 2),
     "(phi <-> phi') -> (~(phi /\\ psi) -> dual(phi') \\/ dual(psi))"),
    (PrincipleId("DNEOR", PLAIN, 2), "~~(phi \\/ psi) -> phi \\/ psi"),
)

FAMILIES = frozenset(pid.family for pid, _ in CATALOG)

# Families whose two class arguments are interchangeable.
_SYMMETRIC = frozenset({"DML", "DMLBOT", "DNEOR"})

_TAGS = {PLAIN: "", DELTA_SIGMA: "DSI", DELTA_PI: "DPI"}
_TAGGED = frozenset(_TAGS.values()) - {""}
_BY_HEAD = {(pid.family, _TAGS[pid.variant]): pid for pid, _ in CATALOG}


def principle(family: str) -> PrincipleId:
    """The catalog entry of a family's plain variant."""
    return _BY_HEAD[family, ""]


# ---------------------------------------------------------------------------
# Class literals

_LIT_RE = re.compile(r"(nn|n)?([SPD])(\d+)")


@dataclass(frozen=True, slots=True)
class ClassLit:
    """Ground class literal: negation depth 0-2, kind S/P/D, level."""

    neg: int
    kind: str
    level: int

    def canonical(self) -> "ClassLit":
        if self.kind == "P" and self.level == 0:
            return ClassLit(self.neg, "S", 0)
        return self


def parse_class_literal(text: str) -> ClassLit:
    m = _LIT_RE.fullmatch(text)
    if m is None:
        raise SchemaError(f"bad class literal: {text!r}")
    prefix, kind, level = m.groups()
    return ClassLit(len(prefix or ""), kind, int(level))


def format_class_literal(c: ClassLit) -> str:
    return "n" * c.neg + c.kind + str(c.level)


def class_lit_subset(a: ClassLit, b: ClassLit) -> bool:
    """Ground inclusion lattice extended with the premise classes D<k>
    (between level k-1 and level k) and negation congruence."""
    a = a.canonical()
    b = b.canonical()
    if a.neg != b.neg:
        return False
    if a == b:
        return True
    if a.level < b.level:
        return True
    if a.level == b.level and a.kind == "D" and b.kind in ("S", "P"):
        return True
    return False


@lru_cache(maxsize=None)
def class_lit_covers(a: ClassLit) -> tuple[ClassLit, ...]:
    """The covers of a class literal in the inclusion order: the maximal
    canonical literals strictly below it, all within one level of it,
    sorted by text."""
    a = a.canonical()
    below = {c.canonical() for kind in "SPD"
             for lvl in range(max(a.level - 1, 0), a.level + 1)
             if class_lit_subset(c := ClassLit(a.neg, kind, lvl), a)} - {a}
    maximal = [c for c in below if not any(d != c and class_lit_subset(c, d) for d in below)]
    return tuple(sorted(maximal, key=format_class_literal))


# ---------------------------------------------------------------------------
# Nodes

# Node text comes from requests, so its memos are bounded, above the 19,851
# texts that a closure parses at the largest level cap, 100.
_TEXT_MEMO = 2**15


@dataclass(frozen=True, slots=True)
class Node:
    """A ground principle node: a catalog schema at class literals."""

    pid: PrincipleId
    args: tuple[ClassLit, ...]

    def __post_init__(self):
        if len(self.args) != self.pid.arity:
            raise ArityMismatch(f"{self.pid.family} takes {self.pid.arity} "
                                f"class argument(s), got {len(self.args)}")

    @staticmethod
    @lru_cache(maxsize=_TEXT_MEMO)
    def parse(text: str) -> "Node":
        """The node the text spells, in the argument order written; a
        single class on a binary family abbreviates the diagonal."""
        family, *rest = text.split(":")
        tag = rest.pop(0) if rest and rest[0] in _TAGGED else ""
        pid = _BY_HEAD.get((family, tag))
        if pid is None:
            raise UnknownFamily(f"unknown principle family: {text!r}")
        args = tuple(map(parse_class_literal, rest))
        return Node(pid, args * 2 if len(args) == 1 and pid.arity == 2 else args)

    @property
    def level(self) -> int:
        return max(a.level for a in self.args)

    def canonical(self) -> "Node":
        args = tuple([a.canonical() for a in self.args])
        if self.pid.family in _SYMMETRIC and self.pid.variant == PLAIN:
            args = tuple(sorted(args, key=format_class_literal))
        return Node(self.pid, args)

    def __str__(self) -> str:
        tag = _TAGS[self.pid.variant]
        return ":".join([self.pid.family, *([tag] if tag else []),
                         *map(format_class_literal, self.args)])


@lru_cache(maxsize=_TEXT_MEMO)
def canonical_node(text: str) -> str:
    """The canonical spelling of node text; memoized because a theory is
    canonicalized node by node on every relative classification."""
    return str(Node.parse(text).canonical())


_LEVEL_RE = re.compile(r"\(k([+-]\d+)?\)(?=:|$)")


@dataclass(frozen=True, slots=True)
class NodePat:
    """Node text of a rule or separation fact in which a class level may
    be written relative to a level variable k: (k), (k-1), (k+2), ..."""

    text: str

    def text_at(self, k: int) -> str | None:
        """The text at level k as written; None when a class goes below
        level 0 (the empty-class convention discards the instance)."""
        ground = _LEVEL_RE.sub(lambda m: str(k + int(m[1] or 0)), self.text)
        return None if "-" in ground else ground

    def at(self, k: int) -> Node | None:
        """The canonical node at level k; None as for text_at."""
        ground = self.text_at(k)
        return None if ground is None else Node.parse(ground).canonical()


def parse_pattern(text: str) -> NodePat:
    """The pattern, checked by parsing it with every relative level at 0."""
    try:
        Node.parse(_LEVEL_RE.sub("0", text))
    except SchemaError as e:
        raise type(e)(f"{e} in pattern {text!r}") from None
    return NodePat(text)
