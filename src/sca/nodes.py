"""The principle catalog and node text "FAMILY[:TAG]:CLASS[:CLASS2]", e.g.
"DNE:S1", "DML:S2:P2", "LEM:DPI:D1", where TAG (DSI, DPI) names a Delta
variant.  NodePat is its one reader (parse_pattern, ground_node, Node.parse)
and _spell its one canonical printer (NodePat.ground, plain_covers).

A class literal is S<k>, P<k> or D<k> (the existential-leading,
universal-leading and equivalence-premise classes at level k), optionally
prefixed by "n" or "nn" (negated, doubly negated).  Inclusion orders the
literals of one negation depth by one rank, _rank: D<k> at 2k, S<k> and
P<k> at 2k + 1 (class_lit_subset, and the covers of plain_covers).  A Delta
variant's first class is a D class.  Rule patterns may write the level as
(k), (k-1), (k+2), ...  A single class on a binary family abbreviates the
diagonal ("DML:S1" is "DML:S1:S1").  The canonical form writes P0 as S0
and sorts the arguments of the symmetric families.
Ground node text, as a request writes it, is a pattern without k.
"""

from __future__ import annotations

import re
import sys
from functools import lru_cache

from . import Record

__all__ = [
    "PLAIN", "DELTA_SIGMA", "DELTA_PI", "CATALOG", "FAMILIES",
    "PrincipleId", "ClassLit", "Node", "NodePat",
    "SchemaError", "UnknownFamily", "ArityMismatch",
    "parse_class_literal", "format_class_literal", "ground_node", "plain_covers",
    "class_lit_subset", "parse_pattern",
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


class PrincipleId(Record):
    """A schema: family, variant (Plain, DeltaSigma, DeltaPi), arity."""

    __slots__ = ("family", "variant", "arity")


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


# ---------------------------------------------------------------------------
# Class literals

_LIT_RE = re.compile(r"(nn|n)?([SPD])(?:([0-9]+)|\(k([+-][0-9]+)?\))")


class ClassLit(Record):
    """Ground class literal: negation depth 0-2, kind S/P/D, level."""

    __slots__ = ("neg", "kind", "level")

    def __init__(self, neg: int, kind: str, level: int):
        set_neg, set_kind, set_level = self._setters
        set_neg(self, neg)
        set_kind(self, kind)
        set_level(self, level)


def parse_class_literal(text: str) -> ClassLit:
    """The ground class literal that the text spells: its level in digits."""
    lit = _pattern_literal(text)
    if lit is None or lit[3]:
        raise SchemaError(f"bad class literal: {text!r}")
    head, _zero_head, level, _relative, _text = lit
    return ClassLit(len(head) - 1, head[-1], level)


def format_class_literal(c: ClassLit) -> str:
    return "n" * c.neg + c.kind + str(c.level)


def _rank(kind: str, level: int) -> int:
    """The place of a class literal in the inclusion order within its
    negation depth: D<L> at 2L, S<L> and P<L> at 2L + 1."""
    return 2 * level + (kind != "D")


def class_lit_subset(a: ClassLit, b: ClassLit) -> bool:
    """Whether class a lies in class b: the same negation depth, and a of
    lower rank or the same literal (P0 is S0)."""
    rank_a, rank_b = _rank(a.kind, a.level), _rank(b.kind, b.level)
    return a.neg == b.neg and (rank_a < rank_b or rank_a == rank_b
                               and (a.kind == b.kind or a.level == 0))


# ---------------------------------------------------------------------------
# Nodes

# Node text comes from requests and files, so each memo of it (ground_node,
# parse_pattern, _pattern_literal) is bounded, above the 15,265 node texts
# of the ground program at the largest level cap, 100.
_TEXT_MEMO = 2**15

_DELTA_FIRST = "variant {} requires a D class in the first argument"


class Node(Record):
    """A ground principle node: a catalog schema at class literals, as written."""

    __slots__ = ("pid", "args")

    def __init__(self, pid: PrincipleId, args: tuple[ClassLit, ...]):
        if len(args) != pid.arity:
            raise ArityMismatch(f"{pid.family} takes {pid.arity} "
                                f"class argument(s), got {len(args)}")
        if pid.variant != PLAIN and args[0].kind != "D":
            raise ArityMismatch(_DELTA_FIRST.format(pid.variant))
        set_pid, set_args = self._setters
        set_pid(self, pid)
        set_args(self, args)

    @staticmethod
    def parse(text: str) -> "Node":
        """The node the text spells, read as a pattern without k (a diagonal written out)."""
        pat = NodePat(text, relative=False)
        args = tuple([parse_class_literal(lit[4]) for lit in pat._lits])  # lit[4]: its text
        return Node(pat._pid, args * 2 if pat._diagonal else args)

    def __str__(self) -> str:
        tag = _TAGS[self.pid.variant]
        return ":".join([self.pid.family, *([tag] if tag else []),
                         *map(format_class_literal, self.args)])


def _spell(head: str, texts: list[str]) -> str:
    """Canonical node text from its printed head and its literals' canonical
    texts, sorted for a symmetric family's plain variant (P10 before P9)."""
    if head in _SYMMETRIC:
        texts.sort()
    return ":".join([head, *texts])


_RELATIVE_RE = re.compile(r"\(k([+-][0-9]+)?\)(?=:|$)")


def _at_zero(text: str) -> str:
    """The text with every relative level written as 0: how a pattern's
    error messages quote it."""
    return _RELATIVE_RE.sub("0", text)


@lru_cache(maxsize=_TEXT_MEMO)
def _pattern_literal(text: str) -> tuple[str, str, int, bool, str] | None:
    """A class literal of a pattern: its printed prefix ("nS"), the prefix
    at level 0 (P0 prints as S0), its level or its offset from k, whether
    the level is relative, and its text; None for text that is no class
    literal.  The one reader of _LIT_RE's groups.  Memoized: patterns and
    request texts share their literals."""
    m = _LIT_RE.fullmatch(text)
    if m is None:
        return None
    prefix, kind, fixed, offset = m.groups()
    head = (prefix or "") + kind
    zero_head = head[:-1] + "S" if kind == "P" else head
    if fixed is None:
        return head, zero_head, int(offset or 0), True, text
    return head, zero_head, int(fixed), False, text


class NodePat(Record):
    """Node text in which a level may be relative to k: (k), (k-1), (k+2), ...

    The text is parsed once, when the pattern is built, into the shape
    that grounds it: its schema, the printed head (family, and tag if
    any), whether a single class abbreviates the diagonal, and its class
    literals as written (_pattern_literal).  Errors quote the text at
    level 0 (_at_zero); for ground text (relative false) a relative level
    is a bad class literal, and errors quote the text as written."""

    __slots__ = ("text", "_pid", "_head", "_diagonal", "_lits")

    def __init__(self, text: str, relative: bool = True):
        shown = _at_zero if relative else str
        family, *rest = text.split(":")
        tag = rest.pop(0) if rest and rest[0] in _TAGGED else ""
        pid = _BY_HEAD.get((family, tag))
        if pid is None:
            raise UnknownFamily(f"unknown principle family: {shown(text)!r}")
        lits = tuple(map(_pattern_literal, rest))
        for lit, lit_text in zip(lits, rest):
            if lit is None or lit[3] and not relative:  # lit[3]: a level relative to k
                raise SchemaError(f"bad class literal: {shown(lit_text)!r}")
        diagonal = len(lits) == 1 and pid.arity == 2
        if len(lits) != pid.arity and not diagonal:
            raise ArityMismatch(f"{pid.family} takes {pid.arity} "
                                f"class argument(s), got {len(lits)}")
        if tag and lits[0][0][-1] != "D":  # lits[0][0]: the first literal's prefix ("nD")
            raise ArityMismatch(f"{_DELTA_FIRST.format(pid.variant)}: {shown(text)!r}")
        set_text, set_pid, set_head, set_diagonal, set_lits = self._setters
        set_text(self, text)
        set_pid(self, pid)
        set_head(self, sys.intern(f"{pid.family}:{tag}") if tag else pid.family)
        set_diagonal(self, diagonal)
        set_lits(self, lits)

    def ground(self, k: int) -> tuple[str, int] | None:
        """The canonical text at level k and its level; None when a class
        goes below level 0 (the empty-class convention discards the
        instance).  Canonical: P0 prints as S0, the diagonal is written
        out, and _spell sorts a symmetric family's arguments."""
        texts = []
        top = 0
        for head, zero_head, level, relative, _text in self._lits:
            if relative:
                level += k
                if level < 0:
                    return None
            texts.append(f"{head if level else zero_head}{level}")
            if level > top:
                top = level
        if self._diagonal:
            texts *= 2
        return _spell(self._head, texts), top

    def text_at(self, k: int) -> str | None:
        """The text at level k as written (diagonal sugar kept); None as
        for ground."""
        texts = []
        for head, _zero_head, level, relative, text in self._lits:
            if relative:
                level += k
                if level < 0:
                    return None
                text = f"{head}{level}"
            texts.append(text)
        return ":".join([self._head, *texts])


@lru_cache(maxsize=_TEXT_MEMO)
def parse_pattern(text: str) -> NodePat:
    """The pattern, parsed and checked once: memoized because a rule base
    repeats its patterns (204 distinct ones in the 1,404 uses of the
    shipped file)."""
    try:
        return NodePat(text)
    except SchemaError as e:
        raise type(e)(f"{e} in pattern {text!r}") from None


@lru_cache(maxsize=_TEXT_MEMO)
def ground_node(text: str) -> tuple[str, int]:
    """The canonical text and level of ground node text, read as a pattern
    without k; memoized, as requests name their nodes again and again."""
    return NodePat(text, relative=False).ground(0)


# The covers of each class literal text plain_covers met, as text: the engine
# asks for nodes its closures reach, within derivability.K_MAX_LIMIT, so
# this holds at most 3 negations x 3 kinds x (K_MAX_LIMIT + 1) levels.
_LITERAL_COVERS: dict[str, tuple[str, ...]] = {}


def _literal_covers(text: str) -> tuple[str, ...]:
    """The covers of a ground class literal, sorted: the canonical literals
    one rank below it.  S0 alone lies under D1, and nothing under D0."""
    head, _zero_head, level, _relative, _text = _pattern_literal(text)
    level, odd = divmod(_rank(head[-1], level) - 1, 2)
    if level < 0:
        return ()
    kinds = ("PS" if level else "S") if odd else "D"
    return tuple(f"{head[:-1]}{kind}{level}" for kind in kinds)


def plain_covers(text: str) -> tuple[str, list[str]] | None:
    """The family of a canonical node of a plain variant and the canonical
    texts of the nodes it covers, sorted: one class argument lowered to
    one of its covers.  None for a Delta variant.  The text is split, not
    read as a pattern: a closure asks this once for every node it reaches."""
    family, *lits = text.split(":")
    if lits and lits[0] in _TAGGED:
        return None
    covered = set()
    for i, lit in enumerate(lits):
        if lit not in _LITERAL_COVERS:
            _LITERAL_COVERS[lit] = _literal_covers(lit)
        for c in _LITERAL_COVERS[lit]:
            covered.add(_spell(family, [*lits[:i], c, *lits[i + 1:]]))
    return family, sorted(covered)
