"""Classification in the arithmetical hierarchy, the class inclusion
lattice, and pairing-based block merging.  One quantifier rule classifies
every formula, relative to a theory (relative_classify) or, for a prenex
formula, over HA (classify_prenex).

Class literals (ClassLit) and their text syntax live in the nodes module
and are re-exported here.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable

from .formulas import (
    _QUANTIFIER_OF, _QUANTIFIERS, And, Bot, Exists, Forall, Formula, Imp, Or,
    Proj0, Proj1, Rel, Var, all_names, bounded_sugar, format_formula,
    fresh_name, is_negation, negand, substitute,
)
from .nodes import (
    ClassLit, Node, canonical_node, format_class_literal, parse_class_literal,
    principle,
)

__all__ = [
    "HClass", "ClassLit", "NotPrenex", "Unclassifiable",
    "classify_prenex", "class_subset", "prenex_merge", "relative_classify",
    "prenex_prefix", "parse_class_literal", "format_class_literal",
    "class_lit_subset", "class_lit_covers",
]

SIGMA = "Sigma"
PI = "Pi"
_POLARITY = {Exists: SIGMA, Forall: PI}  # the class each quantifier leads


class NotPrenex(ValueError):
    """The formula has a quantifier under a connective."""

    def __init__(self, sub: Formula):
        super().__init__(f"not prenex: {format_formula(sub)}")
        self.sub = sub


class Unclassifiable(ValueError):
    """No classification rule applies; carries the blocking subformula."""

    def __init__(self, sub: Formula):
        super().__init__(f"unclassifiable subformula: {format_formula(sub)}")
        self.sub = sub


@dataclass(frozen=True, slots=True)
class HClass:
    """A position in the arithmetical hierarchy: Sigma(k) or Pi(k).

    Sigma(0) and Pi(0) both denote the quantifier-free class; Sigma(0) is
    the canonical form.
    """

    polarity: str
    level: int

    def canonical(self) -> "HClass":
        if self.level == 0:
            return HClass(SIGMA, 0)
        return self

    def __str__(self) -> str:
        return f"{self.polarity} {self.level}"


def _first_quantifier(f: Formula) -> Formula | None:
    """The leftmost quantified subformula of f under connectives only;
    None if f is quantifier-free.  A stack, not recursion: a flat chain
    x = 0 /\\ x = 0 /\\ ... is as deep as it is long."""
    right: list[Formula] = []
    while True:
        if isinstance(f, (And, Or, Imp)):
            right.append(f.f2)
            f = f.f1
        elif not isinstance(f, (Rel, Bot)):
            return f
        elif right:
            f = right.pop()
        else:
            return None


def prenex_prefix(f: Formula) -> tuple[list[tuple[str, str]], Formula]:
    """Split a prenex formula into its quantifier prefix and matrix.

    Prefix entries are ("E"|"A", variable); raises NotPrenex if the matrix
    contains a quantifier.
    """
    prefix: list[tuple[str, str]] = []
    while (q := _QUANTIFIER_OF.get(type(f))) is not None:
        prefix.append((q[0], f.var))
        f = f.body
    if (sub := _first_quantifier(f)) is not None:
        raise NotPrenex(sub)
    return prefix, f


def classify_prenex(f: Formula) -> HClass:
    """Exact class of a prenex formula over HA: its relative class over
    the empty theory.  Raises NotPrenex if f is not prenex."""
    prenex_prefix(f)
    return relative_classify(f)


def class_subset(a: HClass, b: HClass) -> bool:
    """The inclusion lattice: reflexivity, Sigma(0)=Pi(0), and every
    level-k class inside both level-(k+1) classes, transitively closed."""
    a = a.canonical()
    b = b.canonical()
    return a == b or a.level < b.level


def prenex_merge(f: Formula) -> Formula:
    """Contract every quantifier block to length 1 by merging adjacent
    same-polarity quantifiers into one quantifier over a pair variable,
    projecting with p0/p1 in the matrix."""
    prefix, matrix = prenex_prefix(f)
    # An outer duplicate of an inner binder binds nothing; rename it so the
    # prefix variables are pairwise distinct.
    seen: set[str] = set(all_names(matrix))
    for i in range(len(prefix) - 1, -1, -1):
        kind, v = prefix[i]
        if v in {w for _, w in prefix[i + 1:]}:
            prefix[i] = (kind, fresh_name(v, seen | {w for _, w in prefix}))
        seen.add(prefix[i][1])
    while True:
        for i in range(len(prefix) - 1):
            if prefix[i][0] == prefix[i + 1][0]:
                break
        else:
            break
        kind, x = prefix[i]
        _, y = prefix[i + 1]
        avoid = all_names(matrix) | {w for _, w in prefix}
        u = fresh_name("u", avoid)
        matrix = substitute(matrix, x, Proj0(Var(u)))
        matrix = substitute(matrix, y, Proj1(Var(u)))
        prefix[i: i + 2] = [(kind, u)]
    out = matrix
    for kind, v in reversed(prefix):
        out = _QUANTIFIERS[kind][0](v, out)
    return out


# ---------------------------------------------------------------------------
# Class literals

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
# Theory-relative classification

_DML = principle("DML")
_DNE = principle("DNE")


def relative_classify(f: Formula, theory: Iterable[str] = ()) -> HClass:
    """Best class of a formula built from quantifier-free formulas by
    bounded and unbounded quantifiers and negations, relative to a theory
    given as a set of ground principle nodes (e.g. {"DML:S1", "DNE:S0"});
    raises Unclassifiable at a subformula that no rule applies to.

    Nodes may be spelled any way the node grammar allows (diagonal sugar,
    P0 for S0, symmetric arguments in either order); only their canonical
    forms count.  An unknown or malformed node raises ValueError.
    """
    t = frozenset(map(canonical_node, theory))
    # each (family, level) looked up, read once per call
    seen: dict[tuple[str, int], bool] = {}

    def assumes(pid, k: int) -> bool:
        """The theory contains the principle at Sigma k in every argument,
        or k <= 0: HA proves DNE and DML at level 0; below it, a class is empty."""
        if k <= 0:
            return True
        key = pid.family, k
        if key not in seen:
            seen[key] = str(Node(pid, (ClassLit(0, "S", k),) * pid.arity)) in t
        return seen[key]

    def quantified(q: str, c: HClass, bounded: bool) -> HClass:
        """The class of a quantifier of polarity q over a body of class c:
        a body of the quantifier's own polarity is absorbed; a bounded
        quantifier collapses to the dual class when the theory assumes
        DML at level j and DNE at level j-1 (j = k for E, k-1 for A);
        otherwise the quantifier goes up one level."""
        k = c.level
        if class_subset(c, HClass(q, k)):
            return HClass(q, max(k, 1))
        j = k if q == SIGMA else k - 1
        if bounded and assumes(_DML, j) and assumes(_DNE, j - 1):
            return HClass(PI if q == SIGMA else SIGMA, k)
        return HClass(q, k + 1)

    def go(g: Formula) -> HClass:
        if (q := _POLARITY.get(type(g))) is not None:
            b = bounded_sugar(g)
            body = g.body if b is None else b[1]
            return quantified(q, go(body).canonical(), b is not None)
        if is_negation(g):
            c = go(negand(g)).canonical()
            k = c.level
            if c.polarity == SIGMA and assumes(_DNE, k - 1):
                return HClass(PI, k).canonical()
            if c.polarity == PI and assumes(_DNE, k):
                return HClass(SIGMA, k)
        elif _first_quantifier(g) is None:
            return HClass(SIGMA, 0)
        raise Unclassifiable(g)

    return go(f)
