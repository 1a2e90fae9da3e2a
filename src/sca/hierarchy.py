"""Classification in the arithmetical hierarchy, the class inclusion
lattice, and pairing-based block merging.  One quantifier rule classifies
every formula, relative to a theory (relative_classify) or, for a prenex
formula, over HA (classify_prenex).

Class literals (ClassLit), their text syntax and their inclusion order
live in the nodes module; ClassLit and class_lit_subset are re-exported
here.  A theory's nodes are read by the nodes module's one reader
(ground_node), and the DML and DNE nodes that a collapse needs are
the patterns DML:S(k) and DNE:S(k), ground at the level in question.
"""

from __future__ import annotations

from itertools import groupby
from operator import itemgetter
from typing import Iterable

from . import Record
from .formulas import (
    _PARTS, _QUANTIFIER_OF, _QUANTIFIERS, Exists, Forall, Formula, Proj0,
    Proj1, Rel, Var, _rename, _substituted, all_names, bounded_sugar,
    format_formula, fresh_name, is_negation,
)
from .nodes import ClassLit, NodePat, class_lit_subset, ground_node

__all__ = [
    "HClass", "ClassLit", "NotPrenex", "Unclassifiable",
    "classify_prenex", "class_subset", "prenex_merge", "relative_classify",
    "prenex_prefix", "class_lit_subset",
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


class HClass(Record):
    """A position in the arithmetical hierarchy: Sigma(k) or Pi(k).

    Sigma(0) and Pi(0) both denote the quantifier-free class; Sigma(0) is
    the canonical form.
    """

    __slots__ = ("polarity", "level")

    def __init__(self, polarity: str, level: int):
        set_polarity, set_level = self._setters
        set_polarity(self, polarity)
        set_level(self, level)

    def canonical(self) -> "HClass":
        if self.level == 0:
            return HClass(SIGMA, 0)
        return self

    def __str__(self) -> str:
        return f"{self.polarity} {self.level}"


def _first_quantifier(f: Formula) -> Formula | None:
    """The leftmost quantified subformula of f under connectives only;
    None if f is quantifier-free."""
    todo = [f]
    while todo:
        g = todo.pop()
        if type(g) in _QUANTIFIER_OF:
            return g
        if type(g) is not Rel:  # a connective's operands; bot has none
            todo += _PARTS[type(g)][0](g)
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
    # prefix variables are pairwise distinct.  A new name avoids every name
    # of the matrix and the prefix, old and new; as those only grow, each
    # base's smallest free suffix is sought from the last one found.
    names, inner, suffix = set(all_names(matrix)) | {v for _, v in prefix}, set(), {}
    for i in range(len(prefix) - 1, -1, -1):
        kind, v = prefix[i]
        if v in inner:
            n = suffix.get(v, 0)
            while f"{v}{n}" in names:
                n += 1
            suffix[v], prefix[i] = n, (kind, f"{v}{n}")
            names.add(prefix[i][1])
        inner.add(prefix[i][1])
    # Each run of like quantifiers folds from the left: the pair variable so
    # far and the next variable y become a fresh u, named apart from the
    # matrix and the prefix at that moment, which the two then leave.  The
    # run's last variable is p1 of its final u, each one before it one p0
    # further down, and the first p0 alone, applied once per merge.
    env, merged = {}, []
    for kind, run in groupby(prefix, key=itemgetter(0)):
        (_, first), *rest = run
        u = first
        for _, y in rest:
            w = fresh_name("u", names)
            names -= {u, y}
            names.add(w)
            u = w
        if rest:
            t = Var(u)
            for _, y in reversed(rest):
                env[y] = Proj1(t)
                t = Proj0(t)
            env[first] = t
        merged.append((kind, u))
    # one simultaneous substitution; names holds every variable of env's images
    out = _rename(matrix, env, names, _substituted) if env else matrix
    for kind, v in reversed(merged):
        out = _QUANTIFIERS[kind][0](v, out)
    return out


# ---------------------------------------------------------------------------
# Theory-relative classification

_DML = NodePat("DML:S(k)")
_DNE = NodePat("DNE:S(k)")


def relative_classify(f: Formula, theory: Iterable[str] = ()) -> HClass:
    """Best class of a formula built from quantifier-free formulas by
    bounded and unbounded quantifiers and negations, relative to a theory
    given as a set of ground principle nodes (e.g. {"DML:S1", "DNE:S0"});
    raises Unclassifiable at a subformula that no rule applies to.

    Nodes may be spelled any way the node grammar allows (diagonal sugar,
    P0 for S0, symmetric arguments in either order); only their canonical
    forms count.  An unknown or malformed node raises ValueError.
    """
    t = {text for text, _level in map(ground_node, theory)}

    def assumes(pat: NodePat, k: int) -> bool:
        """Whether the theory has the pattern at k; at k <= 0 HA proves it or the class is empty."""
        return k <= 0 or pat.ground(k)[0] in t

    # Down the spine of quantifiers and negations, then back up it.  A
    # quantifier of polarity q absorbs a body of its own polarity; a
    # bounded one collapses to the dual class when the theory assumes DML
    # at level j and DNE at level j-1 (j = k for E, k-1 for A); otherwise
    # it goes up one level.  A negation is reclassified by assumed DNE.
    spine = []
    while (q := _POLARITY.get(type(f))) is not None or is_negation(f):
        b = bounded_sugar(f)  # None for a negation
        spine.append((f, q, b is not None))
        if q is None:
            f = f.f1
        else:
            f = f.body if b is None else b[1]
    if _first_quantifier(f) is not None:
        raise Unclassifiable(f)
    c = HClass(SIGMA, 0)
    for g, q, bounded in reversed(spine):
        c = c.canonical()
        k = c.level
        j = k if q == SIGMA else k - 1
        if q is None:
            if c.polarity == SIGMA and assumes(_DNE, k - 1):
                c = HClass(PI, k).canonical()
            elif c.polarity == PI and assumes(_DNE, k):
                c = HClass(SIGMA, k)
            else:
                raise Unclassifiable(g)
        elif class_subset(c, HClass(q, k)):
            c = HClass(q, max(k, 1))
        elif bounded and assumes(_DML, j) and assumes(_DNE, j - 1):
            c = HClass(PI if q == SIGMA else SIGMA, k)
        else:
            c = HClass(q, k + 1)
    return c
