"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import functools
import re
import warnings
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from sca import derivability
from sca.formulas import (
    Add, And, Bot, Eq, Exists, Forall, Formula, Imp, Lt, Mul, Not, Or, Pair,
    Proj0, Proj1, Succ, Term, Var, Zero, free_vars,
)
from sca.ipc import PAnd, PAtom, PBot, PImp, POr, PropFormula
from sca.nodes import (
    CATALOG, DELTA_PI, DELTA_SIGMA, PLAIN, ArityMismatch, ClassLit, PrincipleId, SchemaError,
    UnknownFamily,
)

# hypothesis imports its patch writer, and with it libcst, only to report a
# failing property; under -W error libcst's import-time DeprecationWarning
# would turn that report into an INTERNALERROR that hides the falsifying
# example.  So it is imported here, with that warning ignored for this
# import only.  Without libcst there is nothing to import.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

VAR_POOL = ("x", "y", "z", "w")
PROP_ATOMS = ("p", "q", "r", "s", "t")


def _num(n: int) -> Term:
    t: Term = Zero()
    for _ in range(n):
        t = Succ(t)
    return t


@st.composite
def terms(draw, depth: int = 2) -> Term:
    """A term over every function symbol: 0, S, +, *, pair, p0 and p1."""
    if depth == 0:
        return draw(st.sampled_from(
            [Var(v) for v in VAR_POOL] + [_num(n) for n in range(3)]))
    kind = draw(st.integers(0, 7))
    if kind <= 1:
        return draw(terms(depth=0))
    if kind <= 4:
        return [Succ, Proj0, Proj1][kind - 2](draw(terms(depth=depth - 1)))
    a, b = draw(terms(depth=depth - 1)), draw(terms(depth=depth - 1))
    return [Add, Mul, Pair][kind - 5](a, b)


@st.composite
def atoms(draw) -> Formula:
    kind = draw(st.integers(0, 9))
    if kind == 0:
        return Bot()
    a, b = draw(terms()), draw(terms())
    return Eq(a, b) if kind % 2 else Lt(a, b)


@st.composite
def qfree(draw, depth: int = 3) -> Formula:
    """A quantifier-free formula."""
    if depth == 0:
        return draw(atoms())
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return draw(atoms())
    if kind == 1:
        return Not(draw(qfree(depth=depth - 1)))
    a, b = draw(qfree(depth=depth - 1)), draw(qfree(depth=depth - 1))
    return [And, Or, Imp][kind - 2](a, b)


@st.composite
def prenex(draw, max_prefix: int = 5) -> Formula:
    """A prenex formula: an unbounded quantifier prefix over a
    quantifier-free matrix."""
    matrix = draw(qfree())
    f: Formula = matrix
    for _ in range(draw(st.integers(0, max_prefix))):
        v = draw(st.sampled_from(VAR_POOL))
        f = (Exists if draw(st.booleans()) else Forall)(v, f)
    return f


@st.composite
def prenex_literal_matrix(draw, max_prefix: int = 5) -> Formula:
    """A prenex formula whose matrix is an atom or a negated atom; the
    shapes on which the dual is a syntactic involution after atom-level
    double-negation collapse."""
    matrix = draw(atoms())
    if draw(st.booleans()):
        matrix = Not(matrix)
    f: Formula = matrix
    for _ in range(draw(st.integers(0, max_prefix))):
        v = draw(st.sampled_from(VAR_POOL))
        f = (Exists if draw(st.booleans()) else Forall)(v, f)
    return f


@st.composite
def bounded_sentences(draw, bound: int = 3) -> Formula:
    """A sentence in which every quantifier is in bounded-sugar form."""
    matrix = draw(qfree(depth=2))
    f: Formula = matrix
    for v in VAR_POOL:
        if draw(st.booleans()):
            f = Exists(v, And(Lt(Var(v), _num(bound)), f))
        else:
            f = Forall(v, Imp(Lt(Var(v), _num(bound)), f))
    assert not free_vars(f)
    return f


@st.composite
def props(draw, depth: int = 4, atoms: tuple = PROP_ATOMS) -> PropFormula:
    if depth == 0:
        if draw(st.integers(0, 7)) == 0:
            return PBot()
        return PAtom(draw(st.sampled_from(atoms)))
    kind = draw(st.integers(0, 3))
    if kind == 0:
        return draw(props(depth=0, atoms=atoms))
    a = draw(props(depth=depth - 1, atoms=atoms))
    b = draw(props(depth=depth - 1, atoms=atoms))
    return [PAnd, POr, PImp][kind - 1](a, b)


@pytest.fixture(scope="session")
def rb() -> derivability.RuleBase:
    return derivability.load_default_rulebase()


# ---------------------------------------------------------------------------
# Node text: a reference reader and canonical printer of ground node text,
# written apart from sca.nodes (its own class-literal regex and head split;
# only the catalog and the record and error types come from there).  The
# tests check NodePat.ground, the engine's cover steps and the oracles'
# canonical nodes and levels against it.

_REF_LIT_RE = re.compile(r"(n{0,2})([SPD])([0-9]+)")
_REF_TAGS = {PLAIN: "", DELTA_SIGMA: "DSI", DELTA_PI: "DPI"}
_REF_SCHEMAS = {(pid.family, _REF_TAGS[pid.variant]): pid for pid, _ in CATALOG}
# the families whose two class arguments are interchangeable
_REF_SYMMETRIC = frozenset({"DML", "DMLBOT", "DNEOR"})


def _ref_literal_text(c: ClassLit) -> str:
    return "n" * c.neg + c.kind + str(c.level)


def _ref_s0(c: ClassLit) -> ClassLit:
    """The literal with P0 written S0: the two name one class."""
    return ClassLit(c.neg, "S", 0) if c.kind == "P" and c.level == 0 else c


@functools.cache
def ref_lit_subset(a: ClassLit, b: ClassLit) -> bool:
    """Whether class a lies in class b, as the paper states the inclusions:
    within one negation depth, D_k lies in S_k and in P_k, and each of S_k
    and P_k lies in S_k+1, in P_k+1 and in D_k+1 (Delta_k+1 is the
    intersection of Sigma_k+1 and Pi_k+1); P0 is S0, and inclusion is
    reflexive and transitive.  No class lies in one of a lower level."""
    a, b = _ref_s0(a), _ref_s0(b)
    if a.neg != b.neg or a.level > b.level:
        return False
    if a == b:
        return True
    above = ([ClassLit(a.neg, "S", a.level), ClassLit(a.neg, "P", a.level)] if a.kind == "D"
             else [ClassLit(a.neg, kind, a.level + 1) for kind in "SPD"])
    return any(ref_lit_subset(c, b) for c in above)


@functools.cache
def ref_lit_covers(a: ClassLit) -> tuple[ClassLit, ...]:
    """The covers of a class literal, found by enumeration: the maximal
    literals strictly below it (P0 written S0), sorted by text."""
    a = _ref_s0(a)
    below = {c for kind in "SPD" for level in range(a.level + 1)
             if (c := _ref_s0(ClassLit(a.neg, kind, level))) != a and ref_lit_subset(c, a)}
    return tuple(sorted((c for c in below
                         if not any(d != c and ref_lit_subset(c, d) for d in below)),
                        key=_ref_literal_text))


class RefNode(NamedTuple):
    """A ground node: a catalog schema at class literals."""

    pid: PrincipleId
    args: tuple[ClassLit, ...]

    @staticmethod
    def parse(text: str) -> RefNode:
        """The node the text spells, in the argument order written, with
        the errors of the package's readers; a single class on a binary
        family abbreviates the diagonal."""
        family, *rest = text.split(":")
        tag = rest[0] if rest and rest[0] in ("DSI", "DPI") else ""
        pid = _REF_SCHEMAS.get((family, tag))
        if pid is None:
            raise UnknownFamily(f"unknown principle family: {text!r}")
        args = []
        for lit in rest[1:] if tag else rest:
            m = _REF_LIT_RE.fullmatch(lit)
            if m is None:
                raise SchemaError(f"bad class literal: {lit!r}")
            args.append(ClassLit(len(m[1]), m[2], int(m[3])))
        if len(args) == 1 and pid.arity == 2:
            args *= 2
        if len(args) != pid.arity:
            raise ArityMismatch(f"{pid.family} takes {pid.arity} "
                                f"class argument(s), got {len(args)}")
        if tag and args[0].kind != "D":
            raise ArityMismatch(f"variant {pid.variant} requires a D class "
                                f"in the first argument: {text!r}")
        return RefNode(pid, tuple(args))

    @property
    def level(self) -> int:
        return max(a.level for a in self.args)

    def canonical(self) -> RefNode:
        """P0 written S0, and the arguments of a symmetric family's plain
        variant sorted by text."""
        args = list(map(_ref_s0, self.args))
        if self.pid.family in _REF_SYMMETRIC and self.pid.variant == PLAIN:
            args.sort(key=_ref_literal_text)
        return RefNode(self.pid, tuple(args))

    def __str__(self) -> str:
        tag = _REF_TAGS[self.pid.variant]
        return ":".join([self.pid.family, *([tag] if tag else []),
                         *map(_ref_literal_text, self.args)])
