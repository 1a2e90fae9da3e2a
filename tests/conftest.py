"""Shared fixtures and hypothesis strategies for the test suite."""

from __future__ import annotations

import warnings

import pytest
from hypothesis import strategies as st

from sca import derivability
from sca.formulas import (
    Add, And, Bot, Eq, Exists, Forall, Formula, Imp, Lt, Mul, Not, Or, Pair,
    Proj0, Proj1, Succ, Term, Var, Zero, free_vars,
)
from sca.ipc import PAnd, PAtom, PBot, PImp, POr, PropFormula

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
