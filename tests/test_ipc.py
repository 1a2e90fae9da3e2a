"""The intuitionistic decision procedure: examples, trace replay, the
Glivenko oracle, an exhaustive small-Kripke-frame countermodel oracle,
skeleton extraction, and hybrid rule verification."""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sca.formulas import parse
from sca.ipc import (
    FAILED, NEEDS_FIRST_ORDER, VERIFIED, MalformedSkeleton, PAtom, PImp,
    PNot, Sequent, format_prop, parse_prop, prop_atoms, prove_classical,
    prove_ipc, skeletonize, validate_trace, verify_rule,
)
from tests.conftest import props


# ---------------------------------------------------------------------------
# Kripke oracle: exhaustive search over reflexive-transitive frames with
# at most three worlds and monotone valuations.

def _frames(n: int):
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in itertools.product([False, True], repeat=len(pairs)):
        rel = {(i, i) for i in range(n)}
        rel.update(p for p, b in zip(pairs, bits) if b)
        if all((a, d) in rel
               for a, b in rel for c, d in rel if b == c):
            yield rel


def _valuations(n: int, atoms: tuple, rel):
    for bits in itertools.product([False, True], repeat=n * len(atoms)):
        val = {(w, a): bits[w * len(atoms) + i]
               for w in range(n) for i, a in enumerate(atoms)}
        if all(val[(v, a)]
               for (w, v) in rel for a in atoms if val[(w, a)]):
            yield val


def _forces(w, f, rel, val):
    name = type(f).__name__
    if name == "PAtom":
        return val[(w, f.name)]
    if name == "PBot":
        return False
    if name == "PAnd":
        return _forces(w, f.f1, rel, val) and _forces(w, f.f2, rel, val)
    if name == "POr":
        return _forces(w, f.f1, rel, val) or _forces(w, f.f2, rel, val)
    if name == "PImp":
        return all(not _forces(v, f.f1, rel, val) or _forces(v, f.f2, rel, val)
                   for (u, v) in rel if u == w)
    raise TypeError(name)


def kripke_countermodel(f, max_worlds: int = 3) -> bool:
    """True iff some Kripke model with at most max_worlds worlds refutes f."""
    names = tuple(sorted(prop_atoms(f)))
    for n in range(1, max_worlds + 1):
        for rel in _frames(n):
            for val in _valuations(n, names, rel):
                if any(not _forces(w, f, rel, val) for w in range(n)):
                    return True
    return False


class TestProveIpc:
    def test_lem_implies_dne_skeleton(self):
        assert prove_ipc(parse_prop("(p \\/ ~p) -> (~~p -> p)")).provable

    def test_peirce_unprovable(self):
        f = parse_prop("((p -> q) -> p) -> p")
        assert not prove_ipc(f).provable
        assert kripke_countermodel(f)

    def test_de_morgan_double_negation_equivalence(self):
        assert prove_ipc(parse_prop("~(p /\\ q) -> ~~(~p \\/ ~q)")).provable
        assert prove_ipc(parse_prop("~~(~p \\/ ~q) -> ~(p /\\ q)")).provable

    def test_triple_negation(self):
        assert prove_ipc(parse_prop("~~~p -> ~p")).provable

    def test_lem_unprovable(self):
        assert not prove_ipc(parse_prop("p \\/ ~p")).provable

    def test_hypotheses(self):
        s = Sequent(frozenset({parse_prop("p -> q"), parse_prop("p")}),
                    parse_prop("q"))
        assert prove_ipc(s).provable

    @given(props())
    @settings(max_examples=300, deadline=None)
    def test_sound_for_classical(self, f):
        if prove_ipc(f).provable:
            assert prove_classical(f)

    @given(props(depth=3, atoms=("p", "q")))
    @settings(max_examples=150, deadline=None)
    def test_kripke_oracle_agreement(self, f):
        # A small countermodel refutes; provability excludes any
        # countermodel of any size.
        provable = prove_ipc(f).provable
        if kripke_countermodel(f):
            assert not provable
        if provable:
            assert not kripke_countermodel(f)

    @given(props())
    @settings(max_examples=200, deadline=None)
    def test_glivenko(self, f):
        assert prove_classical(f) == prove_ipc(PNot(PNot(f))).provable

    @given(props())
    @settings(max_examples=200, deadline=None)
    def test_trace_replay(self, f):
        result = prove_ipc(f)
        if result.provable:
            assert validate_trace(result.trace)


class TestProveClassical:
    def test_peirce_classical(self):
        assert prove_classical(parse_prop("((p -> q) -> p) -> p"))

    def test_non_tautology(self):
        assert not prove_classical(parse_prop("p -> q"))

    def test_classical_de_morgan(self):
        assert prove_classical(parse_prop("~(p /\\ q) -> (~p \\/ ~q)"))


class TestSkeletonize:
    def test_shared_atom(self):
        sk = skeletonize(parse("(E x. (x = 0)) \\/ ~(E x. (x = 0))"))
        assert format_prop(sk) == format_prop(
            parse_prop(format_prop(sk)))
        atoms = prop_atoms(sk)
        assert len(atoms) == 1

    def test_distinct_quantified_subformulas(self):
        sk = skeletonize(parse("(A x. ~(x = 0)) -> ~(E x. (x = 0))"))
        assert len(prop_atoms(sk)) == 2
        assert isinstance(sk, PImp)

    def test_atom_abstraction(self):
        sk = skeletonize(parse("((x = 0) -> bot) -> bot"))
        assert len(prop_atoms(sk)) == 1
        assert format_prop(sk) == "~~a"

    def test_alpha_invariance(self):
        a = skeletonize(parse("(E x. (x = 0)) \\/ ~(E y. (y = 0))"))
        assert len(prop_atoms(a)) == 1

    def test_bound_names_never_meet_free_ones(self):
        # a free variable spelled like a renamed bound one stays distinct
        sk = skeletonize(parse("(A y. (y = y)) -> (A y. (y = _b0))"))
        assert format_prop(sk) == "a -> b"
        assert not prove_ipc(sk).provable


class TestVerifyRule:
    def test_first_order_untouched(self):
        rule = {"verify": {"kind": "first-order"}}
        assert verify_rule(rule) == NEEDS_FIRST_ORDER

    def test_propositional_verified(self):
        rule = {"verify": {"kind": "propositional",
                           "skeleton": "(a \\/ ~a) -> (~~a -> a)"}}
        assert verify_rule(rule) == VERIFIED

    def test_propositional_failed(self):
        rule = {"verify": {"kind": "propositional", "skeleton": "a -> b"}}
        assert verify_rule(rule) == FAILED

    def test_dual_lemma_rule_verified(self):
        rule = {"verify": {"kind": "propositional",
                           "skeleton": "(a \\/ da) -> (~~a -> a)",
                           "lemmas": [{"law": "dual-imp-neg",
                                       "phi": "a", "dual": "da"}]}}
        assert verify_rule(rule) == VERIFIED

    def test_missing_skeleton(self):
        with pytest.raises(MalformedSkeleton):
            verify_rule({"verify": {"kind": "propositional"}})

    def test_unknown_kind(self):
        with pytest.raises(MalformedSkeleton):
            verify_rule({"verify": {"kind": "semantic"}})

    def test_unknown_lemma_law(self):
        with pytest.raises(MalformedSkeleton):
            verify_rule({"verify": {"kind": "propositional", "skeleton": "a",
                                    "lemmas": [{"law": "frobnicate"}]}})
