"""Hierarchy classification, the inclusion lattice, block merging, and
theory-relative classification."""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sca import nodes
from sca.derivability import TheoryContext, closure
from sca.formulas import (
    And, Exists, Forall, Imp, Lt, Not, Var, cantor_pair, eval_bounded, parse,
)
from sca.hierarchy import (
    ClassLit, HClass, NotPrenex, Unclassifiable, class_lit_covers, class_lit_subset,
    class_subset, classify_prenex, format_class_literal, parse_class_literal,
    prenex_merge, prenex_prefix, relative_classify,
)
from sca.principles import catalog, node_of
from tests.conftest import VAR_POOL, prenex, qfree

ALL_CLASSES = [HClass(p, k) for p in ("Sigma", "Pi") for k in range(7)]

STRONG_THEORY = ["DML:S1", "DNE:S0", "DML:S2", "DNE:S1", "DNE:S2"]


def _block_count(f):
    """The reference class of a prenex formula: count alternating
    quantifier blocks; a leading E-block gives Sigma, a leading A-block Pi."""
    prefix, _ = prenex_prefix(f)
    blocks = 0
    last = None
    for kind, _v in prefix:
        if kind != last:
            blocks += 1
            last = kind
    if blocks == 0:
        return HClass("Sigma", 0)
    return HClass("Sigma" if prefix[0][0] == "E" else "Pi", blocks)


def _deepest(make):
    """The largest n for which parse accepts make(n) within the stack."""
    lo, hi = 1, 4096
    while lo < hi:
        mid = (lo + hi + 1) // 2
        try:
            parse(make(mid))
            lo = mid
        except RecursionError:
            hi = mid - 1
    return lo


class TestClassify:
    def test_quantifier_free(self):
        assert classify_prenex(parse("x = 0")) == HClass("Sigma", 0)

    def test_single_exists_block(self):
        assert classify_prenex(parse("E x. E y. (x < y)")) == HClass("Sigma", 1)

    def test_pi_two(self):
        assert classify_prenex(parse("A x. E y. (y = x + 0)")) == HClass("Pi", 2)

    def test_not_prenex(self):
        with pytest.raises(NotPrenex):
            classify_prenex(parse("(A x. x = 0) -> bot"))

    def test_pi0_canonicalizes_to_sigma0(self):
        assert classify_prenex(parse("bot")).polarity == "Sigma"

    @given(prenex(max_prefix=8))
    @settings(max_examples=200)
    def test_matches_block_counting(self, f):
        """A prenex formula's class is the same over HA and under any
        theory: its bounded quantifiers have quantifier-free bodies."""
        assert classify_prenex(f) == _block_count(f)
        assert relative_classify(f, STRONG_THEORY) == _block_count(f)

    @pytest.mark.parametrize("src, prenex_sub, unclassifiable_sub", [
        ("x = 0 /\\ E y. (y = x)", "E y. (y = x)", "x = 0 /\\ E y. (y = x)"),
        ("(A y. (y = x)) -> x = 0", "A y. (y = x)", "(A y. (y = x)) -> x = 0"),
        ("A z. ~(E x. A y. (x = y))", "E x. A y. (x = y)", "~(E x. A y. (x = y))"),
    ])
    def test_blocking_subformula(self, src, prenex_sub, unclassifiable_sub):
        """NotPrenex carries the first quantifier under a connective;
        Unclassifiable carries the subformula no rule applies to: a
        connective over a quantifier, or a negation of Sigma 2 over HA."""
        with pytest.raises(NotPrenex) as e:
            classify_prenex(parse(src))
        assert e.value.sub == parse(prenex_sub)
        with pytest.raises(Unclassifiable) as e:
            relative_classify(parse(src))
        assert e.value.sub == parse(unclassifiable_sub)

    @pytest.mark.parametrize("make, expected", [
        (lambda n: "".join(f"{'EA'[i % 2]} x. " for i in range(n)) + "x = 0",
         lambda n: HClass("Sigma", n)),
        (lambda n: "~" * n + "x = 0", lambda n: HClass("Sigma", 0)),
        (lambda n: "(" * n + "x = 0" + " /\\ x = 0)" * n, lambda n: HClass("Sigma", 0)),
    ], ids=["quantifier-prefix", "negations", "conjunctions"])
    def test_deepest_parsed_nest_classifies(self, make, expected):
        n = _deepest(make)
        f = parse(make(n))
        assert classify_prenex(f) == relative_classify(f) == expected(n)


class TestClassSubset:
    def test_sigma1_in_pi2(self):
        assert class_subset(HClass("Sigma", 1), HClass("Pi", 2))

    def test_pi2_not_in_sigma1(self):
        assert not class_subset(HClass("Pi", 2), HClass("Sigma", 1))

    def test_level_zero_identified(self):
        assert class_subset(HClass("Sigma", 0), HClass("Pi", 0))
        assert class_subset(HClass("Pi", 0), HClass("Sigma", 0))

    def test_partial_order_by_exhaustion(self):
        for a in ALL_CLASSES:
            assert class_subset(a, a)
        for a, b, c in itertools.product(ALL_CLASSES, repeat=3):
            if class_subset(a, b) and class_subset(b, c):
                assert class_subset(a, c)
            if class_subset(a, b) and class_subset(b, a):
                assert a.level == b.level == 0 or a == b

    def test_strict_inclusions_up(self):
        for k in range(5):
            for p in ("Sigma", "Pi"):
                a = HClass(p, k)
                assert class_subset(a, HClass("Sigma", k + 1))
                assert class_subset(a, HClass("Pi", k + 1))

    def test_no_cross_inclusion_same_level(self):
        assert not class_subset(HClass("Sigma", 2), HClass("Pi", 2))
        assert not class_subset(HClass("Pi", 2), HClass("Sigma", 2))


class TestPrenexMerge:
    def test_merges_exists_pair(self):
        f = parse("E x. E y. A z. (z < x + y)")
        m = prenex_merge(f)
        assert m == parse("E u. A z. (z < p0(u) + p1(u))")

    def test_singleton_blocks_unchanged(self):
        f = parse("A x. (x = 0)")
        assert prenex_merge(f) == f

    def test_merge_sound_on_bounded_samples(self):
        # Bounding x, y by b and the pair variable by pair(b-1, b-1) + 1
        # makes the merged form at least as strong as the original, so
        # truth must transfer left to right on every sample.
        before = parse("E x < b. E y < b. A z < c. (z < x + y)")
        after = parse("E u < m. A z < c. (z < p0(u) + p1(u))")
        rng = random.Random(20260823)
        for _ in range(50):
            b, c = rng.randint(1, 6), rng.randint(1, 6)
            env = {"b": b, "c": c, "m": cantor_pair(b - 1, b - 1) + 1}
            if eval_bounded(before, env):
                assert eval_bounded(after, env)

    @given(prenex())
    @settings(max_examples=150)
    def test_preserves_classification(self, f):
        assert classify_prenex(prenex_merge(f)) == classify_prenex(f)

    @given(prenex())
    @settings(max_examples=150)
    def test_result_has_singleton_blocks(self, f):
        prefix, _ = prenex_prefix(prenex_merge(f))
        for (a, _v), (b, _w) in zip(prefix, prefix[1:]):
            assert a != b


class TestRelativeClassify:
    def test_bounded_exists_before_pi1_over_ha(self):
        f = parse("E y < x. A z. (z = y)")
        assert relative_classify(f) == HClass("Sigma", 2)

    def test_bounded_exists_collapse_with_dml(self):
        f = parse("E y < x. A z. (z = y)")
        assert relative_classify(f, ["DML:S1", "DNE:S0"]) == HClass("Pi", 1)

    def test_negated_sigma_with_dne(self):
        f = parse("~ (E x. (x = y))")
        assert relative_classify(f, ["DNE:S0"]) == HClass("Pi", 1)

    def test_bounded_forall_collapse(self):
        f = parse("A y < x. E z. A v. (v = y + z)")
        assert relative_classify(f) == HClass("Pi", 3)
        assert relative_classify(f, ["DML:S1", "DNE:S0"]) == HClass("Sigma", 2)

    def test_bounded_quantifiers_absorb(self):
        assert relative_classify(parse("E y < x. E z. (z = y)")) == HClass("Sigma", 1)
        assert relative_classify(parse("A y < x. A z. (z = y)")) == HClass("Pi", 1)

    @given(prenex(max_prefix=3))
    @settings(max_examples=100)
    def test_monotone_in_theory(self, f):
        try:
            base = relative_classify(f)
        except Exception:
            return
        rel = relative_classify(f, STRONG_THEORY)
        assert rel.level <= base.level

    @given(qfree())
    @settings(max_examples=60)
    def test_quantifier_free_is_sigma0(self, f):
        assert relative_classify(f) == HClass("Sigma", 0)

    def test_closure_of_theory_keeps_the_collapse(self, rb):
        f = parse("E y < x. A z. (z = y)")
        theory = {"DML:S1", "DNE:S0"}
        closed = closure(TheoryContext.make(theory, 3), rb)
        assert relative_classify(f, theory) == HClass("Pi", 1)
        assert relative_classify(f, closed) == HClass("Pi", 1)

    def test_p0_spelling_of_dne(self):
        f = parse("~ (E x. (x = y))")
        assert relative_classify(f, ["DNE:P0"]) == HClass("Pi", 1)

    def test_unknown_node_rejected(self):
        with pytest.raises(ValueError):
            relative_classify(parse("x = 0"), ["FOO:S1"])


# Catalog nodes at levels <= 1, spelled in random ways: P0 for S0, the
# diagonal sugar, and swapped arguments of the symmetric families.  DML
# and DNE at Sigma levels are drawn often because the collapses use them.
_PIDS = [pid for pid, _ in catalog()]
_COLLAPSE_PIDS = [pid for pid in _PIDS
                  if pid.family in ("DML", "DNE") and pid.variant == "Plain"]


@st.composite
def spelled_nodes(draw):
    if draw(st.integers(0, 2)):
        pid = draw(st.sampled_from(_COLLAPSE_PIDS))
        lits = [ClassLit(0, "S", draw(st.integers(0, 1)))] * pid.arity
    else:
        pid = draw(st.sampled_from(_PIDS))
        lits = [ClassLit(draw(st.integers(0, 2)), draw(st.sampled_from("SPD")),
                         draw(st.integers(0, 1)))
                for _ in range(pid.arity)]
    lits = [ClassLit(c.neg, draw(st.sampled_from("SP")), 0)
            if c.kind != "D" and c.level == 0 else c for c in lits]
    if pid.family in ("DML", "DMLBOT", "DNEOR") and draw(st.booleans()):
        lits.reverse()
    text = node_of(pid, lits)
    if len(lits) == 2 and lits[0] == lits[1] and draw(st.booleans()):
        text = node_of(pid, lits[:1] * 2).rsplit(":", 1)[0]
    return text


@st.composite
def bounded_mixed(draw, depth: int = 5):
    """Negations, bounded and unbounded quantifiers over a
    quantifier-free core."""
    if depth == 0 or draw(st.integers(0, 5)) == 0:
        return draw(qfree(depth=1))
    body = draw(bounded_mixed(depth=depth - 1))
    v = draw(st.sampled_from(VAR_POOL))
    bound = Var(draw(st.sampled_from(("a", "b"))))
    kind = draw(st.integers(0, 5))
    if kind == 0:
        return Not(body)
    if kind <= 2:
        return Exists(v, And(Lt(Var(v), bound), body))
    if kind == 3:
        return Forall(v, Imp(Lt(Var(v), bound), body))
    return (Exists if kind == 4 else Forall)(v, body)


def _rel(f, theory):
    try:
        return relative_classify(f, theory)
    except Unclassifiable:
        return None


class TestSpellingIndependence:
    @given(f=bounded_mixed(), theory=st.lists(spelled_nodes(), max_size=4),
           extra=spelled_nodes())
    @example(f=parse("E y < a. A z. (z = y)"), theory=["DML:S1", "DNE:S0"],
             extra="DNE:P0")
    @settings(max_examples=100, deadline=None)
    def test_larger_theory_never_weaker(self, f, theory, extra, rb):
        base = _rel(f, theory)
        if base is None:
            return
        closed = closure(TheoryContext.make(theory, 3), rb)
        for larger in (theory + [extra], closed):
            got = _rel(f, larger)
            assert got is not None and class_subset(got, base), (larger, got, base)


class TestHaProvesLevelZero:
    """HA proves DNE and DML at level 0, so assuming its closure changes
    no class: the engine's closure of the empty base is no stronger."""

    @given(f=bounded_mixed())
    @example(f=parse("~(E x. (x = y))"))
    @example(f=parse("A x < z. E y. (x = y)"))
    @settings(max_examples=100, deadline=None)
    def test_empty_theory_is_its_closure(self, f, rb):
        closed = closure(TheoryContext.make((), 3), rb)
        assert {"DNE:S0", "DML:S0:S0"} <= closed
        assert _rel(f, ()) == _rel(f, closed)

    def test_level_zero_collapses_over_ha(self):
        assert relative_classify(parse("~(E x. (x = y))")) == HClass("Pi", 1)
        assert relative_classify(parse("A x < z. E y. (x = y)")) == HClass("Sigma", 1)


class TestClassLiterals:
    def test_roundtrip(self):
        for text in ["S0", "P3", "D2", "nS2", "nnP1", "nD4"]:
            assert format_class_literal(parse_class_literal(text)) == text

    def test_subset_basics(self):
        assert class_lit_subset(parse_class_literal("S1"), parse_class_literal("P2"))
        assert not class_lit_subset(parse_class_literal("P2"), parse_class_literal("S1"))

    def test_negation_congruence(self):
        assert class_lit_subset(parse_class_literal("nS1"), parse_class_literal("nS2"))
        assert not class_lit_subset(parse_class_literal("nS1"), parse_class_literal("S2"))

    def test_covers(self):
        def covers(text):
            return [format_class_literal(c)
                    for c in class_lit_covers(parse_class_literal(text))]
        assert covers("S2") == ["D2"]
        assert covers("D2") == ["P1", "S1"]
        assert covers("nP1") == ["nD1"]
        assert covers("nD1") == ["nS0"]
        assert covers("D0") == []

    def test_order_is_the_one_in_nodes(self):
        """hierarchy re-exports the order that the engine reads from nodes."""
        assert class_lit_subset is nodes.class_lit_subset
        assert class_lit_covers is nodes.class_lit_covers
