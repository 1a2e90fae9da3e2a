"""The intuitionistic decision procedure: examples, trace replay against
a reference replay and on mutated traces, the Glivenko oracle, an
exhaustive small-Kripke-frame countermodel oracle, skeleton extraction,
and rule verification through the rule base."""

from __future__ import annotations

import itertools
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sca.derivability import (
    FAILED, NEEDS_FIRST_ORDER, VERIFIED, SchemaError, load_rulebase, verify_rulebase,
)
from sca.formulas import (
    And, Bot, Eq, Exists, Forall, Imp, Lt, Not, Or, Var, all_names, alpha_equal,
    alpha_normal, parse, substitute,
)
from sca.ipc import (
    PAnd, PAtom, PBot, PImp, PNot, POr, Sequent, Trace, format_prop,
    parse_prop, prove_classical, prove_ipc, skeletonize, validate_trace,
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
    if name == "Bot":
        return False
    if name == "And":
        return _forces(w, f.f1, rel, val) and _forces(w, f.f2, rel, val)
    if name == "Or":
        return _forces(w, f.f1, rel, val) or _forces(w, f.f2, rel, val)
    if name == "Imp":
        return all(not _forces(v, f.f1, rel, val) or _forces(v, f.f2, rel, val)
                   for (u, v) in rel if u == w)
    raise TypeError(name)


def kripke_countermodel(f, max_worlds: int = 3) -> bool:
    """True iff some Kripke model with at most max_worlds worlds refutes f."""
    names = tuple(sorted(all_names(f)))
    for n in range(1, max_worlds + 1):
        for rel in _frames(n):
            for val in _valuations(n, names, rel):
                if any(not _forces(w, f, rel, val) for w in range(n)):
                    return True
    return False


# ---------------------------------------------------------------------------
# Reference replay: every rule written out on its own, independently of the
# statement of the calculus that the prover and validate_trace share.  It
# does not check the principal of L-bot, axiom or the right rules, so it
# accepts some traces that validate_trace rejects, never the other way.

def reference_validate(tr: Trace) -> bool:
    seq = tr.sequent
    hyps, goal = seq.hypotheses, seq.goal
    kids = tuple(k.sequent for k in tr.children)
    p = tr.principal
    ok = False
    if tr.rule == "L-bot":
        ok = any(isinstance(h, PBot) for h in hyps) and not kids
    elif tr.rule == "axiom":
        ok = isinstance(goal, PAtom) and goal in hyps and not kids
    elif tr.rule == "L-and":
        ok = (isinstance(p, PAnd) and p in hyps and len(kids) == 1
              and kids[0] == Sequent(hyps - {p} | {p.f1, p.f2}, goal))
    elif tr.rule == "L-or":
        ok = (isinstance(p, POr) and p in hyps and len(kids) == 2
              and kids[0] == Sequent(hyps - {p} | {p.f1}, goal)
              and kids[1] == Sequent(hyps - {p} | {p.f2}, goal))
    elif tr.rule == "L-imp-bot":
        ok = (isinstance(p, PImp) and isinstance(p.f1, PBot) and p in hyps
              and len(kids) == 1 and kids[0] == Sequent(hyps - {p}, goal))
    elif tr.rule == "L-imp-atom":
        ok = (isinstance(p, PImp) and isinstance(p.f1, PAtom) and p in hyps
              and p.f1 in hyps and len(kids) == 1
              and kids[0] == Sequent(hyps - {p} | {p.f2}, goal))
    elif tr.rule == "L-imp-and":
        ok = (isinstance(p, PImp) and isinstance(p.f1, PAnd) and p in hyps
              and len(kids) == 1
              and kids[0] == Sequent(
                  hyps - {p} | {PImp(p.f1.f1, PImp(p.f1.f2, p.f2))}, goal))
    elif tr.rule == "L-imp-or":
        ok = (isinstance(p, PImp) and isinstance(p.f1, POr) and p in hyps
              and len(kids) == 1
              and kids[0] == Sequent(
                  hyps - {p} | {PImp(p.f1.f1, p.f2), PImp(p.f1.f2, p.f2)}, goal))
    elif tr.rule == "L-imp-imp":
        ok = (isinstance(p, PImp) and isinstance(p.f1, PImp) and p in hyps
              and len(kids) == 2
              and kids[0] == Sequent(hyps - {p} | {PImp(p.f1.f2, p.f2)}, p.f1)
              and kids[1] == Sequent(hyps - {p} | {p.f2}, goal))
    elif tr.rule == "R-and":
        ok = (isinstance(goal, PAnd) and len(kids) == 2
              and kids[0] == Sequent(hyps, goal.f1)
              and kids[1] == Sequent(hyps, goal.f2))
    elif tr.rule == "R-imp":
        ok = (isinstance(goal, PImp) and len(kids) == 1
              and kids[0] == Sequent(hyps | {goal.f1}, goal.f2))
    elif tr.rule == "R-or-1":
        ok = (isinstance(goal, POr) and len(kids) == 1
              and kids[0] == Sequent(hyps, goal.f1))
    elif tr.rule == "R-or-2":
        ok = (isinstance(goal, POr) and len(kids) == 1
              and kids[0] == Sequent(hyps, goal.f2))
    return ok and all(reference_validate(k) for k in tr.children)


RULES = ("L-bot", "axiom", "L-and", "L-or", "L-imp-bot", "L-imp-atom",
         "L-imp-and", "L-imp-or", "L-imp-imp", "R-and", "R-imp", "R-or-1",
         "R-or-2")


def _seq(src: str) -> Sequent:
    """A sequent written `h1, h2 |- goal`."""
    hyps, goal = src.split("|-")
    return Sequent(frozenset(parse_prop(h) for h in hyps.split(",") if h.strip()),
                   parse_prop(goal))


def _steps(tr: Trace, path: tuple = ()):
    """Every step of a trace with the child indices that lead to it."""
    yield path, tr
    for i, child in enumerate(tr.children):
        yield from _steps(child, path + (i,))


def replace(step: Trace, **changes) -> Trace:
    """The step with the given fields changed."""
    return Trace(**{name: changes.get(name, getattr(step, name)) for name in Trace._fields})


def _replace_at(tr: Trace, path: tuple, step: Trace) -> Trace:
    if not path:
        return step
    kids = list(tr.children)
    kids[path[0]] = _replace_at(kids[path[0]], path[1:], step)
    return replace(tr, children=tuple(kids))


def _edits(step: Trace):
    """The single edits of one step: its rule renamed, its principal
    swapped for None, a hypothesis or the goal, a child dropped or
    duplicated, and its children reversed."""
    for rule in RULES:
        if rule != step.rule:
            yield replace(step, rule=rule)
    seq = step.sequent
    for p in (None, *sorted(seq.hypotheses, key=format_prop), seq.goal):
        if p != step.principal:
            yield replace(step, principal=p)
    kids = step.children
    for i in range(len(kids)):
        yield replace(step, children=kids[:i] + kids[i + 1:])
        yield replace(step, children=kids[:i + 1] + kids[i:])
    if len(kids) > 1:
        yield replace(step, children=kids[::-1])


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
        for g in (f, PNot(PNot(f)), PImp(f, f)):
            result = prove_ipc(g)
            if result.provable:
                assert validate_trace(result.trace)
                assert reference_validate(result.trace)

    @given(props())
    @settings(max_examples=300, deadline=None)
    def test_each_hypothesis_prints_once_per_proof(self, f):
        # the tie-breaks order candidates by their printed text: each
        # hypothesis is printed at most once in a proof, and a second proof
        # of the same formula prints everything again
        printed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sca.ipc.format_prop", lambda h: printed.append(h) or format_prop(h))
            for g in (f, PNot(PNot(f))):
                counts = []
                for _ in range(2):
                    printed.clear()
                    prove_ipc(g)
                    assert len({id(h) for h in printed}) == len(printed)
                    counts.append(len(printed))
                assert counts[0] == counts[1]

    def test_a_lone_candidate_prints_nothing(self):
        # Peirce's law has one L-imp-imp candidate at each choice point,
        # so nothing needs ordering and no formula is printed
        printed = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sca.ipc.format_prop", lambda h: printed.append(h) or format_prop(h))
            assert not prove_ipc(parse_prop("((p -> q) -> p) -> p")).provable
        assert printed == []


class TestValidateTrace:
    @given(props(depth=3))
    @settings(max_examples=150, deadline=None)
    def test_mutants_rejected_by_the_reference_are_rejected(self, f):
        for g in (f, PNot(PNot(f)), PImp(f, f)):
            tr = prove_ipc(g).trace
            if tr is None:
                continue
            for path, step in _steps(tr):
                for edited in _edits(step):
                    mutant = _replace_at(tr, path, edited)
                    assert not validate_trace(mutant) or reference_validate(mutant)

    @pytest.mark.parametrize("sequent, rule, mutate", [
        ("bot |- p", "L-bot", lambda t: replace(t, rule="axiom")),
        ("p |- p", "axiom", lambda t: replace(t, rule="L-bot")),
        ("p /\\ q |- q", "L-and", lambda t: replace(t, children=())),
        ("p \\/ q |- q \\/ p", "L-or",
         lambda t: replace(t, children=t.children[::-1])),
        ("bot -> p |- q -> q", "L-imp-bot", lambda t: replace(t, rule="L-imp-atom")),
        ("p, p -> q |- q", "L-imp-atom", lambda t: replace(t, principal=PAtom("p"))),
        ("(p /\\ q) -> r |- p -> q -> r", "L-imp-and",
         lambda t: replace(t, children=t.children * 2)),
        ("(p \\/ q) -> r |- p -> r", "L-imp-or", lambda t: replace(t, rule="L-imp-and")),
        ("(p -> q) -> r, q |- r", "L-imp-imp",
         lambda t: replace(t, children=t.children[::-1])),
        ("p, q |- p /\\ q", "R-and", lambda t: replace(t, children=t.children[::-1])),
        ("|- p -> p", "R-imp", lambda t: replace(t, rule="R-or-1")),
        ("p |- p \\/ q", "R-or-1", lambda t: replace(t, rule="R-or-2")),
        ("q |- p \\/ q", "R-or-2", lambda t: replace(t, rule="R-or-1")),
    ])
    def test_rejects_a_mutation_of_each_rule(self, sequent, rule, mutate):
        tr = prove_ipc(_seq(sequent)).trace
        assert tr.rule == rule and validate_trace(tr)
        mutant = mutate(tr)
        assert not validate_trace(mutant)
        assert not reference_validate(mutant)

    @pytest.mark.parametrize("sequent, rule, principal", [
        ("bot, p |- q", "L-bot", "p"),
        ("p, q |- p", "axiom", "q"),
        ("p, q |- p /\\ q", "R-and", "p"),
        ("q |- p -> p", "R-imp", "q"),
        ("p |- p \\/ q", "R-or-1", "p"),
        ("q |- p \\/ q", "R-or-2", "q"),
    ])
    def test_rejects_a_wrong_principal(self, sequent, rule, principal):
        tr = prove_ipc(_seq(sequent)).trace
        assert tr.rule == rule and validate_trace(tr)
        mutant = replace(tr, principal=parse_prop(principal))
        assert not validate_trace(mutant)
        # the reference does not check these principals
        assert reference_validate(mutant)

    def test_nine_hundred_link_chain_replays(self):
        """validate_trace replays every proof the prover finds: the trace of
        p0 -> ... -> p899 -> p0 is 900 R-imp steps and an axiom, deeper
        than a replay with one frame per step reaches (496).  The same
        trace with its axiom made a leaf R-imp is rejected, so the replay
        reaches the last step.  Run in a fresh interpreter: in process,
        pytest's own frames use up the stack the search needs."""
        script = """if True:
            from sca.ipc import Trace, parse_prop, prove_ipc, validate_trace
            chain = " -> ".join(f"p{i}" for i in range(900)) + " -> p0"
            tr = prove_ipc(parse_prop(chain)).trace
            path = [tr]
            while path[-1].children:
                path += path[-1].children
            leaf = path.pop()
            bad = Trace("R-imp", leaf.sequent, None, ())
            for step in reversed(path):
                bad = Trace(step.rule, step.sequent, step.principal, (bad,))
            print(len(path), leaf.rule, validate_trace(tr), validate_trace(bad))
        """
        src = pathlib.Path(__file__).resolve().parent.parent / "src"
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(src), os.environ.get("PYTHONPATH")) if p))
        proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                              text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "900 axiom True False\n", "")


class TestPropSyntax:
    @given(props())
    @settings(max_examples=200, deadline=None)
    def test_print_parse_round_trip(self, f):
        assert parse_prop(format_prop(f)) == f

    @pytest.mark.parametrize("src, printed", [
        ("~a", "~a"),
        ("~(a -> b)", "~(a -> b)"),
        ("bot", "bot"),
        ("a <-> b", "(a -> b) /\\ (b -> a)"),
    ])
    def test_hand_cases(self, src, printed):
        f = parse_prop(src)
        assert format_prop(f) == printed
        assert parse_prop(printed) == f


class TestProveClassical:
    def test_peirce_classical(self):
        assert prove_classical(parse_prop("((p -> q) -> p) -> p"))

    def test_non_tautology(self):
        assert not prove_classical(parse_prop("p -> q"))

    def test_classical_de_morgan(self):
        assert prove_classical(parse_prop("~(p /\\ q) -> (~p \\/ ~q)"))


@st.composite
def _formulas(draw, depth: int = 3, quantified: bool = False):
    """A formula over x and y, with quantifiers, bare and in bounded sugar,
    under connectives: a small space, so that alpha-equal formulas meet
    often.  A quantified one has a quantifier at the top."""
    v = draw(st.sampled_from("xy"))
    if depth == 0:
        return Eq(Var(v), Var(draw(st.sampled_from("xy"))))
    kind = draw(st.integers(3 if quantified else 0, 4))
    sub = _formulas(depth - 1)
    if kind == 0:
        return Bot()
    if kind == 1:
        return Not(draw(sub))
    if kind == 2:
        return draw(st.sampled_from([And, Or, Imp]))(draw(sub), draw(sub))
    q, body = draw(st.sampled_from([Exists, Forall])), draw(sub)
    if kind == 3:
        return q(v, body)
    bound = Lt(Var(v), Var(draw(st.sampled_from("xy"))))
    return q(v, And(bound, body) if q is Exists else Imp(bound, body))


class TestSkeletonize:
    @given(st.data())
    @settings(max_examples=400, deadline=None)
    def test_one_atom_exactly_for_alpha_equal_formulas(self, data):
        """Atoms are keyed by the printed alpha-normal form, so the printer
        must tell alpha-normal forms apart, #k names, bounded sugar and
        parenthesized quantifiers included."""
        f = data.draw(_formulas(quantified=True))
        renamed = type(f)("u", substitute(f.body, f.var, Var("u")))
        g = data.draw(st.one_of(_formulas(quantified=True), st.just(renamed)))
        assert (format_prop(skeletonize(And(f, g))) == "a /\\ a") == alpha_equal(f, g)
        # the printed form determines the normal form: read back, with its
        # #k names respelled, it normalizes to the same formula
        normal = alpha_normal(f)
        assert alpha_normal(parse(format_prop(normal).replace("#", "_"))) == normal

    def test_shared_atom(self):
        sk = skeletonize(parse("(E x. (x = 0)) \\/ ~(E x. (x = 0))"))
        assert format_prop(sk) == format_prop(
            parse_prop(format_prop(sk)))
        atoms = all_names(sk)
        assert len(atoms) == 1

    def test_distinct_quantified_subformulas(self):
        sk = skeletonize(parse("(A x. ~(x = 0)) -> ~(E x. (x = 0))"))
        assert len(all_names(sk)) == 2
        assert isinstance(sk, PImp)

    def test_atom_abstraction(self):
        sk = skeletonize(parse("((x = 0) -> bot) -> bot"))
        assert len(all_names(sk)) == 1
        assert format_prop(sk) == "~~a"

    def test_alpha_invariance(self):
        a = skeletonize(parse("(E x. (x = 0)) \\/ ~(E y. (y = 0))"))
        assert len(all_names(a)) == 1

    def test_bound_names_never_meet_free_ones(self):
        # a free variable spelled like a renamed bound one stays distinct
        sk = skeletonize(parse("(A y. (y = y)) -> (A y. (y = _b0))"))
        assert format_prop(sk) == "a -> b"
        assert not prove_ipc(sk).provable


def one_rule(verify):
    """A loaded rule base of one rule, which has this verify spec."""
    return load_rulebase({"rules": [{"id": "r1", "conclusion": "DNE:S(k)", "verify": verify,
                                     "cite": {"ref": "Fact 2.2", "quote": "q"}}]})


def status_of(verify):
    return verify_rulebase(one_rule(verify)).statuses[0][1]


class TestVerifyRule:
    def test_first_order_untouched(self):
        assert status_of({"kind": "first-order"}) == NEEDS_FIRST_ORDER

    def test_propositional_verified(self):
        verify = {"kind": "propositional", "skeleton": "(a \\/ ~a) -> (~~a -> a)"}
        assert status_of(verify) == VERIFIED

    def test_propositional_failed(self):
        assert status_of({"kind": "propositional", "skeleton": "a -> b"}) == FAILED

    def test_dual_lemma_rule_verified(self):
        verify = {"kind": "propositional",
                  "skeleton": "(a \\/ da) -> (~~a -> a)",
                  "lemmas": [{"law": "dual-imp-neg", "phi": "a", "dual": "da"}]}
        assert status_of(verify) == VERIFIED

    def test_missing_skeleton(self):
        with pytest.raises(SchemaError):
            one_rule({"kind": "propositional"})

    def test_unknown_kind(self):
        with pytest.raises(SchemaError):
            one_rule({"kind": "semantic"})

    def test_unknown_lemma_law(self):
        with pytest.raises(SchemaError):
            one_rule({"kind": "propositional", "skeleton": "a",
                      "lemmas": [{"law": "frobnicate"}]})
