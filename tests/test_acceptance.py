"""Acceptance gate: the eight primary criteria, run end to end."""

from __future__ import annotations

import random
import time

from hypothesis import strategies as st

from sca.derivability import (
    Derivable, Separated, TheoryContext, closure, equivalence_class,
    export_dot, ground_pattern, load_default_rulebase, query,
    verify_rulebase,
)
from sca.duality import dual
from sca.formulas import (
    alpha_equal, collapse_atom_negations, eval_bounded, free_vars, parse,
)
from sca.hierarchy import classify_prenex
from sca.ipc import PNot, prove_classical, prove_ipc
from sca.nodes import parse_class_literal
from sca.principles import PrincipleId, instantiate
from tests.conftest import RefNode, prenex_literal_matrix, props

RB = load_default_rulebase()


def _draw_many(strategy, n, seed):
    # Deterministic sampling from a hypothesis strategy.
    from hypothesis import HealthCheck, given, settings, seed as hseed
    collected = []

    @hseed(seed)
    @settings(max_examples=n, deadline=None, database=None,
              suppress_health_check=list(HealthCheck))
    @given(strategy)
    def collect(x):
        collected.append(x)

    collect()
    return collected[:n]


def test_criterion_1_dual_laws():
    corpus = _draw_many(prenex_literal_matrix(max_prefix=5), 520, 101)[:500]
    assert len(corpus) == 500
    start = time.monotonic()
    for f in corpus:
        a, b = classify_prenex(f), classify_prenex(dual(f))
        if a.level == 0:
            assert b.level == 0
        else:
            assert (a.level, a.polarity != b.polarity) == (b.level, True)
        assert alpha_equal(collapse_atom_negations(dual(dual(f))),
                           collapse_atom_negations(f))
    assert time.monotonic() - start < 5.0


def test_criterion_2_glivenko():
    corpus = _draw_many(props(), 1050, 202)[:1000]
    assert len(corpus) == 1000
    start = time.monotonic()
    for f in corpus:
        classical = prove_classical(f)
        intuit = prove_ipc(f).provable
        assert classical == prove_ipc(PNot(PNot(f))).provable
        if intuit:
            assert classical
    assert time.monotonic() - start < 30.0


def test_criterion_3_rule_verification():
    start = time.monotonic()
    report = verify_rulebase(RB)
    elapsed = time.monotonic() - start
    assert report.failed == 0
    assert report.verified >= 10
    verified = {rid for rid, status in report.statuses if status == "Verified"}
    assert "fact-2.2-S" in verified
    assert any(rid.startswith("prop-5.2") for rid in verified)
    assert any(rid.startswith("prop-5.4") for rid in verified)
    assert any(rid.startswith("prop-6.1") for rid in verified)
    assert any(rid.startswith("prop-peirce-a-") for rid in verified)
    assert any(rid.startswith("prop-peirce-b-") for rid in verified)
    assert any(rid.startswith("prop-4.4.1") for rid in verified)
    assert elapsed < 10.0


def test_criterion_4_figure_reproduction():
    for k in range(1, 5):
        dot = export_dot("abhk", k)
        vertex_lines = [l for l in dot.splitlines()
                        if l.strip().endswith(";") and "->" not in l
                        and "rankdir" not in l and "node [" not in l]
        edge_lines = [l for l in dot.splitlines() if "->" in l]
        assert len(vertex_lines) == 6
        assert len(edge_lines) == 7
        assert dot == export_dot("abhk", k)
    dns = export_dot("dns", 2)
    for node in ("DNE:S1", "DNEOR:P1:P1", "LEM:nS1", "LEM:P1", "LEM:S1",
                 "DML:nD2", "DML:D2", "DNEOR:D2:D2", "LEM:nD2", "LEM:D2",
                 "DML:P2", "DML:S2", "DNE:S2", "DNEOR:P2:P2", "LEM:nS2",
                 "LEM:P2", "LEM:S2"):
        assert f'"{node}"' in dns
    assert dns.count(" -> ") == 31  # 25 solid + 6 dashed edges
    assert dns.count("style=dashed") == 6
    assert dns == export_dot("dns", 2)


def test_criterion_5_equivalence_class():
    base = TheoryContext.make((), 5)
    cls = equivalence_class("DNEOR:P2:P2", base, RB)
    required = {"DNEOR:P2:P2", "DMLBOT:S2:S2", "CD:P2:P2", "COLL:P2"}
    assert required <= cls
    # closure replay in both directions for every reported member
    for member in cls:
        fwd = closure(TheoryContext.make({"DNEOR:P2:P2"}, 5), RB)
        back = closure(TheoryContext.make({member}, 5), RB)
        assert member in fwd and "DNEOR:P2:P2" in back


def test_criterion_6_separation_soundness():
    res = query(TheoryContext.make((), 3), "DML:S1", RB)
    assert isinstance(res, Separated) and res.witness["cite"]["quote"]

    res = query(TheoryContext.make({"DML:S2", "DNE:S2"}, 4), "LEM:nS2", RB)
    assert isinstance(res, Separated)

    for fact in RB.separations:
        for k in range(4):
            if fact.guard:
                op = ">=" if ">=" in fact.guard else "=="
                bound = int(fact.guard.split(op)[1])
                if (op == ">=" and k < bound) or (op == "==" and k != bound):
                    continue
            ground = [ground_pattern(p, k) for p in fact.theory]
            unprov = ground_pattern(fact.unprovable, k)
            if any(g is None for g in ground) or unprov is None:
                continue
            k_max = max([RefNode.parse(n).level for n in ground + [unprov]] + [1]) + 2
            got = closure(TheoryContext.make(ground, k_max), RB)
            assert unprov not in got, (fact.fact_id, k)


def test_criterion_7_classical_sanity():
    rng = random.Random(707)
    lit = parse_class_literal
    matrices = ["x = y", "x < y + z", "~(x = z)", "(x < y) \\/ (y < x)",
                "(x = y) /\\ (y < z + y)", "x + y = y + x", "x * y < z + S(z)"]
    checked = 0
    while checked < 200:
        phi = parse(rng.choice(matrices))
        psi = parse(rng.choice(matrices))
        family = rng.choice(["LEM", "DNE", "PEIRCE", "DML"])
        if family == "LEM":
            inst = instantiate(PrincipleId("LEM", "Plain", 1), [lit("S0")], [phi])
        elif family == "DNE":
            inst = instantiate(PrincipleId("DNE", "Plain", 1), [lit("S0")], [phi])
        elif family == "PEIRCE":
            inst = instantiate(PrincipleId("PEIRCE", "Plain", 1), [lit("S0")],
                               [phi, psi])
        else:
            inst = instantiate(PrincipleId("DML", "Plain", 2),
                               [lit("S0"), lit("S0")], [phi, psi])
        env = {v: rng.randint(0, 5) for v in free_vars(inst.rendered)}
        assert eval_bounded(inst.rendered, env), (family, env)
        checked += 1
    assert checked == 200


def test_criterion_8_closure_determinism():
    ctx = TheoryContext.make({"LEM:P2", "DNE:S2"}, 4)
    baseline = closure(ctx, RB)
    assert "LEM:S2" in baseline
    for seed in range(10):
        got = closure(ctx, RB, rng=random.Random(seed))
        assert got == baseline
        assert "LEM:S2" in got
    res = query(ctx, "LEM:S2", RB)
    assert isinstance(res, Derivable)
