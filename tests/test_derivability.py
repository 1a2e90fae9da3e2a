"""Rule-base loading, closure, queries, equivalence classes, rule
verification, and figure export."""

from __future__ import annotations

import collections
import functools
import itertools
import pathlib
import random
import re
import runpy

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sca import derivability
from sca.derivability import (
    _FIGURES, K_MAX_LIMIT, Derivable, LevelOutOfRange, MissingCitation,
    RuleBase, SchemaError, Separated, TheoryContext, Unknown, UnknownFamily, _closure_detail,
    _cover_steps, _program, closure, equivalence_class, export_dot, ground_pattern,
    load_default_rulebase, load_rulebase, parse_pattern, query, verify_rulebase,
)
from sca.formulas import parse
from sca.hierarchy import relative_classify
from sca.nodes import (
    _LITERAL_COVERS, CATALOG, DELTA_PI, DELTA_SIGMA, FAMILIES, PLAIN, ClassLit, Node,
    _pattern_literal, ground_node, parse_class_literal,
)
from tests.conftest import RefNode, ref_lit_covers, ref_lit_subset

CITE = {"ref": "Fact 2.2", "quote": "the following fact trivially holds"}


# Text grounding, the reference that NodePat's grounding from its parsed
# shape is checked against: substitute each relative level into the
# pattern's text, then parse, canonicalize and print the node.

_LEVEL_RE = re.compile(r"\(k([+-]\d+)?\)(?=:|$)")


def _text_at(pat, k: int) -> str | None:
    """The pattern's text at level k as written; None when a class goes
    below level 0."""
    ground = _LEVEL_RE.sub(lambda m: str(k + int(m[1] or 0)), pat.text)
    return None if "-" in ground else ground


def _at(pat, k: int) -> RefNode | None:
    """The canonical node of the pattern at level k; None as for _text_at."""
    ground = _text_at(pat, k)
    return None if ground is None else RefNode.parse(ground).canonical()


def _pattern_error(text: str) -> tuple[type, str] | None:
    """The type and message of the error that checking the pattern's text
    with every relative level at 0 raises, or None."""
    try:
        RefNode.parse(_LEVEL_RE.sub("0", text))
    except SchemaError as e:
        return type(e), f"{e} in pattern {text!r}"
    return None


def _node_covers(rb, n: str) -> tuple:
    """The cover steps of a node, built as nodes: each class argument
    lowered to each of its covers, the node canonicalized and printed."""
    node = RefNode.parse(n)
    monotone = node.pid.family in rb.inclusions and node.pid.variant == PLAIN
    covered = {str(RefNode(node.pid, (*node.args[:i], c, *node.args[i + 1:])).canonical())
               for i, a in enumerate(node.args) if monotone for c in ref_lit_covers(a)}
    return tuple((f"mono:{node.pid.family}", (n,), w, None) for w in sorted(covered))


# A naive reference fixpoint, written apart from the engine's worklist:
# rescan every ground rule instance and every node's down-set until
# nothing changes.

def _ground(pats, guard, k: int, k_max: int):
    """Texts of the patterns at level k; None when the guard fails or a
    node falls outside levels 0..k_max."""
    if guard and not eval(guard.replace("k", str(k))):  # noqa: S307 - trusted test data
        return None
    nodes = [_at(p, k) for p in pats]
    if any(n is None or n.level > k_max for n in nodes):
        return None
    return [str(n) for n in nodes]


@functools.cache
def _down_set(text: str, incl: frozenset[str]) -> frozenset[str]:
    node = RefNode.parse(text)
    if node.pid.family not in incl or node.pid.variant != PLAIN:
        return frozenset({text})
    per_arg = [[c for kind in "SPD" for lvl in range(a.level + 1)
                if ref_lit_subset(c := ClassLit(a.neg, kind, lvl), a)]
               for a in node.args]
    return frozenset(str(RefNode(node.pid, args).canonical())
                     for args in itertools.product(*per_arg))


_INSTANCES: dict = {}


def _oracle_instances(rb, k_max: int) -> list:
    """Every ground rule instance within levels 0..k_max as (premise
    set, conclusion); kept per rule base and cap, with the rule base, so
    that an oracle closure does not ground the rules again."""
    key = (id(rb), k_max)
    if key not in _INSTANCES:
        _INSTANCES[key] = rb, [
            (frozenset(g[:-1]), g[-1]) for r in rb.rules for k in range(k_max + 1)
            if (g := _ground(r.premises + (r.conclusion,), r.guard, k, k_max))]
    return _INSTANCES[key][1]


def _oracle_closure(assumed, rb, k_max: int) -> frozenset[str]:
    instances = _oracle_instances(rb, k_max)
    nodes = set(assumed)
    while True:
        new = {concl for prems, concl in instances if prems <= nodes}
        new.update(*(_down_set(n, rb.inclusions) for n in nodes))
        if new <= nodes:
            return frozenset(nodes)
        nodes |= new


def _assert_chain_replays(chain, ctx, goal: str, rb) -> None:
    """Every premise is assumed or concluded earlier, every rule step
    re-grounds at some k, and every monotonicity step concludes a node in
    its premise's down-set."""
    rules = {r.rule_id: r for r in rb.rules}
    known = set(ctx.assumed)
    for rule_id, premises, conclusion in chain:
        assert set(premises) <= known, (rule_id, premises)
        if rule_id.startswith("mono:"):
            assert len(premises) == 1
            assert conclusion in _down_set(premises[0], rb.inclusions)
        else:
            rule = rules[rule_id]
            assert any(_ground(rule.premises + (rule.conclusion,), rule.guard, k,
                               ctx.k_max) == [*premises, conclusion]
                       for k in range(ctx.k_max + 1)), rule_id
        known.add(conclusion)
    assert ground_node(goal)[0] in known


def _oracle_query(ctx, goal: str, rb, theory_closures: dict) -> tuple:
    """The answer query must give, found with the oracle: DERIVABLE; the
    first separation fact, in file order and then by k, whose theory
    proves all of the context and whose unprovable node follows from the
    context plus the goal; or UNKNOWN with the boundary warning of the
    clamped conclusions the context's closure reaches.  theory_closures
    memoizes oracle closures of theories over this rule base."""
    have = _oracle_closure(ctx.assumed, rb, ctx.k_max)
    if goal in have:
        return ("DERIVABLE",)
    with_goal = _oracle_closure(ctx.assumed | {goal}, rb, ctx.k_max)
    for fact in rb.separations:
        for k in range(ctx.k_max + 1):
            g = _ground(fact.theory + (fact.unprovable,), fact.guard, k, ctx.k_max)
            if g is None or g[-1] not in with_goal:
                continue
            theory = tuple(g[:-1])
            key = (theory, ctx.k_max)
            if key not in theory_closures:
                theory_closures[key] = _oracle_closure(theory, rb, ctx.k_max)
            if have <= theory_closures[key]:
                return ("SEPARATED", fact.fact_id, k, theory, g[-1])
    clamped = set()
    for rule in rb.rules:
        for k in range(ctx.k_max + 1):
            if rule.guard and not eval(  # noqa: S307 - trusted test data
                    rule.guard.replace("k", str(k))):
                continue
            *prems, concl = [_at(p, k) for p in rule.premises + (rule.conclusion,)]
            if (concl is not None and concl.level > ctx.k_max and None not in prems
                    and {str(p) for p in prems} <= have):
                clamped.add(concl.level)
    involved = {RefNode.parse(n).level for n in ctx.assumed | {goal}}
    return ("UNKNOWN", any(abs(c - m) <= 2 for c in clamped for m in involved))


def _answer(res) -> tuple:
    if isinstance(res, Derivable):
        return ("DERIVABLE",)
    if isinstance(res, Separated):
        w = res.witness
        return ("SEPARATED", res.fact_id, w["k"], tuple(w["theory"]), w["unprovable"])
    return ("UNKNOWN", res.boundary_warning)


def _pool(rb) -> list[str]:
    """Nodes the shipped rules mention at k 1 and 2, up to level 3."""
    return sorted({str(n) for r in rb.rules
                   for p in r.premises + (r.conclusion,) for k in (1, 2)
                   if (n := _at(p, k)) is not None and n.level <= 3})


# A rule that concludes one level above its premise: at the cap, its
# instance is a clamp marker.
_CLAMP_RULE = {"id": "r1", "premises": ["LEM:S(k)"], "conclusion": "DNE:S(k+1)", "cite": CITE}


def _mini(rules=(), separations=(), inclusions=("LEM", "DNE")):
    return load_rulebase({"rules": list(rules),
                          "separations": list(separations),
                          "inclusions": list(inclusions)})


def _direct_program(rb, k_max: int) -> tuple:
    """The ground program at a cap, every rule and separation fact ground
    directly at each k up to the cap, with no grounding shared between
    levels or caps: (insts, watch, counts, facts) as _program gives them."""
    insts, counts, facts = [], [], []
    watch: dict = {}
    for rule, k in itertools.product(rb.rules, range(k_max + 1)):
        if rule.guard and not eval(rule.guard.replace("k", str(k))):  # noqa: S307 - trusted test data
            continue
        ground = [_at(p, k) for p in rule.premises + (rule.conclusion,)]
        if any(g is None for g in ground):
            continue
        *prems, concl = ground
        texts = tuple(map(str, prems))
        for p in set(texts) or (None,):
            watch.setdefault(p, []).append(len(insts))
        clamp = any(g.level > k_max for g in ground)
        insts.append((rule.rule_id, texts, None if clamp else str(concl), concl.level))
        counts.append(len(set(texts)))
    for fact, k in itertools.product(rb.separations, range(k_max + 1)):
        if fact.guard and not eval(fact.guard.replace("k", str(k))):  # noqa: S307 - trusted test data
            continue
        ground = [_at(p, k) for p in fact.theory + (fact.unprovable,)]
        if all(g is not None and g.level <= k_max for g in ground):
            *theory, unprov = map(str, ground)
            facts.append((fact, k, tuple(theory), unprov))
    return insts, watch, counts, facts


class TestLoadRulebase:
    def test_shipped_contains_fact_22_all_classes(self, rb):
        ids = {r.rule_id for r in rb.rules}
        for suffix in ("S", "P", "D", "nS", "nP"):
            assert f"fact-2.2-{suffix}" in ids

    def test_shipped_contains_peirce_both_directions(self, rb):
        by_id = {r.rule_id: r for r in rb.rules}
        fwd = [r for rid, r in by_id.items() if rid.startswith("prop-peirce-a-")]
        bwd = [r for rid, r in by_id.items() if rid.startswith("prop-peirce-b-")]
        assert fwd and bwd

    def test_missing_quote(self):
        with pytest.raises(MissingCitation):
            _mini(rules=[{"id": "r1", "premises": ["LEM:S(k)"],
                          "conclusion": "DNE:S(k)",
                          "cite": {"ref": "Fact 2.2", "quote": ""}}])

    def test_duplicate_id(self):
        rule = {"id": "r1", "premises": [], "conclusion": "DNE:S(k)",
                "cite": CITE}
        with pytest.raises(SchemaError):
            _mini(rules=[rule, dict(rule)])

    def test_unknown_family_in_inclusions(self):
        with pytest.raises(UnknownFamily):
            _mini(inclusions=["LEM", "FROB"])

    def test_unknown_family_in_pattern(self):
        with pytest.raises(SchemaError):
            _mini(rules=[{"id": "r1", "premises": ["FROB:S(k)"],
                          "conclusion": "DNE:S(k)", "cite": CITE}])

    def test_propositional_needs_skeleton(self):
        with pytest.raises(SchemaError):
            _mini(rules=[{"id": "r1", "premises": [], "conclusion": "DNE:S(k)",
                          "cite": CITE, "verify": {"kind": "propositional"}}])

    def test_not_an_object(self):
        with pytest.raises(SchemaError):
            load_rulebase("[]")

    @pytest.mark.parametrize("rule, message", [
        ({"guard": "k>=\u0661"}, "rule r1: bad guard: 'k>=\u0661'"),
        ({"premises": ["LEM:S(k-\u0661)"]}, "rule r1: bad class literal: 'S(k-\u0661)'"),
    ])
    def test_levels_are_ascii_digits(self, rule, message):
        """A level or guard bound is ASCII digits: an Arabic-Indic one,
        which int() would read, is a bad guard or class literal, in a rule
        base as in request text."""
        with pytest.raises(SchemaError, match=re.escape(message)):
            _mini(rules=[{"id": "r1", "conclusion": "DNE:S(k)", "cite": CITE, **rule}])
        with pytest.raises(SchemaError, match=re.escape("bad class literal: 'S\u0661'")):
            TheoryContext.make(["LEM:S\u0661"], 3)

    def test_equality_ignores_memos(self, rb):
        closure(TheoryContext.make({"LEM:S1"}, 3), rb)
        assert load_default_rulebase() == rb

    def test_memos_bounded_by_the_ground_program(self):
        """Serving many distinct requests leaves one ground program per
        level cap used, unchanged in size, the grounding of each level up
        to that cap, and cover steps only for nodes that some closure
        reached: nothing the engine keeps grows with the requests served."""
        rb = load_default_rulebase()
        pool, rng = _pool(rb), random.Random(7)
        bases = set()
        while len(bases) < 60:
            bases.add(frozenset(rng.sample(pool, rng.randint(1, 3))))
        queries = [(TheoryContext.make(b, 3), rng.choice(pool)) for b in sorted(bases, key=sorted)]
        query(*queries[0], rb)
        sizes = [len(part) for part in rb._programs[3]]
        for ctx, goal in queries[1:]:
            query(ctx, goal, rb)
        covered = set(rb._covers)
        # a slotted record holds its slots and nothing else
        assert not hasattr(rb, "__dict__")
        assert set(rb.__slots__) == {"rules", "separations", "inclusions", "_levels", "_programs",
                                     "_covers"}
        assert list(rb._programs) == [3]
        assert sorted(rb._levels) == [0, 1, 2, 3]
        assert [len(part) for part in rb._programs[3]] == sizes
        theories = {theory for _fact, _k, theory, _unprov in rb._programs[3][3]}
        reached = set().union(
            *(closure(TheoryContext.make(ctx.assumed | {goal}, 3), rb) for ctx, goal in queries),
            *(closure(TheoryContext.make(theory, 3), rb) for theory in theories))
        assert covered <= reached
        # the literal-cover memo, shared by rule bases, holds the literals
        # of nodes closures reached, which lie within K_MAX_LIMIT
        assert _LITERAL_COVERS
        assert all(parse_class_literal(lit).level <= K_MAX_LIMIT for lit in _LITERAL_COVERS)
        assert len(_LITERAL_COVERS) <= 3 * 3 * (K_MAX_LIMIT + 1)

    def test_node_text_memos_bounded(self):
        """Node text comes from requests: serving more distinct texts than
        the node-text memos hold leaves each at its bound.  Contexts
        rejected for their level and relative classifications fill
        ground_node, the one memo of request text, rule bases read from
        files parse_pattern, the memo of parsed pattern shapes, and both
        the memo of class literals that they share."""
        served = 40_000
        f = parse("x = 0")
        for n in range(4, 4 + served):
            with pytest.raises(LevelOutOfRange):
                TheoryContext.make([f"LEM:S{n}"], 3)
            relative_classify(f, [f"DNE:P{n}"])
            parse_pattern(f"DML:S(k+{n})")
        for memo in (ground_node, parse_pattern, _pattern_literal):
            info = memo.cache_info()
            assert info.currsize < served and info.currsize == info.maxsize

    def test_generator_reproduces_shipped_file(self):
        root = pathlib.Path(__file__).resolve().parent.parent
        tool = runpy.run_path(str(root / "tools" / "make_rulebase.py"))
        shipped = (root / "src" / "sca" / "data" / "rulebase.json").read_bytes()
        assert tool["render"]().encode("utf-8") == shipped

    def test_generator_exits_in_one_line_on_a_schema_error(self):
        """A rule base that does not load stops the generator with a
        one-line message, before it writes anything."""
        root = pathlib.Path(__file__).resolve().parent.parent
        tool = runpy.run_path(str(root / "tools" / "make_rulebase.py"))
        tool["RULES"].append(dict(tool["RULES"][0]))  # main reads this list
        with pytest.raises(SystemExit) as exit_:
            tool["main"]()
        message = str(exit_.value)
        assert message.startswith("the rule base does not load: missing or duplicate rule id")
        assert "\n" not in message


class TestGroundProgram:
    CAPS = (*range(9), 20)

    @staticmethod
    def _base(name: str):
        if name == "shipped":
            return load_default_rulebase()
        if name == "clamp":
            return _mini(rules=TestQuery.CLAMP_RULES, separations=TestQuery.CLAMP_SEPARATIONS)
        # a premise above the conclusion: clamped at k = cap by its premise
        return _mini(rules=[{"id": "r1", "premises": ["LEM:S(k+1)"], "conclusion": "DNE:S(k)",
                             "cite": CITE}])

    @pytest.mark.parametrize("name", ["shipped", "clamp", "lowering"])
    def test_shared_levels_give_the_direct_program(self, name):
        """Each cap's program, built from the levels shared between caps
        with the caps taken in ascending, descending and shuffled order,
        is the program of the direct grounding; each instance within the
        cap is one object, shared with every larger cap's program."""
        direct_rb = self._base(name)
        direct = {cap: _direct_program(direct_rb, cap) for cap in self.CAPS}
        shuffled = list(self.CAPS)
        random.Random(3).shuffle(shuffled)
        for caps in (self.CAPS, self.CAPS[::-1], shuffled):
            rb = self._base(name)
            for cap in caps:
                assert _program(rb, cap) == direct[cap], (caps, cap)
            assert sorted(rb._levels) == list(range(max(self.CAPS) + 1))
            if name != "shipped":
                assert any(i[2] is None for i in _program(rb, 3)[0])
            for small, big in itertools.pairwise(sorted(self.CAPS)):
                shared = {id(i) for i in _program(rb, big)[0]}
                assert all(id(i) in shared for i in _program(rb, small)[0] if i[2] is not None)


def _pattern_texts() -> list[str]:
    """Every distinct pattern of the shipped rule base and of the figures."""
    rb = load_default_rulebase()
    texts = {p.text for r in rb.rules for p in r.premises + (r.conclusion,)}
    texts |= {p.text for f in rb.separations for p in f.theory + (f.unprovable,)}
    for nodes, styles in _FIGURES.values():
        texts.update(nodes, *(base for base, _edges in styles.values()))
    return sorted(texts)


_TAG_OF = {PLAIN: [], DELTA_SIGMA: ["DSI"], DELTA_PI: ["DPI"]}


@st.composite
def _generated_patterns(draw) -> str:
    """Pattern text over a catalog schema (now and then an unknown
    family), with one class literal per argument (or a single one, the
    diagonal sugar, or a wrong count) and each level fixed or an offset
    from k, below 0 too.  Now and then a literal is malformed."""
    pid = draw(st.sampled_from([pid for pid, _ in CATALOG]))
    family = draw(st.sampled_from([pid.family] * 20 + ["FROB"]))
    count = draw(st.sampled_from([pid.arity] * 8 + [1, 2, 3]))
    lits = [draw(st.sampled_from(["", "n", "nn"])) + draw(st.sampled_from("SPD" * 8 + "Q"))
            + draw(st.one_of(st.integers(0, 12).map(str),
                             st.integers(-12, 4).map(lambda d: f"(k{d:+d})" if d else "(k)")))
            for _ in range(count)]
    return ":".join([family, *_TAG_OF[pid.variant], *lits])


def _assert_grounds_as_text(pat, k: int) -> None:
    node = _at(pat, k)
    assert pat.ground(k) == (None if node is None else (str(node), node.level)), (pat.text, k)
    assert ground_pattern(pat, k) == (None if node is None else str(node))
    assert pat.text_at(k) == _text_at(pat, k), (pat.text, k)


class TestPatternGrounding:
    """A pattern grounds from its parsed shape as the text grounding
    does: canonical text, level, and the text as written."""

    def test_shipped_and_figure_patterns(self):
        for text in _pattern_texts():
            pat = parse_pattern(text)
            for k in range(K_MAX_LIMIT + 2):
                _assert_grounds_as_text(pat, k)

    @settings(max_examples=400, deadline=None)
    @given(text=_generated_patterns(), k=st.integers(0, 14))
    @example(text="DNEOR:P(k-1):P(k)", k=10)   # P10 sorts before P9
    @example(text="DML:nS(k):nS(k+1)", k=9)
    @example(text="DMLBOT:P9:P(k)", k=10)
    @example(text="DMLBOT:DSI:nD(k):D(k)", k=10)  # a Delta variant keeps its order
    @example(text="LEM:DSI:S(k)", k=1)  # a Delta variant's first class is a D class
    @example(text="DNEOR:P(k-3):P0", k=3)  # P0 prints as S0
    @example(text="DML:S(k-2):P(k)", k=1)  # below level 0
    def test_generated_patterns(self, text, k):
        """Errors too: the same type and message, the text quoted with
        each relative level at 0."""
        error = _pattern_error(text)
        if error is None:
            _assert_grounds_as_text(parse_pattern(text), k)
        else:
            with pytest.raises(SchemaError) as raised:
                parse_pattern(text)
            assert (type(raised.value), str(raised.value)) == error

    def test_cover_steps_built_as_nodes(self):
        """A node's cover steps from its text equal those built as nodes,
        on every node of the cap-12 program and of a closure in which
        DNEOR's arguments straddle levels 9 and 10, under the shipped
        inclusions (every family) and under two families."""
        rb = load_default_rulebase()
        nodes = {n for _rid, prems, concl, _level in _program(rb, 12)[0]
                 for n in (*prems, concl) if n is not None}
        nodes |= closure(TheoryContext.make({"DNEOR:P9:P10"}, 10), rb)
        assert "DNEOR:P10:P9" in nodes and "LEM:DSI:D3" in nodes
        for base in (rb, _mini(inclusions=["DML", "LEM"])):
            for n in sorted(nodes):
                assert _cover_steps(base, n) == _node_covers(base, n), n


class TestCanonicalNode:
    def test_diagonal_sugar(self):
        assert ground_node("DML:S1")[0] == "DML:S1:S1"

    def test_p0_canonicalizes(self):
        assert ground_node("LEM:P0")[0] == "LEM:S0"

    def test_symmetric_family_sorted(self):
        assert ground_node("DML:P2:S1")[0] == ground_node("DML:S1:P2")[0]

    def test_node_level(self):
        assert RefNode.parse("DML:S1:P2").level == 2
        assert RefNode.parse("LEM:nnS3").level == 3


class TestClosure:
    def test_lem_pi_plus_dne_sigma(self, rb):
        ctx = TheoryContext.make({"LEM:P2", "DNE:S2"}, 4)
        assert "LEM:S2" in closure(ctx, rb)

    def test_coll_gives_dml(self, rb):
        ctx = TheoryContext.make({"COLL:P3"}, 5)
        assert "DML:P3:P3" in closure(ctx, rb)

    def test_dne_sigma_gives_dne_pi_next(self, rb):
        ctx = TheoryContext.make({"DNE:S1"}, 4)
        assert "DNE:P2" in closure(ctx, rb)

    def test_lem_delta_gives_lem_sigma_below(self, rb):
        ctx = TheoryContext.make({"LEM:D2"}, 4)
        assert "LEM:S1" in closure(ctx, rb)

    def test_ha_alone_proves_level_zero(self, rb):
        base = closure(TheoryContext.make((), 3), rb)
        for node in ("LEM:S0", "DNE:S0", "DNS:S0", "PEIRCE:S0", "LEM:D0"):
            assert node in base
        for node in ("DML:S1:S1", "DNE:S1", "LEM:P1"):
            assert node not in base

    def test_monotone_in_context(self, rb):
        small = closure(TheoryContext.make({"LEM:P2"}, 3), rb)
        large = closure(TheoryContext.make({"LEM:P2", "DNE:S2"}, 3), rb)
        assert small <= large

    def test_context_spelling_independent(self, rb):
        spelled = closure(TheoryContext(frozenset({"DML:S1", "DNE:P0"}), 3), rb)
        assert spelled == closure(TheoryContext.make({"DML:S1:S1", "DNE:S0"}, 3), rb)

    def test_idempotent(self, rb):
        once = closure(TheoryContext.make({"DML:S2"}, 3), rb)
        again = closure(TheoryContext(once, 3), rb)
        assert once == again

    def test_deterministic_under_firing_order(self, rb):
        ctx = TheoryContext.make({"DNE:S1"}, 3)
        baseline = closure(ctx, rb)
        for seed in range(5):
            assert closure(ctx, rb, rng=random.Random(seed)) == baseline

    @pytest.mark.parametrize("rules, base, k_max, levels", [
        (None, ["LEM:S20"], 20, set()), (None, ["LEM:P2", "DNE:S2"], 4, set()),
        (None, [], 3, set()), ([_CLAMP_RULE], ["LEM:S3"], 3, {4})])
    def test_worklist_queues_each_node_once(self, monkeypatch, rb, rules, base, k_max, levels):
        """The worklist takes each reached node once, and the map it
        returns gives each node the step that reached it: None for an
        assumed node, else a program instance or a cover step concluding
        it.  A completed clamp marker adds its level and no node."""
        if rules is not None:
            rb = _mini(rules=rules)
        pops = []

        class CountingDeque(collections.deque):
            def popleft(self):
                pops.append(None)
                return super().popleft()

        monkeypatch.setattr(derivability, "deque", CountingDeque)
        ctx = TheoryContext.make(base, k_max)
        reached, clamped = _closure_detail(ctx.assumed, rb, k_max)
        assert len(pops) == len(reached)
        assert reached.keys() == closure(ctx, rb)
        insts = set(_program(rb, k_max)[0])
        for n, step in reached.items():
            if n in ctx.assumed:
                assert step is None
            else:
                assert step[2] == n
                assert step in insts or step in _cover_steps(rb, step[1][0]), step
        assert clamped == levels

    def test_covers_reach_every_down_set(self):
        # With no rules, a node's closure is exactly its down-set: every
        # node a cover step adds must itself be expanded, and no cover of
        # any argument may be missed.
        rb = _mini(inclusions=sorted(FAMILIES))
        lits = [ClassLit(neg, kind, lvl)
                for neg in range(3) for kind in "SPD" for lvl in range(3)]
        for pid, _schema in CATALOG:
            if pid.variant != PLAIN:
                continue
            for args in itertools.product(lits, repeat=pid.arity):
                node = str(RefNode(pid, args).canonical())
                got = closure(TheoryContext.make({node}, 2), rb)
                assert got == _down_set(node, rb.inclusions), node

    def test_premise_spelled_twice_counts_once(self):
        # Both premises ground to the canonical DML:P1:S1, so the instance
        # waits for one node, not two.
        rb = _mini(rules=[{"id": "r1", "premises": ["DML:S(k):P(k)", "DML:P(k):S(k)"],
                           "conclusion": "DNE:S(k)", "cite": CITE}], inclusions=())
        assert "DNE:S1" in closure(TheoryContext.make({"DML:S1:P1"}, 1), rb)

    def test_level_cap_limit(self, rb):
        # At the limit the cap grounds; no shipped rule concludes above its
        # premises' level, so a cap past the base's levels adds no node.
        at_limit = closure(TheoryContext.make({"LEM:S1"}, K_MAX_LIMIT), rb)
        assert at_limit == closure(TheoryContext.make({"LEM:S1"}, 10), rb)
        with pytest.raises(LevelOutOfRange, match=f"k_max={K_MAX_LIMIT + 1} "
                           f"exceeds the limit {K_MAX_LIMIT}"):
            TheoryContext.make({"LEM:S1"}, K_MAX_LIMIT + 1)

    def test_negative_level_cap(self, rb):
        # HA alone proves the level-0 principles, so cap 0 is the lowest
        # cap with a meaning; below it a closure would be silently empty.
        assert "LEM:S0" in closure(TheoryContext.make((), 0), rb)
        with pytest.raises(LevelOutOfRange, match="^k_max=-1 is below the bound 0$"):
            TheoryContext.make((), -1)

    @given(nodes=st.sets(st.sampled_from(
        ["LEM:S1", "DNE:S1", "DML:S1", "COLL:P1", "DNS:S1", "LEM:P2"]),
        max_size=3))
    @settings(max_examples=15, deadline=None)
    def test_monotonicity_property(self, nodes, rb):
        sub = set(list(nodes)[:1])
        a = closure(TheoryContext.make(sub, 3), rb)
        b = closure(TheoryContext.make(nodes, 3), rb)
        if sub <= nodes:
            assert a <= b


class TestQuery:
    def test_dml_s1_separated(self, rb):
        res = query(TheoryContext.make((), 3), "DML:S1", rb)
        assert isinstance(res, Separated)
        assert res.fact_id == "sep-dml-s1"
        assert res.witness["cite"]["ref"]

    def test_finsy_separation(self, rb):
        ctx = TheoryContext.make({"DML:S2", "DNE:S2"}, 4)
        res = query(ctx, "LEM:nS2", rb)
        assert isinstance(res, Separated)

    def test_lem_pi_derives_dneor(self, rb):
        res = query(TheoryContext.make({"LEM:P1"}, 3), "DNEOR:P1:P1", rb)
        assert isinstance(res, Derivable)

    def test_chain_replays(self, rb):
        ctx = TheoryContext.make({"COLL:P3"}, 5)
        res = query(ctx, "DML:P3", rb)
        assert isinstance(res, Derivable)
        _assert_chain_replays(res.chain, ctx, "DML:P3", rb)

    def test_monotonicity_run_is_one_step(self, rb):
        ctx = TheoryContext.make({"LEM:nS3"}, 3)
        res = query(ctx, "LEM:nD1", rb)
        assert res.chain == [("mono:LEM", ("LEM:nS3",), "LEM:nD1")]
        _assert_chain_replays(res.chain, ctx, "LEM:nD1", rb)

    def test_monotonicity_run_kept_where_its_node_is_used(self):
        rb = _mini(rules=[{"id": "r1", "premises": ["LEM:S(k-1)", "LEM:P(k)"],
                           "conclusion": "DNE:S(k+1)", "cite": CITE}],
                   inclusions=("LEM",))
        ctx = TheoryContext.make({"LEM:S3"}, 3)
        res = query(ctx, "DNE:S3", rb)
        assert res.chain == [("mono:LEM", ("LEM:S3",), "LEM:P2"),
                             ("mono:LEM", ("LEM:P2",), "LEM:S1"),
                             ("r1", ("LEM:S1", "LEM:P2"), "DNE:S3")]
        _assert_chain_replays(res.chain, ctx, "DNE:S3", rb)

    @given(data=st.data())
    @settings(max_examples=25, deadline=None)
    def test_agrees_with_oracle(self, rb, data):
        pool = sorted({str(n) for r in rb.rules
                       for p in r.premises + (r.conclusion,) for k in (1, 2)
                       if (n := _at(p, k)) is not None and n.level <= 3})
        base = data.draw(st.sets(st.sampled_from(pool), max_size=3))
        k_max = data.draw(st.integers(3, 4))
        ctx = TheoryContext.make(base, k_max)
        goal = data.draw(st.sampled_from(pool))
        rng = random.Random(data.draw(st.integers(0, 999)))
        want = _oracle_closure(ctx.assumed, rb, k_max)
        assert closure(ctx, rb) == want
        assert closure(ctx, rb, rng=rng) == want
        res = query(ctx, goal, rb)
        assert isinstance(res, Derivable) == (goal in want)
        if isinstance(res, Derivable):
            _assert_chain_replays(res.chain, ctx, goal, rb)

    @given(data=st.data())
    @settings(max_examples=20, deadline=None)
    def test_separation_agrees_with_oracle(self, rb, data):
        """For a goal outside the closure, the verdict, the witness of the
        first separation fact in file order and the boundary warning are
        those the oracle finds."""
        k_max = data.draw(st.integers(3, 4))
        ctx = TheoryContext.make(data.draw(st.sets(st.sampled_from(_pool(rb)), max_size=3)),
                                 k_max)
        outside = sorted(set(_pool(rb)) - _oracle_closure(ctx.assumed, rb, k_max))
        assume(outside)
        goal = data.draw(st.sampled_from(outside))
        assert _answer(query(ctx, goal, rb)) == _oracle_query(ctx, goal, rb, self.THEORIES)

    # oracle closures of the shipped rule base's separation theories
    THEORIES: dict = {}

    CLAMP_RULES = [
        # fires at every k, cut off at the cap
        {"id": "r1", "premises": ["LEM:S(k)"], "conclusion": "DNE:S(k+1)", "cite": CITE},
        # premise-free, cut off at the cap
        {"id": "r2", "premises": [], "conclusion": "DNS:S(k+1)", "cite": CITE},
        {"id": "r3", "premises": ["DNE:S(k)"], "conclusion": "DML:S(k)", "cite": CITE},
        {"id": "r4", "premises": [], "conclusion": "LEM:S(k)", "guard": "k==0", "cite": CITE},
    ]
    CLAMP_SEPARATIONS = [
        {"id": "s1", "theory": ["DNE:S(k)"], "unprovable": "LEM:S(k)", "guard": "k>=1",
         "cite": CITE},
        {"id": "s2", "theory": [], "unprovable": "DML:S(k)", "guard": "k>=2", "cite": CITE},
        {"id": "s3", "theory": ["DML:S(k)"], "unprovable": "LEM:P(k)", "cite": CITE},
    ]

    def test_clamp_base_agrees_with_oracle(self):
        """The same over a rule base with clamped and premise-free clamped
        rules, for every context of at most two nodes and every goal."""
        rb = _mini(rules=self.CLAMP_RULES, separations=self.CLAMP_SEPARATIONS)
        pool = sorted({ground_node(f"{fam}:{c}{lvl}")[0] for fam in ("LEM", "DNE", "DML", "DNS")
                       for c in "SP" for lvl in range(4)})
        outcomes = set()
        for k_max in range(1, 5):
            nodes = [n for n in pool if RefNode.parse(n).level <= k_max]
            for base in itertools.chain([()], itertools.combinations(nodes, 1),
                                        itertools.combinations(nodes[::3], 2)):
                ctx = TheoryContext.make(base, k_max)
                for goal in nodes:
                    want = _oracle_query(ctx, goal, rb, {})
                    assert _answer(query(ctx, goal, rb)) == want, (base, k_max, goal)
                    outcomes.add((want[0], want[-1] if want[0] == "UNKNOWN" else None))
        assert outcomes == {("DERIVABLE", None), ("SEPARATED", None),
                            ("UNKNOWN", True), ("UNKNOWN", False)}

    def test_unknown_with_boundary_warning(self, rb):
        # goal at the cap with a strong context: clamping interferes
        res = query(TheoryContext.make({"LEM:S1"}, 1), "COLL:P1", rb)
        assert isinstance(res, (Unknown, Derivable, Separated))
        if isinstance(res, Unknown):
            assert isinstance(res.boundary_warning, bool)

    def test_boundary_warning_iff_clamp_near_the_query(self):
        rb = _mini(rules=[{"id": "r1", "premises": ["LEM:S(k)"],
                           "conclusion": "DNE:S(k+1)", "cite": CITE}])
        # LEM:S3 fires r1 at k=3, whose conclusion DNE:S4 is cut off at 3
        res = query(TheoryContext.make({"LEM:S3"}, 3), "DML:S3", rb)
        assert res == Unknown(boundary_warning=True)
        # LEM:S0 never reaches LEM:S6, the premise of the clamped instance
        res = query(TheoryContext.make({"LEM:S0"}, 6), "DML:S0", rb)
        assert res == Unknown(boundary_warning=False)

    def test_level_out_of_range(self, rb):
        with pytest.raises(LevelOutOfRange):
            query(TheoryContext.make((), 2), "DNE:S3", rb)

    def test_scan_closes_each_theory_once_per_query(self, monkeypatch, rb):
        """A query closes the base, then, for a goal outside it, the base
        plus the goal, then each distinct ground theory among the scan's
        entries, up to the answer, whose unprovable node is in the goal's
        closure: once per query, however many entries share the theory
        (sep-dml-s1 and sep-dne-s1 have the empty theory at every k).
        Asked twice, a query closes as often both times, so nothing the
        scan closes is kept for the next query."""
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            return _closure_detail(*args, **kwargs)

        def closures(ctx, goal):
            counts, answers = [], []
            for _ in range(2):
                calls.clear()
                answers.append(query(ctx, goal, rb))
                counts.append(len(calls))
            assert answers[0] == answers[1]
            return counts, answers[0]

        def expected(ctx, goal, res):
            if isinstance(res, Derivable):
                return 1
            with_goal = closure(TheoryContext(ctx.assumed | {goal}, ctx.k_max), rb)
            theories = set()
            for fact, k, theory, unprov in _program(rb, ctx.k_max)[3]:
                if unprov in with_goal:
                    theories.add(frozenset(theory))
                    if isinstance(res, Separated) and (fact.fact_id, k) == (
                            res.fact_id, res.witness["k"]):
                        break
            return 2 + len(theories)

        monkeypatch.setattr(derivability, "_closure_detail", counted)
        # perfbench/cli_table.py rows 19 (sep-finsy at k=2) and 21
        finsy = (TheoryContext.make({"DML:S2", "DNE:S2"}, 4), "LEM:nS2")
        unknown = (TheoryContext.make({"LEM:nnS1"}, 4), "DML:P1:nP1")
        counts, res = closures(*finsy)
        assert counts == [5, 5] and (res.fact_id, res.witness["k"]) == ("sep-finsy", 2)
        assert closures(*unknown) == ([7, 7], Unknown(False))
        pool, rng = _pool(rb), random.Random(28)
        verdicts = set()
        for k_max in (3, 4, 5):
            for _ in range(20):
                ctx = TheoryContext.make(rng.sample(pool, rng.randint(0, 3)), k_max)
                goal = rng.choice(pool)
                counts, res = closures(ctx, goal)
                assert counts == [expected(ctx, goal, res)] * 2, (ctx, goal)
                verdicts.add(type(res))
        assert verdicts == {Derivable, Separated, Unknown}

    def test_consistency_audit(self, rb):
        # no shipped separation is contradicted by the rules themselves
        for fact in rb.separations:
            for k in range(4):
                theory, unprov, dead = [], None, False
                for p in fact.theory:
                    g = ground_pattern(p, k)
                    if g is None:
                        dead = True
                    else:
                        theory.append(g)
                unprov = ground_pattern(fact.unprovable, k)
                if dead or unprov is None:
                    continue
                if fact.guard and not eval(  # noqa: S307 - trusted test data
                        fact.guard.replace("k", str(k))):
                    continue
                k_max = max([RefNode.parse(n).level for n in theory + [unprov]]) + 2
                got = closure(TheoryContext.make(theory, k_max), rb)
                assert unprov not in got, (fact.fact_id, k)


class TestEquivalenceClass:
    def test_cor_76_members(self, rb):
        cls = equivalence_class("DNEOR:P2:P2", TheoryContext.make((), 5), rb)
        assert {"DNEOR:P2:P2", "DMLBOT:S2:S2", "CD:P2:P2", "COLL:P2"} <= cls

    def test_dne_s1_members(self, rb):
        cls = equivalence_class("DNE:S1", TheoryContext.make((), 4), rb)
        assert {"PEIRCE:S1", "DNE:P2", "DUAL:P1", "LEM:DPI:D1"} <= cls

    def test_level_zero_ha_provables(self, rb):
        cls = equivalence_class("LEM:S0", TheoryContext.make((), 3), rb)
        assert {"DNE:S0", "LEM:S0"} <= cls

    def test_headroom_required(self, rb):
        with pytest.raises(LevelOutOfRange):
            equivalence_class("DNE:S2", TheoryContext.make((), 3), rb)

    @given(data=st.data())
    @settings(max_examples=8, deadline=None)
    def test_agrees_with_oracle(self, rb, data):
        """The class is every node of the forward closure whose own
        closure, with the base, reaches the node, over bases of up to two
        nodes."""
        k_max = data.draw(st.integers(3, 4))
        pool = _pool(rb)
        node = data.draw(st.sampled_from([n for n in pool if RefNode.parse(n).level <= k_max - 2]))
        base = TheoryContext.make(data.draw(st.sets(st.sampled_from(pool), max_size=2)), k_max)
        fwd = _oracle_closure(base.assumed | {node}, rb, k_max)
        want = {m for m in fwd if node in _oracle_closure(base.assumed | {m}, rb, k_max)}
        assert equivalence_class(node, base, rb) == want


class TestVerifyRulebase:
    def test_shipped_rule_base_clean(self, rb):
        report = verify_rulebase(rb)
        assert report.failed == 0
        assert report.verified >= 10

    def test_each_distinct_spec_proved_once(self, rb):
        # the shipped rules state few distinct skeletons with their lemmas:
        # each is proved once, and every rule gets the status it has alone
        from sca import ipc

        proofs, prove = [], ipc.prove_ipc
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("sca.ipc.prove_ipc", lambda s: proofs.append(s) or prove(s))
            report = verify_rulebase(rb)
        assert len(proofs) == len(set(proofs)) == 27
        assert report.statuses == [
            verify_rulebase(RuleBase((r,), (), frozenset())).statuses[0] for r in rb.rules]
        assert (report.verified, report.failed, report.needs_first_order) == (139, 0, 453)

    def test_failing_skeleton_reported(self):
        mini = _mini(rules=[{"id": "r1", "premises": ["LEM:S(k)"],
                             "conclusion": "DNE:S(k)", "cite": CITE,
                             "verify": {"kind": "propositional",
                                        "skeleton": "a -> b"}}])
        report = verify_rulebase(mini)
        assert report.failed == 1

    def test_empty_rule_base(self):
        report = verify_rulebase(_mini())
        assert (report.verified, report.failed, report.needs_first_order) == (0, 0, 0)

    def test_admitted_laws_are_those_the_shipped_rules_use(self, rb):
        from sca.derivability import _LAWS

        used = {m["law"] for r in rb.rules for m in r.verify.get("lemmas", ())}
        assert set(_LAWS) == used == {"dual-imp-neg", "delta-premise"}


class TestExportDot:
    ABHK_EDGES_K2 = {
        ("LEM:S2", "LEM:P2"), ("LEM:S2", "DNE:S2"),
        ("LEM:P2", "DNEOR:P2:P2"), ("DNEOR:P2:P2", "LEM:D2"),
        ("DNE:S2", "LEM:D2"), ("LEM:D2", "LEM:S1"),
        ("LEM:P2", "LEM:S2"),
    }

    @staticmethod
    def _edges(dot: str):
        out = set()
        for line in dot.splitlines():
            if "->" in line:
                src, rest = line.split("->")
                dst = rest.strip().split("[")[0]
                out.add((src.strip().strip('"'), dst.strip().rstrip(";").strip('"')))
        return out

    def test_abhk_k2_shape(self, rb):
        dot = export_dot("abhk", 2)
        names = {line.strip().rstrip(";").strip('"')
                 for line in dot.splitlines()
                 if line.strip().endswith(";") and "->" not in line
                 and "rankdir" not in line and "node [" not in line}
        assert names == {"LEM:S1", "LEM:D2", "DNEOR:P2:P2", "LEM:P2",
                         "DNE:S2", "LEM:S2"}
        assert self._edges(dot) == self.ABHK_EDGES_K2

    def test_abhk_dashed_side_base(self, rb):
        dot = export_dot("abhk", 2)
        dashed = [l for l in dot.splitlines() if "style=dashed" in l]
        assert len(dashed) == 1 and "DNE:S2" in dashed[0]

    def test_dns_vertices(self, rb):
        dot = export_dot("dns", 2)
        for node in ("LEM:nS2", "DML:D2", "DNEOR:D2:D2"):
            assert f'"{node}"' in dot

    def test_cd_vertices_and_styles(self, rb):
        dot = export_dot("cd", 2)
        assert '"CD:nD2' in dot
        assert "style=dashed" in dot and "style=dotted" in dot

    def test_byte_stable(self, rb):
        for preset in ("abhk", "dns", "cd"):
            assert export_dot(preset, 2) == export_dot(preset, 2)

    def test_bad_preset(self, rb):
        with pytest.raises(ValueError):
            export_dot("nope", 2)

    def test_k_must_be_positive(self, rb):
        with pytest.raises(ValueError):
            export_dot("abhk", 0)

    @pytest.mark.parametrize("preset, least", [("abhk", 1), ("dns", 1), ("cd", 2)])
    def test_every_edge_holds_over_its_printed_base(self, rb, preset, least):
        """Every printed node parses, and every edge is derivable over HA
        plus the base its label names (the graph's label for an unlabelled
        edge) with the shipped rule base."""
        for k in range(least):
            with pytest.raises(ValueError, match=f"needs k >= {least}"):
                export_dot(preset, k)
        for k in range(least, 5):
            nodes, edges, graph_base = set(), [], ()
            for line in export_dot(preset, k).splitlines()[3:-1]:
                line = line.strip().rstrip(";")
                if line.startswith("label="):
                    graph_base = line.split('"')[1].split(" + ")[1:]
                elif "->" in line:
                    src, dst = line.split('"')[1::2][:2]
                    base = (line.split('label="')[1].split('"')[0].split(" + ")[1:]
                            if "label=" in line else graph_base)
                    edges.append((src, dst, base))
                else:
                    nodes.add(line.strip('"'))
            for n in nodes:
                Node.parse(n)
            for src, dst, base in edges:
                assert {src, dst} <= nodes
                ctx = TheoryContext.make({*base, src}, k + 2)
                assert isinstance(query(ctx, dst, rb), Derivable), (k, src, dst, base)

    @pytest.mark.parametrize("preset, least", [("abhk", 1), ("dns", 1), ("cd", 2)])
    def test_no_edge_implied_by_the_others(self, preset, least):
        """No drawn edge is implied by a path of the other edges drawn over
        the same or a smaller base: the solid edges and those of its own
        style."""
        for k in range(least, 5):
            by_style: dict[str, set] = {"solid": set()}
            for line in export_dot(preset, k).splitlines():
                if " -> " in line:
                    style = line.split("style=")[1].split()[0] if "style=" in line else "solid"
                    by_style.setdefault(style, set()).add(tuple(line.split('"')[1:4:2]))
            for style, edges in by_style.items():
                for edge in edges:
                    others = (by_style["solid"] | edges) - {edge}
                    reached, todo = set(), [edge[0]]
                    while todo:
                        n = todo.pop()
                        for src, dst in others:
                            if src == n and dst not in reached:
                                reached.add(dst)
                                todo.append(dst)
                    assert edge[1] not in reached, (k, style, edge)
