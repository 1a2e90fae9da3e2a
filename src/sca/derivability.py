"""Horn-rule derivability engine over the implication lattice of the
restricted classical principles.

A rule base is JSON data: level-parametric rules (patterns over a single
level variable k, e.g. "DNE:S(k-1)"), cited separation facts, and the
list of families whose nodes are monotone in their class arguments.
The rules and separation facts are ground once per level k, and each
level cap has one ground program, built on first use from the levels up
to the cap: every rule instance for k up to the cap, indexed by its
premises, an instance with a node above the cap being a clamp marker,
and every ground separation fact within the cap.  Closure is its least
fixpoint, computed by one worklist in which an arriving node queues the
nodes it covers in the class inclusion order and the rule instances it
completes; queries answer with a replayable chain, a citation-backed
separation, or Unknown.  Equivalence classes are found by elimination: a
candidate whose closure lacks the node rules out every node of that
closure.  What the engine keeps between calls, the grounding of each
level, a program per level cap and the cover steps of the nodes closures
reach, grows with the ground programs, not with the number of requests
served.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
from collections import Counter, deque
from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .nodes import (
    FAMILIES, PLAIN, Node, NodePat, SchemaError, UnknownFamily,
    canonical_node, class_lit_covers, parse_pattern,
)

__all__ = [
    "Rule", "SeparationFact", "RuleBase", "TheoryContext",
    "Derivable", "Separated", "Unknown", "Report",
    "SchemaError", "MissingCitation", "UnknownFamily", "LevelOutOfRange",
    "K_MAX_LIMIT",
    "parse_pattern", "ground_pattern", "canonical_node", "node_level",
    "load_rulebase", "closure", "query", "equivalence_class",
    "export_dot", "verify_rulebase",
]

class MissingCitation(SchemaError):
    pass


class LevelOutOfRange(ValueError):
    pass


# The highest level cap a context accepts: grounding costs time and memory
# linear in the cap.  The lowest is 0.
K_MAX_LIMIT = 100


# ---------------------------------------------------------------------------
# Node text

def ground_pattern(pat: NodePat, k: int) -> str | None:
    """Canonical text of the pattern at level k; None when any class goes
    below level 0 (the empty-class convention discards the instance)."""
    node = pat.at(k)
    return None if node is None else str(node)


def node_level(node: str) -> int:
    return Node.parse(node).level


# ---------------------------------------------------------------------------
# Rule base

@dataclass(frozen=True, slots=True)
class Rule:
    rule_id: str
    premises: tuple[NodePat, ...]
    conclusion: NodePat
    guard: str | None
    cite: Mapping[str, str]
    verify: Mapping


@dataclass(frozen=True, slots=True)
class SeparationFact:
    fact_id: str
    theory: tuple[NodePat, ...]
    unprovable: NodePat
    guard: str | None
    cite: Mapping[str, str]


@dataclass
class RuleBase:
    rules: tuple[Rule, ...]
    separations: tuple[SeparationFact, ...]
    inclusions: frozenset[str]
    # memos, outside __init__ so that printers that list the init fields
    # (hypothesis, printing a test's arguments) skip them
    _levels: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _programs: dict = field(default_factory=dict, init=False, repr=False, compare=False)
    _covers: dict = field(default_factory=dict, init=False, repr=False, compare=False)


_GUARD_RE = re.compile(r"^k(>=|==)(\d+)$")


def _entry(raw, what: str, index: int, required: str,
           seen: set) -> tuple[str, dict, str | None]:
    """Id, citation and guard of a rule or separation entry, checked for
    shape."""
    if not isinstance(raw, dict):
        raise SchemaError(f"{what} entry {index} is not an object: {raw!r}")
    eid = raw.get("id")
    if not isinstance(eid, str) or not eid or eid in seen:
        raise SchemaError(f"missing or duplicate {what} id: {eid!r}")
    seen.add(eid)
    if required not in raw:
        raise SchemaError(f"{what} {eid} lacks {required!r}")
    cite = raw.get("cite") or {}
    if not isinstance(cite, dict) or not cite.get("ref") or not cite.get("quote"):
        raise MissingCitation(f"{what} {eid} lacks a citation ref/quote")
    guard = raw.get("guard")
    if guard not in (None, "") and not (
            isinstance(guard, str) and _GUARD_RE.match(guard.replace(" ", ""))):
        raise SchemaError(f"{what} {eid}: bad guard: {guard!r}")
    return eid, dict(cite), guard


def _patterns(texts, where: str) -> tuple[NodePat, ...]:
    if not isinstance(texts, list) or not all(isinstance(t, str) for t in texts):
        raise SchemaError(f"{where}: node patterns must be a list of strings, "
                          f"not {texts!r}")
    try:
        return tuple(map(parse_pattern, texts))
    except SchemaError as e:
        raise type(e)(f"{where}: {e}") from None


def load_rulebase(src) -> RuleBase:
    """Validate and load a rule base from a JSON string or a dict."""
    if isinstance(src, (str, bytes)):
        data = json.loads(src)
    else:
        data = src
    if not isinstance(data, dict) or "rules" not in data:
        raise SchemaError("rule base must be an object with a 'rules' key")
    for key in ("rules", "separations", "inclusions"):
        if not isinstance(data.get(key, []), list):
            raise SchemaError(f"rule base {key!r} must be a list")

    rules = []
    seen: set[str] = set()
    for i, raw in enumerate(data["rules"]):
        rid, cite, guard = _entry(raw, "rule", i, "conclusion", seen)
        verify = raw.get("verify") or {"kind": "first-order"}
        if not isinstance(verify, dict) or verify.get("kind") not in (
                "propositional", "first-order"):
            raise SchemaError(f"rule {rid}: bad verify kind")
        if verify["kind"] == "propositional":
            skeleton, lemmas = verify.get("skeleton"), verify.get("lemmas", [])
            if not skeleton or not isinstance(skeleton, str):
                raise SchemaError(f"rule {rid}: propositional rule without "
                                  f"a skeleton string: {skeleton!r}")
            if not isinstance(lemmas, list) or not all(isinstance(m, dict) for m in lemmas):
                raise SchemaError(f"rule {rid}: lemmas must be a list of objects, "
                                  f"not {lemmas!r}")
        prem = _patterns(raw.get("premises", []), f"rule {rid}")
        (concl,) = _patterns([raw["conclusion"]], f"rule {rid}")
        rules.append(Rule(rid, prem, concl, guard, cite, dict(verify)))

    seps = []
    for i, raw in enumerate(data.get("separations", ())):
        fid, cite, guard = _entry(raw, "separation", i, "unprovable", seen)
        theory = _patterns(raw.get("theory", []), f"separation {fid}")
        (unprov,) = _patterns([raw["unprovable"]], f"separation {fid}")
        seps.append(SeparationFact(fid, theory, unprov, guard, cite))

    # by default every family is monotone in its class arguments
    incl = data.get("inclusions", FAMILIES)
    for fam in incl:
        if not isinstance(fam, str) or fam not in FAMILIES:
            raise UnknownFamily(f"unknown family in inclusions: {fam!r}")
    return RuleBase(tuple(rules), tuple(seps), frozenset(incl))


def load_default_rulebase() -> RuleBase:
    from importlib import resources
    text = resources.files("sca").joinpath("data/rulebase.json").read_text("utf-8")
    return load_rulebase(text)


# ---------------------------------------------------------------------------
# Contexts and results

@dataclass(frozen=True)
class TheoryContext:
    assumed: frozenset[str]
    k_max: int

    def __post_init__(self):
        """Check the level cap, spell the assumed nodes canonically and
        check their levels."""
        if self.k_max < 0:
            raise LevelOutOfRange(f"k_max={self.k_max} is below the bound 0")
        if self.k_max > K_MAX_LIMIT:
            raise LevelOutOfRange(
                f"k_max={self.k_max} exceeds the limit {K_MAX_LIMIT}")
        canon = {Node.parse(n).canonical() for n in self.assumed}
        for n in canon:
            if n.level > self.k_max:
                raise LevelOutOfRange(f"{n} exceeds k_max={self.k_max}")
        object.__setattr__(self, "assumed", frozenset(map(str, canon)))

    @staticmethod
    def make(nodes: Iterable[str], k_max: int) -> "TheoryContext":
        return TheoryContext(frozenset(nodes), k_max)


@dataclass
class Derivable:
    chain: list  # (rule_id, premises tuple, conclusion)


@dataclass
class Separated:
    fact_id: str
    witness: dict


@dataclass
class Unknown:
    boundary_warning: bool


# ---------------------------------------------------------------------------
# Closure

def _level(rb: RuleBase, k: int):
    """The rule base ground at level k, built once and shared by the
    program of every level cap: (rules, facts), each aligned with the
    rule base's list and None where the guard excludes k or a class goes
    below level 0.  A rule entry is (step, top), step being (rule id,
    premise texts, conclusion text, conclusion level) and top the highest
    level among its nodes; a fact entry is ((fact, k, theory texts,
    unprovable text), top).  Each guard is checked, and each distinct
    pattern ground, once; node texts are interned, so all instances
    share one string per node."""
    if k not in rb._levels:
        admits: dict[str, bool] = {}
        grounds: dict[str, tuple[str, int] | None] = {}

        def ground(pats: tuple[NodePat, ...], guard: str | None):
            """(texts of all patterns but the last, text and level of the
            last, highest level), or None."""
            if guard:
                if guard not in admits:
                    op, n = _GUARD_RE.match(guard.replace(" ", "")).groups()
                    admits[guard] = k >= int(n) if op == ">=" else k == int(n)
                if not admits[guard]:
                    return None
            out = []
            for p in pats:
                if p.text not in grounds:
                    node = p.at(k)
                    grounds[p.text] = None if node is None else (
                        sys.intern(str(node)), node.level)
                if grounds[p.text] is None:
                    return None
                out.append(grounds[p.text])
            *first, (last, level) = out
            return tuple(text for text, _l in first), last, level, max(l for _t, l in out)

        rules = []
        for rule in rb.rules:
            g = ground(rule.premises + (rule.conclusion,), rule.guard)
            rules.append(None if g is None else ((rule.rule_id, *g[:3]), g[3]))
        facts = []
        for fact in rb.separations:
            g = ground(fact.theory + (fact.unprovable,), fact.guard)
            facts.append(None if g is None else ((fact, k, g[0], g[1]), g[3]))
        rb._levels[k] = (rules, facts)
    return rb._levels[k]


def _program(rb: RuleBase, k_max: int):
    """The ground program of the rule base at a level cap, built once
    from the shared groundings of levels 0..k_max: (insts, watch, counts,
    facts).  insts lists the rule instances (rule id, premise texts,
    conclusion text, conclusion level) rule by rule, each rule's by k
    ascending, an instance with a node above k_max being a clamp marker
    (conclusion text None); watch maps each premise text, or None for no
    premise, to the indices of the instances that have it; counts holds
    each instance's number of distinct premises; facts lists every
    separation fact's ground (fact, k, theory texts, unprovable text)
    within the cap, in file order and then by k.  An instance within the
    cap is its level's step itself, shared by every cap's program."""
    if k_max not in rb._programs:
        levels = [_level(rb, k) for k in range(k_max + 1)]
        insts, counts = [], []
        watch: dict[str | None, list[int]] = {}
        for row in zip(*(rules for rules, _facts in levels)):
            for entry in row:
                if entry is not None:
                    step, top = entry
                    rid, texts, _concl, level = step
                    distinct = set(texts)
                    for p in distinct or (None,):
                        watch.setdefault(p, []).append(len(insts))
                    insts.append(step if top <= k_max else (rid, texts, None, level))
                    counts.append(len(distinct))
        facts = [entry[0] for row in zip(*(facts for _rules, facts in levels))
                 for entry in row if entry is not None and entry[1] <= k_max]
        rb._programs[k_max] = (insts, watch, counts, facts)
    return rb._programs[k_max]


def _cover_steps(rb: RuleBase, n: str) -> tuple:
    """The monotonicity steps from a node to the nodes it covers, sorted
    by text: one class argument lowered to one of its covers.  Memoized on
    the rule base; they do not depend on the level cap."""
    if n not in rb._covers:
        node = Node.parse(n)
        monotone = node.pid.family in rb.inclusions and node.pid.variant == PLAIN
        covered = {str(Node(node.pid, (*node.args[:i], c, *node.args[i + 1:])).canonical())
                   for i, a in enumerate(node.args) if monotone for c in class_lit_covers(a)}
        mono = f"mono:{node.pid.family}"
        rb._covers[n] = tuple((mono, (n,), w, None) for w in sorted(covered))
    return rb._covers[n]


def _closure_detail(assumed: frozenset[str], rb: RuleBase, k_max: int,
                    rng: random.Random | None = None):
    """Least fixpoint with provenance, by one worklist over the ground
    program.  Monotonicity is cover edges: each arriving node queues the
    nodes it covers, whose transitive closure is its down-set, and the
    rule instances whose missing-premise count it brings to 0.  rng, when
    given, picks the next queued step; the fixpoint does not depend on it.

    Returns (nodes, steps, clamped_levels): steps maps each derived node
    to the (rule_id, premises, node) step that first added it, in the
    order they were added; clamped_levels collects conclusion levels that
    were cut off at k_max.
    """
    insts, watch, counts, _facts = _program(rb, k_max)
    missing = counts.copy()
    todo = deque([(None, (), n, None) for n in sorted(assumed)])
    todo.extend(insts[i] for i in watch.get(None, ()))
    nodes: set[str] = set()
    steps: dict[str, tuple] = {}
    clamped: set[int] = set()
    while todo:
        if rng is not None:
            todo.rotate(rng.randrange(len(todo)))
        rid, prems, n, level = todo.popleft()
        if n is None:
            clamped.add(level)
            continue
        if n in nodes:
            continue
        nodes.add(n)
        if rid is not None:
            steps[n] = (rid, prems, n)
        todo.extend(_cover_steps(rb, n))
        for i in watch.get(n, ()):
            missing[i] -= 1
            if not missing[i]:
                todo.append(insts[i])
    return frozenset(nodes), steps, clamped


def closure(ctx: TheoryContext, rb: RuleBase,
            rng: random.Random | None = None) -> frozenset[str]:
    """The set of ground principle nodes derivable over HA from the
    assumed nodes, up to level k_max.  Deterministic: the least fixpoint
    does not depend on the order the worklist takes its steps in."""
    nodes, _steps, _clamped = _closure_detail(ctx.assumed, rb, ctx.k_max, rng)
    return nodes


def query(ctx: TheoryContext, goal: str, rb: RuleBase):
    """Derivable with a replayable chain, a cited Separated answer, or
    Unknown (with a boundary warning when the level cap interfered).

    The chain lists the steps the goal needs in the order the fixpoint
    added them, a run of monotonicity steps of one family folded into one
    down-set step where no other step uses the nodes it passes through."""
    goal_node = Node.parse(goal).canonical()
    goal = str(goal_node)
    if goal_node.level > ctx.k_max:
        raise LevelOutOfRange(f"{goal} exceeds k_max={ctx.k_max}")
    nodes, steps, clamped = _closure_detail(ctx.assumed, rb, ctx.k_max)
    if goal in nodes:
        needed, chain = {goal}, []
        for step in reversed(steps.values()):
            if step[2] in needed:
                chain.append(step)
                needed.update(step[1])
        uses = Counter(p for step in chain for p in step[1])
        merged: dict[str, tuple] = {}
        for rid, prems, n in reversed(chain):
            prev = merged.get(prems[0]) if prems else None
            if prev and prev[0] == rid and rid.startswith("mono:") and uses[prems[0]] == 1:
                prems = merged.pop(prems[0])[1]
            merged[n] = (rid, prems, n)
        return Derivable(list(merged.values()))

    ctx_with_goal = ctx.assumed | {goal}
    nodes_with_goal, _s, _c = _closure_detail(ctx_with_goal, rb, ctx.k_max)
    for fact, k, theory, unprov in _program(rb, ctx.k_max)[3]:
        if unprov in nodes_with_goal and nodes <= _closure_detail(
                frozenset(theory), rb, ctx.k_max)[0]:
            return Separated(fact.fact_id, {
                "k": k,
                "theory": theory,
                "unprovable": unprov,
                "cite": dict(fact.cite),
            })

    involved = {node_level(n) for n in ctx_with_goal}
    warning = any(abs(lvl - m) <= 2 for lvl in clamped for m in involved)
    return Unknown(bool(clamped) and warning)


def equivalence_class(node: str, base: TheoryContext, rb: RuleBase) -> frozenset[str]:
    """All nodes inter-derivable with the given node over HA plus the
    base context.

    Found by elimination over the forward closure of base + node, in
    sorted order: when a candidate's closure lacks the node, so does the
    closure of every node in it (closure is monotone and idempotent), and
    all of them are ruled out without a closure of their own."""
    parsed = Node.parse(node).canonical()
    node = str(parsed)
    if parsed.level > base.k_max - 2:
        raise LevelOutOfRange(
            f"{node} needs k_max >= level + 2 (k_max={base.k_max})")
    fwd, _s, _c = _closure_detail(base.assumed | {node}, rb, base.k_max)
    out: set[str] = set()
    ruled_out: set[str] = set()
    for cand in sorted(fwd):
        if cand in ruled_out:
            continue
        back, _s2, _c2 = _closure_detail(base.assumed | {cand}, rb, base.k_max)
        if node in back:
            out.add(cand)
        else:
            ruled_out |= back
    return frozenset(out)


# ---------------------------------------------------------------------------
# Rule verification

@dataclass
class Report:
    verified: int
    failed: int
    needs_first_order: int
    statuses: list


def verify_rulebase(rb: RuleBase) -> Report:
    from . import ipc  # only rule verification needs the prover

    statuses = []
    counts = {ipc.VERIFIED: 0, ipc.FAILED: 0, ipc.NEEDS_FIRST_ORDER: 0}
    for rule in rb.rules:
        try:
            status = ipc.verify_rule(rule)
        except ValueError as e:
            raise ipc.MalformedSkeleton(f"rule {rule.rule_id}: {e}") from None
        counts[status] += 1
        statuses.append((rule.rule_id, status))
    return Report(counts[ipc.VERIFIED], counts[ipc.FAILED],
                  counts[ipc.NEEDS_FIRST_ORDER], statuses)


# ---------------------------------------------------------------------------
# Figure export

# The preset figures as data: the node patterns in print order and, for
# each edge style, the nodes its edges hold over besides HA and its edges
# (source, target).  abhk is the hierarchy of Akama, Berardi, Hayashi and
# Kohlenbach (LICS 2004).  tests/test_derivability.py queries every edge
# over its printed base with the shipped rule base.
_FIGURES = {
    "abhk": (
        ("LEM:S(k-1)", "LEM:D(k)", "DNEOR:P(k):P(k)", "LEM:P(k)", "DNE:S(k)", "LEM:S(k)"),
        {"solid": ((), (
            ("LEM:S(k)", "LEM:P(k)"), ("LEM:S(k)", "DNE:S(k)"),
            ("LEM:P(k)", "DNEOR:P(k):P(k)"), ("DNEOR:P(k):P(k)", "LEM:D(k)"),
            ("DNE:S(k)", "LEM:D(k)"), ("LEM:D(k)", "LEM:S(k-1)"))),
         "dashed": (("DNE:S(k)",), (("LEM:P(k)", "LEM:S(k)"),))},
    ),
    "dns": (
        ("DNE:S(k-1)", "DNEOR:P(k-1):P(k-1)", "LEM:nS(k-1)", "LEM:P(k-1)", "LEM:S(k-1)",
         "DML:nD(k)", "DML:D(k)", "DNEOR:D(k):D(k)", "LEM:nD(k)", "LEM:D(k)", "DML:P(k)",
         "DML:S(k)", "DNE:S(k)", "DNEOR:P(k):P(k)", "LEM:nS(k)", "LEM:P(k)", "LEM:S(k)"),
        {"solid": (("DNS:S(k-1)",), (
            ("LEM:S(k)", "LEM:P(k)"), ("LEM:S(k)", "DNE:S(k)"),
            ("LEM:P(k)", "DNEOR:P(k):P(k)"), ("LEM:P(k)", "LEM:nS(k)"),
            ("DNE:S(k)", "LEM:D(k)"), ("DNE:S(k)", "DML:P(k)"),
            ("DNEOR:P(k):P(k)", "LEM:D(k)"), ("DNEOR:P(k):P(k)", "DML:P(k)"),
            ("DNEOR:P(k):P(k)", "DML:S(k)"), ("LEM:nS(k)", "DML:S(k)"),
            ("LEM:D(k)", "DNEOR:D(k):D(k)"), ("LEM:D(k)", "LEM:nD(k)"),
            ("DNEOR:D(k):D(k)", "LEM:S(k-1)"), ("DNEOR:D(k):D(k)", "DML:nD(k)"),
            ("LEM:nD(k)", "DML:nD(k)"), ("LEM:nD(k)", "DML:D(k)"),
            ("LEM:S(k-1)", "DNE:S(k-1)"), ("LEM:S(k-1)", "LEM:P(k-1)"),
            ("LEM:P(k-1)", "DNEOR:P(k-1):P(k-1)"), ("LEM:P(k-1)", "LEM:nS(k-1)"),
            ("LEM:nS(k)", "DML:P(k)"), ("DML:P(k)", "LEM:nD(k)"),
            ("DML:S(k)", "LEM:nD(k)"), ("DML:nD(k)", "LEM:nS(k-1)"),
            ("DML:D(k)", "LEM:nS(k-1)"))),
         "dashed": (("DNE:S(k-1)",), (
            ("LEM:nS(k)", "LEM:P(k)"), ("DML:S(k)", "DNEOR:P(k):P(k)"),
            ("LEM:nD(k)", "LEM:D(k)"), ("DML:nD(k)", "DNEOR:D(k):D(k)"),
            ("LEM:nS(k-1)", "LEM:S(k-1)"), ("DML:D(k)", "DML:nD(k)")))},
    ),
    "cd": (
        ("CD:nD(k):nS(k)", "CD:nS(k):nS(k)", "CD:nP(k):nS(k)", "DML:D(k):S(k)", "DML:S(k)",
         "DML:P(k):S(k)", "LEM:nD(k)", "LEM:nS(k)", "LEM:nP(k)"),
        {"solid": ((), (
            ("DML:D(k):S(k)", "CD:nD(k):nS(k)"), ("CD:nS(k):nS(k)", "CD:nD(k):nS(k)"),
            ("CD:nP(k):nS(k)", "CD:nD(k):nS(k)"), ("DML:S(k)", "DML:D(k):S(k)"),
            ("DML:P(k):S(k)", "DML:D(k):S(k)"), ("DML:S(k)", "CD:nS(k):nS(k)"),
            ("DML:P(k):S(k)", "CD:nP(k):nS(k)"), ("LEM:nD(k)", "DML:D(k):S(k)"),
            ("LEM:nS(k)", "LEM:nD(k)"), ("LEM:nP(k)", "LEM:nD(k)"),
            ("LEM:nS(k)", "DML:S(k)"), ("LEM:nS(k)", "DML:P(k):S(k)"),
            ("LEM:nP(k)", "DML:P(k):S(k)"), ("LEM:nS(k)", "CD:nS(k):nS(k)"),
            ("LEM:nP(k)", "CD:nP(k):nS(k)"))),
         "dashed": (("DNS:S(k-2)",), (
            ("CD:nD(k):nS(k)", "DML:D(k):S(k)"), ("CD:nS(k):nS(k)", "DML:S(k)"),
            ("CD:nP(k):nS(k)", "DML:P(k):S(k)"))),
         "dotted": (("DNS:S(k-1)",), (
            ("DML:P(k):S(k)", "LEM:nS(k)"), ("DML:P(k):S(k)", "LEM:nP(k)"),
            ("DML:D(k):S(k)", "LEM:nD(k)")))},
    ),
}


def export_dot(preset: str, k: int) -> str:
    """DOT digraph of the preset implication diagram at level k, for k at
    least the least level at which every pattern of the preset grounds.

    Node text prints as the table writes it (diagonal sugar kept) and is
    parsed first, so only nodes of the grammar print.  Dashed and dotted
    edges carry a label naming the base they hold over; solid edges hold
    over the graph's label, or over HA when it has none."""
    if preset not in _FIGURES:
        raise ValueError(f"unknown preset: {preset!r}")
    nodes, styles = _FIGURES[preset]
    pats = [NodePat(p) for p in itertools.chain(nodes, *(b for b, _ in styles.values()))]
    least = next(j for j in itertools.count() if all(p.text_at(j) for p in pats))
    if k < least:
        raise ValueError(f"preset {preset!r} needs k >= {least}")

    def at(pat: str) -> str:
        text = NodePat(pat).text_at(k)
        Node.parse(text)
        return text

    lines = [f"digraph {preset} {{", "  rankdir=BT;", "  node [shape=box];"]
    label = {style: " + ".join(["HA", *map(at, base)]) for style, (base, _) in styles.items()}
    if styles["solid"][0]:
        lines.append(f'  label="{label["solid"]}";')
    lines += [f'  "{at(n)}";' for n in nodes]
    for style, (_base, edges) in styles.items():
        attrs = "" if style == "solid" else f' [style={style} label="{label[style]}"]'
        lines += [f'  "{at(src)}" -> "{at(dst)}"{attrs};' for src, dst in edges]
    lines.append("}")
    return "\n".join(lines) + "\n"
