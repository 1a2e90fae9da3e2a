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
fixpoint, by one worklist of nodes, each queued once, when a step first
reaches it: a node steps to the nodes it covers in the class inclusion
order and to the rule instances it completes.  Queries answer with a
replayable chain, a citation-backed separation, or Unknown.  The
separation scan takes the ground facts in file order, then by k, and
closes each distinct ground theory at most once per query; nothing of it
is kept between queries.  Equivalence classes are found by elimination:
a candidate whose closure lacks the node rules out every node of that
closure.  What the engine keeps between calls, the grounding of each
level, a program per level cap and the cover steps of the nodes closures
reach, grows with the ground programs, not with the number of requests
served.

This is the one module that reads a rule's verify spec.  load_rulebase
checks it: its kind, its skeleton, and that each lemma names an admitted
law (_LAWS) over letters.  verify_rulebase decides each propositional
skeleton with the sca.ipc prover, the lemmas' laws as hypotheses.
"""

from __future__ import annotations

import itertools
import json
import random
import re
import sys
from collections import Counter, deque
from typing import Iterable

from . import Record
from .nodes import (
    FAMILIES, NodePat, SchemaError, UnknownFamily, ground_node, parse_pattern, plain_covers,
)

__all__ = [
    "Rule", "SeparationFact", "RuleBase", "TheoryContext",
    "Derivable", "Separated", "Unknown", "Report",
    "SchemaError", "MissingCitation", "UnknownFamily", "LevelOutOfRange",
    "K_MAX_LIMIT",
    "parse_pattern", "ground_pattern",
    "load_rulebase", "closure", "query", "equivalence_class",
    "export_dot", "verify_rulebase", "VERIFIED", "FAILED", "NEEDS_FIRST_ORDER",
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
    ground = pat.ground(k)
    return None if ground is None else ground[0]


# ---------------------------------------------------------------------------
# Rule base

class Rule(Record):
    """A level-parametric rule: premises, conclusion and guard as written,
    its citation and its verify spec."""

    __slots__ = ("rule_id", "premises", "conclusion", "guard", "cite", "verify")


class SeparationFact(Record):
    """A cited underivability: over the theory, the unprovable node is not
    derivable, at each level the guard admits."""

    __slots__ = ("fact_id", "theory", "unprovable", "guard", "cite")


class RuleBase(Record):
    """The rules, separation facts and monotone families.  The engine's
    memos (_level, _program, _cover_steps) are private slots, so equality
    and repr, and printers that use repr (hypothesis, printing a test's
    arguments), skip them."""

    __slots__ = ("rules", "separations", "inclusions", "_levels", "_programs", "_covers")

    def __init__(self, rules: tuple[Rule, ...], separations: tuple[SeparationFact, ...],
                 inclusions: frozenset[str]):
        super().__init__(rules, separations, inclusions)
        for set_memo in self._setters[len(self._fields):]:
            set_memo(self, {})


_GUARD_RE = re.compile(r"^k(>=|==)([0-9]+)$")

# The lemma laws a propositional rule may assume, in the skeleton's
# notation over the letters that the lemma's fields name: a dual implies
# the negation of its formula, and a Delta class's equivalence premise.
_LAWS = {
    "dual-imp-neg": "{dual} -> ~{phi}",
    "delta-premise": "({lhs} -> {rhs}) /\\ ({rhs} -> {lhs})",
}


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
            for lemma in lemmas:
                law = lemma.get("law")
                if not isinstance(law, str) or law not in _LAWS:
                    raise SchemaError(f"rule {rid}: unknown lemma law: {law!r}")
                for name in re.findall(r"{(\w+)}", _LAWS[law]):
                    letter = lemma.get(name)
                    if not (isinstance(letter, str) and letter.isidentifier()
                            and letter != "bot"):
                        raise SchemaError(f"rule {rid}: lemma {law!r} needs a letter "
                                          f"{name!r}, not {letter!r}")
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

class TheoryContext(Record):
    __slots__ = ("assumed", "k_max")

    def __init__(self, assumed: frozenset[str], k_max: int):
        """Check the level cap, spell the assumed nodes canonically and
        check their levels in text order, so that no hash seed names another."""
        if k_max < 0:
            raise LevelOutOfRange(f"k_max={k_max} is below the bound 0")
        if k_max > K_MAX_LIMIT:
            raise LevelOutOfRange(
                f"k_max={k_max} exceeds the limit {K_MAX_LIMIT}")
        canon = dict(map(ground_node, assumed))
        for n in sorted(canon):
            if canon[n] > k_max:
                raise LevelOutOfRange(f"{n} exceeds k_max={k_max}")
        set_assumed, set_k_max = self._setters
        set_assumed(self, frozenset(canon))
        set_k_max(self, k_max)

    @staticmethod
    def make(nodes: Iterable[str], k_max: int) -> "TheoryContext":
        return TheoryContext(frozenset(nodes), k_max)


class Derivable(Record):
    __slots__ = ("chain",)  # a list of (rule_id, premises tuple, conclusion)


class Separated(Record):
    __slots__ = ("fact_id", "witness")  # witness: a dict of the fact's ground instance


class Unknown(Record):
    __slots__ = ("boundary_warning",)


# ---------------------------------------------------------------------------
# Closure

def _level(rb: RuleBase, k: int):
    """The rule base ground at level k, built once and shared by the
    program of every level cap: (rules, facts), each aligned with the
    rule base's list and None where the guard excludes k or a class goes
    below level 0.  A rule entry is (step, top, distinct), step being
    (rule id, premise texts, conclusion text, conclusion level), top the
    highest level among its nodes and distinct its distinct premise texts
    in first-seen order; a fact entry is ((fact, k, theory texts,
    unprovable text), top).  Each guard is checked, and each distinct
    pattern ground, once; node texts are interned, so all instances
    share one string per node."""
    if k not in rb._levels:
        admits: dict[str, bool] = {}
        grounds: dict[str, tuple[str, int] | None] = {}

        def ground(pats: tuple[NodePat, ...], guard: str | None):
            """(the patterns' texts, the last one's level, the highest
            level), or None."""
            if guard:
                if guard not in admits:
                    op, n = _GUARD_RE.match(guard.replace(" ", "")).groups()
                    admits[guard] = k >= int(n) if op == ">=" else k == int(n)
                if not admits[guard]:
                    return None
            texts, top = [], 0
            for p in pats:
                if p.text not in grounds:
                    g = p.ground(k)
                    grounds[p.text] = None if g is None else (sys.intern(g[0]), g[1])
                g = grounds[p.text]
                if g is None:
                    return None
                text, level = g
                texts.append(text)
                if level > top:
                    top = level
            return texts, level, top

        rules = []
        for rule in rb.rules:
            g = ground(rule.premises + (rule.conclusion,), rule.guard)
            if g is None:
                rules.append(None)
            else:
                (*prems, concl), level, top = g
                prems = tuple(prems)
                rules.append(((rule.rule_id, prems, concl, level), top,
                              tuple(dict.fromkeys(prems))))
        facts = []
        for fact in rb.separations:
            g = ground(fact.theory + (fact.unprovable,), fact.guard)
            if g is None:
                facts.append(None)
            else:
                (*theory, unprov), _level, top = g
                facts.append(((fact, k, tuple(theory), unprov), top))
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
                    step, top, distinct = entry
                    for p in distinct or (None,):
                        watch.setdefault(p, []).append(len(insts))
                    if top > k_max:
                        rid, texts, _concl, level = step
                        step = (rid, texts, None, level)
                    insts.append(step)
                    counts.append(len(distinct))
        facts = [entry[0] for row in zip(*(facts for _rules, facts in levels))
                 for entry in row if entry is not None and entry[1] <= k_max]
        rb._programs[k_max] = (insts, watch, counts, facts)
    return rb._programs[k_max]


def _cover_steps(rb: RuleBase, n: str) -> tuple:
    """The monotonicity steps from a canonical node to the nodes it
    covers (nodes.plain_covers), sorted by text.  Only the plain variants
    of the rule base's inclusion families are monotone.  Memoized on the
    rule base; they do not depend on the level cap."""
    if n not in rb._covers:
        covers = plain_covers(n)
        steps = ()
        if covers is not None and covers[0] in rb.inclusions:
            family, covered = covers
            mono = f"mono:{family}"
            steps = tuple((mono, (n,), w, None) for w in covered)
        rb._covers[n] = steps
    return rb._covers[n]


def _closure_detail(assumed: frozenset[str], rb: RuleBase, k_max: int,
                    rng: random.Random | None = None):
    """Least fixpoint with provenance, by one worklist of nodes over the
    ground program, each queued once, when a step first reaches it.  A
    node taken steps to the nodes it covers (their transitive closure is
    its down-set), then to the rule instances it completes.  rng, when
    given, picks the next queued node; the fixpoint does not depend on it.

    Returns (reached, clamped_levels): reached maps each node, in the
    order reached, to the (rule_id, premises, node, level) step that
    reached it, None for an assumed node; clamped_levels collects the
    conclusion levels of completed clamp markers.
    """
    insts, watch, counts, _facts = _program(rb, k_max)
    missing = counts.copy()
    todo = deque(sorted(assumed))
    reached: dict[str, tuple | None] = dict.fromkeys(todo)
    clamped: set[int] = set()
    steps = [insts[i] for i in watch.get(None, ())]
    while True:
        for step in steps:
            n = step[2]
            if n is None:
                clamped.add(step[3])
            elif n not in reached:
                reached[n] = step
                todo.append(n)
        if not todo:
            return reached, clamped
        if rng is not None:
            todo.rotate(rng.randrange(len(todo)))
        n = todo.popleft()
        steps = list(_cover_steps(rb, n))
        for i in watch.get(n, ()):
            missing[i] -= 1
            if not missing[i]:
                steps.append(insts[i])


def closure(ctx: TheoryContext, rb: RuleBase,
            rng: random.Random | None = None) -> frozenset[str]:
    """The set of ground principle nodes derivable over HA from the
    assumed nodes, up to level k_max.  Deterministic: the least fixpoint
    does not depend on the order the worklist takes its nodes in."""
    return frozenset(_closure_detail(ctx.assumed, rb, ctx.k_max, rng)[0])


def query(ctx: TheoryContext, goal: str, rb: RuleBase):
    """Derivable with a replayable chain, a cited Separated answer, or
    Unknown (with a boundary warning when the level cap interfered).

    The chain lists the steps the goal needs in the order the fixpoint
    added them, a run of monotonicity steps of one family folded into one
    down-set step where no other step uses the nodes it passes through.

    A goal outside the base's closure is looked up in the separation
    facts ground within the cap, in file order and then by k: the first
    fact whose unprovable node is in the closure of the base plus the
    goal, and whose theory's closure holds the base, answers.  Several
    entries share a ground theory (the empty theory of a fact at every
    k), so each distinct theory is closed at most once per query, and
    its verdict reused; nothing is kept between queries."""
    goal, level = ground_node(goal)
    if level > ctx.k_max:
        raise LevelOutOfRange(f"{goal} exceeds k_max={ctx.k_max}")
    reached, clamped = _closure_detail(ctx.assumed, rb, ctx.k_max)
    if goal in reached:
        needed, chain = {goal}, []
        for step in reversed(reached.values()):
            if step is not None and step[2] in needed:
                chain.append(step)
                needed.update(step[1])
        uses = Counter(p for step in chain for p in step[1])
        merged: dict[str, tuple] = {}
        for rid, prems, n, _level in reversed(chain):
            prev = merged.get(prems[0]) if prems else None
            if prev and prev[0] == rid and rid.startswith("mono:") and uses[prems[0]] == 1:
                prems = merged.pop(prems[0])[1]
            merged[n] = (rid, prems, n)
        return Derivable(list(merged.values()))

    ctx_with_goal = ctx.assumed | {goal}
    reached_with_goal, _clamped = _closure_detail(ctx_with_goal, rb, ctx.k_max)
    holds: dict[frozenset[str], bool] = {}  # per ground theory: its closure holds the base
    for fact, k, theory, unprov in _program(rb, ctx.k_max)[3]:
        if unprov not in reached_with_goal:
            continue
        texts = frozenset(theory)
        if texts not in holds:
            holds[texts] = _closure_detail(texts, rb, ctx.k_max)[0].keys() >= ctx.assumed
        if holds[texts]:
            return Separated(fact.fact_id, {
                "k": k,
                "theory": theory,
                "unprovable": unprov,
                "cite": dict(fact.cite),
            })

    involved = {ground_node(n)[1] for n in ctx_with_goal}
    return Unknown(any(abs(lvl - m) <= 2 for lvl in clamped for m in involved))


def equivalence_class(node: str, base: TheoryContext, rb: RuleBase) -> frozenset[str]:
    """All nodes inter-derivable with the given node over HA plus the
    base context.

    Found by elimination over the forward closure of base + node, in
    sorted order: when a candidate's closure lacks the node, so does the
    closure of every node in it (closure is monotone and idempotent), and
    all of them are ruled out without a closure of their own."""
    node, level = ground_node(node)
    if level > base.k_max - 2:
        raise LevelOutOfRange(
            f"{node} needs k_max >= level + 2 (k_max={base.k_max})")
    fwd, _clamped = _closure_detail(base.assumed | {node}, rb, base.k_max)
    out: set[str] = set()
    ruled_out: set[str] = set()
    for cand in sorted(fwd):
        if cand in ruled_out:
            continue
        back, _clamped = _closure_detail(base.assumed | {cand}, rb, base.k_max)
        if node in back:
            out.add(cand)
        else:
            ruled_out.update(back)
    return frozenset(out)


# ---------------------------------------------------------------------------
# Rule verification

VERIFIED = "Verified"
FAILED = "Failed"
NEEDS_FIRST_ORDER = "NeedsFirstOrder"


class Report(Record):
    """The status counts of a rule base and (rule id, status) per rule."""

    __slots__ = ("verified", "failed", "needs_first_order", "statuses")


def _status(rule: Rule) -> str:
    """Verified or Failed by G4ip on the rule's skeleton, with its lemmas'
    laws as hypotheses, or NeedsFirstOrder, not attempted.  load_rulebase
    has checked the spec; a skeleton that does not parse or that needs
    more atoms than the prover's budget is an error naming the rule."""
    from . import ipc  # only rule verification needs the prover
    from .formulas import all_names

    if rule.verify["kind"] == "first-order":
        return NEEDS_FIRST_ORDER
    try:
        goal = ipc.parse_prop(rule.verify["skeleton"])
        hyps = frozenset(ipc.parse_prop(_LAWS[m["law"]].format_map(m))
                         for m in rule.verify.get("lemmas", ()))
        if len(all_names(goal).union(*map(all_names, hyps))) > ipc._ATOM_BUDGET:
            raise ValueError("skeleton exceeds the atom budget")
    except ValueError as e:
        raise ipc.MalformedSkeleton(f"rule {rule.rule_id}: {e}") from None
    return VERIFIED if ipc.prove_ipc(ipc.Sequent(hyps, goal)).provable else FAILED


def verify_rulebase(rb: RuleBase) -> Report:
    statuses = []
    proved: dict[str, str] = {}  # status by verify spec: many rules share one
    for rule in rb.rules:
        spec = json.dumps(rule.verify, sort_keys=True)
        if spec not in proved:
            proved[spec] = _status(rule)
        statuses.append((rule.rule_id, proved[spec]))
    counts = Counter(status for _, status in statuses)
    return Report(counts[VERIFIED], counts[FAILED], counts[NEEDS_FIRST_ORDER], statuses)


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
            ("LEM:nP(k)", "DML:P(k):S(k)"))),
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

    Node text prints as the table writes it (diagonal sugar kept).  Dashed
    and dotted edges carry a label naming the base they hold over; solid
    edges hold over the graph's label, or over HA when it has none."""
    if preset not in _FIGURES:
        raise ValueError(f"unknown preset: {preset!r}")
    nodes, styles = _FIGURES[preset]
    pats = [parse_pattern(p) for p in itertools.chain(nodes, *(b for b, _ in styles.values()))]
    least = next(j for j in itertools.count() if all(p.text_at(j) for p in pats))
    if k < least:
        raise ValueError(f"preset {preset!r} needs k >= {least}")

    def at(pat: str) -> str:
        return parse_pattern(pat).text_at(k)

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
