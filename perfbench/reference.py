"""A simple reference fixpoint for the derivability engine, used only to
check the engine's answers.

It reads the rule base's data (rules, separation facts, inclusion
families) and uses three public helpers of the package:
``parse_pattern`` and ``ground_pattern`` to print a node canonically,
and ``hierarchy.class_lit_subset`` for the class-inclusion lattice.  Everything else -- grounding, monotonicity,
the fixpoint, the separation scan, chain replay -- is written here from
the README's description, without the engine's private helpers.
"""

from __future__ import annotations

import re

from sca.derivability import ground_pattern, parse_pattern
from sca.hierarchy import ClassLit, class_lit_subset

_LIT_RE = re.compile(r"^(nn|n)?([SPD])(\d+)$")
_GUARD_RE = re.compile(r"^k(>=|==)(\d+)$")


def split_node(node: str) -> tuple[str, str, tuple[ClassLit, ...]]:
    """(family, variant tag, class literals) of a canonical ground node."""
    parts = node.split(":")
    tag = parts[1] if len(parts) > 1 and parts[1] in ("DSI", "DPI") else ""
    lits = []
    for text in parts[2 if tag else 1:]:
        m = _LIT_RE.match(text)
        if m is None:
            raise ValueError(f"not a ground node: {node!r}")
        lits.append(ClassLit(len(m.group(1) or ""), m.group(2), int(m.group(3))))
    return parts[0], tag, tuple(lits)


def level(node: str) -> int:
    return max(lit.level for lit in split_node(node)[2])


def canon(family: str, tag: str, lits) -> str:
    """The package's own canonical spelling of a ground node."""
    text = ":".join([family] + ([tag] if tag else [])
                    + ["n" * l.neg + l.kind + str(l.level) for l in lits])
    return ground_pattern(parse_pattern(text), 0)


def guard_ok(guard: str | None, k: int) -> bool:
    if not guard:
        return True
    op, n = _GUARD_RE.match(guard.replace(" ", "")).groups()
    return k >= int(n) if op == ">=" else k == int(n)


def ground(pats, k: int, k_max: int):
    """Ground patterns at level k, or None if any falls outside 0..k_max."""
    out = []
    for p in pats:
        g = ground_pattern(p, k)
        if g is None or level(g) > k_max:
            return None
        out.append(g)
    return out


class Reference:
    """Closures of one rule base, memoised per (base, k_max)."""

    def __init__(self, rb):
        self.rb = rb
        self.rules = {r.rule_id: r for r in rb.rules}
        self._instances: dict = {}
        self._weaker: dict[str, frozenset[str]] = {}
        self._closures: dict[tuple, frozenset[str]] = {}
        self._canon: dict[tuple, str] = {}

    def instances(self, k_max: int) -> list:
        """(rule id, premises, conclusion) for every rule and k whose
        nodes all lie within k_max."""
        if k_max not in self._instances:
            out = []
            for rule in self.rb.rules:
                for k in range(k_max + 1):
                    if not guard_ok(rule.guard, k):
                        continue
                    g = ground(rule.premises + (rule.conclusion,), k, k_max)
                    if g is not None:
                        out.append((rule.rule_id, tuple(g[:-1]), g[-1]))
            self._instances[k_max] = out
        return self._instances[k_max]

    def weaker(self, node: str) -> frozenset[str]:
        """Nodes of the same monotone family whose every class argument
        is included in the node's (the node itself included)."""
        if node not in self._weaker:
            family, tag, lits = split_node(node)
            out = {node}
            if family in self.rb.inclusions and not tag:
                choices = [[ClassLit(a.neg, kind, lvl)
                            for kind in "SPD" for lvl in range(a.level + 1)
                            if class_lit_subset(ClassLit(a.neg, kind, lvl), a)]
                           for a in lits]
                combos = [()]
                for options in choices:
                    combos = [c + (o,) for c in combos for o in options]
                for c in combos:
                    key = (family, c)
                    if key not in self._canon:
                        self._canon[key] = canon(family, tag, c)
                    out.add(self._canon[key])
            self._weaker[node] = frozenset(out)
        return self._weaker[node]

    def by_premise(self, k_max: int) -> dict:
        """premise node -> instances that have it; premise-free instances
        under the key None."""
        key = ("index", k_max)
        if key not in self._instances:
            index: dict = {}
            for inst in self.instances(k_max):
                for p in inst[1] or (None,):
                    index.setdefault(p, []).append(inst)
            self._instances[key] = index
        return self._instances[key]

    def closure(self, base, k_max: int) -> frozenset[str]:
        """Worklist fixpoint over the canonically spelled base: add a
        node, then everything weaker than it and the conclusion of every
        instance whose premises are now all in."""
        key = (frozenset(base), k_max)
        if key not in self._closures:
            index = self.by_premise(k_max)
            nodes: set[str] = set()
            todo = ([canon(*split_node(n)) for n in key[0]]
                    + [c for _r, _p, c in index.get(None, ())])
            while todo:
                n = todo.pop()
                if n in nodes:
                    continue
                nodes.add(n)
                todo.extend(self.weaker(n))
                for _rid, prems, concl in index.get(n, ()):
                    if concl not in nodes and all(p in nodes for p in prems):
                        todo.append(concl)
            self._closures[key] = frozenset(nodes)
        return self._closures[key]

    def separation(self, base, goal: str, k_max: int):
        """The first (fact id, k, theory, unprovable) whose theory proves
        everything the base proves while base + goal proves the
        unprovable node; None when no fact applies."""
        have = self.closure(base, k_max)
        with_goal = self.closure(set(base) | {goal}, k_max)
        for fact in self.rb.separations:
            for k in range(k_max + 1):
                if not guard_ok(fact.guard, k):
                    continue
                g = ground(fact.theory + (fact.unprovable,), k, k_max)
                if g is None:
                    continue
                theory, unprov = g[:-1], g[-1]
                if have <= self.closure(theory, k_max) and unprov in with_goal:
                    return fact.fact_id, k, tuple(theory), unprov
        return None

    def verdict(self, base, goal: str, k_max: int) -> str:
        if goal in self.closure(base, k_max):
            return "DERIVABLE"
        if self.separation(base, goal, k_max) is not None:
            return "SEPARATED"
        return "UNKNOWN"

    # -- answer checks: each returns a list of problems ------------------

    def check_closure(self, base, k_max: int, got) -> list[str]:
        want = self.closure(base, k_max)
        if set(got) == want:
            return []
        return [f"closure{sorted(base)}@{k_max}: missing "
                f"{sorted(want - set(got))[:3]}, extra {sorted(set(got) - want)[:3]}"]

    def check_chain(self, base, goal: str, k_max: int, chain) -> list[str]:
        have = set(base)
        for rid, prems, concl in chain:
            if not all(p in have for p in prems):
                return [f"chain step {rid} uses an underived premise"]
            if rid.startswith("mono:"):
                ok = len(prems) == 1 and concl in self.weaker(prems[0])
            else:
                rule = self.rules.get(rid)
                ok = rule is not None and any(
                    guard_ok(rule.guard, k)
                    and ground(rule.premises + (rule.conclusion,), k, k_max)
                    == list(prems) + [concl]
                    for k in range(k_max + 1))
            if not ok:
                return [f"chain step {rid}: {list(prems)} => {concl} does not replay"]
            have.add(concl)
        if goal not in have:
            return [f"chain does not reach {goal}"]
        return []

    def check_query(self, base, goal: str, k_max: int, answer) -> list[str]:
        verdict = answer["verdict"]
        want = self.verdict(base, goal, k_max)
        if verdict != want:
            return [f"query {sorted(base)} |- {goal} @{k_max}: {verdict}, expected {want}"]
        if verdict == "DERIVABLE":
            return self.check_chain(base, goal, k_max, answer["chain"])
        if verdict == "SEPARATED":
            fid, k, theory, unprov = answer["witness"]
            fact = {f.fact_id: f for f in self.rb.separations}.get(fid)
            g = None if fact is None or not guard_ok(fact.guard, k) else \
                ground(fact.theory + (fact.unprovable,), k, k_max)
            if g is None or g != list(theory) + [unprov]:
                return [f"separation witness {fid}@{k} is not an instance of the fact"]
            if not (self.closure(base, k_max) <= self.closure(theory, k_max)
                    and unprov in self.closure(set(base) | {goal}, k_max)):
                return [f"separation witness {fid}@{k} does not cover the query"]
        return []

    def equivalence_class(self, node: str, base, k_max: int) -> frozenset[str]:
        """Nodes of the closure of base + node whose own closure with the
        base gives the node back."""
        return frozenset(m for m in self.closure(set(base) | {node}, k_max)
                         if node in self.closure(set(base) | {m}, k_max))

    def check_equivalence(self, node: str, base, k_max: int, members) -> list[str]:
        want = self.equivalence_class(node, base, k_max)
        if set(members) == want:
            return []
        return [f"equivalence class of {node}@{k_max}: missing "
                f"{sorted(want - set(members))[:3]}, extra {sorted(set(members) - want)[:3]}"]
