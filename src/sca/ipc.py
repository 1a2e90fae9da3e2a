"""Decision procedure for intuitionistic propositional logic in a
contraction-free sequent calculus, with replayable derivation traces, a
classical truth-table checker, propositional skeleton extraction for
first-order formulas, and hybrid verification of rule-base implications.

Propositional formulas are sca.formulas formulas over bot and letters
(PAtom); this module shares that module's classes, printer, parser and
evaluator, and keeps the prover's names for them (PAnd is formulas.And).

The left-implication rule is split four ways on the shape of the
antecedent (atomic / conjunctive / disjunctive / nested implication),
which makes proof search terminate without a loop check.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Mapping

from . import formulas as fo
from .formulas import And as PAnd, Bot as PBot, Formula, Imp as PImp
from .formulas import Not as PNot, Or as POr, PAtom, PropFormula

__all__ = [
    "PropFormula", "PAtom", "PBot", "PAnd", "POr", "PImp", "PNot",
    "Sequent", "Trace", "ProofResult",
    "parse_prop", "format_prop", "prop_atoms",
    "prove_ipc", "prove_classical", "validate_trace",
    "skeletonize", "SkeletonTable", "MalformedSkeleton",
    "verify_rule", "VERIFIED", "FAILED", "NEEDS_FIRST_ORDER",
]


# ---------------------------------------------------------------------------
# Propositional formulas

class _PropParser(fo._Parser):
    """The connective grammar of the first-order language over
    propositional atoms: letters, bot, ~ and parentheses.  No quantifiers
    and no terms, so E, A, S and pair are letters too."""

    def unary(self) -> PropFormula:
        kind, tok, pos = self.next()
        if tok == "~":
            return PNot(self.unary())
        if tok == "(":
            f = self.formula()
            self.expect(")")
            return f
        if tok == "bot":
            return PBot()
        if kind == "ident":
            return PAtom(tok)
        raise fo.ParseError(f"expected a propositional formula, found {tok or 'end of input'!r}", pos)


def parse_prop(src: str) -> PropFormula:
    p = _PropParser(src)
    return p.done(p.formula())


format_prop = fo.format_formula


def prop_atoms(f: PropFormula) -> frozenset[str]:
    if isinstance(f, PAtom):
        return frozenset((f.name,))
    if isinstance(f, PBot):
        return frozenset()
    return prop_atoms(f.f1) | prop_atoms(f.f2)


# ---------------------------------------------------------------------------
# Sequents and traces

@dataclass(frozen=True, slots=True)
class Sequent:
    hypotheses: frozenset
    goal: PropFormula

    def __str__(self) -> str:
        hs = ", ".join(sorted(format_prop(h) for h in self.hypotheses))
        return f"{hs} |- {format_prop(self.goal)}" if hs else f"|- {format_prop(self.goal)}"


@dataclass(frozen=True, slots=True)
class Trace:
    rule: str
    sequent: Sequent
    principal: PropFormula | None
    children: tuple["Trace", ...]


@dataclass(frozen=True, slots=True)
class ProofResult:
    provable: bool
    trace: Trace | None


# ---------------------------------------------------------------------------
# The decision procedure

def prove_ipc(s: Sequent | PropFormula) -> ProofResult:
    """Decide a sequent (a bare formula means empty hypotheses).

    Returns Provable with a derivation trace replayable by
    validate_trace, or Unprovable (trace None).  Total: terminates on
    every input without a loop check.
    """
    if not isinstance(s, Sequent):
        s = Sequent(frozenset(), s)
    cache: dict[Sequent, Trace | None] = {}
    tr = _search(s.hypotheses, s.goal, cache)
    return ProofResult(tr is not None, tr)


def _search(hyps: frozenset, goal: PropFormula,
            cache: dict[Sequent, "Trace | None"]) -> "Trace | None":
    seq = Sequent(hyps, goal)
    if seq in cache:
        return cache[seq]
    tr = _step(hyps, goal, cache)
    cache[seq] = tr
    return tr


def _step(hyps: frozenset, goal: PropFormula, cache) -> "Trace | None":
    seq = Sequent(hyps, goal)

    if any(isinstance(h, PBot) for h in hyps):
        return Trace("L-bot", seq, PBot(), ())
    if isinstance(goal, PAtom) and goal in hyps:
        return Trace("axiom", seq, goal, ())

    # invertible left rules, on the applicable hypothesis that prints
    # first, so that traces do not depend on the hash seed
    left = [h for h in hyps if isinstance(h, (PAnd, POr)) or isinstance(h, PImp) and (
        isinstance(h.f1, (PBot, PAnd, POr)) or isinstance(h.f1, PAtom) and h.f1 in hyps)]
    if left:
        h = left[0] if len(left) == 1 else min(left, key=format_prop)
        if isinstance(h, PAnd):
            sub = _search(hyps - {h} | {h.f1, h.f2}, goal, cache)
            return Trace("L-and", seq, h, (sub,)) if sub else None
        if isinstance(h, POr):
            s1 = _search(hyps - {h} | {h.f1}, goal, cache)
            if s1 is None:
                return None
            s2 = _search(hyps - {h} | {h.f2}, goal, cache)
            return Trace("L-or", seq, h, (s1, s2)) if s2 else None
        a = h.f1
        if isinstance(a, PBot):
            sub = _search(hyps - {h}, goal, cache)
            return Trace("L-imp-bot", seq, h, (sub,)) if sub else None
        if isinstance(a, PAtom):
            sub = _search(hyps - {h} | {h.f2}, goal, cache)
            return Trace("L-imp-atom", seq, h, (sub,)) if sub else None
        if isinstance(a, PAnd):
            sub = _search(hyps - {h} | {PImp(a.f1, PImp(a.f2, h.f2))}, goal, cache)
            return Trace("L-imp-and", seq, h, (sub,)) if sub else None
        sub = _search(hyps - {h} | {PImp(a.f1, h.f2), PImp(a.f2, h.f2)}, goal, cache)
        return Trace("L-imp-or", seq, h, (sub,)) if sub else None

    # invertible right rules
    if isinstance(goal, PAnd):
        s1 = _search(hyps, goal.f1, cache)
        if s1 is None:
            return None
        s2 = _search(hyps, goal.f2, cache)
        return Trace("R-and", seq, None, (s1, s2)) if s2 else None
    if isinstance(goal, PImp):
        sub = _search(hyps | {goal.f1}, goal.f2, cache)
        return Trace("R-imp", seq, None, (sub,)) if sub else None

    # choice points
    if isinstance(goal, POr):
        s1 = _search(hyps, goal.f1, cache)
        if s1 is not None:
            return Trace("R-or-1", seq, None, (s1,))
        s2 = _search(hyps, goal.f2, cache)
        if s2 is not None:
            return Trace("R-or-2", seq, None, (s2,))
    for h in sorted((h for h in hyps if isinstance(h, PImp) and isinstance(h.f1, PImp)),
                    key=format_prop):
        c, d = h.f1.f1, h.f1.f2
        s1 = _search(hyps - {h} | {PImp(d, h.f2)}, h.f1, cache)
        if s1 is None:
            continue
        s2 = _search(hyps - {h} | {h.f2}, goal, cache)
        if s2 is not None:
            return Trace("L-imp-imp", seq, h, (s1, s2))
    return None


def validate_trace(tr: Trace) -> bool:
    """Replay a derivation rule by rule, independently of the search."""
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
    return ok and all(validate_trace(k) for k in tr.children)


# ---------------------------------------------------------------------------
# Classical oracle

def prove_classical(f: PropFormula) -> bool:
    """Truth-table validity."""
    names = sorted(prop_atoms(f))
    return all(fo.eval_bounded(f, dict(zip(names, vals)))
               for vals in itertools.product((False, True), repeat=len(names)))


# ---------------------------------------------------------------------------
# Skeleton extraction

class MalformedSkeleton(ValueError):
    pass


_ATOM_BUDGET = 12
_ATOM_NAMES = "abcdefghijkl"


class SkeletonTable:
    """Shared atom table so several formulas can be skeletonized jointly;
    alpha-equivalent subformulas map to the same atom."""

    def __init__(self) -> None:
        self._atoms: dict[Formula, str] = {}

    def _atom_for(self, f: Formula) -> PAtom:
        key = fo.alpha_normal(f)
        name = self._atoms.get(key)
        if name is None:
            if len(self._atoms) >= _ATOM_BUDGET:
                raise MalformedSkeleton(
                    f"skeleton needs more than {_ATOM_BUDGET} distinct atoms")
            name = _ATOM_NAMES[len(self._atoms)]
            self._atoms[key] = name
        return PAtom(name)

    def abstract(self, f: Formula) -> PropFormula:
        """f with its atoms and quantified subformulas replaced by letters."""
        if isinstance(f, (PAnd, POr, PImp)):
            return type(f)(self.abstract(f.f1), self.abstract(f.f2))
        return f if isinstance(f, PBot) else self._atom_for(f)


def skeletonize(f: Formula) -> PropFormula:
    """Propositional skeleton: every maximal quantified subformula and
    every atomic formula becomes a propositional atom (bot is kept).

    If the skeleton is provable in intuitionistic propositional logic,
    the original formula is intuitionistically valid (uniform
    substitution).
    """
    return SkeletonTable().abstract(f)


# ---------------------------------------------------------------------------
# Rule verification

VERIFIED = "Verified"
FAILED = "Failed"
NEEDS_FIRST_ORDER = "NeedsFirstOrder"


def _lemma_formula(lemma: Mapping[str, str]) -> PropFormula:
    """The trusted hypothesis a lemma names.  The only shapes admitted are
    the dual laws (dual implies negation; a formula and its dual are
    inconsistent; the double dual is equivalent to the formula) and an
    assumed class equivalence premise.  Each field a law names must be a
    string, the letter it stands for."""
    law = lemma.get("law")

    def letter(name: str) -> PAtom:
        value = lemma.get(name)
        if not isinstance(value, str):
            raise MalformedSkeleton(f"lemma {law!r} needs a string {name!r}, not {value!r}")
        return PAtom(value)

    if law == "dual-imp-neg":
        return PImp(letter("dual"), PNot(letter("phi")))
    if law == "dual-disjoint":
        return PNot(PAnd(letter("phi"), letter("dual")))
    if law == "dual-involution":
        a, dd = letter("phi"), letter("ddual")
        return PAnd(PImp(dd, a), PImp(a, dd))
    if law == "delta-premise":
        a, b = letter("lhs"), letter("rhs")
        return PAnd(PImp(a, b), PImp(b, a))
    raise MalformedSkeleton(f"unknown lemma law: {law!r}")


def verify_rule(rule) -> str:
    """Hybrid verification of one rule.

    For a rule marked propositional: parse its declared skeleton, add its
    trusted lemma hypotheses (only the dual laws and equivalence premises
    are admitted), and decide with prove_ipc.  For a rule marked
    first-order, return NeedsFirstOrder without attempting anything.
    """
    verify = rule["verify"] if isinstance(rule, Mapping) else rule.verify
    kind = verify.get("kind")
    if kind == "first-order":
        return NEEDS_FIRST_ORDER
    if kind != "propositional":
        raise MalformedSkeleton(f"unknown verification kind: {kind!r}")
    skeleton = verify.get("skeleton")
    if not skeleton:
        raise MalformedSkeleton("propositional rule without a skeleton")
    goal = parse_prop(skeleton)
    hyps = frozenset(_lemma_formula(l) for l in verify.get("lemmas", ()))
    if len(prop_atoms(goal).union(*map(prop_atoms, hyps))) > _ATOM_BUDGET:
        raise MalformedSkeleton("skeleton exceeds the atom budget")
    result = prove_ipc(Sequent(hyps, goal))
    return VERIFIED if result.provable else FAILED
