"""Decision procedure for intuitionistic propositional logic in G4ip, the
contraction-free sequent calculus of Dyckhoff (J. Symbolic Logic 57(3),
1992), with replayable derivation traces, a classical truth-table
checker, propositional skeleton extraction for first-order formulas, and
hybrid verification of rule-base implications.

Propositional formulas are sca.formulas formulas over bot and letters
(PAtom); this module shares that module's classes, printer, parser and
evaluator, and keeps the prover's names for them (PAnd is formulas.And).

The left-implication rule is split four ways on the shape of the
antecedent (atomic / conjunctive / disjunctive / nested implication),
which makes proof search terminate without a loop check.  Each rule is
stated once, as the principal it takes (_left_rule, _RIGHT) and its
premises (_PREMISES): the search only picks a rule and a principal, and
validate_trace checks every step against the same statement.
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
    "skeletonize", "MalformedSkeleton",
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

prop_atoms = fo.all_names  # a propositional formula's only names are its letters


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
# The calculus, stated once: the search and validate_trace both read it

# the left rule that takes a hypothesis of each shape (see _left_rule)
_LEFT = {PBot: "L-bot", PAnd: "L-and", POr: "L-or"}
_IMP_LEFT = {PBot: "L-imp-bot", PAnd: "L-imp-and", POr: "L-imp-or", PImp: "L-imp-imp"}
# the right rules, whose principal is None, by the shape of the goal
_RIGHT = {PAnd: ("R-and",), PImp: ("R-imp",), POr: ("R-or-1", "R-or-2")}

# each rule's premises, in order, from the conclusion's hypotheses, goal and principal
_PREMISES = {
    "L-bot": (), "axiom": (),
    "L-and": (lambda hs, g, p: (hs - {p} | {p.f1, p.f2}, g),),
    "L-or": (lambda hs, g, p: (hs - {p} | {p.f1}, g),
             lambda hs, g, p: (hs - {p} | {p.f2}, g)),
    "L-imp-bot": (lambda hs, g, p: (hs - {p}, g),),
    "L-imp-atom": (lambda hs, g, p: (hs - {p} | {p.f2}, g),),
    "L-imp-and": (lambda hs, g, p: (hs - {p} | {PImp(p.f1.f1, PImp(p.f1.f2, p.f2))}, g),),
    "L-imp-or": (lambda hs, g, p: (hs - {p} | {PImp(p.f1.f1, p.f2), PImp(p.f1.f2, p.f2)}, g),),
    "L-imp-imp": (lambda hs, g, p: (hs - {p} | {PImp(p.f1.f2, p.f2)}, p.f1),
                  lambda hs, g, p: (hs - {p} | {p.f2}, g)),
    "R-and": (lambda hs, g, p: (hs, g.f1), lambda hs, g, p: (hs, g.f2)),
    "R-imp": (lambda hs, g, p: (hs | {g.f1}, g.f2),),
    "R-or-1": (lambda hs, g, p: (hs, g.f1),), "R-or-2": (lambda hs, g, p: (hs, g.f2),),
}


def _left_rule(h, hyps: frozenset, goal: PropFormula) -> str | None:
    """The rule that takes hypothesis h of hyps |- goal as its principal."""
    kind = type(h)
    if kind is PImp:
        if type(h.f1) is PAtom:
            return "L-imp-atom" if h.f1 in hyps else None
        return _IMP_LEFT.get(type(h.f1))
    if kind is PAtom:
        return "axiom" if type(goal) is PAtom and h.name == goal.name else None
    return _LEFT.get(kind)


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
    texts: dict[int, tuple[PropFormula, str]] = {}  # see _printed
    tr = _search(s.hypotheses, s.goal, cache, texts)
    return ProofResult(tr is not None, tr)


def _search(hyps: frozenset, goal: PropFormula,
            cache: dict[Sequent, "Trace | None"], texts: dict) -> "Trace | None":
    seq = Sequent(hyps, goal)
    if seq in cache:
        return cache[seq]
    tr = cache[seq] = _step(seq, cache, texts)
    return tr


def _apply(rule: str, seq: Sequent, p: PropFormula | None, cache, texts) -> "Trace | None":
    """Prove the premises of one step in order, stopping at the first failure."""
    kids = ()
    for premise in _PREMISES[rule]:
        sub = _search(*premise(seq.hypotheses, seq.goal, p), cache, texts)
        if sub is None:
            return None
        kids += (sub,)
    return Trace(rule, seq, p, kids)


def _printed(h: PropFormula, texts: dict) -> str:
    """h as printed, once per proof: texts holds each hypothesis's text by
    identity, since hashing a formula recurses, and the hypothesis with it,
    so that its id is not reused while the proof runs."""
    if id(h) not in texts:
        texts[id(h)] = h, format_prop(h)
    return texts[id(h)][1]


def _step(seq: Sequent, cache, texts) -> "Trace | None":
    hyps, goal = seq.hypotheses, seq.goal
    left = [(r, h) for h in hyps if (r := _left_rule(h, hyps, goal))]
    for closing in ("L-bot", "axiom"):  # the closing rules, L-bot first
        for r, h in left:
            if r == closing:
                return Trace(r, seq, h, ())
    # an invertible left rule, on the applicable hypothesis that prints
    # first, so that traces do not depend on the hash seed
    inv = [c for c in left if c[0] != "L-imp-imp"]
    if inv:
        r, h = inv[0] if len(inv) == 1 else min(inv, key=lambda c: _printed(c[1], texts))
        return _apply(r, seq, h, cache, texts)
    # the invertible right rules, then the choice points
    for r in _RIGHT.get(type(goal), ()):
        tr = _apply(r, seq, None, cache, texts)
        if tr is not None or r in ("R-and", "R-imp"):
            return tr
    for h in sorted((h for r, h in left if r == "L-imp-imp"),
                    key=lambda h: _printed(h, texts)):
        tr = _apply("L-imp-imp", seq, h, cache, texts)
        if tr is not None:
            return tr
    return None


def validate_trace(tr: Trace) -> bool:
    """Replay a derivation step by step against the statement of the
    rules, without the search: a left rule's principal is a hypothesis
    the rule takes, a right rule's is None and the goal has the rule's
    shape, and the children's sequents are the premises, in order."""
    hyps, goal, p = tr.sequent.hypotheses, tr.sequent.goal, tr.principal
    ok = (tr.rule in _RIGHT.get(type(goal), ()) if p is None
          else p in hyps and _left_rule(p, hyps, goal) == tr.rule)
    return (ok and len(tr.children) == len(_PREMISES[tr.rule])
            and all(k.sequent == Sequent(*premise(hyps, goal, p))
                    for k, premise in zip(tr.children, _PREMISES[tr.rule]))
            and all(map(validate_trace, tr.children)))


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


def skeletonize(f: Formula) -> PropFormula:
    """Propositional skeleton: every maximal quantified subformula and
    every atomic formula becomes a propositional atom (bot is kept);
    alpha-equivalent subformulas become the same atom.

    If the skeleton is provable in intuitionistic propositional logic,
    the original formula is intuitionistically valid (uniform
    substitution).
    """
    # atoms by their printed alpha-normal form: hashing a deep formula recurses
    atoms: dict[str, str] = {}
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:  # g's operands are abstracted: g again, over them
            out.append(fo._remade(g[0], out))
        elif isinstance(g, (PAnd, POr, PImp)):
            todo.append((g,))
            todo += fo._PARTS[type(g)][0](g)
        elif isinstance(g, PBot):
            out.append(g)
        else:
            key = format_prop(fo.alpha_normal(g))
            if key not in atoms:
                if len(atoms) >= _ATOM_BUDGET:
                    raise MalformedSkeleton(
                        f"skeleton needs more than {_ATOM_BUDGET} distinct atoms")
                atoms[key] = _ATOM_NAMES[len(atoms)]
            out.append(PAtom(atoms[key]))
    return out[0]


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
