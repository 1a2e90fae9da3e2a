"""Decision procedure for intuitionistic propositional logic in G4ip, the
contraction-free sequent calculus of Dyckhoff (J. Symbolic Logic 57(3),
1992), with replayable derivation traces, a classical truth-table
checker, and propositional skeleton extraction for first-order formulas.
sca.derivability verifies the rule base's propositional rules with it.

Propositional formulas are sca.formulas formulas over bot and letters
(PAtom); this module shares that module's classes, printer, parser and
evaluator, and keeps the prover's names for them (PAnd is formulas.And).

The left-implication rule is split four ways on the shape of the
antecedent (atomic / conjunctive / disjunctive / nested implication),
which makes proof search terminate without a loop check.  Each rule is
stated once, as the principal it takes (_left_rule, _RIGHT) and its
premises (_PREMISES).  At each sequent the search tries, in order, the
steps that _choices lists; validate_trace checks every step against the
same statement.
"""

from __future__ import annotations

import itertools

from . import HashedRecord, Record
from . import formulas as fo
from .formulas import And as PAnd, Bot as PBot, Formula, Imp as PImp
from .formulas import Not as PNot, Or as POr, PAtom, PropFormula

__all__ = [
    "PropFormula", "PAtom", "PBot", "PAnd", "POr", "PImp", "PNot",
    "Sequent", "Trace", "ProofResult",
    "parse_prop", "format_prop",
    "prove_ipc", "prove_classical", "validate_trace",
    "skeletonize", "MalformedSkeleton",
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


# ---------------------------------------------------------------------------
# Sequents and traces

class Sequent(HashedRecord):
    __slots__ = ("hypotheses", "goal")

    def __init__(self, hypotheses: frozenset, goal: PropFormula):
        set_hypotheses, set_goal, set_hash = self._setters
        set_hypotheses(self, hypotheses)
        set_goal(self, goal)
        set_hash(self, hash((hypotheses, goal)))

    def __str__(self) -> str:
        hs = ", ".join(sorted(format_prop(h) for h in self.hypotheses))
        return f"{hs} |- {format_prop(self.goal)}" if hs else f"|- {format_prop(self.goal)}"


class Trace(Record):
    """A proof step: its rule, conclusion, principal (None for a right
    rule) and the traces of its premises."""

    __slots__ = ("rule", "sequent", "principal", "children")

    def __init__(self, rule: str, sequent: Sequent, principal: PropFormula | None,
                 children: tuple["Trace", ...]):
        set_rule, set_sequent, set_principal, set_children = self._setters
        set_rule(self, rule)
        set_sequent(self, sequent)
        set_principal(self, principal)
        set_children(self, children)


class ProofResult(Record):
    __slots__ = ("provable", "trace")


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
    texts: dict[PropFormula, str] = {}  # see _in_print_order
    tr = _search(s.hypotheses, s.goal, cache, texts)
    return ProofResult(tr is not None, tr)


def _search(hyps: frozenset, goal: PropFormula,
            cache: dict[Sequent, "Trace | None"], texts: dict) -> "Trace | None":
    """The first step _choices lists whose premises all prove, each
    premise proved in order, or None; one frame per step of the proof."""
    seq = Sequent(hyps, goal)
    if seq in cache:
        return cache[seq]
    tr = None
    for rule, p in _choices(hyps, goal, texts):
        kids = ()
        for premise in _PREMISES[rule]:
            sub = _search(*premise(hyps, goal, p), cache, texts)
            if sub is None:
                break
            kids += (sub,)
        else:
            tr = Trace(rule, seq, p, kids)
            break
    cache[seq] = tr
    return tr


def _choices(hyps: frozenset, goal: PropFormula, texts: dict) -> list:
    """The steps (rule, principal) the search tries at hyps |- goal, in
    order.  A closing rule (L-bot before axiom), else an invertible left
    rule, else R-and or R-imp, is the only step; otherwise the steps are
    the right rules of a disjunction, then L-imp-imp on each candidate."""
    left = [(r, h) for h in hyps if (r := _left_rule(h, hyps, goal))]
    for closing in ("L-bot", "axiom"):
        for step in left:
            if step[0] == closing:
                return [step]
    invertible = [step for step in left if step[0] != "L-imp-imp"]
    if invertible:
        return _in_print_order(invertible, texts)[:1]
    right = [(r, None) for r in _RIGHT.get(type(goal), ())]  # left: only L-imp-imp now
    return right if len(right) == 1 else right + _in_print_order(left, texts)


def _in_print_order(steps: list, texts: dict) -> list:
    """Steps by their principal's printed text, so that traces do not
    depend on the hash seed; a lone step prints nothing.  texts holds the
    text of each formula once per proof."""
    if len(steps) < 2:
        return steps
    for _, h in steps:
        if h not in texts:
            texts[h] = format_prop(h)
    return sorted(steps, key=lambda step: texts[step[1]])


def validate_trace(tr: Trace) -> bool:
    """Replay a derivation step by step against the statement of the
    rules, without the search: a left rule's principal is a hypothesis
    the rule takes, a right rule's is None and the goal has the rule's
    shape, and the children's sequents are the premises, in order.  The
    steps wait on a stack, not in frames, so a trace of any depth replays."""
    todo = [tr]
    while todo:
        tr = todo.pop()
        hyps, goal, p = tr.sequent.hypotheses, tr.sequent.goal, tr.principal
        ok = (tr.rule in _RIGHT.get(type(goal), ()) if p is None
              else p in hyps and _left_rule(p, hyps, goal) == tr.rule)
        if not (ok and len(tr.children) == len(_PREMISES[tr.rule])
                and all(k.sequent == Sequent(*premise(hyps, goal, p))
                        for k, premise in zip(tr.children, _PREMISES[tr.rule]))):
            return False
        todo.extend(reversed(tr.children))
    return True


# ---------------------------------------------------------------------------
# Classical oracle

def prove_classical(f: PropFormula) -> bool:
    """Truth-table validity."""
    names = sorted(fo.all_names(f))
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
    # atoms by their printed alpha-normal form: the equality of two deep
    # formulas recurses
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
