"""Catalog of the restricted classical principle schemas and a generator
producing concrete formula instances.

Class arguments are ground class literals; a "D" argument carries an
equivalence premise and takes two witnesses, and an "n"/"nn" prefix
applies the schema to the (doubly) negated witness.  The catalog and the
node text syntax are defined in the nodes module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .duality import dual
from .formulas import (
    And, Exists, Forall, Formula, Iff, Imp, Lt, Not, Or, Var, free_vars,
)
from .hierarchy import ClassLit, HClass, class_subset, relative_classify
from .nodes import (
    CATALOG, DELTA_PI, DELTA_SIGMA, PLAIN, ArityMismatch, Node, PrincipleId,
)

__all__ = [
    "PrincipleId", "PrincipleInstance",
    "PLAIN", "DELTA_SIGMA", "DELTA_PI",
    "catalog", "instantiate", "node_of", "parse_node",
    "ClassMismatch", "SideConditionViolated", "ArityMismatch",
]


class ClassMismatch(ValueError):
    def __init__(self, index: int, required: str, actual: str):
        super().__init__(
            f"witness {index} must be in {required}, classified as {actual}")
        self.index = index
        self.required = required
        self.actual = actual


class SideConditionViolated(ValueError):
    pass


@dataclass(frozen=True, slots=True)
class PrincipleInstance:
    id: PrincipleId
    class_args: tuple[ClassLit, ...]
    witnesses: tuple[Formula, ...]
    rendered: Formula


def catalog() -> list[tuple[PrincipleId, str]]:
    """The full fixed catalog of (id, schema description) pairs."""
    return list(CATALOG)


# ---------------------------------------------------------------------------
# Node text

def node_of(pid: PrincipleId, class_args: Sequence[ClassLit]) -> str:
    """The derivability-graph node naming this principle at these classes,
    with the arguments in the order given."""
    return str(Node(pid, tuple(class_args)))


def parse_node(text: str) -> tuple[PrincipleId, tuple[ClassLit, ...]]:
    """Inverse of node_of; a single class argument on a binary de Morgan
    family abbreviates the diagonal (both arguments equal)."""
    node = Node.parse(text)
    return node.pid, node.args


# ---------------------------------------------------------------------------
# Instantiation

def _check_class(i: int, f: Formula, required: HClass) -> None:
    actual = relative_classify(f)
    if not class_subset(actual, required):
        raise ClassMismatch(i, str(required), str(actual))


def _neg(f: Formula, times: int) -> Formula:
    for _ in range(times):
        f = Not(f)
    return f


class _Slot:
    """One class argument resolved against its witnesses: the subject
    formula the schema applies to, the Sigma/Pi sides of a premise
    argument, and the equivalence premise if any."""

    def __init__(self, index: int, lit: ClassLit, witnesses: Sequence[Formula],
                 offset: int):
        self.lit = lit
        if lit.kind == "D":
            phi, psi = witnesses[offset], witnesses[offset + 1]
            _check_class(offset, phi, HClass("Sigma", lit.level))
            _check_class(offset + 1, psi, HClass("Pi", lit.level))
            self.sigma_side, self.pi_side = phi, psi
            self.premise: Formula | None = Iff(phi, psi)
            self.subject = _neg(phi, lit.neg)
            self.consumed = 2
        else:
            phi = witnesses[offset]
            polarity = "Sigma" if lit.kind == "S" else "Pi"
            _check_class(offset, phi, HClass(polarity, lit.level))
            self.sigma_side = self.pi_side = phi
            self.premise = None
            self.subject = _neg(phi, lit.neg)
            self.consumed = 1


def _with_premises(slots: Sequence[_Slot], body: Formula) -> Formula:
    premises = [s.premise for s in slots if s.premise is not None]
    if not premises:
        return body
    antecedent = premises[0]
    for p in premises[1:]:
        antecedent = And(antecedent, p)
    return Imp(antecedent, body)


def instantiate(pid: PrincipleId, class_args: Sequence[ClassLit],
                witnesses: Sequence[Formula]) -> PrincipleInstance:
    """Render the schema body with the given witnesses substituted.

    Witness counts: one per class argument, two for a "D" argument (the
    Sigma and Pi sides of the equivalence premise), plus one trailing
    arbitrary formula for PEIRCE.  Witness classes are checked with
    relative_classify over the base theory alone.
    """
    if pid not in {p for p, _ in CATALOG}:
        raise ArityMismatch(f"not in the catalog: {pid}")
    node = node_of(pid, class_args)

    if pid.variant != PLAIN and class_args and class_args[0].kind != "D":
        raise ArityMismatch(
            f"variant {pid.variant} requires a D class in the first argument")

    expected = (sum(2 if lit.kind == "D" else 1 for lit in class_args)
                + (1 if pid.family == "PEIRCE" else 0))
    if len(witnesses) != expected:
        raise ArityMismatch(
            f"{node} takes {expected} witness(es), got {len(witnesses)}")

    slots = []
    offset = 0
    for i, lit in enumerate(class_args):
        slot = _Slot(i, lit, witnesses, offset)
        offset += slot.consumed
        slots.append(slot)

    fam, var = pid.family, pid.variant
    s = slots[0].subject
    if fam == "LEM":
        if var == PLAIN:
            body: Formula = Or(s, Not(s))
        else:
            side = slots[0].sigma_side if var == DELTA_SIGMA else slots[0].pi_side
            body = Or(side, dual(side))
    elif fam == "DNE":
        body = Imp(Not(Not(s)), s)
    elif fam == "DNS":
        body = Imp(Forall("x", Not(Not(s))), Not(Not(Forall("x", s))))
    elif fam == "DML":
        s2 = slots[1].subject
        body = Imp(Not(And(s, s2)), Or(Not(s), Not(s2)))
    elif fam == "DMLBOT":
        s2 = slots[1].subject
        if var == DELTA_PI:
            d1 = dual(slots[0].pi_side)
        else:
            d1 = dual(slots[0].sigma_side if slots[0].lit.kind == "D" else s)
        d2 = dual(slots[1].sigma_side if slots[1].lit.kind == "D" else s2)
        body = Imp(Not(And(s, s2)), Or(d1, d2))
    elif fam == "DNEOR":
        s2 = slots[1].subject
        body = Imp(Not(Not(Or(s, s2))), Or(s, s2))
    elif fam == "CD":
        s2 = slots[1].subject
        if "x" in free_vars(s):
            raise SideConditionViolated("x must not be free in the first witness")
        body = Imp(Forall("x", Or(s, s2)), Or(s, Forall("x", s2)))
    elif fam == "COLL":
        # The distinguished bound variable x stays free in the instance.
        lhs = Forall("w", Exists("y", And(Lt(Var("y"), Var("x")),
                                          Forall("z", Imp(Lt(Var("z"), Var("w")), s)))))
        rhs = Exists("y", And(Lt(Var("y"), Var("x")), Forall("z", s)))
        body = Imp(lhs, rhs)
    elif fam == "LN":
        from .formulas import substitute
        s_y = substitute(s, "x", Var("y"))
        body = Imp(Exists("x", s),
                   Exists("x", And(s, Forall("y", Imp(Lt(Var("y"), Var("x")),
                                                      Not(s_y))))))
    elif fam == "PEIRCE":
        psi = witnesses[-1]
        body = Imp(Imp(Imp(s, psi), s), s)
    elif fam == "DUAL":
        if var == PLAIN:
            body = Imp(Not(s), dual(s))
        else:
            side = slots[0].sigma_side if var == DELTA_SIGMA else slots[0].pi_side
            body = Imp(Not(side), dual(side))
    elif fam == "WDUAL":
        if var == PLAIN:
            body = Imp(Not(dual(s)), Not(Not(s)))
        else:
            side = slots[0].sigma_side if var == DELTA_SIGMA else slots[0].pi_side
            body = Imp(Not(dual(side)), Not(Not(side)))
    elif fam == "LEMBOT":
        body = Or(s, dual(s))
    else:
        raise ArityMismatch(f"unknown family: {fam}")

    rendered = _with_premises(slots, body)
    return PrincipleInstance(pid, tuple(class_args), tuple(witnesses), rendered)
