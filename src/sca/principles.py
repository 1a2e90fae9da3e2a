"""Catalog of the restricted classical principle schemas and a generator
producing concrete formula instances.

Class arguments are ground class literals; a "D" argument carries an
equivalence premise and takes two witnesses, and an "n"/"nn" prefix
applies the schema to the (doubly) negated witness.  The catalog and the
node text syntax are defined in the nodes module.
"""

from __future__ import annotations

from functools import reduce
from typing import Sequence

from . import Record
from .duality import dual
from .formulas import (
    And, Exists, Forall, Formula, Iff, Imp, Lt, Not, Or, Var, free_vars,
    fresh_name, substitute,
)
from .hierarchy import ClassLit, HClass, class_subset, relative_classify
from .nodes import (
    CATALOG, DELTA_PI, DELTA_SIGMA, PLAIN, ArityMismatch, Node, PrincipleId,
)

__all__ = [
    "PrincipleId", "PrincipleInstance",
    "PLAIN", "DELTA_SIGMA", "DELTA_PI",
    "instantiate", "parse_node",
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


class PrincipleInstance(Record):
    """A schema's instance: the schema, its class arguments, the witness
    formulas and the formula they render."""

    __slots__ = ("id", "class_args", "witnesses", "rendered")


_CATALOG_IDS = frozenset(pid for pid, _ in CATALOG)


# ---------------------------------------------------------------------------
# Node text

def parse_node(text: str) -> tuple[PrincipleId, tuple[ClassLit, ...]]:
    """The schema and class arguments that node text names, in the order
    written; a single class argument on a binary de Morgan family
    abbreviates the diagonal (both arguments equal)."""
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


def instantiate(pid: PrincipleId, class_args: Sequence[ClassLit],
                witnesses: Sequence[Formula]) -> PrincipleInstance:
    """Render the schema body with the given witnesses substituted.

    Witness counts: one per class argument, two for a "D" argument (the
    Sigma and Pi sides of the equivalence premise), plus one trailing
    arbitrary formula for PEIRCE.  Witness classes are checked with
    relative_classify over the base theory alone.
    """
    if pid not in _CATALOG_IDS:
        raise ArityMismatch(f"not in the catalog: {pid}")
    node = str(Node(pid, tuple(class_args)))

    expected = (sum(2 if lit.kind == "D" else 1 for lit in class_args)
                + (1 if pid.family == "PEIRCE" else 0))
    if len(witnesses) != expected:
        raise ArityMismatch(
            f"{node} takes {expected} witness(es), got {len(witnesses)}")

    # Per class argument: the subject the schema applies to (the Sigma
    # side, negated as the literal says), the formula whose dual the
    # dual-taking schemas take, and the equivalence premise of a D
    # argument.
    subjects: list[Formula] = []
    dualized: list[Formula] = []
    premises: list[Formula] = []
    offset = 0
    for i, lit in enumerate(class_args):
        phi = witnesses[offset]
        _check_class(offset, phi, HClass("Pi" if lit.kind == "P" else "Sigma", lit.level))
        subject = _neg(phi, lit.neg)
        if lit.kind == "D":
            psi = witnesses[offset + 1]
            _check_class(offset + 1, psi, HClass("Pi", lit.level))
            premises.append(Iff(phi, psi))
            dualized.append(psi if i == 0 and pid.variant == DELTA_PI else phi)
            offset += 1
        else:
            dualized.append(subject)
        offset += 1
        subjects.append(subject)

    fam, var = pid.family, pid.variant
    s, s2 = subjects[0], subjects[-1]  # s2 is s for a unary schema
    # The schemas LEM, DUAL and WDUAL apply to the subject in their plain
    # variant and to the Delta variant's chosen side otherwise.
    side = s if var == PLAIN else dualized[0]
    if fam == "LEM":
        body: Formula = Or(s, Not(s)) if var == PLAIN else Or(side, dual(side))
    elif fam == "DNE":
        body = Imp(Not(Not(s)), s)
    elif fam == "DNS":
        body = Imp(Forall("x", Not(Not(s))), Not(Not(Forall("x", s))))
    elif fam == "DML":
        body = Imp(Not(And(s, s2)), Or(Not(s), Not(s2)))
    elif fam == "DMLBOT":
        body = Imp(Not(And(s, s2)), Or(dual(dualized[0]), dual(dualized[1])))
    elif fam == "DNEOR":
        body = Imp(Not(Not(Or(s, s2))), Or(s, s2))
    elif fam == "CD":
        if "x" in free_vars(s):
            raise SideConditionViolated("x must not be free in the first witness")
        body = Imp(Forall("x", Or(s, s2)), Or(s, Forall("x", s2)))
    elif fam == "COLL":
        # The distinguished bound variable x stays free in the instance.
        w = Var(fresh_name("w", free_vars(s)))
        lhs = Forall(w.name, Exists("y", And(Lt(Var("y"), Var("x")),
                                             Forall("z", Imp(Lt(Var("z"), w), s)))))
        rhs = Exists("y", And(Lt(Var("y"), Var("x")), Forall("z", s)))
        body = Imp(lhs, rhs)
    elif fam == "LN":
        y = Var(fresh_name("y", free_vars(s)))
        body = Imp(Exists("x", s),
                   Exists("x", And(s, Forall(y.name, Imp(Lt(y, Var("x")),
                                                         Not(substitute(s, "x", y)))))))
    elif fam == "PEIRCE":
        psi = witnesses[-1]
        body = Imp(Imp(Imp(s, psi), s), s)
    elif fam == "DUAL":
        body = Imp(Not(side), dual(side))
    elif fam == "WDUAL":
        body = Imp(Not(dual(side)), Not(Not(side)))
    elif fam == "LEMBOT":
        body = Or(s, dual(s))

    rendered = Imp(reduce(And, premises), body) if premises else body
    return PrincipleInstance(pid, tuple(class_args), tuple(witnesses), rendered)
