"""The dual of a prenex formula: flip every quantifier and negate the
quantifier-free matrix.  The dual is classically equivalent to the
negation; dual_law_instances states two of the laws relating the two as
concrete formula instances.  Rule verification does not use them: its
lemma hypotheses state the dual laws over propositional letters
(sca.derivability).
"""

from __future__ import annotations

from .formulas import _QUANTIFIERS, And, Formula, Imp, Not
from .hierarchy import prenex_prefix

__all__ = ["dual", "dual_law_instances"]

_FLIP = dict(zip(_QUANTIFIERS, reversed(_QUANTIFIERS)))  # E <-> A


def dual(f: Formula) -> Formula:
    """Structural dual of a prenex formula.

    A quantifier-free core maps to its negation; an E-quantifier maps to
    an A-quantifier over the dual body, and vice versa.  Raises NotPrenex
    on non-prenex input.
    """
    prefix, matrix = prenex_prefix(f)
    out: Formula = Not(matrix)
    for kind, v in reversed(prefix):
        out = _QUANTIFIERS[_FLIP[kind]][0](v, out)
    return out


def dual_law_instances(f: Formula) -> list[Formula]:
    """Two dual laws at f: the dual implies the negation, and f is
    inconsistent with its dual."""
    d = dual(f)
    return [Imp(d, Not(f)), Not(And(f, d))]
