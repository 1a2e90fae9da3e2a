"""AST, parser, printer, substitution, and bounded evaluation for a
first-order arithmetic language.

A term is a variable or an application (App) of a function symbol to
terms, and an atom is bot or a relation (Rel) between two terms.
Formulas use the atoms, /\\, \\/, -> and the two quantifiers; negation,
<->, and bounded quantifiers are sugar that is expanded at parse time
(the printer re-sugars the exact patterns).  Each symbol is stated once,
in a table that the tokenizer, parser, printer and evaluator read:
_SIGNATURE (0 S + * pair p0 p1: arity, value, infix binding strength),
_RELATIONS (= <), _CONNECTIVES (constructor, binding strength,
associativity) and _QUANTIFIERS (constructor, bounded-sugar connective).
Zero, Succ, Add, Mul, Pair, Proj0, Proj1, Eq and Lt are constructor
functions: Succ(t) is App("S", (t,)) and Lt(a, b) is Rel("<", a, b).

Propositional formulas are the same connectives over bot and propositional
letters (PAtom); the printer and the bounded evaluator handle letters, and
sca.ipc parses them with a subclass of this module's parser.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from functools import partial
from itertools import repeat
from typing import Callable, Mapping, NamedTuple, Union

__all__ = [
    "Term", "Var", "App", "Zero", "Succ", "Add", "Mul", "Pair", "Proj0",
    "Proj1", "Formula", "Rel", "Eq", "Lt", "Bot", "And", "Or", "Imp",
    "Exists", "Forall",
    "PAtom", "PropFormula",
    "Not", "Iff", "is_negation", "negand",
    "parse", "parse_term", "format_formula", "format_term",
    "free_vars", "term_vars", "all_names", "fresh_name",
    "substitute", "substitute_term", "alpha_normal", "alpha_equal",
    "bounded_sugar", "collapse_atom_negations", "eval_bounded", "eval_term",
    "cantor_pair", "cantor_fst", "cantor_snd",
    "ParseError", "UnboundedQuantifier", "MissingAssignment",
]


# ---------------------------------------------------------------------------
# Errors

class ParseError(ValueError):
    """Syntax error, with the offending source position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class UnboundedQuantifier(ValueError):
    """Raised by eval_bounded on a quantifier not in bounded-sugar form."""


class MissingAssignment(KeyError):
    """Raised by eval_bounded when a free variable has no value."""


# ---------------------------------------------------------------------------
# Terms and atoms

@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class App:
    """A function symbol of _SIGNATURE applied to its arguments."""
    op: str
    args: tuple["Term", ...]


Term = Union[Var, App]


@dataclass(frozen=True, slots=True)
class Rel:
    """A relation symbol of _RELATIONS between two terms."""
    op: str
    t1: Term
    t2: Term


def Zero() -> Term:
    return App("0", ())


def Succ(t: Term) -> Term:
    return App("S", (t,))


def Add(a: Term, b: Term) -> Term:
    return App("+", (a, b))


def Mul(a: Term, b: Term) -> Term:
    return App("*", (a, b))


def Pair(a: Term, b: Term) -> Term:
    return App("pair", (a, b))


def Proj0(t: Term) -> Term:
    return App("p0", (t,))


def Proj1(t: Term) -> Term:
    return App("p1", (t,))


def Eq(a: Term, b: Term) -> Rel:
    return Rel("=", a, b)


def Lt(a: Term, b: Term) -> Rel:
    return Rel("<", a, b)


# ---------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True, slots=True)
class Bot:
    pass


@dataclass(frozen=True, slots=True)
class And:
    f1: "Formula"
    f2: "Formula"


@dataclass(frozen=True, slots=True)
class Or:
    f1: "Formula"
    f2: "Formula"


@dataclass(frozen=True, slots=True)
class Imp:
    f1: "Formula"
    f2: "Formula"


@dataclass(frozen=True, slots=True)
class Exists:
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class Forall:
    var: str
    body: "Formula"


@dataclass(frozen=True, slots=True)
class PAtom:
    """A propositional letter: an atom of propositional formulas only."""
    name: str


Formula = Union[Rel, Bot, And, Or, Imp, Exists, Forall]

PropFormula = Union[PAtom, Bot, And, Or, Imp]

_ATOMS = (Rel, Bot)


def Not(f: Formula) -> Formula:
    """Negation sugar: ~f is f -> bot."""
    return Imp(f, Bot())


def Iff(a: Formula, b: Formula) -> Formula:
    """Biconditional sugar: conjunction of the two implications."""
    return And(Imp(a, b), Imp(b, a))


def is_negation(f: Formula) -> bool:
    return isinstance(f, Imp) and isinstance(f.f2, Bot)


def negand(f: Formula) -> Formula:
    assert is_negation(f)
    return f.f1  # type: ignore[union-attr]


# ---------------------------------------------------------------------------
# Cantor pairing

def cantor_pair(a: int, b: int) -> int:
    """(a+b)(a+b+1)/2 + b."""
    return (a + b) * (a + b + 1) // 2 + b


def _cantor_split(n: int) -> tuple[int, int]:
    w = (math.isqrt(8 * n + 1) - 1) // 2
    b = n - w * (w + 1) // 2
    return w - b, b


def cantor_fst(n: int) -> int:
    return _cantor_split(n)[0]


def cantor_snd(n: int) -> int:
    return _cantor_split(n)[1]


# ---------------------------------------------------------------------------
# The signature

class _Symbol(NamedTuple):
    arity: int
    value: Callable[..., int]
    prec: int | None  # infix binding strength; None for a prefix symbol


# Prefix symbols print as op(args), or op alone at arity 0; infix symbols
# are binary and left-associative, and a larger prec binds more tightly.
_SIGNATURE = {
    "0": _Symbol(0, lambda: 0, None),
    "S": _Symbol(1, lambda a: a + 1, None),
    "+": _Symbol(2, operator.add, 1),
    "*": _Symbol(2, operator.mul, 2),
    "pair": _Symbol(2, cantor_pair, None),
    "p0": _Symbol(1, cantor_fst, None),
    "p1": _Symbol(1, cantor_snd, None),
}

_INFIX = {op: s.prec for op, s in _SIGNATURE.items() if s.prec is not None}

_TIGHTEST = max(_INFIX.values())

_RELATIONS = {"=": operator.eq, "<": operator.lt}


class _Connective(NamedTuple):
    build: Callable[[Formula, Formula], Formula]
    prec: int  # binding strength; ~ binds more tightly than every entry
    right: bool  # right-associative


# <-> is sugar: the parser expands it, so the printer never meets it.
_CONNECTIVES = {
    "<->": _Connective(Iff, 1, False),
    "->": _Connective(Imp, 2, True),
    "\\/": _Connective(Or, 3, False),
    "/\\": _Connective(And, 4, False),
}

# per printed class: the symbol, its prec, and the precs its operands
# print at; a quantifier binds as loosely as the loosest of them
_PRINTED = {c.build: (f" {op} ", c.prec, c.prec + c.right, c.prec + (not c.right))
            for op, c in _CONNECTIVES.items() if isinstance(c.build, type)}

_QUANTIFIER_PREC = min(c[1] for c in _PRINTED.values())


# each quantifier's constructor, and the connective that joins x < t to
# the body in its bounded sugar
_QUANTIFIERS = {"E": (Exists, And), "A": (Forall, Imp)}

_QUANTIFIER_OF = {q: (text, bounding) for text, (q, bounding) in _QUANTIFIERS.items()}


# ---------------------------------------------------------------------------
# Tokenizer

_SYMBOLS = [*_CONNECTIVES, "~", "(", ")", ",", ".", *_RELATIONS,
            *(op for op in _SIGNATURE if not op.isidentifier())]

_KEYWORDS = {"bot", *_QUANTIFIERS, *filter(str.isidentifier, _SIGNATURE)}

# symbols longest first, so that <-> is not read as < and ->
_TOKEN = re.compile(r"\s*(?:(?P<sym>%s)|(?P<ident>\w+)|(?P<other>\S))" % "|".join(
    map(re.escape, sorted(_SYMBOLS, key=len, reverse=True))))


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Returns (kind, text, pos) triples; kind is 'sym', 'ident', or 'eof'.
    An identifier starts with a letter or _."""
    toks = []
    for m in _TOKEN.finditer(src):
        kind = m.lastgroup
        text = m[kind]
        if kind == "other" or kind == "ident" and not (text[0].isalpha() or text[0] == "_"):
            raise ParseError(f"unexpected character {text[0]!r}", m.start(kind))
        toks.append((kind, text, m.start(kind)))
    toks.append(("eof", "", len(src)))
    return toks


class _Parser:
    def __init__(self, src: str):
        self.toks = _tokenize(src)
        self.i = 0

    def peek(self) -> tuple[str, str, int]:
        return self.toks[self.i]

    def next(self) -> tuple[str, str, int]:
        t = self.toks[self.i]
        self.i += 1
        return t

    def expect(self, text: str) -> None:
        kind, tok, pos = self.next()
        if tok != text:
            raise ParseError(f"expected {text!r}, found {tok or 'end of input'!r}", pos)

    def done(self, result):
        """result, provided the whole input has been read."""
        kind, tok, pos = self.peek()
        if kind != "eof":
            raise ParseError(f"trailing input {tok!r}", pos)
        return result

    def eat(self, text: str) -> bool:
        if self.peek()[1] == text:
            self.i += 1
            return True
        return False

    # -- terms ------------------------------------------------------------

    def term(self, prec: int = 1) -> Term:
        """A term whose infix operators bind at least as tightly as prec;
        each infix operator is left-associative."""
        operand = self.term_prim if prec == _TIGHTEST else partial(self.term, prec + 1)
        t = operand()
        while _INFIX.get(self.peek()[1]) == prec:
            t = App(self.next()[1], (t, operand()))
        return t

    def term_prim(self) -> Term:
        kind, tok, pos = self.next()
        if tok == "(":
            t = self.term()
            self.expect(")")
            return t
        if tok in _SIGNATURE and tok not in _INFIX:
            arity = _SIGNATURE[tok].arity
            args = []
            for i in range(arity):
                self.expect("," if i else "(")
                args.append(self.term())
            if arity:
                self.expect(")")
            return App(tok, tuple(args))
        if kind == "ident":
            if tok in _KEYWORDS:
                raise ParseError(f"keyword {tok!r} cannot be a term", pos)
            return Var(tok)
        raise ParseError(f"expected a term, found {tok or 'end of input'!r}", pos)

    # -- formulas ---------------------------------------------------------

    def formula(self, prec: int = 0) -> Formula:
        """A formula whose connectives bind at least as tightly as prec."""
        f = self.unary()
        while (c := _CONNECTIVES.get(self.peek()[1])) is not None and c.prec >= prec:
            self.i += 1
            f = c.build(f, self.formula(c.prec + (not c.right)))
        return f

    def unary(self) -> Formula:
        tok = self.peek()[1]
        if self.eat("~"):
            return Not(self.unary())
        if tok not in _QUANTIFIERS:
            return self.atom_formula()
        self.i += 1
        build, bounding = _QUANTIFIERS[tok]
        vkind, var, vpos = self.next()
        if vkind != "ident" or var in _KEYWORDS:
            raise ParseError("expected a variable after quantifier", vpos)
        bound = self.term() if self.eat("<") else None
        self.expect(".")
        body = self.formula()  # quantifier scope extends maximally right
        if bound is not None:
            body = bounding(Lt(Var(var), bound), body)
        return build(var, body)

    def atom_formula(self) -> Formula:
        kind, tok, pos = self.peek()
        if tok == "bot":
            self.next()
            return Bot()
        if tok == "(":
            # Could be a parenthesized formula or a parenthesized term in a
            # relation; try the formula reading first and backtrack.
            mark = self.i
            self.next()
            try:
                f = self.formula()
                self.expect(")")
                if self.peek()[1] not in _RELATIONS and self.peek()[1] not in _INFIX:
                    return f
            except ParseError:
                pass
            self.i = mark
        t1 = self.term()
        _, rel, rpos = self.next()
        if rel not in _RELATIONS:
            expected = " or ".join(map(repr, _RELATIONS))
            raise ParseError(f"expected {expected}, found {rel or 'end of input'!r}", rpos)
        return Rel(rel, t1, self.term())


def parse(src: str) -> Formula:
    """Parse a formula; raises ParseError with a position on bad input."""
    p = _Parser(src)
    return p.done(p.formula())


def parse_term(src: str) -> Term:
    p = _Parser(src)
    return p.done(p.term())


# ---------------------------------------------------------------------------
# Printing

def format_term(t: Term, prec: int = 0) -> str:
    """Precedence-aware printer: an infix application is parenthesized
    where its context binds more tightly than it does."""
    if isinstance(t, Var):
        return t.name
    op_prec = _SIGNATURE[t.op].prec
    if op_prec is None:
        return f"{t.op}({', '.join(map(format_term, t.args))})" if t.args else t.op
    a, b = t.args
    s = f"{format_term(a, op_prec)} {t.op} {format_term(b, op_prec + 1)}"
    return f"({s})" if prec > op_prec else s


def bounded_sugar(f: Formula) -> tuple[Term, Formula] | None:
    """(bound, body) when f is a bounded quantifier in sugar form,
    E x. (x < t /\\ body) or A x. (x < t -> body) with x not free in t;
    None otherwise."""
    q = _QUANTIFIER_OF.get(type(f))
    if q is not None and isinstance(f.body, q[1]):
        g = f.body.f1
        if (isinstance(g, Rel) and g.op == "<" and g.t1 == Var(f.var)
                and f.var not in term_vars(g.t2)):
            return g.t2, f.body.f2
    return None


def format_formula(f: Formula, prec: int = 0) -> str:
    """Precedence-aware printer; inverse of parse up to whitespace.

    Re-sugars negation and bounded quantifiers exactly when the desugared
    pattern matches.
    """
    # letters, negations and connectives first, as the prover prints them
    # in its search
    t = type(f)
    if t is PAtom:
        return f.name
    c = _PRINTED.get(t)
    if c is not None:
        if t is Imp and type(f.f2) is Bot:
            g = f.f1
            if type(g) in (PAtom, Bot) or is_negation(g):
                return f"~{format_formula(g)}"
            return f"~({format_formula(g)})"
        op, op_prec, left, right = c
        # a letter operand is printed in place: that saves the call for
        # 44% of the nodes of the prover's formulas
        a, b = f.f1, f.f2
        s = (f"{a.name if type(a) is PAtom else format_formula(a, left)}{op}"
             f"{b.name if type(b) is PAtom else format_formula(b, right)}")
        return f"({s})" if prec > op_prec else s
    if t is Bot:
        return "bot"
    if t is Rel:
        return f"{format_term(f.t1)} {f.op} {format_term(f.t2)}"
    if t not in _QUANTIFIER_OF:
        raise TypeError(f"not a formula: {f!r}")
    q = _QUANTIFIER_OF[t][0]
    sugar = bounded_sugar(f)
    if sugar is not None:
        bound, body = sugar
        s = f"{q} {f.var} < {format_term(bound)}. {format_formula(body)}"
    else:
        s = f"{q} {f.var}. {format_formula(f.body)}"
    return f"({s})" if prec > _QUANTIFIER_PREC else s


# ---------------------------------------------------------------------------
# Variables, substitution, alpha-equality

def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    return frozenset().union(*map(term_vars, t.args))


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, Rel):
        return term_vars(f.t1) | term_vars(f.t2)
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, (And, Or, Imp)):
        return free_vars(f.f1) | free_vars(f.f2)
    return free_vars(f.body) - {f.var}


def all_names(f: Formula) -> frozenset[str]:
    """Every identifier occurring in f, free or bound."""
    if isinstance(f, Rel):
        return term_vars(f.t1) | term_vars(f.t2)
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, (And, Or, Imp)):
        return all_names(f.f1) | all_names(f.f2)
    return all_names(f.body) | {f.var}


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """base with the smallest numeric suffix avoiding the given names."""
    if base not in avoid:
        return base
    i = 0
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def _map_vars(t: Term, env: Mapping[str, Term]) -> Term:
    """t with each variable that env names replaced by its image."""
    if isinstance(t, Var):
        return env.get(t.name, t)
    return App(t.op, tuple(map(_map_vars, t.args, repeat(env))))


def substitute_term(t: Term, v: str, r: Term) -> Term:
    return _map_vars(t, {v: r})


def substitute(f: Formula, v: str, r: Term) -> Formula:
    """Capture-avoiding substitution of r for free occurrences of v."""
    if isinstance(f, Rel):
        return Rel(f.op, substitute_term(f.t1, v, r), substitute_term(f.t2, v, r))
    if isinstance(f, Bot):
        return f
    if isinstance(f, (And, Or, Imp)):
        return type(f)(substitute(f.f1, v, r), substitute(f.f2, v, r))
    if f.var == v:
        return f
    if v not in free_vars(f.body):
        return f
    if f.var in term_vars(r):
        new = fresh_name(f.var, all_names(f.body) | term_vars(r) | {v})
        body = substitute(f.body, f.var, Var(new))
        return type(f)(new, substitute(body, v, r))
    return type(f)(f.var, substitute(f.body, v, r))


def alpha_normal(f: Formula) -> Formula:
    """f with each bound variable renamed after its binding depth, to
    "#0", "#1", ...: names no identifier can spell, so they never meet a
    free variable.  Alpha-equivalent formulas have equal normal forms."""
    def go(g: Formula, env: Mapping[str, Var], depth: int) -> Formula:
        if isinstance(g, Rel):
            return Rel(g.op, _map_vars(g.t1, env), _map_vars(g.t2, env))
        if isinstance(g, Bot):
            return g
        if isinstance(g, (And, Or, Imp)):
            return type(g)(go(g.f1, env, depth), go(g.f2, env, depth))
        name = f"#{depth}"
        return type(g)(name, go(g.body, {**env, g.var: Var(name)}, depth + 1))

    return go(f, {}, 0)


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Equality up to renaming of bound variables."""
    return alpha_normal(f) == alpha_normal(g)


# ---------------------------------------------------------------------------
# Rewriting and evaluation

def collapse_atom_negations(f: Formula) -> Formula:
    """Rewrite every ~~a with a an atom (=, <, bot) to a, to fixpoint."""
    if isinstance(f, _ATOMS):
        return f
    if isinstance(f, (Exists, Forall)):
        return type(f)(f.var, collapse_atom_negations(f.body))
    f1 = collapse_atom_negations(f.f1)
    f2 = collapse_atom_negations(f.f2)
    g = type(f)(f1, f2)
    if is_negation(g) and is_negation(negand(g)) and isinstance(negand(negand(g)), _ATOMS):
        return negand(negand(g))
    return g


def eval_term(t: Term, env: Mapping[str, int]) -> int:
    if isinstance(t, Var):
        if t.name not in env:
            raise MissingAssignment(t.name)
        return env[t.name]
    return _SIGNATURE[t.op].value(*map(eval_term, t.args, repeat(env)))


def eval_bounded(f: Formula, env: Mapping[str, int]) -> bool:
    """Classical truth in the standard model, for formulas whose every
    quantifier is in bounded-sugar form.  A propositional letter takes its
    truth value from env."""
    if isinstance(f, PAtom):
        return env[f.name]
    if isinstance(f, And):
        return eval_bounded(f.f1, env) and eval_bounded(f.f2, env)
    if isinstance(f, Or):
        return eval_bounded(f.f1, env) or eval_bounded(f.f2, env)
    if isinstance(f, Imp):
        return (not eval_bounded(f.f1, env)) or eval_bounded(f.f2, env)
    if isinstance(f, Rel):
        return _RELATIONS[f.op](eval_term(f.t1, env), eval_term(f.t2, env))
    if isinstance(f, Bot):
        return False
    sugar = bounded_sugar(f)
    if sugar is None:
        raise UnboundedQuantifier(format_formula(f))
    # a loop, not any/all over a generator: a generator would make f and
    # env closure cells, which slows every call, connectives included
    bound, body = sugar
    exists = isinstance(f, Exists)
    for i in range(eval_term(bound, env)):
        if eval_bounded(body, {**env, f.var: i}) == exists:
            return exists
    return not exists
