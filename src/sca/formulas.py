"""AST, parser, printer, substitution, and bounded evaluation for a
first-order arithmetic language.

Terms are built from variables, 0, successor, +, *, and a Cantor pairing
function with its two projections.  Formulas use =, <, bot, /\\, \\/, ->,
and the two quantifiers; negation, <->, and bounded quantifiers are sugar
that is expanded at parse time (the printer re-sugars the exact patterns).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Mapping, Union

__all__ = [
    "Term", "Var", "Zero", "Succ", "Add", "Mul", "Pair", "Proj0", "Proj1",
    "Formula", "Eq", "Lt", "Bot", "And", "Or", "Imp", "Exists", "Forall",
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
# Terms

@dataclass(frozen=True, slots=True)
class Var:
    name: str


@dataclass(frozen=True, slots=True)
class Zero:
    pass


@dataclass(frozen=True, slots=True)
class Succ:
    t: "Term"


@dataclass(frozen=True, slots=True)
class Add:
    t1: "Term"
    t2: "Term"


@dataclass(frozen=True, slots=True)
class Mul:
    t1: "Term"
    t2: "Term"


@dataclass(frozen=True, slots=True)
class Pair:
    t1: "Term"
    t2: "Term"


@dataclass(frozen=True, slots=True)
class Proj0:
    t: "Term"


@dataclass(frozen=True, slots=True)
class Proj1:
    t: "Term"


Term = Union[Var, Zero, Succ, Add, Mul, Pair, Proj0, Proj1]


# ---------------------------------------------------------------------------
# Formulas

@dataclass(frozen=True, slots=True)
class Eq:
    t1: Term
    t2: Term


@dataclass(frozen=True, slots=True)
class Lt:
    t1: Term
    t2: Term


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


Formula = Union[Eq, Lt, Bot, And, Or, Imp, Exists, Forall]

_ATOMS = (Eq, Lt, Bot)


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
# Tokenizer

_SYMBOLS = ["<->", "->", "/\\", "\\/", "~", "(", ")", ",", ".", "=", "<", "+", "*"]

_KEYWORDS = {"bot", "E", "A", "S", "pair", "p0", "p1"}


def _tokenize(src: str) -> list[tuple[str, str, int]]:
    """Returns (kind, text, pos) triples; kind is 'sym', 'ident', or 'zero'."""
    toks = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        for s in _SYMBOLS:
            if src.startswith(s, i):
                toks.append(("sym", s, i))
                i += len(s)
                break
        else:
            if c == "0":
                toks.append(("zero", "0", i))
                i += 1
            elif c.isalpha() or c == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                toks.append(("ident", src[i:j], i))
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("eof", "", n))
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

    def at(self, text: str) -> bool:
        return self.peek()[1] == text

    def eat(self, text: str) -> bool:
        if self.at(text):
            self.i += 1
            return True
        return False

    # -- terms ------------------------------------------------------------

    def term(self) -> Term:
        t = self.term_prod()
        while self.eat("+"):
            t = Add(t, self.term_prod())
        return t

    def term_prod(self) -> Term:
        t = self.term_prim()
        while self.eat("*"):
            t = Mul(t, self.term_prim())
        return t

    def term_prim(self) -> Term:
        kind, tok, pos = self.next()
        if tok == "0":
            return Zero()
        if tok == "(":
            t = self.term()
            self.expect(")")
            return t
        if kind == "ident":
            if tok == "S":
                self.expect("(")
                t = self.term()
                self.expect(")")
                return Succ(t)
            if tok == "pair":
                self.expect("(")
                a = self.term()
                self.expect(",")
                b = self.term()
                self.expect(")")
                return Pair(a, b)
            if tok in ("p0", "p1"):
                self.expect("(")
                t = self.term()
                self.expect(")")
                return Proj0(t) if tok == "p0" else Proj1(t)
            if tok in ("E", "A", "bot"):
                raise ParseError(f"keyword {tok!r} cannot be a term", pos)
            return Var(tok)
        raise ParseError(f"expected a term, found {tok or 'end of input'!r}", pos)

    # -- formulas ---------------------------------------------------------

    def formula(self) -> Formula:
        f = self.imp()
        while self.eat("<->"):
            f = Iff(f, self.imp())
        return f

    def imp(self) -> Formula:
        f = self.disj()
        if self.eat("->"):
            return Imp(f, self.imp())
        return f

    def disj(self) -> Formula:
        f = self.conj()
        while self.eat("\\/"):
            f = Or(f, self.conj())
        return f

    def conj(self) -> Formula:
        f = self.unary()
        while self.eat("/\\"):
            f = And(f, self.unary())
        return f

    def unary(self) -> Formula:
        kind, tok, pos = self.peek()
        if tok == "~":
            self.next()
            return Not(self.unary())
        if tok in ("E", "A"):
            self.next()
            vkind, var, vpos = self.next()
            if vkind != "ident" or var in _KEYWORDS:
                raise ParseError("expected a variable after quantifier", vpos)
            bound = None
            if self.eat("<"):
                bound = self.term()
            self.expect(".")
            body = self.formula()  # quantifier scope extends maximally right
            if tok == "E":
                if bound is not None:
                    return Exists(var, And(Lt(Var(var), bound), body))
                return Exists(var, body)
            if bound is not None:
                return Forall(var, Imp(Lt(Var(var), bound), body))
            return Forall(var, body)
        return self.atom_formula()

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
                if self.peek()[1] not in ("=", "<", "+", "*"):
                    return f
            except ParseError:
                pass
            self.i = mark
        t1 = self.term()
        _, rel, rpos = self.next()
        if rel not in ("=", "<"):
            raise ParseError(f"expected '=' or '<', found {rel or 'end of input'!r}", rpos)
        t2 = self.term()
        return Eq(t1, t2) if rel == "=" else Lt(t1, t2)


def parse(src: str) -> Formula:
    """Parse a formula; raises ParseError with a position on bad input."""
    p = _Parser(src)
    f = p.formula()
    kind, tok, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {tok!r}", pos)
    return f


def parse_term(src: str) -> Term:
    p = _Parser(src)
    t = p.term()
    kind, tok, pos = p.peek()
    if kind != "eof":
        raise ParseError(f"trailing input {tok!r}", pos)
    return t


# ---------------------------------------------------------------------------
# Printing

def format_term(t: Term, prec: int = 0) -> str:
    # precedence: + is 1, * is 2, primaries 3; both operators left-associative
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Zero):
        return "0"
    if isinstance(t, Succ):
        return f"S({format_term(t.t)})"
    if isinstance(t, Pair):
        return f"pair({format_term(t.t1)}, {format_term(t.t2)})"
    if isinstance(t, Proj0):
        return f"p0({format_term(t.t)})"
    if isinstance(t, Proj1):
        return f"p1({format_term(t.t)})"
    if isinstance(t, Add):
        s = f"{format_term(t.t1, 1)} + {format_term(t.t2, 2)}"
        return f"({s})" if prec > 1 else s
    if isinstance(t, Mul):
        s = f"{format_term(t.t1, 2)} * {format_term(t.t2, 3)}"
        return f"({s})" if prec > 2 else s
    raise TypeError(f"not a term: {t!r}")


def bounded_sugar(f: Formula) -> tuple[Term, Formula] | None:
    """(bound, body) when f is a bounded quantifier in sugar form,
    E x. (x < t /\\ body) or A x. (x < t -> body) with x not free in t;
    None otherwise."""
    connective = {Exists: And, Forall: Imp}.get(type(f))
    if connective is not None and isinstance(f.body, connective):
        g = f.body.f1
        if isinstance(g, Lt) and g.t1 == Var(f.var) and f.var not in term_vars(g.t2):
            return g.t2, f.body.f2
    return None


def format_formula(f: Formula, prec: int = 0) -> str:
    """Precedence-aware printer; inverse of parse up to whitespace.

    Re-sugars negation and bounded quantifiers exactly when the desugared
    pattern matches.
    """
    # formula precedence: quantifiers and -> are 1, \/ is 2, /\ is 3, ~ is 4
    if isinstance(f, Bot):
        return "bot"
    if isinstance(f, Eq):
        return f"{format_term(f.t1)} = {format_term(f.t2)}"
    if isinstance(f, Lt):
        return f"{format_term(f.t1)} < {format_term(f.t2)}"
    if is_negation(f):
        g = negand(f)
        if is_negation(g) or isinstance(g, Bot):
            return f"~{format_formula(g, 4)}"
        return f"~({format_formula(g)})"
    if isinstance(f, Imp):
        s = f"{format_formula(f.f1, 2)} -> {format_formula(f.f2, 1)}"
        return f"({s})" if prec > 1 else s
    if isinstance(f, Or):
        s = f"{format_formula(f.f1, 2)} \\/ {format_formula(f.f2, 3)}"
        return f"({s})" if prec > 2 else s
    if isinstance(f, And):
        s = f"{format_formula(f.f1, 3)} /\\ {format_formula(f.f2, 4)}"
        return f"({s})" if prec > 3 else s
    if isinstance(f, (Exists, Forall)):
        q = "E" if isinstance(f, Exists) else "A"
        sugar = bounded_sugar(f)
        if sugar is not None:
            bound, body = sugar
            s = f"{q} {f.var} < {format_term(bound)}. {format_formula(body, 1)}"
        else:
            s = f"{q} {f.var}. {format_formula(f.body, 1)}"
        return f"({s})" if prec > 1 else s
    raise TypeError(f"not a formula: {f!r}")


# ---------------------------------------------------------------------------
# Variables, substitution, alpha-equality

def term_vars(t: Term) -> frozenset[str]:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, Zero):
        return frozenset()
    if isinstance(t, (Succ, Proj0, Proj1)):
        return term_vars(t.t)
    return term_vars(t.t1) | term_vars(t.t2)


def free_vars(f: Formula) -> frozenset[str]:
    if isinstance(f, (Eq, Lt)):
        return term_vars(f.t1) | term_vars(f.t2)
    if isinstance(f, Bot):
        return frozenset()
    if isinstance(f, (And, Or, Imp)):
        return free_vars(f.f1) | free_vars(f.f2)
    return free_vars(f.body) - {f.var}


def all_names(f: Formula) -> frozenset[str]:
    """Every identifier occurring in f, free or bound."""
    if isinstance(f, (Eq, Lt)):
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


def substitute_term(t: Term, v: str, r: Term) -> Term:
    if isinstance(t, Var):
        return r if t.name == v else t
    if isinstance(t, Zero):
        return t
    if isinstance(t, (Succ, Proj0, Proj1)):
        return type(t)(substitute_term(t.t, v, r))
    return type(t)(substitute_term(t.t1, v, r), substitute_term(t.t2, v, r))


def substitute(f: Formula, v: str, r: Term) -> Formula:
    """Capture-avoiding substitution of r for free occurrences of v."""
    if isinstance(f, (Eq, Lt)):
        return type(f)(substitute_term(f.t1, v, r), substitute_term(f.t2, v, r))
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


def _rename_term(t: Term, env: Mapping[str, str]) -> Term:
    if isinstance(t, Var):
        return Var(env.get(t.name, t.name))
    if isinstance(t, Zero):
        return t
    if isinstance(t, (Succ, Proj0, Proj1)):
        return type(t)(_rename_term(t.t, env))
    return type(t)(_rename_term(t.t1, env), _rename_term(t.t2, env))


def alpha_normal(f: Formula) -> Formula:
    """f with each bound variable renamed after its binding depth, to
    "#0", "#1", ...: names no identifier can spell, so they never meet a
    free variable.  Alpha-equivalent formulas have equal normal forms."""
    def go(g: Formula, env: Mapping[str, str], depth: int) -> Formula:
        if isinstance(g, (Eq, Lt)):
            return type(g)(_rename_term(g.t1, env), _rename_term(g.t2, env))
        if isinstance(g, Bot):
            return g
        if isinstance(g, (And, Or, Imp)):
            return type(g)(go(g.f1, env, depth), go(g.f2, env, depth))
        name = f"#{depth}"
        return type(g)(name, go(g.body, {**env, g.var: name}, depth + 1))

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
    if isinstance(t, Zero):
        return 0
    if isinstance(t, Succ):
        return eval_term(t.t, env) + 1
    if isinstance(t, Add):
        return eval_term(t.t1, env) + eval_term(t.t2, env)
    if isinstance(t, Mul):
        return eval_term(t.t1, env) * eval_term(t.t2, env)
    if isinstance(t, Pair):
        return cantor_pair(eval_term(t.t1, env), eval_term(t.t2, env))
    if isinstance(t, Proj0):
        return cantor_fst(eval_term(t.t, env))
    return cantor_snd(eval_term(t.t, env))


def eval_bounded(f: Formula, env: Mapping[str, int]) -> bool:
    """Classical truth in the standard model, for formulas whose every
    quantifier is in bounded-sugar form."""
    if isinstance(f, Eq):
        return eval_term(f.t1, env) == eval_term(f.t2, env)
    if isinstance(f, Lt):
        return eval_term(f.t1, env) < eval_term(f.t2, env)
    if isinstance(f, Bot):
        return False
    if isinstance(f, And):
        return eval_bounded(f.f1, env) and eval_bounded(f.f2, env)
    if isinstance(f, Or):
        return eval_bounded(f.f1, env) or eval_bounded(f.f2, env)
    if isinstance(f, Imp):
        return (not eval_bounded(f.f1, env)) or eval_bounded(f.f2, env)
    sugar = bounded_sugar(f)
    if sugar is None:
        raise UnboundedQuantifier(format_formula(f))
    bound, body = sugar
    limit = eval_term(bound, env)
    values = (eval_bounded(body, {**env, f.var: i}) for i in range(limit))
    return any(values) if isinstance(f, Exists) else all(values)
