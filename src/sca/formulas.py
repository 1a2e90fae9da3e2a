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
Every walk of terms and formulas is a loop over an explicit stack that
reads a node's children, and rebuilds it, from one table, _PARTS, read
from these tables.  The printer too reads every operand of a connective,
infix symbol or relation from _PARTS; only ~, prefix symbols and the
quantifiers, whose layout is their own, name theirs.  So answers do not
depend on depth: only eval_bounded and the parser's nesting (brackets, ~,
prefix terms, quantifiers inside connectives) recurse.

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
from typing import Callable, Mapping, NamedTuple, Union

__all__ = [
    "Term", "Var", "App", "Zero", "Succ", "Add", "Mul", "Pair", "Proj0",
    "Proj1", "Formula", "Rel", "Eq", "Lt", "Bot", "And", "Or", "Imp",
    "Exists", "Forall",
    "PAtom", "PropFormula",
    "Not", "Iff", "is_negation",
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


def Not(f: Formula) -> Formula:
    """Negation sugar: ~f is f -> bot."""
    return Imp(f, Bot())


def Iff(a: Formula, b: Formula) -> Formula:
    """Biconditional sugar: conjunction of the two implications."""
    return And(Imp(a, b), Imp(b, a))


def is_negation(f: Formula) -> bool:
    return isinstance(f, Imp) and isinstance(f.f2, Bot)


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

# per printed connective (by class), the text, its prec, and the precs
# its operands print at; a quantifier binds as loosely as the loosest
_PRINTED = {c.build: (f" {op} ", c.prec, c.prec + c.right, c.prec + (not c.right))
            for op, c in _CONNECTIVES.items() if isinstance(c.build, type)}

_QUANTIFIER_PREC = min(c[1] for c in _PRINTED.values())

# the same for each infix symbol, at the strengths of terms, and for each
# relation, which no context parenthesizes and whose terms print at 0
_PRINTED.update({op: (f" {op} ", p, p, p + 1) for op, p in _INFIX.items()})
_PRINTED.update({op: (f" {op} ", math.inf, 0, 0) for op in _RELATIONS})


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
        """A formula whose connectives bind at least as tightly as prec.  A
        run of a left-associative connective folds as it is read; a
        right-associative one is read in a loop, then folded from the right."""
        f = self.unary()
        while (c := _CONNECTIVES.get(op := self.peek()[1])) is not None and c.prec >= prec:
            self.i += 1
            if not c.right:
                f = c.build(f, self.formula(c.prec + 1))
                continue
            run = [f, self.formula(c.prec + 1)]
            while self.eat(op):
                run.append(self.formula(c.prec + 1))
            f = run.pop()
            while run:
                f = c.build(run.pop(), f)
        return f

    def unary(self) -> Formula:
        if self.eat("~"):
            return Not(self.unary())
        if self.peek()[1] not in _QUANTIFIERS:
            return self.atom_formula()
        headers = []  # a run of quantifier headers, E x. A y < t. ..., in a loop
        while (tok := self.peek()[1]) in _QUANTIFIERS:
            self.i += 1
            vkind, var, vpos = self.next()
            if vkind != "ident" or var in _KEYWORDS:
                raise ParseError("expected a variable after quantifier", vpos)
            bound = self.term() if self.eat("<") else None
            self.expect(".")
            headers.append((*_QUANTIFIERS[tok], var, bound))
        f = self.formula()  # a quantifier's scope extends maximally right
        for build, bounding, var, bound in reversed(headers):
            f = build(var, f if bound is None else bounding(Lt(Var(var), bound), f))
        return f

    def atom_formula(self) -> Formula:
        kind, tok, pos = self.peek()
        if tok == "bot":
            self.next()
            return Bot()
        error = None
        if tok == "(":
            # Could be a parenthesized formula or a parenthesized term in a
            # relation; try the formula reading first and backtrack.  When
            # both fail, the reading that got further is at fault.
            mark = self.i
            self.next()
            try:
                f = self.formula()
                self.expect(")")
                if self.peek()[1] not in _RELATIONS and self.peek()[1] not in _INFIX:
                    return f
            except ParseError as e:
                error = e
            self.i = mark
        try:
            t1 = self.term()
            _, rel, rpos = self.next()
            if rel not in _RELATIONS:
                expected = " or ".join(map(repr, _RELATIONS))
                raise ParseError(f"expected {expected}, found {rel or 'end of input'!r}", rpos)
            return Rel(rel, t1, self.term())
        except ParseError as t:
            raise error if error is not None and error.pos > t.pos else t from None


def parse(src: str) -> Formula:
    """Parse a formula; raises ParseError with a position on bad input."""
    p = _Parser(src)
    return p.done(p.formula())


def parse_term(src: str) -> Term:
    p = _Parser(src)
    return p.done(p.term())


# ---------------------------------------------------------------------------
# Children

# each node class's children, last first as a stack walk pushes them, and
# its rebuild from new children, first first, read from the tables above:
# a connective's operands, a quantifier's body, a relation's terms and an
# application's arguments; a variable, letter or bot has none
_PARTS = {
    **dict.fromkeys((Var, PAtom, Bot), (lambda n: (), None)),
    **dict.fromkeys((c.build for c in _CONNECTIVES.values() if isinstance(c.build, type)), (
        operator.attrgetter("f2", "f1"), lambda n, kids: type(n)(*kids))),
    **dict.fromkeys(_QUANTIFIER_OF, (lambda n: (n.body,), lambda n, kids: type(n)(n.var, *kids))),
    Rel: (operator.attrgetter("t2", "t1"), lambda n, kids: Rel(n.op, *kids)),
    App: (lambda n: n.args[::-1], lambda n, kids: App(n.op, tuple(kids))),
}


def _remade(n, out: list):
    """n with its children replaced by the last outputs of a walk, which it
    takes from out; n itself where each is its old child."""
    children, rebuild = _PARTS[type(n)]
    old = children(n)
    new = out[-len(old):]
    del out[-len(old):]
    return rebuild(n, new) if any(map(operator.is_not, reversed(new), old)) else n


# ---------------------------------------------------------------------------
# Printing

_NAMED = {Var, PAtom}

_BARE = {PAtom, Bot}  # ~ takes these, and negations, without brackets


def format_formula(f: Formula | Term) -> str:
    """Printer of formulas and terms, inverse of parse and parse_term up to
    whitespace: an infix application or connective in a context that binds
    more tightly is parenthesized."""
    # f prints next, at strength prec, and then the stack: texts, and
    # operands each above the strength it prints at
    out, todo, prec = "", [], 0
    while True:
        t = type(f)
        if t in _NAMED:
            out += f.name
        elif t is Imp and type(f.f2) is Bot:
            if type(f.f1) in _BARE or is_negation(f.f1):
                out += "~"
            else:
                out += "~("
                todo.append(")")
            f, prec = f.f1, 0
            continue
        elif (c := _PRINTED.get(f.op if t is Rel or t is App else t)) is not None:
            op, op_prec, left, right = c
            if prec > op_prec:
                out += "("
                todo.append(")")
            b, a = _PARTS[t][0](f)
            todo += right, b, op
            f, prec = a, left
            continue
        elif t is App:  # a prefix symbol; its arguments print at strength 0
            if not f.args:
                out += f.op
            else:
                out += f"{f.op}("
                todo.append(")")
                for a in f.args[:0:-1]:
                    todo += 0, a, ", "
                f, prec = f.args[0], 0
                continue
        elif t is Bot:
            out += "bot"
        elif t in _QUANTIFIER_OF:
            if prec > _QUANTIFIER_PREC:
                out += "("
                todo.append(")")
            sugar = bounded_sugar(f)
            if sugar is None:
                out += f"{_QUANTIFIER_OF[t][0]} {f.var}. "
                f, prec = f.body, 0
            else:
                out += f"{_QUANTIFIER_OF[t][0]} {f.var} < "
                todo += 0, sugar[1], ". "
                f, prec = sugar[0], 0
            continue
        else:
            raise TypeError(f"not a formula: {f!r}")
        while todo:  # f is printed: the stack's texts, up to its next operand
            f = todo.pop()
            if type(f) is not str:
                prec = todo.pop()
                break
            out += f
        else:
            return out


format_term = format_formula


def bounded_sugar(f: Formula) -> tuple[Term, Formula] | None:
    """(bound, body) when f is a bounded quantifier in sugar form,
    E x. (x < t /\\ body) or A x. (x < t -> body) with x not free in t;
    None otherwise."""
    q = _QUANTIFIER_OF.get(type(f))
    if q is not None and isinstance(f.body, q[1]):
        g, x = f.body.f1, f.var
        if type(g) is Rel and g.op == "<" and g.t1 == Var(x) and (
                # a variable bound, the commonest, is checked without a walk
                g.t2.name != x if type(g.t2) is Var else x not in term_vars(g.t2)):
            return g.t2, f.body.f2
    return None


# ---------------------------------------------------------------------------
# Variables, substitution, alpha-equality

def all_names(f: Formula | Term) -> frozenset[str]:
    """Every identifier occurring in f: variables, binders and letters."""
    names, todo = set(), [f]
    while todo:
        n = todo.pop()
        if type(n) in _NAMED:
            names.add(n.name)
        else:
            if type(n) in _QUANTIFIER_OF:
                names.add(n.var)
            todo += _PARTS[type(n)][0](n)
    return frozenset(names)


term_vars = all_names  # a term's only names are its variables


def free_vars(f: Formula) -> frozenset[str]:
    free, bound, todo = set(), {}, [f]  # bound: how many binders hold each name
    while todo:
        n = todo.pop()
        if type(n) is Var:
            if not bound.get(n.name):
                free.add(n.name)
        elif type(n) is str:  # the scope of a binder of n ends
            bound[n] -= 1
        elif type(n) in _QUANTIFIER_OF:
            bound[n.var] = bound.get(n.var, 0) + 1
            todo += n.var, n.body
        else:
            todo += _PARTS[type(n)][0](n)
    return frozenset(free)


def fresh_name(base: str, avoid: frozenset[str] | set[str]) -> str:
    """base with the smallest numeric suffix avoiding the given names."""
    if base not in avoid:
        return base
    i = 0
    while f"{base}{i}" in avoid:
        i += 1
    return f"{base}{i}"


def _rename(f, env: Mapping[str, Term], aux, bind):
    """f with each free variable that env names replaced by its image, made
    again only where something changed.  bind(q, env, aux) gives binder q's
    name and its body's env and aux; no env keeps q."""
    out, todo = [], [f]
    while todo:
        n = todo.pop()
        if type(n) is Var:
            out.append(env.get(n.name, n))
        elif type(n) is tuple:  # n's children are made: n again, and n's scope ends
            n, var, env, aux = n
            if var is None:
                out.append(_remade(n, out))
            elif var is not n.var or out[-1] is not n.body:
                out[-1] = type(n)(var, out[-1])
            else:
                out[-1] = n
        elif type(n) in _QUANTIFIER_OF:
            var, inner, inner_aux = bind(n, env, aux)
            if inner:
                todo += (n, var, env, aux), n.body
                env, aux = inner, inner_aux
            else:
                out.append(n)
        elif kids := _PARTS[type(n)][0](n):
            todo.append((n, None, env, aux))
            todo += kids
        else:
            out.append(n)
    return out[0]


def _substituted(q, env: Mapping[str, Term], images: frozenset[str]):
    """Substitution's binder rule (images: at least the variables of env's images):
    q shields its own variable and is renamed where it would capture an image's."""
    env = {v: r for v, r in env.items() if v != q.var}
    if q.var in images:
        free = free_vars(q.body)
        env = {v: r for v, r in env.items() if v in free}  # the rest change nothing
        images = frozenset().union(*map(term_vars, env.values()))
        if q.var in images:
            new = fresh_name(q.var, all_names(q.body).union(env, images))
            return new, {**env, q.var: Var(new)}, images | {new}
    return q.var, env, images


def substitute(f: Formula | Term, v: str, r: Term):
    """Capture-avoiding substitution of r for free occurrences of v."""
    return _rename(f, {v: r}, term_vars(r), _substituted)


substitute_term = substitute


def alpha_normal(f: Formula) -> Formula:
    """f with each bound variable renamed after its binding depth, to
    "#0", "#1", ...: names no identifier can spell, so they never meet a
    free variable.  Alpha-equivalent formulas have equal normal forms."""
    return _rename(f, {}, 0, lambda q, env, depth: (
        f"#{depth}", {**env, q.var: Var(f"#{depth}")}, depth + 1))


def alpha_equal(f: Formula, g: Formula) -> bool:
    """Equality up to renaming of bound variables."""
    return alpha_normal(f) == alpha_normal(g)


# ---------------------------------------------------------------------------
# Rewriting and evaluation

def collapse_atom_negations(f: Formula) -> Formula:
    """Rewrite every ~~a with a an atom (=, <, bot) to a, to fixpoint."""
    out, todo = [], [f]
    while todo:
        g = todo.pop()
        if type(g) is tuple:  # g's operands are rewritten: g again, or its atom
            g = _remade(g[0], out)
            double = type(g) is Imp and type(g.f2) is Bot and is_negation(g.f1) and (
                type(g.f1.f1) in (Rel, Bot))
            out.append(g.f1.f1 if double else g)
        elif type(g) is Rel or type(g) is Bot:
            out.append(g)
        else:
            todo.append((g,))
            todo += _PARTS[type(g)][0](g)
    return out[0]


def eval_term(t: Term, env: Mapping[str, int]) -> int:
    values, todo = [], [t]
    while todo:
        n = todo.pop()
        if type(n) is App:  # its symbol applies once its arguments are valued
            todo.append(_SIGNATURE[n.op])
            todo += _PARTS[App][0](n)
        elif type(n) is Var:
            if n.name not in env:
                raise MissingAssignment(n.name)
            values.append(env[n.name])
        else:  # a symbol, over the values of its arguments
            args = values[len(values) - n.arity:]
            del values[len(values) - n.arity:]
            values.append(n.value(*args))
    return values[0]


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
