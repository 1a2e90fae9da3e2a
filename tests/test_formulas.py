"""Formula AST, parser, printer, substitution, pairing, evaluation."""

from __future__ import annotations

import ast
import pathlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sca import formulas, hierarchy, ipc
from sca.formulas import (
    Add, And, Bot, Eq, Exists, Forall, Iff, Imp, Lt, MissingAssignment, Mul,
    Not, Or, Pair, ParseError, Proj0, Proj1, Succ, UnboundedQuantifier, Var,
    Zero, alpha_equal, alpha_normal, all_names, bounded_sugar, cantor_fst,
    cantor_pair, cantor_snd, collapse_atom_negations, eval_bounded, eval_term,
    format_formula, format_term, free_vars, parse, parse_term, substitute,
    substitute_term, term_vars,
)
from tests.conftest import bounded_sentences, prenex, qfree


class TestParse:
    def test_exists_atom(self):
        assert parse("E x. (x = 0)") == Exists("x", Eq(Var("x"), Zero()))

    def test_bounded_forall_sugar(self):
        got = parse("A y < z. (y < z)")
        want = Forall("y", Imp(Lt(Var("y"), Var("z")), Lt(Var("y"), Var("z"))))
        assert got == want

    def test_negation_sugar(self):
        assert parse("~ (x = 0)") == Imp(Eq(Var("x"), Zero()), Bot())

    def test_iff_sugar(self):
        f = parse("(x = 0) <-> (x < y)")
        a, b = Eq(Var("x"), Zero()), Lt(Var("x"), Var("y"))
        assert f == And(Imp(a, b), Imp(b, a))

    def test_imp_right_assoc(self):
        assert parse("bot -> bot -> bot") == Imp(Bot(), Imp(Bot(), Bot()))

    def test_precedence(self):
        f = parse("~ x = 0 /\\ bot \\/ x < y")
        assert f == Or(And(Not(Eq(Var("x"), Zero())), Bot()), Lt(Var("x"), Var("y")))

    def test_syntax_error(self):
        with pytest.raises(ParseError):
            parse("E x. (x =")

    def test_free_variables_are_legal(self):
        assert free_vars(parse("x = y")) == frozenset({"x", "y"})


class TestPrint:
    def test_negation_resugars(self):
        assert format_formula(Imp(Eq(Var("x"), Zero()), Bot())) == "~(x = 0)"

    def test_bounded_exists_resugars(self):
        f = Exists("x", And(Lt(Var("x"), Var("t")), Eq(Var("x"), Zero())))
        assert format_formula(f) == "E x < t. x = 0"

    def test_bot(self):
        assert format_formula(Bot()) == "bot"

    @given(prenex())
    @settings(max_examples=200)
    def test_roundtrip_prenex(self, f):
        assert alpha_equal(parse(format_formula(f)), f)

    @given(bounded_sentences())
    @settings(max_examples=100)
    def test_roundtrip_bounded(self, f):
        assert alpha_equal(parse(format_formula(f)), f)


X, Y, Z = Var("x"), Var("y"), Var("z")
ENV = {"x": 2, "y": 3, "z": 5}


class TestTerms:
    @pytest.mark.parametrize("src, printed, value", [
        ("0", "0", 0),
        ("S(x)", "S(x)", 3),
        ("x+y", "x + y", 5),
        ("x*y", "x * y", 6),
        ("pair(x,y)", "pair(x, y)", cantor_pair(2, 3)),
        ("p0(y)", "p0(y)", cantor_fst(3)),
        ("p1(y)", "p1(y)", cantor_snd(3)),
        ("p0(pair(x, y))", "p0(pair(x, y))", 2),
        ("p1(pair(x, y))", "p1(pair(x, y))", 3),
    ])
    def test_symbol(self, src, printed, value):
        t = parse_term(src)
        assert format_term(t) == printed
        assert eval_term(t, ENV) == value

    @pytest.mark.parametrize("src, printed, tree", [
        ("x + y + z", "x + y + z", Add(Add(X, Y), Z)),
        ("x + (y + z)", "x + (y + z)", Add(X, Add(Y, Z))),
        ("x * y * z", "x * y * z", Mul(Mul(X, Y), Z)),
        ("x * (y * z)", "x * (y * z)", Mul(X, Mul(Y, Z))),
        ("x + y * z", "x + y * z", Add(X, Mul(Y, Z))),
        ("(x + y) * z", "(x + y) * z", Mul(Add(X, Y), Z)),
        ("(x * y) + z", "x * y + z", Add(Mul(X, Y), Z)),
        ("((x))", "x", X),
        ("S(x + y) * z", "S(x + y) * z", Mul(Succ(Add(X, Y)), Z)),
        ("pair(x + y, (z))", "pair(x + y, z)", Pair(Add(X, Y), Z)),
        ("p1(x * S(0))", "p1(x * S(0))", Proj1(Mul(X, Succ(Zero())))),
    ])
    def test_infix_associativity_and_parentheses(self, src, printed, tree):
        t = parse_term(src)
        assert t == tree
        assert format_term(t) == printed
        assert parse_term(printed) == t

    @pytest.mark.parametrize("src, message", [
        ("pair(x)", "expected ',', found ')' (at position 6)"),
        ("S(x, y)", "expected ')', found ',' (at position 3)"),
        ("p0 x", "expected '(', found 'x' (at position 3)"),
        ("x +", "expected a term, found 'end of input' (at position 3)"),
    ])
    def test_parse_error(self, src, message):
        with pytest.raises(ParseError) as e:
            parse_term(src)
        assert str(e.value) == message


A, B, C = Eq(X, Zero()), Lt(X, Y), Eq(Y, Z)


def _reference_tokenize(src):
    """The character-loop tokenizer that formulas._tokenize replaced: at
    each non-space character, the first symbol of _SYMBOLS that matches,
    else an identifier (a letter or _, then letters, digits and _)."""
    toks = []
    i = 0
    n = len(src)
    while i < n:
        c = src[i]
        if c.isspace():
            i += 1
            continue
        for s in formulas._SYMBOLS:
            if src.startswith(s, i):
                toks.append(("sym", s, i))
                i += len(s)
                break
        else:
            if c.isalpha() or c == "_":
                j = i
                while j < n and (src[j].isalnum() or src[j] == "_"):
                    j += 1
                toks.append(("ident", src[i:j], i))
                i = j
            else:
                raise ParseError(f"unexpected character {c!r}", i)
    toks.append(("eof", "", n))
    return toks


def _tokens_or_error(tokenize, src):
    try:
        return tokenize(src)
    except ParseError as e:
        return str(e), e.pos


_SOUP = ["<->", "->", "/\\", "\\/", "~", "(", ")", ",", ".", "=", "<", "+", "*",
         "0", "01", "1", "x", "y0", "E", "A", "bot", "S", "pair", "p0", "_", "é",
         "x²", "²x", "\u00a0", "<-", "-", "/", "\\", "$", " ", "\t", "\n", "Ⅷ", "١"]


class TestConnectives:
    @pytest.mark.parametrize("src, printed, tree", [
        ("x = 0 /\\ x < y /\\ y = z", "x = 0 /\\ x < y /\\ y = z", And(And(A, B), C)),
        ("x = 0 /\\ (x < y /\\ y = z)", "x = 0 /\\ (x < y /\\ y = z)", And(A, And(B, C))),
        ("x = 0 \\/ x < y \\/ y = z", "x = 0 \\/ x < y \\/ y = z", Or(Or(A, B), C)),
        ("x = 0 \\/ (x < y \\/ y = z)", "x = 0 \\/ (x < y \\/ y = z)", Or(A, Or(B, C))),
        ("x = 0 -> x < y -> y = z", "x = 0 -> x < y -> y = z", Imp(A, Imp(B, C))),
        ("(x = 0 -> x < y) -> y = z", "(x = 0 -> x < y) -> y = z", Imp(Imp(A, B), C)),
        ("x = 0 \\/ x < y /\\ y = z", "x = 0 \\/ x < y /\\ y = z", Or(A, And(B, C))),
        ("(x = 0 \\/ x < y) /\\ y = z", "(x = 0 \\/ x < y) /\\ y = z", And(Or(A, B), C)),
        ("x = 0 /\\ x < y -> x < y \\/ y = z", "x = 0 /\\ x < y -> x < y \\/ y = z",
         Imp(And(A, B), Or(B, C))),
        ("((x = 0))", "x = 0", A),
        ("~x = 0 /\\ x < y", "~(x = 0) /\\ x < y", And(Not(A), B)),
        ("~~bot", "~~bot", Not(Not(Bot()))),
        ("~(x = 0 -> x < y)", "~(x = 0 -> x < y)", Not(Imp(A, B))),
        ("x = 0 /\\ x < y -> bot", "~(x = 0 /\\ x < y)", Not(And(A, B))),
        ("E x. x = 0 /\\ x < y", "E x. x = 0 /\\ x < y", Exists("x", And(A, B))),
        ("(A x. x = 0) /\\ x < y", "(A x. x = 0) /\\ x < y", And(Forall("x", A), B)),
        ("x = 0 -> E x. x < y", "x = 0 -> E x. x < y", Imp(A, Exists("x", B))),
        ("(E x. x = 0) -> x < y", "(E x. x = 0) -> x < y", Imp(Exists("x", A), B)),
        ("x = 0 \\/ E x. x < y", "x = 0 \\/ (E x. x < y)", Or(A, Exists("x", B))),
        ("~E x. x = 0", "~(E x. x = 0)", Not(Exists("x", A))),
    ])
    def test_printed_form_associativity_and_parentheses(self, src, printed, tree):
        assert parse(src) == tree
        assert format_formula(tree) == printed
        assert parse(printed) == tree

    @pytest.mark.parametrize("src, tree", [
        ("x = 0 <-> x < y <-> y = z", Iff(Iff(A, B), C)),
        ("x = 0 <-> x < y -> y = z", Iff(A, Imp(B, C))),
        ("x = 0 -> x < y <-> y = z", Iff(Imp(A, B), C)),
        ("x = 0 /\\ x < y <-> x < y \\/ y = z", Iff(And(A, B), Or(B, C))),
        ("E x. x = 0 <-> x < y", Exists("x", Iff(A, B))),
    ])
    def test_iff_is_left_associative_sugar(self, src, tree):
        assert parse(src) == tree

    @pytest.mark.parametrize("src, tree", [
        ("E x < y. x = 0", Exists("x", And(Lt(X, Y), A))),
        ("A x < S(y). x = 0", Forall("x", Imp(Lt(X, Succ(Y)), A))),
        ("E x < y. A z < x. y = z", Exists("x", And(Lt(X, Y), Forall("z", Imp(Lt(Z, X), C))))),
    ])
    def test_bounded_sugar_round_trip(self, src, tree):
        assert parse(src) == tree
        assert bounded_sugar(tree) == (tree.body.f1.t2, tree.body.f2)
        assert format_formula(tree) == src

    @pytest.mark.parametrize("tree, printed", [
        (Exists("x", And(Lt(X, X), A)), "E x. x < x /\\ x = 0"),
        (Exists("x", Imp(Lt(X, Y), A)), "E x. x < y -> x = 0"),
        (Forall("x", And(Lt(X, Y), A)), "A x. x < y /\\ x = 0"),
        (Forall("x", Imp(Lt(Y, X), A)), "A x. y < x -> x = 0"),
    ])
    def test_near_misses_are_not_sugar(self, tree, printed):
        assert bounded_sugar(tree) is None
        assert format_formula(tree) == printed
        assert parse(printed) == tree

    @pytest.mark.parametrize("src, message", [
        ("E x. (x =", "expected a term, found 'end of input' (at position 9)"),
        ("(x = 0", "expected ')', found 'end of input' (at position 6)"),
        ("x = 0 /\\", "expected a term, found 'end of input' (at position 8)"),
        ("x = 0 -> ", "expected a term, found 'end of input' (at position 9)"),
        ("~", "expected a term, found 'end of input' (at position 1)"),
        ("x = 0 <-> <-> bot", "expected a term, found '<->' (at position 10)"),
        ("A x < . x = 0", "expected a term, found '.' (at position 6)"),
        ("E 0. x = 0", "expected a variable after quantifier (at position 2)"),
        ("A bot. x = 0", "expected a variable after quantifier (at position 2)"),
        ("E = x", "expected a variable after quantifier (at position 2)"),
        ("E x x = 0", "expected '.', found 'x' (at position 4)"),
        ("x = 0 x", "trailing input 'x' (at position 6)"),
        ("x", "expected '=' or '<', found 'end of input' (at position 1)"),
        ("x # 0", "unexpected character '#' (at position 2)"),
        ("x² = ²y", "unexpected character '²' (at position 5)"),
        ("01 = x", "unexpected character '1' (at position 1)"),
        ("x <- y", "unexpected character '-' (at position 3)"),
        ("x = 0 /\\/ bot", "unexpected character '/' (at position 8)"),
    ])
    def test_parse_error(self, src, message):
        with pytest.raises(ParseError) as e:
            parse(src)
        assert str(e.value) == message
        assert str(e.value).endswith(f"(at position {e.value.pos})")

    @given(st.lists(st.one_of(st.sampled_from(_SOUP), st.text(max_size=2)), max_size=12))
    @settings(max_examples=300)
    def test_tokenizer_matches_the_character_loop(self, pieces):
        src = "".join(pieces)
        assert (_tokens_or_error(formulas._tokenize, src)
                == _tokens_or_error(_reference_tokenize, src))


class TestSubstitute:
    def test_simple(self):
        got = substitute(Eq(Var("x"), Zero()), "x", Succ(Zero()))
        assert got == Eq(Succ(Zero()), Zero())

    def test_capture_avoidance(self):
        f = Exists("x", Eq(Var("x"), Var("y")))
        got = substitute(f, "y", Var("x"))
        assert isinstance(got, Exists) and got.var != "x"
        assert got.body == Eq(Var(got.var), Var("x"))

    def test_bound_occurrence_untouched(self):
        f = Forall("x", Eq(Var("x"), Zero()))
        assert substitute(f, "x", Succ(Zero())) == f

    @given(qfree(), st.sampled_from("xyzw"))
    @settings(max_examples=100)
    def test_free_vars_bound(self, f, v):
        got = substitute(f, v, Zero())
        assert free_vars(got) <= (free_vars(f) - {v})

    @given(prenex(), st.sampled_from("xyzw"))
    @settings(max_examples=100)
    def test_idempotent_when_var_gone(self, f, v):
        once = substitute(f, v, Zero())
        assert substitute(once, v, Zero()) == once


class TestCollapseAtomNegations:
    def test_double_negated_atom(self):
        assert collapse_atom_negations(parse("~~(x = 0)")) == parse("x = 0")

    def test_triple_negation(self):
        assert collapse_atom_negations(parse("~~~(x = 0)")) == parse("~(x = 0)")

    def test_quantified_body_not_an_atom(self):
        f = parse("~(A x. x = 0)")
        assert collapse_atom_negations(f) == f

    @given(qfree())
    @settings(max_examples=100)
    def test_idempotent(self, f):
        once = collapse_atom_negations(f)
        assert collapse_atom_negations(once) == once

    @given(bounded_sentences())
    @settings(max_examples=60)
    def test_preserves_bounded_truth(self, f):
        assert eval_bounded(collapse_atom_negations(f), {}) == eval_bounded(f, {})


class TestPairing:
    def test_bijection_small(self):
        for a in range(0, 201, 7):
            for b in range(0, 201, 11):
                n = cantor_pair(a, b)
                assert cantor_fst(n) == a and cantor_snd(n) == b
        for n in range(201):
            assert cantor_pair(cantor_fst(n), cantor_snd(n)) == n

    def test_eval_pair_terms(self):
        t = Pair(Var("x"), Var("y"))
        n = eval_term(t, {"x": 2, "y": 3})
        assert n == cantor_pair(2, 3)
        assert eval_term(Proj0(t), {"x": 2, "y": 3}) == 2
        assert eval_term(Proj1(t), {"x": 2, "y": 3}) == 3


class TestEvalBounded:
    def test_bounded_tautology(self):
        assert eval_bounded(parse("A x < S(S(0)). (x < S(S(0)))"), {})

    def test_bounded_exists_false(self):
        assert not eval_bounded(parse("E x < z. (x = y)"), {"z": 3, "y": 5})

    def test_pair_projection(self):
        assert eval_bounded(parse("p0(pair(x, y)) = x"), {"x": 2, "y": 3})

    def test_unbounded_quantifier_rejected(self):
        with pytest.raises(UnboundedQuantifier):
            eval_bounded(parse("A x. (x = 0)"), {})

    def test_missing_assignment(self):
        with pytest.raises(MissingAssignment):
            eval_bounded(parse("x = 0"), {})


class TestAlphaEqual:
    def test_renamed_bound_variable(self):
        assert alpha_equal(parse("E x. (x = y)"), parse("E z. (z = y)"))

    def test_different_free_variable(self):
        assert not alpha_equal(parse("E x. (x = y)"), parse("E x. (x = z)"))

    def test_all_names_superset_of_free(self):
        f = parse("E x. (x = y)")
        assert free_vars(f) <= all_names(f)


# ---------------------------------------------------------------------------
# Depth: formulas and terms ten times deeper than the recursion limit,
# built with the constructors (the parser's nesting stays limited), through
# every walker.  Printed text is compared, never formulas: dataclass
# equality and hashing recurse.

DEEP = 10_000
X0 = "x = 0"


def _deep_and():
    f = Eq(Var("x"), Zero())
    for _ in range(DEEP - 1):
        f = And(f, Eq(Var("x"), Zero()))
    return f, " /\\ ".join([X0] * DEEP)


def _deep_imp():
    f = Eq(Var("x"), Zero())
    for _ in range(DEEP - 1):
        f = Imp(Eq(Var("x"), Zero()), f)
    return f, " -> ".join([X0] * DEEP)


def _deep_prefix():
    """A y. E x < y. ... x = z: bounded and unbounded quantifiers."""
    f = Eq(Var("x"), Var("z"))
    for _ in range(DEEP // 2):
        f = Forall("y", Exists("x", And(Lt(Var("x"), Var("y")), f)))
    return f, "A y. E x < y. " * (DEEP // 2) + "x = z"


def _deep_not():
    f = Eq(Var("x"), Zero())
    for _ in range(DEEP):
        f = Not(f)
    return f, "~" * DEEP + f"({X0})"


def _deep_term(op, leaf):
    t = leaf
    for _ in range(DEEP):
        t = op(t)
    return t


class TestDepth:
    @pytest.mark.parametrize("shape", [_deep_and, _deep_imp, _deep_not])
    def test_quantifier_free(self, shape):
        f, text = shape()
        one = text.replace("x", "S(0)")
        assert format_formula(f) == text
        assert free_vars(f) == all_names(f) == {"x"}
        assert format_formula(substitute(f, "x", Succ(Zero()))) == one
        assert format_formula(alpha_normal(f)) == text
        assert eval_bounded(Or(Eq(Var("x"), Var("x")), f), {"x": 0})
        collapsed = text if shape is not _deep_not else X0  # DEEP is even
        assert format_formula(collapse_atom_negations(f)) == collapsed
        skeleton = ipc.skeletonize(f)
        assert format_formula(skeleton) == text.replace(f"({X0})", "a").replace(X0, "a")
        assert ipc.prop_atoms(skeleton) == {"a"}
        assert hierarchy._first_quantifier(f) is None
        assert str(hierarchy.relative_classify(f)) == "Sigma 0"

    def test_quantifier_prefix(self):
        f, text = _deep_prefix()
        assert format_formula(f) == text
        assert free_vars(f) == {"z"}
        assert all_names(f) == {"x", "y", "z"}
        assert format_formula(substitute(f, "z", Succ(Zero()))) == text[:-1] + "S(0)"
        assert format_formula(substitute(f, "x", Succ(Zero()))) == text
        normal = "".join(f"A #{i}. E #{i + 1} < #{i}. " for i in range(0, DEEP, 2))
        assert format_formula(alpha_normal(f)) == normal + f"#{DEEP - 1} = z"
        assert format_formula(collapse_atom_negations(f)) == text
        assert format_formula(ipc.skeletonize(f)) == "a"
        assert hierarchy._first_quantifier(And(Bot(), f)) is f
        assert str(hierarchy.relative_classify(f)) == f"Pi {DEEP}"
        with pytest.raises(hierarchy.Unclassifiable) as e:
            hierarchy.relative_classify(Not(f))
        assert str(e.value) == f"unclassifiable subformula: ~({text})"

    @pytest.mark.parametrize("op, leaf, text, names, value", [
        (Succ, Zero(), "S(" * DEEP + "0" + ")" * DEEP, set(), DEEP),
        (Proj0, Var("x"), "p0(" * DEEP + "x" + ")" * DEEP, {"x"}, 0),
    ], ids=["S", "p0"])
    def test_terms(self, op, leaf, text, names, value):
        t = _deep_term(op, leaf)
        assert format_term(t) == text
        assert term_vars(t) == names
        assert eval_term(t, {"x": 0}) == value
        assert format_term(substitute_term(t, "x", Var("y"))) == text.replace("x", "y")
        f = Eq(t, Var("w"))
        assert format_formula(f) == f"{text} = w"
        assert free_vars(f) == all_names(f) == names | {"w"}
        assert format_formula(alpha_normal(Exists("w", f))) == f"E #0. {text} = #0"
        assert format_formula(substitute(f, "w", t)) == f"{text} = {text}"
        assert format_formula(collapse_atom_negations(Not(Not(f)))) == f"{text} = w"
        assert format_formula(ipc.skeletonize(f)) == "a"
        assert str(hierarchy.relative_classify(f)) == "Sigma 0"
        assert eval_bounded(Eq(t, t), {"x": 0})


# ---------------------------------------------------------------------------
# Which functions still recurse

SRC = pathlib.Path(formulas.__file__).parent

# the parser's parentheses, ~ and term nesting; eval_bounded, which
# short-circuits and raises MissingAssignment only on the branch it takes;
# and the prover's search and trace replay, whose formulas' hashing recurses too
RECURSIVE = {
    "formulas.py": {"_Parser.term", "_Parser.term_prim", "_Parser.formula",
                    "_Parser.unary", "_Parser.atom_formula", "eval_bounded"},
    "ipc.py": {"_PropParser.unary", "_search", "_apply", "_step", "validate_trace"},
    "hierarchy.py": set(),
}


def _recursive_functions(tree: ast.Module) -> set[str]:
    """The functions of a module that can call themselves, directly or
    through one another: a name or self.attribute in a function's body
    is taken to call every function or method of that name."""
    funcs: dict[str, ast.AST] = {}
    aliases: dict[str, str] = {}

    def collect(node, prefix=""):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                if isinstance(child, ast.FunctionDef):
                    funcs[prefix + child.name] = child
                collect(child, f"{prefix}{child.name}.")
            elif (isinstance(child, ast.Assign) and isinstance(child.value, ast.Name)
                  and not prefix):
                aliases.update((t.id, child.value.id) for t in child.targets
                               if isinstance(t, ast.Name))

    collect(tree)
    by_name: dict[str, set[str]] = {}
    for q in funcs:
        by_name.setdefault(q.rsplit(".", 1)[-1], set()).add(q)

    def calls(fn) -> set[str]:
        out, todo = set(), list(ast.iter_child_nodes(fn))
        while todo:
            node = todo.pop()
            if isinstance(node, ast.Name):
                out |= by_name.get(aliases.get(node.id, node.id), set())
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id == "self"):
                out |= by_name.get(node.attr, set())
            todo += ast.iter_child_nodes(node)
        return out

    edges = {q: calls(fn) for q, fn in funcs.items()}

    def reaches(start: str, goal: str) -> bool:
        seen, todo = set(), list(edges[start])
        while todo:
            q = todo.pop()
            if q == goal:
                return True
            if q not in seen:
                seen.add(q)
                todo += edges[q]
        return False

    return {q for q in funcs if reaches(q, q)}


@pytest.mark.parametrize("module", sorted(RECURSIVE))
def test_only_the_listed_functions_recurse(module):
    """Every other walker of these modules is iterative: a new recursive
    function fails here until it is listed, or made a walk."""
    tree = ast.parse((SRC / module).read_text())
    assert _recursive_functions(tree) == RECURSIVE[module]
