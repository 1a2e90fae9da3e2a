"""Formula AST, parser, printer, substitution, pairing, evaluation."""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sca import formulas
from sca.formulas import (
    Add, And, Bot, Eq, Exists, Forall, Iff, Imp, Lt, MissingAssignment, Mul,
    Not, Or, Pair, ParseError, Proj0, Proj1, Succ, UnboundedQuantifier, Var,
    Zero, alpha_equal, all_names, bounded_sugar, cantor_fst, cantor_pair,
    cantor_snd, collapse_atom_negations, eval_bounded, eval_term,
    format_formula, format_term, free_vars, parse, parse_term, substitute,
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
