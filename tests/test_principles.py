"""The principle catalog and schema instantiation."""

from __future__ import annotations

import re

import pytest

from sca.formulas import (
    And, Exists, Forall, Imp, Var, format_formula, parse,
)
from sca.nodes import CATALOG, Node, parse_class_literal
from sca.principles import (
    ArityMismatch, ClassMismatch, PrincipleId, SideConditionViolated,
    instantiate, parse_node,
)

PLAIN, DSI, DPI = "Plain", "DeltaSigma", "DeltaPi"


def _lits(*texts):
    return tuple(parse_class_literal(t) for t in texts)


def sigma_witness(k: int, matrix: str = "v0 = u"):
    """A witness of class exactly Sigma k (alternating singleton blocks)."""
    f = parse(matrix)
    for i in range(k, 0, -1):
        q = Exists if i % 2 == 1 else Forall
        f = q(f"v{k - i}", f)
    return f


def pi_witness(k: int, matrix: str = "v0 = u"):
    f = parse(matrix)
    for i in range(k, 0, -1):
        q = Forall if i % 2 == 1 else Exists
        f = q(f"v{k - i}", f)
    return f


class TestCatalog:
    def test_contains_coll_plain(self):
        assert any(pid == PrincipleId("COLL", PLAIN, 1) for pid, _ in CATALOG)

    def test_contains_peirce_plain(self):
        assert any(pid == PrincipleId("PEIRCE", PLAIN, 1) for pid, _ in CATALOG)

    def test_no_coll_delta_variant(self):
        assert not any(pid.family == "COLL" and pid.variant != PLAIN
                       for pid, _ in CATALOG)

    def test_delta_variants_where_defined(self):
        variants = {(pid.family, pid.variant) for pid, _ in CATALOG}
        for fam in ("LEM", "DUAL", "WDUAL", "DMLBOT"):
            assert (fam, DSI) in variants and (fam, DPI) in variants
        for fam in ("DNE", "DNS", "DML", "CD", "LN", "PEIRCE", "LEMBOT",
                    "DNEOR"):
            assert (fam, DSI) not in variants and (fam, DPI) not in variants

    def test_size(self):
        assert len(CATALOG) == 21

    def test_plain_descriptions_are_the_instances(self):
        """Each plain description that takes no dual, read in the formula
        grammar with atomic witnesses for phi, psi and phi(y) and without
        its side condition, is the instance at S0."""
        checked = 0
        for pid, desc in CATALOG:
            if pid.variant != PLAIN or "dual(" in desc:
                continue
            text, _, side = desc.partition(", with ")
            phi = "u < v" if "x not free in phi" in side else "x < u"
            sub = {"phi(y)": phi.replace("x", "y"), "phi": phi, "psi": "v = x"}
            text = re.sub(r"phi\(y\)|phi|psi", lambda m: f"({sub[m[0]]})", text)
            witnesses = [parse(phi)] + ([parse(sub["psi"])] if "psi" in desc else [])
            inst = instantiate(pid, _lits(*["S0"] * pid.arity), witnesses)
            assert parse(text) == inst.rendered, pid
            checked += 1
        assert checked == 9


class TestNodeOf:
    def test_dne(self):
        assert str(Node(PrincipleId("DNE", PLAIN, 1), _lits("S1"))) == "DNE:S1"

    def test_dml_two_args(self):
        assert str(Node(PrincipleId("DML", PLAIN, 2), _lits("S2", "P2"))) == "DML:S2:P2"

    def test_dneor(self):
        assert str(Node(PrincipleId("DNEOR", PLAIN, 2),
                        _lits("P3", "P3"))) == "DNEOR:P3:P3"

    def test_delta_pi_tag(self):
        assert str(Node(PrincipleId("LEM", DPI, 1), _lits("D1"))) == "LEM:DPI:D1"

    def test_arity_mismatch(self):
        with pytest.raises(ArityMismatch):
            str(Node(PrincipleId("DML", PLAIN, 2), _lits("S2")))

    def test_parse_node_roundtrip(self):
        for text in ["DNE:S1", "DML:S2:P2", "LEM:DPI:D1", "LEMBOT:P1",
                     "DMLBOT:S2:S2", "CD:P1:P1", "LEM:nS2"]:
            pid, args = parse_node(text)
            assert str(Node(pid, args)) == text

    def test_parse_node_diagonal_sugar(self):
        pid, args = parse_node("DMLBOT:S2")
        assert str(Node(pid, args)) == "DMLBOT:S2:S2"


A_SIGMA, A_PI = "E y. (y = a)", "A y. (a < y)"
B_SIGMA, B_PI = "E z. (z = b)", "A z. (b < z)"
IFF_A = "((E y. y = a) -> A y. a < y) /\\ ((A y. a < y) -> E y. y = a)"
IFF_B = "((E z. z = b) -> A z. b < z) /\\ ((A z. b < z) -> E z. z = b)"

# Instances whose text pins which side a Delta variant takes the dual of,
# that an S/P argument's dual is taken of its negated witness, and the
# order of the equivalence premises.
SCHEMA_CASES = [
    ("DMLBOT:DPI:D1:S1", [A_SIGMA, A_PI, B_SIGMA],
     f"{IFF_A} -> ~((E y. y = a) /\\ (E z. z = b)) -> "
     "(E y. ~(a < y)) \\/ (A z. ~(z = b))"),
    ("DMLBOT:DSI:D1:S1", [A_SIGMA, A_PI, B_SIGMA],
     f"{IFF_A} -> ~((E y. y = a) /\\ (E z. z = b)) -> "
     "(A y. ~(y = a)) \\/ (A z. ~(z = b))"),
    ("DMLBOT:nS0:S0", ["x = a", "b < x"],
     "~(~(x = a) /\\ b < x) -> ~~(x = a) \\/ ~(b < x)"),
    ("LEM:DSI:D1", [A_SIGMA, A_PI], f"{IFF_A} -> (E y. y = a) \\/ (A y. ~(y = a))"),
    ("LEM:DPI:D1", [A_SIGMA, A_PI], f"{IFF_A} -> (A y. a < y) \\/ (E y. ~(a < y))"),
    ("LEM:DSI:nD1", [A_SIGMA, A_PI], f"{IFF_A} -> (E y. y = a) \\/ (A y. ~(y = a))"),
    ("DUAL:DSI:D1", [A_SIGMA, A_PI], f"{IFF_A} -> ~(E y. y = a) -> A y. ~(y = a)"),
    ("DUAL:DPI:D1", [A_SIGMA, A_PI], f"{IFF_A} -> ~(A y. a < y) -> E y. ~(a < y)"),
    ("WDUAL:DSI:D1", [A_SIGMA, A_PI],
     f"{IFF_A} -> ~(A y. ~(y = a)) -> ~~(E y. y = a)"),
    ("WDUAL:DPI:D1", [A_SIGMA, A_PI],
     f"{IFF_A} -> ~(E y. ~(a < y)) -> ~~(A y. a < y)"),
    ("DML:D1:D1", [A_SIGMA, A_PI, B_SIGMA, B_PI],
     f"{IFF_A} /\\ ({IFF_B}) -> ~((E y. y = a) /\\ (E z. z = b)) -> "
     "~(E y. y = a) \\/ ~(E z. z = b)"),
]


class TestInstantiate:
    @pytest.mark.parametrize("node, witnesses, text", SCHEMA_CASES,
                             ids=[c[0] for c in SCHEMA_CASES])
    def test_schema_text(self, node, witnesses, text):
        pid, args = parse_node(node)
        inst = instantiate(pid, args, [parse(w) for w in witnesses])
        assert format_formula(inst.rendered) == text

    @pytest.mark.parametrize("node, phi, text", [
        ("LN:S0", "x = y", "(E x. x = y) -> E x. x = y /\\ (A y0 < x. ~(y0 = y))"),
        ("COLL:S0", "y < w", "(A w0. E y < x. A z < w0. y < w) -> E y < x. A z. y < w"),
    ])
    def test_bound_names_avoid_the_witness(self, node, phi, text):
        """LN's A y and COLL's A w bind no free variable of the witness."""
        pid, args = parse_node(node)
        inst = instantiate(pid, args, [parse(phi)])
        assert format_formula(inst.rendered) == text

    def test_lem_sigma1(self):
        inst = instantiate(PrincipleId("LEM", PLAIN, 1), _lits("S1"),
                           [parse("E x. (x = y)")])
        assert inst.rendered == parse("(E x. (x = y)) \\/ ~(E x. (x = y))")

    def test_dns_sigma0(self):
        inst = instantiate(PrincipleId("DNS", PLAIN, 1), _lits("S0"),
                           [parse("x < z")])
        assert inst.rendered == parse("(A x. ~~(x < z)) -> ~~(A x. (x < z))")

    def test_wdual_pi1(self):
        inst = instantiate(PrincipleId("WDUAL", PLAIN, 1), _lits("P1"),
                           [parse("A x. (x = 0)")])
        assert inst.rendered == parse(
            "~(E x. ~(x = 0)) -> ~~(A x. (x = 0))")

    def test_coll_pi1(self):
        inst = instantiate(PrincipleId("COLL", PLAIN, 1), _lits("P1"),
                           [parse("A v. (v + y = z + y)")])
        text = format_formula(inst.rendered)
        assert text.startswith("(A w. E y < x.")
        assert "-> E y < x. A z." in text
        from sca.formulas import free_vars
        assert "x" in free_vars(inst.rendered)

    def test_delta_variant_premise_outermost(self):
        for pid, _desc in CATALOG:
            if pid.variant == PLAIN:
                continue
            args = _lits(*(["D1"] * pid.arity))
            wits = []
            for _ in range(pid.arity):
                wits += [sigma_witness(1), pi_witness(1)]
            inst = instantiate(pid, args, wits)
            assert isinstance(inst.rendered, Imp)
            prem = inst.rendered.f1
            while isinstance(prem, And) and isinstance(prem.f1, And):
                prem = prem.f1
            # each equivalence premise is a conjunction of two implications
            assert isinstance(prem, (And, Imp))

    def test_class_mismatch(self):
        with pytest.raises(ClassMismatch):
            instantiate(PrincipleId("LEM", PLAIN, 1), _lits("S0"),
                        [parse("E x. (x = y)")])

    def test_side_condition_cd(self):
        with pytest.raises(SideConditionViolated):
            instantiate(PrincipleId("CD", PLAIN, 2), _lits("S0", "S0"),
                        [parse("x = 0"), parse("x < y")])

    def test_cd_ok_when_x_not_free(self):
        inst = instantiate(PrincipleId("CD", PLAIN, 2), _lits("S0", "S0"),
                           [parse("y = 0"), parse("x < y")])
        assert inst.rendered == parse(
            "(A x. ((y = 0) \\/ (x < y))) -> ((y = 0) \\/ A x. (x < y))")

    def test_witness_count_mismatch(self):
        with pytest.raises(ArityMismatch):
            instantiate(PrincipleId("DML", PLAIN, 2), _lits("S1", "S1"),
                        [sigma_witness(1)])

    def test_peirce_takes_trailing_witness(self):
        inst = instantiate(PrincipleId("PEIRCE", PLAIN, 1), _lits("S0"),
                           [parse("x = 0"), parse("y = 0")])
        assert inst.rendered == parse(
            "(((x = 0) -> (y = 0)) -> (x = 0)) -> (x = 0)")

    def test_negated_class_argument(self):
        inst = instantiate(PrincipleId("LEM", PLAIN, 1), _lits("nS1"),
                           [sigma_witness(1)])
        body = format_formula(inst.rendered)
        assert body.startswith("~(E")

    def test_total_on_catalog_up_to_level3(self):
        for pid, _desc in CATALOG:
            for k in range(4):
                if pid.variant == PLAIN:
                    args = _lits(*([f"S{k}"] * pid.arity))
                    wits = [sigma_witness(k, f"v0 = u{i}")
                            for i in range(pid.arity)]
                else:
                    args = _lits(*([f"D{k}"] * pid.arity))
                    wits = []
                    for i in range(pid.arity):
                        wits += [sigma_witness(k, f"v0 = u{i}"),
                                 pi_witness(k, f"v0 = u{i}")]
                if pid.family == "PEIRCE":
                    wits.append(parse("u9 = 0"))
                if pid.family == "CD":
                    # first witness must avoid the distinguished x
                    pass
                inst = instantiate(pid, args, wits)
                assert inst.rendered is not None
