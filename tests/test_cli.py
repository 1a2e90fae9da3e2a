"""The command-line interface: outputs, JSON schemas, exit codes, and
byte stability."""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sca.cli import run
from sca.derivability import K_MAX_LIMIT
from sca.ipc import Sequent, Trace, parse_prop, validate_trace

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


def _python(*args, **extra_env):
    """Run a fresh interpreter that imports sca from the checkout."""
    env = dict(os.environ, **extra_env)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, *args],
                          capture_output=True, text=True, env=env, timeout=60)


def _module_run(*argv, **extra_env):
    """Run `python -m sca.cli` in a fresh interpreter."""
    return _python("-m", "sca.cli", *argv, **extra_env)


def _run(capsys, *argv):
    code = run(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestClassify:
    def test_pi2(self, capsys):
        code, out, _ = _run(capsys, "classify", "A x. E y. (y = x + 0)")
        assert code == 0 and out == "Pi 2\n"

    def test_json(self, capsys):
        code, out, _ = _run(capsys, "--json", "classify", "x = 0")
        assert code == 0
        assert json.loads(out) == {"polarity": "Sigma", "level": 0}

    def test_not_prenex_is_domain_error(self, capsys):
        code, _, err = _run(capsys, "classify", "(A x. x = 0) -> bot")
        assert code == 1 and "prenex" in err


class TestDualMerge:
    def test_dual(self, capsys):
        code, out, _ = _run(capsys, "dual", "E x. (x = 0)")
        assert code == 0 and out == "A x. ~(x = 0)\n"

    def test_merge(self, capsys):
        code, out, _ = _run(capsys, "merge", "E x. E y. (x = y)")
        assert code == 0 and out == "E u. p0(u) = p1(u)\n"


class TestRelclassify:
    def test_with_theory(self, capsys):
        code, out, _ = _run(capsys, "relclassify", "~(E x. (x = y))",
                            "--theory", "DNE:S0")
        assert code == 0 and out == "Pi 1\n"

    def test_unknown_node_is_domain_error(self, capsys):
        code, _, err = _run(capsys, "relclassify", "~(E x. (x = y))",
                            "--theory", "FOO:S1")
        assert code == 1 and "unknown principle family" in err


class TestInstantiate:
    def test_lem(self, capsys):
        code, out, _ = _run(capsys, "instantiate", "LEM:S1",
                            "--phi", "E x. (x = y)")
        assert code == 0
        assert out == "(E x. x = y) \\/ ~(E x. x = y)\n"

    def test_class_mismatch_is_domain_error(self, capsys):
        code, _, err = _run(capsys, "instantiate", "LEM:S0",
                            "--phi", "E x. (x = y)")
        assert code == 1

    def test_json_has_node(self, capsys):
        code, out, _ = _run(capsys, "--json", "instantiate", "DNE:S1",
                            "--phi", "E x. (x = y)")
        payload = json.loads(out)
        assert code == 0 and set(payload) == {"node", "formula"}
        assert payload["node"] == "DNE:S1"


def _trace_from_json(step: dict) -> Trace:
    """Rebuild a trace from `--json ipc --trace` output alone."""
    hyps, goal = step["sequent"].split("|- ")
    hyps = frozenset(parse_prop(h) for h in hyps.strip().split(", ") if h)
    principal = None if step["principal"] is None else parse_prop(step["principal"])
    return Trace(step["rule"], Sequent(hyps, parse_prop(goal)), principal,
                 tuple(_trace_from_json(c) for c in step["children"]))


class TestIpc:
    def test_peirce_unprovable_exit_zero(self, capsys):
        code, out, _ = _run(capsys, "ipc", "((p->q)->p)->p")
        assert code == 0 and out == "UNPROVABLE\n"

    def test_provable_with_trace(self, capsys):
        code, out, _ = _run(capsys, "ipc", "p -> p", "--trace")
        assert code == 0 and out.startswith("PROVABLE\n")
        assert "|-" in out

    def test_json(self, capsys):
        code, out, _ = _run(capsys, "--json", "ipc", "p \\/ ~p")
        assert json.loads(out) == {"provable": False, "trace": None}

    def test_trace_stable_across_hash_seeds(self):
        for formula in (
                "((p /\\ q) /\\ (r \\/ s)) -> ((q /\\ p) /\\ (s \\/ r))",
                # two invertible left candidates, then two L-imp-imp
                # candidates that both lead to a proof: each tie-break
                # decides the trace
                "(((p -> p) -> q) /\\ ((r -> r) -> q)) /\\ (s \\/ t) -> q /\\ (t \\/ s)",
                "((p -> p) -> q) -> ((r -> r) -> q) -> q"):
            argv = ("--json", "ipc", "--trace", formula)
            outs = {_module_run(*argv, PYTHONHASHSEED=str(seed)).stdout
                    for seed in range(4)}
            assert len(outs) == 1
            assert json.loads(outs.pop())["provable"] is True

    def test_json_trace_replays(self, capsys):
        code, out, _ = _run(capsys, "--json", "ipc", "--trace",
                            "((p /\\ q) /\\ (r \\/ s)) -> ((q /\\ p) /\\ (s \\/ r))")
        root = json.loads(out)["trace"]
        assert code == 0 and validate_trace(_trace_from_json(root))
        steps, axioms = [root], []
        while steps:
            step = steps.pop()
            steps.extend(step["children"])
            if step["rule"] == "axiom":
                axioms.append(step)
        assert root["principal"] is None and axioms
        # an axiom whose principal is another hypothesis no longer replays
        step = axioms[0]
        other = next(h for h in step["sequent"].split(" |- ")[0].split(", ")
                     if h != step["principal"])
        step["principal"] = other
        assert not validate_trace(_trace_from_json(root))


# lemmas that load_rulebase rejects: a letter that is bot or not an
# identifier, and a law that is not admitted
BAD_LEMMAS = (
    {"law": "dual-imp-neg", "phi": "bot", "dual": "b"},
    {"law": "delta-premise", "lhs": "a b", "rhs": "c"},
    {"law": "dual-disjoint", "phi": "a", "dual": "b"},
)


class TestVerifyRules:
    def test_shipped_clean(self, capsys):
        code, out, _ = _run(capsys, "verify-rules")
        assert code == 0
        assert "failed: 0" in out

    def test_failing_rulebase_nonzero(self, capsys, tmp_path):
        bad = {"rules": [{"id": "r1", "premises": [], "conclusion": "DNE:S(k)",
                          "cite": {"ref": "Fact 2.2", "quote": "q"},
                          "verify": {"kind": "propositional",
                                     "skeleton": "a -> b"}}],
               "inclusions": [], "separations": []}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(bad))
        code, out, _ = _run(capsys, "verify-rules", "--rulebase", str(path))
        assert code == 1 and "failed: 1" in out

    @pytest.mark.parametrize("data, named", [
        ({"rules": [1]}, "rule entry 0"),
        ({"rules": [{"id": "r1", "premises": [],
                     "cite": {"ref": "Fact 2.2", "quote": "q"}}]}, "rule r1"),
        ({"rules": [], "separations": [{"id": "s1", "theory": [],
                                        "cite": {"ref": "Fact 2.2", "quote": "q"}}]},
         "separation s1"),
        *(({"rules": [{"id": "r1", "conclusion": "DNE:S(k)",
                       "cite": {"ref": "Fact 2.2", "quote": "q"},
                       "verify": {"kind": "propositional", "skeleton": "a",
                                  "lemmas": [lemma]}}]}, "rule r1")
          for lemma in BAD_LEMMAS),
    ])
    def test_malformed_entry_named(self, capsys, tmp_path, data, named):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        code, _, err = _run(capsys, "closure", "--base", "", "--kmax", "1",
                            "--rulebase", str(path))
        assert code == 1 and named in err
        assert err.startswith("error:") and err.count("\n") == 1

    @pytest.mark.parametrize("data, named", [
        ({"rules": [{"id": "r1", "conclusion": 1}]}, "rule r1"),
        ({"rules": [{"id": "r1", "conclusion": "DNE:S(k)", "guard": 5}]}, "rule r1"),
        # levels and guards are ASCII digits, not any Unicode decimal
        ({"rules": [{"id": "r1", "conclusion": "DNE:S(k)", "guard": "k>=\u0661"}]},
         "rule r1: bad guard"),
        ({"rules": [{"id": "r1", "conclusion": "DNE:S(k)", "premises": ["LEM:S(k-\u0661)"]}]},
         "rule r1: bad class literal"),
        ({"rules": [{"id": "r1", "conclusion": "DNE:S(k)",
                     "premises": "LEM:S(k)"}]}, "rule r1"),
        ({"rules": [{"id": "r1", "conclusion": "FOO:S(k)"}]}, "rule r1"),
        ({"rules": [], "inclusions": 5}, "'inclusions'"),
        ({"rules": [], "separations": [{"id": "s1", "theory": 7,
                                        "unprovable": "DNE:S(k)"}]}, "separation s1"),
        ({"rules": [{"id": "r1", "conclusion": "DNE:S(k)",
                     "verify": {"kind": "propositional", "skeleton": 5}}]}, "rule r1"),
        ({"rules": [{"id": "r1", "conclusion": "DNE:S(k)",
                     "verify": {"kind": "propositional", "skeleton": "a",
                                "lemmas": 5}}]}, "rule r1"),
        ({"rules": [{"id": "r1", "conclusion": "DNE:S(k)",
                     "verify": {"kind": "propositional", "skeleton": "a",
                                "lemmas": [1]}}]}, "rule r1"),
        ({"rules": [{"id": "r1", "conclusion": "DNE:S(k)",
                     "verify": {"kind": "propositional", "skeleton": "a",
                                "lemmas": [{"law": "dual-imp-neg", "phi": "a"}]}}]},
         "rule r1"),
        ({"rules": [{"id": "r1", "conclusion": "DNE:S(k)",
                     "verify": {"kind": "propositional", "skeleton": "a",
                                "lemmas": [{"law": "dual-imp-neg", "phi": 1,
                                            "dual": "b"}]}}]}, "rule r1"),
        *(({"rules": [{"id": "r1", "conclusion": "DNE:S(k)",
                       "verify": {"kind": "propositional", "skeleton": "a",
                                  "lemmas": [lemma]}}]}, "rule r1")
          for lemma in BAD_LEMMAS),
        # skeletons that load but that the prover cannot take
        *(({"rules": [{"id": "r1", "conclusion": "DNE:S(k)",
                       "verify": {"kind": "propositional", "skeleton": skeleton}}]},
           "rule r1")
          for skeleton in ("a ->", " -> ".join("abcdefghijklm"))),
    ])
    def test_malformed_field_named(self, tmp_path, data, named):
        for entry in data["rules"] + data.get("separations", []):
            entry["cite"] = {"ref": "Fact 2.2", "quote": "q"}
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(data))
        proc = _module_run("verify-rules", "--rulebase", str(path))
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert named in proc.stderr and "Traceback" not in proc.stderr

    def test_env_var_override(self, capsys, tmp_path, monkeypatch):
        empty = {"rules": [], "inclusions": [], "separations": []}
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(empty))
        monkeypatch.setenv("SCA_RULEBASE", str(path))
        code, out, _ = _run(capsys, "--json", "verify-rules")
        assert code == 0
        assert json.loads(out)["verified"] == 0


class TestQueryClosure:
    def test_query_derivable_cites(self, capsys):
        code, out, _ = _run(capsys, "query", "--base", "COLL:P3",
                            "--goal", "DML:P3", "--kmax", "5")
        assert code == 0
        assert out.startswith("DERIVABLE\n")
        assert "Cor 7.7" in out

    def test_query_chain_stable_across_hash_seeds(self):
        argv = ("--json", "query", "--base", "DNEOR:D2:nP2",
                "--goal", "DNEOR:D0:S1", "--kmax", "4")
        outs = {_module_run(*argv, PYTHONHASHSEED=str(seed)).stdout
                for seed in range(4)}
        assert len(outs) == 1
        assert json.loads(outs.pop())["result"] == "DERIVABLE"

    def test_query_separated(self, capsys):
        code, out, _ = _run(capsys, "--json", "query", "--base", "",
                            "--goal", "DML:S1", "--kmax", "3")
        payload = json.loads(out)
        assert code == 0 and payload["result"] == "SEPARATED"
        assert payload["fact"] == "sep-dml-s1"
        assert set(payload["witness"]) == {"k", "theory", "unprovable", "cite"}

    def test_query_unknown(self, capsys):
        argv = ("query", "--base", "", "--goal", "CD:D1:nP1", "--kmax", "3")
        assert _run(capsys, *argv) == (0, "UNKNOWN\n", "")
        code, out, _ = _run(capsys, "--json", *argv)
        assert code == 0
        assert json.loads(out) == {"boundary_warning": False, "result": "UNKNOWN"}

    def test_query_unknown_near_a_clamped_level(self, capsys, tmp_path):
        """A rule that concludes above its premise's level is clamped at
        the cap, and an UNKNOWN whose levels are near the clamp says so."""
        rules = {"rules": [{"id": "r1", "premises": ["LEM:S(k)"],
                            "conclusion": "DNE:S(k+1)",
                            "cite": {"ref": "Fact 2.2", "quote": "q"}}]}
        path = tmp_path / "one-rule.json"
        path.write_text(json.dumps(rules))
        argv = ("query", "--base", "LEM:S3", "--goal", "DML:S3", "--kmax", "3",
                "--rulebase", str(path))
        assert _run(capsys, *argv) == (
            0, "UNKNOWN\n  (level cap may have interfered; raise --kmax)\n", "")
        code, out, _ = _run(capsys, "--json", *argv)
        assert code == 0
        assert json.loads(out) == {"boundary_warning": True, "result": "UNKNOWN"}

    def test_closure_contains_goal(self, capsys):
        code, out, _ = _run(capsys, "closure", "--base", "LEM:P2,DNE:S2",
                            "--kmax", "4")
        assert code == 0 and "LEM:S2" in out.splitlines()

    def test_closure_json_schema(self, capsys):
        code, out, _ = _run(capsys, "--json", "closure", "--base", "LEM:S1",
                            "--kmax", "2")
        payload = json.loads(out)
        assert set(payload) == {"base", "k_max", "closure"}

    def test_level_out_of_range_domain_error(self, capsys):
        code, _, err = _run(capsys, "query", "--base", "", "--goal", "DNE:S9",
                            "--kmax", "3")
        assert code == 1


class TestEquiv:
    def test_members(self, capsys):
        code, out, _ = _run(capsys, "equiv", "DNE:S1", "--kmax", "4")
        lines = out.splitlines()
        assert code == 0
        for node in ("DNE:S1", "PEIRCE:S1", "DNE:P2", "DUAL:P1"):
            assert node in lines


# Every entry point that reads request node text, NODE standing for it.
_NODE_ENTRY_POINTS = {
    "closure": ["closure", "--base", "NODE", "--kmax", "3"],
    "query-base": ["query", "--base", "NODE", "--goal", "DNE:S1", "--kmax", "3"],
    "query-goal": ["query", "--base", "LEM:S1", "--goal", "NODE", "--kmax", "3"],
    "equiv": ["equiv", "NODE", "--kmax", "3"],
    "relclassify": ["relclassify", "E x < y. A z. (x < z)", "--theory", "NODE"],
    "instantiate": ["instantiate", "NODE", "--phi", "x = y"],
}

# Node text as written, its canonical form and its level.
_SPELLINGS = [
    ("DML:S1", "DML:S1:S1", 1),
    ("LEM:P0", "LEM:S0", 0),
    ("DNEOR:P9:P10", "DNEOR:P10:P9", 10),
    ("LEM:S01", "LEM:S1", 1),
    (" LEM:S1 ", "LEM:S1", 1),
]


class TestRequestNodeText:
    """Request node text reads the same at every entry point: a relative
    level, a malformed literal, an unknown family, a wrong arity or a Delta
    variant whose first class is not D is one error line, and every other
    spelling of a node answers as its canonical form."""

    @pytest.mark.parametrize("entry", sorted(_NODE_ENTRY_POINTS))
    @pytest.mark.parametrize("text, message", [
        ("LEM:S(k)", "bad class literal: 'S(k)'"),
        ("LEM:nS(k-1)", "bad class literal: 'nS(k-1)'"),
        ("LEM:X(k)", "bad class literal: 'X(k)'"),
        # a level is ASCII digits, not any Unicode decimal (an Arabic-Indic one)
        ("LEM:S\u0661", "bad class literal: 'S\u0661'"),
        ("FOO:S(k)", "unknown principle family: 'FOO:S(k)'"),
        ("LEM:S1:S2", "LEM takes 1 class argument(s), got 2"),
        ("LEM:DSI:S1", "variant DeltaSigma requires a D class in the first argument: "
                       "'LEM:DSI:S1'"),
    ])
    def test_malformed_node_is_one_error_line(self, capsys, entry, text, message):
        argv = [text if a == "NODE" else a for a in _NODE_ENTRY_POINTS[entry]]
        assert _run(capsys, *argv) == (1, "", f"error: {message}\n")

    @pytest.mark.parametrize("text, canonical, level", _SPELLINGS)
    def test_context_and_goal_read_the_canonical_form(self, capsys, text, canonical, level):
        """A base lists the canonical form, a goal spelled either way is
        in a base spelled the other way (an empty chain), and a level
        above the cap is named in canonical form."""
        kmax = str(level)
        code, out, _ = _run(capsys, "--json", "closure", "--base", text, "--kmax", kmax)
        assert code == 0 and json.loads(out)["base"] == [canonical]
        for base, goal in ((text, canonical), (canonical, text)):
            code, out, _ = _run(capsys, "--json", "query", "--base", base, "--goal", goal,
                                "--kmax", kmax)
            assert (code, json.loads(out)) == (0, {"result": "DERIVABLE", "chain": []})
        if level:
            below = f"error: {canonical} exceeds k_max={level - 1}\n"
            assert _run(capsys, "closure", "--base", text, "--kmax", str(level - 1)) == (
                1, "", below)
            assert _run(capsys, "query", "--base", "", "--goal", text,
                        "--kmax", str(level - 1)) == (1, "", below)

    @pytest.mark.parametrize("text, canonical, level", _SPELLINGS)
    def test_equiv_reads_the_canonical_form(self, capsys, text, canonical, level):
        assert _run(capsys, "equiv", text, "--kmax", str(level + 1)) == (
            1, "", f"error: {canonical} needs k_max >= level + 2 (k_max={level + 1})\n")
        if level <= 1:
            code, out, _ = _run(capsys, "--json", "equiv", text, "--kmax", str(level + 2))
            payload = json.loads(out)
            assert code == 0 and payload["node"] == canonical
            assert canonical in payload["equivalents"]

    @pytest.mark.parametrize("text, canonical, level", _SPELLINGS)
    def test_theory_reads_the_canonical_form(self, capsys, text, canonical, level):
        formula = "E x < y. A z. (x < z)"
        answers = {_run(capsys, "relclassify", formula, "--theory", theory)
                   for theory in (text, canonical)}
        assert len(answers) == 1
        if canonical == "DML:S1:S1":  # the bounded quantifier collapses
            assert answers == {(0, "Pi 1\n", "")}

    def test_first_node_above_the_cap_does_not_depend_on_the_hash_seed(self):
        """Of several nodes above the cap, the error names the first in
        text order."""
        argv = ("closure", "--base", "LEM:S5,DNE:S6,DML:S7", "--kmax", "3")
        errors = {_module_run(*argv, PYTHONHASHSEED=str(seed)).stderr for seed in range(4)}
        assert errors == {"error: DML:S7:S7 exceeds k_max=3\n"}

    @pytest.mark.parametrize("text, arity, node", [
        ("DML:S1", 2, "DML:S1:S1"), ("LEM:P0", 1, "LEM:P0"),
        ("DNEOR:P9:P10", 2, "DNEOR:P9:P10"), ("LEM:S01", 1, "LEM:S1"),
        (" LEM:S1 ", 1, "LEM:S1"),
    ])
    def test_instantiate_keeps_the_order_written(self, capsys, text, arity, node):
        """A schema instance names its node as instantiated: the diagonal
        written out and each level in digits, P0 and the argument order
        as written."""
        witnesses = ["--phi", "x = y", "--psi", "x = 0"][:2 * arity]
        code, out, _ = _run(capsys, "--json", "instantiate", text, *witnesses)
        assert code == 0 and json.loads(out)["node"] == node


class TestGraph:
    def test_writes_dot(self, capsys, tmp_path):
        out_path = tmp_path / "fig.dot"
        code, out, _ = _run(capsys, "graph", "--preset", "abhk", "--k", "2",
                            "--out", str(out_path))
        assert code == 0
        text = out_path.read_text("utf-8")
        assert text.startswith("digraph abhk {")

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.dot", tmp_path / "b.dot"
        _run(capsys, "graph", "--preset", "dns", "--k", "2", "--out", str(a))
        _run(capsys, "graph", "--preset", "dns", "--k", "2", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_k_below_preset_minimum_is_domain_error(self):
        proc = _module_run("graph", "--preset", "cd", "--k", "1", "--out", os.devnull)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("preset", ["abhk", "dns", "cd"])
    def test_stable_across_hash_seeds(self, tmp_path, preset):
        texts = set()
        for seed in (0, 1):
            out = tmp_path / f"{seed}.dot"
            proc = _module_run("graph", "--preset", preset, "--k", "2", "--out",
                               str(out), PYTHONHASHSEED=str(seed))
            assert proc.returncode == 0
            texts.add(out.read_bytes())
        assert len(texts) == 1

    def test_bad_preset_is_usage_error(self, capsys):
        code, _, _ = _run(capsys, "graph", "--preset", "nope", "--k", "2",
                          "--out", "/tmp/x.dot")
        assert code == 2


class TestUsage:
    def test_unknown_subcommand(self, capsys):
        assert _run(capsys, "frobnicate")[0] == 2

    def test_missing_required_flag(self, capsys):
        assert _run(capsys, "query", "--base", "LEM:S1")[0] == 2

    def test_repeated_output_identical(self, capsys):
        a = _run(capsys, "--json", "equiv", "LEM:S0", "--kmax", "2")
        b = _run(capsys, "--json", "equiv", "LEM:S0", "--kmax", "2")
        assert a == b


# Each subcommand and the sca modules a cold process running it loads.
_ENGINE = {"cli", "derivability", "nodes"}
_SYNTAX = {"cli", "formulas", "hierarchy", "nodes"}
_LOADED = [
    (["classify", "A x. (x = x)"], _SYNTAX),
    (["dual", "E x. A y. (x < y)"], _SYNTAX | {"duality"}),
    (["merge", "E x. E y. A z. (x + y = z)"], _SYNTAX),
    (["relclassify", "~(E x. (x = y))", "--theory", "DNE:S0"], _SYNTAX),
    (["instantiate", "LEM:S1", "--phi", "E x. (x = y)"],
     _SYNTAX | {"duality", "principles"}),
    (["--json", "ipc", "--trace", "p -> ~~p"], {"cli", "formulas", "ipc"}),
    (["ipc", "--trace", "p -> ~~p"], {"cli", "formulas", "ipc"}),
    (["verify-rules"], {"cli", "derivability", "formulas", "ipc", "nodes"}),
    (["closure", "--base", "LEM:S1", "--kmax", "3"], _ENGINE),
    (["query", "--base", "LEM:S1", "--goal", "DNE:S1", "--kmax", "3"], _ENGINE),
    (["equiv", "LEM:S1", "--kmax", "3"], _ENGINE),
    (["graph", "--preset", "abhk", "--k", "2", "--out", "OUT"], _ENGINE),
    (["frobnicate"], {"cli"}),
]


# Inputs thousands deep: (id, text, each command's output; relclassify's
# is classify's).  The first two ids are those of the cases before the
# others were added.
_CHAIN = " /\\ ".join(["x = 0"] * 3000)
_ARROWS = " -> ".join(["x = 0"] * 3000)
# in the merge, each outer duplicate binder gets the next free suffix
_RENAMED = "".join(f"A y{i}. E x{i}. " for i in reversed(range(1499)))
_LONG = [
    ("-Sigma 0", _CHAIN, {"classify": "Sigma 0", "dual": f"~({_CHAIN})", "merge": _CHAIN}),
    ("E x. -Sigma 1", "E x. " + _CHAIN,
     {"classify": "Sigma 1", "dual": f"A x. ~({_CHAIN})", "merge": "E x. " + _CHAIN}),
    ("pair", "E x. E y. " + _CHAIN,
     {"classify": "Sigma 1", "dual": f"A x. A y. ~({_CHAIN})",
      "merge": "E u. " + _CHAIN.replace("x", "p0(u)")}),
    ("arrows", _ARROWS, {"classify": "Sigma 0", "dual": f"~({_ARROWS})", "merge": _ARROWS}),
    ("alternations", "A y. E x. " * 1500 + "x = y",
     {"classify": "Pi 3000", "dual": "E y. A x. " * 1500 + "~(x = y)",
      "merge": _RENAMED + "A y. E x. x = y"}),
]


class TestProcess:
    def test_module_mode(self):
        proc = _module_run("classify", "A x. (x = x)")
        assert proc.returncode == 0 and proc.stdout == "Pi 1\n"

    @pytest.mark.parametrize("argv, loaded", _LOADED, ids=[
        a[1] if a[0] == "--json" else "ipc-text" if a[0] == "ipc" else a[0] for a, _ in _LOADED])
    def test_subcommand_loads_only_its_modules(self, tmp_path, argv, loaded):
        """A cold process imports only the modules its subcommand runs:
        a module imported for nothing costs every process its compile.
        No subcommand loads dataclasses or inspect, whose imports cost
        more than most of the package's own modules, and the subcommands
        that neither print JSON nor read a rule base do not load json."""
        argv = [str(tmp_path / "fig.dot") if a == "OUT" else a for a in argv]
        proc = _python("-c", "import sys\n"
                       "from sca.cli import run\n"
                       f"code = run({argv!r})\n"
                       "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))\n"
                       "print('json' in sys.modules)\n"
                       "print(code, *sorted(m for m in sys.modules if m.startswith('sca.')))")
        *_, unwanted, json_loaded, last = proc.stdout.splitlines()
        code, *modules = last.split()
        assert code == ("2" if argv == ["frobnicate"] else "0"), proc.stderr
        assert modules == sorted(f"sca.{m}" for m in loaded)
        assert unwanted == "[]"
        if argv[0] in {"classify", "dual", "merge", "relclassify", "instantiate", "ipc"}:
            assert json_loaded == "False"

    @pytest.mark.parametrize("argv", [
        ["classify", "~" * 3000 + "(x = 0)"],
        ["ipc", "~" * 3000 + "p"],
        ["classify", "(" * 3000 + "x = 0" + ")" * 3000],
        # the prover's search takes one frame per step of the proof
        ["ipc", " /\\ ".join(f"p{i}" for i in range(1, 3001)) + " -> p0"],
        ["ipc", " -> ".join(["p"] * 3000)],
    ])
    def test_deep_input_is_domain_error(self, argv):
        proc = _module_run(*argv)
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:")
        assert "Traceback" not in proc.stderr

    @pytest.mark.parametrize("argv, answer", [
        (["ipc"], "PROVABLE\n"),
        (["--json", "ipc", "--trace"], '{\n  "provable": true,\n'),
    ], ids=["text", "json"])
    def test_four_hundred_link_chain_proves(self, argv, answer):
        """p0 -> p1 -> ... -> p399 -> p0 takes 400 R-imp steps and an
        axiom.  Run in a fresh interpreter: in process, pytest's own frames
        use up the stack the search needs."""
        chain = " -> ".join(f"p{i}" for i in range(400)) + " -> p0"
        proc = _module_run(*argv, chain)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith(answer)

    def test_nine_hundred_link_chain_proves(self):
        """Hashing a formula costs no recursion, so the search's one frame
        per step is the only limit: about 980 links in a fresh
        interpreter, 493 when hashing recursed.  The text trace prints
        with an explicit stack, one line per proof step: 900 R-imp steps
        and an axiom."""
        chain = " -> ".join(f"p{i}" for i in range(900)) + " -> p0"
        proc = _module_run("ipc", chain)
        assert (proc.returncode, proc.stdout, proc.stderr) == (0, "PROVABLE\n", "")
        proc = _module_run("ipc", "--trace", chain)
        assert (proc.returncode, proc.stderr) == (0, "")
        verdict, *steps = proc.stdout.splitlines()
        assert verdict == "PROVABLE"
        assert [step.split(":")[0].strip() for step in steps] == ["R-imp"] * 900 + ["axiom"]

    def test_closure_where_arguments_order_by_text(self):
        """DNEOR's arguments sort by their text, so P10 comes before P9."""
        proc = _module_run("closure", "--base", "DNEOR:P9:P10", "--kmax", "10")
        assert (proc.returncode, proc.stderr) == (0, "")
        lines = proc.stdout.splitlines()
        assert len(lines) == 10_643 and "DNEOR:P10:P9" in lines

    def test_long_run_of_like_quantifiers_merges(self):
        """Merging a run of n like quantifiers is one pass; the answer
        has about n^2 characters (726,597 here), one projection path per
        variable."""
        n = 600
        block = ("".join(f"E x{i}. " for i in range(n))
                 + " /\\ ".join(f"x{i} = 0" for i in range(n)))
        proc = _module_run("merge", block)
        assert (proc.returncode, proc.stderr) == (0, "")
        assert proc.stdout.startswith("E u. ")

    @pytest.mark.parametrize("text, answers", [c[1:] for c in _LONG], ids=[c[0] for c in _LONG])
    @pytest.mark.parametrize("command", ["classify", "relclassify", "merge", "dual"])
    def test_flat_chain_thousands_long(self, capsys, command, text, answers):
        """Inputs as deep as they are long: a conjunction of 3000 atoms
        parses into a left-nested And, a 3000-long -> chain into a
        right-nested Imp, and a prefix of 3000 quantifiers into as many
        nested quantifiers; every command answers them.  The output text
        is compared, not formulas: the equality of formulas recurses."""
        theory = ["--theory", "DNE:S1"] if command == "relclassify" else []
        code, out, err = _run(capsys, command, text, *theory)
        assert (code, err) == (0, "")
        assert out == answers.get(command, answers["classify"]) + "\n"

    def test_huge_level_is_domain_error(self):
        # a level past any index: grounding cannot even size its range
        proc = _module_run("closure", "--base", "LEM:S1", "--kmax",
                           "100000000000000000000")
        assert proc.returncode == 1
        assert proc.stderr.startswith("error:") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert "k_max" in proc.stderr

    @pytest.mark.parametrize("command", [
        ["closure", "--base", "LEM:S1"],
        ["query", "--base", "LEM:S1", "--goal", "DNE:S1"],
        ["equiv", "DNE:S1"],
    ])
    def test_level_cap_past_limit_is_domain_error(self, capsys, command):
        code, _, err = _run(capsys, *command, "--kmax", str(K_MAX_LIMIT + 1))
        assert code == 1
        assert err == f"error: k_max={K_MAX_LIMIT + 1} exceeds the limit {K_MAX_LIMIT}\n"

    @pytest.mark.parametrize("command", [
        ["closure", "--base", ""],
        ["query", "--base", "LEM:S1", "--goal", "DNE:S1"],
        ["equiv", "DNE:S1"],
    ])
    def test_negative_level_cap_is_domain_error(self, command):
        proc = _module_run(*command, "--kmax", "-1")
        assert proc.returncode == 1
        assert proc.stderr == "error: k_max=-1 is below the bound 0\n"


# Random command lines: subcommands with valid and malformed nodes,
# formulas and levels, plus stray tokens.

FORMULAS = ["A x. (x = x)", "E x. A y. (x < y)", "~~(x = 0)",
            "A x. E y. ((x = y) \\/ ~(x = y))", "E y < x. (y = y)",
            "p -> p", "((p -> q) -> p) -> p", "p \\/ ~p", "(p /\\ q",
            "A x.", "x =", "", "~" * 40 + "p", "E x. (x = 0) -> p"]
NODES = ["LEM:S1", "DNE:S0", "DML:S1:P1", "DML:S1", "DNEOR:P1:P1", "COLL:P2",
         "LEM:DPI:D1", "LEM:P0", "LEM:nS1", "CD:nS1:nP1", "PEIRCE:S1", "LN:P1",
         "DNS:S0", "DUAL:DSI:D1", "WDUAL:P1", "LEMBOT:S1", "DMLBOT:DPI:D1:S1",
         "DNE:S9", "FOO:S1", "DNE:X1", "LEM:S1:S1", "CD:nS1:THETA", "LEM:", ":", "",
         "LEM:DSI:S1"]
LEVELS = ["0", "1", "2", "3", "4", "-1", "x", "", "100000000000000000000"]
STRAY = ["--json", "--trace", "--help", "--kmax", "--frob", "extra", "--base"]


def _argv(draw, out_dir: pathlib.Path) -> list[str]:
    """A subcommand with flags drawn from pools of valid and malformed
    values, an optional --json and an optional stray token."""
    def pick(pool):
        return draw(st.sampled_from(pool))

    def nodes():
        return ",".join(draw(st.lists(st.sampled_from(NODES), max_size=3)))

    def rulebase():
        return ["--rulebase", pick([str(out_dir / "bad.json"),
                                    str(out_dir / "absent.json"), str(out_dir)])]

    def witnesses():
        n = pick([0, 1, 3])
        return [w for flag in ("--psi", "--phi2", "--psi2")[:n]
                for w in (flag, pick(FORMULAS))]

    cmd = pick(["classify", "dual", "merge", "relclassify", "instantiate", "ipc",
                "verify-rules", "closure", "query", "equiv", "graph", "frob"])
    args = {
        "relclassify": lambda: [pick(FORMULAS), "--theory", nodes()],
        "instantiate": lambda: [pick(NODES), "--phi", pick(FORMULAS), *witnesses()],
        "ipc": lambda: [pick(FORMULAS), *pick([[], ["--trace"]])],
        "verify-rules": lambda: pick([[], rulebase()]),
        "closure": lambda: ["--base", nodes(), "--kmax", pick(LEVELS)],
        "query": lambda: ["--base", nodes(), "--goal", pick(NODES),
                          "--kmax", pick(LEVELS)],
        "equiv": lambda: [pick(NODES), "--kmax", pick(LEVELS)],
        "graph": lambda: ["--preset", pick(["abhk", "dns", "cd", "x"]),
                          "--k", pick(LEVELS), "--out", str(out_dir / "fig.dot")],
    }.get(cmd, lambda: [pick(FORMULAS)])()
    if cmd in ("closure", "query", "equiv", "graph") and draw(st.booleans()):
        args += rulebase()
    head = ["--json"] if draw(st.booleans()) else []
    return head + [cmd] + args + draw(st.lists(st.sampled_from(STRAY), max_size=1))


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz")
    (path / "bad.json").write_text('{"rules": [{"id": "r1", "conclusion": 1}]}')
    return path


class TestFuzz:
    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_random_argv_exit_code(self, fuzz_dir, data):
        argv = _argv(data.draw, fuzz_dir)
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        assert code in (0, 1, 2), argv
