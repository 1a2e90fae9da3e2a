"""Hand-written CLI commands with their known answers.

Each entry: the subcommand name (for per-command timings), the argument
list, the expected exit code, and what the output must be:

- ``out``: the exact standard output;
- ``lines``: lines standard output must contain;
- ``json``: the parsed ``--json`` output;
- ``closure``: (base, k_max) whose reference closure the output must list;
- ``dot``: (file, node count, edge count, an edge line the file must hold);
- ``err``: text standard error must contain (exit codes 1 and 2).

Standard output must be non-empty for exit code 0, and no command may
print a traceback.  ``RB`` is replaced by the path of a copy of the
shipped rule base, ``OUT`` by the output directory.
"""

from __future__ import annotations

import json
import os

TABLE = [
    ("classify", ["classify", "A x. E y. (y = x + 0)"], 0, {"out": "Pi 2"}),
    ("classify", ["classify", "E x. A y. E z. (x < y + z)"], 0, {"out": "Sigma 3"}),
    ("classify", ["--json", "classify", "A x. (x = x)"], 0,
     {"json": {"level": 1, "polarity": "Pi"}}),
    ("dual", ["dual", "E x. A y. (x < y)"], 0, {"out": "A x. E y. ~(x < y)"}),
    ("merge", ["merge", "E x. E y. A z. (x + y = z)"], 0,
     {"out": "E u. A z. p0(u) + p1(u) = z"}),
    ("relclassify", ["relclassify", "~(E x. (x = y))", "--theory", "DNE:S0"], 0,
     {"out": "Pi 1"}),
    ("relclassify", ["relclassify", "E x < y. A z. (x < z)",
                     "--theory", "DML:S1,DNE:S0"], 0, {"out": "Pi 1"}),
    ("instantiate", ["instantiate", "LEM:S1", "--phi", "E x. (x = y)"], 0,
     {"out": "(E x. x = y) \\/ ~(E x. x = y)"}),
    ("instantiate", ["instantiate", "DML:S0:P1", "--phi", "x = y",
                     "--psi", "A z. (z < x)"], 0,
     {"out": "~(x = y /\\ (A z. z < x)) -> ~(x = y) \\/ ~(A z. z < x)"}),
    ("ipc", ["ipc", "((p->q)->p)->p"], 0, {"out": "UNPROVABLE"}),
    ("ipc", ["ipc", "p -> ~~p"], 0, {"out": "PROVABLE"}),
    ("ipc", ["ipc", "--trace", "(p /\\ q) -> (q /\\ p)"], 0,
     {"lines": ["PROVABLE", "R-imp: |- p /\\ q -> q /\\ p"]}),
    ("ipc", ["--json", "ipc", "~~(p \\/ ~p)"], 0,
     {"json": {"provable": True, "trace": None}}),
    ("verify-rules", ["verify-rules"], 0, {"lines": ["failed: 0"]}),
    ("verify-rules", ["verify-rules", "--rulebase", "RB"], 0, {"lines": ["failed: 0"]}),
    ("closure", ["closure", "--base", "LEM:P2,DNE:S2", "--kmax", "4"], 0,
     {"closure": (["LEM:P2", "DNE:S2"], 4)}),
    ("closure", ["closure", "--base", "LEM:S1", "--kmax", "3", "--rulebase", "RB"], 0,
     {"closure": (["LEM:S1"], 3)}),
    ("query", ["query", "--base", "LEM:S1", "--goal", "DNE:S1", "--kmax", "3"], 0,
     {"lines": ["DERIVABLE", "  LEM:S1 => DNE:S1  [fact-2.2-S: Fact 2.2]"]}),
    ("query", ["query", "--base", "", "--goal", "DML:S1", "--kmax", "3"], 0,
     {"lines": ["SEPARATED", "  fact: sep-dml-s1 (k=0)"]}),
    ("query", ["query", "--base", "DML:S2,DNE:S2", "--goal", "LEM:nS2", "--kmax", "4",
               "--rulebase", "RB"], 0,
     {"lines": ["SEPARATED", "  fact: sep-finsy (k=2)"]}),
    ("query", ["query", "--base", "", "--goal", "CD:D1:nP1", "--kmax", "3"], 0,
     {"out": "UNKNOWN"}),
    ("query", ["--json", "query", "--base", "LEM:nnS1", "--goal", "DML:P1:nP1",
               "--kmax", "4"], 0,
     {"json": {"result": "UNKNOWN", "boundary_warning": False}}),
    ("graph", ["graph", "--preset", "abhk", "--k", "2", "--out", "OUT/fig-abhk.dot"], 0,
     {"out": "wrote OUT/fig-abhk.dot",
      "dot": ("OUT/fig-abhk.dot", 6, 7, '"LEM:S2" -> "LEM:P2";')}),
    ("graph", ["graph", "--preset", "dns", "--k", "2", "--out", "OUT/fig-dns.dot",
               "--rulebase", "RB"], 0,
     {"out": "wrote OUT/fig-dns.dot",
      "dot": ("OUT/fig-dns.dot", 17, 31, '"LEM:S2" -> "DNE:S2";')}),
    ("error", ["classify", "E x."], 1, {"err": "error: expected a term"}),
    ("error", ["classify", "~(E x. (x = 0))"], 1, {"err": "error: not prenex"}),
    ("error", ["query", "--base", "FOO:S1", "--goal", "DNE:S1", "--kmax", "3"], 1,
     {"err": "unknown principle family"}),
    ("error", ["closure", "--base", "LEM:S5", "--kmax", "3"], 1,
     {"err": "exceeds k_max=3"}),
    ("error", ["instantiate", "LEM:S0", "--phi", "E x. (x = y)"], 1,
     {"err": "must be in Sigma 0"}),
    ("error", ["closure", "--base", "LEM:S1"], 2, {"err": "required: --kmax"}),
    ("error", ["frobnicate"], 2, {"err": "invalid choice"}),
]

# the cold process whose wall time is the cli workload's set-up time
SETUP_COMMAND = ["classify", "A x. E y. (y = x + 0)"]


def expand(argv: list[str], rulebase: str, out_dir: str) -> list[str]:
    return [rulebase if a == "RB" else a.replace("OUT", out_dir) for a in argv]


def clear_outputs(entry, out_dir: str) -> None:
    """Remove a figure an earlier run left, so that only this command's
    own output can pass the check."""
    spec = entry[3]
    if "dot" in spec:
        path = spec["dot"][0].replace("OUT", out_dir)
        if os.path.exists(path):
            os.remove(path)


def check(entry, code: int, stdout: str, stderr: str, rulebase: str, out_dir: str,
          reference) -> list[str]:
    """Problems with one command's result; empty when it is right."""
    _name, argv, want_code, spec = entry
    label = " ".join(argv)
    problems = []
    if "Traceback" in stderr:
        problems.append(f"{label}: traceback on stderr")
    if code != want_code:
        problems.append(f"{label}: exit {code}, expected {want_code}")
    if want_code == 0 and not stdout.strip():
        problems.append(f"{label}: empty stdout")
    lines = stdout.splitlines()
    if "out" in spec and stdout.rstrip("\n") != spec["out"].replace("OUT", out_dir):
        problems.append(f"{label}: stdout {stdout[:80]!r}")
    for line in spec.get("lines", ()):
        if line not in lines:
            problems.append(f"{label}: stdout lacks {line!r}")
    if "json" in spec:
        try:
            got = json.loads(stdout)
        except ValueError:
            got = None
        if got != spec["json"]:
            problems.append(f"{label}: json {stdout[:80]!r}")
    if "closure" in spec:
        base, k_max = spec["closure"]
        if set(lines) != reference.closure(base, k_max):
            problems.append(f"{label}: closure differs from the reference")
    if "dot" in spec:
        path, n_nodes, n_edges, edge = spec["dot"]
        try:
            with open(path.replace("OUT", out_dir), encoding="utf-8") as fh:
                dot = fh.read().splitlines()
        except OSError:
            dot = []
        edges = [l for l in dot if "->" in l]
        nodes = [l for l in dot if l.startswith('  "') and "->" not in l]
        if (len(nodes), len(edges)) != (n_nodes, n_edges) or f"  {edge}" not in dot:
            problems.append(f"{label}: figure has {len(nodes)} nodes, {len(edges)} edges")
    if "err" in spec and spec["err"] not in stderr:
        problems.append(f"{label}: stderr lacks {spec['err']!r}")
    return problems
