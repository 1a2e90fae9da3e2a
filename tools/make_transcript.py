#!/usr/bin/env python3
"""Generate tests/transcript.jsonl, the golden transcript of the toolkit's
answers.

Each line is one sorted-key JSON object:

- every row of perfbench/cli_table.py, run in process through sca.cli.run:
  exit code, stdout, stderr and the figure file it wrote, the rule-base
  copy and the output directory written as RB and OUT;
- the --json answers of a seeded comparison set over one loaded rule
  base: queries of random bases at k_max 3-5, the closure of a one-rule
  base whose rule is clamped at the cap and a query near the clamp,
  equivalence classes, and the size and SHA-256 of three large closures.

An answer that changes shows as a changed line.  Run from the repository
root; an argument names another file to write:

    python tools/make_transcript.py [PATH]
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import random
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import cli_table  # noqa: E402
from sca import cli  # noqa: E402
from sca.derivability import (  # noqa: E402
    TheoryContext, closure, equivalence_class, ground_pattern, load_default_rulebase,
    load_rulebase, query,
)
from sca.nodes import ground_node  # noqa: E402

SEED = 15
QUERY_KMAX = (3, 4, 5)
BASES_PER_KMAX = 20
GOALS_PER_BASE = 4
# The rule of tests/test_cli.py's clamp test: its conclusion is one level
# above its premise, so at the cap the instance is a clamp marker.
CLAMP_RULEBASE = {"rules": [{"id": "r1", "premises": ["LEM:S(k)"], "conclusion": "DNE:S(k+1)",
                             "cite": {"ref": "Fact 2.2", "quote": "q"}}]}
EQUIV_NODES = ("LEM:S1", "DNE:S1", "LEM:P1", "DML:S1", "LEM:D1", "DML:nD1", "CD:nS1:nS1")
EQUIV_KMAX = 3
LARGE_CLOSURES = ((("LEM:S20",), 20), (("DML:nnD10:nD10",), 10), (("DNEOR:P9:P10",), 10))


def line(**fields) -> str:
    return json.dumps(fields, sort_keys=True) + "\n"


def cli_rows() -> list[str]:
    """Each cli_table row as run by sca.cli.run in this process."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        rulebase, out_dir = os.path.join(tmp, "rulebase.json"), os.path.join(tmp, "out")
        shutil.copy(ROOT / "src" / "sca" / "data" / "rulebase.json", rulebase)
        os.mkdir(out_dir)

        def placed(text: str) -> str:
            return text.replace(rulebase, "RB").replace(out_dir, "OUT")

        for entry in cli_table.TABLE:
            cli_table.clear_outputs(entry, out_dir)
            stdout, stderr = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
                code = cli.run(cli_table.expand(entry[1], rulebase, out_dir))
            figure = None
            if "dot" in entry[3]:
                path = entry[3]["dot"][0].replace("OUT", out_dir)
                with open(path, encoding="utf-8") as fh:
                    figure = fh.read()
            out.append(line(kind="cli", argv=entry[1], code=code, stdout=placed(stdout.getvalue()),
                            stderr=placed(stderr.getvalue()), figure=figure))
    return out


def node_pool(rb, k_max: int) -> list[str]:
    """The nodes the rules name at levels up to the cap, sorted."""
    texts = {ground_pattern(p, k) for rule in rb.rules
             for p in (*rule.premises, rule.conclusion) for k in range(k_max + 1)}
    return sorted(n for n in texts - {None} if ground_node(n)[1] <= k_max)


def comparison_set() -> list[str]:
    rb = load_default_rulebase()
    rng = random.Random(SEED)
    out = []
    for k_max in QUERY_KMAX:
        pool = node_pool(rb, k_max)
        for _ in range(BASES_PER_KMAX):
            ctx = TheoryContext.make(rng.sample(pool, rng.randint(1, 3)), k_max)
            derived = sorted(closure(ctx, rb) - ctx.assumed)
            # half the goals from the closure, so that chains are compared too
            goals = rng.sample(derived, min(len(derived), GOALS_PER_BASE // 2))
            goals += rng.sample(pool, GOALS_PER_BASE - len(goals))
            for goal in goals:
                out.append(line(kind="query", base=sorted(ctx.assumed), goal=goal, k_max=k_max,
                                answer=cli._query_json(query(ctx, goal, rb), rb)))

    clamp_rb, clamp_ctx = load_rulebase(CLAMP_RULEBASE), TheoryContext.make(["LEM:S3"], 3)
    out.append(line(kind="closure", base=sorted(clamp_ctx.assumed), k_max=3,
                    closure=sorted(closure(clamp_ctx, clamp_rb))))
    out.append(line(kind="query", base=sorted(clamp_ctx.assumed), goal="DML:S3", k_max=3,
                    answer=cli._query_json(query(clamp_ctx, "DML:S3", clamp_rb), clamp_rb)))

    for node in EQUIV_NODES:
        members = equivalence_class(node, TheoryContext.make((), EQUIV_KMAX), rb)
        out.append(line(kind="equiv", node=ground_node(node)[0], k_max=EQUIV_KMAX,
                        equivalents=sorted(members)))

    for base, k_max in LARGE_CLOSURES:
        nodes = sorted(closure(TheoryContext.make(base, k_max), rb))
        digest = hashlib.sha256("".join(n + "\n" for n in nodes).encode()).hexdigest()
        out.append(line(kind="large-closure", base=list(base), k_max=k_max, size=len(nodes),
                        sha256=digest))
    return out


def main() -> None:
    path = sys.argv[1] if len(sys.argv) > 1 else ROOT / "tests" / "transcript.jsonl"
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.writelines(cli_rows() + comparison_set())


if __name__ == "__main__":
    main()
