#!/usr/bin/env python3
"""Named mutants of the derivability engine: each one is an exact source
edit that some test must catch.

For each mutant the tool applies its edit to a temporary copy of the
repository, runs the tests named for it there, and prints whether they
killed it (at least one failed) or let it survive (all passed).  An edit
whose old text does not occur exactly once in its file, or whose result
does not compile, is not applied and counts as a failure, as does a test
run that errors before any test fails.  Standard library only (the named
tests need pytest and hypothesis, as tier-1 does).  Run from anywhere:

    python tools/mutants.py [NAME ...]

With names, only those mutants run.  Exits 1 if any mutant survives or
cannot be run, else 0.  tests/test_mutants.py checks that every old text
below still occurs exactly once in the source, so the list cannot go
stale unnoticed.
"""

from __future__ import annotations

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple

ROOT = pathlib.Path(__file__).resolve().parent.parent
ENGINE = "src/sca/derivability.py"

Q = "tests/test_derivability.py::TestQuery::"
CHAINS = (Q + "test_chain_replays", Q + "test_monotonicity_run_kept_where_its_node_is_used")
QUEUE = "tests/test_derivability.py::TestClosure::test_worklist_queues_each_node_once"
ORACLE = (Q + "test_separation_agrees_with_oracle", Q + "test_clamp_base_agrees_with_oracle")
SCAN = Q + "test_scan_closes_each_theory_once_per_query"
TRANSCRIPT = "tests/test_transcript.py::test_rebuild_is_byte_identical"


# One named edit: replace `old` by `new` in the file at `path` (relative
# to the repository root), then run `tests`.
Mutant = namedtuple("Mutant", "name what path old new tests")


MUTANTS = [
    # the fixpoint's worklist of nodes, each queued once
    Mutant("a", "a later step replaces the step recorded for a reached node", ENGINE,
           "            elif n not in reached:\n"
           "                reached[n] = step\n"
           "                todo.append(n)\n",
           "            else:\n"
           "                if n not in reached:\n"
           "                    todo.append(n)\n"
           "                reached[n] = step\n",
           (*CHAINS, QUEUE, TRANSCRIPT)),
    Mutant("b", "the completed instances are reached before the node's cover steps", ENGINE,
           "        steps = list(_cover_steps(rb, n))\n"
           "        for i in watch.get(n, ()):\n"
           "            missing[i] -= 1\n"
           "            if not missing[i]:\n"
           "                steps.append(insts[i])\n",
           "        steps = []\n"
           "        for i in watch.get(n, ()):\n"
           "            missing[i] -= 1\n"
           "            if not missing[i]:\n"
           "                steps.append(insts[i])\n"
           "        steps += _cover_steps(rb, n)\n",
           (Q + "test_monotonicity_run_is_one_step", TRANSCRIPT)),
    Mutant("c", "clamp markers are dropped", ENGINE,
           "                clamped.add(step[3])\n",
           "                pass\n",
           (Q + "test_boundary_warning_iff_clamp_near_the_query", ORACLE[1], QUEUE)),
    Mutant("d", "the separation scan tests the base against the theory's texts, "
                "not the theory's closure", ENGINE,
           "            holds[texts] = _closure_detail(texts, rb, ctx.k_max)[0].keys() "
           ">= ctx.assumed\n",
           "            holds[texts] = texts >= ctx.assumed\n",
           ORACLE),
    Mutant("e", "an assumed node is reached by a seed step, not None", ENGINE,
           "    reached: dict[str, tuple | None] = dict.fromkeys(todo)\n",
           "    reached: dict[str, tuple | None] = {n: (None, (), n, None) for n in todo}\n",
           (*CHAINS, QUEUE)),
    # the separation scan's verdicts, one per ground theory and query
    Mutant("f", "scan verdicts are keyed by fact id, not by ground theory", ENGINE,
           "        texts = frozenset(theory)\n"
           "        if texts not in holds:\n"
           "            holds[texts] = _closure_detail(texts, rb, ctx.k_max)[0].keys() "
           ">= ctx.assumed\n"
           "        if holds[texts]:\n",
           "        if fact.fact_id not in holds:\n"
           "            holds[fact.fact_id] = _closure_detail(\n"
           "                frozenset(theory), rb, ctx.k_max)[0].keys() >= ctx.assumed\n"
           "        if holds[fact.fact_id]:\n",
           (SCAN, ORACLE[0])),
    Mutant("g", "scan verdicts are kept across queries, in a module-level dict keyed by "
                "ground theory", ENGINE,
           "    holds: dict[frozenset[str], bool] = {}  "
           "# per ground theory: its closure holds the base\n",
           "    holds = globals().setdefault(\"_HOLDS\", {})\n",
           (SCAN, *ORACLE)),
    Mutant("h", "theory closures are kept across queries, keyed by (theory, k_max); "
                "every answer stays right", ENGINE,
           "            holds[texts] = _closure_detail(texts, rb, ctx.k_max)[0].keys() "
           ">= ctx.assumed\n",
           "            kept = globals().setdefault(\"_THEORY_CLOSURES\", {})\n"
           "            if (texts, ctx.k_max) not in kept:\n"
           "                kept[texts, ctx.k_max] = _closure_detail(texts, rb, ctx.k_max)[0]\n"
           "            holds[texts] = kept[texts, ctx.k_max].keys() >= ctx.assumed\n",
           (SCAN,)),
]


def _copy(dest: pathlib.Path) -> None:
    """The working tree without version control, caches or benchmark output."""
    def ignore(directory, names):
        skip = {".git", "__pycache__", ".hypothesis", ".pytest_cache"}
        if pathlib.Path(directory) == ROOT / "perfbench":
            skip.add("out")
        return skip & set(names)

    shutil.copytree(ROOT, dest, ignore=ignore)


def _apply(m: Mutant, tree: pathlib.Path) -> str | None:
    """Write the mutated file into the copy; the reason it cannot be, or None."""
    source = (tree / m.path).read_text(encoding="utf-8")
    found = source.count(m.old)
    if found != 1:
        return f"old text occurs {found} times in {m.path}"
    mutated = source.replace(m.old, m.new)
    try:
        compile(mutated, m.path, "exec")
    except SyntaxError as e:
        return f"the edit does not compile: {e}"
    (tree / m.path).write_text(mutated, encoding="utf-8")
    return None


def _run(m: Mutant, tree: pathlib.Path) -> tuple[str, str]:
    """(verdict, detail) for the named tests run on the mutated copy."""
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", *m.tests],
        cwd=tree, env=env, capture_output=True, text=True, timeout=900)
    summary = done.stdout.strip().splitlines()[-1] if done.stdout.strip() else done.stderr
    if done.returncode == 0:
        return "survived", summary
    if done.returncode == 1:  # pytest: some test failed
        return "killed", summary
    return "error", f"pytest exited {done.returncode}: {summary}"


def main(names: list[str]) -> int:
    unknown = set(names) - {m.name for m in MUTANTS}
    if unknown:
        print(f"unknown mutant(s): {', '.join(sorted(unknown))}", file=sys.stderr)
        return 2
    chosen = [m for m in MUTANTS if not names or m.name in names]
    bad = 0
    with tempfile.TemporaryDirectory(prefix="sca-mutants-") as tmp:
        tree = pathlib.Path(tmp) / "repo"
        _copy(tree)
        for m in chosen:
            original = (tree / m.path).read_text(encoding="utf-8")
            reason = _apply(m, tree)
            if reason is None:
                try:
                    verdict, detail = _run(m, tree)
                finally:
                    (tree / m.path).write_text(original, encoding="utf-8")
            else:
                verdict, detail = "not applied", reason
            bad += verdict != "killed"
            print(f"({m.name}) {m.what}: {verdict} ({detail})", flush=True)
    print(f"{len(chosen) - bad} of {len(chosen)} mutants killed")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
