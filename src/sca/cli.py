"""Command-line front end.  Every operation is exposed as a subcommand;
`--json` switches any of them to a stable machine-readable schema.

Each subcommand imports only the modules it runs, so a cold process
loads no more of the package than its subcommand needs.

Exit codes: 0 on success, 1 on a domain error (non-prenex input, class
mismatches, schema violations, ...), 2 on a usage error.  The rule base
defaults to the shipped file and can be overridden per invocation with
`--rulebase` or globally with the SCA_RULEBASE environment variable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

__all__ = ["run", "main"]


# ---------------------------------------------------------------------------
# Output helpers

def _emit(args, payload: dict, text: str) -> None:
    if args.json:
        sys.stdout.write(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        sys.stdout.write(text + "\n")


def _load_rulebase(args) -> derivability.RuleBase:
    from . import derivability

    path = getattr(args, "rulebase", None) or os.environ.get("SCA_RULEBASE")
    if path:
        with open(path, encoding="utf-8") as fh:
            return derivability.load_rulebase(fh.read())
    return derivability.load_default_rulebase()


def _split_nodes(text: str) -> list[str]:
    return [p for p in (s.strip() for s in text.split(",")) if p]


def _chain_rows(chain, rb: derivability.RuleBase) -> list[dict]:
    by_id = {r.rule_id: r for r in rb.rules}
    rows = []
    for rule_id, premises, conclusion in chain:
        rule = by_id.get(rule_id)
        rows.append({
            "rule": rule_id,
            "premises": list(premises),
            "conclusion": conclusion,
            "ref": rule.cite["ref"] if rule else None,
        })
    return rows


def _chain_text(rows: list[dict]) -> str:
    lines = []
    for row in rows:
        src = ", ".join(row["premises"]) or "HA"
        cite = f"  [{row['rule']}: {row['ref']}]" if row["ref"] else f"  [{row['rule']}]"
        lines.append(f"  {src} => {row['conclusion']}{cite}")
    return "\n".join(lines)


def _trace_text(tr: ipc.Trace, depth: int = 0) -> str:
    lines = [f"{'  ' * depth}{tr.rule}: {tr.sequent}"]
    for child in tr.children:
        lines.append(_trace_text(child, depth + 1))
    return "\n".join(lines)


def _trace_json(tr: ipc.Trace) -> dict:
    from .ipc import format_prop

    return {
        "rule": tr.rule,
        "sequent": str(tr.sequent),
        "principal": None if tr.principal is None else format_prop(tr.principal),
        "children": [_trace_json(c) for c in tr.children],
    }


# ---------------------------------------------------------------------------
# Subcommands

def _cmd_classify(args) -> int:
    from .formulas import parse
    from .hierarchy import classify_prenex

    c = classify_prenex(parse(args.formula))
    _emit(args, {"polarity": c.polarity, "level": c.level}, str(c))
    return 0


def _cmd_dual(args) -> int:
    from .duality import dual
    from .formulas import format_formula, parse

    d = dual(parse(args.formula))
    _emit(args, {"dual": format_formula(d)}, format_formula(d))
    return 0


def _cmd_merge(args) -> int:
    from .formulas import format_formula, parse
    from .hierarchy import prenex_merge

    m = prenex_merge(parse(args.formula))
    _emit(args, {"merged": format_formula(m)}, format_formula(m))
    return 0


def _cmd_relclassify(args) -> int:
    from .formulas import parse
    from .hierarchy import relative_classify

    theory = _split_nodes(args.theory)
    c = relative_classify(parse(args.formula), theory)
    _emit(args, {"polarity": c.polarity, "level": c.level, "theory": theory},
          str(c))
    return 0


def _cmd_instantiate(args) -> int:
    from . import principles
    from .formulas import format_formula, parse

    pid, class_args = principles.parse_node(args.node)
    witnesses = [parse(w) for w in
                 (args.phi, args.psi, args.phi2, args.psi2) if w is not None]
    inst = principles.instantiate(pid, class_args, witnesses)
    rendered = format_formula(inst.rendered)
    node = principles.node_of(pid, class_args)
    _emit(args, {"node": node, "formula": rendered}, rendered)
    return 0


def _cmd_ipc(args) -> int:
    from .ipc import parse_prop, prove_ipc

    result = prove_ipc(parse_prop(args.formula))
    verdict = "PROVABLE" if result.provable else "UNPROVABLE"
    text = verdict
    if args.trace and result.trace is not None:
        text += "\n" + _trace_text(result.trace)
    payload = {"provable": result.provable,
               "trace": _trace_json(result.trace)
               if args.trace and result.trace else None}
    _emit(args, payload, text)
    return 0


def _cmd_verify_rules(args) -> int:
    from .derivability import verify_rulebase
    from .ipc import FAILED

    rb = _load_rulebase(args)
    report = verify_rulebase(rb)
    failed = sorted(rid for rid, st in report.statuses if st == FAILED)
    payload = {
        "verified": report.verified,
        "failed": report.failed,
        "needs_first_order": report.needs_first_order,
        "failed_ids": failed,
    }
    text = (f"verified: {report.verified}\nfailed: {report.failed}\n"
            f"needs-first-order: {report.needs_first_order}")
    if failed:
        text += "\nfailed rules: " + ", ".join(failed)
    _emit(args, payload, text)
    return 1 if report.failed else 0


def _cmd_closure(args) -> int:
    from .derivability import TheoryContext, closure

    rb = _load_rulebase(args)
    ctx = TheoryContext.make(_split_nodes(args.base), args.kmax)
    nodes = sorted(closure(ctx, rb))
    _emit(args, {"base": sorted(ctx.assumed), "k_max": ctx.k_max,
                 "closure": nodes}, "\n".join(nodes))
    return 0


def _cmd_query(args) -> int:
    from .derivability import Derivable, Separated, TheoryContext, query

    rb = _load_rulebase(args)
    ctx = TheoryContext.make(_split_nodes(args.base), args.kmax)
    result = query(ctx, args.goal, rb)
    if isinstance(result, Derivable):
        rows = _chain_rows(result.chain, rb)
        text = "DERIVABLE"
        if rows:
            text += "\n" + _chain_text(rows)
        _emit(args, {"result": "DERIVABLE", "chain": rows}, text)
    elif isinstance(result, Separated):
        w = result.witness
        payload = {"result": "SEPARATED", "fact": result.fact_id, "witness": w}
        text = (f"SEPARATED\n  fact: {result.fact_id} (k={w['k']})\n"
                f"  theory: {', '.join(w['theory']) or 'HA'}\n"
                f"  does not prove: {w['unprovable']}\n"
                f"  cite: {w['cite']['ref']}")
        _emit(args, payload, text)
    else:
        payload = {"result": "UNKNOWN",
                   "boundary_warning": result.boundary_warning}
        text = "UNKNOWN"
        if result.boundary_warning:
            text += "\n  (level cap may have interfered; raise --kmax)"
        _emit(args, payload, text)
    return 0


def _cmd_equiv(args) -> int:
    from .derivability import TheoryContext, canonical_node, equivalence_class

    rb = _load_rulebase(args)
    ctx = TheoryContext.make((), args.kmax)
    cls = sorted(equivalence_class(args.node, ctx, rb))
    _emit(args, {"node": canonical_node(args.node),
                 "k_max": args.kmax, "equivalents": cls}, "\n".join(cls))
    return 0


def _cmd_graph(args) -> int:
    from .derivability import export_dot

    dot = export_dot(args.preset, args.k)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(dot)
    _emit(args, {"preset": args.preset, "k": args.k, "out": args.out},
          f"wrote {args.out}")
    return 0


# ---------------------------------------------------------------------------
# Dispatch

def _build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="sca")
    top.add_argument("--json", action="store_true",
                     help="machine-readable output")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="arithmetical class of a prenex formula")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("dual", help="structural dual of a prenex formula")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("merge", help="merge adjacent like quantifiers by pairing")
    p.add_argument("formula")
    p.set_defaults(func=_cmd_merge)

    p = sub.add_parser("relclassify",
                       help="class relative to a comma-separated node theory")
    p.add_argument("formula")
    p.add_argument("--theory", required=True)
    p.set_defaults(func=_cmd_relclassify)

    p = sub.add_parser("instantiate",
                       help="render a principle node with witness formulas")
    p.add_argument("node")
    p.add_argument("--phi", required=True)
    p.add_argument("--psi")
    p.add_argument("--phi2")
    p.add_argument("--psi2")
    p.set_defaults(func=_cmd_instantiate)

    p = sub.add_parser("ipc", help="decide an intuitionistic propositional formula")
    p.add_argument("formula")
    p.add_argument("--trace", action="store_true")
    p.set_defaults(func=_cmd_ipc)

    p = sub.add_parser("verify-rules", help="verify the rule base skeletons")
    p.add_argument("--rulebase")
    p.set_defaults(func=_cmd_verify_rules)

    p = sub.add_parser("closure", help="derivability closure of a node set")
    p.add_argument("--base", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--rulebase")
    p.set_defaults(func=_cmd_closure)

    p = sub.add_parser("query", help="is the goal derivable from the base?")
    p.add_argument("--base", required=True)
    p.add_argument("--goal", required=True)
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--rulebase")
    p.set_defaults(func=_cmd_query)

    p = sub.add_parser("equiv", help="equivalence class of a node over HA")
    p.add_argument("node")
    p.add_argument("--kmax", type=int, required=True)
    p.add_argument("--rulebase")
    p.set_defaults(func=_cmd_equiv)

    p = sub.add_parser("graph", help="export a preset figure as DOT")
    p.add_argument("--preset", required=True, choices=["abhk", "dns", "cd"])
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--out", required=True)
    p.add_argument("--rulebase", help="ignored: figures are fixed data")
    p.set_defaults(func=_cmd_graph)

    return top


def run(argv: list[str]) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return args.func(args)
    except (ValueError, OSError, RecursionError, OverflowError) as e:
        sys.stderr.write(f"error: {e}\n")
        return 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
