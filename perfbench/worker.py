"""The measured client process of the in-process workloads (lattice,
prover, syntax).

Run from the repository root with PYTHONPATH=src:

    python3 perfbench/worker.py <workload> <k_max,k_max,...>

It imports the package, loads the shipped rule base and makes one
warm-up closure per listed k_max, then prints one JSON line
(``{"ready": ...}``).  Everything up to that line is set-up.  It then
reads one JSON line from stdin: ``null`` to exit, or a job
``{"requests": [...], "cycle": c, "trace": path or null}``.  Without a
trace path it then reads parts ``{"seconds": s, "final": bool}``.  For
each part it sends requests one at a time in a closed loop (a single
client, the next request only after the previous one returned) until
``s`` seconds have passed, carrying on from where the last part
stopped, and answers with one line.  The final part ends on a whole
number of ``c``-request cycles of the mix, and its answer is the JSON
result line.  The parent measures more set-ups between parts, so that
the set-ups of one run are spread over its length.

Answer checks that need the returned objects (Glivenko agreement, trace
replay, dual laws, instance evaluation) run right after every request,
outside its timed interval, also when the request list has wrapped
round.  Lattice answers go back to the parent,
which checks them against the reference fixpoint.

With a trace path, the job runs its whole (fixed-length) request list
twice: once without spans, then once with spans, which are written to
the path as JSON lines.
"""

from __future__ import annotations

import json
import resource
import sys
from time import perf_counter

from reference import Reference
from sca import derivability, duality, formulas, hierarchy, ipc, principles
from tracing import Tracer, layer_metrics, untraced

# Theories for relative_classify.  The last is the closure of the third
# at k_max 3, as the reference spells its nodes (the engine's canonical
# spelling): relative_classify's docstring advises closing a theory first.
BASE_THEORIES = (
    (),
    ("DNE:S0",),
    ("DML:S1", "DNE:S0"),
    ("DML:S1", "DML:S2", "DNE:S0", "DNE:S1", "DNE:S2"),
)
CLOSED_THEORY = (("DML:S1", "DNE:S0"), 3)
# (i, j): theory j proves everything theory i does, so the class under
# j must be at least as strong as under i
LARGER = ((0, 1), (1, 2), (2, 3), (2, 4))


# ---------------------------------------------------------------------------
# lattice

class Lattice:
    def __init__(self, rb):
        self.rb = rb

    def prepare(self, req):
        return req

    def run(self, req, call):
        ctx = call("derivability.context", derivability.TheoryContext.make,
                   req["base"], req["kmax"])
        op = req["op"]
        if op == "closure":
            return call("derivability.closure", derivability.closure, ctx, self.rb)
        if op == "equiv":
            return call("derivability.equivalence_class",
                        derivability.equivalence_class, req["node"], ctx, self.rb)
        res = call("derivability.query", derivability.query, ctx, req["goal"], self.rb)
        if call is not untraced:
            call.rename_last(f"derivability.query.{_verdict(res).lower()}",
                             "derivability.query")
        return res

    def post(self, req, res, call):
        op = req["op"]
        if op != "query":
            return sorted(res), []
        verdict = _verdict(res)
        out = {"verdict": verdict}
        if verdict == "DERIVABLE":
            out["chain"] = [[rid, list(prems), concl] for rid, prems, concl in res.chain]
        elif verdict == "SEPARATED":
            w = res.witness
            out["witness"] = [res.fact_id, w["k"], list(w["theory"]), w["unprovable"]]
        return out, []


def _verdict(res) -> str:
    if isinstance(res, derivability.Derivable):
        return "DERIVABLE"
    if isinstance(res, derivability.Separated):
        return "SEPARATED"
    return "UNKNOWN"


# ---------------------------------------------------------------------------
# prover

def _prop(data):
    tag = data[0]
    if tag == "atom":
        return ipc.PAtom(data[1])
    if tag == "bot":
        return ipc.PBot()
    cls = {"and": ipc.PAnd, "or": ipc.POr, "imp": ipc.PImp}[tag]
    return cls(_prop(data[1]), _prop(data[2]))


def _trace_nodes(tr) -> int:
    return 1 + sum(_trace_nodes(c) for c in tr.children)


class Prover:
    def __init__(self, rb):
        self.counts = {"provable": 0, "decided": 0, "trace_nodes": 0}

    def prepare(self, req):
        f = _prop(json.loads(req["f"]))
        return f, ipc.PNot(ipc.PNot(f))

    def run(self, req, call):
        f, nnf = req
        return (call("ipc.prove_ipc", ipc.prove_ipc, f),
                call("ipc.prove_ipc", ipc.prove_ipc, nnf),
                call("ipc.prove_classical", ipc.prove_classical, f))

    def post(self, req, res, call):
        f = req[0]
        direct, glivenko, classical = res
        fails = []
        if glivenko.provable != classical:
            fails.append(f"Glivenko: ~~f is {glivenko.provable}, classical "
                         f"{classical}: {ipc.format_prop(f)}")
        if direct.provable and not classical:
            fails.append(f"IPC proves a classical non-tautology: {ipc.format_prop(f)}")
        for r in (direct, glivenko):
            self.counts["decided"] += 1
            if not r.provable:
                continue
            self.counts["provable"] += 1
            if not call("ipc.validate_trace", ipc.validate_trace, r.trace):
                fails.append(f"trace does not replay: {ipc.format_prop(f)}")
            if call is not untraced:
                self.counts["trace_nodes"] += _trace_nodes(r.trace)
        return None, fails

    def layers(self):
        c = self.counts
        return {"ipc.prove_ipc.provable_share": c["provable"] / max(1, c["decided"]),
                "ipc.trace.nodes_out": c["trace_nodes"]}


# ---------------------------------------------------------------------------
# syntax

class Syntax:
    def __init__(self, rb):
        self.chars = 0
        base, k_max = CLOSED_THEORY
        self.theories = BASE_THEORIES + (tuple(sorted(Reference(rb).closure(base, k_max))),)

    def prepare(self, req):
        return req

    def run(self, req, call):
        parse, fmt = formulas.parse, formulas.format_formula
        f = call("formulas.parse", parse, req["prenex"])
        cls = call("hierarchy.classify_prenex", hierarchy.classify_prenex, f)
        d = call("duality.dual", duality.dual, f)
        dcls = call("hierarchy.classify_prenex", hierarchy.classify_prenex, d)
        merged = call("hierarchy.prenex_merge", hierarchy.prenex_merge, f)
        texts = (call("formulas.format_formula", fmt, d),
                 call("formulas.format_formula", fmt, merged))
        g = call("formulas.parse", parse, req["mixed"])
        rel = []
        for theory in self.theories:
            try:
                rel.append(call("hierarchy.relative_classify",
                                hierarchy.relative_classify, g, theory))
            except hierarchy.Unclassifiable:
                rel.append(None)
        inst_req = req["instance"]
        pid, args = call("principles.parse_node", principles.parse_node, inst_req["node"])
        witnesses = [call("formulas.parse", parse, w) for w in inst_req["witnesses"]]
        inst = call("principles.instantiate", principles.instantiate, pid, args, witnesses)
        inst_text = call("formulas.format_formula", fmt, inst.rendered)
        return f, cls, d, dcls, merged, texts, rel, inst, inst_text

    def post(self, req, res, call):
        f, cls, d, dcls, merged, (d_text, m_text), rel, inst, inst_text = res
        fails = []
        src = req["prenex"]
        if call is not untraced:
            inst_req = req["instance"]
            self.chars += (len(src) + len(req["mixed"])
                           + sum(len(w) for w in inst_req["witnesses"]))
        # dual laws: same level, opposite polarity, involution
        if cls.level != dcls.level or (cls.level and cls.polarity == dcls.polarity):
            fails.append(f"dual class {dcls} for class {cls}: {src}")
        collapse = formulas.collapse_atom_negations
        if not formulas.alpha_equal(collapse(duality.dual(d)), collapse(f)):
            fails.append(f"dual is not an involution: {src}")
        # merging keeps the class and leaves no two like quantifiers adjacent
        prefix, _ = hierarchy.prenex_prefix(merged)
        if (hierarchy.classify_prenex(merged).canonical() != cls.canonical()
                or any(a[0] == b[0] for a, b in zip(prefix, prefix[1:]))):
            fails.append(f"merge changed the class or left a block: {src}")
        # printed formulas read back as themselves
        for text, want in ((d_text, d), (m_text, merged), (inst_text, inst.rendered)):
            if formulas.parse(text) != want:
                fails.append(f"printed formula does not parse back: {text}")
        # a larger theory never gives a weaker class
        for i, j in LARGER:
            if rel[i] is not None and (rel[j] is None
                                       or not hierarchy.class_subset(rel[j], rel[i])):
                fails.append(f"class under theory {j} is {rel[j]}, weaker than {rel[i]} "
                             f"under theory {i}: {req['mixed']}")
        # every instance of a classical schema is true in the standard model
        if not formulas.eval_bounded(inst.rendered, req["instance"]["env"]):
            fails.append(f"false instance of {req['instance']['node']}: {inst_text}")
        return None, fails

    def layers(self):
        return {"formulas.parse.chars": self.chars}


WORKLOADS = {"lattice": Lattice, "prover": Prover, "syntax": Syntax}


# ---------------------------------------------------------------------------
# the closed loop

class Loop:
    """Latencies, answers and failures of one closed loop, which can be
    run in several parts: each part carries on from where the last one
    stopped."""

    def __init__(self, workload, requests, call):
        self.workload, self.requests, self.call = workload, requests, call
        self.i = 0
        self.latencies, self.answers, self.failures = [], [], []

    def run(self, seconds=None, cycle=1, limit=None):
        """Send requests one at a time until `limit` requests are done in
        all, or else until `seconds` have passed and a whole number of
        `cycle`s of the request mix is done; start the list again if it
        runs out."""
        workload, requests, call = self.workload, self.requests, self.call
        n = len(requests)
        deadline = perf_counter() + (seconds or 0.0)
        while True:
            i = self.i
            # JSON to call arguments, outside the timed interval
            req = workload.prepare(requests[i % n])
            if call is not untraced:
                call.request = i
            t0 = perf_counter()
            try:
                res = call("request", workload.run, req, call)
                ok = True
            except Exception as e:  # a request that raises counts as failed
                res, ok = f"{type(e).__name__}: {e}", False
            t1 = perf_counter()
            self.latencies.append(t1 - t0)
            if not ok:
                answer, fails = {"error": res}, [f"raised {res}"]
            else:
                try:
                    answer, fails = workload.post(req, res, call)
                except Exception as e:
                    answer, fails = None, [f"check raised {type(e).__name__}: {e}"]
            self.answers.append(answer)
            self.failures.extend(f"request {i}: {f}" for f in fails)
            self.i = i + 1
            if self.i == limit or (limit is None and t1 >= deadline and self.i % cycle == 0):
                return


def read_line():
    return json.loads(sys.stdin.readline())


def write_line(obj) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def main() -> None:
    name, kmaxes = sys.argv[1], [int(k) for k in sys.argv[2].split(",") if k]
    t = perf_counter()
    rb = derivability.load_default_rulebase()
    load_ms = (perf_counter() - t) * 1e3
    t = perf_counter()
    for k in kmaxes:
        derivability.closure(derivability.TheoryContext.make((), k), rb)
    warmup_ms = (perf_counter() - t) * 1e3
    write_line({"ready": True, "load_ms": load_ms, "warmup_ms": warmup_ms})

    job = read_line()
    if job is None:
        return
    workload = WORKLOADS[name](rb)
    requests = job["requests"]
    result = {}
    if not job["trace"]:
        # parts: {"seconds": s, "final": bool}; the final part ends on a
        # whole cycle of the mix, the others after their first request
        # past the deadline
        loop = Loop(workload, requests, untraced)
        while True:
            part = read_line()
            loop.run(seconds=part["seconds"], cycle=job["cycle"] if part["final"] else 1)
            if part["final"]:
                break
            write_line({"done": loop.i})
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    else:
        plain = Loop(workload, requests, untraced)
        plain.run(limit=len(requests))
        workload = WORKLOADS[name](rb)
        tracer = Tracer()
        loop = Loop(workload, requests, tracer)
        loop.run(limit=len(requests))
        layers = layer_metrics(tracer, p99=("ipc.prove_ipc",))
        if hasattr(workload, "layers"):
            layers.update(workload.layers())
        layers["trace.untraced_ops_per_s"] = len(plain.latencies) / sum(plain.latencies)
        result["layers"] = layers
        tracer.write(job["trace"])
    result.update(latencies=loop.latencies,
                  answers=loop.answers if name == "lattice" else [],
                  failures=loop.failures)
    write_line(result)


if __name__ == "__main__":
    main()
