"""The sca benchmark: one seeded workload per run, end-to-end metrics
(or, with --trace 1, per-layer metrics from a traced run), every answer
checked against a reference that does not use the code under test.

Run from the repository root:

    python3 perfbench/run.py --workload lattice --seed 1 --seconds 45 --trace 0

Workloads: lattice, prover, syntax, cli (see perfbench/README.md;
BENCHMARK.json gates lattice and cli).  Each uses one single-threaded
client in a closed loop and at most one child process at a time.
Human-readable lines go to stdout first; the last line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import select
import shutil
import subprocess
import sys
from statistics import median
from time import perf_counter

from tracing import Tracer, layer_metrics, percentile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.getcwd()
OUT_DIR = os.path.join("perfbench", "out")
CHILD_TIMEOUT = 150

# set-up is repeated this many times per run, spread over the run, and
# the median reported
SETUP_REPS = 7
# the traced run sends this many requests, once untraced and once traced
TRACE_REQUESTS = {"lattice": 40, "prover": 4000, "syntax": 4000}
# percentiles printed beside the gated ones where a run has enough samples
P99_WORKLOADS = ("prover", "syntax")

CLI_MAIN = "from sca.cli import main; main()"
IMPORT_PROBE = ("from time import perf_counter; t = perf_counter(); import sca.cli; "
                "print((perf_counter() - t) * 1e3)")
LAYER_PROBE = """
import json
from time import perf_counter
from sca import derivability
t = perf_counter(); rb = derivability.load_default_rulebase(); load = perf_counter() - t
t = perf_counter()
for k in (3, 4):
    derivability.closure(derivability.TheoryContext.make((), k), rb)
warm = perf_counter() - t
t = perf_counter(); derivability.verify_rulebase(rb); verify = perf_counter() - t
print(json.dumps([load * 1e3, warm * 1e3, verify * 1e3]))
"""


class BenchError(Exception):
    pass


def hash_seed(seed: int) -> int:
    """PYTHONHASHSEED for every process of a run, derived from the
    workload seed: the prover's search order follows set iteration."""
    return int(hashlib.sha256(f"sca-bench-{seed}".encode()).hexdigest(), 16) % 4294967296


def child_env(seed: int) -> dict:
    env = dict(os.environ)
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = str(hash_seed(seed))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def metadata(args) -> dict:
    sha = None
    if os.path.isdir(".git"):
        r = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True)
        sha = r.stdout.strip() or None
    return {"git_sha": sha, "python": platform.python_version(), "nproc": os.cpu_count(),
            "workload": args.workload, "seed": args.seed,
            "pythonhashseed": hash_seed(args.seed), "seconds": args.seconds,
            "trace": args.trace}


# ---------------------------------------------------------------------------
# in-process workloads: a worker child per set-up, the first one measured

def start_worker(name: str, kmaxes, env):
    t0 = perf_counter()
    p = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), name,
         ",".join(str(k) for k in kmaxes)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, env=env, text=True)
    line = p.stdout.readline()
    setup = perf_counter() - t0
    if not line:
        p.kill()
        p.wait()
        raise BenchError(f"{name} worker exited during set-up with code {p.returncode}")
    return p, setup, json.loads(line)


def ask(p, message) -> dict:
    """Send one JSON line to a worker and read its one-line answer."""
    p.stdin.write(json.dumps(message) + "\n")
    p.stdin.flush()
    ready, _, _ = select.select([p.stdout], [], [], CHILD_TIMEOUT)
    line = p.stdout.readline() if ready else ""
    if not line:
        raise BenchError(f"worker gave no answer (exit code {p.poll()})")
    return json.loads(line)


def stop_worker(p) -> None:
    if p.poll() is None:
        try:
            p.communicate("null\n", timeout=CHILD_TIMEOUT)
        except subprocess.TimeoutExpired:
            p.kill()
    p.wait()


def run_in_process(name, requests, kmaxes, cycle, args, env):
    """Set up SETUP_REPS times.  Untraced, the first worker runs the
    timed loop in SETUP_REPS parts and each further set-up is measured
    between two parts, so that the set-ups sample the whole run."""
    setups, readies = [], []

    def setup():
        p, took, ready = start_worker(name, kmaxes, env)
        setups.append(took)
        readies.append(ready)
        return p

    p = setup()
    try:
        if args.trace:
            for _ in range(SETUP_REPS - 1):
                stop_worker(setup())
            trace_path = os.path.join(OUT_DIR, f"spans-{name}-{args.seed}.jsonl")
            result = ask(p, {"requests": requests[:TRACE_REQUESTS[name]], "cycle": cycle,
                             "trace": trace_path})
        else:
            p.stdin.write(json.dumps({"requests": requests, "cycle": cycle,
                                      "trace": None}) + "\n")
            for part in range(SETUP_REPS):
                if part:
                    stop_worker(setup())
                result = ask(p, {"seconds": args.seconds / SETUP_REPS,
                                 "final": part == SETUP_REPS - 1})
    finally:
        stop_worker(p)
    if p.returncode != 0:
        raise BenchError(f"worker exited with code {p.returncode}")
    result["setups"] = setups
    result["load_ms"] = median(r["load_ms"] for r in readies)
    result["warmup_ms"] = median(r["warmup_ms"] for r in readies)
    return result


# ---------------------------------------------------------------------------
# cli: one cold process per request

def cli_run(argv, env):
    t0 = perf_counter()
    try:
        r = subprocess.run([sys.executable, "-c", CLI_MAIN] + argv, capture_output=True,
                           text=True, env=env, timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        raise BenchError(f"cli command timed out: {argv}")
    return perf_counter() - t0, r


def run_cli(order, args, env, reference):
    import cli_table

    rulebase = os.path.join(OUT_DIR, "rulebase-copy.json")
    shutil.copyfile(os.path.join("src", "sca", "data", "rulebase.json"), rulebase)
    setups = []
    result = {"setups": setups, "failures": []}

    def loop(limit=None, tracer=None):
        """Untraced, a set-up (one cold classify process, not a request) is
        measured at the start of each SETUP_REPS-th share of the run."""
        latencies = []
        start = perf_counter()
        deadline = start + args.seconds
        for i, idx in enumerate(order):
            if tracer is None and len(setups) < SETUP_REPS and \
                    perf_counter() >= start + len(setups) * args.seconds / SETUP_REPS:
                setups.append(cli_run(cli_table.SETUP_COMMAND, env)[0])
            entry = cli_table.TABLE[idx]
            argv = cli_table.expand(entry[1], rulebase, OUT_DIR)
            cli_table.clear_outputs(entry, OUT_DIR)
            if tracer is not None:
                tracer.request = i
                took, r = tracer("request", tracer, f"cli.{entry[0]}", cli_run, argv, env)
            else:
                took, r = cli_run(argv, env)
            latencies.append(took)
            fails = cli_table.check(entry, r.returncode, r.stdout, r.stderr, rulebase,
                                    OUT_DIR, reference)
            result["failures"].extend(f"request {i}: {f}" for f in fails)
            if i + 1 == limit or (limit is None and perf_counter() >= deadline
                                  and (i + 1) % len(cli_table.TABLE) == 0):
                break
        return latencies

    if not args.trace:
        result["latencies"] = loop()
        result["maxrss_kb"] = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        return result

    n = len(cli_table.TABLE)
    untraced = loop(limit=n)
    result["failures"].clear()
    tracer = Tracer()
    result["latencies"] = loop(limit=n, tracer=tracer)
    layers = {k: v for k, v in layer_metrics(tracer).items() if k.endswith(".ms_p50")}
    floor = [cli_run_raw(["-c", "pass"], env)[0] for _ in range(5)]
    imports = [float(cli_run_raw(["-c", IMPORT_PROBE], env)[1]) for _ in range(5)]
    probes = [json.loads(cli_run_raw(["-c", LAYER_PROBE], env)[1]) for _ in range(3)]
    layers.update({
        "cli.python_floor.ms": median(floor) * 1e3,
        "cli.import.ms": median(imports),
        "derivability.load_rulebase.ms": median(p[0] for p in probes),
        "derivability.warmup.ms": median(p[1] for p in probes),
        "derivability.verify_rulebase.ms": median(p[2] for p in probes),
        "trace.untraced_ops_per_s": len(untraced) / sum(untraced),
    })
    result["layers"] = layers
    tracer.write(os.path.join(OUT_DIR, f"spans-cli-{args.seed}.jsonl"))
    return result


def cli_run_raw(argv, env):
    t0 = perf_counter()
    r = subprocess.run([sys.executable] + argv, capture_output=True, text=True, env=env,
                       timeout=CHILD_TIMEOUT)
    if r.returncode != 0:
        raise BenchError(f"probe failed: {r.stderr.strip()[-200:]}")
    return perf_counter() - t0, r.stdout


# ---------------------------------------------------------------------------
# checks and metrics

def answered(requests, answers):
    """(request, answer) pairs; answer i is to request i modulo the
    list's length, as the loop starts the list again when it runs out."""
    return [(requests[i % len(requests)], ans) for i, ans in enumerate(answers)]


def check_lattice(requests, answers, reference):
    failures = []
    for i, (req, ans) in enumerate(answered(requests, answers)):
        if isinstance(ans, dict) and "error" in ans:
            continue  # already counted by the worker
        op, base, k = req["op"], req["base"], req["kmax"]
        if op == "closure":
            probs = reference.check_closure(base, k, ans)
        elif op == "equiv":
            probs = reference.check_equivalence(req["node"], base, k, ans)
        else:
            probs = reference.check_query(base, req["goal"], k, ans)
        failures.extend(f"request {i}: {p}" for p in probs)
    return failures


def lattice_layers(requests, answers) -> dict:
    out = {"derivability.closure.nodes_out": 0, "derivability.query.chain_steps_out": 0,
           "derivability.equivalence_class.members_out": 0}
    for req, ans in answered(requests, answers):
        if isinstance(ans, dict) and "error" in ans:
            continue
        if req["op"] == "closure":
            out["derivability.closure.nodes_out"] += len(ans)
        elif req["op"] == "equiv":
            out["derivability.equivalence_class.members_out"] += len(ans)
        elif ans.get("verdict") == "DERIVABLE":
            out["derivability.query.chain_steps_out"] += len(ans["chain"])
    return out


def outcome_mix(requests, answers) -> dict:
    mix = {}
    for req, ans in answered(requests, answers):
        key = req["op"] if req["op"] != "query" else f"query.{ans.get('verdict', 'error')}"
        mix[key] = mix.get(key, 0) + 1
    return mix


def end_to_end(name, result) -> tuple[dict, list[str]]:
    lat = result["latencies"]
    n = len(lat)
    metrics = {
        "setup_s": median(result["setups"]),
        "ops_per_s": n / sum(lat),
        "latency_p50_ms": percentile(lat, 50) * 1e3,
        "latency_p90_ms": percentile(lat, 90) * 1e3,
        "peak_rss_mb": result["maxrss_kb"] / 1024,
    }
    lines = [
        f"setup_s = {metrics['setup_s']:.4f} s (median of {len(result['setups'])} set-ups)",
        f"ops_per_s = {metrics['ops_per_s']:.3f} 1/s (n={n})",
    ]
    for q in (50, 90, 99):
        beyond = n - int(-(-n * q // 100))
        if q == 99 and name not in P99_WORKLOADS:
            continue
        value = percentile(lat, q) * 1e3
        flag = "" if beyond >= 10 else ", fewer than 10 samples beyond"
        lines.append(f"latency_p{q}_ms = {value:.4f} ms (n={n}, {beyond} beyond{flag})")
    lines.append(f"peak_rss_mb = {metrics['peak_rss_mb']:.2f} MB")
    return metrics, lines


def load_spec() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError("BENCHMARK.json not found; run from the repository root")
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------

def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["lattice", "prover", "syntax", "cli"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args()

    spec = load_spec()
    if not os.path.isfile(os.path.join(ROOT, "src", "sca", "__init__.py")):
        raise BenchError("src/sca not found; run from the repository root")
    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(OUT_DIR, exist_ok=True)

    import gen
    from reference import Reference
    from sca.derivability import load_default_rulebase

    meta = metadata(args)
    print("run: " + json.dumps(meta, sort_keys=True))
    reference = Reference(load_default_rulebase())
    env = child_env(args.seed)
    name = args.workload

    t = perf_counter()
    if name == "lattice":
        requests = gen.lattice(args.seed, reference)
    elif name == "prover":
        requests = gen.prover(args.seed)
    elif name == "syntax":
        requests = gen.syntax(args.seed)
    else:
        import cli_table
        requests = gen.cli(args.seed, cli_table.TABLE)
    print(f"inputs: {len(requests)} requests generated in {perf_counter() - t:.2f} s")

    if name == "cli":
        result = run_cli(requests, args, env, reference)
    else:
        kmaxes = gen.LATTICE_KMAX if name == "lattice" else ()
        result = run_in_process(name, requests, kmaxes, gen.CYCLE[name], args, env)

    failures = list(result["failures"])
    layers = dict(result.get("layers", {}))
    if name == "lattice":
        answers = result["answers"]
        failures += check_lattice(requests, answers, reference)
        mix = outcome_mix(requests, answers)
        print("outcome mix: " + json.dumps(mix, sort_keys=True))
        layers.update(lattice_layers(requests, answers))
    if name != "cli":
        layers["derivability.load_rulebase.ms"] = result["load_ms"]
        layers["derivability.warmup.ms"] = result["warmup_ms"]

    attempted = len(result["latencies"])
    failed_requests = len({f.split(":")[0] for f in failures})
    print(f"failed_share = {failed_requests / attempted:.6f} "
          f"({failed_requests} of {attempted} requests)")
    if failures:
        path = os.path.join(OUT_DIR, f"failures-{name}-{args.seed}.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("".join(f + "\n" for f in failures))
        print(f"{len(failures)} failed checks, all listed in {path}; the first ones:")
        for f in failures[:20]:
            print(f"FAILED {f}")

    if args.trace:
        lat = result["latencies"]
        traced_ops = len(lat) / sum(lat)
        layers["trace.overhead.ops_per_s"] = layers["trace.untraced_ops_per_s"] - traced_ops
        layers["trace.overhead_share"] = 1 - traced_ops / layers["trace.untraced_ops_per_s"]
        if "formulas.parse.chars" in layers:
            layers["formulas.parse.chars_per_s"] = (
                layers.pop("formulas.parse.chars") / layers["formulas.parse.self_s"])
        wanted = spec["per_layer"]
        for key in sorted(set(layers) - {m["name"] for m in wanted}):
            print(f"layer {key} = {layers[key]}")
        metrics = {m["name"]: {"value": layers.get(m["name"], 0), "unit": m["unit"]}
                   for m in wanted}
        for key, m in metrics.items():
            print(f"{key} = {m['value']} {m['unit']}")
    else:
        values, lines = end_to_end(name, result)
        for line in lines:
            print(line)
        metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                   for m in spec["end_to_end"]}

    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": failed_requests, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except BenchError as e:
        sys.stderr.write(f"benchmark error: {e}\n")
        sys.exit(2)
