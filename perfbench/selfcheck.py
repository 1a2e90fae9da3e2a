"""Run each workload in two sets of ten seeded runs on the same code and
show whether the end-to-end metrics agree within BENCHMARK.json's
bounds.

    python3 perfbench/selfcheck.py

Each run lasts BENCHMARK.json's run_seconds; set 1 uses seeds 1-10 and
set 2 seeds 11-20.  For every workload and metric it prints the median
of each set, each set's spread (distance between the first and third
quartile as a share of the median, from statistics.quantiles(values,
n=4)), how far the second median lies from the first, and "ok" when
both spreads and that distance stay within the metric's bound.  Run
from the repository root; it runs one benchmark process at a time.
"""

from __future__ import annotations

import json
import subprocess
import sys
from statistics import median, quantiles

RUNS = 10


def one_run(spec, workload: str, seed: int) -> dict:
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]), "--trace", "0"]
    r = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    if r.returncode != 0:
        sys.exit(f"{workload} seed {seed} exited {r.returncode}: {r.stderr[-500:]}")
    result = json.loads(r.stdout.strip().splitlines()[-1])
    values = {k: v["value"] for k, v in result["metrics"].items()}
    print(f"  {workload} seed {seed}: {result['failed']} of {result['attempted']} failed; "
          + ", ".join(f"{k} {v:.4g}" for k, v in values.items()), flush=True)
    return values


def spread(values) -> float:
    q1, _q2, q3 = quantiles(values, n=4)
    return (q3 - q1) / median(values)


def main() -> int:
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        spec = json.load(fh)
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        sets = [[one_run(spec, workload, seed) for seed in range(1 + s * RUNS, 1 + (s + 1) * RUNS)]
                for s in range(2)]
        print(f"{workload}:")
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            a = [r[name] for r in sets[0]]
            b = [r[name] for r in sets[1]]
            ma, mb = median(a), median(b)
            change = abs(mb - ma) / ma
            sa, sb = spread(a), spread(b)
            ok = change <= bound and max(sa, sb) <= bound
            all_ok &= ok
            print(f"  {name:16s} median {ma:12.4f} | {mb:12.4f}   spread {sa:6.3f} | "
                  f"{sb:6.3f}   change {change:.3f}   bound {bound}   "
                  f"{'ok' if ok else 'NOT OK'}")
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
