"""Run workloads repeatedly and print the spread of every metric.

    python3 perfbench/stability.py --workload eager-ops --runs 10
    python3 perfbench/stability.py --runs 10 --sets 2

Each run is ``run.py`` with its own seed (set ``s``, run ``i`` uses seed
``first_seed + s * runs + i``).  For every metric the table gives the median,
the first and third quartiles (``statistics.quantiles(values, n=4)``), the
quartile spread as a share of the median, and the max/min spread as a share
of the median.  With several sets it also gives how far each set's median
moved from the first set's, and checks that every set failed the same share
of its ops.  The bounds in ``BENCHMARK.json`` are derived from these tables.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]


def run_once(workload: str, seed: int, seconds: int) -> dict:
    command = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", "0"]
    proc = subprocess.run(command, cwd=HERE.parent, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"run failed: {' '.join(command)}\n{proc.stderr[-3000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)  # the middle cut is the median
    return {"median": median, "q1": q1, "q3": q3,
            "iqr_share": (q3 - q1) / median if median else 0.0,
            "range_share": (max(values) - min(values)) / median if median else 0.0}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sets", type=int, default=1)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    seconds = SPEC["run_seconds"]

    for workload in args.workload or WORKLOADS:
        sets = []
        for s in range(args.sets):
            results = []
            for i in range(args.runs):
                seed = args.first_seed + s * args.runs + i
                results.append(run_once(workload, seed, seconds))
                print(f"{workload} set {s + 1} seed {seed}: " + " ".join(
                    f"{k}={v['value']:.4g}" for k, v in results[-1]["metrics"].items()),
                    file=sys.stderr, flush=True)
            sets.append(results)
        print(f"\n## {workload}: {args.sets} set(s) of {args.runs} runs, {seconds} s each")
        for s, results in enumerate(sets):
            failed = {(r["failed"], r["attempted"]) for r in results}
            shares = {f / a for f, a in failed}
            print(f"set {s + 1}: correct={all(r['correct'] for r in results)} "
                  f"failed share={sorted(shares)} attempted={sorted(a for _, a in failed)}")
        header = (f"{'metric':26s} {'set':>3s} {'median':>10s} {'q1':>10s} {'q3':>10s} "
                  f"{'iqr/med':>8s} {'range/med':>9s} {'vs set 1':>8s}")
        print(header)
        for name, metric in sets[0][0]["metrics"].items():
            first = None
            for s, results in enumerate(sets):
                stats = summary([r["metrics"][name]["value"] for r in results])
                first = stats["median"] if first is None else first
                moved = (stats["median"] - first) / first if first else 0.0
                print(f"{name:26s} {s + 1:3d} {stats['median']:10.4g} {stats['q1']:10.4g} "
                      f"{stats['q3']:10.4g} {stats['iqr_share']:8.3f} "
                      f"{stats['range_share']:9.3f} {moved:+8.3f}  {metric['unit']}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
