"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload eager-ops --seed 1 --seconds 20 --trace 0

Run from the root of a checkout.  Every process the run starts gets an
empty private kernel cache, tuning-record store and temporary directory under
``perfbench/.work``, removed when the run ends, so nothing is inherited from
``~/.cache`` or from an earlier run.

With ``--trace 0`` the run starts ``PROCESSES`` fresh processes, one after
the other; each sets up cold and measures its share of ``--seconds``
untraced, and the run prints the end-to-end metrics pooled over them.  With
``--trace 1`` one traced process measures all of ``--seconds``, prints the
per-layer metrics and writes its spans to ``perfbench/traces``.  The last
line of output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it holds the machine and run
metadata.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Workload names and metric units come from the benchmark's own definition.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [workload["name"] for workload in SPEC["workloads"]]
#: Measuring processes per untraced run.  Each sets up cold (``setup_s`` is
#: the median) and measures a third of the run, so that one process's luck
#: in memory layout weighs a third.
PROCESSES = 3
#: Successful ops a run collects at least, however long that takes, so that
#: its p90 has at least ten samples beyond it.
MIN_OPS = 120
#: Wall-clock budget of one run, all of its processes together.
RUN_BUDGET_S = 170.0


class RunFailed(RuntimeError):
    pass


def worker(args: argparse.Namespace, work: Path, deadline: float, index: int,
           *extra: str) -> dict:
    """Run ``worker.py`` in a fresh interpreter with private caches; parse its result."""
    private = Path(tempfile.mkdtemp(dir=work))
    (private / "tmp").mkdir()
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")])),
        "REPRO_KERNEL_CACHE": str(private / "kernels"),
        "REPRO_TUNING_RECORDS": str(private / "tuning"),
        "TMPDIR": str(private / "tmp"),
        # Hash seeds, and with them dict and set layouts, follow the seed:
        # a run is repeatable, and runs of different seeds vary them.
        "PYTHONHASHSEED": str((args.seed * PROCESSES + index) % 4294967296),
    })
    command = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
               "--seed", str(args.seed), *extra]
    try:
        proc = subprocess.run(command, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=max(deadline - time.monotonic(), 1.0))
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded the run budget: {command}") from exc
    finally:
        shutil.rmtree(private, ignore_errors=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker failed (exit {proc.returncode}):\n{proc.stderr[-3000:]}")
    return json.loads(lines[-1])


def machine() -> dict:
    """Core count, CPU model, compiler and library versions of this machine."""
    cpu = "unknown"
    with open("/proc/cpuinfo") as handle:
        for line in handle:
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    try:
        cc = subprocess.run(["cc", "--version"], capture_output=True, text=True,
                            timeout=30).stdout.splitlines()[0]
    except (OSError, IndexError, subprocess.TimeoutExpired):
        cc = "unavailable"
    info = {"cpu_count": os.cpu_count(), "cpu": cpu, "cc": cc,
            "python": platform.python_version()}
    for package in ("numpy", "scipy", "cffi"):
        try:
            info[package] = metadata.version(package)
        except metadata.PackageNotFoundError:
            info[package] = "absent"
    return info


def end_to_end(results: list) -> dict:
    """Pool the measuring processes of one run into the end-to-end metrics."""
    latencies = [ms for result in results for ms in result["latencies_ms"]]
    return {
        "setup_s": statistics.median(r["setup_s"] for r in results),
        "ops_per_s": len(latencies) / sum(r["timed_s"] for r in results),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8],
        "peak_rss_mib": statistics.median(r["peak_rss_mib"] for r in results),
    }


def reported(spec: list, values: dict) -> dict:
    """The metrics *spec* names, in its order, each with its value and unit."""
    return {metric["name"]: {"value": values[metric["name"]], "unit": metric["unit"]}
            for metric in spec}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'repro'} is missing", file=sys.stderr)
        return 2

    deadline = time.monotonic() + RUN_BUDGET_S
    (HERE / ".work").mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=HERE / ".work"))
    try:
        if args.trace:
            traces = HERE / "traces"
            traces.mkdir(exist_ok=True)
            out = traces / f"{args.workload}-seed{args.seed}.jsonl"
            results = [worker(args, work, deadline, 0, "--seconds", str(args.seconds),
                              "--min-ops", str(MIN_OPS), "--trace-out", str(out))]
            metrics = reported(SPEC["per_layer"], results[0]["layers"])
        else:
            share = args.seconds / PROCESSES
            results = [worker(args, work, deadline, index, "--seconds", str(share),
                              "--min-ops", str(-(-MIN_OPS // PROCESSES)))
                       for index in range(PROCESSES)]
            metrics = reported(SPEC["end_to_end"], end_to_end(results))
    except RunFailed as exc:
        print(exc, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    tiers = {tier: sum(r["tiers"][tier] for r in results) for tier in results[0]["tiers"]}
    meta = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "machine": machine(), "kernel_runs_per_tier": tiers,
            "setups_s": [r["setup_s"] for r in results],
            "timed_s": [r["timed_s"] for r in results]}
    print(json.dumps({"meta": meta}))
    print(json.dumps({"correct": all(r["correct"] for r in results),
                      "attempted": sum(r["attempted"] for r in results),
                      "failed": sum(r["failed"] for r in results), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
