"""One benchmark process: make inputs, set up cold, measure warm, check.

Started by ``run.py`` in a fresh interpreter whose kernel cache and tuning
records point into an empty private directory.  Prints one JSON object as its
last line of output: the set-up time, the latency of every op that did not
fail, the op counts, the timed seconds and the process's peak RSS.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import sys
import time

import numpy as np

import workloads

WORKLOADS = {
    "eager-ops": workloads.EagerOps,
    "model-forward": workloads.ModelForward,
    "serve-churn": workloads.ServeChurn,
}

#: Wall-clock limit of the warm phase; a run that reaches it stops early.
MAX_WARM_WALL_S = 110.0


def peak_rss_mib() -> float:
    with open("/proc/self/status") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


@contextlib.contextmanager
def _paused(tracer):
    tracer.enabled = False
    try:
        yield
    finally:
        tracer.enabled = True


def main() -> None:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, default=1,
                        help="keep measuring past --seconds until this many ops succeeded")
    parser.add_argument("--trace-out", default=None, help="trace the run; write spans here")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload](args.seed)  # input generation: not timed
    tracer = None
    if args.trace_out:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        workload.quiet = functools.partial(_paused, tracer)

    start = time.perf_counter()
    workload.setup()
    setup_s = time.perf_counter() - start

    if tracer is not None:
        tracer.start_warm()
    stats_before = workload.session.stats.as_dict()
    timed, ops, served_ops, wall_start = 0.0, [], 0, time.perf_counter()
    while timed < args.seconds or served_ops < args.min_ops:
        if time.perf_counter() - wall_start > MAX_WARM_WALL_S:
            break
        if tracer is not None:
            tracer.set_op(len(ops))
        elapsed, round_ops = workload.round()
        timed += elapsed
        ops.extend(round_ops)
        served_ops += sum(not op.failed for op in round_ops)
    getattr(workload, "close", lambda: None)()
    stats = workload.session.stats.as_dict()

    latencies = [op.latency_s * 1e3 for op in ops if not op.failed]
    warm = {name: stats[name] - stats_before[name] for name in stats}
    tiers = ("native", "emitted", "vectorized", "interpreted")
    result = {
        "setup_s": setup_s,
        "correct": all(op.correct for op in ops),
        "attempted": len(ops),
        "failed": sum(op.failed for op in ops),
        "timed_s": timed,
        "latencies_ms": latencies,
        "peak_rss_mib": peak_rss_mib(),
        "tiers": {tier: warm[f"{tier}_runs"] for tier in tiers},
    }
    if tracer is not None:
        import tracer as tracing

        result["layers"] = tracing.layer_metrics(
            tracer, len(ops), timed, warm, float(np.median(latencies)))
        tracer.dump(args.trace_out)
    print(json.dumps(result))


if __name__ == "__main__":
    sys.exit(main())
