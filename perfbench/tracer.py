"""Layer spans recorded from outside the program.

:func:`install` wraps the public functions at each layer boundary of the
program (operator registry, code generation, runtime, formats, graph, serving)
so that every call records a span: name, start, end, parent span, op id and
thread.  Spans are kept in memory; :meth:`Tracer.dump` writes them out once
the run ends, and :func:`layer_metrics` reduces them to the per-layer metrics.
Nothing is wrapped unless a traced run asks for it, so an untraced run
executes the program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import statistics
import threading
import time
from typing import Any, Callable, Dict, List, Optional

# Span fields: [name, start, end, parent index, op id, thread id, info].
NAME, START, END, PARENT, OP, THREAD, INFO = range(7)

_PAGE_MIB = 4096 / 2**20


def rss_mib() -> float:
    """Current resident set size of this process, in MiB."""
    with open("/proc/self/statm") as handle:
        return int(handle.read().split()[1]) * _PAGE_MIB


class Tracer:
    """In-memory span store with one parent stack and op id per thread."""

    def __init__(self) -> None:
        self.spans: List[list] = []
        self.warm_from = 0  # index of the first span of the warm phase
        self.enabled = True  # cleared while the benchmark checks answers
        self._local = threading.local()

    def set_op(self, op_id: Optional[int]) -> None:
        self._local.op = op_id

    def start_warm(self) -> None:
        self.warm_from = len(self.spans)

    def spanned(self, fn: Callable, name: str,
                enter: Optional[Callable] = None, leave: Optional[Callable] = None) -> Callable:
        """*fn* wrapped to record a span per call.

        ``enter(args)`` runs before the call and ``leave(result, entered)``
        after it; the last value either returns becomes the span's info.
        """
        local = self._local
        spans = self.spans
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = getattr(local, "stack", None)
            if stack is None:
                stack = local.stack = []
            entered = enter(args) if enter is not None else None
            span = [name, 0.0, 0.0, stack[-1] if stack else -1,
                    getattr(local, "op", None), threading.get_ident(), entered]
            spans.append(span)
            stack.append(len(spans) - 1)
            span[START] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[END] = time.perf_counter()
                stack.pop()
            if leave is not None:
                span[INFO] = leave(result, entered)
            return result

        return wrapper

    def wrap(self, owner: Any, attr: str, name: str, **hooks: Any) -> None:
        """Replace ``owner.attr`` (function, method or classmethod) by a spanning wrapper."""
        static = inspect.getattr_static(owner, attr)
        if isinstance(static, classmethod):
            setattr(owner, attr, classmethod(self.spanned(static.__func__, name, **hooks)))
        else:
            setattr(owner, attr, self.spanned(getattr(owner, attr), name, **hooks))

    def wrap_returned(self, owner: Any, attr: str, name: str) -> None:
        """Wrap ``owner.attr`` so that the callable it returns records spans."""
        factory = getattr(owner, attr)

        @functools.wraps(factory)
        def wrapper(*args, **kwargs):
            return self.spanned(factory(*args, **kwargs), name)

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w") as handle:
            for index, span in enumerate(self.spans):
                record = {
                    "id": index, "name": span[NAME], "start": span[START], "end": span[END],
                    "parent": span[PARENT], "op": span[OP], "thread": span[THREAD],
                }
                handle.write(json.dumps(record) + "\n")


def install(tracer: Tracer) -> None:
    """Wrap every layer boundary the per-layer metrics are made from."""
    # The package re-exports ``build`` the function; its module is wanted here.
    build_mod = importlib.import_module("repro.core.codegen.build")
    from repro.core.codegen import emit_c, emit_numpy
    from repro.core.codegen.cache import KernelCache
    from repro.formats.csr import CSRMatrix
    from repro.formats.hyb import HybFormat
    from repro.graph.builder import GraphBuilder
    from repro.graph.compile import CompiledGraph
    from repro.ops import registry
    from repro.runtime import dynamic
    from repro.runtime import session as session_mod
    from repro.serve import server as server_mod

    for attr in dir(registry):
        if attr.startswith("prepare_") and inspect.isfunction(getattr(registry, attr)):
            tracer.wrap(registry, attr, "ops.prepare")
    tracer.wrap(registry, "build_spec_program", "ops.program")
    tracer.wrap(registry, "finalize", "ops.finalize")
    tracer.wrap(build_mod, "structural_fingerprint", "codegen.fingerprint")
    tracer.wrap(KernelCache, "get", "codegen.lookup", leave=lambda entry, _: entry is not None)
    tracer.wrap(session_mod, "build", "codegen.build")
    tracer.wrap(emit_c, "compile_so", "codegen.cc")
    tracer.wrap(build_mod.Kernel, "run", "runtime.run")
    # The closures the compiled tiers hand back are the kernels proper;
    # building one compiles (native tier) and builds the kernel's plan.
    rss_growth = {"enter": lambda args: rss_mib(), "leave": lambda _, before: rss_mib() - before}
    for module, factory in ((emit_c, "load_native"), (emit_numpy, "compile_emitted")):
        tracer.wrap_returned(module, factory, "runtime.kernel")
        tracer.wrap(module, factory, "runtime.plan", **rss_growth)
    tracer.wrap(dynamic, "overlay_spmm", "runtime.overlay")
    tracer.wrap(CSRMatrix, "insert_edges", "formats.edit")
    tracer.wrap(CSRMatrix, "delete_edges", "formats.edit")
    tracer.wrap(HybFormat, "from_csr", "formats.decompose")
    tracer.wrap(GraphBuilder, "compile", "graph.compile")
    tracer.wrap(CompiledGraph, "run", "graph.run")
    tracer.wrap(server_mod.Server, "spmm", "serve.submit")
    # Queue wait: from a request's submit stamp to the start of its group.
    tracer.wrap(server_mod, "run_group", "serve.group", enter=lambda args: (
        args[1][0].kind, [time.monotonic() - req.submitted_at for req in args[1]]))


# -- reduction ------------------------------------------------------------------

def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def layer_metrics(tracer: Tracer, warm_ops: int, warm_seconds: float,
                  counters: Dict[str, int], latency_p50_ms: float) -> Dict[str, float]:
    """Reduce the spans to the per-layer metrics.

    *counters* holds the growth of the session's own counters (``SessionStats``)
    over the warm phase; the kernel-cache hit ratio, the misses and the
    native share come from them.

    Per-call times are medians over the warm phase, except for work that
    happens once per structure (lowering, compiling, plan building, format
    decomposition, graph compilation), which is taken over the whole run.
    A layer the workload never enters reports 0.
    """
    spans = tracer.spans
    warm = range(tracer.warm_from, len(spans))
    dur = [(s[END] - s[START]) for s in spans]
    by_name: Dict[str, List[int]] = {}
    for index, span in enumerate(spans):
        by_name.setdefault(span[NAME], []).append(index)

    def named(name: str, warm_only: bool = True) -> List[int]:
        return [i for i in by_name.get(name, []) if not warm_only or i >= tracer.warm_from]

    def ms(name: str, warm_only: bool = True) -> float:
        return 1e3 * _median([dur[i] for i in named(name, warm_only)])

    def enclosing(index: int, name: str) -> int:
        """The nearest enclosing *name* span of span *index*, or -1."""
        parent = spans[index][PARENT]
        while parent >= 0 and spans[parent][NAME] != name:
            parent = spans[parent][PARENT]
        return parent

    child_time: Dict[int, float] = {}
    missed_builds = set()
    for i, span in enumerate(spans):
        parent = span[PARENT]
        if parent >= 0:
            child_time[parent] = child_time.get(parent, 0.0) + dur[i]
            if span[NAME] == "codegen.lookup" and not span[INFO]:
                missed_builds.add(parent)
    lower = [dur[i] - child_time.get(i, 0.0) for i in by_name.get("codegen.build", [])
             if i in missed_builds]
    cc = by_name.get("codegen.cc", [])
    cc_in_plan: Dict[int, float] = {}
    for i in cc:
        plan = enclosing(i, "runtime.plan")
        cc_in_plan[plan] = cc_in_plan.get(plan, 0.0) + dur[i]
    plans = by_name.get("runtime.plan", [])
    kernels_in_graph: Dict[int, float] = {}
    launches_in_graph = 0
    for i in named("runtime.kernel"):
        run = enclosing(i, "graph.run")
        if run >= 0:
            kernels_in_graph[run] = kernels_in_graph.get(run, 0.0) + dur[i]
            launches_in_graph += 1
    groups = [i for i in named("serve.group") if spans[i][INFO][0] != "call"]
    waits = [w for i in groups for w in spans[i][INFO][1]]
    builds = counters["kernel_cache_hits"] + counters["kernel_cache_misses"]
    runs = sum(counters[f"{tier}_runs"]
               for tier in ("native", "emitted", "vectorized", "interpreted"))
    roots = sum(dur[i] for i in warm if spans[i][PARENT] < 0)
    return {
        "ops.prepare_ms": ms("ops.prepare"),
        "ops.program_ms": ms("ops.program"),
        "ops.finalize_ms": ms("ops.finalize"),
        "codegen.fingerprint_ms": ms("codegen.fingerprint"),
        "codegen.lookup_ms": ms("codegen.lookup"),
        "codegen.lower_ms": 1e3 * _median(lower),
        "codegen.misses": counters["kernel_cache_misses"] / max(warm_ops, 1),
        "codegen.hit_ratio": counters["kernel_cache_hits"] / builds if builds else 0.0,
        "codegen.cc_calls": float(len(cc)),
        "codegen.cc_s": sum(dur[i] for i in cc),
        "runtime.kernel_ms": ms("runtime.kernel"),
        "runtime.native_share": counters["native_runs"] / runs if runs else 0.0,
        "runtime.first_run_ms": 1e3 * _median([dur[i] - cc_in_plan.get(i, 0.0) for i in plans]),
        "runtime.plan_rss_mib": sum(spans[i][INFO] for i in plans),
        "runtime.overlay_ms": ms("runtime.overlay"),
        "formats.edit_ms": ms("formats.edit"),
        "formats.decompose_ms": ms("formats.decompose", warm_only=False),
        "graph.compile_s": _median([dur[i] for i in by_name.get("graph.compile", [])]),
        "graph.run_self_ms": 1e3 * _median(
            [dur[i] - kernels_in_graph.get(i, 0.0) for i in named("graph.run")]),
        "graph.launches": launches_in_graph / max(warm_ops, 1),
        "serve.submit_ms": ms("serve.submit"),
        "serve.queue_wait_ms": 1e3 * _median(waits),
        "serve.group_ms": 1e3 * _median([dur[i] for i in groups]),
        "serve.occupancy": sum(len(spans[i][INFO][1]) for i in groups) / len(groups)
        if groups else 0.0,
        "trace.coverage": roots / warm_seconds if warm_seconds > 0 else 0.0,
        "trace.latency_p50_ms": latency_p50_ms,
    }

