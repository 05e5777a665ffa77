"""The three workloads: inputs, cold set-up, one op, and the answer check.

Each workload object is made from a seed (inputs only, NumPy only), then
:meth:`setup` imports the program and builds and runs every kernel the
workload uses once, and :meth:`round` performs one round of ops.  A round
returns the seconds it spent in timed calls and one record per op; inputs are
made and answers are checked outside the timed calls.

* ``eager-ops`` -- one op is nine warm ``Session`` calls: csr SpMM at width 4,
  hyb SpMM at width 8 and SDDMM at width 8 on each of cora, citeseer and
  pubmed.
* ``model-forward`` -- one op is one forward of each compiled model
  (GraphSAGE on pubmed at width 32, RGCN on aifb, masked attention on cora)
  plus one ``Session.sparse_conv`` on a voxelised scan, on fresh inputs.
* ``serve-churn`` -- one op is one ``Server.spmm`` request; a round is
  ``REQUESTS`` requests in closed-loop waves of ``WINDOW``, then one scripted
  edit of a tenant pair's graph (see :class:`ServeChurn`).
"""

from __future__ import annotations

import contextlib
import threading
import time
from concurrent.futures import Future
from typing import Dict, List, NamedTuple, Optional, Tuple

import numpy as np
import scipy.sparse as sp

import inputs
import reference


class Op(NamedTuple):
    latency_s: float
    failed: bool  # the answer was wrong
    correct: bool  # the answer passed its check, or was wrong only through the named fault


def _csr_matrix(graph: inputs.Graph, data: Optional[np.ndarray] = None):
    from repro.formats.csr import CSRMatrix

    return CSRMatrix((graph.n, graph.n), graph.indptr.copy(), graph.indices.copy(),
                     graph.data.copy() if data is None else data)


def _normal(rng: np.random.Generator, *shape: int) -> np.ndarray:
    return rng.standard_normal(shape).astype(np.float32)


class EagerOps:
    """Warm single-operator calls, where dispatch outweighs the kernel.

    The ops cycle through ``POOL`` input sets whose references are computed
    before the warm phase, so that checking an answer is one comparison.
    """

    GRAPHS = ("cora", "citeseer", "pubmed")
    POOL = 8

    def __init__(self, seed: int):
        rng = np.random.default_rng([seed, 1])
        self.graphs = {name: inputs.citation_graph(name) for name in self.GRAPHS}
        adjacency = {name: reference.scipy_csr(g) for name, g in self.graphs.items()}
        self.pool, self.refs = [], []
        for _ in range(self.POOL):
            calls = []
            for name, g in self.graphs.items():
                calls.append((name, "csr", (_normal(rng, g.n, 4),)))
                calls.append((name, "hyb", (_normal(rng, g.n, 8),)))
                calls.append((name, "sddmm", (_normal(rng, g.n, 8), _normal(rng, 8, g.n))))
            self.pool.append(calls)
            self.refs.append([reference.sddmm(adjacency[name], *args) if kind == "sddmm"
                              else reference.spmm(adjacency[name], *args)
                              for name, kind, args in calls])
        self.ops = 0

    def setup(self) -> None:
        from repro.runtime.session import Session

        self.session = Session()
        self.matrices = {name: _csr_matrix(g) for name, g in self.graphs.items()}
        self._calls(self.pool[0])

    def _calls(self, calls) -> List[np.ndarray]:
        session, matrices = self.session, self.matrices
        outs = []
        for name, kind, args in calls:
            if kind == "sddmm":
                outs.append(session.sddmm(matrices[name], *args))
            else:
                outs.append(session.spmm(matrices[name], *args, format=kind))
        return outs

    @staticmethod
    def check(refs, outs) -> bool:
        return all(reference.within_bound(out, ref) for out, ref in zip(outs, refs))

    def round(self) -> Tuple[float, List[Op]]:
        index = self.ops % self.POOL
        self.ops += 1
        start = time.perf_counter()
        outs = self._calls(self.pool[index])
        elapsed = time.perf_counter() - start
        ok = self.check(self.refs[index], outs)
        return elapsed, [Op(elapsed, not ok, ok)]


class ModelForward:
    """Whole-model forwards, where kernel time and cold compilation dominate."""

    SAGE_WIDTH, SAGE_HIDDEN, SAGE_CLASSES = 32, 32, 8
    RGCN_DIMS = (8, 8, 4)
    HEADS, HEAD_DIM = 4, 8
    CONV_CHANNELS = 8

    def __init__(self, seed: int):
        self.rng = rng = np.random.default_rng([seed, 2])
        pubmed = inputs.citation_graph("pubmed")
        self.pubmed = pubmed
        deg = np.maximum(pubmed.row_lengths(), 1)
        self.sage_adj = sp.csr_matrix(
            (np.repeat(1.0 / deg, pubmed.row_lengths()), pubmed.indices, pubmed.indptr),
            shape=(pubmed.n, pubmed.n))
        w, h, c = self.SAGE_WIDTH, self.SAGE_HIDDEN, self.SAGE_CLASSES
        self.sage_weights = [_glorot(rng, *shape) for shape in ((w, h), (w, h), (h, c), (h, c))]
        self.relations = inputs.relational_graph()
        self.rgcn_adj = [reference.scipy_csr(g) for g in self.relations]
        d_in, hidden, classes = self.RGCN_DIMS
        r = len(self.relations)
        self.rgcn_weights = [(_glorot(rng, r, d_in, hidden), _glorot(rng, d_in, hidden)),
                             (_glorot(rng, r, hidden, classes), _glorot(rng, hidden, classes))]
        self.mask = inputs.citation_graph("cora")
        self.mask_ones = sp.csr_matrix(
            (np.ones(self.mask.nnz), self.mask.indices, self.mask.indptr),
            shape=(self.mask.n, self.mask.n))
        self.scan = inputs.voxel_scan()
        ch = self.CONV_CHANNELS
        self.conv_weights = _glorot(rng, len(self.scan.maps), ch, ch)

    def _inputs(self) -> Dict[str, np.ndarray]:
        rng, n = self.rng, self.mask.n
        attn = (self.HEADS, n, self.HEAD_DIM)
        x = {
            "sage": _normal(rng, self.pubmed.n, self.SAGE_WIDTH),
            "rgcn": _normal(rng, self.relations[0].n, self.RGCN_DIMS[0]),
            "q": _normal(rng, *attn), "k": _normal(rng, *attn), "v": _normal(rng, *attn),
            "conv": _normal(rng, self.scan.num_points, self.CONV_CHANNELS),
        }
        # The captured attention graph takes k as (heads, head_dim, n).
        x["k_t"] = np.ascontiguousarray(x["k"].transpose(0, 2, 1))
        return x

    def setup(self) -> None:
        from repro.formats.csf import CSFTensor
        from repro.models.graphsage import GraphSAGE, GraphSAGEParams
        from repro.models.rgcn import RGCN, RGCNParams
        from repro.ops.sparse_conv import SparseConvProblem
        from repro.runtime.session import Session
        from repro.workloads.attention import capture_sparse_attention

        session = self.session = Session()
        x = self._inputs()
        sage = GraphSAGE(_csr_matrix(self.pubmed), GraphSAGEParams(*self.sage_weights))
        self.sage = sage.compile(session, x["sage"])
        n = self.relations[0].n
        adjacency = CSFTensor((len(self.relations), n, n),
                              [_csr_matrix(g) for g in self.relations])
        model = RGCN(adjacency, *self.RGCN_DIMS)
        for layer, (relation_weights, self_weight) in zip(
                (model.layer1, model.layer2), self.rgcn_weights):
            layer.params = RGCNParams(relation_weights, self_weight)
        self.rgcn = model.compile(session, x["rgcn"])
        builder = session.graph()
        mask = _csr_matrix(self.mask, np.ones(self.mask.nnz, dtype=np.float32))
        self.attention_out = capture_sparse_attention(builder, mask, x["q"], x["k"], x["v"]).name
        self.attention = builder.compile()
        self.conv = SparseConvProblem(self.scan.num_points, self.scan.num_points,
                                      self.CONV_CHANNELS, self.CONV_CHANNELS, self.scan.maps)
        self._calls(x)

    def _calls(self, x: Dict[str, np.ndarray]) -> List[np.ndarray]:
        return [
            self.sage(x["sage"]),
            self.rgcn(x["rgcn"]),
            self.attention.run({"q": x["q"], "k": x["k_t"], "v": x["v"]})[self.attention_out],
            self.session.sparse_conv(self.conv, x["conv"], self.conv_weights),
        ]

    def check(self, x: Dict[str, np.ndarray], outs: List[np.ndarray]) -> bool:
        refs = [
            reference.graphsage(self.sage_adj, x["sage"], self.sage_weights),
            reference.rgcn(self.rgcn_adj, x["rgcn"], self.rgcn_weights),
            reference.attention(self.mask_ones, x["q"], x["k"], x["v"]),
            reference.sparse_conv(self.scan, x["conv"], self.conv_weights),
        ]
        return all(reference.within_bound(out, ref) for out, ref in zip(outs, refs))

    def round(self) -> Tuple[float, List[Op]]:
        x = self._inputs()
        start = time.perf_counter()
        outs = self._calls(x)
        elapsed = time.perf_counter() - start
        ok = self.check(x, outs)
        return elapsed, [Op(elapsed, not ok, ok)]


def _glorot(rng: np.random.Generator, *shape: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
    return rng.uniform(-limit, limit, size=shape).astype(np.float32)


class ServeChurn:
    """Multi-tenant serving under edits: coalescing, delta log and cold builds.

    Tenants come in pairs that share one graph's content (cora and citeseer),
    so their requests coalesce.  One producer thread sends requests in waves
    of ``WINDOW`` and sends the next wave once the last one is answered (a
    closed loop); with the server's batcher that is two threads.  A wave lands
    in one drain of the batcher, so the groups it forms follow from the seed,
    not from thread timing.

    After every ``REQUESTS`` requests the producer edits one pair
    (alternating): it queues one request from each tenant of the pair behind
    a blocking call, inserts and deletes ``EDIT_EDGES`` edges each in the
    first tenant's matrix, releases the call, and then applies the same edit
    to the second tenant so the pair coalesces again.  Every edit creates a
    new structure, so the groups after it pay cold builds.

    The two queued requests hit the known fault of the batcher: a coalesced
    group runs against its first member's live matrix, so both are answered
    on the edited structure.  The sequence fixes the order of edit and
    launch, so exactly these two requests per round fail, on every seed.
    Requests draw their features from a pool of ``POOL`` per pair and round,
    so each distinct answer is checked against one reference.
    """

    PAIRS = ("cora", "citeseer")
    WIDTH = 4
    WINDOW = 8
    REQUESTS = 96
    EDIT_EDGES = 8
    POOL = 16
    CACHE_ENTRIES = 32

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 3])
        graphs = {pair: inputs.citation_graph(pair) for pair in self.PAIRS}
        self.graphs = graphs
        #: pair -> edge-set versions, each (sorted keys, values).
        self.versions = {pair: [(inputs.edge_keys(g), g.data)] for pair, g in graphs.items()}
        self.rounds = 0
        self._reference_session = None
        #: Context in which answers are checked; a traced run pauses its tracer.
        self.quiet = contextlib.nullcontext

    def setup(self) -> None:
        from repro.core.codegen.cache import KernelCache
        from repro.runtime.session import Session
        from repro.serve.server import Server

        # CACHE_ENTRIES, not the default capacity: the cache fills within the
        # first seconds of a process, so peak RSS levels off instead of
        # growing with the number of edits, and with it with the run's speed.
        # This leaves out on purpose the growth of a default-capacity cache,
        # whose entries are bounded by count and not by bytes.
        self.session = Session(cache=KernelCache(capacity=self.CACHE_ENTRIES))
        self.server = Server(self.session)
        self.live = {(pair, t): _csr_matrix(self.graphs[pair]) for pair in self.PAIRS
                     for t in (0, 1)}
        # Build the batched kernel of every group size a wave can form.
        for pair in self.PAIRS:
            x = self._features(pair)
            for size in range(1, self.WINDOW + 1):
                futures = [self.server.spmm(self.live[pair, i % 2], x, tenant=f"{pair}-{i % 2}")
                           for i in range(size)]
                for future in futures:
                    future.result()

    def close(self) -> None:
        self.server.close()

    def _features(self, pair: str) -> np.ndarray:
        return _normal(self.rng, self.graphs[pair].n, self.WIDTH)

    def _edit(self, pair: str):
        """Pick EDIT_EDGES absent edges to insert and present edges to delete."""
        keys, values = self.versions[pair][-1]
        n = self.graphs[pair].n
        picked = self.rng.choice(keys.size, self.EDIT_EDGES, replace=False)
        candidates = self.rng.integers(0, n * n, 4 * self.EDIT_EDGES)
        absent = np.setdiff1d(candidates, keys)  # sorted, unique
        new = self.rng.choice(absent, self.EDIT_EDGES, replace=False)
        new_values = self.rng.uniform(0.1, 1.1, self.EDIT_EDGES).astype(np.float32)
        keep = np.ones(keys.size, dtype=bool)
        keep[picked] = False
        merged = np.concatenate([keys[keep], new])
        order = np.argsort(merged)
        self.versions[pair].append(
            (merged[order], np.concatenate([values[keep], new_values])[order]))
        return (new // n, new % n, new_values), (keys[picked] // n, keys[picked] % n)

    @staticmethod
    def _apply(matrix, edit) -> None:
        (rows, cols, values), (del_rows, del_cols) = edit
        matrix.insert_edges(rows, cols, values)
        matrix.delete_edges(del_rows, del_cols)

    def round(self) -> Tuple[float, List[Op]]:
        server, live, rng = self.server, self.live, self.rng
        pools = {pair: [self._features(pair) for _ in range(self.POOL)] for pair in self.PAIRS}
        tenants = rng.integers(0, 2 * len(self.PAIRS), self.REQUESTS)
        picks = rng.integers(0, self.POOL, self.REQUESTS)
        plan = [(self.PAIRS[t // 2], t % 2, int(f)) for t, f in zip(tenants, picks)]
        edited = self.PAIRS[self.rounds % len(self.PAIRS)]
        self.rounds += 1
        version = {pair: len(v) - 1 for pair, v in self.versions.items()}
        edit = self._edit(edited)
        done: Dict[object, float] = {}

        def finished(future) -> None:
            done[future] = time.perf_counter()

        def send(pair: str, t: int, f: int) -> Future:
            submitted = time.perf_counter()
            future = server.spmm(live[pair, t], pools[pair][f], tenant=f"{pair}-{t}")
            future.add_done_callback(finished)
            sent.append((pair, version[pair], f, future, submitted))
            return future

        sent: list = []  # (pair, version, feature index, future, submit time)
        start = time.perf_counter()
        for wave in range(0, len(plan), self.WINDOW):
            for future in [send(*request) for request in plan[wave:wave + self.WINDOW]]:
                future.result()
        gate = threading.Event()
        blocker = server.call(gate.wait)
        probes = [send(edited, t, t) for t in (0, 1)]
        self._apply(live[edited, 0], edit)
        gate.set()
        for future in probes:
            future.result()
        blocker.result()
        self._apply(live[edited, 1], edit)
        elapsed = time.perf_counter() - start
        with self.quiet():
            expected = _Expected(self, pools)
            ops = [expected.check(*item, done, probe=i >= self.REQUESTS)
                   for i, item in enumerate(sent)]
        return elapsed, ops

    def _eager(self, matrix, x: np.ndarray) -> np.ndarray:
        """Eager ``Session.spmm`` in a separate session with no disk layer, so
        checking never warms the served session's caches."""
        if self._reference_session is None:
            from repro.core.codegen.cache import KernelCache
            from repro.runtime.session import Session

            self._reference_session = Session(cache=KernelCache(capacity=8, disk=None))
        return self._reference_session.spmm(matrix, x)


class _Expected:
    """The answers one round of ``serve-churn`` must give, computed on demand."""

    def __init__(self, churn: ServeChurn, pools: Dict[str, List[np.ndarray]]):
        self.churn = churn
        self.pools = pools
        self.snapshots: Dict[tuple, tuple] = {}
        self.answers: Dict[tuple, tuple] = {}

    def answer(self, pair: str, version: int, f: int):
        """(SciPy reference, eager answer) on the edge set of *version*."""
        key = (pair, version, f)
        if key not in self.answers:
            if (pair, version) not in self.snapshots:
                keys, values = self.churn.versions[pair][version]
                g = inputs.graph_from_keys(self.churn.graphs[pair].n, keys, values)
                self.snapshots[pair, version] = (reference.scipy_csr(g), _csr_matrix(g))
            scipy_a, matrix = self.snapshots[pair, version]
            x = self.pools[pair][f]
            self.answers[key] = (reference.spmm(scipy_a, x), self.churn._eager(matrix, x))
        return self.answers[key]

    def check(self, pair, version, f, future, submitted, done, probe=False) -> Op:
        """Check one served answer against its submit-time edge set.

        It must be within the float32 bound of the SciPy product and equal
        (bit for bit) to eager ``Session.spmm`` on a matrix built from that
        edge set.  A probe request answered on the edge set after the edit is
        the named fault: failed, but explained.
        """
        out = future.result()
        latency = done[future] - submitted
        ref, eager = self.answer(pair, version, f)
        good = reference.within_bound(out, ref) and np.array_equal(out, eager)
        if good or not probe:
            return Op(latency, not good, good)
        return Op(latency, True, np.array_equal(out, self.answer(pair, version + 1, f)[1]))
