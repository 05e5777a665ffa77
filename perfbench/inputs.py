"""Input generators of the benchmark.

The benchmark makes its own inputs, with NumPy only, so that a change to the
program's dataset helpers can never change what the benchmark measures.  The
graphs mimic the repository's Table-1 shapes (node and edge counts, heavy-tailed
out-degrees with a few planted hubs, Zipf-skewed column popularity).

The graphs and the scan are fixed datasets, generated from ``DATASET_SEED``:
a run's seed varies what a user varies (features, weights, request traffic,
edits), not the dataset, whose hub sizes alone moved warm op time by 7%
between seeds.
"""

from __future__ import annotations

from typing import Dict, List, NamedTuple, Tuple

import numpy as np

#: name -> (nodes, target edges, power-law exponent); pubmed is the
#: repository's half-scale pubmed.
GRAPHS: Dict[str, Tuple[int, int, float]] = {
    "cora": (2708, 10556, 2.4),
    "citeseer": (3327, 9228, 2.4),
    "pubmed": (9858, 44324, 2.3),
}

#: AIFB-like heterograph: nodes, edges, relations.
AIFB = (7262, 48810, 45)

DATASET_SEED = 0


class Graph(NamedTuple):
    """A CSR adjacency as plain arrays (row-sorted, no duplicate edges)."""

    n: int
    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray

    @property
    def nnz(self) -> int:
        return int(self.indices.size)

    def row_lengths(self) -> np.ndarray:
        return np.diff(self.indptr)


def graph_from_keys(n: int, keys: np.ndarray, data: np.ndarray) -> Graph:
    """CSR arrays from sorted unique edge keys ``row * n + col``."""
    rows = keys // n
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    return Graph(n, indptr, (keys % n).astype(np.int64), np.asarray(data, dtype=np.float32))


def edge_keys(graph: Graph) -> np.ndarray:
    rows = np.repeat(np.arange(graph.n, dtype=np.int64), graph.row_lengths())
    return rows * graph.n + graph.indices


def powerlaw_graph(n: int, edges: int, exponent: float, rng: np.random.Generator) -> Graph:
    """A directed graph with heavy-tailed out-degrees and skewed in-degrees."""
    raw = rng.pareto(exponent - 1.0, size=n) + 1.0
    hubs = rng.choice(n, size=max(2, n // 2000), replace=False)
    raw[hubs] = np.maximum(raw[hubs], 0.05 * n)
    degrees = np.clip(np.round(raw * (edges / raw.sum())), 0, n).astype(np.int64)
    popularity = 1.0 / np.arange(1, n + 1) ** 0.8
    cdf = np.cumsum(popularity)
    cdf /= cdf[-1]
    permutation = rng.permutation(n)
    rows = np.repeat(np.arange(n, dtype=np.int64), degrees)
    cols = permutation[np.minimum(cdf.searchsorted(rng.random(rows.size)), n - 1)]
    keys = np.unique(rows * n + cols)
    data = rng.random(keys.size).astype(np.float32) + np.float32(0.1)
    return graph_from_keys(n, keys, data)


def citation_graph(name: str) -> Graph:
    n, edges, exponent = GRAPHS[name]
    return powerlaw_graph(n, edges, exponent, np.random.default_rng([DATASET_SEED, n]))


def relational_graph() -> List[Graph]:
    """AIFB-like relation slices: Zipf-distributed edge counts per relation."""
    n, edges, relations = AIFB
    rng = np.random.default_rng([DATASET_SEED, relations, n])
    weights = 1.0 / np.arange(1, relations + 1) ** 1.1
    sizes = np.maximum(1, np.round(weights / weights.sum() * edges)).astype(np.int64)
    return [powerlaw_graph(n, int(size), 2.2, rng) for size in sizes]


class ConvMaps(NamedTuple):
    """Submanifold 3x3x3 convolution kernel maps over one voxelised scan."""

    num_points: int
    maps: List[np.ndarray]  # per offset: (pairs, 2) int64 of (input, output)


def voxel_scan(points: int = 2000, voxel: float = 0.8) -> ConvMaps:
    """A LiDAR-like scan (road corridor, near-ground points), voxelised."""
    rng = np.random.default_rng([DATASET_SEED, points])
    xyz = np.stack(
        [
            rng.uniform(-40.0, 40.0, points),
            rng.normal(0.0, 40.0 / 6, points).clip(-20.0, 20.0),
            np.abs(rng.normal(0.0, 1.5, points)).clip(0.0, 6.0),
        ],
        axis=1,
    )
    voxels = np.unique(np.floor(xyz / voxel).astype(np.int64), axis=0)
    lo = voxels.min(axis=0) - 1
    span = voxels.max(axis=0) - lo + 2

    def key(coords: np.ndarray) -> np.ndarray:
        c = coords - lo
        return (c[:, 0] * span[1] + c[:, 1]) * span[2] + c[:, 2]

    keys = key(voxels)
    order = np.argsort(keys)
    sorted_keys = keys[order]
    maps = []
    for offset in np.stack(np.meshgrid(*[np.arange(-1, 2)] * 3, indexing="ij"), -1).reshape(-1, 3):
        probe = key(voxels + offset)
        pos = np.minimum(np.searchsorted(sorted_keys, probe), sorted_keys.size - 1)
        hit = sorted_keys[pos] == probe
        maps.append(np.stack([np.flatnonzero(hit), order[pos[hit]]], axis=1).astype(np.int64))
    return ConvMaps(int(voxels.shape[0]), maps)
