"""Independent references and the answer check.

Every reference is computed here with SciPy or NumPy in float64, never by the
program under test.  An answer passes when it has the reference's shape, is
finite, and is within a float32 error bound of the reference:

    |out - ref| <= SAFETY * eps32 * depth * scale

``scale`` is the same computation carried out on absolute values (|A|·|X| for
a sparse product).  ``depth`` counts rounding errors, in units of eps32,
summed along the chain of reductions that feeds an output element, given per
output row where rows differ.  A reduction of ``n`` float32 terms contributes
``roundings(n)``: the worst case ``n / 2`` for short sums, and for long ones
the probabilistic bound ``LAMBDA * sqrt(n) / 2`` of Higham and Mary ("A New
Approach to Probabilistic Rounding Error Analysis", SIAM J. Sci. Comput.
2019), which holds except with probability below ``2 exp(-LAMBDA**2 / 2)``
(about 1e-14) per sum.  The worst case grows so fast that, for the hub rows
of the RGCN graph, it would accept answers 10% off.
"""

from __future__ import annotations

from typing import Any, List, Sequence, Tuple

import numpy as np
import scipy.sparse as sp

from inputs import ConvMaps, Graph

EPS32 = float(np.finfo(np.float32).eps)
SAFETY = 2.0
LAMBDA = 8.0

Ref = Tuple[np.ndarray, np.ndarray, Any]  # (reference, scale, depth)


def roundings(n: Any) -> Any:
    """Error of a float32 sum of *n* terms, in units of eps32 times its scale."""
    n = np.asarray(n, dtype=np.float64)
    return np.minimum(n / 2.0, LAMBDA * np.sqrt(n) / 2.0) + 1.0


def within_bound(out: np.ndarray, ref: Ref) -> bool:
    """Whether *out* matches a reference within its float32 error bound."""
    value, scale, depth = ref
    out = np.asarray(out)
    if out.shape != value.shape or not np.all(np.isfinite(out)):
        return False
    bound = SAFETY * EPS32 * depth * scale + 1e-30
    return bool(np.all(np.abs(out.astype(np.float64) - value) <= bound))


def scipy_csr(graph: Graph) -> sp.csr_matrix:
    return sp.csr_matrix(
        (graph.data.astype(np.float64), graph.indices, graph.indptr), shape=(graph.n, graph.n)
    )


def _degrees(a: sp.csr_matrix) -> np.ndarray:
    return np.diff(a.indptr).astype(np.float64)


def _neighbour_max(a: sp.csr_matrix, values: np.ndarray) -> np.ndarray:
    """Per row of *a*: the largest of *values* over the row's stored columns (0 if none)."""
    out = np.zeros(a.shape[0])
    np.maximum.at(out, np.repeat(np.arange(a.shape[0]), np.diff(a.indptr)), values[a.indices])
    return out


def spmm(a: sp.csr_matrix, x: np.ndarray) -> Ref:
    x = x.astype(np.float64)
    return a @ x, abs(a) @ np.abs(x), roundings(_degrees(a) + 1)[:, None]


def sddmm(a: sp.csr_matrix, x: np.ndarray, y: np.ndarray) -> Ref:
    """``a_e * (x[i] . y[:, j])`` at every stored edge, in CSR order."""
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    x64, y64 = x.astype(np.float64), y.astype(np.float64)
    value = a.data * np.einsum("ek,ek->e", x64[rows], y64[:, a.indices].T)
    scale = np.abs(a.data) * np.einsum("ek,ek->e", np.abs(x64[rows]), np.abs(y64[:, a.indices].T))
    return value, scale, roundings(x.shape[1] + 2)


def graphsage(a: sp.csr_matrix, x: np.ndarray, weights: Sequence[np.ndarray]) -> Ref:
    """Two-layer mean-aggregation GraphSAGE; *a* is already row-normalised.

    A row's depth is its own reductions plus the largest depth among the
    first-layer rows it aggregates.
    """
    ws1, wn1, ws2, wn2 = (w.astype(np.float64) for w in weights)
    x = x.astype(np.float64)
    h1 = np.maximum(x @ ws1 + (a @ x) @ wn1, 0.0)
    out = h1 @ ws2 + (a @ h1) @ wn2
    aa, ax = abs(a), np.abs(x)
    s1 = ax @ np.abs(ws1) + (aa @ ax) @ np.abs(wn1)
    scale = s1 @ np.abs(ws2) + (aa @ s1) @ np.abs(wn2)
    gather = roundings(_degrees(a) + 1)
    depth1 = gather + roundings(2 * x.shape[1] + 1)
    depth = np.maximum(depth1, gather + _neighbour_max(a, depth1)) + roundings(2 * ws1.shape[1] + 1)
    return out, scale, depth[:, None]


def rgcn(
    slices: List[sp.csr_matrix], x: np.ndarray, layers: Sequence[Tuple[np.ndarray, np.ndarray]]
) -> Ref:
    """Two RGCN layers: ``sum_r A_r X W_r + X W_self``, ReLU after the first.

    A layer sums, into each output element, the products of the row's edges
    over all relations times the input width (taken as one flat sum); a
    row's depth adds the largest depth among the rows it aggregates.
    """
    out, scale = x.astype(np.float64), np.abs(x.astype(np.float64))
    abs_slices = [abs(a) for a in slices]
    union = sum(abs_slices[1:], abs_slices[0]).tocsr()
    edges = np.asarray(sum(_degrees(a) for a in slices))
    depth = np.zeros(x.shape[0])
    for index, (relation_weights, self_weight) in enumerate(layers):
        rel = relation_weights.astype(np.float64)
        w_self = self_weight.astype(np.float64)
        new = out @ w_self
        new_scale = scale @ np.abs(w_self)
        for r, (a, aa) in enumerate(zip(slices, abs_slices)):
            new += (a @ out) @ rel[r]
            new_scale += (aa @ scale) @ np.abs(rel[r])
        out = np.maximum(new, 0.0) if index == 0 else new
        scale = new_scale
        depth = (np.maximum(depth, _neighbour_max(union, depth))
                 + roundings((edges + 1) * rel.shape[1]))
    return out, scale, depth[:, None]


def attention(a: sp.csr_matrix, q: np.ndarray, k: np.ndarray, v: np.ndarray) -> Ref:
    """Masked multi-head attention over *a*'s edges, softmax without max shift.

    ``q``/``k``/``v`` are (heads, n, d).  The bound propagates the score
    error through ``exp`` (a relative error) into the weighted sum.
    """
    heads, _, d = q.shape
    rows = np.repeat(np.arange(a.shape[0]), np.diff(a.indptr))
    cols = a.indices
    inv = 1.0 / np.sqrt(d)
    out = np.zeros(v.shape, dtype=np.float64)
    scale = np.zeros(v.shape, dtype=np.float64)
    deg = float(np.diff(a.indptr).max(initial=0))
    for h in range(heads):
        qh, kh, vh = (t[h].astype(np.float64) for t in (q, k, v))
        s = np.einsum("ed,ed->e", qh[rows], kh[cols]) * inv
        s_abs = np.einsum("ed,ed->e", np.abs(qh[rows]), np.abs(kh[cols])) * inv
        e = np.exp(s)
        w = e / np.bincount(rows, weights=e, minlength=a.shape[0])[rows]
        weights = sp.csr_matrix((w, cols, a.indptr), shape=a.shape)
        out[h] = weights @ vh
        row_max = np.zeros(a.shape[0])
        np.maximum.at(row_max, rows, s_abs)
        # Relative weight error, in units of eps32: exp turns the absolute
        # score error into a relative one; normalising doubles it.
        rel_w = 2.0 * roundings(d + 3) * row_max + roundings(deg + 4)
        scale[h] = rel_w[:, None] * (weights @ np.abs(vh))
    return out, scale, 1.0


def sparse_conv(maps: ConvMaps, x: np.ndarray, w: np.ndarray) -> Ref:
    """Gather-GEMM-scatter: ``out[o] += x[i] @ w[r]`` for every pair of offset r."""
    x64, w64 = x.astype(np.float64), w.astype(np.float64)
    out = np.zeros((maps.num_points, w.shape[2]))
    scale = np.zeros_like(out)
    for r, pairs in enumerate(maps.maps):
        if pairs.size:
            np.add.at(out, pairs[:, 1], x64[pairs[:, 0]] @ w64[r])
            np.add.at(scale, pairs[:, 1], np.abs(x64[pairs[:, 0]]) @ np.abs(w64[r]))
    return out, scale, roundings(len(maps.maps) * x.shape[1] + 1)
