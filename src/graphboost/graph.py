"""Undirected graphs and the node-mixing linear operators built on them.

An operator is one sparse matrix P; powers and polynomials of it are
applied by repeated sparse matvec (see ``aggregate.Polynomial``), never
materialized densely. The over-smoothing report needs only P's
eigenvalue-1 space, one sqrt(deg + 1) vector per connected component, so
no program path densifies P. ``eigendecompose``, which does, is there to
inspect the full spectrum, and ``operator_norm`` reads it; both refuse
graphs above a size cap.

P x is computed by contiguous row blocks of about equal nonzero count, one
per CPU the process may run on, in a thread pool started at the first
product large enough to split. Every output row is summed over the same
entries in the same order as the serial product, so the result is
``matrix @ x`` bit for bit. The kernel is scipy's CSR multivector loop, not
BLAS, so the BLAS thread variables do not govern it.

A product may be restricted to some rows of P x, reading x only on those
rows' neighbours (``PropagationMatrix.apply``'s ``rows`` and ``cols``,
with ``reach`` giving the neighbours): the same kernel runs on P's rows
with their columns re-indexed, so each row is still the full product's
bit for bit. A stage chain replayed on a few rows walks only their
receptive field this way (``boost.stage_inputs``).
"""

from __future__ import annotations

import functools
import os
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp
from scipy.sparse._sparsetools import csr_matvecs

DENSE_EIGEN_CAP = 5000
# row blocks P x is split into: the CPUs in the process's affinity mask
WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
           else os.cpu_count() or 1)
# least work (stored entries x columns) per block worth a thread hand-off;
# a smaller product runs as one block on the caller's thread
MIN_BLOCK_WORK = 1 << 19


@functools.lru_cache(maxsize=None)
def _pool(workers):
    return ThreadPoolExecutor(workers, thread_name_prefix="graphboost-apply")


# a forked child inherits the pool object but not its threads
os.register_at_fork(after_in_child=_pool.cache_clear)


class GraphError(ValueError):
    pass


@dataclass(frozen=True)
class SparseGraph:
    """Loop-free undirected graph with 0-based node indices.

    Edges are stored once per undirected pair (i < j); ingestion symmetrizes
    and deduplicates, so (i, j) and (j, i) describe the same edge.
    """

    n_nodes: int
    edges: np.ndarray  # (E, 2) int array, each row i < j

    @classmethod
    def from_edges(cls, n_nodes, edges):
        if n_nodes < 1:
            raise GraphError("graph needs at least one node")
        pairs = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if pairs.size:
            if pairs.min() < 0 or pairs.max() >= n_nodes:
                raise GraphError(
                    f"edge endpoint out of range [0, {n_nodes})"
                )
            if np.any(pairs[:, 0] == pairs[:, 1]):
                bad = pairs[pairs[:, 0] == pairs[:, 1]][0, 0]
                raise GraphError(f"self-loop at node {bad} not allowed")
            pairs = np.sort(pairs, axis=1)
            # the key i n + j of a pair i < j < n sorts as the pair does, so
            # the unique keys give np.unique(pairs, axis=0), 3x faster
            keys = np.unique(pairs[:, 0] * n_nodes + pairs[:, 1])
            pairs = np.stack(np.divmod(keys, n_nodes), axis=1)
        return cls(n_nodes=n_nodes, edges=pairs)

    @property
    def n_edges(self):
        return len(self.edges)

    @property
    def degrees(self):
        deg = np.zeros(self.n_nodes, dtype=np.int64)
        if self.edges.size:
            np.add.at(deg, self.edges[:, 0], 1)
            np.add.at(deg, self.edges[:, 1], 1)
        return deg

    def adjacency(self):
        """Symmetric {0,1} adjacency as CSR."""
        i, j = self.edges[:, 0], self.edges[:, 1]
        rows = np.concatenate([i, j])
        cols = np.concatenate([j, i])
        vals = np.ones(len(rows))
        return sp.csr_matrix(
            (vals, (rows, cols)), shape=(self.n_nodes, self.n_nodes)
        )


def read_edge_list(path):
    """The (E, 2) int64 array of the "i j" pairs in a file, one per line;
    '#' starts a comment. A line of any other field count is refused, and a
    file holding no pair gives shape (0, 2)."""
    with warnings.catch_warnings():
        # a file of comments only is a graph without edges, not a fault
        warnings.filterwarnings("ignore", "loadtxt: input contained no data")
        pairs = np.loadtxt(path, dtype=np.int64, comments="#", ndmin=2)
    if pairs.size and pairs.shape[1] != 2:
        raise GraphError(f"edge lines hold {pairs.shape[1]} fields, not 2")
    return pairs.reshape(-1, 2)


def write_edge_list(path, graph):
    with open(path, "w") as fh:
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")


def _row_blocks(m, parts):
    """The rows of the CSR matrix ``m`` in at most ``parts`` contiguous
    blocks of near-equal nonzero count, each as (r0, r1, indptr, indices,
    data) of rows [r0, r1), the indptr rebased to the block's first
    entry."""
    bounds = np.unique(np.concatenate([
        [0], np.searchsorted(m.indptr, np.arange(1, parts) * m.nnz // parts),
        [m.shape[0]]]))
    blocks = []
    for r0, r1 in zip(bounds, bounds[1:]):
        ptr = m.indptr[r0:r1 + 1]
        lo, hi = ptr[0], ptr[-1]
        blocks.append((r0, r1, ptr - lo, m.indices[lo:hi], m.data[lo:hi]))
    return blocks


def _run(block, n_in, width, x, out):
    """Zero the block's rows of ``out`` and add its rows of P x into them,
    x holding ``n_in`` rows of ``width`` columns."""
    r0, r1, indptr, indices, data = block
    rows = out[r0:r1]
    rows.fill(0.0)
    csr_matvecs(r1 - r0, n_in, width, indptr, indices, data, x,
                rows.reshape(-1))


@dataclass(frozen=True)
class PropagationMatrix:
    """Sparse node-mixing operator P, applied by sparse matvec. P must be
    square and exactly symmetric, so P^T x is P x. ``matrix`` is held as
    canonical CSR (sorted indices, no duplicates) with float64 data."""

    matrix: sp.csr_matrix

    def __post_init__(self):
        m = sp.csr_matrix(self.matrix, dtype=np.float64)
        if not m.has_canonical_format:
            m = m.copy()
            m.sum_duplicates()
        if m.shape[0] != m.shape[1] or (m != m.T).nnz:
            raise GraphError(
                f"operator is not square and symmetric: {m.shape}")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "_blocks", _row_blocks(m, WORKERS))

    @property
    def n(self):
        return self.matrix.shape[0]

    def apply(self, x, rows=None, cols=None):
        """P x for x of shape (N,) or (N, C), by row blocks: the caller's
        thread runs the first, the pool the rest.

        Given ``rows``, sorted node ids, only those rows of P x are taken;
        given ``cols`` as well, sorted node ids holding every neighbour of
        ``rows``, x holds only the rows ``cols`` of a full x. P's rows keep
        their entries in order, and ``cols`` re-indexes their columns
        monotonely, so each row is the full product's bit for bit."""
        x = np.ascontiguousarray(x, dtype=float)
        n_in = self.n if cols is None else len(cols)
        if x.shape[0] != n_in:
            raise GraphError(
                f"row count {x.shape[0]} does not match operator size {n_in}"
            )
        if rows is None:
            m, blocks = self.matrix, self._blocks
        else:
            m = self.matrix[rows]
            if cols is not None:
                at = np.searchsorted(cols, m.indices)
                if not np.array_equal(cols[np.minimum(at, n_in - 1)],
                                      m.indices):
                    raise GraphError("cols lack a neighbour of rows")
                m.indices = at.astype(m.indices.dtype)
            blocks = _row_blocks(m, WORKERS)
        out = np.empty((m.shape[0],) + x.shape[1:])
        if not blocks:  # no row asked for
            return out
        width = x.size // max(n_in, 1)
        if m.nnz * width < MIN_BLOCK_WORK * len(blocks):
            blocks = _row_blocks(m, 1)
        flat = x.reshape(-1)
        # one pool serves every product: a row subset may split into fewer
        # blocks than WORKERS
        pending = [_pool(WORKERS - 1).submit(
            _run, block, n_in, width, flat, out) for block in blocks[1:]]
        _run(blocks[0], n_in, width, flat, out)
        for job in pending:
            job.result()
        return out

    def reach(self, rows):
        """The sorted ids of ``rows`` (sorted node ids) and of their
        neighbours on P's pattern, the nodes whose x the rows ``rows`` of
        P x read; None when that is every node."""
        hit = np.zeros(self.n, dtype=bool)
        hit[rows] = True
        hit[self.matrix[rows].indices] = True
        return None if hit.all() else np.flatnonzero(hit)

    apply_transpose = apply  # P is symmetric


def base_operator(g: SparseGraph) -> PropagationMatrix:
    """The GCN operator D~^{-1/2} (A + I) D~^{-1/2} with D~ = D + I, the one
    P every aggregator is a polynomial in. It is defined on every graph (an
    isolated node gets P_ii = 1), its eigenvalues lie in (-1, 1], and its
    top eigenvalue is 1, with eigenvector sqrt(deg + 1)."""
    deg = g.degrees + 1.0
    a = (g.adjacency() + sp.identity(g.n_nodes, format="csr")).tocoo()
    w = 1.0 / np.sqrt(deg)
    return PropagationMatrix(matrix=sp.csr_matrix(
        (a.data * w[a.row] * w[a.col], (a.row, a.col)), shape=a.shape))


def operator_norm(p: PropagationMatrix):
    """Largest singular value of P: max |lambda| over ``eigendecompose``'s
    eigenvalues, since P is symmetric; refused above ``DENSE_EIGEN_CAP``
    nodes, as ``eigendecompose`` is."""
    return float(np.abs(eigendecompose(p)[0]).max())


def eigendecompose(p: PropagationMatrix, cap=DENSE_EIGEN_CAP):
    """Dense eigendecomposition of the symmetric P, refused above the size
    cap: (eigenvalues in descending order, orthonormal eigenvectors as
    columns, in Fortran order)."""
    if p.n > cap:
        raise GraphError(f"eigendecompose refused: N={p.n} exceeds cap {cap}")
    vals, vecs = np.linalg.eigh(p.matrix.toarray())
    return vals[::-1], np.asfortranarray(vecs[:, ::-1])
