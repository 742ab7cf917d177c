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
"""

from __future__ import annotations

import functools
import os
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
        pairs = np.asarray(list(edges), dtype=np.int64).reshape(-1, 2)
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
    """Parse "i j" pairs, one per line; '#' starts a comment."""
    pairs = []
    with open(path) as fh:
        for line in fh:
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            i, j = line.split()
            pairs.append((int(i), int(j)))
    return pairs


def write_edge_list(path, graph):
    with open(path, "w") as fh:
        for i, j in graph.edges:
            fh.write(f"{i} {j}\n")


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
        # row bounds cutting the nonzeros into WORKERS near-equal parts
        bounds = np.unique(np.concatenate([
            [0], np.searchsorted(m.indptr, np.arange(1, WORKERS) * m.nnz
                                 // WORKERS), [m.shape[0]]]))
        object.__setattr__(self, "_blocks", [
            self._block(r0, r1) for r0, r1 in zip(bounds, bounds[1:])])
        object.__setattr__(self, "_whole", [self._block(0, m.shape[0])])

    def _block(self, r0, r1):
        """Rows [r0, r1) of P as (r0, r1, indptr, indices, data), the
        indptr rebased to the block's first entry."""
        ptr = self.matrix.indptr[r0:r1 + 1]
        lo, hi = ptr[0], ptr[-1]
        return (r0, r1, ptr - lo, self.matrix.indices[lo:hi],
                self.matrix.data[lo:hi])

    @property
    def n(self):
        return self.matrix.shape[0]

    def apply(self, x):
        """P x for x of shape (N,) or (N, C), by row blocks: the caller's
        thread runs the first, the pool the rest."""
        x = np.ascontiguousarray(x, dtype=float)
        if x.shape[0] != self.n:
            raise GraphError(
                f"row count {x.shape[0]} does not match operator size {self.n}"
            )
        out = np.empty(x.shape)
        width = x.size // self.n
        blocks = self._blocks
        if self.matrix.nnz * width < MIN_BLOCK_WORK * len(blocks):
            blocks = self._whole
        flat = x.reshape(-1)
        pending = [_pool(len(blocks) - 1).submit(
            self._run, block, width, flat, out) for block in blocks[1:]]
        self._run(blocks[0], width, flat, out)
        for job in pending:
            job.result()
        return out

    def _run(self, block, width, x, out):
        """Zero the block's rows of ``out`` and add its P x into them."""
        r0, r1, indptr, indices, data = block
        rows = out[r0:r1]
        rows.fill(0.0)
        csr_matvecs(r1 - r0, self.n, width, indptr, indices, data, x,
                    rows.reshape(-1))

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
