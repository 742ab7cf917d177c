import os
import subprocess
import sys
import textwrap
import warnings

import numpy as np
import pytest
import scipy.sparse as sp

from graphboost import graph
from graphboost.graph import (DENSE_EIGEN_CAP, GraphError, PropagationMatrix,
                              SparseGraph, base_operator, eigendecompose,
                              operator_norm, read_edge_list)


def dense(p):
    return p.matrix.toarray()


def operator(mat):
    return PropagationMatrix(sp.csr_matrix(mat))

def identity(n):
    return operator(sp.identity(n))


def random_connected_graph(n, p_edge, seed):
    """Connected and non-bipartite by construction: random spanning path,
    extra random edges, and one triangle."""
    rng = np.random.default_rng(seed)
    order = rng.permutation(n)
    edges = [(order[i], order[i + 1]) for i in range(n - 1)]
    iu, ju = np.triu_indices(n, k=1)
    keep = rng.random(len(iu)) < p_edge
    edges += list(zip(iu[keep], ju[keep]))
    edges += [(order[0], order[1]), (order[1], order[2]),
              (order[0], order[2])]
    return SparseGraph.from_edges(n, edges)


class TestSparseGraph:
    def test_symmetrize_and_dedupe(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 0), (1, 2), (1, 2)])
        assert g.n_edges == 2
        assert np.array_equal(g.degrees, [1, 2, 1])

    @pytest.mark.parametrize("n, n_pairs", [(7, 60), (300, 2000)])
    def test_dedupe_is_the_sorted_unique_pairs(self, n, n_pairs):
        # random pairs, many repeated and some given both ways round: the
        # stored edges are those of the row-wise sort and the axis-0 unique
        # of the pairs, bit for bit
        rng = np.random.default_rng(n)
        pairs = rng.integers(0, n, size=(n_pairs, 2))
        pairs = pairs[pairs[:, 0] != pairs[:, 1]]
        pairs = np.concatenate([pairs, pairs[::3, ::-1], pairs[::5]])
        rng.shuffle(pairs)
        want = np.unique(np.sort(pairs, axis=1), axis=0)
        got = SparseGraph.from_edges(n, pairs).edges
        assert len(want) < len(pairs)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop at node 2"):
            SparseGraph.from_edges(3, [(2, 2)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError):
            SparseGraph.from_edges(2, [(0, 2)])

    def test_edge_array_refusals_name_the_fault(self):
        # the (E, 2) array read_edge_list returns is taken as it is
        with pytest.raises(GraphError, match="self-loop at node 2"):
            SparseGraph.from_edges(3, np.array([[0, 1], [2, 2]]))
        with pytest.raises(GraphError, match=r"out of range \[0, 2\)"):
            SparseGraph.from_edges(2, np.array([[0, 2]]))

    def test_edge_list_round_trip(self, tmp_path):
        path = tmp_path / "edges.txt"
        path.write_text("# comment\n0 1\n1 2  # trailing\n\n")
        pairs = read_edge_list(path)
        assert pairs.dtype == np.int64 and pairs.shape == (2, 2)
        assert pairs.tolist() == [[0, 1], [1, 2]]

    @pytest.mark.parametrize("text", ["5\n6\n", "0 1 2\n1 2 3\n"])
    def test_edge_list_of_other_field_count_refused(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with pytest.raises(GraphError, match="fields, not 2"):
            read_edge_list(path)

    @pytest.mark.parametrize("text", ["", "# no edges\n\n# at all\n"])
    def test_edge_list_without_pairs_is_empty(self, tmp_path, text):
        path = tmp_path / "edges.txt"
        path.write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            pairs = read_edge_list(path)
        assert pairs.dtype == np.int64 and pairs.shape == (0, 2)


class TestAugmentedAdjacency:
    def test_two_node_path(self):
        g = SparseGraph.from_edges(2, [(0, 1)])
        assert np.allclose(dense(base_operator(g)),
                           [[0.5, 0.5], [0.5, 0.5]])

    def test_single_node(self):
        g = SparseGraph.from_edges(1, [])
        assert np.allclose(dense(base_operator(g)), [[1.0]])

    def test_triangle(self):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        assert np.allclose(dense(base_operator(g)),
                           np.ones((3, 3)) / 3)

    def test_eigenvalues_in_range(self):
        g = random_connected_graph(20, 0.1, seed=2)
        vals, _ = eigendecompose(base_operator(g))
        assert vals[0] == pytest.approx(1.0, abs=1e-10)
        assert vals[-1] > -1.0

    def test_star_matches_dense_formula(self):
        # independent oracle: build D~^{-1/2} (A + I) D~^{-1/2} densely by
        # hand on a star plus one isolated node
        g = SparseGraph.from_edges(5, [(0, 1), (0, 2), (0, 3)])
        a = np.eye(5)
        for i, j in [(0, 1), (0, 2), (0, 3)]:
            a[i, j] = a[j, i] = 1.0
        d_inv_sqrt = np.diag(1.0 / np.sqrt(a.sum(axis=1)))
        expected = d_inv_sqrt @ a @ d_inv_sqrt
        got = dense(base_operator(g))
        assert np.allclose(got, expected)
        assert got[0, 1] == pytest.approx(1 / np.sqrt(8))
        assert got[1, 2] == 0.0
        assert got[4, 4] == 1.0
        assert not got[4, :4].any() and not got[:4, 4].any()


class TestPropagationMatrix:
    @pytest.mark.parametrize("make", [
        lambda: base_operator(random_connected_graph(40, 0.1, seed=21)),
        lambda: base_operator(two_component_graph(41, seed=22)),
    ], ids=["random", "disconnected"])
    def test_base_operator_exactly_symmetric(self, make):
        # so P^T x is P x bit for bit, which pullback relies on
        p = make()
        assert (p.matrix != p.matrix.T).nnz == 0
        rng = np.random.default_rng(0)
        for width in (64, 1):
            x = rng.standard_normal((p.n, width))
            assert np.array_equal(p.apply(x), p.apply_transpose(x))

    def test_refuses_non_symmetric(self):
        with pytest.raises(GraphError, match="symmetric"):
            operator(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_refuses_non_square(self):
        with pytest.raises(GraphError, match=r"\(2, 3\)"):
            operator(np.ones((2, 3)))


class TestPropagate:
    def test_identity(self):
        x = np.arange(6.0).reshape(3, 2)
        assert np.array_equal(identity(3).apply(x), x)

    def test_two_node_averaging(self):
        g = SparseGraph.from_edges(2, [(0, 1)])
        out = base_operator(g).apply(np.array([[1.0], [0.0]]))
        assert np.allclose(out, [[0.5], [0.5]])

    def test_triangle_twice_uniform(self):
        # dense multiply oracle
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        p = base_operator(g)
        x = np.array([[1.0], [0.0], [0.0]])
        expected = dense(p) @ (dense(p) @ x)
        got = p.apply(p.apply(x))
        assert np.allclose(got, expected)
        assert np.allclose(got, 1.0 / 3.0)

    def test_dimension_mismatch(self):
        with pytest.raises(GraphError):
            identity(3).apply(np.ones((4, 2)))


def empty_rows_matrix():
    """Symmetric, with its first 10 and last 5 rows (and columns) empty."""
    rng = np.random.default_rng(4)
    inner = sp.random(25, 25, density=0.2, random_state=rng)
    block = sp.block_diag([sp.csr_matrix((10, 10)), inner + inner.T,
                           sp.csr_matrix((5, 5))])
    return sp.csr_matrix(block)


def integer_matrix():
    a = np.random.default_rng(5).integers(-3, 4, size=(30, 30))
    return sp.csr_matrix(np.triu(a) + np.triu(a, 1).T)


@pytest.fixture
def split_three(monkeypatch):
    """Three row blocks, each run on the pool at any size."""
    monkeypatch.setattr(graph, "WORKERS", 3)
    monkeypatch.setattr(graph, "MIN_BLOCK_WORK", 1)


def pool_calls(monkeypatch):
    """The worker counts apply asks the pool for, call by call."""
    calls, pool = [], graph._pool
    monkeypatch.setattr(graph, "_pool",
                        lambda n: calls.append(n) or pool(n))
    return calls


class TestRowBlockApply:
    """P x by row blocks is ``matrix @ x`` bit for bit."""

    @pytest.mark.parametrize("make_matrix,make_x", [
        (lambda: base_operator(random_connected_graph(40, 0.1, 1)).matrix,
         lambda rng, n: rng.standard_normal(n)),
        (lambda: base_operator(random_connected_graph(40, 0.1, 2)).matrix,
         lambda rng, n: rng.standard_normal((n, 1))),
        (lambda: base_operator(random_connected_graph(40, 0.1, 3)).matrix,
         lambda rng, n: np.asfortranarray(rng.standard_normal((n, 6)))),
        (lambda: base_operator(random_connected_graph(40, 0.1, 4)).matrix,
         lambda rng, n: rng.standard_normal((n, 10))[:, ::2]),
        (integer_matrix, lambda rng, n: rng.standard_normal((n, 3))),
        (empty_rows_matrix, lambda rng, n: rng.standard_normal((n, 4))),
    ], ids=["1d", "one_column", "f_order", "strided_view", "integer",
            "empty_rows"])
    def test_matches_serial_product(self, split_three, monkeypatch,
                                    make_matrix, make_x):
        calls = pool_calls(monkeypatch)
        m = make_matrix()
        x = make_x(np.random.default_rng(0), m.shape[0])
        p = PropagationMatrix(m)
        got = p.apply(x)
        assert len(p._blocks) == 3 and set(calls) == {2}
        assert got.shape == x.shape and got.dtype == np.float64
        assert np.array_equal(got, m @ x)
        assert np.array_equal(got, p.matrix @ x)

    @pytest.mark.parametrize("make_matrix", [
        lambda: base_operator(random_connected_graph(40, 0.03, 1)).matrix,
        lambda: base_operator(SparseGraph.from_edges(
            40, [(i, i + 1) for i in range(39)])).matrix,
        empty_rows_matrix],
        ids=["base_operator", "path", "empty_rows"])
    def test_restricted_rows_are_the_full_products(self, split_three,
                                                   monkeypatch, make_matrix):
        # rows of P x alone, reading x on every node or on the rows' reach
        # only: each row is the full product's bit for bit, on the pool
        calls = pool_calls(monkeypatch)
        m = make_matrix()
        p = PropagationMatrix(m)
        rng = np.random.default_rng(6)
        x = rng.standard_normal((p.n, 3))
        full = m @ x
        rows = np.sort(rng.choice(p.n, 9, replace=False))
        cols = p.reach(rows)
        hit = np.zeros(p.n, dtype=bool)
        hit[rows] = True
        hit[m[rows].indices] = True
        assert np.array_equal(cols, np.flatnonzero(hit))
        assert np.array_equal(p.apply(x, rows), full[rows])
        assert np.array_equal(p.apply(x[cols], rows, cols), full[rows])
        assert p.apply(x[cols], rows[:0], cols).shape == (0, 3)
        assert set(calls) == {2}
        # x must hold every neighbour of the rows
        lacking = np.setdiff1d(m[rows].indices, rows)[:1]
        if len(lacking):
            with pytest.raises(GraphError, match="neighbour"):
                p.apply(x[np.setdiff1d(cols, lacking)], rows,
                        np.setdiff1d(cols, lacking))
        with pytest.raises(GraphError, match="row count"):
            p.apply(x, rows, cols)

    def test_width_above_work_threshold(self, monkeypatch):
        monkeypatch.setattr(graph, "WORKERS", 2)
        calls = pool_calls(monkeypatch)
        p = base_operator(random_connected_graph(200, 0.05, seed=8))
        width = (2 * graph.MIN_BLOCK_WORK - 1) // p.matrix.nnz
        x = np.random.default_rng(1).standard_normal((p.n, width))
        assert np.array_equal(p.apply(x), p.matrix @ x)
        assert calls == []  # just below the threshold: one inline block
        x = np.random.default_rng(1).standard_normal((p.n, width + 1))
        assert np.array_equal(p.apply(x), p.matrix @ x)
        assert calls == [1]

    def test_canonical_float64_matrix(self, split_three):
        # unsorted indices with a duplicate entry, as integers; the
        # caller's matrix is left as it was
        m = sp.csr_matrix((np.array([2, 1, 1, 3, 2]),
                           np.array([1, 0, 0, 1, 0]),
                           np.array([0, 3, 5])), shape=(2, 2))
        p = PropagationMatrix(m)
        assert p.matrix.has_canonical_format
        assert p.matrix.dtype == np.float64
        assert np.array_equal(p.matrix.toarray(), [[2.0, 2.0], [2.0, 3.0]])
        assert np.array_equal(m.indices, [1, 0, 0, 1, 0])
        x = np.array([[1.0, -1.0], [0.5, 2.0]])
        assert np.array_equal(p.apply(x), [[3.0, 2.0], [3.5, 4.0]])

    def test_concurrent_callers(self, split_three):
        # four callers share the pool's two threads; each gets its own
        # product, bit for bit
        import threading
        p = base_operator(random_connected_graph(60, 0.1, seed=9))
        xs = [np.random.default_rng(i).standard_normal((p.n, 5))
              for i in range(4)]
        results = [None] * 4

        def call(i):
            for _ in range(50):
                results[i] = p.apply(xs[i])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=call, args=(i,))
                       for i in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for x, got in zip(xs, results):
            assert np.array_equal(got, p.matrix @ x)

    def test_zero_matrix_is_one_block(self, split_three):
        p = PropagationMatrix(sp.csr_matrix((5, 5)))
        assert len(p._blocks) == 1
        assert np.array_equal(p.apply(np.ones((5, 2))), np.zeros((5, 2)))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_trained_kta_bytes_do_not_depend_on_workers(
            self, tmp_path, monkeypatch, workers):
        import hashlib

        from graphboost.boost import (AggregatorSpec, BoostConfig,
                                      FineTuneConfig, fine_tune, run_samme,
                                      save_model, write_trace_csv)
        from graphboost.data import synthesize_two_block
        from graphboost.mlp import TrainConfig
        from test_boost import (FINE_TUNE_BYTES, TRAINED_BYTES,
                                unsaturated_run)
        monkeypatch.setattr(graph, "WORKERS", workers)
        monkeypatch.setattr(graph, "MIN_BLOCK_WORK", 1)
        calls = pool_calls(monkeypatch)

        ds = synthesize_two_block(40, 0.5, 0.2, seed=3, noise=1.0)
        model, trace, _ = run_samme(ds, BoostConfig(
            n_rounds=5, hidden=(4,), learner=TrainConfig(epochs=5),
            aggregator=AggregatorSpec(kind="kta"), seed=1))
        save_model(model, tmp_path / "model.json")
        write_trace_csv(trace, tmp_path / "trace.csv")
        got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("model.json", "trace.csv"))
        assert got == TRAINED_BYTES["samme-kta"]

        # a fixed or injection fine-tune replays its rows on their
        # receptive field, by products restricted to row subsets
        for kind in ("kta", "fixed", "input_injection"):
            ds, model = unsaturated_run(kind, "samme")
            tuned, _ = fine_tune(model, ds, FineTuneConfig(epochs=3, lr=1e-2))
            save_model(tuned, tmp_path / "tuned.json")
            assert (hashlib.sha256((tmp_path / "tuned.json").read_bytes())
                    .hexdigest() == FINE_TUNE_BYTES[f"samme-{kind}"][0])
        assert set(calls) == ({workers - 1} if workers > 1 else set())


# the process's thread count on import, after a small apply, and after
# one large enough to split over WORKERS=2
_THREAD_COUNT_SCRIPT = textwrap.dedent("""
    import threading
    counts = [threading.active_count()]
    import numpy as np
    import graphboost
    from graphboost import graph
    counts.append(threading.active_count())
    g = graph.SparseGraph.from_edges(50, [(i, i + 1) for i in range(49)])
    graph.WORKERS = 2
    p = graph.base_operator(g)
    p.apply(np.ones((50, 8)))
    counts.append(threading.active_count())
    p.apply(np.ones((50, graph.MIN_BLOCK_WORK)))
    counts.append(threading.active_count())
    print(*counts)
""")


def test_pool_starts_at_first_split_apply():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", _THREAD_COUNT_SCRIPT],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True, timeout=120)
    start, imported, small, large = map(int, out.stdout.split())
    assert imported == small == start
    assert large == start + 1


# a forked child inherits the parent's pool object but none of its threads
_FORK_SCRIPT = textwrap.dedent("""
    import os
    import numpy as np
    from graphboost import graph
    g = graph.SparseGraph.from_edges(50, [(i, i + 1) for i in range(49)])
    graph.WORKERS = 2
    p = graph.base_operator(g)
    x = np.ones((50, graph.MIN_BLOCK_WORK))
    want = p.apply(x)
    pid = os.fork()
    if pid == 0:
        os._exit(0 if np.array_equal(p.apply(x), want) else 1)
    _, status = os.waitpid(pid, 0)
    print(os.waitstatus_to_exitcode(status))
""")


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
def test_forked_child_starts_its_own_pool():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    out = subprocess.run(
        [sys.executable, "-c", _FORK_SCRIPT],
        env={**os.environ, "PYTHONPATH": src}, capture_output=True,
        text=True, check=True, timeout=60)
    assert out.stdout.split() == ["0"]


class TestOperatorNorm:
    def test_identity(self):
        assert operator_norm(identity(4)) == pytest.approx(1.0)

    def test_two_node_augmented(self):
        g = SparseGraph.from_edges(2, [(0, 1)])
        assert operator_norm(base_operator(g)) == pytest.approx(1.0)

    def test_diagonal_composition(self):
        d = sp.diags([0.3, -0.7])
        assert operator_norm(operator(d @ d)) == pytest.approx(0.49,
                                                               rel=1e-6)

    def test_square_of_psd_operator(self):
        # P = A^T A is PSD; ||P o P|| should equal ||P||^2
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        p = a.T @ a
        single = operator_norm(operator(p))
        squared = operator_norm(operator(p @ p))
        assert squared == pytest.approx(single ** 2, rel=1e-6)

    def test_one_node_graph(self):
        g = SparseGraph.from_edges(1, [])
        assert operator_norm(base_operator(g)) == 1.0

    def test_zero_operator(self):
        assert operator_norm(operator(sp.csr_matrix((3, 3)))) == 0.0

    def test_cap_refusal(self):
        n = DENSE_EIGEN_CAP + 1
        path = SparseGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        with pytest.raises(GraphError, match="cap"):
            operator_norm(base_operator(path))


def two_component_graph(n, seed):
    """Two random connected components, so that eigenvalue 1 is tied."""
    half = n // 2
    a = random_connected_graph(half, 0.15, seed)
    b = random_connected_graph(n - half, 0.15, seed + 1)
    return SparseGraph.from_edges(n, np.vstack([a.edges, b.edges + half]))


def reference_eigendecompose(p):
    """The dense path eigendecompose replaced: densify through apply,
    symmetrise as (D + D^T) / 2, numpy's eigh, descending by argsort."""
    dense = p.apply(np.eye(p.n))
    vals, vecs = np.linalg.eigh((dense + dense.T) / 2.0)
    order = np.argsort(vals)[::-1]
    return vals[order], vecs[:, order]


class TestEigendecompose:
    def test_identity_all_ones(self):
        vals, _ = eigendecompose(identity(3))
        assert np.allclose(vals, 1.0)

    def test_two_node_augmented(self):
        g = SparseGraph.from_edges(2, [(0, 1)])
        vals, vecs = eigendecompose(base_operator(g))
        assert np.allclose(vals, [1.0, 0.0], atol=1e-12)
        xi1 = vecs[:, 0]
        assert np.allclose(np.abs(xi1), 1.0 / np.sqrt(2))

    def test_invariants_orthonormal_and_reconstruction(self):
        g = random_connected_graph(20, 0.15, seed=5)
        p = base_operator(g)
        _, v = eigendecompose(p)
        gram = v.T @ v
        assert np.max(np.abs(np.diag(gram) - 1.0)) <= 1e-8
        off = gram - np.diag(np.diag(gram))
        assert np.max(np.abs(off)) <= 1e-8
        x = np.random.default_rng(0).standard_normal((20, 3))
        coeff = v.T @ x
        recon = v @ coeff
        for c in range(3):
            assert (np.linalg.norm(recon[:, c] - x[:, c])
                    <= 1e-6 * np.linalg.norm(x[:, c]))

    def test_top_eigenvector_proportional_to_sqrt_degree(self):
        # the augmented operator fixes sqrt(deg + 1)
        g = random_connected_graph(25, 0.1, seed=6)
        p = base_operator(g)
        v = np.sqrt(g.degrees + 1.0)
        v /= np.linalg.norm(v)
        assert np.allclose(p.apply(v), v, atol=1e-10)
        _, vecs = eigendecompose(p)
        xi1 = vecs[:, 0]
        assert abs(abs(xi1 @ v) - 1.0) <= 1e-10

    def test_cap_refusal(self):
        g = random_connected_graph(30, 0.1, seed=7)
        with pytest.raises(GraphError, match="cap"):
            eigendecompose(base_operator(g), cap=10)

    @pytest.mark.parametrize("make", [
        lambda: base_operator(random_connected_graph(40, 0.1, seed=11)),
        lambda: base_operator(two_component_graph(41, seed=12)),
    ], ids=["connected", "disconnected"])
    def test_matches_dense_reference_bit_for_bit(self, make):
        p = make()
        vals, vecs = reference_eigendecompose(p)
        got_vals, got_vecs = eigendecompose(p)
        assert np.array_equal(got_vals, vals)
        assert np.array_equal(got_vecs, vecs)
        # the dense reference report's coefficients, taken on the
        # reversed view
        x = np.random.default_rng(0).standard_normal((p.n, 3))
        assert np.array_equal(got_vecs.T @ x, vecs.T @ x)

    @pytest.mark.parametrize("seed", range(3))
    def test_connected_nonbipartite_spectrum(self, seed):
        g = random_connected_graph(20, 0.1, seed=seed)
        vals, _ = eigendecompose(base_operator(g))
        assert vals[0] == pytest.approx(1.0, abs=1e-10)
        assert vals[1] < 1.0 - 1e-10
        assert vals[-1] > -1.0 + 1e-10
