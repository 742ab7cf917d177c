import json
import os
import tempfile
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from graphboost import data
from graphboost.data import (DataError, NodeDataset, Split, export_dataset,
                             load_planetoid, one_hot, partition_constants,
                             random_partition, read_file, row_normalize,
                             synthesize_two_block)
from graphboost.graph import SparseGraph


class TestSplit:
    def test_disjointness_enforced(self):
        with pytest.raises(DataError):
            Split(train=[0, 1], val=[1], test=[2])

    def test_q_and_s(self):
        sp = random_partition(4, 2, seed=0)
        q, s, _ = partition_constants(sp.m, sp.u)
        assert q == pytest.approx(1.0)
        assert s == pytest.approx(32.0 / 21.0)

    def test_s_limit_near_one(self):
        sp = Split(train=np.arange(10000), val=[],
                   test=np.arange(10000, 20000))
        assert abs(partition_constants(sp.m, sp.u)[1] - 1.0) <= 1e-3

    def test_p0(self):
        sp = random_partition(4, 2, seed=1)
        assert partition_constants(sp.m, sp.u)[2] == pytest.approx(0.25)

    @pytest.mark.parametrize("ids", [[1.5, 2.7], [True, 2], [[1, 2]], 3],
                             ids=["float", "bool", "nested", "scalar"])
    def test_non_integer_ids_refused(self, ids):
        with pytest.raises(DataError, match="integers"):
            Split(train=ids, val=[], test=[4])

    def test_empty_and_integer_arrays_accepted(self):
        sp = Split(train=np.array([0, 1], dtype=np.int32), val=[],
                   test=np.array([2], dtype=np.uint8))
        assert sp.train.dtype == sp.val.dtype == sp.test.dtype == np.int64
        assert sp.val.size == 0


class TestRandomPartition:
    def test_partitions_everything(self):
        sp = random_partition(2, 1, seed=5)
        assert sorted(np.concatenate([sp.train, sp.test]).tolist()) == [0, 1]
        assert len(sp.val) == 0

    def test_deterministic(self):
        a = random_partition(50, 20, seed=9)
        b = random_partition(50, 20, seed=9)
        assert np.array_equal(a.train, b.train)

    def test_range_check(self):
        with pytest.raises(DataError):
            random_partition(5, 5, seed=0)
        with pytest.raises(DataError):
            random_partition(5, 0, seed=0)

    def test_membership_frequency(self):
        # each node's train frequency ~ Binomial(n_seeds, m/n)
        n, m, n_seeds = 10, 3, 10000
        counts = np.zeros(n)
        for seed in range(n_seeds):
            counts[random_partition(n, m, seed).train] += 1
        p = m / n
        sigma = np.sqrt(n_seeds * p * (1 - p))
        assert np.all(np.abs(counts - n_seeds * p) <= 3 * sigma)


class TestOneHot:
    def test_single(self):
        assert np.array_equal(one_hot([0], 2), [[1.0, 0.0]])

    def test_two(self):
        assert np.array_equal(one_hot([1, 0], 2), [[0, 1], [1, 0]])

    def test_rejects_out_of_range(self):
        with pytest.raises(DataError):
            one_hot([2], 2)

    def test_histogram_oracle(self):
        rng = np.random.default_rng(0)
        labels = rng.integers(0, 5, size=200)
        enc = one_hot(labels, 5)
        assert np.array_equal(enc.sum(axis=1), np.ones(200))
        hist = np.bincount(labels, minlength=5)
        assert np.array_equal(enc.sum(axis=0), hist)


class TestTwoBlock:
    def test_deterministic_extremes(self):
        ds = synthesize_two_block(4, 1.0, 0.0, seed=0)
        assert sorted(map(tuple, ds.graph.edges.tolist())) == [(0, 1), (2, 3)]
        assert np.array_equal(ds.labels, [0, 0, 1, 1])

    def test_parameter_validation(self):
        with pytest.raises(DataError):
            synthesize_two_block(5, 0.5, 0.1, seed=0)
        with pytest.raises(DataError):
            synthesize_two_block(4, 0.1, 0.5, seed=0)

    def test_edge_count_within_4_sigma(self):
        # binomial mean/variance oracle
        n, p_in, p_out = 100, 0.5, 0.05
        within_pairs = 2 * (50 * 49 // 2)
        cross_pairs = 50 * 50
        mean = within_pairs * p_in + cross_pairs * p_out
        var = (within_pairs * p_in * (1 - p_in)
               + cross_pairs * p_out * (1 - p_out))
        ds = synthesize_two_block(n, p_in, p_out, seed=7)
        assert abs(ds.graph.n_edges - mean) <= 4 * np.sqrt(var)

    def test_equal_rates_show_no_assortativity(self):
        # with p_in == p_out the edge pattern carries no label information;
        # generated by forcing p_out just below p_in and comparing the
        # within-block edge fraction against its null expectation
        n = 200
        p = 0.2
        ds = synthesize_two_block(n, p + 1e-9, p, seed=11)
        same = ds.labels[ds.graph.edges[:, 0]] == ds.labels[ds.graph.edges[:, 1]]
        within_pairs = 2 * ((n // 2) * (n // 2 - 1) // 2)
        total_pairs = n * (n - 1) // 2
        expected_frac = within_pairs / total_pairs
        frac = same.mean()
        sigma = np.sqrt(expected_frac * (1 - expected_frac)
                        / ds.graph.n_edges)
        assert abs(frac - expected_frac) <= 4 * sigma

    def test_reproducible(self):
        a = synthesize_two_block(30, 0.6, 0.1, seed=3)
        b = synthesize_two_block(30, 0.6, 0.1, seed=3)
        assert np.array_equal(a.features, b.features)
        assert np.array_equal(a.graph.edges, b.graph.edges)


class TestRowNormalize:
    def test_unit_l1_rows(self):
        x = np.array([[2.0, 2.0], [0.0, 0.0], [-3.0, 1.0]])
        out = row_normalize(x)
        assert np.allclose(np.abs(out).sum(axis=1), [1.0, 0.0, 1.0])

    @pytest.mark.parametrize("shape, order", [
        ((700, 300), "C"), ((700, 300), "F"), ((3, 70000), "C"), ((5, 0), "C"),
    ])
    def test_blocked_sums_give_the_whole_array_division(self, shape, order):
        # the row sums are taken by row blocks; each row's sum, and so the
        # result, is that of one np.abs(x) over the whole array
        rng = np.random.default_rng(shape[0])
        x = np.asarray(rng.standard_normal(shape), order=order)
        x[1] = 0.0
        norms = np.abs(x).sum(axis=1, keepdims=True)
        norms[norms == 0.0] = 1.0
        assert row_normalize(x).tobytes() == (x / norms).tobytes()


def write_tiny_dataset(directory, n=6, c=3, k=2):
    rng = np.random.default_rng(0)
    features = rng.standard_normal((n, c)).round(3)
    labels = rng.integers(0, k, size=n)
    graph = SparseGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n - 1)])
    split = Split(train=np.arange(0, 2), val=np.arange(2, 4),
                  test=np.arange(4, n))
    ds = NodeDataset(graph=graph, features=features,
                     labels=labels.astype(np.int64), split=split,
                     n_classes=k, name="tiny")
    export_dataset(ds, directory)
    return ds


class TestLoader:
    def test_load_matches_export(self, tmp_path):
        ds = write_tiny_dataset(tmp_path)
        loaded = load_planetoid(tmp_path, normalize=False)
        assert loaded.n == ds.n
        assert np.array_equal(loaded.labels, ds.labels)
        assert np.array_equal(loaded.features, ds.features)
        assert np.array_equal(loaded.graph.edges, ds.graph.edges)
        assert np.array_equal(loaded.split.val, ds.split.val)

    def test_round_trip_bit_for_bit(self, tmp_path):
        rng = np.random.default_rng(1)
        n = 5
        features = rng.standard_normal((n, 4))  # full-precision floats
        ds = NodeDataset(
            graph=SparseGraph.from_edges(n, [(0, 1), (1, 2), (3, 4)]),
            features=features, labels=np.zeros(n, dtype=np.int64),
            split=Split(train=[0, 1], val=[], test=[2, 3, 4]), n_classes=2)
        export_dataset(ds, tmp_path / "a")
        first = load_planetoid(tmp_path / "a", normalize=False)
        export_dataset(first, tmp_path / "b")
        second = load_planetoid(tmp_path / "b", normalize=False)
        assert np.array_equal(first.features, second.features)
        assert first.features.tobytes() == second.features.tobytes()

    def test_manifest_mismatch_lists_expected_and_actual(self, tmp_path):
        write_tiny_dataset(tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["n"] = 99
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match="expected 99.*got 6"):
            load_planetoid(tmp_path)

    def test_edge_count_mismatch(self, tmp_path):
        write_tiny_dataset(tmp_path)
        meta = json.loads((tmp_path / "meta.json").read_text())
        meta["e"] = 1
        (tmp_path / "meta.json").write_text(json.dumps(meta))
        with pytest.raises(DataError, match="edges: expected 1"):
            load_planetoid(tmp_path)

    def test_missing_file(self, tmp_path):
        write_tiny_dataset(tmp_path)
        (tmp_path / "labels.tsv").unlink()
        with pytest.raises(DataError, match="missing dataset file"):
            load_planetoid(tmp_path)

    def test_normalization_toggle(self, tmp_path):
        write_tiny_dataset(tmp_path)
        raw = load_planetoid(tmp_path, normalize=False)
        norm = load_planetoid(tmp_path, normalize=True)
        sums = np.abs(norm.features).sum(axis=1)
        assert np.allclose(sums[sums > 0], 1.0)
        assert not np.allclose(raw.features, norm.features)

    def test_loaded_features_are_row_normalize_of_the_file(self, tmp_path):
        # the loader divides the array it read in place; the public
        # row_normalize gives the same bits in a new array
        write_tiny_dataset(tmp_path)
        raw = np.loadtxt(tmp_path / "features.tsv", delimiter="\t", ndmin=2)
        saved = raw.copy()
        assert np.array_equal(load_planetoid(tmp_path).features,
                              row_normalize(raw))
        assert np.array_equal(raw, saved)


def read_with_loadtxt(path):
    """The reference reading of a feature file: np.loadtxt's array, or the
    message of the DataError naming the file."""
    try:
        return read_file(path, np.loadtxt, delimiter="\t", ndmin=2,
                         dtype=float)
    except DataError as exc:
        return str(exc)


def read_features(path):
    """The loader's reading of a feature file, in the same terms."""
    try:
        return read_file(path, data._read_matrix)
    except DataError as exc:
        return str(exc)


def assert_same_reading(got, want):
    if isinstance(want, str):
        assert got == want
    else:
        assert isinstance(got, np.ndarray)
        assert (got.dtype, got.shape) == (want.dtype, want.shape)
        assert got.flags.c_contiguous
        assert got.tobytes() == want.tobytes()


DIGIT_FILE = "0\t1\t0\t9\n1\t0\t0\t0\n0\t0\t5\t1\n"


class TestFeatureFile:
    @given(arrays(np.int8, st.tuples(st.integers(1, 12), st.integers(1, 12)),
                  elements=st.integers(0, 9)))
    @example(np.array([[7]], dtype=np.int8))
    @example(np.arange(10, dtype=np.int8)[None, :])
    @example(np.arange(10, dtype=np.int8)[:, None])
    @settings(max_examples=60, deadline=None)
    def test_single_digit_file_is_read_without_loadtxt(self, digits):
        # the README's conversion recipe writes a 0/1 (or 0-9) matrix as
        # single-digit fields; it reads to np.loadtxt's array, bit for bit,
        # and np.loadtxt is never called
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "features.tsv")
            np.savetxt(path, digits.astype(float), delimiter="\t",
                       fmt="%.17g")
            want = read_with_loadtxt(path)
            with mock.patch.object(np, "loadtxt",
                                   side_effect=AssertionError("loadtxt")):
                got = data._read_matrix(path)
        assert_same_reading(got, want)

    @pytest.mark.parametrize("text", [
        DIGIT_FILE.replace("9", "12"),
        DIGIT_FILE.replace("\n", "\r\n"),
        DIGIT_FILE[:-1],
        DIGIT_FILE.replace("\n", "\n\n", 1),
        "# a comment line\n" + DIGIT_FILE,
        DIGIT_FILE.replace("\n", "\t\n", 1),
        DIGIT_FILE.replace("\t1\n", "\n"),
        "\ufeff" + DIGIT_FILE,
        DIGIT_FILE.replace("5", "x"),
        "",
        # as long as the single-digit lines: they pass the length checks
        DIGIT_FILE[:-2] + "12",
        DIGIT_FILE.replace("1\t0\t0\t0", "100\t0\t0"),
        DIGIT_FILE.replace("5", " "),
    ], ids=["two_digit_field", "crlf", "no_final_newline", "blank_line",
            "comment_line", "trailing_tab", "short_row", "utf8_bom",
            "non_digit", "empty", "two_digit_last_field_unterminated",
            "three_digit_field", "space_field"])
    @pytest.mark.filterwarnings("ignore:loadtxt:UserWarning")
    def test_near_miss_reads_as_loadtxt_reads_it(self, tmp_path, text):
        path = tmp_path / "features.tsv"
        path.write_bytes(text.encode())
        assert_same_reading(read_features(path), read_with_loadtxt(path))


REFERENCE_COUNTS = {
    # node count, feature width, class count of the converted datasets
    "cora": (2708, 1433, 7),
    "citeseer": (3312, 3703, 6),
    "pubmed": (19717, 500, 3),
}


@pytest.mark.skipif(not os.environ.get("GRAPHBOOST_DATA"),
                    reason="converted citation datasets not provided")
@pytest.mark.parametrize("name", sorted(REFERENCE_COUNTS))
def test_citation_dataset_counts(name):
    path = os.path.join(os.environ["GRAPHBOOST_DATA"], name)
    if not os.path.isdir(path):
        pytest.skip(f"{path} missing")
    ds = load_planetoid(path)
    n, c, k = REFERENCE_COUNTS[name]
    assert ds.n == n
    assert ds.n_features == c
    assert ds.n_classes == k
