"""Dataset ingestion, synthetic generators, label encoding, and splits.

The on-disk dataset contract is a plain-text directory:

    features.tsv  N rows of C tab-separated decimals
    labels.tsv    N class ids, one per line (-1 = unlabeled)
    edges.txt     "i j" per line, 0-based, '#' comments
    split.json    {"train": [...], "val": [...], "test": [...]}
    meta.json     {"n": ..., "c": ..., "k": ...} with optional "e", "name"

meta.json is the manifest the loader validates against; a count mismatch is
a hard error listing expected vs actual.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

from .graph import GraphError, SparseGraph, read_edge_list, write_edge_list

# entries per row block in which ``row_normalize`` takes |x|
NORM_BLOCK = 1 << 16


class DataError(ValueError):
    pass


@dataclass(frozen=True)
class Split:
    """Disjoint train/validation/test index sets over [0, N)."""

    train: np.ndarray
    val: np.ndarray
    test: np.ndarray

    def __post_init__(self):
        for part in ("train", "val", "test"):
            object.__setattr__(self, part, _node_ids(getattr(self, part)))
        all_ids = np.concatenate([self.train, self.val, self.test])
        if len(np.unique(all_ids)) != len(all_ids):
            raise DataError("split index sets must be pairwise disjoint")

    @property
    def m(self):
        return len(self.train)

    @property
    def u(self):
        return len(self.test)


def _node_ids(values):
    """``values`` as a flat int64 array; a float or bool id is refused, not
    cast to a node (an empty list, which numpy makes float64, is fine)."""
    ids = np.asarray(values)
    if ids.ndim != 1 or (ids.size and ids.dtype.kind not in "iu") or (
            isinstance(values, list)
            and any(isinstance(v, bool) for v in values)):
        raise DataError("split ids must be a flat list of integers")
    return ids.astype(np.int64, copy=False)


def partition_constants(m, u):
    """(Q, S, p0) of a random M/U partition: Q = 1/M + 1/U;
    S = 4(M+U) min(M,U) / ((2(M+U)-1)(2 min(M,U)-1)), close to 1 for large
    balanced splits; p0 = M U / (M+U)^2, the canonical three-valued sign
    probability."""
    lo = min(m, u)
    return (1.0 / m + 1.0 / u,
            4.0 * (m + u) * lo / ((2.0 * (m + u) - 1.0) * (2.0 * lo - 1.0)),
            m * u / float(m + u) ** 2)


@dataclass(frozen=True)
class NodeDataset:
    graph: SparseGraph
    features: np.ndarray  # (N, C) float64
    labels: np.ndarray    # (N,) int64, -1 = unlabeled
    split: Split
    n_classes: int
    name: str = ""

    @property
    def n(self):
        return self.graph.n_nodes

    @property
    def n_features(self):
        return self.features.shape[1]


def random_partition(n, m, seed) -> Split:
    """Uniform M-subset as train, complement as test, empty validation."""
    if not 1 <= m < n:
        raise DataError(f"train size m={m} must satisfy 1 <= m < n={n}")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    return Split(train=np.sort(perm[:m]), val=np.array([], dtype=np.int64),
                 test=np.sort(perm[m:]))


def one_hot(labels, k):
    labels = np.asarray(labels, dtype=np.int64)
    if labels.size and labels.max() >= k:
        raise DataError(f"class id {labels.max()} >= k={k}")
    if labels.size and labels.min() < 0:
        raise DataError("one_hot requires nonnegative class ids")
    out = np.zeros((len(labels), k))
    out[np.arange(len(labels)), labels] = 1.0
    return out


def row_normalize(x, out=None):
    """Scale each row to unit L1 norm; zero rows are left untouched. The
    result is a new array, or ``out`` (``x`` itself normalises in place).
    The row sums are taken in row blocks of about ``NORM_BLOCK`` entries, so
    no N×C temporary is made; each row is summed as in one whole pass."""
    x = np.asarray(x, dtype=float)
    norms = np.empty((len(x), 1))
    step = max(1, NORM_BLOCK // max(x.shape[1], 1))
    for r0 in range(0, len(x), step):
        np.abs(x[r0:r0 + step]).sum(axis=1, keepdims=True,
                                    out=norms[r0:r0 + step])
    norms[norms == 0.0] = 1.0
    return np.divide(x, norms, out=out)


def synthesize_two_block(n, p_in, p_out, seed, noise=0.1) -> NodeDataset:
    """Two equal communities; labels = community; features = one-hot
    community indicator plus Gaussian noise."""
    if n % 2 != 0:
        raise DataError("n must be even")
    if not (0.0 <= p_out < p_in <= 1.0):
        raise DataError("need 0 <= p_out < p_in <= 1")
    rng = np.random.default_rng(seed)
    labels = np.repeat([0, 1], n // 2)
    iu, ju = np.triu_indices(n, k=1)
    same = labels[iu] == labels[ju]
    prob = np.where(same, p_in, p_out)
    keep = rng.random(len(iu)) < prob
    edges = np.stack([iu[keep], ju[keep]], axis=1)
    graph = SparseGraph.from_edges(n, edges)
    features = one_hot(labels, 2) + noise * rng.standard_normal((n, 2))
    split = random_partition(n, n // 2, seed=rng.integers(2**31))
    return NodeDataset(graph=graph, features=features,
                       labels=labels.astype(np.int64), split=split,
                       n_classes=2, name="two_block")


def _single_digit_matrix(raw):
    """The N×C float64 matrix of the bytes ``raw`` if every line of them is
    ``d\\td…\\td\\n``, one ASCII digit per field and every line as long as
    the first; None otherwise."""
    width = raw.find(b"\n") + 1
    if not width or width % 2 or len(raw) % width:
        return None
    grid = np.frombuffer(raw, np.uint8).reshape(-1, width)
    digits = grid[:, ::2]
    if not ((grid[:, -1] == ord("\n")).all()
            and (grid[:, 1:-1:2] == ord("\t")).all()
            and digits.min() >= ord("0") and digits.max() <= ord("9")):
        return None
    return np.subtract(digits, float(ord("0")), out=np.empty(digits.shape))


def _read_matrix(path):
    """The N×C float64 matrix of a tab-separated file. A file in the
    single-digit layout of ``_single_digit_matrix``, which is how
    ``np.savetxt(..., fmt="%.17g")`` writes binary bag-of-words features,
    is parsed in bulk from its bytes, to the values ``np.loadtxt`` gives;
    every other file goes to ``np.loadtxt``, whose values and errors
    stand."""
    with open(path, "rb") as fh:
        matrix = _single_digit_matrix(fh.read())
    if matrix is None:
        matrix = np.loadtxt(path, delimiter="\t", ndmin=2, dtype=float)
    return matrix


def _read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_file(path, reader=_read_json, **kw):
    """``reader(path, **kw)``, JSON by default; a file that cannot be
    opened or parsed raises a DataError naming it."""
    try:
        return reader(path, **kw)
    except DataError:
        raise
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise DataError(
            f"cannot read {path}: {type(exc).__name__}: {exc}") from exc


def load_planetoid(directory, normalize=True) -> NodeDataset:
    """Load a converted citation-network directory.

    ``normalize`` row-normalizes features to unit L1 (the usual citation
    network preprocessing); meta.json counts are enforced and its
    optional ``"name"`` names the dataset. A features.tsv of single-digit
    fields is parsed in bulk and any other by ``np.loadtxt`` (see
    ``_read_matrix``); edges.txt is read as one (E, 2) array by
    ``read_edge_list``. No file is cached: every call reads the directory.
    """
    def path(fname):
        p = os.path.join(directory, fname)
        if not os.path.exists(p):
            raise DataError(f"missing dataset file: {p}")
        return p

    meta = read_file(path("meta.json"))
    if not isinstance(meta, dict):
        raise DataError("meta.json is not a JSON object")
    for key in ("n", "c", "k"):
        if key not in meta:
            raise DataError(f"meta.json missing required field '{key}'")
    for key in ("n", "c", "k", "e"):
        if key in meta and type(meta[key]) is not int:
            raise DataError(f"meta.json field '{key}' is not an integer: "
                            f"{meta[key]!r}")

    features = read_file(path("features.tsv"), _read_matrix)
    labels = read_file(path("labels.tsv"), np.loadtxt, dtype=np.int64,
                       ndmin=1)
    pairs = read_file(path("edges.txt"), read_edge_list)
    split_raw = read_file(path("split.json"))

    mismatches = []
    if features.shape[0] != meta["n"]:
        mismatches.append(f"nodes: expected {meta['n']}, got {features.shape[0]}")
    if features.shape[1] != meta["c"]:
        mismatches.append(f"features: expected {meta['c']}, got {features.shape[1]}")
    if len(labels) != meta["n"]:
        mismatches.append(f"labels: expected {meta['n']}, got {len(labels)}")
    k_actual = int(labels.max()) + 1 if labels.size else 0
    if k_actual > meta["k"]:
        mismatches.append(f"classes: expected {meta['k']}, got {k_actual}")
    try:
        graph = SparseGraph.from_edges(meta["n"], pairs)
    except GraphError as exc:
        raise DataError(f"edges.txt: {exc}") from exc
    if "e" in meta and graph.n_edges != meta["e"]:
        mismatches.append(f"edges: expected {meta['e']}, got {graph.n_edges}")
    if mismatches:
        raise DataError(
            "dataset does not match its manifest: " + "; ".join(mismatches)
        )

    if labels.size and labels.min() < -1:
        raise DataError(f"label {labels.min()} is neither a class id nor "
                        "-1 (unlabeled)")
    if not (isinstance(split_raw, dict) and "train" in split_raw
            and "test" in split_raw):
        raise DataError("split.json is not an object with 'train' and "
                        "'test' lists")
    try:
        split = Split(train=split_raw["train"],
                      val=split_raw.get("val", []), test=split_raw["test"])
    except (TypeError, ValueError) as exc:
        raise DataError(f"split.json: {exc}") from exc
    if not (split.m and split.u):
        raise DataError("train and test splits must be non-empty")
    for part in ("train", "val", "test"):
        ids = getattr(split, part)
        if ids.size and (ids.min() < 0 or ids.max() >= meta["n"]):
            raise DataError(f"{part} split has node ids outside "
                            f"[0, {meta['n']})")
        if ids.size and np.any(labels[ids] < 0):
            raise DataError(f"{part} split contains unlabeled nodes")
    if not np.all(np.isfinite(features)):
        raise DataError("features contain non-finite values")
    if normalize:  # the array was read here, so no copy is needed
        row_normalize(features, out=features)
    return NodeDataset(graph=graph, features=features, labels=labels,
                       split=split, n_classes=int(meta["k"]),
                       name=meta.get("name", ""))


def export_dataset(dataset: NodeDataset, directory):
    """Write a dataset in the loadable text format (lossless round trip)."""
    os.makedirs(directory, exist_ok=True)
    np.savetxt(os.path.join(directory, "features.tsv"), dataset.features,
               delimiter="\t", fmt="%.17g")
    np.savetxt(os.path.join(directory, "labels.tsv"), dataset.labels, fmt="%d")
    write_edge_list(os.path.join(directory, "edges.txt"), dataset.graph)
    with open(os.path.join(directory, "split.json"), "w") as fh:
        json.dump({"train": dataset.split.train.tolist(),
                   "val": dataset.split.val.tolist(),
                   "test": dataset.split.test.tolist()}, fh)
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump({"n": dataset.n, "c": dataset.n_features,
                   "k": dataset.n_classes, "e": dataset.graph.n_edges,
                   "name": dataset.name}, fh)
