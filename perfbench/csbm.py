"""Contextual stochastic block models shaped like the Planetoid graphs.

A CSBM (Deshpande et al., NeurIPS 2018) draws class labels, then edges whose
endpoints share a class with probability ``homophily``, then a sparse binary
bag-of-words row per node in which each word comes from its class's topic
vocabulary with probability ``signal`` and from the whole vocabulary
otherwise. Everything is vectorised and deterministic from the seed.

``write_dataset`` stores the result in the five-file directory that
``graphboost.data.load_planetoid`` reads, so the program under test sees
only files.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass

import numpy as np

# Planetoid protocol: a fixed number of train nodes per class
TRAIN_PER_CLASS = 20


@dataclass(frozen=True)
class CsbmShape:
    name: str
    n: int                  # nodes
    c: int                  # vocabulary size (feature columns)
    k: int                  # classes
    e: int                  # undirected edges drawn before deduplication
    words: int              # words drawn per node (with repeats)
    topic: int              # topic words per class
    signal: float           # share of a node's words drawn from its topic
    homophily: float        # share of edges inside one class
    n_val: int = 500


CORA = CsbmShape(name="cora-csbm", n=2708, c=1433, k=7, e=5429, words=18,
                 topic=60, signal=0.18, homophily=0.81)
PUBMED = CsbmShape(name="pubmed-csbm", n=19717, c=500, k=2, e=44338,
                   words=50, topic=40, signal=0.18, homophily=0.80)


@dataclass(frozen=True)
class Csbm:
    labels: np.ndarray      # (n,) int64
    edges: np.ndarray       # (E, 2) int64, i < j, unique
    features: np.ndarray    # (n, c) uint8 in {0, 1}
    train: np.ndarray
    val: np.ndarray
    test: np.ndarray


def _members(labels, k):
    """Nodes sorted by class, with each class's offset and size."""
    order = np.argsort(labels, kind="stable")
    counts = np.bincount(labels, minlength=k)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    return order, starts, counts


def generate(shape: CsbmShape, seed: int) -> Csbm:
    rng = np.random.default_rng(seed)
    n, k = shape.n, shape.k
    labels = rng.integers(0, k, size=n)
    order, starts, counts = _members(labels, k)

    src = rng.integers(0, n, size=shape.e)
    inside = rng.random(shape.e) < shape.homophily
    dst_class = np.where(inside, labels[src],
                         (labels[src] + rng.integers(1, k, size=shape.e)) % k)
    pick = np.floor(rng.random(shape.e) * counts[dst_class]).astype(np.int64)
    dst = order[starts[dst_class] + pick]
    pairs = np.sort(np.stack([src, dst], axis=1), axis=1)
    pairs = np.unique(pairs[pairs[:, 0] != pairs[:, 1]], axis=0)

    topics = np.stack([rng.choice(shape.c, size=shape.topic, replace=False)
                       for _ in range(k)])
    from_topic = rng.random((n, shape.words)) < shape.signal
    topic_word = topics[labels[:, None],
                        rng.integers(0, shape.topic, size=(n, shape.words))]
    any_word = rng.integers(0, shape.c, size=(n, shape.words))
    words = np.where(from_topic, topic_word, any_word)
    features = np.zeros((n, shape.c), dtype=np.uint8)
    features[np.repeat(np.arange(n), shape.words), words.ravel()] = 1

    # TRAIN_PER_CLASS train nodes per class; validation, then test, from
    # the rest
    perm = rng.permutation(n)
    rank = np.empty(n, dtype=np.int64)
    rank[perm] = np.arange(n)
    by_rank = order[np.lexsort((rank[order], labels[order]))]
    train = np.concatenate([by_rank[s:s + TRAIN_PER_CLASS]
                            for s in starts])
    rest = perm[~np.isin(perm, train)]
    val = rest[:shape.n_val]
    test = rest[shape.n_val:]
    return Csbm(labels=labels.astype(np.int64), edges=pairs.astype(np.int64),
                features=features, train=np.sort(train), val=np.sort(val),
                test=np.sort(test))


def _binary_tsv(features):
    """Tab-separated '0'/'1' rows, built as one byte buffer."""
    n, c = features.shape
    buf = np.empty((n, 2 * c), dtype=np.uint8)
    buf[:, 0::2] = features + ord("0")
    buf[:, 1::2] = ord("\t")
    buf[:, -1] = ord("\n")
    return buf.tobytes()


def write_dataset(data: Csbm, shape: CsbmShape, directory):
    os.makedirs(directory, exist_ok=True)
    with open(os.path.join(directory, "features.tsv"), "wb") as fh:
        fh.write(_binary_tsv(data.features))
    with open(os.path.join(directory, "labels.tsv"), "w") as fh:
        fh.write("\n".join(map(str, data.labels.tolist())) + "\n")
    with open(os.path.join(directory, "edges.txt"), "w") as fh:
        fh.write("".join(f"{i} {j}\n" for i, j in data.edges.tolist()))
    with open(os.path.join(directory, "split.json"), "w") as fh:
        json.dump({"train": data.train.tolist(), "val": data.val.tolist(),
                   "test": data.test.tolist()}, fh)
    with open(os.path.join(directory, "meta.json"), "w") as fh:
        json.dump({"n": shape.n, "c": shape.c, "k": shape.k,
                   "e": len(data.edges), "name": shape.name}, fh)
