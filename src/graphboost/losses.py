"""Binary margin loss, sigmoid cross-entropy surrogate, and error functionals.

Score conventions: a binary score vector is a float array of shape (N,); a
multiclass score matrix has shape (N, K). ``surrogate`` gives the loss and
its gradient on the rows it is handed; ``surrogate_grad`` spreads that
gradient over all N nodes, exactly zero off the training set.
"""

from __future__ import annotations

import numpy as np

DEFAULT_CLIP = 1e-7


def sigmoid(x):
    x = np.asarray(x, dtype=float)
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def margin_loss(score, label, delta=0.0):
    """1 iff (2p - 1) y# < delta with p = sigmoid(score), y# = 2y - 1.

    Strict inequality: a prediction exactly on the margin counts correct.
    """
    if delta < 0:
        raise ValueError("delta must be >= 0")
    p = sigmoid(score)
    ysharp = 2.0 * np.asarray(label, dtype=float) - 1.0
    return ((2.0 * p - 1.0) * ysharp < delta).astype(float)


def sigmoid_ce(score, label):
    """-y log p - (1-y) log(1-p), with p and 1-p clipped below at
    ``DEFAULT_CLIP``."""
    p = np.clip(sigmoid(score), DEFAULT_CLIP, 1.0 - DEFAULT_CLIP)
    y = np.asarray(label, dtype=float)
    return -y * np.log(p) - (1.0 - y) * np.log(1.0 - p)


def softmax(scores):
    scores = np.asarray(scores, dtype=float)
    shifted = scores - scores.max(axis=-1, keepdims=True)
    ex = np.exp(shifted)
    return ex / ex.sum(axis=-1, keepdims=True)


def softmax_ce(scores, labels):
    """Multiclass cross-entropy of softmax(scores) rows vs integer labels,
    with p clipped below at ``DEFAULT_CLIP``."""
    p = np.clip(softmax(scores), DEFAULT_CLIP, 1.0)
    rows = np.arange(len(labels))
    return -np.log(p[rows, np.asarray(labels, dtype=np.int64)])


def surrogate(score, labels):
    """The surrogate averaged over the given rows, and its gradient in
    ``score``: sigmoid cross-entropy of a binary score vector, with gradient
    (1/M)(sigmoid(s) - y), or softmax cross-entropy of a multiclass score
    matrix, with gradient (1/M)(softmax(S) - onehot(y)). ``DEFAULT_CLIP``
    bounds the probabilities inside the logarithm only."""
    score = np.asarray(score, dtype=float)
    m = len(labels)
    if score.ndim == 1:
        loss = float(np.mean(sigmoid_ce(score, labels)))
        return loss, (sigmoid(score) - labels) / m
    labels = np.asarray(labels, dtype=np.int64)
    loss = float(np.mean(softmax_ce(score, labels)))
    grad = softmax(score)
    grad[np.arange(m), labels] -= 1.0
    return loss, grad / m


def surrogate_grad(score, labels, split):
    """Full-length gradient of the surrogate averaged over the train nodes:
    ``surrogate``'s gradient on the train rows and exactly 0 elsewhere."""
    score = np.asarray(score, dtype=float)
    if split.m == 0:
        raise ValueError("empty train set")
    g = np.zeros_like(score)
    tr = split.train
    g[tr] = surrogate(score[tr], np.asarray(labels)[tr])[1]
    return g


def class_ids(score):
    """Predicted class ids: class 1 where a binary score vector is > 0 (a
    score of exactly 0 is class 0), and each row's argmax of a multiclass
    score matrix (ties toward the lowest index)."""
    score = np.asarray(score)
    if score.ndim == 1:
        return (score > 0.0).astype(np.int64)
    return np.argmax(score, axis=1)


def errors(yhat, labels, split):
    """Train error, test error, and train surrogate loss; the errors are
    0-1 errors of ``class_ids``, the classes ``boost.predict`` gives."""
    yhat = np.asarray(yhat, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if split.m == 0 or split.u == 0:
        raise ValueError("errors need nonempty train and test sets")
    tr, te = split.train, split.test
    per_node = (class_ids(yhat) != labels).astype(float)
    return {
        "train_err": float(np.mean(per_node[tr])),
        "test_err": float(np.mean(per_node[te])),
        "surrogate": surrogate(yhat[tr], labels[tr])[0],
    }
