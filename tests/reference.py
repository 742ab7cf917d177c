"""Reference forms that the tests check the program against and no program
path calls: the literal weak-learning norm test, its weighted-classification
reformulation for sign-valued learners, the training-block Gram matrix and
the kernel-target alignment that ``fit_kta`` ascends, and the textbook Adam
step that every weight is trained by."""

import numpy as np

from graphboost.aggregate import ALIGNMENT_EPS
from graphboost.boost import WlcParams


def wlc_check(z, g, params: WlcParams) -> bool:
    """Literal norm test ||z - alpha g||_2 <= beta ||g||_2."""
    z = np.asarray(z, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    gn = np.linalg.norm(g)
    if gn == 0.0:
        raise ValueError("gradient vector must be nonzero")
    return bool(np.linalg.norm(z - params.alpha * g) <= params.beta * gn)


def weighted_error_form(z, g):
    """Weighted-classification reformulation for sign-valued learners.

    Weights w_n = |g_n| / ||g||_1; returns (weighted error, largest margin
    delta in (0, 1] satisfied, or None when the error is >= 1/2).
    """
    z = np.asarray(z, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    if not np.all(np.isin(z, (-1.0, 1.0))):
        raise ValueError("z must be a sign vector")
    l1 = np.abs(g).sum()
    if l1 == 0.0:
        raise ValueError("gradient vector must be nonzero")
    w = np.abs(g) / l1
    signs = np.where(g >= 0.0, 1.0, -1.0)
    err = float(w[signs != z].sum())
    delta = 1.0 - 2.0 * err
    return err, (delta if delta > 0.0 else None)


def gram(z, train_ids):
    """Gram matrix of training rows: K_ij = <z_i, z_j>, symmetric PSD."""
    train_ids = np.asarray(train_ids)
    if len(train_ids) < 2:
        raise ValueError("gram needs at least two training rows")
    zt = np.asarray(z, dtype=float)[train_ids]
    return zt @ zt.T


def alignment(z, z_prime, train_ids, eps=ALIGNMENT_EPS):
    """Cosine of the flattened training-block Gram matrices, in [-1, 1]."""
    k1 = gram(z, train_ids)
    k2 = gram(z_prime, train_ids)
    n1 = np.linalg.norm(k1)
    n2 = np.linalg.norm(k2)
    if n1 == 0.0 or n2 == 0.0:
        raise ValueError("alignment undefined for an all-zero Gram matrix")
    return float(np.vdot(k1, k2) / (n1 * n2 + eps))


class AllocatingAdam:
    """Adam with coupled weight decay as allocating expressions, one fresh
    array per operation."""

    def __init__(self, lr, weight_decay, shapes):
        self.lr, self.weight_decay = lr, weight_decay
        self.state = [{"m": np.zeros(s), "s": np.zeros(s)} for s in shapes]
        self.t = 0

    def step(self, weights, grads):
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        for w, g, st in zip(weights, grads, self.state):
            if self.weight_decay:
                g = g + self.weight_decay * w
            st["m"] = b1 * st["m"] + (1 - b1) * g
            st["s"] = b2 * st["s"] + (1 - b2) * g * g
            mhat = st["m"] / (1 - b1 ** self.t)
            shat = st["s"] / (1 - b2 ** self.t)
            w -= self.lr * mhat / (np.sqrt(shat) + eps)
