"""Reference forms that the tests check the program against and no program
path calls: the literal weak-learning norm test, its weighted-classification
reformulation for sign-valued learners, the training-block Gram matrix and
the kernel-target alignment that ``fit_kta`` ascends, with its gradient
taken straight from the basis blocks, the textbook Adam step that every
weight is trained by, the over-smoothing trajectory read off P's full
eigendecomposition, and the shape check of acceptance criterion 2."""

import math

import numpy as np

from graphboost.aggregate import ALIGNMENT_EPS, Polynomial
from graphboost.boost import WlcParams
from graphboost.graph import eigendecompose
from graphboost.theory import SpectralTrajectory


def wlc_check(z, g, params: WlcParams) -> bool:
    """Literal norm test ||z - alpha g||_2 <= beta ||g||_2."""
    z = np.asarray(z, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    gn = np.linalg.norm(g)
    if gn == 0.0:
        raise ValueError("gradient vector must be nonzero")
    return bool(np.linalg.norm(z - params.alpha * g) <= params.beta * gn)


def curve_shape(rows, band_share=0.05):
    """Criterion 2's shape check on trace rows in round order (each with
    ``cos_theta``, ``train_loss`` and ``test_err``): returns (prefix, risen),
    where prefix counts the leading rounds of positive angle and risen
    lists the metrics that, within that prefix, rise from one round to the
    next by more than ``band_share`` of their value at the first round."""
    prefix = 0
    while prefix < len(rows) and rows[prefix]["cos_theta"] > 0:
        prefix += 1
    risen = []
    for metric in ("train_loss", "test_err"):
        vals = [row[metric] for row in rows[:prefix]]
        if any(b > a + band_share * vals[0] for a, b in zip(vals, vals[1:])):
            risen.append(metric)
    return prefix, risen


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


def dense_smoothing_report(p, x, t_max, top_tol=1e-9):
    """``smoothing_report``'s four columns from the dense eigendecomposition
    of P, with a_nc = xi_n^T X_c. The norm is the eigenbasis identity
    ||X||_F^2 - sum_{n>=2} (1 - lambda_n^{2t}) sum_c a_nc^2 (P's top
    eigenvalue is 1), V_1 is spanned by the eigenvectors whose eigenvalue
    lies within ``top_tol`` of 1, the squared distance to V_1 is
    sum_{n off V_1} lambda_n^{2t} sum_c a_nc^2, and the cosine of column c
    is ||V_1^T X_c|| / ||P^t X_c||."""
    x = np.asarray(x, dtype=float)
    lam, vecs = eigendecompose(p)
    coeff = vecs.T @ x
    k = int(np.sum(np.abs(lam - 1.0) <= top_tol))
    top_col_norms = np.linalg.norm(coeff[:k], axis=0)
    x_sq = float(np.sum(x * x))
    mass = (coeff ** 2).sum(axis=1)

    steps = np.arange(t_max + 1)
    direct, spectral, cos_top, rank1 = (np.empty(t_max + 1) for _ in range(4))
    powers = Polynomial(p, tuple(steps), np.ones(len(steps))).terms(x)
    for t, cur in zip(steps, powers):
        direct[t] = np.linalg.norm(cur)
        decay = (1.0 - lam[1:] ** (2 * t)) @ mass[1:]
        spectral[t] = math.sqrt(max(x_sq - decay, 0.0))
        rank1[t] = math.sqrt(lam[k:] ** (2 * t) @ mass[k:])
        col_norms = np.linalg.norm(cur, axis=0)
        safe = np.where(col_norms == 0.0, 1.0, col_norms)
        cos_top[t] = float(np.max(top_col_norms / safe))
    return SpectralTrajectory(steps=steps, frobenius_direct=direct,
                              frobenius_spectral=spectral, cos_top=cos_top,
                              rank_one_distance=rank1)


def basis_gram(basis_train):
    """B B^T of the stacked train-row blocks B = [B_0; B_1; ...], the
    matrix ``fit_kta`` ascends the alignment on."""
    flat = np.concatenate(basis_train)
    return flat @ flat.T


def alignment_value_grad(basis_train, theta, k_target, eps=ALIGNMENT_EPS):
    """Alignment of Z = sum_i theta_i B_i against a fixed target Gram matrix
    K_Y, and its gradient in theta, straight from the train-row blocks
    ``basis_train``: K = Z Z^T, d<K, K_Y>/dtheta_i = 2 <B_i, K_Y Z> and
    d||K||/dtheta_i = 2 <B_i, K Z> / ||K||."""
    zt = sum(t * b for t, b in zip(theta, basis_train))
    k = zt @ zt.T
    u = float(np.vdot(k, k_target))
    v = float(np.linalg.norm(k))
    c = float(np.linalg.norm(k_target))
    denom = v * c + eps
    rho = u / denom
    kz = k @ zt
    kyz = k_target @ zt
    grad = np.empty(len(theta))
    for i, b in enumerate(basis_train):
        du = 2.0 * float(np.vdot(b, kyz))
        dv = 2.0 * float(np.vdot(b, kz)) / v if v > 0 else 0.0
        grad[i] = (du - rho * c * dv) / denom
    return rho, grad
