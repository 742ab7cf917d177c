"""MLP transformation functions with hand-written forward/backward passes.

The one architecture is a chain of weight matrices with ReLU between them
and no activation on the output; the bias is the last row of W^(1), added
to x @ W^(1)[:-1] with no copy of the input (hidden layers are bias-free).
The same map is broadcast to every row, so permuting input rows permutes
output rows identically.

Trainers cover both uses in boosting: regression onto a gradient target
(functional boosting) and weighted multiclass classification (SAMME-style).
Both step every weight by full-batch Adam with coupled weight decay, the
one update rule in the package, on the train rows in their given order; a
fit's seed draws only its initial weights. Training is soft-constrained
(weight decay only); ``project_l1_columns`` builds members of the
hard-constrained class the complexity bound assumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import softmax


class TrainingDiverged(RuntimeError):
    def __init__(self, message, last_loss):
        super().__init__(message)
        self.last_loss = last_loss


def check_step(lr, weight_decay=0.0):
    """Refuse a non-finite or non-positive lr, or a non-finite or negative
    weight decay."""
    if not (math.isfinite(lr) and lr > 0):
        raise ValueError(f"learning rate must be finite and > 0, got {lr}")
    if not (math.isfinite(weight_decay) and weight_decay >= 0):
        raise ValueError(
            f"weight decay must be finite and >= 0, got {weight_decay}")


@dataclass
class TrainConfig:
    """A learner's fit: ``epochs`` full-batch Adam steps at step size
    ``lr`` with coupled weight decay."""

    epochs: int = 100
    lr: float = 1e-2
    weight_decay: float = 5e-4

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        check_step(self.lr, self.weight_decay)


@dataclass
class MlpParams:
    """Weight matrices W^(l) of shape (fan_in, fan_out), applied left to
    right with ReLU between them; the last row of W^(1) is the bias, so
    the first layer computes x @ W^(1)[:-1] + W^(1)[-1]."""

    weights: list = field(default_factory=list)

    @property
    def n_layers(self):
        return len(self.weights)

    def copy(self):
        return MlpParams(weights=[w.copy() for w in self.weights])


def init_mlp(widths, seed=0) -> MlpParams:
    """Uniform init in +-1/sqrt(fan_in), the bias row counted in fan_in."""
    rng = np.random.default_rng(seed)
    weights = []
    for l in range(len(widths) - 1):
        fan_in = widths[l] + (l == 0)
        bound = 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, widths[l + 1])))
    return MlpParams(weights=weights)


def _layer(p, l, h):
    """h @ W^(l), plus the bias row when l is the first layer."""
    w = p.weights[l]
    if l:
        return h @ w
    z = h @ w[:-1]
    z += w[-1]
    return z


def _layer_grad(p, l, h, d):
    """Gradient of <d, _layer(p, l, h)> in W^(l): [h^T d ; sum of d's rows]
    for the first layer, written into one array; stacking two fresh arrays
    tripled the cost of a train-row backward pass."""
    if l:
        return h.T @ d
    grad = np.empty((h.shape[1] + 1, d.shape[1]))
    np.matmul(h.T, d, out=grad[:-1])
    d.sum(axis=0, out=grad[-1])
    return grad


def forward(p: MlpParams, x):
    """Full forward pass; returns (output, cache), the cache holding the
    input and every hidden activation, all that backward reads."""
    h = np.asarray(x, dtype=float)
    if h.shape[1] + 1 != p.weights[0].shape[0]:
        raise ValueError(
            f"input width {h.shape[1]} (+1 bias) does not match "
            f"W^(1) rows {p.weights[0].shape[0]}"
        )
    hiddens = [h]
    for l in range(p.n_layers - 1):
        h = np.maximum(_layer(p, l, h), 0.0)
        hiddens.append(h)
    out = _layer(p, p.n_layers - 1, h)
    return out, {"hiddens": hiddens}


def backward(p: MlpParams, cache, upstream, input_grad=True):
    """Exact gradients of the forward map (the ReLU subgradient at 0 is 0).

    A hidden unit is active where its activation max(z, 0) is > 0, which
    is exactly where z > 0 (-0.0 and NaN included), so no pre-activation is
    kept. Returns (per-layer weight gradients, gradient w.r.t. the input x,
    or None when ``input_grad`` is off).
    """
    grads = [None] * p.n_layers
    hiddens = cache["hiddens"]
    d = np.asarray(upstream, dtype=float)
    last = p.n_layers - 1
    grads[last] = _layer_grad(p, last, hiddens[last], d)
    for l in range(last - 1, -1, -1):
        d = d @ p.weights[l + 1].T
        d = d * (hiddens[l + 1] > 0.0).astype(float)
        grads[l] = _layer_grad(p, l, hiddens[l], d)
    if not input_grad:
        return grads, None
    return grads, d @ p.weights[0][:-1].T


def project_l1_columns(p: MlpParams, bound) -> MlpParams:
    """Rescale every weight column with L1 norm > bound onto the ball's
    surface (radial projection; direction preserved)."""
    if bound <= 0:
        raise ValueError("L1 bound must be > 0")
    out = p.copy()
    for w in out.weights:
        norms = np.abs(w).sum(axis=0)
        over = norms > bound
        if np.any(over):
            w[:, over] *= bound / norms[over]
    return out


def max_column_l1(p: MlpParams):
    """Largest column L1 norm over all layers (soft-mode class surrogate)."""
    return max(float(np.abs(w).sum(axis=0).max()) for w in p.weights)


class _Adam:
    """Adam with coupled weight decay (L2 on the gradient), written in
    place through two scratch arrays per parameter with the operands in the
    order of the textbook formulas, lr * mhat / (sqrt(shat) + eps), so the
    results are those of the allocating expressions bit for bit."""

    def __init__(self, lr, weight_decay, shapes):
        self.lr, self.weight_decay = lr, weight_decay
        self.state = [{k: np.zeros(s) for k in "msab"} for s in shapes]
        self.t = 0

    def step(self, weights, grads):
        b1, b2, eps = 0.9, 0.999, 1e-8
        self.t += 1
        for w, g, st in zip(weights, grads, self.state):
            a, b, m, sq = st["a"], st["b"], st["m"], st["s"]
            if self.weight_decay:
                g = np.add(g, np.multiply(self.weight_decay, w, out=a), out=a)
            m *= b1
            m += np.multiply(1 - b1, g, out=b)
            sq *= b2
            np.multiply(1 - b2, g, out=b)
            sq += np.multiply(b, g, out=b)
            # g is dead from here, so its scratch holds the denominator
            np.divide(sq, 1 - b2 ** self.t, out=a)
            np.sqrt(a, out=a)
            a += eps
            np.divide(m, 1 - b1 ** self.t, out=b)
            np.multiply(self.lr, b, out=b)
            w -= np.divide(b, a, out=b)


def _fit_loop(params, cfg, x_train, loss_grad_fn):
    """``cfg.epochs`` full-batch Adam steps on the train rows in their given
    order; ``loss_grad_fn(out)`` gives (loss, upstream gradient) of the
    forward output."""
    opt = _Adam(cfg.lr, cfg.weight_decay, [w.shape for w in params.weights])
    last_loss = None
    for epoch in range(1, cfg.epochs + 1):
        out, cache = forward(params, x_train)
        loss, upstream = loss_grad_fn(out)
        if not np.isfinite(loss):
            raise TrainingDiverged(
                f"loss became non-finite at step {epoch}", last_loss)
        last_loss = float(loss)
        grads, _ = backward(params, cache, upstream, input_grad=False)
        opt.step(params.weights, grads)
    return params


def fit_to_gradient(widths, cfg: TrainConfig, x, target, train_ids, seed=0):
    """Train an MLP to the gradient target by full-batch MSE on train nodes.

    ``target`` is an N-vector supported on ``train_ids``; ``seed`` draws
    only the initial weights. Returns the fitted params and the final
    full-train MSE.
    """
    target = np.asarray(target, dtype=float)
    x = np.asarray(x, dtype=float)
    if widths[-1] != 1:
        raise ValueError("gradient fitting needs a single output column")
    params = init_mlp(widths, seed=seed)
    xt = x[train_ids]
    tt = target[train_ids]
    scale = 2.0 / len(tt)

    def loss_grad(out):
        resid = out[:, 0] - tt
        return float(np.mean(resid ** 2)), scale * resid[:, None]

    params = _fit_loop(params, cfg, xt, loss_grad)
    final_out, _ = forward(params, xt)
    mse = float(np.mean((final_out[:, 0] - tt) ** 2))
    return params, mse


def fit_classifier(widths, cfg: TrainConfig, x, labels, sample_weights,
                   train_ids, seed=0):
    """Minimize weight-scaled multiclass cross-entropy on train nodes.

    ``seed`` draws only the initial weights. Returns the fitted params and
    the weighted 0-1 train error.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    w = np.asarray(sample_weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("sample weights must be nonnegative")
    wt = w[train_ids]
    wsum = wt.sum()
    if wsum <= 0:
        raise ValueError("sample weights sum to zero on the train set")
    params = init_mlp(widths, seed=seed)
    xt = x[train_ids]
    yt = labels[train_ids]
    rows = np.arange(len(yt))
    row_scale = (wt / wsum)[:, None]

    def loss_grad(out):
        logp = out - out.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        upstream = softmax(out)
        upstream[rows, yt] -= 1.0
        upstream *= row_scale
        return float(-(wt * logp[rows, yt]).sum() / wsum), upstream

    params = _fit_loop(params, cfg, xt, loss_grad)
    out, _ = forward(params, xt)
    pred = np.argmax(out, axis=1)
    werr = float((wt * (pred != yt)).sum() / wsum)
    return params, werr
