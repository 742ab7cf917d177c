"""MLP transformation functions with hand-written forward/backward passes.

The architecture is a chain of weight matrices with an elementwise
activation between them and no activation on the output; bias is handled by
appending a constant-1 feature to the input (hidden layers are bias-free).
The same map is broadcast to every row, so permuting input rows permutes
output rows identically.

Trainers cover both uses in boosting: regression onto a gradient target
(functional boosting) and weighted multiclass classification (SAMME-style).
An optional L1 column-norm projection enforces the hard constraint used in
theory mode; ``l1_bound=None`` is the soft (regularization-only) mode.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .losses import softmax

DROPOUT_RATIO = 0.5


class TrainingDiverged(RuntimeError):
    def __init__(self, message, last_loss):
        super().__init__(message)
        self.last_loss = last_loss


@dataclass
class TrainConfig:
    epochs: int = 100
    batch_size: int | None = None  # None = all train nodes
    optimizer: str = "adam"        # sgd | momentum | adam | rmsprop
    lr: float = 1e-2
    momentum: float = 0.9
    weight_decay: float = 5e-4
    dropout: bool = False          # ratio fixed at 0.5 when on
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("epochs must be >= 1")
        if self.batch_size is not None and self.batch_size < 1:
            raise ValueError("batch size must be >= 1")
        if self.lr <= 0:
            raise ValueError("learning rate must be > 0")
        if self.optimizer not in ("sgd", "momentum", "adam", "rmsprop"):
            raise ValueError(f"unknown optimizer '{self.optimizer}'")


@dataclass
class MlpParams:
    """Weight matrices W^(l) of shape (fan_in, fan_out), applied left to
    right; ``bias`` appends a constant-1 input feature before W^(1)."""

    weights: list = field(default_factory=list)
    activation: str = "relu"   # relu | sigmoid
    head: str = "identity"     # identity | argmax | softmax
    bias: bool = True

    @property
    def n_layers(self):
        return len(self.weights)

    @property
    def input_width(self):
        return self.weights[0].shape[0] - (1 if self.bias else 0)

    @property
    def output_width(self):
        return self.weights[-1].shape[1]

    def copy(self):
        return MlpParams(weights=[w.copy() for w in self.weights],
                         activation=self.activation, head=self.head,
                         bias=self.bias)


def init_mlp(widths, activation="relu", head="identity", bias=True,
             seed=0, scale=None) -> MlpParams:
    """Uniform init in +-1/sqrt(fan_in); ``scale=0.0`` gives zero weights."""
    rng = np.random.default_rng(seed)
    weights = []
    for l in range(len(widths) - 1):
        fan_in = widths[l] + (1 if (bias and l == 0) else 0)
        bound = scale if scale is not None else 1.0 / np.sqrt(fan_in)
        weights.append(rng.uniform(-bound, bound, size=(fan_in, widths[l + 1])))
    return MlpParams(weights=weights, activation=activation, head=head,
                     bias=bias)


def _activate(name, z):
    if name == "relu":
        return np.maximum(z, 0.0)
    if name == "sigmoid":
        return 1.0 / (1.0 + np.exp(-np.clip(z, -500, 500)))
    raise ValueError(f"unknown activation '{name}'")


def _activate_grad(name, z):
    # ReLU subgradient at 0 is 0
    if name == "relu":
        return (z > 0.0).astype(float)
    if name == "sigmoid":
        s = _activate("sigmoid", z)
        return s * (1.0 - s)
    raise ValueError(f"unknown activation '{name}'")


def _augment(p, x):
    if p.bias:
        return np.hstack([x, np.ones((x.shape[0], 1))])
    return x


def forward(p: MlpParams, x, train_mode=False, seed=0, dropout=False):
    """Full forward pass; returns (output, cache) with everything backward
    needs. Dropout masks are drawn only in train mode, deterministically
    from ``seed``."""
    x = np.asarray(x, dtype=float)
    h = _augment(p, x)
    if h.shape[1] != p.weights[0].shape[0]:
        raise ValueError(
            f"input width {h.shape[1]} does not match W^(1) rows "
            f"{p.weights[0].shape[0]}"
        )
    use_dropout = train_mode and dropout
    rng = np.random.default_rng(seed) if use_dropout else None
    hiddens = [h]
    preacts = []
    masks = []
    for l, w in enumerate(p.weights[:-1]):
        z = h @ w
        preacts.append(z)
        h = _activate(p.activation, z)
        if use_dropout:
            mask = (rng.random(h.shape) >= DROPOUT_RATIO) / (1.0 - DROPOUT_RATIO)
            h = h * mask
            masks.append(mask)
        else:
            masks.append(None)
        hiddens.append(h)
    out = h @ p.weights[-1]
    cache = {"hiddens": hiddens, "preacts": preacts, "masks": masks}
    return out, cache


def backward(p: MlpParams, cache, upstream, input_grad=True):
    """Exact gradients of the forward map.

    Returns (per-layer weight gradients, gradient w.r.t. the input x with
    the bias column stripped, or None when ``input_grad`` is off).
    """
    grads = [None] * p.n_layers
    hiddens, preacts, masks = cache["hiddens"], cache["preacts"], cache["masks"]
    d = np.asarray(upstream, dtype=float)
    grads[-1] = hiddens[-1].T @ d
    for l in range(p.n_layers - 2, -1, -1):
        d = d @ p.weights[l + 1].T
        if masks[l] is not None:
            d = d * masks[l]
        d = d * _activate_grad(p.activation, preacts[l])
        grads[l] = hiddens[l].T @ d
    if not input_grad:
        return grads, None
    d = d @ p.weights[0].T
    if p.bias:
        d = d[:, :-1]
    return grads, d


def predict(p: MlpParams, x):
    """Forward in eval mode with the head applied (argmax ties break low)."""
    out, _ = forward(p, x)
    if p.head == "identity":
        return out
    if p.head == "softmax":
        return softmax(out)
    if p.head == "argmax":
        return np.argmax(out, axis=1)
    raise ValueError(f"unknown head '{p.head}'")


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


class _Optimizer:
    """First-order update rules; weight decay is coupled (L2 on the grad)."""

    def __init__(self, cfg: TrainConfig, shapes):
        self.cfg = cfg
        self.state = [
            {"v": np.zeros(s), "m": np.zeros(s), "s": np.zeros(s)}
            for s in shapes
        ]
        self.t = 0

    def step(self, weights, grads):
        cfg = self.cfg
        self.t += 1
        for w, g, st in zip(weights, grads, self.state):
            if cfg.weight_decay:
                g = g + cfg.weight_decay * w
            if cfg.optimizer == "sgd":
                w -= cfg.lr * g
            elif cfg.optimizer == "momentum":
                st["v"] = cfg.momentum * st["v"] + g
                w -= cfg.lr * st["v"]
            elif cfg.optimizer == "adam":
                b1, b2, eps = 0.9, 0.999, 1e-8
                st["m"] = b1 * st["m"] + (1 - b1) * g
                st["s"] = b2 * st["s"] + (1 - b2) * g * g
                mhat = st["m"] / (1 - b1 ** self.t)
                shat = st["s"] / (1 - b2 ** self.t)
                w -= cfg.lr * mhat / (np.sqrt(shat) + eps)
            elif cfg.optimizer == "rmsprop":
                alpha, eps = 0.99, 1e-8
                st["s"] = alpha * st["s"] + (1 - alpha) * g * g
                w -= cfg.lr * g / (np.sqrt(st["s"]) + eps)


def _fit_loop(params, cfg, x_train, loss_grad_fn, l1_bound):
    """Shared minibatch loop. ``loss_grad_fn(batch_ids, out)`` returns
    (scalar loss, upstream gradient) for the forward output on that batch."""
    rng = np.random.default_rng(cfg.seed + 1)
    n = x_train.shape[0]
    batch = min(cfg.batch_size or n, n)
    opt = _Optimizer(cfg, [w.shape for w in params.weights])
    last_loss = None
    step = 0
    for _ in range(cfg.epochs):
        order = rng.permutation(n)
        for start in range(0, n, batch):
            ids = order[start:start + batch]
            step += 1
            out, cache = forward(params, x_train[ids], train_mode=True,
                                 seed=cfg.seed + 7919 * step,
                                 dropout=cfg.dropout)
            loss, upstream = loss_grad_fn(ids, out)
            if not np.isfinite(loss):
                raise TrainingDiverged(
                    f"loss became non-finite at step {step}", last_loss)
            last_loss = float(loss)
            grads, _ = backward(params, cache, upstream, input_grad=False)
            opt.step(params.weights, grads)
            if l1_bound is not None:
                projected = project_l1_columns(params, l1_bound)
                params.weights = projected.weights
    return params


def fit_to_gradient(widths, cfg: TrainConfig, x, target, train_ids,
                    l1_bound=None, init=None):
    """Train an MLP to the gradient target by minibatch MSE on train nodes.

    ``target`` is an N-vector supported on ``train_ids``. Returns the fitted
    params and the final full-train MSE.
    """
    target = np.asarray(target, dtype=float)
    x = np.asarray(x, dtype=float)
    params = init.copy() if init is not None else init_mlp(
        widths, head="identity", seed=cfg.seed)
    if params.output_width != 1:
        raise ValueError("gradient fitting needs a single output column")
    xt = x[train_ids]
    tt = target[train_ids]

    def loss_grad(ids, out):
        resid = out[:, 0] - tt[ids]
        loss = float(np.mean(resid ** 2))
        upstream = (2.0 / len(ids)) * resid[:, None]
        return loss, upstream

    params = _fit_loop(params, cfg, xt, loss_grad, l1_bound)
    final_out, _ = forward(params, xt)
    mse = float(np.mean((final_out[:, 0] - tt) ** 2))
    return params, mse


def fit_classifier(widths, cfg: TrainConfig, x, labels, sample_weights,
                   train_ids, head="argmax", l1_bound=None, init=None):
    """Minimize weight-scaled multiclass cross-entropy on train nodes.

    Returns the fitted params and the weighted 0-1 train error.
    """
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    w = np.asarray(sample_weights, dtype=float)
    if np.any(w < 0):
        raise ValueError("sample weights must be nonnegative")
    if w[train_ids].sum() <= 0:
        raise ValueError("sample weights sum to zero on the train set")
    params = init.copy() if init is not None else init_mlp(
        widths, head=head, seed=cfg.seed)
    xt = x[train_ids]
    yt = labels[train_ids]
    wt = w[train_ids]

    def loss_grad(ids, out):
        p = softmax(out)
        rows = np.arange(len(ids))
        wb = wt[ids]
        wsum = wb.sum()
        if wsum == 0.0:
            return 0.0, np.zeros_like(out)
        logp = out - out.max(axis=1, keepdims=True)
        logp = logp - np.log(np.exp(logp).sum(axis=1, keepdims=True))
        loss = float(-(wb * logp[rows, yt[ids]]).sum() / wsum)
        upstream = p
        upstream[rows, yt[ids]] -= 1.0
        upstream *= (wb / wsum)[:, None]
        return loss, upstream

    params = _fit_loop(params, cfg, xt, loss_grad, l1_bound)
    out, _ = forward(params, xt)
    pred = np.argmax(out, axis=1)
    werr = float((wt * (pred != yt)).sum() / wt.sum())
    return params, werr
