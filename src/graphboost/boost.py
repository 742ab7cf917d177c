"""Boosting drivers and the weak-learning condition machinery.

The functional driver grows a stack of (aggregate, transform) stages by
fitting each transformation to the negative surrogate-loss gradient, checks
the weak-learning condition ||Z - alpha g||_2 <= beta ||g||_2 online by
fitting (alpha, beta) in closed form, and steps with eta = 4 / alpha.
SAMME and SAMME.R drive the same representation stack with multiclass
reweighting instead. Vectors entering the w.l.c. follow the full-length
convention: Z = f(X)/M over all N nodes, g = -grad restricted to train
(zero elsewhere).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, replace

import numpy as np

from . import aggregate as agg_mod
from .aggregate import AlignmentConfig, FixedMatrix, InputInjection, Kta
from .data import NodeDataset, one_hot
from .graph import augmented_adjacency, normalized_adjacency
from .losses import (DEFAULT_CLIP, errors, multiclass_surrogate_grad,
                     sigmoid, sigmoid_ce, softmax, softmax_ce,
                     surrogate_grad)
from .mlp import (MlpParams, TrainConfig, _Optimizer, backward, fit_classifier,
                  fit_to_gradient, forward)

TRACE_COLUMNS = ("t", "train_loss", "train_err", "test_err", "cos_theta",
                 "alpha", "beta", "gamma", "grad_l1", "wlc_pass")


# ---------------------------------------------------------------------------
# weak learning condition

@dataclass(frozen=True)
class WlcParams:
    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > self.beta >= 0.0):
            raise ValueError("need alpha > beta >= 0")

    @property
    def gamma(self):
        return (self.alpha ** 2 - self.beta ** 2) / self.alpha ** 2


def wlc_check(z, g, params: WlcParams) -> bool:
    """Literal norm test ||z - alpha g||_2 <= beta ||g||_2."""
    z = np.asarray(z, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    gn = np.linalg.norm(g)
    if gn == 0.0:
        raise ValueError("gradient vector must be nonzero")
    return bool(np.linalg.norm(z - params.alpha * g) <= params.beta * gn)


def wlc_fit(z, g, r_policy="midpoint", root="minus"):
    """Fit (alpha, beta) achieving equality in the condition, or None.

    A fit exists iff <z, g> > 0. With cos = <z,g>/(||z|| ||g||) the feasible
    ratio range is r in [sin, 1); ``midpoint`` takes (1 + sin^2)/2 which
    always lies in it, ``tightest`` hugs the lower end. alpha solves the
    quadratic (1-r^2)||g||^2 a^2 - 2<z,g> a + ||z||^2 = 0; ``root`` picks
    the branch, and beta = r * alpha.
    """
    z = np.asarray(z, dtype=float).ravel()
    g = np.asarray(g, dtype=float).ravel()
    gn2 = float(g @ g)
    if gn2 == 0.0:
        raise ValueError("gradient vector must be nonzero")
    ip = float(z @ g)
    if ip <= 0.0:
        return None
    zn2 = float(z @ z)
    cos2 = min(ip * ip / (zn2 * gn2), 1.0)
    sin2 = max(1.0 - cos2, 0.0)
    sin_t = np.sqrt(sin2)
    # 1 - r is kept in cancellation-free form so nearly-orthogonal pairs
    # (cos^2 near the float floor) still produce finite parameters; the
    # 1e-15 floor keeps beta = r * alpha strictly below alpha in float
    if r_policy == "midpoint":
        one_minus_r = cos2 / 2.0
    elif r_policy == "tightest":
        one_minus_r = max(cos2 / (1.0 + sin_t) - 1e-9, cos2 / 4.0)
    else:
        raise ValueError(f"unknown r policy '{r_policy}'")
    one_minus_r = max(one_minus_r, 1e-15)
    r = 1.0 - one_minus_r
    u = one_minus_r * (1.0 + r)  # = 1 - r^2
    disc = max(cos2 - u, 0.0) * zn2 * gn2
    sq = np.sqrt(disc)
    if root == "minus":
        alpha = (ip - sq) / (u * gn2)
    elif root == "plus":
        alpha = (ip + sq) / (u * gn2)
    else:
        raise ValueError(f"unknown root choice '{root}'")
    return WlcParams(alpha=float(alpha), beta=float(r * alpha))


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


# ---------------------------------------------------------------------------
# model containers

@dataclass
class StageRecord:
    aggregator: object | None      # None at the first stage
    learner: MlpParams | None      # None marks a skipped round
    weight: float                  # eta (functional) / lambda (SAMME)
    wlc: WlcParams | None = None


@dataclass
class EnsembleModel:
    mode: str                      # functional | samme | samme_r
    n_classes: int
    stages: list
    t_star: int | None = None      # 1-based stage index (functional only)
    base: str = "augmented"
    aggregator_kind: str = "fixed"
    clip: float = DEFAULT_CLIP
    flags: dict = field(default_factory=dict)


@dataclass
class AggregatorSpec:
    """Which aggregation family each stage draws from."""

    kind: str = "fixed"            # fixed | input_injection | kta
    base: str = "augmented"        # augmented | normalized
    rho: float = 0.5
    n_deg: int = 3
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)

    def build_operator(self, graph):
        if self.base == "augmented":
            return augmented_adjacency(graph)
        if self.base == "normalized":
            return normalized_adjacency(graph)
        raise ValueError(f"unknown base operator '{self.base}'")


@dataclass
class FunctionalGBConfig:
    n_rounds: int = 10             # the loop runs n_rounds times (t=2..T+1)
    hidden: tuple = (64,)
    learner: TrainConfig = field(default_factory=TrainConfig)
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    delta: float = 0.0
    clip: float = DEFAULT_CLIP
    r_policy: str = "midpoint"
    root: str = "minus"
    wlc_fallback: str = "continue"  # continue | stop
    eta1: float = 1.0
    alpha0: float = 1.0             # fallback alpha when no fit exists
    strict_tstar: bool = False
    l1_bound: float | None = None
    seed: int = 0


@dataclass
class SammeConfig:
    n_rounds: int = 100
    hidden: tuple = (64,)
    learner: TrainConfig = field(default_factory=TrainConfig)
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    clip: float = DEFAULT_CLIP
    seed: int = 0


def samme_model_weight(err, k):
    """lambda = log((1-e)/e) + log(K-1); zero at the rejection threshold
    e = 1 - 1/K."""
    e = float(np.clip(err, 1e-12, 1.0 - 1e-12))
    return float(np.log((1.0 - e) / e) + np.log(k - 1.0))


def samme_r_contribution(logp):
    """(K-1) (log p_k - mean_j log p_j) per row."""
    logp = np.asarray(logp, dtype=float)
    k = logp.shape[1]
    return (k - 1.0) * (logp - logp.mean(axis=1, keepdims=True))


class _RepState:
    """Representation chain state; input injection doubles the channels the
    learners see by carrying the raw features alongside."""

    def __init__(self, x, injected):
        self.original = np.asarray(x, dtype=float)
        self.current = self.original
        self.injected = injected

    def learner_input(self, rows=slice(None)):
        if self.injected:
            return np.hstack([self.current[rows], self.original[rows]])
        return self.current[rows]

    def advance(self, aggregator):
        self.current = aggregator.apply(self.current, x_initial=self.original)


def _make_stage_aggregator(spec: AggregatorSpec, operator, state, dataset,
                           cfg_alignment=None):
    """Instantiate (and for the learnable family, fit) a stage aggregator."""
    if spec.kind == "fixed":
        return FixedMatrix(operator)
    if spec.kind == "input_injection":
        return InputInjection(rho=spec.rho, operator=operator)
    if spec.kind == "kta":
        y_tr = one_hot(dataset.labels[dataset.split.train], dataset.n_classes)
        fitted, _ = agg_mod.fit_kta(
            Kta.initial(operator, n_deg=spec.n_deg), state.current, y_tr,
            dataset.split.train, cfg_alignment or spec.alignment)
        return fitted
    raise ValueError(f"unknown aggregator kind '{spec.kind}'")


def _learner_widths(in_width, hidden, out_width):
    return (in_width, *hidden, out_width)


def _cos(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.vdot(a, b) / (na * nb))


# ---------------------------------------------------------------------------
# functional gradient boosting (binary)

def run_functional_gb(dataset: NodeDataset, cfg: FunctionalGBConfig):
    """Binary functional gradient boosting with online w.l.c. verification.

    Returns (EnsembleModel, trace rows). The first stage fits the raw
    features; each of the ``n_rounds`` loop iterations aggregates, fits the
    scaled negative gradient, fits (alpha, beta), and steps with
    eta = 4 / alpha.
    """
    if dataset.n_classes != 2:
        raise ValueError("functional boosting is binary-only")
    y = dataset.labels
    split = dataset.split
    m = split.m
    rng = np.random.default_rng(cfg.seed)
    injected = cfg.aggregator.kind == "input_injection"
    operator = cfg.aggregator.build_operator(dataset.graph)
    state = _RepState(dataset.features, injected)

    def learner_cfg():
        c = TrainConfig(**{**cfg.learner.__dict__})
        c.seed = int(rng.integers(2 ** 31))
        return c

    widths = _learner_widths(state.learner_input().shape[1], cfg.hidden, 1)

    # stage 1: no aggregation, gradient taken at the zero score vector
    g = -surrogate_grad(np.zeros(dataset.n), y, split)
    b1, _ = fit_to_gradient(widths, learner_cfg(), state.learner_input(),
                            m * g, split.train, l1_bound=cfg.l1_bound)
    f1 = forward(b1, state.learner_input())[0][:, 0]
    yhat = cfg.eta1 * f1
    stages = [StageRecord(None, b1, cfg.eta1, None)]
    trace = []
    flags = {}

    def record(t, yhat, cos_theta, wlc, passed):
        e = errors(yhat, y, split, delta=cfg.delta, clip=cfg.clip)
        row = {
            "t": t,
            "train_loss": e["surrogate"],
            "train_err": e["train_err"],
            "test_err": e["test_err"],
            "cos_theta": cos_theta,
            "alpha": wlc.alpha if wlc else float("nan"),
            "beta": wlc.beta if wlc else float("nan"),
            "gamma": wlc.gamma if wlc else float("nan"),
            "grad_l1": float(np.abs(surrogate_grad(yhat, y, split)).sum()),
            "wlc_pass": passed,
        }
        trace.append(row)

    record(1, yhat, _cos(f1 / m, g), None, None)

    for t in range(2, cfg.n_rounds + 2):
        g = -surrogate_grad(yhat, y, split)
        aggregator = _make_stage_aggregator(cfg.aggregator, operator, state,
                                            dataset)
        state.advance(aggregator)
        rep = state.learner_input()
        b_t, _ = fit_to_gradient(widths, learner_cfg(), rep, m * g,
                                 split.train, l1_bound=cfg.l1_bound)
        f_t = forward(b_t, rep)[0][:, 0]
        z = f_t / m
        fit = wlc_fit(z, g, r_policy=cfg.r_policy, root=cfg.root)
        if fit is None:
            if cfg.wlc_fallback == "stop":
                flags["stopped_at"] = t
                record(t, yhat, _cos(z, g), None, False)
                break
            eta_t = 4.0 / cfg.alpha0
            flags.setdefault("wlc_failures", []).append(t)
        else:
            eta_t = 4.0 / fit.alpha
        yhat = yhat + eta_t * f_t
        stages.append(StageRecord(aggregator, b_t, eta_t, fit))
        record(t, yhat, _cos(z, g), fit, fit is not None)

    candidates = [r for r in trace if r["t"] <= len(stages)]
    if cfg.strict_tstar:
        candidates = [r for r in candidates if r["t"] <= cfg.n_rounds - 1]
        if not candidates:
            candidates = trace[:1]
    t_star = min(candidates, key=lambda r: r["grad_l1"])["t"]

    model = EnsembleModel(mode="functional", n_classes=2, stages=stages,
                          t_star=t_star, base=cfg.aggregator.base,
                          aggregator_kind=cfg.aggregator.kind,
                          clip=cfg.clip, flags=flags)
    return model, trace


# ---------------------------------------------------------------------------
# SAMME / SAMME.R (multiclass)

def _multiclass_trace_row(t, score_prev, score, contrib, dataset, clip):
    """Per-iteration record: losses/errors of the updated score, plus the
    angle and fitted w.l.c. of the contribution against the negative
    gradient taken before the update."""
    y = dataset.labels
    split = dataset.split
    e = errors(score, y, split, clip=clip)
    g = -multiclass_surrogate_grad(score_prev, y, split)
    fit = (wlc_fit((contrib / split.m).ravel(), g.ravel())
           if np.any(g) else None)
    return {
        "t": t,
        "train_loss": e["surrogate"],
        "train_err": e["train_err"],
        "test_err": e["test_err"],
        "cos_theta": _cos(contrib, g),
        "alpha": fit.alpha if fit else float("nan"),
        "beta": fit.beta if fit else float("nan"),
        "gamma": fit.gamma if fit else float("nan"),
        "grad_l1": float(np.abs(
            multiclass_surrogate_grad(score, y, split)).sum()),
        "wlc_pass": fit is not None,
    }


def _run_samme_family(dataset: NodeDataset, cfg: SammeConfig, real_valued):
    y = dataset.labels
    split = dataset.split
    k = dataset.n_classes
    if k < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(cfg.seed)
    injected = cfg.aggregator.kind == "input_injection"
    operator = cfg.aggregator.build_operator(dataset.graph)
    state = _RepState(dataset.features, injected)
    widths = _learner_widths(state.learner_input().shape[1], cfg.hidden, k)

    weights = np.zeros(dataset.n)
    weights[split.train] = 1.0 / split.m
    score = np.zeros((dataset.n, k))
    stages = []
    trace = []
    flags = {}

    def learner_cfg(extra=0):
        c = TrainConfig(**{**cfg.learner.__dict__})
        c.seed = int(rng.integers(2 ** 31)) + extra
        return c

    for t in range(1, cfg.n_rounds + 1):
        aggregator = None
        if t >= 2:
            aggregator = _make_stage_aggregator(cfg.aggregator, operator,
                                                state, dataset)
            state.advance(aggregator)
        rep = state.learner_input()

        head = "softmax" if real_valued else "argmax"
        b_t = None
        werr = None
        for attempt in range(2):
            b_t, werr = fit_classifier(widths, learner_cfg(attempt), rep, y,
                                       weights, split.train, head=head)
            if real_valued or werr < 1.0 - 1.0 / k:
                break
        if not real_valued and werr >= 1.0 - 1.0 / k:
            # rejected twice: this round contributes no member, but the
            # representation already advanced, so record a placeholder
            flags.setdefault("skipped", []).append(t)
            stages.append(StageRecord(aggregator, None, 0.0, None))
            trace.append(_multiclass_trace_row(t, score, score,
                                               np.zeros_like(score),
                                               dataset, cfg.clip))
            continue

        logits = forward(b_t, rep)[0]
        score_prev = score
        if real_valued:
            proba = np.clip(softmax(logits), cfg.clip, 1.0)
            if not np.all(np.isfinite(proba)):
                raise FloatingPointError("NaN class probabilities")
            logp = np.log(proba)
            contrib = samme_r_contribution(logp)
            coding = np.full((dataset.n, k), -1.0 / (k - 1.0))
            coding[np.arange(dataset.n), y.clip(min=0)] = 1.0
            upd = np.exp(-((k - 1.0) / k) * (coding * logp).sum(axis=1))
            weights[split.train] *= upd[split.train]
            weights /= weights.sum()
            score = score + contrib
            stages.append(StageRecord(aggregator, b_t, 1.0, None))
        else:
            lam = samme_model_weight(werr, k)
            pred = np.argmax(logits, axis=1)
            contrib = lam * one_hot(pred, k)
            bad = pred[split.train] != y[split.train]
            weights[split.train] *= np.exp(lam * bad)
            weights /= weights.sum()
            score = score + contrib
            stages.append(StageRecord(aggregator, b_t, lam, None))
        trace.append(_multiclass_trace_row(t, score_prev, score, contrib,
                                           dataset, cfg.clip))

    if not any(st.learner is not None for st in stages):
        raise RuntimeError(
            "no weak learner beat chance in any round; nothing to predict "
            "with")
    mode = "samme_r" if real_valued else "samme"
    model = EnsembleModel(mode=mode, n_classes=k, stages=stages, t_star=None,
                          base=cfg.aggregator.base,
                          aggregator_kind=cfg.aggregator.kind,
                          clip=cfg.clip, flags=flags)
    return model, trace


def run_samme(dataset, cfg: SammeConfig):
    """Multiclass boosting with hard class votes: model weight
    lambda_t = log((1-e_t)/e_t) + log(K-1), multiplicative reweighting.
    Weak learners with weighted error >= 1 - 1/K are retrained once, then
    the ensemble is truncated."""
    return _run_samme_family(dataset, cfg, real_valued=False)


def run_samme_r(dataset, cfg: SammeConfig):
    """Real-valued variant: per-node contribution
    (K-1)(log p_k - mean_j log p_j) with clipped probabilities."""
    return _run_samme_family(dataset, cfg, real_valued=True)


# ---------------------------------------------------------------------------
# replay / prediction

def stage_representations(model: EnsembleModel, dataset: NodeDataset,
                          rows=slice(None)):
    """Learner-input matrix at every stage (the aggregated features the
    transformation function saw), restricted to ``rows``."""
    injected = model.aggregator_kind == "input_injection"
    state = _RepState(dataset.features, injected)
    reps = []
    for s, stage in enumerate(model.stages):
        if s >= 1:
            state.advance(stage.aggregator)
        reps.append(state.learner_input(rows))
    return reps


def _replay(model: EnsembleModel, reps):
    """Raw learner outputs on the rows of the per-stage inputs ``reps``; a
    skipped stage yields None."""
    return [None if stage.learner is None else forward(stage.learner, rep)[0]
            for stage, rep in zip(model.stages, reps)]


def _scores(model: EnsembleModel, outputs, n_rows, soft=False):
    """Running score by stage from raw learner outputs. ``soft`` replaces
    SAMME's argmax votes by softmax votes, the differentiable head
    fine-tuning trains through."""
    scores = []
    if model.mode == "functional":
        acc = np.zeros(n_rows)
    else:
        acc = np.zeros((n_rows, model.n_classes))
    for stage, out in zip(model.stages, outputs):
        if out is None:
            scores.append(acc.copy())
            continue
        if model.mode == "functional":
            acc = acc + stage.weight * out[:, 0]
        elif model.mode == "samme":
            vote = (softmax(out) if soft else
                    one_hot(np.argmax(out, axis=1), model.n_classes))
            acc = acc + stage.weight * vote
        else:
            proba = np.clip(softmax(out), model.clip, 1.0)
            acc = acc + samme_r_contribution(np.log(proba))
        scores.append(acc.copy())
    return scores


def replay_scores(model: EnsembleModel, dataset: NodeDataset, reps=None):
    """Score trajectory by stage: functional gives the running sum of
    eta_s f_s; SAMME gives the running vote score; SAMME.R the running
    contribution sum. ``reps`` (from ``stage_representations`` with
    ``rows``) scores those rows instead of the whole graph."""
    if reps is None:
        reps = stage_representations(model, dataset)
    return _scores(model, _replay(model, reps), len(reps[0]))


def predict(model: EnsembleModel, dataset: NodeDataset, reps=None):
    """Deterministic prediction; argmax ties break toward the lowest index.

    Returns (score vector/matrix, class ids), on the rows of ``reps`` when
    given (see ``replay_scores``).
    """
    scores = replay_scores(model, dataset, reps)
    if model.mode == "functional":
        final = scores[(model.t_star or len(scores)) - 1]
        return final, (final > 0.0).astype(np.int64)
    return scores[-1], np.argmax(scores[-1], axis=1)


# ---------------------------------------------------------------------------
# fine-tuning (end-to-end, manual backprop through the whole stack)
#
# The loss reads the train rows only and every learner is row-wise, so the
# learners run on the train rows. Chains without learnable aggregation keep
# their train and validation rows from one replay; KTA chains are replayed
# after every step, and their pullback runs on full-length arrays.

@dataclass
class FineTuneConfig:
    epochs: int = 50
    optimizer: str = "adam"
    lr: float = 1e-3
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")


def _stack_replay(model, dataset, rows):
    """One replay of the stage chain: every stage's learner input on
    ``rows`` and, for chains with learnable aggregation, the full-length
    learner inputs (KTA chains carry no injected channels, so these are the
    representations the pullback pairs with), else None."""
    if not any(isinstance(st.aggregator, Kta) for st in model.stages):
        return stage_representations(model, dataset, rows), None
    chain = stage_representations(model, dataset)
    return [rep[rows] for rep in chain], chain


def _stack_forward(model, inputs):
    """Softened stack score on the rows of the per-stage learner inputs,
    with the caches backprop needs. SAMME's argmax becomes softmax;
    functional stays the identity. Returns (score, caches, logits_list)."""
    caches, logits_list = [], []
    for stage, x in zip(model.stages, inputs):
        out, cache = ((None, None) if stage.learner is None
                      else forward(stage.learner, x))
        caches.append(cache)
        logits_list.append(out)
    score = _scores(model, logits_list, len(inputs[0]), soft=True)[-1]
    return score, caches, logits_list


def _train_loss(model, score, y_train):
    """Averaged surrogate over the train rows and its gradient in the
    score."""
    m = len(y_train)
    if model.mode == "functional":
        loss = float(np.mean(sigmoid_ce(score, y_train, model.clip)))
        return loss, (sigmoid(score) - y_train) / m
    loss = float(np.mean(softmax_ce(score, y_train, model.clip)))
    dscore = softmax(score)
    dscore[np.arange(m), y_train] -= 1.0
    return loss, dscore / m


def _kta_pullback(aggregator: Kta, d, x):
    """Adjoint of x -> aggregator.apply(x) at ``d``, and the gradient of
    <d, aggregator.apply(x)> in the aggregation weights, taken as
    <(P^T)^{2^k} d, x> from the same transposed powers."""
    acc = aggregator.weights[0] * d
    grad = [float(np.vdot(d, x))]
    cur = d
    for kk in range(aggregator.n_deg + 1):
        for _ in range(max(1, 2 ** (kk - 1))):  # power 2^(k-1) -> 2^k
            cur = aggregator.operator.apply_transpose(cur)
        acc = acc + aggregator.weights[1 + kk] * cur
        grad.append(float(np.vdot(cur, x)))
    return acc, np.array(grad)


def _stack_gradients(model, dataset, dscore, caches, logits_list,
                     chain=None):
    """Exact gradients of the train loss w.r.t. every MLP weight and, given
    the full-length ``chain``, every learnable aggregation weight.

    ``dscore``, ``caches`` and ``logits_list`` cover the train rows in the
    order of ``dataset.split.train``. Returns (per-stage MLP gradients,
    {stage: KTA weight gradient}).
    """
    k = model.n_classes
    mlp_grads, dxs = [], []
    for stage, cache, out in zip(model.stages, caches, logits_list):
        if stage.learner is None:
            mlp_grads.append(None)
            dxs.append(None)
            continue
        if model.mode == "functional":
            dlogits = stage.weight * dscore[:, None]
        elif model.mode == "samme":
            p = softmax(out)
            inner = (dscore * p).sum(axis=1, keepdims=True)
            dlogits = stage.weight * p * (dscore - inner)
        else:
            proba_raw = softmax(out)
            clipped = proba_raw < model.clip
            dlogp = (k - 1.0) * (dscore - dscore.mean(axis=1, keepdims=True))
            dlogp[clipped] = 0.0
            dlogits = dlogp - proba_raw * dlogp.sum(axis=1, keepdims=True)
        grads, dx = backward(stage.learner, cache, dlogits,
                             input_grad=chain is not None)
        mlp_grads.append(grads)
        dxs.append(dx)

    kta_grads = {}
    if chain is None:
        return mlp_grads, kta_grads
    # full-length adjoint of the chain; learners feed it on train rows only
    train = dataset.split.train
    d = np.zeros_like(chain[-1])
    for s in range(len(model.stages) - 1, 0, -1):
        if dxs[s] is not None:
            d[train] += dxs[s]
        d, kta_grads[s] = _kta_pullback(model.stages[s].aggregator, d,
                                        chain[s - 1])
    return mlp_grads, kta_grads


def fine_tune(model: EnsembleModel, dataset: NodeDataset,
              cfg: FineTuneConfig):
    """End-to-end first-order training of the stacked composition.

    All MLP weights and learnable aggregation weights train; stage weights
    (eta / lambda) and aggregator structure stay fixed. On divergence a
    flagged copy of the original model is returned; the input model is
    never changed. Returns
    (model, {"train_err": (before, after), "val_err": (before, after)}).
    """
    if not model.stages:
        raise ValueError("model history is empty")
    split = dataset.split
    m = split.m
    rows = np.concatenate([split.train, split.val])
    y_rows = dataset.labels[rows]

    def eval_errors(mdl, inputs):
        wrong = predict(mdl, dataset, inputs)[1] != y_rows
        return (float(np.mean(wrong[:m])),
                float(np.mean(wrong[m:])) if len(split.val) else float("nan"))

    def report(after):
        return {"train_err": (before[0], after[0]),
                "val_err": (before[1], after[1])}

    inputs, chain = _stack_replay(model, dataset, rows)
    before = eval_errors(model, inputs)
    if cfg.epochs == 0:
        return model, report(before)

    def own(st):
        # the copied KTA weight arrays are trained in place
        agg = st.aggregator
        if isinstance(agg, Kta):
            agg = replace(agg, weights=agg.weights.astype(float))
        return replace(st, aggregator=agg,
                       learner=st.learner.copy() if st.learner else None)

    work = replace(model, stages=[own(st) for st in model.stages],
                   flags=dict(model.flags))
    kta_ids = [s for s, st in enumerate(work.stages)
               if isinstance(st.aggregator, Kta)]
    params = [w for st in work.stages if st.learner
              for w in st.learner.weights]
    params += [work.stages[s].aggregator.weights for s in kta_ids]
    opt = _Optimizer(TrainConfig(epochs=1, optimizer=cfg.optimizer,
                                 lr=cfg.lr, momentum=cfg.momentum,
                                 weight_decay=cfg.weight_decay),
                     [p.shape for p in params])

    for _ in range(cfg.epochs):
        score, caches, logits_list = _stack_forward(
            work, [x[:m] for x in inputs])
        loss, dscore = _train_loss(work, score, y_rows[:m])
        if not np.isfinite(loss):
            flags = {**model.flags, "fine_tune_diverged": True}
            return (replace(model, stages=list(model.stages), flags=flags),
                    report(before))
        mlp_grads, kta_grads = _stack_gradients(work, dataset, dscore,
                                                caches, logits_list, chain)
        opt.step(params, [g for gs in mlp_grads if gs for g in gs]
                 + [kta_grads[s] for s in kta_ids])
        if kta_ids:
            inputs, chain = _stack_replay(work, dataset, rows)

    return work, report(eval_errors(work, inputs))


# ---------------------------------------------------------------------------
# serialization

def _aggregator_to_json(aggregator):
    if aggregator is None:
        return None
    if isinstance(aggregator, FixedMatrix):
        return {"kind": "fixed"}
    if isinstance(aggregator, InputInjection):
        return {"kind": "input_injection", "rho": aggregator.rho}
    if isinstance(aggregator, Kta):
        return {"kind": "kta", "weights": aggregator.weights.tolist(),
                "n_deg": aggregator.n_deg}
    raise TypeError(f"unknown aggregator {type(aggregator)}")


def _aggregator_from_json(blob, operator):
    if blob is None:
        return None
    if blob["kind"] == "fixed":
        return FixedMatrix(operator)
    if blob["kind"] == "input_injection":
        return InputInjection(rho=blob["rho"], operator=operator)
    if blob["kind"] == "kta":
        return Kta(operator=operator, weights=np.asarray(blob["weights"]),
                   n_deg=blob["n_deg"])
    raise ValueError(f"unknown aggregator kind {blob['kind']}")


def model_to_json(model: EnsembleModel) -> dict:
    """JSON manifest: mode, K, t*, per-stage aggregator params, learner
    weights (row-major), and the eta/lambda sequence."""
    return {
        "mode": model.mode,
        "n_classes": model.n_classes,
        "t_star": model.t_star,
        "base": model.base,
        "aggregator_kind": model.aggregator_kind,
        "clip": model.clip,
        "flags": model.flags,
        "stages": [
            {
                "aggregator": _aggregator_to_json(st.aggregator),
                "weight": st.weight,
                "wlc": ({"alpha": st.wlc.alpha, "beta": st.wlc.beta}
                        if st.wlc else None),
                "learner": None if st.learner is None else {
                    "shapes": [list(w.shape) for w in st.learner.weights],
                    "weights": [w.ravel().tolist()
                                for w in st.learner.weights],
                    "activation": st.learner.activation,
                    "head": st.learner.head,
                    "bias": st.learner.bias,
                },
            }
            for st in model.stages
        ],
    }


def model_from_json(blob: dict, graph) -> EnsembleModel:
    base = blob["base"]
    operator = (augmented_adjacency(graph) if base == "augmented"
                else normalized_adjacency(graph))
    stages = []
    for st in blob["stages"]:
        lrn = st["learner"]
        if lrn is None:
            params = None
        else:
            weights = [np.asarray(w, dtype=float).reshape(shape)
                       for w, shape in zip(lrn["weights"], lrn["shapes"])]
            params = MlpParams(weights=weights, activation=lrn["activation"],
                               head=lrn["head"], bias=lrn["bias"])
        wlc = (WlcParams(**st["wlc"]) if st["wlc"] else None)
        stages.append(StageRecord(_aggregator_from_json(st["aggregator"],
                                                        operator),
                                  params, st["weight"], wlc))
    return EnsembleModel(mode=blob["mode"], n_classes=blob["n_classes"],
                         stages=stages, t_star=blob["t_star"], base=base,
                         aggregator_kind=blob["aggregator_kind"],
                         clip=blob["clip"], flags=blob.get("flags", {}))


def save_model(model, path):
    # one json.dumps call takes the C encoder; json.dump streams through
    # the pure-Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(model_to_json(model)))


def load_model(path, graph):
    with open(path) as fh:
        return model_from_json(json.load(fh), graph)


def write_trace_csv(trace, path):
    with open(path, "w") as fh:
        fh.write(",".join(TRACE_COLUMNS) + "\n")
        for row in trace:
            vals = []
            for col in TRACE_COLUMNS:
                v = row[col]
                if v is None:
                    vals.append("")
                elif isinstance(v, bool):
                    vals.append(str(int(v)))
                elif isinstance(v, float):
                    vals.append(repr(v))
                else:
                    vals.append(str(v))
            fh.write(",".join(vals) + "\n")


def read_trace_csv(path):
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            row = {}
            for col, val in zip(header, parts):
                if col == "t":
                    row[col] = int(val)
                elif col == "wlc_pass":
                    row[col] = None if val == "" else bool(int(val))
                else:
                    row[col] = float(val) if val else float("nan")
            rows.append(row)
    return rows
