"""Boosting drivers and the weak-learning condition machinery.

The functional driver grows a stack of (aggregate, transform) stages by
fitting each transformation to the negative surrogate-loss gradient, checks
the weak-learning condition ||Z - alpha g||_2 <= beta ||g||_2 online by
fitting (alpha, beta) in closed form, and steps with eta = 4 / alpha.
SAMME drives the same representation stack with multiclass reweighting
instead. Vectors entering the w.l.c. follow the full-length convention:
Z = f(X)/M over all N nodes, g = -grad restricted to train (zero
elsewhere).
"""

from __future__ import annotations

import base64
import json
import math
import numbers
from dataclasses import dataclass, field, replace

import numpy as np

from . import aggregate as agg_mod
from .aggregate import AlignmentConfig, Polynomial
from .data import NodeDataset, one_hot
from .graph import base_operator
from .losses import DEFAULT_CLIP, errors, softmax, surrogate, surrogate_grad
from .mlp import (MlpParams, TrainConfig, _Adam, backward, check_step,
                  fit_classifier, fit_to_gradient, forward)

# the one model.json layout: save_model writes it, model_from_json reads it
FORMAT_VERSION = 3

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


def wlc_fit(z, g):
    """Fit (alpha, beta) achieving equality in the condition, or None.

    A fit exists iff <z, g> > 0. With cos = <z,g>/(||z|| ||g||) the feasible
    ratio range is r in [sin, 1); the midpoint r = (1 + sin^2)/2 always lies
    in it. alpha is the smaller root of the quadratic
    (1-r^2)||g||^2 a^2 - 2<z,g> a + ||z||^2 = 0, and beta = r * alpha.
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
    # 1 - r is kept in cancellation-free form so nearly-orthogonal pairs
    # (cos^2 near the float floor) still produce finite parameters; the
    # 1e-15 floor keeps beta = r * alpha strictly below alpha in float
    one_minus_r = max(cos2 / 2.0, 1e-15)
    r = 1.0 - one_minus_r
    u = one_minus_r * (1.0 + r)  # = 1 - r^2
    disc = max(cos2 - u, 0.0) * zn2 * gn2
    alpha = (ip - np.sqrt(disc)) / (u * gn2)
    return WlcParams(alpha=float(alpha), beta=float(r * alpha))


# ---------------------------------------------------------------------------
# model containers

@dataclass
class StageRecord:
    aggregator: Polynomial | None  # None at the first stage
    learner: MlpParams             # kept at weight 0 by a rejected round
    weight: float                  # eta (functional) / lambda (SAMME)
    # (alpha, beta) fitted to the stage's contribution against the negative
    # gradient before it, in every mode; None where no fit exists
    wlc: WlcParams | None = None


@dataclass
class EnsembleModel:
    mode: str                      # functional | samme
    n_classes: int
    stages: list
    t_star: int | None = None      # 1-based stage index (functional only)
    aggregator_kind: str = "fixed"
    flags: dict = field(default_factory=dict)


@dataclass
class AggregatorSpec:
    """Which aggregation family each stage draws from."""

    kind: str = "fixed"            # fixed | input_injection | kta
    rho: float = 0.5
    n_deg: int = 3
    alignment: AlignmentConfig = field(default_factory=AlignmentConfig)


@dataclass
class BoostConfig:
    """One boosting run: SAMME grows ``n_rounds`` stages, the functional
    driver ``n_rounds + 1`` (its first stage fits the raw features)."""

    n_rounds: int = 100
    hidden: tuple = (64,)
    learner: TrainConfig = field(default_factory=TrainConfig)
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    seed: int = 0


def samme_model_weight(err, k):
    """lambda = log((1-e)/e) + log(K-1); zero at the rejection threshold
    e = 1 - 1/K."""
    e = float(np.clip(err, 1e-12, 1.0 - 1e-12))
    return float(np.log((1.0 - e) / e) + np.log(k - 1.0))


class AllRoundsRejected(RuntimeError):
    """No round of a SAMME run produced a learner that beat chance."""


def _aggregator(operator, kind, rho=None, n_deg=None, weights=None):
    """The polynomial of one aggregation family over ``operator``; ``kind``
    and its parameters are the fields of a stage's saved aggregator."""
    if kind == "fixed":
        return agg_mod.fixed(operator)
    if kind == "input_injection":
        return agg_mod.injection(operator, rho)
    if kind == "kta":
        return agg_mod.kta(operator, n_deg, weights)
    raise ValueError(f"unknown aggregator kind '{kind}'")


def _stage_chain(features, injected, advance_by, rows=slice(None)):
    """The one walk of the stage chain, for training and replay: yields
    (aggregator, learner input on ``rows``) stage by stage, the first with
    no aggregator; ``advance_by(current, x0)`` gives the aggregator that
    advances the current representation and the representation it advances
    to. A learner input is a tuple of column blocks (see ``mlp.forward``):
    ``(current,)``, or ``(current, x0)`` under input injection, whose raw
    features ride along unconcatenated (on all rows, ``x0`` is the features
    array itself). Only the chain state is held, so a consumer that drops
    each input before the next ``next()`` keeps one stage's input alive at
    a time; ``for aggregator, blocks in chain`` holds two."""
    x0 = np.asarray(features, dtype=float)
    extra = (x0[rows],) if injected else ()
    current, aggregator = x0, None
    while True:
        yield aggregator, (current[rows], *extra)
        aggregator, current = advance_by(current, x0)


def _training_chain(dataset: NodeDataset, spec: AggregatorSpec):
    """The stage chain a boosting driver grows: every stage draws its
    aggregator from ``spec``, and a KTA aggregator is fitted on the
    representation it advances, on the powers its output is summed from."""
    operator = base_operator(dataset.graph)
    train = dataset.split.train

    def advance_by(current, x0):
        aggregator = _aggregator(operator, spec.kind, rho=spec.rho,
                                 n_deg=spec.n_deg)
        if spec.kind != "kta":
            return aggregator, aggregator.apply(current, x0)
        y_tr = one_hot(dataset.labels[train], dataset.n_classes)
        aggregator, advanced, _ = agg_mod.fit_kta(aggregator, current, y_tr,
                                                  train, spec.alignment)
        return aggregator, advanced
    return _stage_chain(dataset.features, spec.kind == "input_injection",
                        advance_by)


def _cos(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.vdot(a, b) / (na * nb))


def _trace_row(t, dataset, score, cos_theta, fit, passed):
    """Per-stage record: losses and margin-0 errors of the updated score,
    the angle and fitted w.l.c. of the stage's contribution against the
    negative gradient taken before the update, and the L1 norm of the
    gradient at the updated score. A score vector is binary, a matrix
    multiclass."""
    y, split = dataset.labels, dataset.split
    e = errors(score, y, split)
    return {
        "t": t,
        "train_loss": e["surrogate"],
        "train_err": e["train_err"],
        "test_err": e["test_err"],
        "cos_theta": cos_theta,
        "alpha": fit.alpha if fit else float("nan"),
        "beta": fit.beta if fit else float("nan"),
        "gamma": fit.gamma if fit else float("nan"),
        "grad_l1": float(np.abs(surrogate_grad(score, y, split)).sum()),
        "wlc_pass": passed,
    }


# ---------------------------------------------------------------------------
# functional gradient boosting (binary)

def run_functional_gb(dataset: NodeDataset, cfg: BoostConfig):
    """Binary functional gradient boosting with online w.l.c. verification.

    Returns (EnsembleModel, trace rows, score): the score is yhat at t*,
    over all N nodes, bit for bit the one ``predict`` replays. The first
    stage fits the raw features and steps with eta_1 = 1; each of the
    ``n_rounds`` further stages aggregates, fits the scaled negative
    gradient, fits (alpha, beta) by ``wlc_fit``, and steps with eta = 4 /
    alpha, or with eta = 4 when no fit exists; such a stage is kept and its
    round listed in the ``wlc_failures`` flag. t* is the first stage whose
    score has the smallest train-gradient L1 norm.
    """
    if dataset.n_classes != 2:
        raise ValueError("functional boosting is binary-only")
    y = dataset.labels
    split = dataset.split
    m = split.m
    rng = np.random.default_rng(cfg.seed)
    chain = _training_chain(dataset, cfg.aggregator)
    yhat = np.zeros(dataset.n)
    stages = []
    trace = []
    flags = {}

    for t in range(1, cfg.n_rounds + 2):
        g = -surrogate_grad(yhat, y, split)
        aggregator, blocks = next(chain)
        width = sum(block.shape[1] for block in blocks)
        b_t, _ = fit_to_gradient((width, *cfg.hidden, 1),
                                 cfg.learner, blocks, m * g, split.train,
                                 seed=int(rng.integers(2 ** 31)))
        f_t = forward(b_t, *blocks)[0][:, 0]
        blocks = None  # the stage's input is not held through the next advance
        z = f_t / m
        if t == 1:
            fit, passed, eta_t = None, None, 1.0
        else:
            fit = wlc_fit(z, g)
            passed = fit is not None
            eta_t = 4.0 / fit.alpha if passed else 4.0
            if not passed:
                flags.setdefault("wlc_failures", []).append(t)
        yhat = yhat + eta_t * f_t
        stages.append(StageRecord(aggregator, b_t, eta_t, fit))
        trace.append(_trace_row(t, dataset, yhat, _cos(z, g), fit, passed))
        # min()'s rule: a later stage replaces t* only when strictly smaller
        if t == 1 or trace[-1]["grad_l1"] < trace[t_star - 1]["grad_l1"]:
            t_star, score = t, yhat

    model = EnsembleModel(mode="functional", n_classes=2, stages=stages,
                          t_star=t_star, aggregator_kind=cfg.aggregator.kind,
                          flags=flags)
    return model, trace, score


# ---------------------------------------------------------------------------
# SAMME (multiclass)

def run_samme(dataset: NodeDataset, cfg: BoostConfig):
    """Multiclass boosting with hard class votes: model weight
    lambda_t = log((1-e_t)/e_t) + log(K-1), multiplicative reweighting.
    A weak learner with weighted error >= 1 - 1/K is retrained once on what
    its input's leading direction leaves (``fit_classifier``'s deflate); a
    retry that also fails is kept with lambda = 0, the weight SAMME gives a
    learner at chance, leaves the sample weights alone, and its round is
    listed in ``flags["skipped"]``. Returns (EnsembleModel, trace rows,
    score): the vote score after the last stage over all N nodes, bit for
    bit the one ``predict`` replays."""
    y = dataset.labels
    split = dataset.split
    k = dataset.n_classes
    if k < 2:
        raise ValueError("need at least two classes")
    rng = np.random.default_rng(cfg.seed)
    chain = _training_chain(dataset, cfg.aggregator)

    weights = np.zeros(dataset.n)
    weights[split.train] = 1.0 / split.m
    score = np.zeros((dataset.n, k))
    stages = []
    trace = []
    flags = {}

    for t in range(1, cfg.n_rounds + 1):
        aggregator, blocks = next(chain)
        width = sum(block.shape[1] for block in blocks)
        for attempt in range(2):
            b_t, werr = fit_classifier(
                (width, *cfg.hidden, k), cfg.learner, blocks, y,
                weights, split.train,
                seed=int(rng.integers(2 ** 31)) + attempt,
                deflate=bool(attempt))
            rejected = werr >= 1.0 - 1.0 / k
            if not rejected:
                break
        pred = np.argmax(forward(b_t, *blocks)[0], axis=1)
        blocks = None  # the stage's input is not held through the next advance
        g = -surrogate_grad(score, y, split)
        if rejected:
            flags.setdefault("skipped", []).append(t)
            weight = 0.0
        else:
            weight = samme_model_weight(werr, k)
            bad = pred[split.train] != y[split.train]
            weights[split.train] *= np.exp(weight * bad)
            weights /= weights.sum()
        contrib = weight * one_hot(pred, k)
        score = score + contrib
        fit = (wlc_fit((contrib / split.m).ravel(), g.ravel())
               if np.any(g) else None)
        stages.append(StageRecord(aggregator, b_t, weight, fit))
        trace.append(_trace_row(t, dataset, score, _cos(contrib, g), fit,
                                fit is not None))

    if len(flags.get("skipped", ())) == len(stages):
        raise AllRoundsRejected(
            "no weak learner beat chance in any round; nothing to predict "
            "with")
    model = EnsembleModel(mode="samme", n_classes=k, stages=stages,
                          aggregator_kind=cfg.aggregator.kind, flags=flags)
    return model, trace, score


# ---------------------------------------------------------------------------
# replay / prediction

def stage_inputs(model: EnsembleModel, dataset: NodeDataset,
                 rows=slice(None)):
    """Yield every stage's learner input (the aggregated features the
    transformation function saw, as the tuple of column blocks
    ``_stage_chain`` gives), restricted to ``rows``, in stage order: the
    model's aggregators drive the chain the trainers grew, and each input
    is handed on without being held."""
    aggregators = (st.aggregator for st in model.stages[1:])

    def advance_by(current, x0):
        aggregator = next(aggregators)
        return aggregator, aggregator.apply(current, x0)
    chain = _stage_chain(dataset.features,
                         model.aggregator_kind == "input_injection",
                         advance_by, rows)
    for _ in model.stages:
        yield next(chain)[1]


def stage_representations(model: EnsembleModel, dataset: NodeDataset,
                          rows=slice(None)):
    """Learner-input blocks at every stage, restricted to ``rows``."""
    return list(stage_inputs(model, dataset, rows))


def _vote(model: EnsembleModel, weight, out, soft=False):
    """One stage's term of the score from its raw learner output ``out``:
    eta f for functional, and lambda times the argmax vote for SAMME (the
    softmax vote when ``soft``, the differentiable head fine-tuning trains
    through)."""
    if model.mode == "functional":
        return weight * out[:, 0]
    return weight * (softmax(out) if soft else
                     one_hot(np.argmax(out, axis=1), model.n_classes))


def _vote_grad(model: EnsembleModel, weight, out, dscore):
    """Gradient in ``out`` of <dscore, _vote(model, weight, out, True)>."""
    if model.mode == "functional":
        return weight * dscore[:, None]
    p = softmax(out)
    return weight * p * (dscore - (dscore * p).sum(axis=1, keepdims=True))


def _stack_scores(model: EnsembleModel, inputs, soft=False, caches=None):
    """The one forward pass over the stage stack, on the rows of the
    per-stage learner inputs ``inputs`` (a list or a ``stage_inputs``
    stream of block tuples): returns (running score by stage, raw learner
    outputs). Each ``_vote`` (softmax when ``soft``) adds onto a score of
    zeros sized from the first input, as the drivers' scores start, so a
    first stage of weight 0 scores zeros. A ``caches`` list gets each
    stage's forward cache, which holds its input; otherwise each input is
    released before the next is drawn, which a ``zip`` would not do."""
    scores, outputs = [], []
    for blocks in inputs:
        stage = model.stages[len(outputs)]
        if not outputs:
            n = len(blocks[0])
            score = np.zeros(n if model.mode == "functional"
                             else (n, model.n_classes))
        out, cache = forward(stage.learner, *blocks)
        score = score + _vote(model, stage.weight, out, soft)
        scores.append(score)
        outputs.append(out)
        if caches is not None:
            caches.append(cache)
        del blocks, cache
    return scores, outputs


def replay_scores(model: EnsembleModel, dataset: NodeDataset, reps=None):
    """Score trajectory by stage: functional gives the running sum of
    eta_s f_s, SAMME the running vote score. ``reps`` (from
    ``stage_representations`` with ``rows``) scores those rows instead of
    the whole graph; without it the stage chain is streamed and no stage
    input is kept (see ``_stack_scores``)."""
    return _stack_scores(model, stage_inputs(model, dataset)
                         if reps is None else reps)[0]


def predict(model: EnsembleModel, dataset: NodeDataset, reps=None):
    """Deterministic prediction; argmax ties break toward the lowest index.

    Returns (score vector/matrix, class ids), on the rows of ``reps`` when
    given (see ``replay_scores``).
    """
    scores = replay_scores(model, dataset, reps)
    final = scores[(model.t_star or len(scores)) - 1]  # t* is functional's
    return final, classes_of(model, final)


def classes_of(model: EnsembleModel, score):
    """Class ids of a final score: its sign for functional models, and the
    argmax (ties toward the lowest index) for SAMME."""
    if model.mode == "functional":
        return (score > 0.0).astype(np.int64)
    return np.argmax(score, axis=1)


# ---------------------------------------------------------------------------
# fine-tuning (end-to-end, manual backprop through the whole stack)
#
# The loss reads the train rows only and every learner is row-wise, so the
# learners run on the train rows. Chains without learnable aggregation keep
# their train and validation rows from one replay; KTA chains are replayed
# after every step, and their pullback runs on full-length arrays.

@dataclass
class FineTuneConfig:
    """``epochs`` full-batch Adam steps of the whole stack."""

    epochs: int = 50
    lr: float = 1e-3
    weight_decay: float = 0.0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        check_step(self.lr, self.weight_decay)


def _stack_replay(model, dataset, rows):
    """One replay of the stage chain: every stage's learner input on
    ``rows`` and, for chains with learnable aggregation, the full-length
    representations the pullback pairs with (a KTA input is the one block
    of its representation), else None."""
    if model.aggregator_kind != "kta":
        return stage_representations(model, dataset, rows), None
    chain = [rep for rep, in stage_representations(model, dataset)]
    return [(rep[rows],) for rep in chain], chain


def _stack_gradients(model, dataset, dscore, caches, logits_list,
                     chain=None):
    """Exact gradients of the train loss w.r.t. every MLP weight and, given
    the full-length ``chain``, every learnable aggregation weight.

    ``dscore``, ``caches`` and ``logits_list`` cover the train rows in the
    order of ``dataset.split.train``. Returns (per-stage MLP gradients,
    {stage: KTA weight gradient}).
    """
    mlp_grads, dxs = [], []
    for stage, cache, out in zip(model.stages, caches, logits_list):
        grads, dx = backward(
            stage.learner, cache, _vote_grad(model, stage.weight, out, dscore),
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
        d[train] += dxs[s]
        aggregator = model.stages[s].aggregator
        if s == 1:  # the first aggregator's adjoint reaches no weight
            kta_grads[s] = aggregator.coef_grad(d, chain[0])
        else:
            d, kta_grads[s] = aggregator.pullback(d, chain[s - 1])
    return mlp_grads, kta_grads


def fine_tune(model: EnsembleModel, dataset: NodeDataset,
              cfg: FineTuneConfig):
    """End-to-end full-batch Adam training of the stacked composition.

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

    work = replace(model, flags=dict(model.flags), stages=[
        replace(st, learner=st.learner.copy()) for st in model.stages])
    kta_ids = (range(1, len(work.stages)) if work.aggregator_kind == "kta"
               else ())
    for s in kta_ids:
        # the copied KTA coefficient arrays are trained in place
        agg = work.stages[s].aggregator
        work.stages[s].aggregator = replace(agg, coefs=agg.coefs.astype(float))
    params = [w for st in work.stages for w in st.learner.weights]
    params += [work.stages[s].aggregator.coefs for s in kta_ids]
    opt = _Adam(cfg.lr, cfg.weight_decay, [p.shape for p in params])

    for _ in range(cfg.epochs):
        caches = []
        scores, logits_list = _stack_scores(
            work, [tuple(b[:m] for b in blocks) for blocks in inputs],
            soft=True, caches=caches)
        loss, dscore = surrogate(scores[-1], y_rows[:m])
        if not np.isfinite(loss):
            flags = {**model.flags, "fine_tune_diverged": True}
            return (replace(model, stages=list(model.stages), flags=flags),
                    report(before))
        mlp_grads, kta_grads = _stack_gradients(work, dataset, dscore,
                                                caches, logits_list, chain)
        opt.step(params, [g for gs in mlp_grads for g in gs]
                 + [kta_grads[s] for s in kta_ids])
        if kta_ids:
            # the old chain is let go before the replay builds the new one
            inputs = chain = caches = None
            inputs, chain = _stack_replay(work, dataset, rows)

    return work, report(eval_errors(work, inputs))


# ---------------------------------------------------------------------------
# serialization

def _aggregator_to_json(aggregator, kind):
    if aggregator is None:
        return None
    if kind == "fixed":
        return {"kind": kind}
    if kind == "input_injection":
        return {"kind": kind, "rho": aggregator.coefs[0]}
    if kind == "kta":
        return {"kind": kind, "weights": aggregator.coefs.tolist(),
                "n_deg": len(aggregator.powers) - 2}
    raise ValueError(f"unknown aggregator kind {kind}")


def _encode_weight(w):
    return base64.b64encode(np.asarray(w, dtype="<f8").tobytes()).decode()


def _decode_weight(text, shape):
    raw = base64.b64decode(text, validate=True)
    if len(raw) != 8 * math.prod(shape):
        raise ValueError(f"a weight of shape {shape} needs "
                         f"{8 * math.prod(shape)} bytes, found {len(raw)}")
    # astype copies into a writable, native-order array
    return np.frombuffer(raw, dtype="<f8").astype(float).reshape(shape)


def model_to_json(model: EnsembleModel) -> dict:
    """JSON manifest: format version, mode, K, t*, per-stage aggregator
    params, learner weights (base64 of row-major little-endian float64
    bytes) with their shapes, and the eta/lambda sequence. The constant
    keys ``"base": "augmented"`` and ``"clip": 1e-07`` (``DEFAULT_CLIP``),
    and each learner's ``"activation": "relu"`` (with no bias), name the
    one model this release builds; the reader refuses any other."""
    return {
        "format_version": FORMAT_VERSION,
        "mode": model.mode,
        "n_classes": model.n_classes,
        "t_star": model.t_star,
        "base": "augmented",
        "aggregator_kind": model.aggregator_kind,
        "clip": DEFAULT_CLIP,
        "flags": model.flags,
        "stages": [
            {
                "aggregator": _aggregator_to_json(st.aggregator,
                                                  model.aggregator_kind),
                "weight": st.weight,
                "wlc": ({"alpha": st.wlc.alpha, "beta": st.wlc.beta}
                        if st.wlc else None),
                "learner": {
                    "shapes": [list(w.shape) for w in st.learner.weights],
                    "weights": [_encode_weight(w)
                                for w in st.learner.weights],
                    "activation": "relu",
                },
            }
            for st in model.stages
        ],
    }


def _is_number(value, kind=numbers.Real):
    """Whether ``value`` is an instance of ``kind``; a bool never is."""
    return isinstance(value, kind) and not isinstance(value, bool)


def model_from_json(blob: dict, graph, operator=None) -> EnsembleModel:
    """Read a format-version-3 manifest, its aggregators over ``operator``,
    which is ``base_operator(graph)`` when None. A missing or other
    ``format_version`` (version-2 learners had a bias row), a mode other
    than functional or SAMME, another base or clip, fewer than two classes,
    a functional model of other than two, no stage, a stage weight that is
    not a finite number >= 0, a t* that is not a stage index (functional)
    or not null (SAMME), an unknown ``aggregator_kind``, flags that are not
    an object or hold a flag other than a true ``fine_tune_diverged`` or a
    non-empty, strictly ascending list of the rounds that a run lists in
    ``skipped`` (SAMME) or ``wlc_failures`` (functional), an
    aggregator on the first stage or a missing one on a later stage, a
    stage aggregator of another kind than ``aggregator_kind`` or with
    parameters its family refuses (a bool, or a KTA ``n_deg`` outside
    0..``MAX_N_DEG``), a wlc other than null or finite numbers alpha and
    beta, a KTA aggregator or learner weight that is not finite, or a
    learner that is not an object, has another activation, whose weight
    shapes do not chain as matrices, or whose output width is not 1
    (functional) or n_classes (SAMME), raises ValueError naming the field
    and, for a stage's field, the stage."""
    version = blob.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"model format_version {version!r}: only "
                         f"{FORMAT_VERSION} is read")
    mode = blob["mode"]
    if mode not in ("functional", "samme"):
        raise ValueError(f"mode {mode!r}: only 'functional' or 'samme' is "
                         "read")
    if (blob["base"], blob["clip"]) != ("augmented", DEFAULT_CLIP):
        raise ValueError(
            f"base {blob['base']!r} with clip {blob['clip']!r}: only "
            f"'augmented' with clip {DEFAULT_CLIP!r} is read")
    k, t_star, blob_stages = blob["n_classes"], blob["t_star"], blob["stages"]
    if not (_is_number(k, numbers.Integral) and k >= 2):
        raise ValueError(f"n_classes {k!r}: not an integer >= 2")
    if mode == "functional" and k != 2:
        raise ValueError(f"n_classes {k!r}: a functional model scores 2")
    out_width = 1 if mode == "functional" else k
    if not (isinstance(blob_stages, list) and blob_stages):
        raise ValueError("stages: not a non-empty list")
    if mode == "samme" and t_star is not None:
        raise ValueError(f"t_star {t_star!r}: a samme model has none")
    if mode == "functional" and not (_is_number(t_star, numbers.Integral)
                                     and 1 <= t_star <= len(blob_stages)):
        raise ValueError(f"t_star {t_star!r}: not a stage index")
    kind, flags = blob["aggregator_kind"], blob.get("flags", {})
    if kind not in ("fixed", "input_injection", "kta"):
        raise ValueError(f"aggregator_kind {kind!r}: not 'fixed', "
                         "'input_injection' or 'kta'")
    if not isinstance(flags, dict):
        raise ValueError(f"flags {flags!r}: not an object")
    if operator is None:
        operator = base_operator(graph)
    stages = []
    for idx, st in enumerate(blob_stages):
        weight = st["weight"]
        if not (_is_number(weight) and math.isfinite(weight) and weight >= 0):
            raise ValueError(f"stage {idx + 1} weight {weight!r}: not a "
                             "finite number >= 0")
        agg = st["aggregator"]
        if idx == 0 and agg is not None:
            raise ValueError(f"stage 1 aggregator {agg!r}: the first stage "
                             "reads the features as they are")
        if idx > 0 and not (isinstance(agg, dict) and agg.get("kind") == kind):
            raise ValueError(f"stage {idx + 1} aggregator {agg!r}: not one "
                             f"of aggregator_kind {kind!r}")
        lrn = st["learner"]
        if not isinstance(lrn, dict):
            raise ValueError(f"stage {idx + 1} learner {lrn!r}: not an "
                             "object")
        shapes = lrn["shapes"]
        weights = [_decode_weight(w, shape)
                   for w, shape in zip(lrn["weights"], shapes)]
        if not (0 < len(shapes) == len(lrn["weights"])
                and all(w.ndim == 2 for w in weights)
                and all(a.shape[1] == b.shape[0]
                        for a, b in zip(weights, weights[1:]))):
            raise ValueError(f"stage {idx + 1} learner shapes {shapes!r}: "
                             "not a chain of matrices")
        if weights[-1].shape[1] != out_width:
            raise ValueError(
                f"stage {idx + 1} learner output width "
                f"{weights[-1].shape[1]}: a {mode} model with n_classes {k} "
                f"needs {out_width}")
        if not all(np.isfinite(w).all() for w in weights):
            raise ValueError(f"stage {idx + 1} learner weights: not all "
                             "finite")
        if lrn["activation"] != "relu":
            raise ValueError(f"stage {idx + 1} learner activation "
                             f"{lrn['activation']!r}: only 'relu' is read")
        wlc = st["wlc"]
        if wlc is not None and not (isinstance(wlc, dict) and all(
                _is_number(wlc.get(k)) and math.isfinite(wlc[k])
                for k in ("alpha", "beta"))):
            raise ValueError(f"stage {idx + 1} wlc {wlc!r}: not null or "
                             "finite numbers alpha and beta")
        try:
            aggregator = None if agg is None else _aggregator(operator, **agg)
        except ValueError as exc:
            raise ValueError(f"stage {idx + 1} aggregator: {exc}") from exc
        if aggregator is not None and not np.isfinite(aggregator.coefs).all():
            raise ValueError(f"stage {idx + 1} aggregator weights: not all "
                             "finite")
        stages.append(StageRecord(
            aggregator, MlpParams(weights=weights), weight,
            None if wlc is None else WlcParams(**wlc)))
    listed = "skipped" if mode == "samme" else "wlc_failures"
    rounds = [t for t, st in enumerate(stages, 1)
              if (st.weight == 0.0 if mode == "samme"
                  else t > 1 and st.wlc is None)]
    for key, value in flags.items():
        if not ((value is True) if key == "fine_tune_diverged" else
                key == listed and isinstance(value, list) and value
                and all(_is_number(t, numbers.Integral) for t in value)
                and value == [t for t in rounds if t in value]):
            raise ValueError(f"flags {key!r} {value!r}: no {mode} run "
                             "writes it")
    return EnsembleModel(mode=mode, n_classes=k, stages=stages,
                         t_star=t_star, aggregator_kind=kind, flags=flags)


def save_model(model, path):
    # one json.dumps call takes the C encoder; json.dump streams through
    # the pure-Python one
    with open(path, "w") as fh:
        fh.write(json.dumps(model_to_json(model)))


def load_model(path, graph, operator=None):
    with open(path) as fh:
        return model_from_json(json.load(fh), graph, operator)


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
    """Rows of a trace written by ``write_trace_csv``; a header without
    every ``TRACE_COLUMNS`` column, a row whose field count differs from
    the header's, or a value that does not parse raises ValueError."""
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        missing = [col for col in TRACE_COLUMNS if col not in header]
        if missing:
            raise ValueError(f"header lacks columns {missing}")
        for line in fh:
            parts = line.rstrip("\n").split(",")
            if len(parts) != len(header):
                raise ValueError(f"a row has {len(parts)} fields, the "
                                 f"header {len(header)}")
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
