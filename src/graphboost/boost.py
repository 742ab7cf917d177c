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
FORMAT_VERSION = 2

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
    learner: MlpParams | None      # None marks a skipped round
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
class FunctionalGBConfig:
    n_rounds: int = 10             # the loop runs n_rounds times (t=2..T+1)
    hidden: tuple = (64,)
    learner: TrainConfig = field(default_factory=TrainConfig)
    aggregator: AggregatorSpec = field(default_factory=AggregatorSpec)
    delta: float = 0.0
    seed: int = 0


@dataclass
class SammeConfig:
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
    no aggregator; ``advance_by(current)`` gives the aggregator that
    advances the current representation. Input injection carries the raw
    features alongside. Only the chain state is held, so a consumer that
    drops each input before the next ``next()`` keeps one stage's input
    alive at a time; ``for aggregator, rep in chain`` holds two."""
    x0 = np.asarray(features, dtype=float)
    current, aggregator = x0, None
    while True:
        yield aggregator, (np.hstack([current[rows], x0[rows]]) if injected
                           else current[rows])
        aggregator = advance_by(current)
        current = aggregator.apply(current, x0)


def _training_chain(dataset: NodeDataset, spec: AggregatorSpec):
    """The stage chain a boosting driver grows: every stage draws its
    aggregator from ``spec``, and a KTA aggregator is fitted on the
    representation it advances."""
    operator = base_operator(dataset.graph)
    train = dataset.split.train

    def advance_by(current):
        aggregator = _aggregator(operator, spec.kind, rho=spec.rho,
                                 n_deg=spec.n_deg)
        if spec.kind == "kta":
            y_tr = one_hot(dataset.labels[train], dataset.n_classes)
            aggregator, _ = agg_mod.fit_kta(aggregator, current, y_tr, train,
                                            spec.alignment)
        return aggregator
    return _stage_chain(dataset.features, spec.kind == "input_injection",
                        advance_by)


def _cos(a, b):
    na, nb = np.linalg.norm(a), np.linalg.norm(b)
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.vdot(a, b) / (na * nb))


def _trace_row(t, dataset, score, cos_theta, fit, passed, delta=0.0):
    """Per-stage record: losses and errors of the updated score, the angle
    and fitted w.l.c. of the stage's contribution against the negative
    gradient taken before the update, and the L1 norm of the gradient at
    the updated score. A score vector is binary, a matrix multiclass."""
    y, split = dataset.labels, dataset.split
    e = errors(score, y, split, delta=delta)
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

def run_functional_gb(dataset: NodeDataset, cfg: FunctionalGBConfig):
    """Binary functional gradient boosting with online w.l.c. verification.

    Returns (EnsembleModel, trace rows). The first stage fits the raw
    features and steps with eta_1 = 1; each of the ``n_rounds`` further
    stages aggregates, fits the scaled negative gradient, fits (alpha, beta)
    by ``wlc_fit``, and steps with eta = 4 / alpha, or with eta = 4 when no
    fit exists; such a stage is kept and its round listed in the
    ``wlc_failures`` flag. t* is the stage whose score has the smallest
    train-gradient L1 norm.
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
        aggregator, rep = next(chain)
        b_t, _ = fit_to_gradient((rep.shape[1], *cfg.hidden, 1), cfg.learner,
                                 rep, m * g, split.train,
                                 seed=int(rng.integers(2 ** 31)))
        f_t = forward(b_t, rep)[0][:, 0]
        rep = None  # the stage's input is not held through the next advance
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
        trace.append(_trace_row(t, dataset, yhat, _cos(z, g), fit, passed,
                                cfg.delta))

    t_star = min(trace, key=lambda r: r["grad_l1"])["t"]

    model = EnsembleModel(mode="functional", n_classes=2, stages=stages,
                          t_star=t_star, aggregator_kind=cfg.aggregator.kind,
                          flags=flags)
    return model, trace


# ---------------------------------------------------------------------------
# SAMME (multiclass)

def run_samme(dataset: NodeDataset, cfg: SammeConfig):
    """Multiclass boosting with hard class votes: model weight
    lambda_t = log((1-e_t)/e_t) + log(K-1), multiplicative reweighting.
    A weak learner with weighted error >= 1 - 1/K is retrained once; a
    second failure records a zero-weight placeholder stage, lists the round
    in ``flags["skipped"]`` and boosting goes on."""
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
        aggregator, rep = next(chain)
        for attempt in range(2):
            b_t, werr = fit_classifier(
                (rep.shape[1], *cfg.hidden, k), cfg.learner, rep, y, weights,
                split.train, seed=int(rng.integers(2 ** 31)) + attempt)
            if werr < 1.0 - 1.0 / k:
                break
        rejected = werr >= 1.0 - 1.0 / k
        logits = None if rejected else forward(b_t, rep)[0]
        rep = None  # the stage's input is not held through the next advance
        g = -surrogate_grad(score, y, split)
        if rejected:
            # rejected twice: this round contributes no member, but the
            # representation already advanced, so record a placeholder
            flags.setdefault("skipped", []).append(t)
            b_t, weight = None, 0.0
            contrib = np.zeros_like(score)
        else:
            weight = samme_model_weight(werr, k)
            pred = np.argmax(logits, axis=1)
            contrib = weight * one_hot(pred, k)
            bad = pred[split.train] != y[split.train]
            weights[split.train] *= np.exp(weight * bad)
            weights /= weights.sum()
            score = score + contrib
        fit = (wlc_fit((contrib / split.m).ravel(), g.ravel())
               if np.any(g) else None)
        stages.append(StageRecord(aggregator, b_t, weight, fit))
        trace.append(_trace_row(t, dataset, score, _cos(contrib, g), fit,
                                fit is not None))

    if not any(st.learner is not None for st in stages):
        raise AllRoundsRejected(
            "no weak learner beat chance in any round; nothing to predict "
            "with")
    model = EnsembleModel(mode="samme", n_classes=k, stages=stages,
                          aggregator_kind=cfg.aggregator.kind, flags=flags)
    return model, trace


# ---------------------------------------------------------------------------
# replay / prediction

def stage_inputs(model: EnsembleModel, dataset: NodeDataset,
                 rows=slice(None)):
    """Yield every stage's learner input (the aggregated features the
    transformation function saw), restricted to ``rows``, in stage order:
    the model's aggregators drive the chain the trainers grew, and each
    input is handed on without being held (see ``_stage_chain``)."""
    aggregators = (st.aggregator for st in model.stages[1:])
    chain = _stage_chain(dataset.features,
                         model.aggregator_kind == "input_injection",
                         lambda _: next(aggregators), rows)
    for _ in model.stages:
        yield next(chain)[1]


def stage_representations(model: EnsembleModel, dataset: NodeDataset,
                          rows=slice(None)):
    """Learner-input matrix at every stage, restricted to ``rows``."""
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
    stream): returns (running score by stage, raw learner outputs, None at
    a skipped stage). Each ``_vote`` (softmax when ``soft``) adds onto a
    score sized from the first input, so a skipped first stage scores
    zeros. A ``caches`` list gets each stage's forward cache (None when
    skipped), which holds its input; otherwise each input is released
    before the next is drawn, which a ``zip`` would not do."""
    scores, outputs = [], []
    for rep in inputs:
        stage = model.stages[len(outputs)]
        if not outputs:
            score = np.zeros(len(rep) if model.mode == "functional"
                             else (len(rep), model.n_classes))
        out = cache = None
        if stage.learner is not None:
            out, cache = forward(stage.learner, rep)
            score = score + _vote(model, stage.weight, out, soft)
        scores.append(score)
        outputs.append(out)
        if caches is not None:
            caches.append(cache)
        del rep, cache
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
    learner inputs (KTA chains carry no injected channels, so these are the
    representations the pullback pairs with), else None."""
    if model.aggregator_kind != "kta":
        return stage_representations(model, dataset, rows), None
    chain = stage_representations(model, dataset)
    return [rep[rows] for rep in chain], chain


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
        grads, dx = ((None, None) if stage.learner is None else backward(
            stage.learner, cache, _vote_grad(model, stage.weight, out, dscore),
            input_grad=chain is not None))
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
        replace(st, learner=st.learner.copy() if st.learner else None)
        for st in model.stages])
    kta_ids = (range(1, len(work.stages)) if work.aggregator_kind == "kta"
               else ())
    for s in kta_ids:
        # the copied KTA coefficient arrays are trained in place
        agg = work.stages[s].aggregator
        work.stages[s].aggregator = replace(agg, coefs=agg.coefs.astype(float))
    params = [w for st in work.stages if st.learner
              for w in st.learner.weights]
    params += [work.stages[s].aggregator.coefs for s in kta_ids]
    opt = _Adam(cfg.lr, cfg.weight_decay, [p.shape for p in params])

    for _ in range(cfg.epochs):
        caches = []
        scores, logits_list = _stack_scores(work, [x[:m] for x in inputs],
                                            soft=True, caches=caches)
        loss, dscore = surrogate(scores[-1], y_rows[:m])
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
    and each learner's ``"activation": "relu"`` and ``"bias": true``, name
    the one model this release builds; the reader refuses any other."""
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
                "learner": None if st.learner is None else {
                    "shapes": [list(w.shape) for w in st.learner.weights],
                    "weights": [_encode_weight(w)
                                for w in st.learner.weights],
                    "activation": "relu",
                    "bias": True,
                },
            }
            for st in model.stages
        ],
    }


def _is_number(value, kind=numbers.Real):
    """Whether ``value`` is an instance of ``kind``; a bool never is."""
    return isinstance(value, kind) and not isinstance(value, bool)


def model_from_json(blob: dict, graph, operator=None) -> EnsembleModel:
    """Read a format-version-2 manifest, its aggregators over ``operator``,
    which is ``base_operator(graph)`` when None. A missing or other
    ``format_version``, a mode other than functional or SAMME, another base
    or clip, fewer than two classes, no stage, a stage weight that is not a
    finite number, a t* that is not a stage index, an unknown
    ``aggregator_kind``, flags that are not an object, an aggregator on the
    first stage or a missing one on a later stage, a stage aggregator of
    another kind than ``aggregator_kind``, a KTA aggregator weight, a wlc
    alpha or beta, or a learner weight that is not finite, or a learner
    with another activation, without a bias, or whose weight shapes do not
    chain as matrices, raises ValueError naming the field."""
    version = blob.get("format_version")
    if version != FORMAT_VERSION:
        raise ValueError(f"model format_version {version!r}: only "
                         f"{FORMAT_VERSION} is read")
    if blob["mode"] not in ("functional", "samme"):
        raise ValueError(f"mode {blob['mode']!r}: only 'functional' or "
                         "'samme' is read")
    if (blob["base"], blob["clip"]) != ("augmented", DEFAULT_CLIP):
        raise ValueError(
            f"base {blob['base']!r} with clip {blob['clip']!r}: only "
            f"'augmented' with clip {DEFAULT_CLIP!r} is read")
    k, t_star, blob_stages = blob["n_classes"], blob["t_star"], blob["stages"]
    if not (_is_number(k, numbers.Integral) and k >= 2):
        raise ValueError(f"n_classes {k!r}: not an integer >= 2")
    if not (isinstance(blob_stages, list) and blob_stages):
        raise ValueError("stages: not a non-empty list")
    if t_star is not None and not (_is_number(t_star, numbers.Integral)
                                   and 1 <= t_star <= len(blob_stages)):
        raise ValueError(f"t_star {t_star!r}: not null or a stage index")
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
        if not (_is_number(weight) and math.isfinite(weight)):
            raise ValueError(f"stage weight {weight!r}: not a finite number")
        agg = st["aggregator"]
        if idx == 0 and agg is not None:
            raise ValueError(f"stage 1 aggregator {agg!r}: the first stage "
                             "reads the features as they are")
        if idx > 0 and not (isinstance(agg, dict) and agg.get("kind") == kind):
            raise ValueError(f"stage {idx + 1} aggregator {agg!r}: not one "
                             f"of aggregator_kind {kind!r}")
        lrn = st["learner"]
        if lrn is None:
            params = None
        else:
            shapes = lrn["shapes"]
            weights = [_decode_weight(w, shape)
                       for w, shape in zip(lrn["weights"], shapes)]
            if not (0 < len(shapes) == len(lrn["weights"])
                    and all(w.ndim == 2 for w in weights)
                    and all(a.shape[1] == b.shape[0]
                            for a, b in zip(weights, weights[1:]))):
                raise ValueError(f"learner shapes {shapes!r}: not a chain "
                                 "of matrices")
            if not all(np.isfinite(w).all() for w in weights):
                raise ValueError(f"stage {idx + 1} learner weights: not all "
                                 "finite")
            if (lrn["activation"], lrn["bias"]) != ("relu", True):
                raise ValueError(
                    f"learner activation {lrn['activation']!r} with bias "
                    f"{lrn['bias']!r}: only 'relu' with bias true is read")
            params = MlpParams(weights=weights)
        wlc = st["wlc"]
        if wlc and not (math.isfinite(wlc["alpha"])
                        and math.isfinite(wlc["beta"])):
            raise ValueError(f"stage {idx + 1} wlc {wlc!r}: alpha and beta "
                             "not both finite")
        aggregator = None if agg is None else _aggregator(operator, **agg)
        if aggregator is not None and not np.isfinite(aggregator.coefs).all():
            raise ValueError(f"stage {idx + 1} aggregator weights: not all "
                             "finite")
        stages.append(StageRecord(aggregator, params, weight,
                                  WlcParams(**wlc) if wlc else None))
    return EnsembleModel(mode=blob["mode"], n_classes=k, stages=stages,
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
