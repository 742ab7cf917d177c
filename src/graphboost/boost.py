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
from .losses import (DEFAULT_CLIP, class_ids, errors, softmax, surrogate,
                     surrogate_grad)
from .mlp import (MlpParams, TrainConfig, _Adam, backward, check_step,
                  fit_classifier, fit_to_gradient, forward, resume)

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


def _stage_chain(features, injected, advance_by):
    """The one walk of the stage chain, for training and replay: yields
    (aggregator, learner input) stage by stage, the first with no
    aggregator; ``advance_by(current, x0)`` gives the aggregator that
    advances the current representation and the representation it advances
    to. A learner input is a tuple of column blocks (see ``mlp.forward``):
    ``(current,)``, or ``(current, x0)`` under input injection, whose raw
    features, the features array itself, ride along unconcatenated. Only
    the chain state is held, so a consumer that drops each input before the
    next ``next()`` keeps one stage's input alive at a time; ``for
    aggregator, blocks in chain`` holds two."""
    x0 = np.asarray(features, dtype=float)
    extra = (x0,) if injected else ()
    current, aggregator = x0, None
    while True:
        yield aggregator, (current, *extra)
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
    over all N nodes, with the classes ``predict`` gives; its values are
    ``predict``'s bit for bit while the replay is dense, and to rounding
    past the stage where it turns to the learners' width (see
    ``replay_scores``). The first
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
    score): the vote score after the last stage over all N nodes, with the
    classes ``predict`` gives; its values are ``predict``'s bit for bit
    while the replay is dense, and to rounding past the stage where it
    turns to the learners' width (see ``replay_scores``)."""
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

# the share of the feature width C up to which the summed W^(1) widths k of
# a run of learners are carried in place of C columns, by the learner-width
# walk (``_learner_width_inputs``, which predict and a KTA fine-tune epoch
# run) and fine-tuning's adjoint (``_stack_gradients``), both from the
# stage ``_switch_stage`` gives; the measured crossover of one stage's
# factored pullback, its x G product included, and the dense one: k
# between 0.5 C and 0.55 C on the Cora shape (N 2,708, C 1,433) and near
# 0.6 C on the PubMed shape (N 19,717, C 500), one BLAS thread on a 2-core
# machine
FACTORED_SHARE = 0.5


def stage_inputs(model: EnsembleModel, dataset: NodeDataset,
                 rows=slice(None)):
    """Yield every stage's learner input (the aggregated features the
    transformation function saw, as the tuple of column blocks
    ``_stage_chain`` gives), restricted to ``rows``, in stage order: the
    model's aggregators drive the chain the trainers grew, and each input
    is handed on without being held.

    Each stage is computed only on its receptive field, the rows the later
    stages read. Backward from ``rows``, every product of P reads the rows
    it is taken on and their neighbours (``PropagationMatrix.reach``), so
    a stage of top power p reads the p-hop neighbourhood of its output
    rows. Once a row set covers the graph, it and every earlier one is the
    whole graph, and on all rows every set is. Each input row is the
    whole-graph walk's bit for bit."""
    aggregators = [st.aggregator for st in model.stages[1:]]
    ids = np.arange(dataset.n)[rows]
    # hops[j]: the sorted rows the j-th product of P is taken on, None for
    # every row, built backward from the rows asked for
    last = np.unique(ids)
    hops = [None if len(last) == dataset.n else last]
    for aggregator in reversed(aggregators):
        for _ in range(aggregator.powers[-1]):
            hops.append(None if hops[-1] is None
                        else aggregator.operator.reach(hops[-1]))
    hops[-1] = None  # the first product reads the features, on every row
    hops.reverse()
    # stage t's representation is on hops[ends[t]]
    ends = np.cumsum([0] + [a.powers[-1] for a in aggregators])
    steps = iter([(a, None if hops[end] is None else hops[start:end + 1])
                  for a, start, end in zip(aggregators, ends, ends[1:])])

    def advance_by(current, x0):
        aggregator, field = next(steps)
        return aggregator, aggregator.apply(current, x0, field)
    chain = _stage_chain(dataset.features,
                         model.aggregator_kind == "input_injection",
                         advance_by)
    _, (x0, *extra) = next(chain)
    extra = tuple(block[rows] for block in extra)
    yield (x0[rows], *extra)
    for end in ends[1:]:
        current = next(chain)[1][0]
        yield (current[rows if hops[end] is None
                       else np.searchsorted(hops[end], ids)], *extra)


def stage_representations(model: EnsembleModel, dataset: NodeDataset,
                          rows=slice(None)):
    """Learner-input blocks at every stage, restricted to ``rows``, from
    ``stage_inputs``'s walk of the receptive field of ``rows``."""
    return list(stage_inputs(model, dataset, rows))


def _switch_stage(stages, c):
    """The first stage whose later learners' W^(1) widths sum to k <=
    FACTORED_SHARE * c: the learner-width walk is dense through it, and
    fine-tuning's adjoint is factored above it."""
    widths = [st.learner.weights[0].shape[1] for st in stages]
    return next(s for s in range(len(stages))
                if sum(widths[s + 1:]) <= FACTORED_SHARE * c)


def _learner_width_inputs(model: EnsembleModel, dataset: NodeDataset,
                          rows=slice(None), chain=None):
    """Every stage's learner input on ``rows``, for ``_stack_scores``: the
    blocks of ``stage_inputs`` up to and including the switch stage s
    (``_switch_stage``), then each later stage's W^(1) output. The
    representation at s is multiplied once by G = [W^(1)[:C] of every
    later stage], and only those k columns are propagated from there, on
    all rows; each stage reads its h columns, which are then dropped.
    Under injection a stage maps Y to rho P Y + (1 - rho) X G, so the walk
    carries X G, and each stage adds its columns of X [W^(1)[C:] of every
    later stage]. The walk sums in another order than the dense one, so
    the outputs after s match it to rounding.

    A ``chain`` list gets what fine-tuning's pullback pairs with, one
    array per stage on all rows: the representation of each stage through
    s, then the k-wide y each later aggregator reads, the representation
    before it times the W^(1)[:C] of it and the stages after it."""
    stages, c = model.stages, dataset.features.shape[1]
    switch = _switch_stage(stages, c)
    dense = stage_inputs(model, dataset)
    for _ in range(switch + 1):
        blocks = next(dense)
        if chain is not None:
            chain.append(blocks[0])
        yield tuple(block[rows] for block in blocks)
    del dense  # the dense chain is let go with its representation
    later = stages[switch + 1:]
    if not later:
        return
    g = np.hstack([st.learner.weights[0][:c] for st in later])
    cur, *injected = blocks
    del blocks
    if injected:
        # two products of width k, not one of 2k: on the PubMed shape
        # (k = 128) the 2k-wide one left 10 MB more resident after predict
        x_g = injected[0] @ g
        x_inj = injected[0] @ np.hstack([st.learner.weights[0][c:]
                                         for st in later])
        # at the first stage the representation is the features themselves
        y = x_g if switch == 0 else cur @ g
    else:
        x_g, y = None, cur @ g
    del cur
    for st in later:
        h = st.learner.weights[0].shape[1]
        if chain is not None:
            chain.append(y)
        # the aggregator's output is fresh, so its h columns, dropped next,
        # take the injected term and the learner's ReLU in place: a stage
        # allocates no N x h array of its own on all rows
        y = st.aggregator.apply(y, x_g)
        z = y[rows, :h]
        if injected:
            z += x_inj[rows, :h]
        yield z
        del z
        y = y[:, h:]
        if injected:
            x_g, x_inj = x_g[:, h:], x_inj[:, h:]


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
    per-stage learner inputs ``inputs`` (a list or a stream of block tuples
    with at least one per stage; a stage's input may instead be its W^(1)
    output, as ``_learner_width_inputs`` gives): yields (running score,
    raw learner output) stage by stage. Each ``_vote`` (softmax when
    ``soft``) adds onto a score of zeros sized from the first input, as
    the drivers' scores start, so a first stage of weight 0 scores zeros.
    A ``caches`` list gets each stage's forward cache, which holds its
    input, or none for a W^(1) output, whose W^(1) gradient ``backward``
    leaves to the caller. Each input is released before the next is drawn,
    which a ``zip`` would not do."""
    inputs = iter(inputs)
    for t, stage in enumerate(model.stages):
        blocks = next(inputs)
        if not t:
            n = len(blocks[0])
            score = np.zeros(n if model.mode == "functional"
                             else (n, model.n_classes))
        if isinstance(blocks, tuple):
            out, cache = forward(stage.learner, *blocks)
        else:  # W^(1)'s output, propagated at the learner's width
            out, hiddens = resume(stage.learner, blocks)
            cache = {"hiddens": [None, *hiddens]}
        del blocks
        if caches is not None:
            caches.append(cache)
        del cache
        score = score + _vote(model, stage.weight, out, soft)
        yield score, out


def replay_scores(model: EnsembleModel, dataset: NodeDataset, reps=None):
    """Score trajectory by stage: functional gives the running sum of
    eta_s f_s, SAMME the running vote score. ``reps``, the learner inputs
    of every stage on some rows (``stage_representations(model, dataset,
    rows)``), scores those rows on the dense chain. Without it the whole
    graph is scored by ``_learner_width_inputs``'s walk: the dense chain's
    scores bit for bit up to the stage where it turns to the learners'
    width, and from there the same classes, with scores within 1e-12
    relative on the tests' graphs."""
    return [score for score, _ in _stack_scores(
        model, _learner_width_inputs(model, dataset) if reps is None
        else reps)]


def predict(model: EnsembleModel, dataset: NodeDataset, reps=None):
    """Deterministic prediction; argmax ties break toward the lowest index.

    Returns (score vector/matrix, class ids) of stage t* (functional; the
    last stage for SAMME), on the rows of ``reps`` when given (see
    ``replay_scores``). Only stages 1..t* are replayed, as a model of
    those stages alone, and only the running score is held.
    """
    head = replace(model, stages=model.stages[:model.t_star
                                              or len(model.stages)])
    for score, _ in _stack_scores(head, _learner_width_inputs(head, dataset)
                                  if reps is None else reps):
        pass
    return score, class_ids(score)


# ---------------------------------------------------------------------------
# fine-tuning (end-to-end, manual backprop through the whole stack)
#
# The loss reads the train rows only and every learner is row-wise, so the
# learners run on the train rows. Chains without learnable aggregation keep
# their train and validation rows from one replay, which walks only those
# rows' receptive field (``stage_inputs``): with T - 1 aggregators of one
# hop each, stage t is computed on the nodes within T - t hops of them, and
# the whole graph only where that covers it. A KTA epoch runs
# ``_learner_width_inputs``'s walk, which holds, on all rows, the dense
# chain through the switch stage s and the k-wide input of every
# aggregator above it, and the before and after errors are ``predict``'s.
# A learner's input gradient delta W^(1)^T has rank at most W^(1)'s width
# h, so the chain's adjoint is pulled back factored at width k = sum h
# (``_stack_gradients``) down to s, which is where k would pass
# FACTORED_SHARE of the feature width C.


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


def _stack_gradients(model, dataset, dscore, caches, logits_list,
                     chain=None):
    """Exact gradients of the train loss w.r.t. every MLP weight and, given
    the ``chain`` that ``_learner_width_inputs`` holds, every learnable
    aggregation weight.

    ``dscore``, ``caches`` and ``logits_list`` cover the train rows in the
    order of ``dataset.split.train``. One walk down the stages above the
    switch stage s pulls the chain's adjoint back as F G^T: F (N x k)
    holds each later learner's delta on the train rows, pulled back
    through the aggregators after it, and G (C x k) their W^(1)s, so the
    coefficient gradient <P^p F G^T, x> is <P^p F, x G>, x G the k-wide
    input the walk held. Every aggregator is a symmetric polynomial in P,
    so the W^(1) gradients of those learners are rep^T F, with F pulled
    back to s and rep the representation at s. Below s the pair is
    multiplied out once: F is the N x C adjoint, and each input gradient
    delta W^(1)^T is added to it. Returns (per-stage MLP gradients,
    {stage: KTA weight gradient}).
    """
    mlp_grads, deltas = [], []
    for stage, cache, out in zip(model.stages, caches, logits_list):
        grads, delta = backward(
            stage.learner, cache, _vote_grad(model, stage.weight, out, dscore))
        mlp_grads.append(grads)
        deltas.append(delta)

    kta_grads = {}
    if chain is None:
        return mlp_grads, kta_grads
    train, stages = dataset.split.train, model.stages
    switch = _switch_stage(stages, dataset.features.shape[1])
    later = range(switch + 1, len(stages))
    f = np.zeros((len(chain[0]), 0))
    for s in reversed(later):
        f = np.hstack([np.zeros((len(f), deltas[s].shape[1])), f])
        f[train, :deltas[s].shape[1]] = deltas[s]
        f, kta_grads[s] = stages[s].aggregator.pullback(f, chain[s])
    if later:
        cuts = np.cumsum([deltas[s].shape[1] for s in later])[:-1]
        for s, grad in zip(later, np.hsplit(chain[switch].T @ f, cuts)):
            mlp_grads[s][0] = grad
    if switch:
        # below the switch the pair is multiplied out once; at switch 0 no
        # aggregator is left, so no N x C adjoint is formed
        f = (f @ np.hstack([stages[s].learner.weights[0] for s in later]).T
             if later else np.zeros(chain[0].shape))
    for s in range(switch, 0, -1):
        f[train] += deltas[s] @ stages[s].learner.weights[0].T
        f, kta_grads[s] = stages[s].aggregator.pullback(f, chain[s - 1])
    return mlp_grads, kta_grads


def fine_tune(model: EnsembleModel, dataset: NodeDataset,
              cfg: FineTuneConfig):
    """End-to-end full-batch Adam training of the stacked composition.

    The MLP and learnable aggregation weights of stages 1..t* train on the
    loss of stage t*'s score, the one ``predict`` reads (for SAMME, t* is
    the last stage); later stages, stage weights (eta / lambda) and
    aggregator structure stay fixed. On divergence a flagged copy of the
    original model is returned; the input model is never changed. Returns
    (model, {"train_err": (before, after), "val_err": (before, after),
    "max_rel_change": r}), r the largest max|w_after - w_before| /
    max|w_before| over the trained arrays, 0.0 when nothing moved (no
    epoch, a divergence, or a saturated stack).

    A fixed or injection chain is replayed once, by
    ``stage_representations`` on the train and validation rows, and so on
    their receptive field alone; its errors are read from those rows. A
    KTA chain is walked on the whole graph every epoch, and its errors are
    ``predict``'s.
    """
    if not model.stages:
        raise ValueError("model history is empty")
    n_tuned = model.t_star or len(model.stages)
    head = replace(model, stages=model.stages[:n_tuned])
    split = dataset.split
    m = split.m
    rows = np.concatenate([split.train, split.val])
    y_rows = dataset.labels[rows]
    kta = model.aggregator_kind == "kta"
    if not kta:
        inputs = stage_representations(head, dataset, rows)

    def eval_errors(mdl):
        classes = (predict(mdl, dataset)[1][rows] if kta
                   else predict(mdl, dataset, inputs)[1])
        wrong = classes != y_rows
        return (float(np.mean(wrong[:m])),
                float(np.mean(wrong[m:])) if len(split.val) else float("nan"))

    def report(after, change=0.0):
        return {"train_err": (before[0], after[0]),
                "val_err": (before[1], after[1]), "max_rel_change": change}

    before = eval_errors(head)
    if cfg.epochs == 0:
        return model, report(before)

    work = replace(head, flags=dict(model.flags), stages=[
        replace(st, learner=st.learner.copy()) for st in head.stages])
    kta_ids = range(1, len(work.stages)) if kta else ()
    for s in kta_ids:
        # the copied KTA coefficient arrays are trained in place
        agg = work.stages[s].aggregator
        work.stages[s].aggregator = replace(agg, coefs=agg.coefs.astype(float))
    params = [w for st in work.stages for w in st.learner.weights]
    params += [work.stages[s].aggregator.coefs for s in kta_ids]
    opt = _Adam(cfg.lr, cfg.weight_decay, [p.shape for p in params])

    for _ in range(cfg.epochs):
        # the last epoch's chain is let go before the walk holds the next
        chain, caches, logits_list = [] if kta else None, [], []
        for score, out in _stack_scores(
                work, _learner_width_inputs(work, dataset, split.train, chain)
                if kta else [tuple(b[:m] for b in blocks)
                             for blocks in inputs],
                soft=True, caches=caches):
            logits_list.append(out)
        loss, dscore = surrogate(score, y_rows[:m])
        if not np.isfinite(loss):
            flags = {**model.flags, "fine_tune_diverged": True}
            return (replace(model, stages=list(model.stages), flags=flags),
                    report(before))
        mlp_grads, kta_grads = _stack_gradients(work, dataset, dscore,
                                                caches, logits_list, chain)
        opt.step(params, [g for gs in mlp_grads for g in gs]
                 + [kta_grads[s] for s in kta_ids])

    originals = [w for st in head.stages for w in st.learner.weights]
    originals += [head.stages[s].aggregator.coefs for s in kta_ids]
    chain = caches = None  # let go before predict walks the chain again
    after = eval_errors(work)
    work.stages += model.stages[n_tuned:]
    return work, report(after, max(_rel_change(a, b) for a, b in
                                   zip(originals, params)))


def _rel_change(before, after):
    """max|after - before| / max|before|; inf when an array that was all
    zeros moved."""
    change = float(np.abs(after - before).max())
    scale = float(np.abs(before).max())
    return change / scale if scale else (math.inf if change else 0.0)


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
    learner that is not an object, has another activation, a weight that
    is not base64 or whose bytes do not fill its shape, whose weight
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
        try:
            weights = [_decode_weight(w, shape)
                       for w, shape in zip(lrn["weights"], shapes)]
        except ValueError as exc:  # binascii.Error, for text not base64
            raise ValueError(f"stage {idx + 1} learner weights: {exc}") from exc
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
