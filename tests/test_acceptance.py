"""Acceptance gate: one test per exit criterion, each printing a PASS line.

Criteria 1, 2, and 9 need the converted citation-network datasets; point
GRAPHBOOST_DATA at a directory containing cora/, citeseer/, pubmed/ (see
README for the converter contract). Without it those three skip loudly;
everything else runs on synthetic data.
"""

import itertools
import os
from dataclasses import replace

import numpy as np
import pytest

from graphboost.aggregate import _alignment_value_grad, kta
from graphboost.boost import (AggregatorSpec, BoostConfig,
                              _stack_gradients, _stack_replay,
                              _stack_scores, predict,
                              run_functional_gb, run_samme, wlc_fit,
                              write_trace_csv)
from graphboost.cli import cmd_curves
from graphboost.data import load_planetoid, one_hot, synthesize_two_block
from graphboost.graph import base_operator
from graphboost.losses import margin_loss, softmax_ce, surrogate
from graphboost.mlp import (MlpParams, TrainConfig, backward, forward,
                            init_mlp, project_l1_columns)
from graphboost.theory import (ComplexityConstants, mc_transductive_rademacher,
                               rademacher_bound, smoothing_report,
                               wlc_complexity_lower_bound)
from reference import basis_gram, curve_shape, weighted_error_form
from test_graph import random_connected_graph

DATA_ROOT = os.environ.get("GRAPHBOOST_DATA", "")

REFERENCE = {
    # dataset: (reported mean, floor = mean - 3)
    "cora": (79.9, 76.9),
    "citeseer": (70.5, 67.5),
    "pubmed": (79.4, 76.4),
}


def dataset_or_skip(name):
    if not DATA_ROOT:
        pytest.skip(
            f"criterion needs the converted '{name}' dataset; set "
            "GRAPHBOOST_DATA to the directory holding it (see README; the "
            "files cannot be downloaded by this package)")
    path = os.path.join(DATA_ROOT, name)
    if not os.path.isdir(path):
        pytest.skip(f"GRAPHBOOST_DATA set but '{path}' is missing")
    return load_planetoid(path)


def reference_run_config(hidden_layers=1, n_rounds=100, seed=0):
    """The documented fixed defaults: hidden width 64, adam 1e-2, weight
    decay 5e-4, 100 epochs, full-batch, T=100."""
    return BoostConfig(
        n_rounds=n_rounds,
        hidden=(64,) * hidden_layers,
        learner=TrainConfig(epochs=100, lr=1e-2, weight_decay=5e-4),
        aggregator=AggregatorSpec(kind="fixed"),
        seed=seed)


@pytest.mark.acceptance
@pytest.mark.parametrize("name", ["cora", "citeseer", "pubmed"])
def test_criterion_1_accuracy_reproduction(name):
    dataset = dataset_or_skip(name)
    accs = []
    for seed in range(10):
        model, _, _ = run_samme(dataset, reference_run_config(seed=seed))
        _, classes = predict(model, dataset)
        te = dataset.split.test
        accs.append(float(np.mean(classes[te] == dataset.labels[te])))
    mean = 100.0 * float(np.mean(accs))
    reported, floor = REFERENCE[name]
    assert mean >= floor, f"{name}: mean {mean:.1f} below {floor}"
    assert abs(mean - reported) <= 3.0, (
        f"{name}: mean {mean:.1f} more than 3 points from {reported}")
    print(f"ACCEPTANCE 1 PASS [{name}]: mean test accuracy {mean:.1f} "
          f"(reported {reported}, floor {floor})")


@pytest.mark.acceptance
def test_criterion_2_curve_reproduction(tmp_path):
    dataset = dataset_or_skip("citeseer")
    model, trace, _ = run_samme(dataset, reference_run_config(n_rounds=60,
                                                              seed=0))
    run_dir = tmp_path / "seed_0"
    run_dir.mkdir()
    write_trace_csv(trace, run_dir / "trace.csv")
    out_csv = tmp_path / "curves.csv"
    cmd_curves(str(tmp_path / "seed_*" / "trace.csv"), str(out_csv))

    series = {}
    for line in out_csv.read_text().splitlines()[1:]:
        seed, t, metric, value = line.split(",")
        if seed == "seed_0":
            series.setdefault(metric, {})[int(t)] = float(value)
    prefix, risen = curve_shape([
        {metric: values[t] for metric, values in series.items()}
        for t in sorted(series["cos_theta"])])
    assert prefix >= 20, f"cos theta positive only for {prefix} iterations"
    assert not risen, (f"{risen} increased beyond the noise band within the "
                       "positive-angle prefix")
    print(f"ACCEPTANCE 2 PASS: losses non-increasing over a {prefix}-step "
          "positive-angle prefix")


@pytest.mark.acceptance
def test_criterion_3_optimization_bound():
    held = 0
    for seed in range(50):
        ds = synthesize_two_block(40, 0.8, 0.05, seed=100 + seed)
        cfg = BoostConfig(
            n_rounds=8, hidden=(),
            learner=TrainConfig(epochs=60, lr=0.05, weight_decay=0.0),
            seed=seed)
        model, trace, _ = run_functional_gb(ds, cfg)
        assert len(model.stages) == 9 and all(
            st.wlc is not None for st in model.stages[1:]), (
            f"seed {seed}: an iteration failed the weak-learning check")
        gamma_total = sum(st.wlc.gamma for st in model.stages[1:])
        rhs = ((1.0 + np.exp(0.0)) * trace[0]["train_loss"]
               / (2.0 * ds.split.m * gamma_total))
        yhat, _ = predict(model, ds)
        realized = float(np.mean(margin_loss(
            yhat[ds.split.train], ds.labels[ds.split.train])))
        assert realized <= rhs, (
            f"seed {seed}: bound violated ({realized} > {rhs})")
        held += 1
    assert held == 50
    print("ACCEPTANCE 3 PASS: optimization bound held in 50/50 clean runs")


@pytest.mark.acceptance
def test_criterion_4_equivalence_suite():
    rng = np.random.default_rng(2024)
    fit_agreements = 0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        g = rng.standard_normal(n)
        z = rng.standard_normal(n)
        fit = wlc_fit(z, g)
        assert (fit is not None) == (float(z @ g) > 0.0)
        if fit is not None:
            lhs = np.linalg.norm(z - fit.alpha * g)
            rhs = fit.beta * np.linalg.norm(g)
            assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1e-30)
        fit_agreements += 1
    sign_agreements = 0
    for _ in range(1000):
        n = int(rng.integers(2, 17))
        g = rng.standard_normal(n)
        z = rng.choice([-1.0, 1.0], n)
        fit = wlc_fit(z, g)
        _, delta = weighted_error_form(z, g)
        assert (fit is not None) == (delta is not None)
        sign_agreements += 1
    assert fit_agreements == sign_agreements == 1000
    print("ACCEPTANCE 4 PASS: 1000/1000 fit-existence and 1000/1000 "
          "weighted-error agreements, equality clause at 1e-9")


def _sample_constrained_outputs(n_funcs, n_layers, b_tilde, c_tilde, x,
                                operator, seed):
    rng = np.random.default_rng(seed)
    px = operator.apply(x)
    c = x.shape[1]
    outs = []
    for _ in range(n_funcs):
        w_agg = rng.standard_normal((c, c))
        w_agg = w_agg / np.maximum(np.abs(w_agg).sum(axis=0) / c_tilde, 1.0)
        rep = px @ w_agg
        widths = (c,) + (4,) * (n_layers - 1) + (1,)
        draw = np.random.default_rng(int(rng.integers(2 ** 31)))
        mlp = project_l1_columns(MlpParams(weights=[
            draw.uniform(-2.0, 2.0, shape)
            for shape in zip(widths, widths[1:])]), b_tilde)
        h = rep
        for wmat in mlp.weights[:-1]:
            h = np.maximum(h @ wmat, 0.0)
        outs.append((h @ mlp.weights[-1])[:, 0])
    return np.array(outs), float(np.linalg.norm(px))


@pytest.mark.acceptance
def test_criterion_5_complexity_bound_dominates_mc():
    ds = synthesize_two_block(12, 0.7, 0.2, seed=0)
    operator = base_operator(ds.graph)
    x = np.random.default_rng(1).standard_normal((12, 3))
    b_tilde, c_tilde = 1.5, 1.0
    m = u = 6
    hits = 0
    for rep in range(20):
        n_layers = 1 + rep % 2
        outs, px_frob = _sample_constrained_outputs(
            200, n_layers, b_tilde, c_tilde, x, operator, seed=10 + rep)
        constants = ComplexityConstants(n_layers=n_layers, b_tilde=b_tilde,
                                        c_tildes=(c_tilde,), m=m, u=u)
        bound = rademacher_bound(constants, px_frob)
        est, se = mc_transductive_rademacher(outs, m, u, seed=50 + rep)
        assert est <= bound
        hits += est + 3 * se <= bound
    assert hits >= 19, f"only {hits}/20 repetitions stayed below the bound"
    print(f"ACCEPTANCE 5 PASS: MC estimate below the closed-form bound in "
          f"{hits}/20 repetitions")


@pytest.mark.acceptance
def test_criterion_6_lower_bound_construction():
    alpha = 1.0
    cube = np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=4)))
    est, se = mc_transductive_rademacher(alpha * cube, 2, 2, seed=0)
    assert abs(est - 2.0) <= 3 * se, f"estimate {est} not within 3 se of 2.0"
    lower = wlc_complexity_lower_bound(alpha, 0.0)
    assert est >= lower
    print(f"ACCEPTANCE 6 PASS: estimate {est:.3f} +- {se:.3f} matches 2.0 "
          f"and dominates the lower bound {lower}")


@pytest.mark.acceptance
def test_criterion_7_spectral_identity():
    for seed in range(20):
        n = int(np.random.default_rng(seed).integers(10, 51))
        g = random_connected_graph(n, 0.1, seed=seed)
        x = np.random.default_rng(1000 + seed).standard_normal((n, 4))
        traj = smoothing_report(base_operator(g), x, t_max=16)
        for d, s in zip(traj.frobenius_direct, traj.frobenius_spectral):
            assert abs(d ** 2 - s ** 2) <= 1e-6 * max(
                d ** 2, s ** 2, 1e-6 * np.sum(x * x))
        r = traj.rank_one_distance
        assert np.all(r[1:] <= r[:-1] + 1e-10)
    print("ACCEPTANCE 7 PASS: dual norm computations agree to 1e-6 and the "
          "rank-one distance is monotone on 20 graphs")


@pytest.mark.acceptance
def test_criterion_8_gradient_integrity():
    rng = np.random.default_rng(0)

    # backprop vs central differences
    x = rng.standard_normal((5, 3))
    params = init_mlp((3, 4, 1), seed=1)
    out, cache = forward(params, x)
    upstream = rng.standard_normal(out.shape)
    grads, _ = backward(params, cache, upstream)
    eps = 1e-5
    worst_mlp = 0.0
    for li, w in enumerate(params.weights):
        for idx in np.ndindex(w.shape):
            w[idx] += eps
            plus = float(np.vdot(upstream, forward(params, x)[0]))
            w[idx] -= 2 * eps
            minus = float(np.vdot(upstream, forward(params, x)[0]))
            w[idx] += eps
            fd = (plus - minus) / (2 * eps)
            worst_mlp = max(worst_mlp,
                            abs(grads[li][idx] - fd) / max(abs(fd), 1e-8))
    assert worst_mlp < 1e-4

    # alignment-ascent gradient
    g = random_connected_graph(8, 0.3, seed=2)
    operator = base_operator(g)
    agg = kta(operator)
    x8 = rng.standard_normal((8, 3))
    train = np.arange(5)
    y = one_hot(rng.integers(0, 2, 5), 2)
    b_gram = basis_gram([b[train] for b in agg.terms(x8)])
    k_target = y @ y.T
    theta = rng.standard_normal(5)
    _, grad = _alignment_value_grad(b_gram, theta, k_target)
    worst_kta = 0.0
    for i in range(5):
        tp, tm = theta.copy(), theta.copy()
        tp[i] += eps
        tm[i] -= eps
        fp, _ = _alignment_value_grad(b_gram, tp, k_target)
        fm, _ = _alignment_value_grad(b_gram, tm, k_target)
        fd = (fp - fm) / (2 * eps)
        worst_kta = max(worst_kta, abs(grad[i] - fd) / max(abs(fd), 1e-8))
    assert worst_kta < 1e-4

    # end-to-end fine-tune gradient through a 3-stage KTA stack; the
    # learners are trained briefly on noisy features, so the stack is not
    # saturated and every checked gradient is far above the FD noise
    ds = synthesize_two_block(40, 0.7, 0.25, seed=8, noise=0.6)
    cfg = BoostConfig(n_rounds=3, hidden=(6,),
                      learner=TrainConfig(epochs=4),
                      aggregator=AggregatorSpec(kind="kta"), seed=10)
    model, _, _ = run_samme(ds, cfg)
    assert len(model.stages) == 3, model.flags
    tr = ds.split.train

    def stack_loss(m):
        s = _stack_scores(m, _stack_replay(m, ds, tr)[0], soft=True)[0][-1]
        return float(np.mean(softmax_ce(s, ds.labels[tr])))

    inputs, chain = _stack_replay(model, ds, tr)
    caches = []
    scores, logits = _stack_scores(model, inputs, soft=True, caches=caches)
    _, dscore = surrogate(scores[-1], ds.labels[tr])
    mlp_grads, kta_grads = _stack_gradients(model, ds, dscore, caches,
                                            logits, chain)
    worst_stack, smallest_fd = 0.0, np.inf

    def check(analytic, fd):
        nonlocal worst_stack, smallest_fd
        smallest_fd = min(smallest_fd, abs(fd))
        worst_stack = max(worst_stack,
                          abs(analytic - fd) / max(abs(fd), 1e-8))

    for si, stage in enumerate(model.stages):
        for li, w in enumerate(stage.learner.weights):
            # hidden units 0, 1 and 3 are dead in stage 3, so the checked
            # weights are those of unit 2, live in every stage: its first
            # and last input weights and its first and last output weights
            unit = 2
            for idx in ([(0, unit), (w.shape[0] - 1, unit)] if li == 0
                        else [(unit, 0), (unit, w.shape[1] - 1)]):
                w[idx] += eps
                plus = stack_loss(model)
                w[idx] -= 2 * eps
                minus = stack_loss(model)
                w[idx] += eps
                check(mlp_grads[si][li][idx], (plus - minus) / (2 * eps))
        if stage.aggregator is not None:
            agg = stage.aggregator
            for wi in range(len(agg.coefs)):
                wp, wm = agg.coefs.copy(), agg.coefs.copy()
                wp[wi] += eps
                wm[wi] -= eps
                model.stages[si].aggregator = replace(agg, coefs=wp)
                plus = stack_loss(model)
                model.stages[si].aggregator = replace(agg, coefs=wm)
                minus = stack_loss(model)
                model.stages[si].aggregator = agg
                check(kta_grads[si][wi], (plus - minus) / (2 * eps))
    assert smallest_fd > 1e-6, f"a checked gradient is only {smallest_fd}"
    assert worst_stack < 1e-4
    print(f"ACCEPTANCE 8 PASS: gradient checks at {worst_mlp:.1e} (mlp), "
          f"{worst_kta:.1e} (alignment), {worst_stack:.1e} (end-to-end, "
          f"smallest checked gradient {smallest_fd:.1e})")


@pytest.mark.acceptance
def test_criterion_9_depth_trend():
    dataset = dataset_or_skip("citeseer")
    means = {}
    for layers in (0, 1, 4):
        accs = []
        for seed in range(10):
            model, _, _ = run_samme(dataset, reference_run_config(
                hidden_layers=layers, seed=seed))
            _, classes = predict(model, dataset)
            te = dataset.split.test
            accs.append(float(np.mean(classes[te] == dataset.labels[te])))
        means[layers] = float(np.mean(accs))
    shallow_best = max(means[0], means[1])
    assert means[4] <= shallow_best, (
        f"L=4 accuracy {means[4]:.3f} exceeds best shallow "
        f"{shallow_best:.3f}")
    print(f"ACCEPTANCE 9 PASS: depth trend holds "
          f"(L0={means[0]:.3f}, L1={means[1]:.3f}, L4={means[4]:.3f})")
