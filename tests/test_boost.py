import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphboost.aggregate import Polynomial, fixed, injection, kta
from graphboost.boost import (AggregatorSpec, EnsembleModel, FineTuneConfig,
                              FunctionalGBConfig, SammeConfig, StageRecord,
                              WlcParams, fine_tune, load_model,
                              model_from_json, model_to_json, predict,
                              read_trace_csv, replay_scores,
                              run_functional_gb, run_samme,
                              samme_model_weight, save_model,
                              stage_inputs, wlc_fit, write_trace_csv)
from graphboost.data import synthesize_two_block
from graphboost.graph import base_operator
from graphboost.mlp import MlpParams, TrainConfig, forward, init_mlp
from reference import AllocatingAdam, weighted_error_form, wlc_check


class TestWlcCheck:
    def test_exact_multiple_passes(self):
        g = np.array([1.0, -2.0, 0.5])
        assert wlc_check(3.0 * g, g, WlcParams(alpha=3.0, beta=0.1))

    def test_orthogonal_fails(self):
        g = np.array([1.0, 0.0])
        z = np.array([0.0, 1.0])
        assert not wlc_check(z, g, WlcParams(alpha=1.0, beta=0.5))

    def test_zero_gradient_rejected(self):
        with pytest.raises(ValueError):
            wlc_check(np.ones(3), np.zeros(3), WlcParams(alpha=1.0, beta=0.0))

    def test_params_validated(self):
        with pytest.raises(ValueError):
            WlcParams(alpha=1.0, beta=1.0)
        assert WlcParams(alpha=2.0, beta=1.0).gamma == pytest.approx(0.75)


class TestWlcFit:
    def test_orthogonal_no_fit(self):
        assert wlc_fit(np.array([0.0, 1.0]), np.array([1.0, 0.0])) is None

    def test_negative_inner_product_no_fit(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(5)
        assert wlc_fit(-g, g) is None

    def test_equality_clause(self):
        g = np.array([1.0, 1.0, 0.0, -1.0])
        perp = np.array([1.0, -1.0, 1.0, 0.0]) / np.sqrt(3.0)
        z = g + 0.1 * perp
        fit = wlc_fit(z, g)
        lhs = np.linalg.norm(z - fit.alpha * g)
        rhs = fit.beta * np.linalg.norm(g)
        assert abs(lhs - rhs) <= 1e-9 * rhs
        # a slightly slackened beta puts the pair strictly inside the cone
        assert wlc_check(z, g, WlcParams(fit.alpha, fit.beta * (1 + 1e-8)))


class TestWeightedErrorForm:
    def test_perfect_agreement(self):
        g = np.array([0.5, -2.0, 0.1])
        z = np.sign(g)
        err, delta = weighted_error_form(z, g)
        assert err == 0.0 and delta == 1.0

    def test_total_disagreement(self):
        g = np.array([0.5, -2.0, 0.1])
        err, delta = weighted_error_form(-np.sign(g), g)
        assert err == pytest.approx(1.0)
        assert delta is None

    def test_requires_sign_vector(self):
        with pytest.raises(ValueError):
            weighted_error_form(np.array([0.5, 1.0]), np.ones(2))

    def test_equivalence_against_exhaustive_oracle(self):
        # brute force both characterizations on random instances
        rng = np.random.default_rng(2)
        for _ in range(300):
            n = rng.integers(2, 13)
            g = rng.standard_normal(n)
            z = rng.choice([-1.0, 1.0], n)
            _, delta = weighted_error_form(z, g)
            inner_positive = float(z @ g) > 0
            # oracle: does any delta in (0, 1] satisfy the weighted bound?
            w = np.abs(g) / np.abs(g).sum()
            err = w[np.where(g >= 0, 1.0, -1.0) != z].sum()
            oracle = any(err <= (1 - d) / 2
                         for d in np.linspace(1e-9, 1.0, 2001))
            assert (delta is not None) == oracle == inner_positive


class TestProp2Equivalence:
    @given(st.integers(2, 16), st.integers(0, 2 ** 31 - 1))
    @settings(max_examples=60, deadline=None)
    def test_fit_exists_iff_positive_inner_product(self, n, seed):
        rng = np.random.default_rng(seed)
        g = rng.standard_normal(n)
        z = rng.standard_normal(n)
        fit = wlc_fit(z, g)
        assert (fit is not None) == (float(z @ g) > 0.0)
        if fit is not None:
            assert fit.alpha > fit.beta >= 0.0

    def test_randomized_suite(self):
        # quality gate run at acceptance scale lives in test_acceptance;
        # this is the fast randomized version
        rng = np.random.default_rng(3)
        for _ in range(200):
            n = int(rng.integers(2, 17))
            g = rng.standard_normal(n)
            z = rng.standard_normal(n)
            fit = wlc_fit(z, g)
            assert (fit is not None) == (float(z @ g) > 0.0)
            if fit is not None:
                lhs = np.linalg.norm(z - fit.alpha * g)
                rhs = fit.beta * np.linalg.norm(g)
                assert abs(lhs - rhs) <= 1e-9 * max(rhs, 1e-30)


def small_functional_cfg(n_rounds=3, seed=0, **kw):
    return FunctionalGBConfig(
        n_rounds=n_rounds, hidden=(8,),
        learner=TrainConfig(epochs=30, lr=0.02, weight_decay=0.0),
        seed=seed, **kw)


class TestFunctionalGB:
    def test_t1_only_first_stage(self):
        ds = synthesize_two_block(16, 0.9, 0.1, seed=0)
        cfg = small_functional_cfg(n_rounds=1)
        model, trace = run_functional_gb(ds, cfg)
        assert len(model.stages) == 2  # stage 1 plus the single loop pass
        assert trace[0]["t"] == 1
        first = replay_scores(model, ds)[0]
        b1_out = forward(model.stages[0].learner, ds.features)[0][:, 0]
        assert model.stages[0].weight == 1.0  # eta_1
        assert np.allclose(first, model.stages[0].weight * b1_out)

    def test_binary_only(self):
        ds = synthesize_two_block(12, 0.9, 0.1, seed=1)
        object.__setattr__(ds, "n_classes", 3)
        with pytest.raises(ValueError, match="binary"):
            run_functional_gb(ds, small_functional_cfg())

    def test_two_block_training_error_nonincreasing(self):
        ds = synthesize_two_block(40, 0.8, 0.05, seed=2)
        model, trace = run_functional_gb(ds, small_functional_cfg(
            n_rounds=6, seed=3))
        errs = [r["train_err"] for r in trace]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        assert all(r["cos_theta"] > 0 for r in trace)

    def test_theorem_bound_on_clean_run(self):
        ds = synthesize_two_block(40, 0.8, 0.05, seed=4)
        model, trace = run_functional_gb(ds, small_functional_cfg(
            n_rounds=6, seed=5))
        assert all(st.wlc is not None for st in model.stages[1:])
        gamma_total = sum(st.wlc.gamma for st in model.stages[1:])
        rhs = ((1 + np.exp(0.0)) * trace[0]["train_loss"]
               / (2 * ds.split.m * gamma_total))
        yhat, _ = predict(model, ds)
        train_err = np.mean(
            (2 * (1 / (1 + np.exp(-yhat[ds.split.train])) ) - 1)
            * (2 * ds.labels[ds.split.train] - 1) < 0)
        assert train_err <= rhs

    def test_replay_invariant(self):
        # the recorded score trajectory is reproducible from the history
        ds = synthesize_two_block(24, 0.8, 0.1, seed=6)
        model, trace = run_functional_gb(ds, small_functional_cfg(
            n_rounds=4, seed=7))
        scores = replay_scores(model, ds)
        assert len(scores) == len(model.stages)
        # the trace's grad_l1 at each t matches the replayed score
        from graphboost.losses import surrogate_grad
        for row, score in zip(trace, scores):
            g = surrogate_grad(score, ds.labels, ds.split)
            assert row["grad_l1"] == pytest.approx(np.abs(g).sum(),
                                                   rel=1e-8)

    def test_cos_theta_positive_iff_wlc_pass(self):
        ds = synthesize_two_block(30, 0.7, 0.2, seed=8)
        _, trace = run_functional_gb(ds, small_functional_cfg(
            n_rounds=5, seed=9))
        for row in trace[1:]:
            assert (row["cos_theta"] > 0) == bool(row["wlc_pass"])

    def test_functional_with_input_injection(self):
        ds = synthesize_two_block(20, 0.8, 0.1, seed=14)
        cfg = FunctionalGBConfig(
            n_rounds=3, hidden=(8,),
            learner=TrainConfig(epochs=25, lr=0.02, weight_decay=0.0),
            aggregator=AggregatorSpec(kind="input_injection", rho=0.6),
            seed=15)
        model, trace = run_functional_gb(ds, cfg)
        scores = replay_scores(model, ds)
        assert len(scores) == len(model.stages) == 4
        from graphboost.losses import surrogate_grad
        g = surrogate_grad(scores[-1], ds.labels, ds.split)
        assert trace[-1]["grad_l1"] == pytest.approx(np.abs(g).sum(),
                                                     rel=1e-8)

    def test_curve_prefix_mechanics_on_synthetic(self, tmp_path):
        # the same shape check the reference-data gate runs: losses may not
        # rise beyond a 5%-of-initial band while the angle stays acute
        # (noisy enough that boosting takes several rounds to saturate)
        ds = synthesize_two_block(120, 0.14, 0.05, seed=16, noise=1.5)
        cfg = SammeConfig(n_rounds=10, hidden=(8,),
                          learner=TrainConfig(epochs=10), seed=17)
        model, trace = run_samme(ds, cfg)
        write_trace_csv(trace, tmp_path / "trace.csv")
        back = read_trace_csv(tmp_path / "trace.csv")
        prefix = 0
        for row in back:
            if row["cos_theta"] > 0:
                prefix += 1
            else:
                break
        assert prefix >= 5
        for metric in ("train_loss", "test_err"):
            vals = [r[metric] for r in back[:prefix]]
            band = 0.05 * vals[0]
            assert all(b <= a + band for a, b in zip(vals, vals[1:]))


class TestSammeFormulas:
    def test_rejection_threshold_weight_is_zero(self):
        for k in (2, 3, 7):
            assert samme_model_weight(1.0 - 1.0 / k, k) == pytest.approx(
                0.0, abs=1e-9)

    def test_quarter_error_binary(self):
        assert samme_model_weight(0.25, 2) == pytest.approx(np.log(3.0))


class TestSammeRuns:
    def test_single_learner_predicts_like_it(self):
        ds = synthesize_two_block(20, 0.9, 0.1, seed=0)
        cfg = SammeConfig(n_rounds=1, hidden=(8,),
                          learner=TrainConfig(epochs=50), seed=2)
        model, _ = run_samme(ds, cfg)
        assert len(model.stages) == 1
        _, classes = predict(model, ds)
        learner_pred = np.argmax(
            forward(model.stages[0].learner, ds.features)[0], axis=1)
        assert np.array_equal(classes, learner_pred)

    def test_weights_stay_a_distribution(self):
        # re-run the update rule standalone over a short run, checking the
        # invariant via the recorded model weights being finite and the
        # driver completing; the distribution itself is internal state, so
        # verify through a reference implementation of one update
        rng = np.random.default_rng(3)
        w = np.full(10, 0.1)
        for _ in range(5):
            bad = rng.random(10) < 0.3
            lam = samme_model_weight(max(float(bad.mean()), 1e-3), 3)
            w *= np.exp(lam * bad)
            w /= w.sum()
            assert w.sum() == pytest.approx(1.0, abs=1e-12)
            assert np.all(w >= 0)

    def test_multiclass_run_improves_over_chance(self):
        ds = synthesize_two_block(40, 0.8, 0.05, seed=4)
        cfg = SammeConfig(n_rounds=5, hidden=(8,),
                          learner=TrainConfig(epochs=40), seed=6)
        model, trace = run_samme(ds, cfg)
        assert trace[-1]["test_err"] < 0.5

    def test_rejected_rounds_are_skipped_placeholders(self):
        ds = synthesize_two_block(16, 0.6, 0.4, seed=7, noise=3.0)
        cfg = SammeConfig(
            n_rounds=6, hidden=(2,),
            learner=TrainConfig(epochs=1, lr=1e-9), seed=9)
        try:
            model, trace = run_samme(ds, cfg)
        except RuntimeError:
            return  # every round rejected; covered below deterministically
        assert len(model.stages) == 6
        for t in model.flags.get("skipped", []):
            st = model.stages[t - 1]
            assert st.learner is None and st.weight == 0.0
        # replay still works across placeholders
        _, classes = predict(model, ds)
        assert classes.shape == (16,)

    def test_all_rounds_rejected_raises(self):
        # constant features force constant predictions; with a perfectly
        # balanced train set the weighted error is always exactly 1/2
        from graphboost.data import NodeDataset, Split
        base = synthesize_two_block(16, 0.9, 0.1, seed=11)
        split = Split(train=np.array([0, 1, 2, 3, 8, 9, 10, 11]), val=[],
                      test=np.array([4, 5, 6, 7, 12, 13, 14, 15]))
        flat = NodeDataset(graph=base.graph,
                           features=np.ones((16, 2)), labels=base.labels,
                           split=split, n_classes=2)
        cfg = SammeConfig(n_rounds=3, hidden=(4,),
                          learner=TrainConfig(epochs=5), seed=1)
        with pytest.raises(RuntimeError, match="beat chance"):
            run_samme(flat, cfg)

    def test_deep_kta_chain_stays_bounded(self):
        # each fitted polynomial has nonnegative weights summing to 1, so
        # ||q_t(P)|| <= 1 and no stage input outgrows the features
        ds = synthesize_two_block(40, 0.5, 0.2, seed=3, noise=0.4)
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=12, hidden=(4,), learner=TrainConfig(epochs=50, lr=0.05),
            aggregator=AggregatorSpec(kind="kta"), seed=1))
        assert "skipped" not in model.flags
        for st in model.stages[1:]:
            assert np.all(st.aggregator.coefs >= 0.0)
        x_norm = np.linalg.norm(ds.features)
        for rep in stage_inputs(model, ds):
            assert np.linalg.norm(rep) <= x_norm * (1.0 + 1e-12)

    def test_three_class_blocks(self):
        # K = 3 exercises the multiclass vote/coding paths beyond binary
        from graphboost.data import NodeDataset, Split
        from graphboost.graph import SparseGraph
        rng = np.random.default_rng(5)
        n, k = 60, 3
        labels = np.repeat(np.arange(k), n // k)
        iu, ju = np.triu_indices(n, k=1)
        p = np.where(labels[iu] == labels[ju], 0.3, 0.02)
        keep = rng.random(len(iu)) < p
        graph = SparseGraph.from_edges(n, np.stack([iu[keep], ju[keep]], 1))
        features = np.eye(k)[labels] + 0.3 * rng.standard_normal((n, k))
        perm = rng.permutation(n)
        split = Split(train=np.sort(perm[:24]), val=[],
                      test=np.sort(perm[24:]))
        ds = NodeDataset(graph=graph, features=features,
                         labels=labels.astype(np.int64), split=split,
                         n_classes=k)
        model, trace = run_samme(ds, SammeConfig(
            n_rounds=4, hidden=(16,), learner=TrainConfig(epochs=50), seed=3))
        _, classes = predict(model, ds)
        acc = np.mean(classes[split.test] == labels[split.test])
        assert acc > 0.8, acc
        assert trace[-1]["train_err"] <= trace[0]["train_err"]


def hand_built_models():
    """Three models whose saved bytes are pinned below, one per aggregator
    kind, on an 8-node graph."""
    ds = synthesize_two_block(8, 0.9, 0.1, seed=0)
    op = base_operator(ds.graph)
    first = MlpParams(weights=[np.array(
        [[0.5, -1.25], [0.1, 2.0], [1e-17, 1.0 / 3.0]])])
    second = MlpParams(weights=[np.array([[1.5], [-0.2], [0.0]]),
                                np.array([[2.0 ** -30]])])
    third = MlpParams(weights=[np.array([[-0.5], [3.0], [0.25]])])
    models = {
        "fixed": EnsembleModel(
            mode="samme", n_classes=2, aggregator_kind="fixed",
            stages=[StageRecord(None, first, 0.75),
                    StageRecord(fixed(op), None, 0.0)]),
        "input_injection": EnsembleModel(
            mode="functional", n_classes=2, t_star=2,
            aggregator_kind="input_injection",
            stages=[StageRecord(None, third, 1.0),
                    StageRecord(injection(op, 0.3), third, 4.0 / 3.0,
                                WlcParams(alpha=3.0, beta=1.0)),
                    StageRecord(injection(op, 1), third, 2.5)]),
        "kta": EnsembleModel(
            mode="samme", n_classes=2, aggregator_kind="kta",
            flags={"skipped": [3]},
            stages=[StageRecord(None, first, 0.75),
                    StageRecord(kta(op, 3, np.array(
                        [1.0, 0.5, 0.25, 0.125, 1.0 / 7.0])), second, 1.5,
                        WlcParams(alpha=2.0, beta=0.5)),
                    StageRecord(kta(op), None, 0.0)]),
    }
    return ds, models


def assert_same_model(got, want):
    """Every field, aggregator coefficient and learner weight equal bit for
    bit."""
    for attr in ("mode", "n_classes", "t_star", "aggregator_kind", "flags"):
        assert getattr(got, attr) == getattr(want, attr), attr
    assert len(got.stages) == len(want.stages)
    for a, b in zip(got.stages, want.stages):
        assert (a.weight, a.wlc) == (b.weight, b.wlc)
        if b.aggregator is None:
            assert a.aggregator is None
        else:
            assert a.aggregator.powers == b.aggregator.powers
            assert a.aggregator.inject == b.aggregator.inject
            assert (np.asarray(a.aggregator.coefs, dtype=float).tobytes()
                    == np.asarray(b.aggregator.coefs, dtype=float).tobytes())
        if b.learner is None:
            assert a.learner is None
            continue
        assert [w.shape for w in a.learner.weights] == [
            w.shape for w in b.learner.weights]
        for wa, wb in zip(a.learner.weights, b.learner.weights):
            assert wa.dtype == wb.dtype == np.float64
            assert wa.tobytes() == wb.tobytes()


_V1_LEARNER = ('"learner": {"shapes": [[3, 1]], "weights": [[-0.5, 3.0, '
               '0.25]], "activation": "relu", "head": "identity", '
               '"bias": true}')

# model.json bytes of hand_built_models() as format version 1 wrote them:
# no format_version, weights as decimal lists, and a "head" key. No reader
# of this format is left
VERSION_1_BYTES = {
    "fixed": (
        '{"mode": "samme", "n_classes": 2, "t_star": null, '
        '"base": "augmented", "aggregator_kind": "fixed", "clip": 1e-07, '
        '"flags": {}, "stages": [{"aggregator": null, "weight": 0.75, '
        '"wlc": null, "learner": {"shapes": [[3, 2]], "weights": '
        '[[0.5, -1.25, 0.1, 2.0, 1e-17, 0.3333333333333333]], '
        '"activation": "relu", "head": "argmax", "bias": true}}, '
        '{"aggregator": {"kind": "fixed"}, "weight": 0.0, "wlc": null, '
        '"learner": null}]}'),
    "input_injection": (
        '{"mode": "functional", "n_classes": 2, "t_star": 2, '
        '"base": "augmented", "aggregator_kind": "input_injection", '
        '"clip": 1e-07, "flags": {}, "stages": [{"aggregator": null, '
        f'"weight": 1.0, "wlc": null, {_V1_LEARNER}}}, {{"aggregator": '
        '{"kind": "input_injection", "rho": 0.3}, '
        '"weight": 1.3333333333333333, "wlc": {"alpha": 3.0, '
        f'"beta": 1.0}}, {_V1_LEARNER}}}, {{"aggregator": {{"kind": '
        f'"input_injection", "rho": 1}}, "weight": 2.5, "wlc": null, '
        f'{_V1_LEARNER}}}]}}'),
    "kta": (
        '{"mode": "samme", "n_classes": 2, "t_star": null, '
        '"base": "augmented", "aggregator_kind": "kta", "clip": 1e-07, '
        '"flags": {"skipped": [3]}, "stages": [{"aggregator": null, '
        '"weight": 0.75, "wlc": null, "learner": {"shapes": [[3, 2]], '
        '"weights": [[0.5, -1.25, 0.1, 2.0, 1e-17, 0.3333333333333333]]'
        ', "activation": "relu", "head": "argmax", "bias": true}}, '
        '{"aggregator": {"kind": "kta", "weights": [1.0, 0.5, 0.25, '
        '0.125, 0.14285714285714285], "n_deg": 3}, "weight": 1.5, '
        '"wlc": {"alpha": 2.0, "beta": 0.5}, "learner": {"shapes": '
        '[[3, 1], [1, 1]], "weights": [[1.5, -0.2, 0.0], '
        '[9.313225746154785e-10]], "activation": "relu", '
        '"head": "identity", "bias": true}}, {"aggregator": {"kind": '
        '"kta", "weights": [1.0, 1.0, 1.0, 1.0, 1.0], "n_deg": 3}, '
        '"weight": 0.0, "wlc": null, "learner": null}]}'),
}

_V2_LEARNER = ('"learner": {"shapes": [[3, 1]], "weights": '
               '["AAAAAAAA4L8AAAAAAAAIQAAAAAAAANA/"], "activation": "relu", '
               '"bias": true}')

# the same models in format version 2: each weight is the base64 of its
# row-major little-endian float64 bytes ("AAAAAAAA4D8" is 0.5)
VERSION_2_BYTES = {
    "fixed": (
        '{"format_version": 2, "mode": "samme", "n_classes": 2, '
        '"t_star": null, "base": "augmented", "aggregator_kind": "fixed", '
        '"clip": 1e-07, "flags": {}, "stages": [{"aggregator": null, '
        '"weight": 0.75, "wlc": null, "learner": {"shapes": [[3, 2]], '
        '"weights": ["AAAAAAAA4D8AAAAAAAD0v5qZmZmZmbk/AAAAAAAAAECX1EZG9Q5nPF'
        'VVVVVVVdU/"], "activation": "relu", "bias": true}}, '
        '{"aggregator": {"kind": "fixed"}, "weight": 0.0, "wlc": null, '
        '"learner": null}]}'),
    "input_injection": (
        '{"format_version": 2, "mode": "functional", "n_classes": 2, '
        '"t_star": 2, "base": "augmented", '
        '"aggregator_kind": "input_injection", "clip": 1e-07, "flags": {}, '
        '"stages": [{"aggregator": null, '
        f'"weight": 1.0, "wlc": null, {_V2_LEARNER}}}, {{"aggregator": '
        '{"kind": "input_injection", "rho": 0.3}, '
        '"weight": 1.3333333333333333, "wlc": {"alpha": 3.0, '
        f'"beta": 1.0}}, {_V2_LEARNER}}}, {{"aggregator": {{"kind": '
        f'"input_injection", "rho": 1}}, "weight": 2.5, "wlc": null, '
        f'{_V2_LEARNER}}}]}}'),
    "kta": (
        '{"format_version": 2, "mode": "samme", "n_classes": 2, '
        '"t_star": null, "base": "augmented", "aggregator_kind": "kta", '
        '"clip": 1e-07, "flags": {"skipped": [3]}, "stages": '
        '[{"aggregator": null, "weight": 0.75, "wlc": null, "learner": '
        '{"shapes": [[3, 2]], "weights": ["AAAAAAAA4D8AAAAAAAD0v5qZmZmZmbk/'
        'AAAAAAAAAECX1EZG9Q5nPFVVVVVVVdU/"], "activation": "relu", '
        '"bias": true}}, {"aggregator": {"kind": "kta", "weights": '
        '[1.0, 0.5, 0.25, 0.125, 0.14285714285714285], "n_deg": 3}, '
        '"weight": 1.5, "wlc": {"alpha": 2.0, "beta": 0.5}, "learner": '
        '{"shapes": [[3, 1], [1, 1]], "weights": '
        '["AAAAAAAA+D+amZmZmZnJvwAAAAAAAAAA", "AAAAAAAAED4="], '
        '"activation": "relu", "bias": true}}, {"aggregator": {"kind": '
        '"kta", "weights": [1.0, 1.0, 1.0, 1.0, 1.0], "n_deg": 3}, '
        '"weight": 0.0, "wlc": null, "learner": null}]}'),
}


class TestSerialization:
    def test_model_round_trip_bit_for_bit(self, tmp_path):
        ds = synthesize_two_block(20, 0.8, 0.1, seed=0)
        cfg = SammeConfig(n_rounds=3, hidden=(6,),
                          learner=TrainConfig(epochs=20),
                          aggregator=AggregatorSpec(kind="kta"), seed=2)
        model, _ = run_samme(ds, cfg)
        blob = model_to_json(model)
        rebuilt = model_from_json(json.loads(json.dumps(blob)), ds.graph)
        _, direct = predict(model, ds)
        _, replayed = predict(rebuilt, ds)
        assert np.array_equal(direct, replayed)
        s1 = replay_scores(model, ds)[-1]
        s2 = replay_scores(rebuilt, ds)[-1]
        assert s1.tobytes() == s2.tobytes()

    def test_saved_bytes_unchanged(self, tmp_path):
        ds, models = hand_built_models()
        path = tmp_path / "model.json"
        for name, model in models.items():
            save_model(model, path)
            assert path.read_text() == VERSION_2_BYTES[name], name

    def test_version_2_files_read_bit_for_bit(self):
        ds, models = hand_built_models()
        for name, model in models.items():
            blob = json.loads(VERSION_2_BYTES[name])
            assert_same_model(model_from_json(blob, ds.graph), model)

    @pytest.mark.parametrize("name", sorted(VERSION_1_BYTES))
    def test_version_1_files_refused(self, name):
        # a file without format_version is refused by that key, before any
        # of its other fields is read
        ds, _ = hand_built_models()
        with pytest.raises(ValueError, match="^model format_version None"):
            model_from_json(json.loads(VERSION_1_BYTES[name]), ds.graph)

    def test_other_learner_refused(self):
        # the kta model's second learner as pinned before the learner had
        # one architecture: sigmoid, with no bias row
        ds, _ = hand_built_models()
        blob = json.loads(VERSION_2_BYTES["kta"])
        blob["stages"][1]["learner"].update(activation="sigmoid", bias=False)
        with pytest.raises(ValueError, match="'sigmoid' with bias False"):
            model_from_json(blob, ds.graph)

    @pytest.mark.parametrize("key,value", [("base", "normalized"),
                                           ("clip", 1e-6)])
    def test_other_base_or_clip_refused(self, key, value):
        # the input-injection model as older releases could write it: on
        # the normalized base, or with another probability floor
        ds, _ = hand_built_models()
        blob = json.loads(VERSION_2_BYTES["input_injection"])
        blob[key] = value
        with pytest.raises(ValueError, match=f"{value!r}"):
            model_from_json(blob, ds.graph)

    def test_round_trip_extreme_values(self, tmp_path):
        ds = synthesize_two_block(8, 0.9, 0.1, seed=0)
        # a Fortran-ordered matrix checks that the bytes are row-major
        first = np.asfortranarray(
            [[-0.0, 5e-324], [1e308, 1.0 / 3.0], [-1e308, -5e-324]])
        learner = MlpParams(weights=[first, np.array([[1.0 / 3.0], [-0.0]])])
        model = EnsembleModel(mode="samme", n_classes=2,
                              stages=[StageRecord(None, learner, 0.5)])
        path = tmp_path / "model.json"
        save_model(model, path)
        loaded = load_model(path, ds.graph)
        for got, want in zip(loaded.stages[0].learner.weights,
                             learner.weights):
            assert got.shape == want.shape
            assert got.tobytes() == np.ascontiguousarray(want).tobytes()
        assert np.signbit(loaded.stages[0].learner.weights[0][0, 0])

    def test_two_saves_write_identical_bytes(self, tmp_path):
        ds, models = hand_built_models()
        save_model(models["kta"], tmp_path / "a.json")
        save_model(models["kta"], tmp_path / "b.json")
        assert (tmp_path / "a.json").read_bytes() == (
            tmp_path / "b.json").read_bytes()

    def test_loaded_weights_writable(self, tmp_path):
        ds, models = hand_built_models()
        blob = json.loads(json.dumps(model_to_json(models["kta"])))
        loaded = model_from_json(blob, ds.graph)
        for w in loaded.stages[1].learner.weights:
            assert w.flags.writeable and w.flags.c_contiguous
            assert w.dtype == np.float64
            w += 1.0

    def test_trace_csv_round_trip(self, tmp_path):
        ds = synthesize_two_block(16, 0.8, 0.1, seed=3)
        _, trace = run_functional_gb(ds, small_functional_cfg(n_rounds=2))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert [r["t"] for r in back] == [r["t"] for r in trace]
        for a, b in zip(trace, back):
            assert b["train_loss"] == a["train_loss"]  # repr round trip
            assert b["wlc_pass"] == a["wlc_pass"]


# SHA-256 of (model.json, trace.csv) as the trainers write them. Every run
# uses seed 1; the two SAMME KTA runs skip rounds 3 and 4. Taken when each
# learner fit became one full-batch step per epoch on the train rows in
# their given order, and each fitted KTA polynomial was scaled to q(1) = 1
TRAINED_BYTES = {
    "functional-fixed": (
        "a1306c0c4879de4d40b93890b0284e3b97acf3c04b2d24fb614caf158539ea2e",
        "da0a31639d3682af21e31b3172504e0b2f311e4d3f530c72766361dee4bcaeb2"),
    "samme-fixed": (
        "a5eae0ff5096f54746ea628f2cf5e4f334d9d19525d3379be83db15980594ed0",
        "42e189aee1e6141e53df8040935a804207bd4665e7743dd369d59aa204d9665a"),
    "functional-input_injection": (
        "6329a7994e936a569ed1a05202bd65edd5f735316ca1f5ded2d37ae56b11da5d",
        "2f8deb51ed6e14c5d776d6e3ef6b3f17afd47fb24989fac916ada3a3379d978b"),
    "samme-input_injection": (
        "a3183f70e5cc29c443b7d34a9af2510cf22818c29a27b8250c1a147fc950e776",
        "4bd820c76fb0e0e97011d9cd8b64390bd60552532a0335e1c98daa2cbc9b9ef4"),
    "functional-kta": (
        "fd6656ac45b41ee81ec7758107f2b729ef38af61a328f69c650dc964b00ced09",
        "dcda41e13535ac6fa8a068cf91b628621e4fbfc9664a4c532f0aecadd1c6f182"),
    "samme-kta": (
        "b8abb5ee90826689bfdb1a56b627e0bfa74d20d87726046a5183f84a7ddd5047",
        "bff7e9904e91e40b19e0c2b7d8cc05b43d6ae35f9eb8bd794df7c3e18e6df588"),
    "samme-kta-skips": (
        "cb76399fc3b4079625845fcbd5819e0ef7eb4cb20769405a0fcd17c92be9762f",
        "0cee401956bc4a8d7af2eb132d3f189310a5df6f0b29959e6ec8003e60e2a96c"),
}


def trained_bytes_cases():
    for kind in ("fixed", "input_injection", "kta"):
        for mode in ("functional", "samme"):
            yield f"{mode}-{kind}", mode, kind, 5
    yield "samme-kta-skips", "samme", "kta", 6


class TestTrainedBytes:
    @pytest.mark.parametrize("name,mode,kind,n_rounds",
                             [pytest.param(*case, id=case[0])
                              for case in trained_bytes_cases()])
    def test_trainer_output_bytes_pinned(self, tmp_path, name, mode, kind,
                                         n_rounds):
        import hashlib

        ds = synthesize_two_block(40, 0.5, 0.2, seed=3, noise=1.0)
        common = dict(n_rounds=n_rounds, hidden=(4,),
                      learner=TrainConfig(epochs=5),
                      aggregator=AggregatorSpec(kind=kind), seed=1)
        if mode == "functional":
            model, trace = run_functional_gb(ds, FunctionalGBConfig(**common))
        else:
            model, trace = run_samme(ds, SammeConfig(**common))
        save_model(model, tmp_path / "model.json")
        write_trace_csv(trace, tmp_path / "trace.csv")
        got = tuple(hashlib.sha256((tmp_path / f).read_bytes()).hexdigest()
                    for f in ("model.json", "trace.csv"))
        assert got == TRAINED_BYTES[name]
        # and a load gives back a model that saves to the same bytes
        loaded = load_model(tmp_path / "model.json", ds.graph)
        save_model(loaded, tmp_path / "again.json")
        assert ((tmp_path / "again.json").read_bytes()
                == (tmp_path / "model.json").read_bytes())

    @pytest.mark.parametrize("name,mode,kind,n_rounds",
                             [pytest.param(*case, id=case[0])
                              for case in trained_bytes_cases()
                              if case[1] != "functional"])
    def test_samme_stage_wlc_is_the_trace_fit(self, tmp_path, name, mode,
                                              kind, n_rounds):
        # model.json keeps each stage's (alpha, beta) as trace.csv records
        # it, and null where the trace has no fit
        ds = synthesize_two_block(40, 0.5, 0.2, seed=3, noise=1.0)
        model, trace = run_samme(ds, SammeConfig(
            n_rounds=n_rounds, hidden=(4,), learner=TrainConfig(epochs=5),
            aggregator=AggregatorSpec(kind=kind), seed=1))
        save_model(model, tmp_path / "model.json")
        write_trace_csv(trace, tmp_path / "trace.csv")
        stages = json.loads((tmp_path / "model.json").read_text())["stages"]
        rows = read_trace_csv(tmp_path / "trace.csv")
        assert len(stages) == len(rows)
        for stage, row in zip(stages, rows):
            if np.isnan(row["alpha"]):
                assert stage["wlc"] is None and np.isnan(row["beta"])
            else:
                assert stage["wlc"] == {"alpha": row["alpha"],
                                        "beta": row["beta"]}
        assert any(stage["wlc"] for stage in stages)


class TestFineTune:
    def test_zero_epochs_identity(self):
        ds = synthesize_two_block(16, 0.9, 0.1, seed=0)
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=2, hidden=(4,), learner=TrainConfig(epochs=20),
            seed=2))
        tuned, info = fine_tune(model, ds, FineTuneConfig(epochs=0))
        assert tuned is model
        assert info["train_err"][0] == info["train_err"][1]

    def test_empty_history_rejected(self):
        ds = synthesize_two_block(8, 0.9, 0.1, seed=1)
        empty = EnsembleModel(mode="samme", n_classes=2, stages=[])
        with pytest.raises(ValueError, match="empty"):
            fine_tune(empty, ds, FineTuneConfig(epochs=1))

    def test_perfect_fit_stays_perfect(self):
        ds = synthesize_two_block(24, 1.0, 0.0, seed=2, noise=0.02)
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=2, hidden=(8,),
            learner=TrainConfig(epochs=150, lr=0.05, weight_decay=0.0),
            seed=4))
        _, classes = predict(model, ds)
        assert np.mean(classes[ds.split.train] != ds.labels[ds.split.train]) == 0.0
        tuned, info = fine_tune(model, ds, FineTuneConfig(
            epochs=5, lr=1e-4))
        assert info["train_err"][1] <= info["train_err"][0] + 1e-6

    def test_loss_decreases_on_underfit_model(self):
        ds = synthesize_two_block(30, 0.9, 0.05, seed=5)
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=3, hidden=(6,), learner=TrainConfig(epochs=3),
            seed=7))
        from graphboost.boost import _stack_replay, _stack_scores
        from graphboost.losses import softmax_ce
        tr = ds.split.train

        def loss(m):
            s = _stack_scores(m, _stack_replay(m, ds, tr)[0], soft=True)[0][-1]
            return float(np.mean(softmax_ce(s, ds.labels[tr])))

        before = loss(model)
        tuned, _ = fine_tune(model, ds, FineTuneConfig(epochs=30, lr=1e-2))
        assert loss(tuned) < before

    def test_divergence_leaves_input_untouched(self):
        ds = synthesize_two_block(16, 0.9, 0.1, seed=0)
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=2, hidden=(4,), learner=TrainConfig(epochs=5),
            seed=2))
        model.stages[0].learner.weights[0][0, 0] = np.nan
        flags = dict(model.flags)
        tuned, info = fine_tune(model, ds, FineTuneConfig(epochs=2))
        assert model.flags == flags
        assert tuned is not model
        assert tuned.flags == {**flags, "fine_tune_diverged": True}
        assert info["train_err"][0] == info["train_err"][1]

    def test_kta_weights_actually_move(self):
        # needs an imperfectly fitted model: a saturated ensemble has
        # near-zero loss gradient and nothing for fine-tuning to do
        ds = synthesize_two_block(40, 0.7, 0.25, seed=8, noise=0.6)
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=3, hidden=(16,), learner=TrainConfig(epochs=8),
            aggregator=AggregatorSpec(kind="kta"), seed=10))
        assert len(model.stages) == 3, model.flags
        kta_before = [st.aggregator.coefs.copy() for st in model.stages[1:]]
        tuned, _ = fine_tune(model, ds, FineTuneConfig(epochs=10, lr=1e-2))
        kta_after = [st.aggregator.coefs for st in tuned.stages[1:]]
        assert kta_before and any(
            not np.allclose(a, b) for a, b in zip(kta_before, kta_after))


def full_graph_adam(model, ds, epochs, lr):
    """Reference fine-tune: textbook Adam on the softened train loss with
    every learner on all N rows, the adjoint of the representation chain
    carried through every stage, and the KTA weight gradients taken against
    dense powers of the operator applied to each stage's input."""
    from dataclasses import replace

    from graphboost.boost import StageRecord, stage_representations
    from graphboost.losses import softmax, surrogate_grad
    from graphboost.mlp import backward

    stages = [StageRecord(st.aggregator,
                          st.learner.copy() if st.learner else None,
                          st.weight) for st in model.stages]
    work = EnsembleModel(mode=model.mode, n_classes=model.n_classes,
                         stages=stages, t_star=model.t_star,
                         aggregator_kind=model.aggregator_kind)
    kta_ids = (range(1, len(stages)) if model.aggregator_kind == "kta"
               else ())
    for s in kta_ids:  # Adam steps the copied coefficients in place
        agg = stages[s].aggregator
        stages[s].aggregator = replace(agg, coefs=agg.coefs.astype(float))
    params = [w for st in stages if st.learner for w in st.learner.weights]
    params += [stages[s].aggregator.coefs for s in kta_ids]
    opt = AllocatingAdam(lr, 0.0, [p.shape for p in params])
    for _ in range(epochs):
        reps = stage_representations(work, ds)
        outs, caches = [], []
        score = 0.0
        for st, rep in zip(work.stages, reps):
            out, cache = (forward(st.learner, rep) if st.learner
                          else (None, None))
            outs.append(out)
            caches.append(cache)
            if out is None:
                continue
            if work.mode == "functional":
                score = score + st.weight * out[:, 0]
            else:
                score = score + st.weight * softmax(out)
        dscore = surrogate_grad(score, ds.labels, ds.split)
        adjoint = [np.zeros((ds.n, ds.n_features)) for _ in reps]
        grads = []
        for s, (st, out) in enumerate(zip(work.stages, outs)):
            if out is None:
                continue
            if work.mode == "functional":
                dlogits = st.weight * dscore[:, None]
            else:
                p = softmax(out)
                dlogits = st.weight * p * (
                    dscore - (dscore * p).sum(axis=1, keepdims=True))
            stage_grads, dx = backward(st.learner, caches[s], dlogits)
            grads += stage_grads
            adjoint[s] += dx[:, :ds.n_features]
        kta_grads = {}
        for s in reversed(kta_ids):
            agg = work.stages[s].aggregator
            # the stage's aggregation as a dense matrix
            p = agg.operator.matrix.toarray()
            powers = [np.eye(ds.n)] + [np.linalg.matrix_power(p, 2 ** kk)
                                       for kk in range(len(agg.coefs) - 1)]
            kta_grads[s] = np.array([np.vdot(adjoint[s], pk @ reps[s - 1])
                                     for pk in powers])
            a = sum(w * pk for w, pk in zip(agg.coefs, powers))
            adjoint[s - 1] += a.T @ adjoint[s]
        opt.step(params, grads + [kta_grads[s] for s in kta_ids])
    return work


def unsaturated_run(kind, mode):
    """(dataset, model) of a short run on a noisy 40-node graph with a
    validation split; its train loss has gradients large enough that
    fine-tuning moves every weight."""
    from graphboost.data import NodeDataset, Split
    base = synthesize_two_block(40, 0.7, 0.25, seed=8, noise=0.6)
    ids = np.random.default_rng(0).permutation(base.n)
    ds = NodeDataset(graph=base.graph, features=base.features,
                     labels=base.labels, n_classes=2,
                     split=Split(train=ids[:14], val=ids[14:24],
                                 test=ids[24:]))
    spec = AggregatorSpec(kind=kind)
    learner = TrainConfig(epochs=4)
    if mode == "functional":
        model, _ = run_functional_gb(ds, FunctionalGBConfig(
            n_rounds=2, hidden=(6,), learner=learner, aggregator=spec,
            seed=10))
    else:
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=3, hidden=(6,), learner=learner, aggregator=spec,
            seed=10))
    return ds, model


class TestFineTuneEquivalence:
    """Fine-tuning on the train and validation rows gives the weights of a
    full-graph reference, and the errors ``predict`` gives."""

    @pytest.mark.parametrize("kind", ["fixed", "input_injection", "kta"])
    @pytest.mark.parametrize("mode", ["functional", "samme"])
    def test_matches_full_graph_sgd(self, kind, mode):
        ds, model = unsaturated_run(kind, mode)
        epochs, lr = 3, 0.05
        tuned, info = fine_tune(model, ds, FineTuneConfig(
            epochs=epochs, lr=lr))
        ref = full_graph_adam(model, ds, epochs, lr)

        moved = 0.0
        for orig, got, want in zip(model.stages, tuned.stages, ref.stages):
            if got.learner:
                for a, b, c in zip(orig.learner.weights, got.learner.weights,
                                   want.learner.weights):
                    np.testing.assert_allclose(b, c, rtol=0, atol=1e-12)
                    moved = max(moved, float(np.abs(b - a).max()))
            if kind == "kta" and got.aggregator is not None:
                np.testing.assert_allclose(got.aggregator.coefs,
                                           want.aggregator.coefs,
                                           rtol=0, atol=1e-12)
        assert moved > 1e-6

        tr, va = ds.split.train, ds.split.val
        for i, m in enumerate((model, tuned)):
            _, classes = predict(m, ds)
            assert info["train_err"][i] == np.mean(classes[tr] != ds.labels[tr])
            assert info["val_err"][i] == np.mean(classes[va] != ds.labels[va])


# SHA-256 of (the fine-tuned model's save_model bytes, the trained model's
# predict scores, the fine-tuned model's predict scores) for each
# unsaturated_run. Taken when each learner fit became one full-batch step
# per epoch on the train rows in their given order, and each fitted KTA
# polynomial was scaled to q(1) = 1
FINE_TUNE_BYTES = {
    "functional-fixed": (
        "1af2df066576fa5d634b9a28cc8978daf3bbcbaa328f1b473812f90fd64df88e",
        "cc74fb72fa5c597274b66aea36e86d0d9de0c213e1ba149ca01185d3e48fa3a4",
        "676e29edd201ec51e497fb015fdca45519ae7b14daf10d29e8fcbb98b51dcd4d"),
    "samme-fixed": (
        "23796326c4597b535497a963ff5ceed220cf65a13678a7d1a9797b6b782bbfa6",
        "a6c8ffcac47bbf44e47a1e1b96826978f31522305f19a8416897cb9c1cd7983f",
        "2d04928bb0d1d3c7875d7c604da0c69e50302358ac4794c747e953c133e353d3"),
    "functional-input_injection": (
        "fbddbf08b0ec544be9d5bbc0650a8888526cb49a1dd481a843577f0e71d742b9",
        "34d2e874e69fe423a787b9f9d3705e1ea42123ed861fccca72c2c2cf1a404270",
        "bb6aae3db8bdc7d704171bf80fd2a7d7808c7d7a906e82d77b09e9cfe589a953"),
    "samme-input_injection": (
        "d6ace37830ecae78168ee0cf037956ab9316dc431c5c875fa90deaeb509aa4bc",
        "75d87e4c07e4ae6a2383423bc77041e7ac31388f1c15792a9e8311c3fc0b00c0",
        "70861760461fed59bbbcd5f5729dbfcf16fd5538fe435e9906e1795e3ad8c94e"),
    "functional-kta": (
        "a81b8a6f20872dc06177e7fc5b50bbf3c4810d40b3d53285770888ec9fb948dd",
        "7b82c06cc283c7b3efcde584f1acb4777fe4d00a294d1ae46a4da9f4fe94d597",
        "7936b9d0f9099f751b539be4eef08695f444c18c82719227bafa9fb894142ed0"),
    "samme-kta": (
        "9dc900ab1cdc688d57b668815b94f294b80040a2b923e4ae36fa34aa6abcb371",
        "a6c8ffcac47bbf44e47a1e1b96826978f31522305f19a8416897cb9c1cd7983f",
        "2d04928bb0d1d3c7875d7c604da0c69e50302358ac4794c747e953c133e353d3"),
}


class TestFineTuneBytes:
    @pytest.mark.parametrize("kind", ["fixed", "input_injection", "kta"])
    @pytest.mark.parametrize("mode", ["functional", "samme"])
    def test_fine_tune_and_predict_bytes_pinned(self, tmp_path, kind, mode):
        import hashlib

        ds, model = unsaturated_run(kind, mode)
        tuned, _ = fine_tune(model, ds, FineTuneConfig(epochs=3, lr=1e-2))
        save_model(tuned, tmp_path / "tuned.json")
        got = tuple(hashlib.sha256(b).hexdigest() for b in (
            (tmp_path / "tuned.json").read_bytes(),
            predict(model, ds)[0].tobytes(),
            predict(tuned, ds)[0].tobytes()))
        assert got == FINE_TUNE_BYTES[f"{mode}-{kind}"]


def noisy_run(kind, mode):
    """(dataset, model, trace) of a short run on a noisy 40-node graph."""
    ds = synthesize_two_block(40, 0.7, 0.25, seed=8, noise=0.6)
    spec = AggregatorSpec(kind=kind, rho=0.3)
    learner = TrainConfig(epochs=4)
    if mode == "functional":
        model, trace = run_functional_gb(ds, FunctionalGBConfig(
            n_rounds=3, hidden=(6,), learner=learner, aggregator=spec,
            seed=10))
    else:
        model, trace = run_samme(ds, SammeConfig(
            n_rounds=3, hidden=(6,), learner=learner, aggregator=spec,
            seed=10))
    return ds, model, trace


class TestPredict:
    def test_functional_tstar_one(self):
        ds = synthesize_two_block(16, 0.9, 0.1, seed=0)
        model, _ = run_functional_gb(ds, small_functional_cfg(n_rounds=2))
        model.t_star = 1
        yhat, _ = predict(model, ds)
        b1 = forward(model.stages[0].learner, ds.features)[0][:, 0]
        assert np.allclose(yhat, model.stages[0].weight * b1)

    def test_input_injection_variant_runs_and_replays(self):
        ds = synthesize_two_block(20, 0.8, 0.1, seed=1)
        cfg = SammeConfig(
            n_rounds=3, hidden=(4,), learner=TrainConfig(epochs=15),
            aggregator=AggregatorSpec(kind="input_injection", rho=0.7),
            seed=3)
        model, trace = run_samme(ds, cfg)
        assert len(trace) == len(model.stages)
        _, classes = predict(model, ds)
        assert classes.shape == (20,)

    def test_input_injection_doubles_learner_channels(self):
        # the raw features ride along, so learners see 2C inputs
        from graphboost.boost import stage_representations
        ds = synthesize_two_block(12, 0.9, 0.1, seed=4)
        cfg = SammeConfig(
            n_rounds=2, hidden=(4,), learner=TrainConfig(epochs=10),
            aggregator=AggregatorSpec(kind="input_injection", rho=0.5),
            seed=6)
        model, _ = run_samme(ds, cfg)
        reps = stage_representations(model, ds)
        assert all(r.shape == (12, 4) for r in reps)
        assert np.array_equal(reps[0][:, 2:], ds.features)
        assert np.array_equal(reps[1][:, 2:], ds.features)

    def test_functional_with_kta_aggregator(self):
        ds = synthesize_two_block(30, 0.8, 0.1, seed=7)
        cfg = FunctionalGBConfig(
            n_rounds=3, hidden=(8,),
            learner=TrainConfig(epochs=30, lr=0.02, weight_decay=0.0),
            aggregator=AggregatorSpec(kind="kta"), seed=8)
        model, trace = run_functional_gb(ds, cfg)
        assert all(isinstance(st.aggregator, Polynomial)
                   and st.aggregator.powers == (0, 1, 2, 4, 8)
                   for st in model.stages[1:])
        # fitted aggregation weights moved off their all-ones start
        assert any(not np.allclose(st.aggregator.coefs, 1.0)
                   for st in model.stages[1:])
        scores = replay_scores(model, ds)
        assert len(scores) == len(model.stages)

    @pytest.mark.parametrize("kind", ["fixed", "input_injection", "kta"])
    @pytest.mark.parametrize("mode", ["functional", "samme"])
    def test_reproduces_trace_errors(self, kind, mode):
        # predict on a freshly trained model gives exactly the errors the
        # trace recorded for the stage it predicts from: t* for functional,
        # the last stage for SAMME
        ds, model, trace = noisy_run(kind, mode)
        row = trace[(model.t_star or len(trace)) - 1]
        _, classes = predict(model, ds)
        wrong = classes != ds.labels
        assert row["train_err"] == np.mean(wrong[ds.split.train])
        assert row["test_err"] == np.mean(wrong[ds.split.test])

    @pytest.mark.parametrize("kind", ["fixed", "input_injection", "kta"])
    @pytest.mark.parametrize("mode", ["functional", "samme"])
    def test_streamed_equals_materialised(self, kind, mode):
        from graphboost.boost import stage_representations
        ds, model, _ = noisy_run(kind, mode)
        scores, classes = predict(model, ds)
        reps = stage_representations(model, ds)
        want_scores, want_classes = predict(model, ds, reps)
        assert np.array_equal(scores, want_scores)
        assert np.array_equal(classes, want_classes)
        streamed = replay_scores(model, ds)
        for a, b in zip(streamed, replay_scores(model, ds, reps)):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("kind", ["fixed", "kta"])
    def test_skipped_first_stage_scores_zeros(self, kind):
        # the placeholder run_samme records when round 1 is rejected twice:
        # no learner and weight 0, so the score by stage starts from zeros
        from graphboost.boost import stage_representations
        ds, model, _ = noisy_run(kind, "samme")
        model.stages[0] = StageRecord(None, None, 0.0)
        model.flags["skipped"] = [1]
        train = ds.split.train
        streamed = replay_scores(model, ds)
        on_train = replay_scores(
            model, ds, stage_representations(model, ds, train))
        assert np.array_equal(streamed[0], np.zeros((ds.n, ds.n_classes)))
        assert np.array_equal(on_train[0],
                              np.zeros((len(train), ds.n_classes)))
        assert len(streamed) == len(on_train) == len(model.stages)
        for a, b in zip(streamed, on_train):
            assert np.array_equal(a[train], b)
        tuned, info = fine_tune(model, ds, FineTuneConfig(epochs=1))
        assert tuned.stages[0].learner is None
        assert "fine_tune_diverged" not in tuned.flags
        assert np.isfinite(info["train_err"]).all()

    def test_streamed_predict_holds_one_stage_input(self):
        # an injection chain of T = 8 stages: streamed, predict peaks below
        # two learner inputs (N x 2C each); materialised, it holds all T
        import tracemalloc

        from graphboost.boost import stage_representations
        from graphboost.data import NodeDataset, Split
        from graphboost.graph import SparseGraph, base_operator
        n, c, k, n_stages = 400, 200, 3, 8
        rng = np.random.default_rng(0)
        graph = SparseGraph.from_edges(
            n, [p for p in rng.integers(0, n, size=(1200, 2)) if p[0] != p[1]])
        ds = NodeDataset(graph=graph, features=rng.random((n, c)),
                         labels=rng.integers(0, k, size=n), n_classes=k,
                         split=Split(train=np.arange(30), val=[],
                                     test=np.arange(30, n)))
        op = base_operator(graph)
        stages = [StageRecord(None if s == 0 else injection(op, 0.5),
                              init_mlp((2 * c, 8, k), seed=s), 1.0)
                  for s in range(n_stages)]
        model = EnsembleModel(mode="samme", n_classes=k, stages=stages,
                              aggregator_kind="input_injection")
        stage_input = n * 2 * c * 8

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(lambda: predict(model, ds)) < 2 * stage_input
        materialised = peak(
            lambda: predict(model, ds, stage_representations(model, ds)))
        assert materialised > (n_stages - 1) * stage_input

    @pytest.mark.parametrize("mode", ["functional", "samme"])
    def test_training_drops_each_stage_input(self, mode):
        # an injection chain of T = 8 stages over 30 train nodes, so the
        # advance and not the learner fit sets the peak: dropping each
        # stage's learner input before the chain advances peaks near 3.6
        # feature matrices (N x C), holding it through the advance near 5.2
        import tracemalloc

        from graphboost.data import NodeDataset, Split
        from graphboost.graph import SparseGraph
        n, c, n_stages = 600, 200, 8
        rng = np.random.default_rng(0)
        graph = SparseGraph.from_edges(
            n, [p for p in rng.integers(0, n, size=(1800, 2)) if p[0] != p[1]])
        ds = NodeDataset(graph=graph, features=rng.random((n, c)),
                         labels=rng.integers(0, 2, size=n), n_classes=2,
                         split=Split(train=np.arange(30), val=[],
                                     test=np.arange(30, n)))
        common = dict(hidden=(4,), learner=TrainConfig(epochs=2),
                      aggregator=AggregatorSpec(kind="input_injection"))
        tracemalloc.start()
        try:
            if mode == "functional":
                run_functional_gb(ds, FunctionalGBConfig(
                    n_rounds=n_stages - 1, **common))
            else:
                run_samme(ds, SammeConfig(n_rounds=n_stages, **common))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.4 * n * c * 8
