import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphboost.aggregate import Polynomial, fixed, injection, kta
from graphboost.boost import (AggregatorSpec, BoostConfig, EnsembleModel,
                              FineTuneConfig, StageRecord,
                              WlcParams, fine_tune, load_model,
                              model_from_json, model_to_json, predict,
                              read_trace_csv, replay_scores,
                              run_functional_gb, run_samme,
                              samme_model_weight, save_model,
                              stage_inputs, wlc_fit, write_trace_csv)
from graphboost.data import synthesize_two_block
from graphboost.graph import base_operator
from graphboost.mlp import MlpParams, TrainConfig, forward, init_mlp
from graphboost.theory import build_theory_report
from reference import (AllocatingAdam, curve_shape, weighted_error_form,
                       wlc_check)


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
    return BoostConfig(
        n_rounds=n_rounds, hidden=(8,),
        learner=TrainConfig(epochs=30, lr=0.02, weight_decay=0.0),
        seed=seed, **kw)


class TestFunctionalGB:
    def test_t1_only_first_stage(self):
        ds = synthesize_two_block(16, 0.9, 0.1, seed=0)
        cfg = small_functional_cfg(n_rounds=1)
        model, trace, _ = run_functional_gb(ds, cfg)
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
        model, trace, _ = run_functional_gb(ds, small_functional_cfg(
            n_rounds=6, seed=3))
        errs = [r["train_err"] for r in trace]
        assert all(b <= a + 1e-12 for a, b in zip(errs, errs[1:]))
        assert all(r["cos_theta"] > 0 for r in trace)

    def test_theorem_bound_on_clean_run(self):
        ds = synthesize_two_block(40, 0.8, 0.05, seed=4)
        model, trace, _ = run_functional_gb(ds, small_functional_cfg(
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
        model, trace, _ = run_functional_gb(ds, small_functional_cfg(
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
        _, trace, _ = run_functional_gb(ds, small_functional_cfg(
            n_rounds=5, seed=9))
        for row in trace[1:]:
            assert (row["cos_theta"] > 0) == bool(row["wlc_pass"])

    def test_functional_with_input_injection(self):
        ds = synthesize_two_block(20, 0.8, 0.1, seed=14)
        cfg = BoostConfig(
            n_rounds=3, hidden=(8,),
            learner=TrainConfig(epochs=25, lr=0.02, weight_decay=0.0),
            aggregator=AggregatorSpec(kind="input_injection", rho=0.6),
            seed=15)
        model, trace, _ = run_functional_gb(ds, cfg)
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
        cfg = BoostConfig(n_rounds=10, hidden=(8,),
                          learner=TrainConfig(epochs=10), seed=17)
        model, trace, _ = run_samme(ds, cfg)
        write_trace_csv(trace, tmp_path / "trace.csv")
        prefix, risen = curve_shape(read_trace_csv(tmp_path / "trace.csv"))
        assert prefix >= 5
        assert not risen


class TestCurveShape:
    """The criterion-2 shape check on hand-built traces."""

    @staticmethod
    def trace(cos, train_loss, test_err):
        return [{"cos_theta": c, "train_loss": a, "test_err": b}
                for c, a, b in zip(cos, train_loss, test_err)]

    def test_rise_beyond_the_band_in_the_prefix_fails(self):
        rows = self.trace([0.5, 0.4, 0.3, 0.2], [1.0, 0.8, 0.86, 0.7],
                          [0.4, 0.3, 0.3, 0.2])
        assert curve_shape(rows) == (4, ["train_loss"])

    def test_rise_after_the_first_non_positive_angle_passes(self):
        rows = self.trace([0.5, 0.4, 0.0, 0.3], [1.0, 0.8, 0.7, 5.0],
                          [0.4, 0.3, 0.9, 0.9])
        assert curve_shape(rows) == (2, [])

    def test_rise_of_exactly_the_band_passes(self):
        loss, err = [1.0, 0.8], [0.4, 0.3]
        loss.append(loss[-1] + 0.05 * loss[0])
        err.append(err[-1] + 0.05 * err[0])
        rows = self.trace([0.5, 0.4, 0.3], loss, err)
        assert curve_shape(rows) == (3, [])
        rows[2]["test_err"] = np.nextafter(err[-1], 1.0)
        assert curve_shape(rows) == (3, ["test_err"])


class TestSammeFormulas:
    def test_rejection_threshold_weight_is_zero(self):
        for k in (2, 3, 7):
            assert samme_model_weight(1.0 - 1.0 / k, k) == pytest.approx(
                0.0, abs=1e-9)

    def test_quarter_error_binary(self):
        assert samme_model_weight(0.25, 2) == pytest.approx(np.log(3.0))


def rejecting_run(kind):
    """(dataset, model, trace) of a six-round SAMME run that rejects
    rounds 2, 3, 5 and 6 (``fixed``) or 2, 4 and 5 (``kta``)."""
    ds = synthesize_two_block(40, 0.8, 0.1, seed=3, noise=0.5)
    model, trace, _ = run_samme(ds, BoostConfig(
        n_rounds=6, hidden=(4,), learner=TrainConfig(epochs=5),
        aggregator=AggregatorSpec(kind=kind), seed=0))
    return ds, model, trace


class TestSammeRuns:
    def test_single_learner_predicts_like_it(self):
        ds = synthesize_two_block(20, 0.9, 0.1, seed=0)
        cfg = BoostConfig(n_rounds=1, hidden=(8,),
                          learner=TrainConfig(epochs=50), seed=2)
        model, _, _ = run_samme(ds, cfg)
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
        cfg = BoostConfig(n_rounds=5, hidden=(8,),
                          learner=TrainConfig(epochs=40), seed=6)
        model, trace, _ = run_samme(ds, cfg)
        assert trace[-1]["test_err"] < 0.5

    def test_rejected_rounds_keep_their_learner_at_weight_zero(
            self, monkeypatch):
        # a round rejected twice keeps its last fit at lambda = 0: it adds
        # nothing to the score and leaves the sample weights the next
        # round is fitted on as they were
        from graphboost.mlp import fit_classifier
        fits = []

        def recording_fit(shape, cfg, blocks, y, weights, train, *,
                          deflate, **kw):
            if not deflate:  # the first fit of a round
                fits.append(weights.copy())
            return fit_classifier(shape, cfg, blocks, y, weights, train,
                                  deflate=deflate, **kw)
        monkeypatch.setattr("graphboost.boost.fit_classifier", recording_fit)
        ds, model, trace = rejecting_run("fixed")
        skipped = model.flags["skipped"]
        assert skipped == [2, 3, 5, 6] and len(fits) == 6
        width = ds.features.shape[1]
        scores = replay_scores(model, ds)
        for t, st in enumerate(model.stages, 1):
            assert [w.shape for w in st.learner.weights] == [(width, 4),
                                                             (4, 2)]
            assert (st.weight == 0.0) == (t in skipped)
            if t < len(fits):
                assert np.array_equal(fits[t], fits[t - 1]) == (t in skipped)
            if t in skipped:
                assert np.array_equal(scores[t - 1], scores[t - 2])
                assert trace[t - 1]["cos_theta"] == 0.0
                assert model.stages[t - 1].wlc is None

    @pytest.mark.parametrize("kind", ["fixed", "kta"])
    def test_rejected_learner_is_inert(self, kind):
        # random weights in place of each rejected round's learner change
        # no score, no bound and, at weight decay 0, no fine-tuned weight:
        # a weight-0 stage gets zero gradients
        ds, model, _ = rejecting_run(kind)
        skipped = model.flags["skipped"]
        rng = np.random.default_rng(0)
        other = replace(model, stages=[
            replace(st, learner=MlpParams(weights=[
                rng.standard_normal(w.shape) for w in st.learner.weights]))
            if t in skipped else st
            for t, st in enumerate(model.stages, 1)])
        for a, b in zip(replay_scores(model, ds), replay_scores(other, ds)):
            assert a.tobytes() == b.tobytes()
        assert (predict(model, ds)[0].tobytes()
                == predict(other, ds)[0].tobytes())
        assert (build_theory_report(model, ds)["generalization"]["total"]
                == build_theory_report(other, ds)["generalization"]["total"])
        cfg = FineTuneConfig(epochs=3, weight_decay=0.0)
        tuned, _ = fine_tune(model, ds, cfg)
        tuned_other, _ = fine_tune(other, ds, cfg)
        for t, st in enumerate(tuned_other.stages, 1):
            want = (other if t in skipped else tuned).stages[t - 1]
            for a, b in zip(st.learner.weights, want.learner.weights):
                assert a.tobytes() == b.tobytes()
            if kind == "kta" and t > 1:
                assert (st.aggregator.coefs.tobytes()
                        == tuned.stages[t - 1].aggregator.coefs.tobytes())
        # while the accepted learners do train
        assert any(not np.array_equal(a, b)
                   for st, new in zip(model.stages, tuned.stages)
                   for a, b in zip(st.learner.weights, new.learner.weights))

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
        cfg = BoostConfig(n_rounds=3, hidden=(4,),
                          learner=TrainConfig(epochs=5), seed=1)
        with pytest.raises(RuntimeError, match="beat chance"):
            run_samme(flat, cfg)

    def test_deep_kta_chain_stays_bounded(self):
        # each fitted polynomial has nonnegative weights summing to 1, so
        # ||q_t(P)|| <= 1 and no stage input outgrows the features
        ds = synthesize_two_block(40, 0.5, 0.2, seed=3, noise=0.4)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=12, hidden=(4,), learner=TrainConfig(epochs=50, lr=0.05),
            aggregator=AggregatorSpec(kind="kta"), seed=1))
        assert "skipped" not in model.flags
        for st in model.stages[1:]:
            assert np.all(st.aggregator.coefs >= 0.0)
        x_norm = np.linalg.norm(ds.features)
        for rep, in stage_inputs(model, ds):
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
        model, trace, _ = run_samme(ds, BoostConfig(
            n_rounds=4, hidden=(16,), learner=TrainConfig(epochs=50), seed=3))
        _, classes = predict(model, ds)
        acc = np.mean(classes[split.test] == labels[split.test])
        assert acc > 0.8, acc
        assert trace[-1]["train_err"] <= trace[0]["train_err"]


def hand_built_models():
    """Three models whose saved bytes are pinned below, one per aggregator
    kind, on an 8-node graph. The SAMME models' last stage has weight 0, as
    a rejected round keeps its learner."""
    ds = synthesize_two_block(8, 0.9, 0.1, seed=0)
    op = base_operator(ds.graph)
    first = MlpParams(weights=[np.array(
        [[0.5, -1.25], [0.1, 2.0], [1e-17, 1.0 / 3.0]])])
    second = MlpParams(weights=[np.array([[1.5], [-0.2], [0.0]]),
                                np.array([[2.0 ** -30, -0.0]])])
    third = MlpParams(weights=[np.array([[-0.5], [3.0], [0.25]])])
    models = {
        "fixed": EnsembleModel(
            mode="samme", n_classes=2, aggregator_kind="fixed",
            stages=[StageRecord(None, first, 0.75),
                    StageRecord(fixed(op), first, 0.0)]),
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
                    StageRecord(kta(op), second, 0.0)]),
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
        assert [w.shape for w in a.learner.weights] == [
            w.shape for w in b.learner.weights]
        for wa, wb in zip(a.learner.weights, b.learner.weights):
            assert wa.dtype == wb.dtype == np.float64
            assert wa.tobytes() == wb.tobytes()


_V1_LEARNER = ('"learner": {"shapes": [[3, 1]], "weights": [[-0.5, 3.0, '
               '0.25]], "activation": "relu", "head": "identity", '
               '"bias": true}')

# model.json bytes of hand_built_models() as format version 1 wrote them:
# no format_version, weights as decimal lists, a "head" key, and a null
# learner at each weight-0 stage. No reader of this format is left
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
        '[[3, 1], [1, 2]], "weights": [[1.5, -0.2, 0.0], '
        '[9.313225746154785e-10, -0.0]], "activation": "relu", '
        '"head": "identity", "bias": true}}, {"aggregator": {"kind": '
        '"kta", "weights": [1.0, 1.0, 1.0, 1.0, 1.0], "n_deg": 3}, '
        '"weight": 0.0, "wlc": null, "learner": null}]}'),
}

_V2_LEARNER = ('"learner": {"shapes": [[3, 1]], "weights": '
               '["AAAAAAAA4L8AAAAAAAAIQAAAAAAAANA/"], "activation": "relu", '
               '"bias": true}')

# the same models in format version 2: each weight is the base64 of its
# row-major little-endian float64 bytes ("AAAAAAAA4D8" is 0.5), and each
# learner's last W^(1) row was its bias. No reader of this format is left
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
        '{"shapes": [[3, 1], [1, 2]], "weights": '
        '["AAAAAAAA+D+amZmZmZnJvwAAAAAAAAAA", "AAAAAAAAED4AAAAAAAAAgA=="], '
        '"activation": "relu", "bias": true}}, {"aggregator": {"kind": '
        '"kta", "weights": [1.0, 1.0, 1.0, 1.0, 1.0], "n_deg": 3}, '
        '"weight": 0.0, "wlc": null, "learner": null}]}'),
}

_V3_LEARNER = ('"learner": {"shapes": [[3, 1]], "weights": '
               '["AAAAAAAA4L8AAAAAAAAIQAAAAAAAANA/"], "activation": "relu"}')
_V3_FIRST = ('"learner": {"shapes": [[3, 2]], "weights": '
             '["AAAAAAAA4D8AAAAAAAD0v5qZmZmZmbk/AAAAAAAAAECX1EZG9Q5nPFVVVVVVVd'
             'U/"], "activation": "relu"}')
_V3_SECOND = ('"learner": {"shapes": [[3, 1], [1, 2]], "weights": '
              '["AAAAAAAA+D+amZmZmZnJvwAAAAAAAAAA", '
              '"AAAAAAAAED4AAAAAAAAAgA=="], "activation": "relu"}')

# the same models in format version 3, whose learners have no bias row:
# the version-2 bytes without each learner's "bias" key, and with every
# stage's learner written, the weight-0 stages' too. The learners read
# three input columns
VERSION_3_BYTES = {
    "fixed": (
        '{"format_version": 3, "mode": "samme", "n_classes": 2, '
        '"t_star": null, "base": "augmented", "aggregator_kind": "fixed", '
        '"clip": 1e-07, "flags": {}, "stages": [{"aggregator": null, '
        f'"weight": 0.75, "wlc": null, {_V3_FIRST}}}, '
        '{"aggregator": {"kind": "fixed"}, "weight": 0.0, "wlc": null, '
        f'{_V3_FIRST}}}]}}'),
    "input_injection": (
        '{"format_version": 3, "mode": "functional", "n_classes": 2, '
        '"t_star": 2, "base": "augmented", '
        '"aggregator_kind": "input_injection", "clip": 1e-07, "flags": {}, '
        '"stages": [{"aggregator": null, '
        f'"weight": 1.0, "wlc": null, {_V3_LEARNER}}}, {{"aggregator": '
        '{"kind": "input_injection", "rho": 0.3}, '
        '"weight": 1.3333333333333333, "wlc": {"alpha": 3.0, '
        f'"beta": 1.0}}, {_V3_LEARNER}}}, {{"aggregator": {{"kind": '
        f'"input_injection", "rho": 1}}, "weight": 2.5, "wlc": null, '
        f'{_V3_LEARNER}}}]}}'),
    "kta": (
        '{"format_version": 3, "mode": "samme", "n_classes": 2, '
        '"t_star": null, "base": "augmented", "aggregator_kind": "kta", '
        '"clip": 1e-07, "flags": {"skipped": [3]}, "stages": '
        f'[{{"aggregator": null, "weight": 0.75, "wlc": null, {_V3_FIRST}}}, '
        '{"aggregator": {"kind": "kta", "weights": '
        '[1.0, 0.5, 0.25, 0.125, 0.14285714285714285], "n_deg": 3}, '
        '"weight": 1.5, "wlc": {"alpha": 2.0, "beta": 0.5}, '
        f'{_V3_SECOND}}}, '
        '{"aggregator": {"kind": "kta", "weights": [1.0, 1.0, 1.0, 1.0, 1.0], '
        f'"n_deg": 3}}, "weight": 0.0, "wlc": null, {_V3_SECOND}}}]}}'),
}


class TestSerialization:
    def test_model_round_trip_bit_for_bit(self, tmp_path):
        ds = synthesize_two_block(20, 0.8, 0.1, seed=0)
        cfg = BoostConfig(n_rounds=3, hidden=(6,),
                          learner=TrainConfig(epochs=20),
                          aggregator=AggregatorSpec(kind="kta"), seed=2)
        model, _, _ = run_samme(ds, cfg)
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
            assert path.read_text() == VERSION_3_BYTES[name], name

    def test_version_3_files_read_bit_for_bit(self):
        ds, models = hand_built_models()
        for name, model in models.items():
            blob = json.loads(VERSION_3_BYTES[name])
            assert_same_model(model_from_json(blob, ds.graph), model)

    @pytest.mark.parametrize("name", sorted(VERSION_2_BYTES))
    def test_version_2_files_refused(self, name):
        # a version-2 learner has a bias row, which no learner has now: the
        # file is refused by its version, before any other field is read
        ds, _ = hand_built_models()
        with pytest.raises(ValueError, match="^model format_version 2: only "
                                             "3 is read"):
            model_from_json(json.loads(VERSION_2_BYTES[name]), ds.graph)

    @pytest.mark.parametrize("name", sorted(VERSION_1_BYTES))
    def test_version_1_files_refused(self, name):
        # a file without format_version is refused by that key, before any
        # of its other fields is read
        ds, _ = hand_built_models()
        with pytest.raises(ValueError, match="^model format_version None"):
            model_from_json(json.loads(VERSION_1_BYTES[name]), ds.graph)

    def test_other_learner_refused(self):
        # the kta model's second learner as pinned before the learner had
        # one architecture: sigmoid
        ds, _ = hand_built_models()
        blob = json.loads(VERSION_3_BYTES["kta"])
        blob["stages"][1]["learner"].update(activation="sigmoid")
        with pytest.raises(ValueError, match="'sigmoid': only 'relu'"):
            model_from_json(blob, ds.graph)

    @pytest.mark.parametrize("key,value", [("base", "normalized"),
                                           ("clip", 1e-6)])
    def test_other_base_or_clip_refused(self, key, value):
        # the input-injection model as older releases could write it: on
        # the normalized base, or with another probability floor
        ds, _ = hand_built_models()
        blob = json.loads(VERSION_3_BYTES["input_injection"])
        blob[key] = value
        with pytest.raises(ValueError, match=f"{value!r}"):
            model_from_json(blob, ds.graph)

    def test_written_flags_read(self):
        # every flag a run writes: the weight-0 SAMME stages as skipped, a
        # functional stage after the first without a w.l.c. fit, and a
        # diverged fine-tune
        ds, models = hand_built_models()
        for name, flags in (("fixed", {"skipped": [2]}),
                            ("kta", {"skipped": [3],
                                     "fine_tune_diverged": True}),
                            ("input_injection", {"wlc_failures": [3],
                                                 "fine_tune_diverged": True})):
            model = replace(models[name], flags=flags)
            blob = json.loads(json.dumps(model_to_json(model)))
            assert_same_model(model_from_json(blob, ds.graph), model)

    def test_round_trip_extreme_values(self, tmp_path):
        ds = synthesize_two_block(8, 0.9, 0.1, seed=0)
        # a Fortran-ordered matrix checks that the bytes are row-major
        first = np.asfortranarray(
            [[-0.0, 5e-324], [1e308, 1.0 / 3.0], [-1e308, -5e-324]])
        learner = MlpParams(weights=[first, np.array([[1.0 / 3.0], [-0.0]])])
        model = EnsembleModel(mode="functional", n_classes=2, t_star=1,
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
        _, trace, _ = run_functional_gb(ds, small_functional_cfg(n_rounds=2))
        path = tmp_path / "trace.csv"
        write_trace_csv(trace, path)
        back = read_trace_csv(path)
        assert [r["t"] for r in back] == [r["t"] for r in trace]
        for a, b in zip(trace, back):
            assert b["train_loss"] == a["train_loss"]  # repr round trip
            assert b["wlc_pass"] == a["wlc_pass"]


# SHA-256 of (model.json, trace.csv) as the trainers write them. Every run
# uses seed 1; the SAMME fixed-chain run skips round 4 and the nine-round
# SAMME KTA run round 8. Taken when the learners lost their bias row (model
# format version 3) and the classifier fit began to read train rows of
# root-mean-square norm above 1 scaled to 1; the two SAMME runs with
# skipped rounds took their model hash again when a skipped round began
# to keep its learner
TRAINED_BYTES = {
    "functional-fixed": (
        "7236083eedce3917af205a235e9db793d691c573f6191151e98aaf864cca519f",
        "1f37b1c1ccf02f12c13c5645d7e813723b56724541a7242e445b83e9aee2e22a"),
    "samme-fixed": (
        "45863bc88532b66acff849bfe8a542359c40ad44c362526228e1eb01b4794993",
        "61e55f4391c440a997bd588527116c11618f4a9f984760054878406841f66385"),
    "functional-input_injection": (
        "8120c268935bf7a9927c884b8017c249a995907fdc4e6a73f1b578354fb32990",
        "8fb1699a00f8e83e9bf460d82bd927140cad416a6d44c5399dcc8b623e55ad45"),
    "samme-input_injection": (
        "df9b699f2047f64df1e870f798666f909a1d3c8797b67bce9cf52feee88a61fc",
        "5e1af309b3e9d6ab12e4eadc87cd38042e9dad15f225c30113b1e0ad761772ba"),
    "functional-kta": (
        "25569482a6e9ed95bea31fcbd53ed81a2d04366de9da25327ebde6317b73c9ba",
        "fa05afbc13a096787ae93817d1bd4f33f3862ed9c5865c1c9e9d509acc2be9ee"),
    "samme-kta": (
        "12364e107465c2721f174c8f14dedd576faa7c09340901732ea589f24b14b080",
        "5cf867bb00eaab4aaf9ff156e88c59eb5091e003a341e76869760be343fc9627"),
    "samme-kta-skips": (
        "e7f5f4665189422295d088a549721aec3b88fe0091916c32166b7f604e7a5708",
        "92c432890aecf1a7bf72dceca8532a44494d19e244f99f754c5c21e90bf5c6e1"),
}


def trained_bytes_cases():
    for kind in ("fixed", "input_injection", "kta"):
        for mode in ("functional", "samme"):
            yield f"{mode}-{kind}", mode, kind, 5
    yield "samme-kta-skips", "samme", "kta", 9


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
            model, trace, _ = run_functional_gb(ds, BoostConfig(**common))
        else:
            model, trace, _ = run_samme(ds, BoostConfig(**common))
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
        model, trace, _ = run_samme(ds, BoostConfig(
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


class TestDriverScore:
    """A driver returns the score ``predict`` replays from its model, bit
    for bit, so ``train`` need not replay the stack it just built."""

    @pytest.mark.parametrize("name,mode,kind,n_rounds",
                             [pytest.param(*case, id=case[0])
                              for case in trained_bytes_cases()])
    def test_returned_score_is_predicts(self, name, mode, kind, n_rounds):
        ds = synthesize_two_block(40, 0.5, 0.2, seed=3, noise=1.0)
        runner = run_functional_gb if mode == "functional" else run_samme
        model, trace, score = runner(ds, BoostConfig(
            n_rounds=n_rounds, hidden=(4,), learner=TrainConfig(epochs=5),
            aggregator=AggregatorSpec(kind=kind), seed=1))
        assert np.array_equal(score, predict(model, ds)[0])
        if mode == "functional":
            # t* is the first stage of least train-gradient L1 norm
            assert model.t_star == min(trace, key=lambda r: r["grad_l1"])["t"]
        # the cases hold a SAMME run with skipped rounds and a functional
        # run whose t* is not its last stage
        if name == "samme-kta-skips":
            assert model.flags["skipped"] == [8]
        if name == "functional-kta":
            assert model.t_star < len(model.stages)

    def test_injected_block_is_the_features(self):
        # a full-length injection input reads the features in place: no
        # N x 2C array is built
        ds = synthesize_two_block(20, 0.8, 0.1, seed=1)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=3, hidden=(4,), learner=TrainConfig(epochs=5),
            aggregator=AggregatorSpec(kind="input_injection"), seed=3))
        inputs = list(stage_inputs(model, ds))
        assert len(inputs) == 3
        for cur, x0 in inputs:
            assert cur.shape == x0.shape == ds.features.shape
            assert np.shares_memory(x0, ds.features)


class TestFineTune:
    def test_zero_epochs_identity(self):
        ds = synthesize_two_block(16, 0.9, 0.1, seed=0)
        model, _, _ = run_samme(ds, BoostConfig(
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
        model, _, _ = run_samme(ds, BoostConfig(
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
        model, _, _ = run_samme(ds, BoostConfig(
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
        model, _, _ = run_samme(ds, BoostConfig(
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
        model, _, _ = run_samme(ds, BoostConfig(
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
        # each stage's learner input as one concatenated array
        reps = [np.hstack(blocks)
                for blocks in stage_representations(work, ds)]
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
        model, _, _ = run_functional_gb(ds, BoostConfig(
            n_rounds=2, hidden=(6,), learner=learner, aggregator=spec,
            seed=10))
    else:
        model, _, _ = run_samme(ds, BoostConfig(
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
# unsaturated_run. Taken when the learners lost their bias row (model
# format version 3) and the classifier fit began to read train rows of
# root-mean-square norm above 1 scaled to 1
FINE_TUNE_BYTES = {
    "functional-fixed": (
        "81c7c246f6eb5c6de620fa8cb623e94b0435d555b23f66753a0aa973b6e587af",
        "9a648548a95d35e26a913b4673072c4b91c5101f69c963770a7ced7d7d1e7b0c",
        "d805252ab44f7dc84c95d3241442e059b091c2a0b10f2475cb3d31dcc3e397b6"),
    "samme-fixed": (
        "ddd7eb61e0050f1c7a89813bb95e6630362138d709024a957ff8954745528260",
        "9f25fd5c00172439e505ad9232eba8df2a19b97a65dd249f15f5a120143e8225",
        "755c62782ccaee163d1006337929a74c8446ed96d51595a7abd9f5b50729b053"),
    "functional-input_injection": (
        "0a07a06ae0325fade40de5043f3ee117bcb23a3ab5779a36b44b49344693dd57",
        "58a23b0a0229b6456568035f6e4e3199d82b9425a297b20b1a95cb9dabc8501f",
        "767c63429b5984bd56b48514f30134d24d83b2456bb88fc5cbf150b6322dd2b6"),
    "samme-input_injection": (
        "11a1614e8899775514d8bb5057c23c429501b6c4a452c6051b7cef08aca7289d",
        "5e111a795e6a2bc1689eb9bf807f813fd2705e2493bf61f4190f93269d8756db",
        "b8785e74744b9b0f5e99a80432bc92b6f002eeb96e8e30893f3ec3b9c8f72ebd"),
    "functional-kta": (
        "85d2f566178586c5db756ae50f8748b0ff43d273e71650b9204b33604faa39a7",
        "c7f0f5768055a4455eff5e2ba8d3b593f13ee239bf1bf25a7597f59966a340ff",
        "b1e8abe186f7c6a6e3cae52bdaa4a7740045b87e21d297c079176faa45a0aca7"),
    "samme-kta": (
        "ca399b8a5e40ea210dbf3dd4822b79a1321f86d6a99df44106e342e5cfcbacd0",
        "5f595173d19d8394d7427226d6050948138aa3ffb4e81d5f71f4d1bea922f5d9",
        "9dffab24e91fd5f726dff5e662bcf9bb1204a6dce1cd86c516fe540e0843dd0e"),
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


def memory_toy():
    """A 600-node graph with 200 random features and 30 train nodes, so
    that the chain's N x C arrays and not the learners set the peak."""
    from graphboost.data import NodeDataset, Split
    from graphboost.graph import SparseGraph
    n, c = 600, 200
    rng = np.random.default_rng(0)
    graph = SparseGraph.from_edges(
        n, [p for p in rng.integers(0, n, size=(1800, 2)) if p[0] != p[1]])
    return NodeDataset(graph=graph, features=rng.random((n, c)),
                       labels=rng.integers(0, 2, size=n), n_classes=2,
                       split=Split(train=np.arange(30), val=[],
                                   test=np.arange(30, n)))


def train_toy(ds, mode, kind, n_stages):
    """A run of ``n_stages`` stages with tiny learners on ``ds``."""
    common = dict(hidden=(4,), learner=TrainConfig(epochs=2),
                  aggregator=AggregatorSpec(kind=kind))
    if mode == "functional":
        return run_functional_gb(ds, BoostConfig(n_rounds=n_stages - 1,
                                                 **common))
    return run_samme(ds, BoostConfig(n_rounds=n_stages, **common))


def peak_blocks(fn):
    """tracemalloc's peak over ``fn()``, in feature matrices of the toy
    (600 x 200 float64); the features themselves predate the trace."""
    import tracemalloc
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1] / (600 * 200 * 8)
    finally:
        tracemalloc.stop()


def noisy_run(kind, mode):
    """(dataset, model, trace) of a short run on a noisy 40-node graph."""
    ds = synthesize_two_block(40, 0.7, 0.25, seed=8, noise=0.6)
    spec = AggregatorSpec(kind=kind, rho=0.3)
    learner = TrainConfig(epochs=4)
    if mode == "functional":
        model, trace, _ = run_functional_gb(ds, BoostConfig(
            n_rounds=3, hidden=(6,), learner=learner, aggregator=spec,
            seed=10))
    else:
        model, trace, _ = run_samme(ds, BoostConfig(
            n_rounds=3, hidden=(6,), learner=learner, aggregator=spec,
            seed=10))
    return ds, model, trace


class TestPredict:
    def test_functional_tstar_one(self):
        ds = synthesize_two_block(16, 0.9, 0.1, seed=0)
        model, _, _ = run_functional_gb(ds, small_functional_cfg(n_rounds=2))
        model.t_star = 1
        yhat, _ = predict(model, ds)
        b1 = forward(model.stages[0].learner, ds.features)[0][:, 0]
        assert np.allclose(yhat, model.stages[0].weight * b1)

    def test_input_injection_variant_runs_and_replays(self):
        ds = synthesize_two_block(20, 0.8, 0.1, seed=1)
        cfg = BoostConfig(
            n_rounds=3, hidden=(4,), learner=TrainConfig(epochs=15),
            aggregator=AggregatorSpec(kind="input_injection", rho=0.7),
            seed=3)
        model, trace, _ = run_samme(ds, cfg)
        assert len(trace) == len(model.stages)
        _, classes = predict(model, ds)
        assert classes.shape == (20,)

    def test_input_injection_doubles_learner_channels(self):
        # the raw features ride along as a second block, so learners see
        # 2C inputs
        from graphboost.boost import stage_representations
        ds = synthesize_two_block(12, 0.9, 0.1, seed=4)
        cfg = BoostConfig(
            n_rounds=2, hidden=(4,), learner=TrainConfig(epochs=10),
            aggregator=AggregatorSpec(kind="input_injection", rho=0.5),
            seed=6)
        model, _, _ = run_samme(ds, cfg)
        reps = stage_representations(model, ds)
        assert all([b.shape for b in r] == [(12, 2), (12, 2)] for r in reps)
        assert all(st.learner.weights[0].shape[0] == 4 for st in model.stages)
        assert np.array_equal(reps[0][1], ds.features)
        assert np.array_equal(reps[1][1], ds.features)

    def test_functional_with_kta_aggregator(self):
        ds = synthesize_two_block(30, 0.8, 0.1, seed=7)
        cfg = BoostConfig(
            n_rounds=3, hidden=(8,),
            learner=TrainConfig(epochs=30, lr=0.02, weight_decay=0.0),
            aggregator=AggregatorSpec(kind="kta"), seed=8)
        model, trace, _ = run_functional_gb(ds, cfg)
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
        # the stage run_samme records when round 1 is rejected twice: its
        # learner at weight 0, so the score by stage starts from zeros
        from graphboost.boost import stage_representations
        ds, model, _ = noisy_run(kind, "samme")
        first = model.stages[0].learner
        model.stages[0] = StageRecord(None, first, 0.0)
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
        for a, b in zip(tuned.stages[0].learner.weights, first.weights):
            assert a.tobytes() == b.tobytes()
        assert "fine_tune_diverged" not in tuned.flags
        assert np.isfinite(info["train_err"]).all()

    def test_streamed_predict_holds_one_stage_input(self):
        # an injection chain of T = 8 stages, whose learner inputs are a
        # fresh N x C block each beside the shared features: streamed,
        # predict peaks below 4 N x C (two concatenated N x 2C inputs);
        # materialised, it holds all T blocks
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
        block = n * c * 8

        def peak(fn):
            tracemalloc.start()
            try:
                fn()
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak(lambda: predict(model, ds)) < 4 * block
        materialised = peak(
            lambda: predict(model, ds, stage_representations(model, ds)))
        assert materialised > (n_stages - 1) * block

    @pytest.mark.parametrize("mode", ["functional", "samme"])
    def test_training_drops_each_stage_input(self, mode):
        # an injection chain of T = 8 stages over 30 train nodes, so the
        # advance and not the learner fit sets the peak: dropping each
        # stage's learner input before the chain advances peaks near 3.6
        # feature matrices (N x C), holding it through the advance near 5.2
        ds = memory_toy()
        assert peak_blocks(lambda: train_toy(ds, mode, "input_injection",
                                             n_stages=8)) < 4.4

    @pytest.mark.parametrize("mode", ["functional", "samme"])
    def test_kta_training_sums_the_held_powers_in_place(self, mode):
        # a KTA stage holds its input and the four powers P^{2^k} x of one
        # walk, then sums them in place with one product of P^0 x: the
        # advance peaks near 6.15 N x C; summing into fresh arrays reads
        # about 7.15
        ds = memory_toy()
        assert peak_blocks(lambda: train_toy(ds, mode, "kta",
                                             n_stages=4)) < 6.5

    @pytest.mark.parametrize("mode", ["functional", "samme"])
    def test_kta_fine_tune_holds_one_chain(self, mode):
        # every KTA fine-tune step replays the full-length chain; letting
        # the old one go first peaks near 9.3-9.6 N x C over two epochs,
        # and holding both chains through the replay near 10.3-10.4
        ds = memory_toy()
        model, _, _ = train_toy(ds, mode, "kta", n_stages=4)
        assert peak_blocks(lambda: fine_tune(
            model, ds, FineTuneConfig(epochs=2))) < 9.9
