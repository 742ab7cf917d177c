import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphboost.aggregate import Kta
from graphboost.boost import (AggregatorSpec, EnsembleModel, FineTuneConfig,
                              FunctionalGBConfig, SammeConfig, StageRecord,
                              WlcParams, fine_tune, model_from_json,
                              model_to_json, predict, read_trace_csv,
                              replay_scores, run_functional_gb, run_samme,
                              run_samme_r, samme_model_weight,
                              samme_r_contribution, weighted_error_form,
                              wlc_check, wlc_fit, write_trace_csv)
from graphboost.data import synthesize_two_block
from graphboost.mlp import TrainConfig, forward, init_mlp


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
    def test_aligned_tightest(self):
        g = np.array([0.3, -1.2, 0.8])
        fit = wlc_fit(g, g, r_policy="tightest")
        assert fit.alpha == pytest.approx(1.0, rel=1e-6)
        assert fit.beta <= 1e-8
        assert fit.gamma == pytest.approx(1.0, rel=1e-6)

    def test_orthogonal_no_fit(self):
        assert wlc_fit(np.array([0.0, 1.0]), np.array([1.0, 0.0])) is None

    def test_negative_inner_product_no_fit(self):
        rng = np.random.default_rng(0)
        g = rng.standard_normal(5)
        assert wlc_fit(-g, g) is None

    @pytest.mark.parametrize("policy", ["midpoint", "tightest"])
    def test_equality_clause(self, policy):
        g = np.array([1.0, 1.0, 0.0, -1.0])
        perp = np.array([1.0, -1.0, 1.0, 0.0]) / np.sqrt(3.0)
        z = g + 0.1 * perp
        fit = wlc_fit(z, g, r_policy=policy)
        lhs = np.linalg.norm(z - fit.alpha * g)
        rhs = fit.beta * np.linalg.norm(g)
        assert abs(lhs - rhs) <= 1e-9 * rhs
        # a slightly slackened beta puts the pair strictly inside the cone
        assert wlc_check(z, g, WlcParams(fit.alpha, fit.beta * (1 + 1e-8)))

    def test_minus_root_gives_smaller_alpha(self):
        rng = np.random.default_rng(1)
        g = rng.standard_normal(6)
        z = g + 0.4 * rng.standard_normal(6)
        if z @ g <= 0:
            z = -z
        lo = wlc_fit(z, g, root="minus")
        hi = wlc_fit(z, g, root="plus")
        assert lo.alpha < hi.alpha


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
        learner=TrainConfig(epochs=30, lr=0.02, weight_decay=0.0, seed=0),
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
        assert np.allclose(first, cfg.eta1 * b1_out)

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

    def test_stop_fallback_truncates(self):
        # an adversarial learner config (zero epochs => near-random output)
        # eventually misses; force a miss by tiny training budget
        ds = synthesize_two_block(20, 0.55, 0.45, seed=10, noise=2.0)
        cfg = FunctionalGBConfig(
            n_rounds=40, hidden=(4,),
            learner=TrainConfig(epochs=1, lr=1e-4, weight_decay=0.0, seed=0),
            wlc_fallback="stop", seed=11)
        model, trace = run_functional_gb(ds, cfg)
        if "stopped_at" in model.flags:
            assert len(model.stages) == model.flags["stopped_at"] - 1
            assert trace[-1]["wlc_pass"] is not None
        else:  # all passed; nothing to truncate
            assert len(model.stages) == 41

    def test_strict_tstar_respects_window(self):
        ds = synthesize_two_block(24, 0.8, 0.1, seed=12)
        cfg = small_functional_cfg(n_rounds=5, seed=13, strict_tstar=True)
        model, _ = run_functional_gb(ds, cfg)
        assert model.t_star <= cfg.n_rounds - 1

    def test_functional_with_input_injection(self):
        ds = synthesize_two_block(20, 0.8, 0.1, seed=14)
        cfg = FunctionalGBConfig(
            n_rounds=3, hidden=(8,),
            learner=TrainConfig(epochs=25, lr=0.02, weight_decay=0.0,
                                seed=0),
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
                          learner=TrainConfig(epochs=10, seed=0), seed=17)
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

    def test_uniform_probabilities_zero_contribution(self):
        logp = np.log(np.full((5, 4), 0.25))
        assert np.allclose(samme_r_contribution(logp), 0.0)

    def test_clipped_confident_prediction_bounded(self):
        clip = 1e-7
        proba = np.clip(np.array([[1.0, 0.0, 0.0]]), clip, 1.0)
        h = samme_r_contribution(np.log(proba))
        assert np.all(np.isfinite(h))
        assert np.max(np.abs(h)) <= (3 - 1) * (-np.log(clip))


class TestSammeRuns:
    def test_single_learner_predicts_like_it(self):
        ds = synthesize_two_block(20, 0.9, 0.1, seed=0)
        cfg = SammeConfig(n_rounds=1, hidden=(8,),
                          learner=TrainConfig(epochs=50, seed=1), seed=2)
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
                          learner=TrainConfig(epochs=40, seed=5), seed=6)
        model, trace = run_samme(ds, cfg)
        assert trace[-1]["test_err"] < 0.5

    def test_rejected_rounds_are_skipped_placeholders(self):
        ds = synthesize_two_block(16, 0.6, 0.4, seed=7, noise=3.0)
        cfg = SammeConfig(
            n_rounds=6, hidden=(2,),
            learner=TrainConfig(epochs=1, lr=1e-9, seed=8), seed=9)
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
                          learner=TrainConfig(epochs=5, seed=0), seed=1)
        with pytest.raises(RuntimeError, match="beat chance"):
            run_samme(flat, cfg)

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
        for runner in (run_samme, run_samme_r):
            model, trace = runner(ds, SammeConfig(
                n_rounds=4, hidden=(16,),
                learner=TrainConfig(epochs=50, seed=2), seed=3))
            _, classes = predict(model, ds)
            acc = np.mean(classes[split.test] == labels[split.test])
            assert acc > 0.8, (runner.__name__, acc)
            assert trace[-1]["train_err"] <= trace[0]["train_err"]

    def test_samme_r_zero_logits_zero_score(self):
        ds = synthesize_two_block(8, 0.9, 0.1, seed=10)
        zero = init_mlp((2, 2), seed=0, scale=0.0)
        zero.head = "softmax"
        model = EnsembleModel(mode="samme_r", n_classes=2,
                              stages=[StageRecord(None, zero, 1.0)])
        scores = replay_scores(model, ds)
        assert np.allclose(scores[0], 0.0)

    def test_samme_r_binary_reduction(self):
        # with K = 2 and no clipping active, the contribution difference
        # h_1 - h_0 equals the logit difference exactly
        ds = synthesize_two_block(12, 0.9, 0.1, seed=11)
        cfg = SammeConfig(n_rounds=2, hidden=(4,),
                          learner=TrainConfig(epochs=30, seed=12), seed=13)
        model, _ = run_samme_r(ds, cfg)
        scores = replay_scores(model, ds)
        from graphboost.boost import _replay, stage_representations
        outputs = _replay(model, stage_representations(model, ds))
        logit_diff = sum(out[:, 1] - out[:, 0] for out in outputs)
        score_diff = scores[-1][:, 1] - scores[-1][:, 0]
        assert np.allclose(score_diff, logit_diff, atol=1e-8)


class TestSerialization:
    def test_model_round_trip_bit_for_bit(self, tmp_path):
        ds = synthesize_two_block(20, 0.8, 0.1, seed=0)
        cfg = SammeConfig(n_rounds=3, hidden=(6,),
                          learner=TrainConfig(epochs=20, seed=1),
                          aggregator=AggregatorSpec(kind="kta"), seed=2)
        model, _ = run_samme(ds, cfg)
        blob = model_to_json(model)
        import json
        rebuilt = model_from_json(json.loads(json.dumps(blob)), ds.graph)
        _, direct = predict(model, ds)
        _, replayed = predict(rebuilt, ds)
        assert np.array_equal(direct, replayed)
        s1 = replay_scores(model, ds)[-1]
        s2 = replay_scores(rebuilt, ds)[-1]
        assert s1.tobytes() == s2.tobytes()

    def test_saved_bytes_unchanged(self, tmp_path):
        from graphboost.boost import save_model
        from graphboost.graph import augmented_adjacency
        from graphboost.mlp import MlpParams
        ds = synthesize_two_block(8, 0.9, 0.1, seed=0)
        op = augmented_adjacency(ds.graph)
        first = MlpParams(weights=[np.array(
            [[0.5, -1.25], [0.1, 2.0], [1e-17, 1.0 / 3.0]])], head="argmax")
        second = MlpParams(weights=[np.array([[1.5], [-0.2], [0.0]]),
                                    np.array([[2.0 ** -30]])],
                           activation="sigmoid", bias=False)
        model = EnsembleModel(
            mode="samme", n_classes=2, aggregator_kind="kta",
            flags={"skipped": [3]},
            stages=[StageRecord(None, first, 0.75),
                    StageRecord(Kta(op, np.array(
                        [1.0, 0.5, 0.25, 0.125, 1.0 / 7.0])), second, 1.5,
                        WlcParams(alpha=2.0, beta=0.5)),
                    StageRecord(Kta(op, np.ones(5)), None, 0.0)])
        path = tmp_path / "model.json"
        save_model(model, path)
        assert path.read_text() == (
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
            '[9.313225746154785e-10]], "activation": "sigmoid", '
            '"head": "identity", "bias": false}}, {"aggregator": {"kind": '
            '"kta", "weights": [1.0, 1.0, 1.0, 1.0, 1.0], "n_deg": 3}, '
            '"weight": 0.0, "wlc": null, "learner": null}]}')

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


class TestFineTune:
    def test_zero_epochs_identity(self):
        ds = synthesize_two_block(16, 0.9, 0.1, seed=0)
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=2, hidden=(4,), learner=TrainConfig(epochs=20, seed=1),
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
            learner=TrainConfig(epochs=150, lr=0.05, weight_decay=0.0,
                                seed=3), seed=4))
        _, classes = predict(model, ds)
        assert np.mean(classes[ds.split.train] != ds.labels[ds.split.train]) == 0.0
        tuned, info = fine_tune(model, ds, FineTuneConfig(
            epochs=5, lr=1e-4))
        assert info["train_err"][1] <= info["train_err"][0] + 1e-6

    def test_loss_decreases_on_underfit_model(self):
        ds = synthesize_two_block(30, 0.9, 0.05, seed=5)
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=3, hidden=(6,), learner=TrainConfig(epochs=3, seed=6),
            seed=7))
        from graphboost.boost import _stack_forward, _stack_replay
        from graphboost.losses import softmax_ce
        tr = ds.split.train

        def loss(m):
            s, *_ = _stack_forward(m, _stack_replay(m, ds, tr)[0])
            return float(np.mean(softmax_ce(s, ds.labels[tr], m.clip)))

        before = loss(model)
        tuned, _ = fine_tune(model, ds, FineTuneConfig(epochs=30, lr=1e-2))
        assert loss(tuned) < before

    def test_samme_r_stack_gradient_matches_fd(self):
        # the probability-head path has its own logits chain (clipped
        # log-softmax); check it end to end
        from graphboost.boost import (_stack_forward, _stack_gradients,
                                      _stack_replay, _train_loss)
        from graphboost.losses import softmax_ce
        ds = synthesize_two_block(10, 0.8, 0.1, seed=20, noise=0.5)
        model, _ = run_samme_r(ds, SammeConfig(
            n_rounds=2, hidden=(4,), learner=TrainConfig(epochs=8, seed=21),
            seed=22))
        tr = ds.split.train

        def loss_of(m):
            s, *_ = _stack_forward(m, _stack_replay(m, ds, tr)[0])
            return float(np.mean(softmax_ce(s, ds.labels[tr], m.clip)))

        inputs, chain = _stack_replay(model, ds, tr)
        score, caches, logits = _stack_forward(model, inputs)
        _, dscore = _train_loss(model, score, ds.labels[tr])
        mlp_grads, _ = _stack_gradients(model, ds, dscore, caches, logits,
                                        chain)
        eps = 1e-6
        for si, stage in enumerate(model.stages):
            for li, w in enumerate(stage.learner.weights):
                for idx in [(0, 0), (w.shape[0] - 1, w.shape[1] - 1)]:
                    w[idx] += eps
                    plus = loss_of(model)
                    w[idx] -= 2 * eps
                    minus = loss_of(model)
                    w[idx] += eps
                    fd = (plus - minus) / (2 * eps)
                    an = mlp_grads[si][li][idx]
                    assert abs(an - fd) <= 1e-4 * max(abs(fd), 1e-6)

    def test_divergence_leaves_input_untouched(self):
        ds = synthesize_two_block(16, 0.9, 0.1, seed=0)
        model, _ = run_samme(ds, SammeConfig(
            n_rounds=2, hidden=(4,), learner=TrainConfig(epochs=5, seed=1),
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
            n_rounds=3, hidden=(16,), learner=TrainConfig(epochs=8, seed=9),
            aggregator=AggregatorSpec(kind="kta"), seed=10))
        assert len(model.stages) == 3, model.flags
        kta_before = [st.aggregator.weights.copy() for st in model.stages
                      if isinstance(st.aggregator, Kta)]
        tuned, _ = fine_tune(model, ds, FineTuneConfig(epochs=10, lr=1e-2))
        kta_after = [st.aggregator.weights for st in tuned.stages
                     if isinstance(st.aggregator, Kta)]
        assert kta_before and any(
            not np.allclose(a, b) for a, b in zip(kta_before, kta_after))


def full_graph_sgd(model, ds, epochs, lr):
    """Reference fine-tune: plain SGD on the softened train loss with every
    learner on all N rows, the adjoint of the representation chain carried
    through every stage, and the KTA weight gradients taken against the
    power basis of each stage's input."""
    from graphboost.aggregate import Kta
    from graphboost.boost import (StageRecord, samme_r_contribution,
                                  stage_representations)
    from graphboost.losses import (multiclass_surrogate_grad, softmax,
                                   surrogate_grad)
    from graphboost.mlp import backward

    stages = [StageRecord(st.aggregator,
                          st.learner.copy() if st.learner else None,
                          st.weight) for st in model.stages]
    work = EnsembleModel(mode=model.mode, n_classes=model.n_classes,
                         stages=stages, t_star=model.t_star,
                         aggregator_kind=model.aggregator_kind,
                         clip=model.clip)
    k = model.n_classes
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
            elif work.mode == "samme":
                score = score + st.weight * softmax(out)
            else:
                score = score + samme_r_contribution(
                    np.log(np.clip(softmax(out), work.clip, 1.0)))
        if work.mode == "functional":
            dscore = surrogate_grad(score, ds.labels, ds.split)
        else:
            dscore = multiclass_surrogate_grad(score, ds.labels, ds.split)
        adjoint = [np.zeros((ds.n, ds.n_features)) for _ in reps]
        updates = []
        for s, (st, out) in enumerate(zip(work.stages, outs)):
            if out is None:
                continue
            if work.mode == "functional":
                dlogits = st.weight * dscore[:, None]
            elif work.mode == "samme":
                p = softmax(out)
                dlogits = st.weight * p * (
                    dscore - (dscore * p).sum(axis=1, keepdims=True))
            else:
                p = softmax(out)
                dlogp = (k - 1.0) * (dscore
                                     - dscore.mean(axis=1, keepdims=True))
                dlogp[p < work.clip] = 0.0
                dlogits = dlogp - p * dlogp.sum(axis=1, keepdims=True)
            grads, dx = backward(st.learner, caches[s], dlogits)
            updates += list(zip(st.learner.weights, grads))
            adjoint[s] += dx[:, :ds.n_features]
        for s in range(len(work.stages) - 1, 0, -1):
            agg = work.stages[s].aggregator
            if not isinstance(agg, Kta):
                continue
            basis = agg.basis(reps[s - 1])
            grad = np.array([np.vdot(adjoint[s], b) for b in basis])
            # the stage's aggregation as a dense matrix
            p = agg.operator.apply(np.eye(ds.n))
            a = agg.weights[0] * np.eye(ds.n) + sum(
                w * np.linalg.matrix_power(p, 2 ** kk)
                for kk, w in enumerate(agg.weights[1:]))
            adjoint[s - 1] += a.T @ adjoint[s]
            work.stages[s].aggregator = Kta(agg.operator,
                                            agg.weights - lr * grad,
                                            agg.n_deg)
        for w, g in updates:
            w -= lr * g
    return work


class TestFineTuneEquivalence:
    """Fine-tuning on the train and validation rows gives the weights of a
    full-graph reference, and the errors ``predict`` gives."""

    @pytest.mark.parametrize("kind", ["fixed", "input_injection", "kta"])
    @pytest.mark.parametrize("mode", ["functional", "samme", "samme_r"])
    def test_matches_full_graph_sgd(self, kind, mode):
        from graphboost.data import NodeDataset, Split
        base = synthesize_two_block(40, 0.7, 0.25, seed=8, noise=0.6)
        ids = np.random.default_rng(0).permutation(base.n)
        ds = NodeDataset(graph=base.graph, features=base.features,
                         labels=base.labels, n_classes=2,
                         split=Split(train=ids[:14], val=ids[14:24],
                                     test=ids[24:]))
        spec = AggregatorSpec(kind=kind)
        learner = TrainConfig(epochs=4, seed=9)
        if mode == "functional":
            model, _ = run_functional_gb(ds, FunctionalGBConfig(
                n_rounds=2, hidden=(6,), learner=learner, aggregator=spec,
                seed=10))
        else:
            runner = run_samme if mode == "samme" else run_samme_r
            model, _ = runner(ds, SammeConfig(
                n_rounds=3, hidden=(6,), learner=learner, aggregator=spec,
                seed=10))
        epochs, lr = 3, 0.05
        tuned, info = fine_tune(model, ds, FineTuneConfig(
            epochs=epochs, optimizer="sgd", lr=lr))
        ref = full_graph_sgd(model, ds, epochs, lr)

        moved = 0.0
        for orig, got, want in zip(model.stages, tuned.stages, ref.stages):
            if got.learner:
                for a, b, c in zip(orig.learner.weights, got.learner.weights,
                                   want.learner.weights):
                    np.testing.assert_allclose(b, c, rtol=0, atol=1e-12)
                    moved = max(moved, float(np.abs(b - a).max()))
            if isinstance(got.aggregator, Kta):
                np.testing.assert_allclose(got.aggregator.weights,
                                           want.aggregator.weights,
                                           rtol=0, atol=1e-12)
        assert moved > 1e-6

        tr, va = ds.split.train, ds.split.val
        for i, m in enumerate((model, tuned)):
            _, classes = predict(m, ds)
            assert info["train_err"][i] == np.mean(classes[tr] != ds.labels[tr])
            assert info["val_err"][i] == np.mean(classes[va] != ds.labels[va])


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
            n_rounds=3, hidden=(4,), learner=TrainConfig(epochs=15, seed=2),
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
            n_rounds=2, hidden=(4,), learner=TrainConfig(epochs=10, seed=5),
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
            learner=TrainConfig(epochs=30, lr=0.02, weight_decay=0.0,
                                seed=0),
            aggregator=AggregatorSpec(kind="kta"), seed=8)
        model, trace = run_functional_gb(ds, cfg)
        assert all(isinstance(st.aggregator, Kta)
                   for st in model.stages[1:])
        # fitted aggregation weights moved off their all-ones start
        assert any(not np.allclose(st.aggregator.weights, 1.0)
                   for st in model.stages[1:])
        scores = replay_scores(model, ds)
        assert len(scores) == len(model.stages)
