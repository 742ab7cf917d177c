import numpy as np
import pytest

from graphboost.mlp import (MlpParams, TrainConfig, TrainingDiverged,
                            backward, fit_classifier, fit_to_gradient,
                            forward, init_mlp, max_column_l1, predict,
                            project_l1_columns)


def fd_param_grads(params, x, upstream, eps=1e-4):
    """Central finite differences of <upstream, forward(x)> per weight."""
    grads = []
    for w in params.weights:
        g = np.zeros_like(w)
        for idx in np.ndindex(w.shape):
            w[idx] += eps
            plus = float(np.vdot(upstream, forward(params, x)[0]))
            w[idx] -= 2 * eps
            minus = float(np.vdot(upstream, forward(params, x)[0]))
            w[idx] += eps
            g[idx] = (plus - minus) / (2 * eps)
        grads.append(g)
    return grads


class TestForward:
    def test_identity_extended_weights(self):
        # (C+1) x C weight: identity on features, zero row for the bias
        x = np.random.default_rng(0).standard_normal((5, 3))
        w = np.vstack([np.eye(3), np.zeros((1, 3))])
        p = MlpParams(weights=[w], bias=True)
        out, _ = forward(p, x)
        assert np.array_equal(out, x)

    def test_zero_weights_zero_output(self):
        x = np.random.default_rng(1).standard_normal((4, 2))
        p = init_mlp((2, 3, 1), seed=0, scale=0.0)
        out, _ = forward(p, x)
        assert np.all(out == 0.0)

    def test_matches_dense_chain_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 4))
        p = init_mlp((4, 5, 2), seed=3)
        xa = np.hstack([x, np.ones((6, 1))])
        expected = np.maximum(xa @ p.weights[0], 0.0) @ p.weights[1]
        out, _ = forward(p, x)
        assert np.max(np.abs(out - expected)) < 1e-12

    def test_width_mismatch(self):
        p = init_mlp((3, 2), seed=0)
        with pytest.raises(ValueError, match="width"):
            forward(p, np.ones((4, 5)))

    def test_row_permutation_equivariance(self):
        rng = np.random.default_rng(4)
        x = rng.standard_normal((7, 3))
        p = init_mlp((3, 4, 2), seed=5)
        perm = rng.permutation(7)
        out, _ = forward(p, x)
        out_perm, _ = forward(p, x[perm])
        assert np.array_equal(out[perm], out_perm)

    def test_dropout_deterministic_under_seed(self):
        rng = np.random.default_rng(6)
        x = rng.standard_normal((8, 3))
        p = init_mlp((3, 16, 1), seed=7)
        a, _ = forward(p, x, train_mode=True, seed=42, dropout=True)
        b, _ = forward(p, x, train_mode=True, seed=42, dropout=True)
        c, _ = forward(p, x, train_mode=True, seed=43, dropout=True)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)
        eval_out, _ = forward(p, x, train_mode=False, seed=42, dropout=True)
        assert not np.array_equal(a, eval_out)


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        p = init_mlp((3, 4, 2), seed=1)
        out, cache = forward(p, x)
        grads, dx = backward(p, cache, np.zeros_like(out))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(dx == 0.0)

    def test_linear_least_squares_closed_form(self):
        # single linear layer, squared loss: grad = x^T residual (x bias-augmented)
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 3))
        target = rng.standard_normal(10)
        p = init_mlp((3, 1), seed=3)
        out, cache = forward(p, x)
        resid = out[:, 0] - target
        grads, _ = backward(p, cache, resid[:, None])
        xa = np.hstack([x, np.ones((10, 1))])
        assert np.allclose(grads[0], xa.T @ resid[:, None])

    @pytest.mark.parametrize("widths", [
        (3, 1), (3, 4, 1), (3, 4, 4, 1), (3, 4, 4, 4, 1), (3, 4, 4, 4, 4, 1),
    ])
    def test_finite_difference_all_depths(self, widths):
        rng = np.random.default_rng(hash(widths) % 2 ** 32)
        x = rng.standard_normal((6, widths[0]))
        p = init_mlp(widths, seed=11)
        out, cache = forward(p, x)
        upstream = rng.standard_normal(out.shape)
        grads, _ = backward(p, cache, upstream)
        fd = fd_param_grads(p, x, upstream)
        for g, f in zip(grads, fd):
            denom = max(np.max(np.abs(f)), 1e-8)
            assert np.max(np.abs(g - f)) / denom < 1e-5

    def test_input_gradient_matches_fd(self):
        rng = np.random.default_rng(12)
        x = rng.standard_normal((4, 3))
        p = init_mlp((3, 5, 2), seed=13)
        out, cache = forward(p, x)
        upstream = rng.standard_normal(out.shape)
        _, dx = backward(p, cache, upstream)
        eps = 1e-6
        for idx in np.ndindex(x.shape):
            x[idx] += eps
            plus = float(np.vdot(upstream, forward(p, x)[0]))
            x[idx] -= 2 * eps
            minus = float(np.vdot(upstream, forward(p, x)[0]))
            x[idx] += eps
            fd = (plus - minus) / (2 * eps)
            assert abs(dx[idx] - fd) < 1e-6 * max(abs(fd), 1.0)

    @pytest.mark.parametrize("widths", [(3, 2), (3, 5, 2), (3, 5, 4, 2)])
    def test_input_gradient_opt_out(self, widths):
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 3))
        p = init_mlp(widths, seed=15)
        out, cache = forward(p, x)
        upstream = rng.standard_normal(out.shape)
        full, _ = backward(p, cache, upstream)
        grads, dx = backward(p, cache, upstream, input_grad=False)
        assert dx is None
        assert all(np.array_equal(a, b) for a, b in zip(full, grads))


class TestFitToGradient:
    def test_zero_target_zero_init_stays_zero(self):
        x = np.random.default_rng(0).standard_normal((8, 3))
        init = init_mlp((3, 1), seed=0, scale=0.0)
        params, mse = fit_to_gradient((3, 1), TrainConfig(epochs=5, seed=0),
                                      x, np.zeros(8), np.arange(4), init=init)
        assert mse == 0.0
        assert all(np.all(w == 0.0) for w in params.weights)

    def test_linearly_realizable(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        w_true = rng.standard_normal(4)
        target = x @ w_true + 0.3
        cfg = TrainConfig(epochs=400, optimizer="adam", lr=0.05,
                          weight_decay=0.0, seed=2)
        params, mse = fit_to_gradient((4, 1), cfg, x, target, np.arange(30))
        assert mse < 1e-6

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_last_loss(self):
        rng = np.random.default_rng(3)
        x = 1e3 * rng.standard_normal((10, 2))
        target = 1e3 * rng.standard_normal(10)
        cfg = TrainConfig(epochs=200, optimizer="sgd", lr=1e6,
                          weight_decay=0.0, seed=4)
        with pytest.raises(TrainingDiverged) as err:
            fit_to_gradient((2, 8, 1), cfg, x, target, np.arange(10))
        assert err.value.last_loss is None or np.isfinite(err.value.last_loss)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 3))
        target = rng.standard_normal(20)
        cfg = TrainConfig(epochs=10, batch_size=7, dropout=True, seed=6)
        a, _ = fit_to_gradient((3, 8, 1), cfg, x, target, np.arange(15))
        b, _ = fit_to_gradient((3, 8, 1), cfg, x, target, np.arange(15))
        assert all(np.array_equal(wa, wb)
                   for wa, wb in zip(a.weights, b.weights))

    def test_hard_constraint_mode_keeps_columns_capped(self):
        rng = np.random.default_rng(7)
        x = rng.standard_normal((20, 3))
        target = 5.0 * rng.standard_normal(20)
        cfg = TrainConfig(epochs=50, lr=0.1, weight_decay=0.0, seed=8)
        params, _ = fit_to_gradient((3, 4, 1), cfg, x, target, np.arange(20),
                                    l1_bound=0.5)
        assert max_column_l1(params) <= 0.5 + 1e-12

    @pytest.mark.parametrize("opt", ["sgd", "momentum", "adam", "rmsprop"])
    def test_every_optimizer_reduces_loss(self, opt):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 4))
        target = x @ rng.standard_normal(4)
        lr = 0.05 if opt in ("adam", "rmsprop") else 0.01
        cfg = TrainConfig(epochs=80, optimizer=opt, lr=lr, momentum=0.9,
                          weight_decay=0.0, seed=10)
        params, mse = fit_to_gradient((4, 1), cfg, x, target, np.arange(30))
        baseline = float(np.mean(target ** 2))
        assert mse < 0.5 * baseline

    def test_gradient_direction_cosine_statistics(self):
        # the fitted learner should correlate positively with its target in
        # nearly every seeded run (threshold from a pilot of 100 runs)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(1000 + seed)
            x = np.hstack([np.repeat([[1.0, 0.0], [0.0, 1.0]], 10, axis=0)
                           + 0.1 * rng.standard_normal((20, 2))])
            target = np.repeat([0.5, -0.5], 10)
            cfg = TrainConfig(epochs=30, lr=0.05, weight_decay=0.0,
                              seed=seed)
            params, _ = fit_to_gradient((2, 1), cfg, x, target,
                                        np.arange(20))
            out = forward(params, x)[0][:, 0]
            cos = out @ target / (np.linalg.norm(out)
                                  * np.linalg.norm(target))
            hits += cos > 0
        assert hits >= 95


class TestFitClassifier:
    def test_separable_blobs_beat_chance(self):
        rng = np.random.default_rng(0)
        x = np.vstack([rng.normal(-2, 0.3, (20, 2)),
                       rng.normal(2, 0.3, (20, 2))])
        y = np.repeat([0, 1], 20)
        w = np.ones(40) / 40
        cfg = TrainConfig(epochs=100, lr=0.05, weight_decay=0.0, seed=1)
        params, werr = fit_classifier((2, 2), cfg, x, y, w, np.arange(40))
        assert werr < 0.2

    def test_all_mass_on_one_node(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 3))
        y = rng.integers(0, 3, 10)
        w = np.zeros(10)
        w[4] = 1.0
        cfg = TrainConfig(epochs=300, lr=0.1, weight_decay=0.0, seed=3)
        params, werr = fit_classifier((3, 3), cfg, x, y, w, np.arange(10))
        pred = predict(MlpParams(params.weights, head="argmax",
                                 bias=params.bias), x)
        assert pred[4] == y[4]
        assert werr == 0.0

    def test_constant_features_cannot_beat_prior(self):
        rng = np.random.default_rng(4)
        x = np.ones((30, 2))
        y = rng.integers(0, 3, 30)
        w = rng.random(30)
        w /= w.sum()
        cfg = TrainConfig(epochs=50, seed=5)
        params, werr = fit_classifier((2, 3), cfg, x, y, w, np.arange(30))
        class_mass = np.array([w[y == k].sum() for k in range(3)])
        assert werr >= 1.0 - class_mass.max() - 1e-12

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            fit_classifier((2, 2), TrainConfig(epochs=1), np.ones((4, 2)),
                           np.zeros(4, dtype=int), np.zeros(4), np.arange(4))


class TestProjectL1Columns:
    def test_scales_to_surface(self):
        p = MlpParams(weights=[np.array([[3.0], [0.0]])], bias=False)
        out = project_l1_columns(p, 1.0)
        assert np.allclose(out.weights[0], [[1.0], [0.0]])

    def test_inside_ball_untouched(self):
        p = MlpParams(weights=[np.array([[0.2], [-0.3]])], bias=False)
        out = project_l1_columns(p, 1.0)
        assert np.array_equal(out.weights[0], p.weights[0])

    def test_three_entry_column(self):
        p = MlpParams(weights=[np.array([[1.0], [-1.0], [2.0]])], bias=False)
        out = project_l1_columns(p, 2.0)
        assert np.allclose(out.weights[0], [[0.5], [-0.5], [1.0]])

    def test_max_column_l1(self):
        p = MlpParams(weights=[np.array([[1.0, -2.0], [0.5, 1.0]])],
                      bias=False)
        assert max_column_l1(p) == pytest.approx(3.0)
