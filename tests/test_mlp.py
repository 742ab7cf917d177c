import numpy as np
import pytest

from graphboost.losses import softmax
from graphboost.mlp import (MlpParams, TrainConfig, TrainingDiverged,
                            _Adam, backward, fit_classifier,
                            fit_to_gradient, forward, init_mlp,
                            max_column_l1, project_l1_columns, resume)
from reference import AllocatingAdam


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


def dense_reference(p, x, upstream):
    """Forward output, weight gradients and input gradient of the map on
    one input array x, by the textbook formulas: h = x @ W^(1)."""
    h = x
    hiddens, preacts = [h], []
    for w in p.weights[:-1]:
        z = h @ w
        preacts.append(z)
        h = np.maximum(z, 0.0)
        hiddens.append(h)
    out = h @ p.weights[-1]
    d = upstream
    grads = [hiddens[-1].T @ d]
    for l in range(p.n_layers - 2, -1, -1):
        d = (d @ p.weights[l + 1].T) * (preacts[l] > 0.0)
        grads.insert(0, hiddens[l].T @ d)
    dx = d @ p.weights[0].T
    return out, grads, dx


class TestNoBias:
    """W^(1) has one row per input column and no bias row."""

    def test_first_layer_rows_are_the_input_width(self):
        p = init_mlp((3, 5, 2), seed=0)
        assert [w.shape for w in p.weights] == [(3, 5), (5, 2)]
        # a bias-free map is positively homogeneous: f(s x) = s f(x)
        x = np.random.default_rng(1).standard_normal((4, 3))
        assert np.allclose(forward(p, 2.5 * x)[0], 2.5 * forward(p, x)[0],
                           rtol=1e-14, atol=0)
        assert np.array_equal(forward(p, np.zeros((4, 3)))[0],
                              np.zeros((4, 2)))

    @pytest.mark.parametrize("wide", [True, False])
    def test_width_mismatch(self, wide):
        # W^(1) has 3 rows, one per feature: neither a fourth column (the
        # bias column of a version-2 learner) nor one feature short (2) fits
        p = init_mlp((3, 2), seed=0)
        with pytest.raises(ValueError, match="width"):
            forward(p, np.ones((2, 4 if wide else 2)))


class TestBlockInput:
    """An input given as column blocks is read in place: the first layer
    sums each block's product with its rows of W^(1)."""

    @pytest.mark.parametrize("hidden", [(), (5, 4)])
    def test_two_blocks_match_concatenated_reference(self, hidden):
        rng = np.random.default_rng(len(hidden))
        cur, x0 = rng.standard_normal((9, 3)), rng.standard_normal((9, 2))
        p = init_mlp((5, *hidden, 2), seed=22)
        out, cache = forward(p, cur, x0)
        assert cache["hiddens"][0][0] is cur and cache["hiddens"][0][1] is x0
        upstream = rng.standard_normal(out.shape)
        grads, delta = backward(p, cache, upstream)
        dx = delta @ p.weights[0].T
        ref_out, ref_grads, ref_dx = dense_reference(
            p, np.hstack([cur, x0]), upstream)

        def close(a, b):
            scale = np.max(np.abs(b))
            assert np.max(np.abs(a - b)) <= 1e-12 * scale
        close(out, ref_out)
        assert grads[0].shape == ref_grads[0].shape
        close(grads[0], ref_grads[0])
        close(dx, ref_dx)

    @pytest.mark.parametrize("hidden", [(), (5,)])
    def test_one_block_is_the_single_array_formula(self, hidden):
        rng = np.random.default_rng(7 + len(hidden))
        x = rng.standard_normal((9, 3))
        p = init_mlp((3, *hidden, 2), seed=23)
        w = p.weights
        z = x @ w[0]
        if hidden:
            h = np.maximum(z, 0.0)
            want = h @ w[1]
        else:
            want = z
        out, cache = forward(p, x)
        assert np.array_equal(out, want)
        upstream = rng.standard_normal(out.shape)
        d = upstream @ w[1].T * (h > 0.0) if hidden else upstream
        grads, delta = backward(p, cache, upstream)
        assert np.array_equal(grads[0], x.T @ d)
        assert np.array_equal(delta, d)

    def test_width_counts_every_block(self):
        p = init_mlp((5, 2), seed=0)
        forward(p, np.ones((2, 3)), np.ones((2, 2)))
        with pytest.raises(ValueError, match="width 6"):
            forward(p, np.ones((2, 3)), np.ones((2, 3)))


class TestForward:
    def test_identity_extended_weights(self):
        # C x C identity weight: the output is the input
        x = np.random.default_rng(0).standard_normal((5, 3))
        w = np.eye(3)
        p = MlpParams(weights=[w])
        out, _ = forward(p, x)
        assert np.array_equal(out, x)

    def test_zero_weights_zero_output(self):
        x = np.random.default_rng(1).standard_normal((4, 2))
        p = MlpParams(weights=[np.zeros((2, 3)), np.zeros((3, 1))])
        out, _ = forward(p, x)
        assert np.all(out == 0.0)

    def test_matches_dense_chain_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((6, 4))
        p = init_mlp((4, 5, 2), seed=3)
        expected = np.maximum(x @ p.weights[0], 0.0) @ p.weights[1]
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

    @pytest.mark.parametrize("widths", [(3, 2), (3, 4, 2), (3, 4, 5, 2)])
    def test_resumes_from_the_first_layer(self, widths):
        # the forward pass is its first layer and then resume, at any depth
        x = np.random.default_rng(6).standard_normal((7, 3))
        p = init_mlp(widths, seed=7)
        out, cache = forward(p, x)
        got, hiddens = resume(p, x @ p.weights[0])
        assert np.array_equal(got, out)
        assert len(hiddens) == len(widths) - 2
        assert all(np.array_equal(a, b)
                   for a, b in zip(hiddens, cache["hiddens"][1:]))


class TestBackward:
    def test_zero_upstream(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((5, 3))
        p = init_mlp((3, 4, 2), seed=1)
        out, cache = forward(p, x)
        grads, delta = backward(p, cache, np.zeros_like(out))
        assert all(np.all(g == 0.0) for g in grads)
        assert np.all(delta == 0.0)

    def test_linear_least_squares_closed_form(self):
        # single linear layer, squared loss: grad = x^T residual
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 3))
        target = rng.standard_normal(10)
        p = init_mlp((3, 1), seed=3)
        out, cache = forward(p, x)
        resid = out[:, 0] - target
        grads, _ = backward(p, cache, resid[:, None])
        assert np.allclose(grads[0], x.T @ resid[:, None])

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
        _, delta = backward(p, cache, upstream)
        dx = delta @ p.weights[0].T
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
        # backward leaves the input gradient to the caller: it returns
        # delta, the gradient at W^(1)'s output, with x^T delta as W^(1)'s
        # gradient and delta W^(1)^T as the reference's input gradient
        rng = np.random.default_rng(14)
        x = rng.standard_normal((4, 3))
        p = init_mlp(widths, seed=15)
        out, cache = forward(p, x)
        upstream = rng.standard_normal(out.shape)
        grads, delta = backward(p, cache, upstream)
        _, ref_grads, ref_dx = dense_reference(p, x, upstream)
        assert delta.shape == (len(x), p.weights[0].shape[1])
        assert np.array_equal(grads[0], x.T @ delta)
        assert all(np.array_equal(a, b) for a, b in zip(grads, ref_grads))
        assert np.array_equal(delta @ p.weights[0].T, ref_dx)

    @pytest.mark.parametrize("widths", [(3, 2), (3, 5, 2), (3, 5, 4, 2)])
    def test_cache_without_input_leaves_first_gradient(self, widths):
        # the cache of a pass resumed from W^(1)'s output holds no input:
        # W^(1)'s gradient is left to the caller, every other gradient and
        # delta are those of the full cache
        rng = np.random.default_rng(16)
        x = rng.standard_normal((4, 3))
        p = init_mlp(widths, seed=17)
        out, cache = forward(p, x)
        upstream = rng.standard_normal(out.shape)
        grads, delta = backward(p, cache, upstream)
        _, hiddens = resume(p, x @ p.weights[0])
        got, got_delta = backward(p, {"hiddens": [None, *hiddens]}, upstream)
        assert got[0] is None
        assert all(np.array_equal(a, b) for a, b in zip(got[1:], grads[1:]))
        assert np.array_equal(got_delta, delta)


class TestFitToGradient:
    def test_linearly_realizable(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((30, 4))
        w_true = rng.standard_normal(4)
        target = x @ w_true + 0.3
        # the learner has no bias, so the offset rides on a constant column
        ones = np.ones((30, 1))
        cfg = TrainConfig(epochs=400, lr=0.05, weight_decay=0.0)
        params, mse = fit_to_gradient((5, 1), cfg, (x, ones), target,
                                      np.arange(30), seed=2)
        assert mse < 1e-6

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_divergence_raises_with_last_loss(self):
        rng = np.random.default_rng(3)
        x = 1e3 * rng.standard_normal((10, 2))
        target = 1e3 * rng.standard_normal(10)
        cfg = TrainConfig(epochs=200, lr=1e100, weight_decay=0.0)
        with pytest.raises(TrainingDiverged) as err:
            fit_to_gradient((2, 8, 1), cfg, (x,), target, np.arange(10),
                            seed=4)
        assert err.value.last_loss is None or np.isfinite(err.value.last_loss)

    def test_determinism_bit_identical(self):
        rng = np.random.default_rng(5)
        x = rng.standard_normal((20, 3))
        target = rng.standard_normal(20)
        cfg = TrainConfig(epochs=10)
        a, _ = fit_to_gradient((3, 8, 1), cfg, (x,), target, np.arange(15),
                               seed=6)
        b, _ = fit_to_gradient((3, 8, 1), cfg, (x,), target, np.arange(15),
                               seed=6)
        c, _ = fit_to_gradient((3, 8, 1), cfg, (x,), target, np.arange(15),
                               seed=7)
        assert all(np.array_equal(wa, wb)
                   for wa, wb in zip(a.weights, b.weights))
        assert not np.array_equal(a.weights[0], c.weights[0])

    def test_reduces_loss(self):
        rng = np.random.default_rng(9)
        x = rng.standard_normal((30, 4))
        target = x @ rng.standard_normal(4)
        cfg = TrainConfig(epochs=80, lr=0.05, weight_decay=0.0)
        params, mse = fit_to_gradient((4, 1), cfg, (x,), target, np.arange(30),
                                      seed=10)
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
            cfg = TrainConfig(epochs=30, lr=0.05, weight_decay=0.0)
            params, _ = fit_to_gradient((2, 1), cfg, (x,), target,
                                        np.arange(20), seed=seed)
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
        cfg = TrainConfig(epochs=100, lr=0.05, weight_decay=0.0)
        params, werr = fit_classifier((2, 2), cfg, (x,), y, w, np.arange(40),
                                      seed=1)
        assert werr < 0.2

    def test_all_mass_on_one_node(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal((10, 3))
        y = rng.integers(0, 3, 10)
        w = np.zeros(10)
        w[4] = 1.0
        cfg = TrainConfig(epochs=300, lr=0.1, weight_decay=0.0)
        params, werr = fit_classifier((3, 3), cfg, (x,), y, w, np.arange(10),
                                      seed=3)
        pred = np.argmax(forward(params, x)[0], axis=1)
        assert pred[4] == y[4]
        assert werr == 0.0

    def test_constant_features_cannot_beat_prior(self):
        rng = np.random.default_rng(4)
        x = np.ones((30, 2))
        y = rng.integers(0, 3, 30)
        w = rng.random(30)
        w /= w.sum()
        cfg = TrainConfig(epochs=50)
        params, werr = fit_classifier((2, 3), cfg, (x,), y, w, np.arange(30),
                                      seed=5)
        class_mass = np.array([w[y == k].sum() for k in range(3)])
        assert werr >= 1.0 - class_mass.max() - 1e-12

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            fit_classifier((2, 2), TrainConfig(epochs=1), (np.ones((4, 2)),),
                           np.zeros(4, dtype=int), np.zeros(4), np.arange(4))

    @pytest.mark.parametrize("s", [7.0, 1e4])
    def test_rows_above_unit_norm_are_read_at_unit_norm(self, s):
        # train rows of root-mean-square norm above 1 are read scaled down
        # to 1: fitted on s x, W^(1) is W^(1) fitted on x divided by s, to
        # rounding, and the classes are the same
        rng = np.random.default_rng(6)
        x = rng.standard_normal((30, 4))
        assert np.linalg.norm(x) > np.sqrt(30)
        y = rng.integers(0, 3, 30)
        w = rng.random(30)
        cfg = TrainConfig(epochs=20, lr=0.05)
        base, werr = fit_classifier((4, 5, 3), cfg, (x,), y, w,
                                    np.arange(30), seed=7)
        got, werr_s = fit_classifier((4, 5, 3), cfg, (s * x,), y, w,
                                     np.arange(30), seed=7)
        assert np.allclose(s * got.weights[0], base.weights[0], rtol=1e-8,
                           atol=1e-12)
        assert np.allclose(got.weights[1], base.weights[1], rtol=1e-8,
                           atol=1e-12)
        assert werr_s == werr

    def test_rows_below_unit_norm_are_read_as_given(self):
        # rows of root-mean-square norm at most 1 are not scaled up, so a
        # deep stage's smaller input still makes a smaller learner output
        rng, x, train = TestFullBatchFit.problem()
        x = x / 100.0
        labels = rng.integers(0, 3, 40)
        cfg = TrainConfig(epochs=5, lr=0.05)
        w = rng.random(40)
        got, _ = fit_classifier((5, 7, 3), cfg, (x,), labels, w, train,
                                seed=4)
        wt = w[train]
        onehot = np.eye(3)[labels[train]]

        def upstream(out):
            return (softmax(out) - onehot) * (wt / wt.sum())[:, None]
        want = reference_fit((5, 7, 3), cfg, x[train], upstream, seed=4)
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.weights, want.weights))

    def test_deflated_fit_reads_what_the_leading_direction_leaves(self):
        # rows c_i v + e_i u with every c_i > 0 and |e_i| <= 1e-3 c_i, the
        # label the sign of e_i: W^(1) maps the rows' leading right
        # singular direction (near v) to 0, and the learner reads the
        # labels off the small residual, across two input blocks
        rng = np.random.default_rng(8)
        v, u = np.linalg.qr(rng.standard_normal((3, 2)))[0].T
        y = np.repeat([0, 1], 20)
        c = rng.uniform(1.0, 2.0, 40)
        e = (2 * y - 1) * rng.uniform(2e-4, 1e-3, 40)
        x = np.outer(c, v) + np.outer(e, u)
        w = np.ones(40)
        cfg = TrainConfig(epochs=50, lr=0.05)
        params, werr = fit_classifier((3, 4, 2), cfg, (x[:, :1], x[:, 1:]),
                                      y, w, np.arange(40), seed=2,
                                      deflate=True)
        w1 = params.weights[0]
        lead = np.linalg.svd(x)[2][0]
        assert np.abs(lead @ w1).max() <= 1e-12 * np.abs(w1).max()
        assert werr == 0.0


def reference_fit(widths, cfg, x, upstream_of, seed, s=1.0):
    """``init_mlp(widths, seed)`` stepped ``cfg.epochs`` times by the
    textbook Adam on the full-batch gradient of the rows of ``s x`` in
    their given order, and W^(1) then multiplied by s; ``upstream_of(out)``
    is the loss gradient in the output."""
    params = init_mlp(widths, seed=seed)
    opt = AllocatingAdam(cfg.lr, cfg.weight_decay,
                         [w.shape for w in params.weights])
    for _ in range(cfg.epochs):
        out, cache = forward(params, x * s)
        grads, _ = backward(params, cache, upstream_of(out))
        opt.step(params.weights, grads)
    params.weights[0] = params.weights[0] * s
    return params


class TestFullBatchFit:
    """Each epoch is one full-batch step on the train rows as given: the
    fit equals the reference bit for bit, and its seed draws nothing but
    the initial weights."""

    @staticmethod
    def problem():
        rng = np.random.default_rng(31)
        x = rng.standard_normal((40, 5))
        train = np.array([3, 17, 0, 29, 8, 11, 36, 22, 5, 14, 31, 26])
        return rng, x, train

    @pytest.mark.parametrize("epochs", [1, 5])
    def test_fit_to_gradient_matches_reference(self, epochs):
        rng, x, train = self.problem()
        target = rng.standard_normal(40)
        cfg = TrainConfig(epochs=epochs, lr=0.05)
        got, _ = fit_to_gradient((5, 7, 1), cfg, (x,), target, train, seed=4)
        tt = target[train]
        want = reference_fit(
            (5, 7, 1), cfg, x[train],
            lambda out: 2.0 / len(tt) * (out[:, 0] - tt)[:, None], seed=4)
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.weights, want.weights))

    @pytest.mark.parametrize("epochs", [1, 5])
    def test_fit_classifier_matches_reference(self, epochs):
        rng, x, train = self.problem()
        labels = rng.integers(0, 3, 40)
        w = rng.random(40)
        cfg = TrainConfig(epochs=epochs, lr=0.05)
        got, _ = fit_classifier((5, 7, 3), cfg, (x,), labels, w, train, seed=4)
        wt = w[train]
        onehot = np.eye(3)[labels[train]]

        def upstream(out):
            return (softmax(out) - onehot) * (wt / wt.sum())[:, None]
        # these train rows have root-mean-square norm above 1, so the
        # classifier reads them scaled down to 1
        s = np.sqrt(len(train)) / np.linalg.norm(x[train])
        assert s < 1.0
        want = reference_fit((5, 7, 3), cfg, x[train], upstream, seed=4, s=s)
        assert all(np.array_equal(a, b)
                   for a, b in zip(got.weights, want.weights))

    @pytest.mark.parametrize("fit", ["gradient", "classifier"])
    def test_one_generator_per_fit(self, monkeypatch, fit):
        rng, x, train = self.problem()
        seeds = []
        make = np.random.default_rng

        def counted(seed=None):
            seeds.append(seed)
            return make(seed)
        monkeypatch.setattr(np.random, "default_rng", counted)
        cfg = TrainConfig(epochs=3)
        if fit == "gradient":
            fit_to_gradient((5, 4, 1), cfg, (x,), np.ones(40), train, seed=9)
        else:
            fit_classifier((5, 4, 2), cfg, (x,), np.arange(40) % 2,
                           np.ones(40), train, seed=9)
        assert seeds == [9]


class TestOptimizer:
    @pytest.mark.parametrize("decay", [0.0, 5e-4])
    def test_in_place_step_matches_allocating_formulas(self, decay):
        rng = np.random.default_rng(21)
        shapes = [(7, 5), (5,)]
        got = [rng.standard_normal(s) for s in shapes]
        want = [w.copy() for w in got]
        fast = _Adam(0.03, decay, shapes)
        slow = AllocatingAdam(0.03, decay, shapes)
        for _ in range(50):
            grads = [rng.standard_normal(s) for s in shapes]
            saved = [g.copy() for g in grads]
            fast.step(got, grads)
            slow.step(want, saved)
            for g, before in zip(grads, saved):
                assert np.array_equal(g, before)
            for a, b in zip(got, want):
                assert np.array_equal(a, b)


class TestProjectL1Columns:
    def test_scales_to_surface(self):
        p = MlpParams(weights=[np.array([[3.0], [0.0]])])
        out = project_l1_columns(p, 1.0)
        assert np.allclose(out.weights[0], [[1.0], [0.0]])

    def test_inside_ball_untouched(self):
        p = MlpParams(weights=[np.array([[0.2], [-0.3]])])
        out = project_l1_columns(p, 1.0)
        assert np.array_equal(out.weights[0], p.weights[0])

    def test_three_entry_column(self):
        p = MlpParams(weights=[np.array([[1.0], [-1.0], [2.0]])])
        out = project_l1_columns(p, 2.0)
        assert np.allclose(out.weights[0], [[0.5], [-0.5], [1.0]])

    def test_max_column_l1(self):
        p = MlpParams(weights=[np.array([[1.0, -2.0], [0.5, 1.0]])])
        assert max_column_l1(p) == pytest.approx(3.0)
