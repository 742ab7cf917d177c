import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from graphboost.data import random_partition
from graphboost.losses import (errors, margin_loss, sigmoid, sigmoid_ce,
                               surrogate_grad)


class TestMarginLoss:
    def test_confident_correct(self):
        assert margin_loss(2.0, 1, 0.0) == 0.0

    def test_confident_wrong(self):
        assert margin_loss(-2.0, 1, 0.0) == 1.0

    def test_margin_requirement(self):
        # 2*sigmoid(2) - 1 = 0.76159... < 0.9 counts as an error
        assert 2 * sigmoid(2.0) - 1 == pytest.approx(0.7615941559557649)
        assert margin_loss(2.0, 1, 0.9) == 1.0

    def test_boundary_is_correct(self):
        # zero score sits exactly on the delta=0 margin; strict '<'
        assert margin_loss(0.0, 1, 0.0) == 0.0
        assert margin_loss(0.0, 0, 0.0) == 0.0

    def test_negative_delta_rejected(self):
        with pytest.raises(ValueError):
            margin_loss(0.0, 1, -0.1)


class TestSigmoidCe:
    def test_ln2_at_zero(self):
        assert sigmoid_ce(0.0, 1) == pytest.approx(np.log(2.0))
        assert sigmoid_ce(0.0, 0) == pytest.approx(np.log(2.0))

    def test_stable_form_value(self):
        # oracle: ln(1 + e^{-3}) computed by the log1p route
        assert sigmoid_ce(3.0, 1) == pytest.approx(np.log1p(np.exp(-3.0)),
                                                   rel=1e-9)
        assert sigmoid_ce(3.0, 1) == pytest.approx(0.048587, abs=1e-6)

    def test_extreme_scores_stay_finite(self):
        assert np.isfinite(sigmoid_ce(1000.0, 0))
        assert np.isfinite(sigmoid_ce(-1000.0, 1))
        # clipping caps the loss at -log(DEFAULT_CLIP) = -log(1e-7)
        assert sigmoid_ce(-1000.0, 1) == pytest.approx(-np.log(1e-7))

    @given(st.floats(-30, 30))
    @settings(max_examples=50, deadline=None)
    def test_second_derivative_bounded_by_quarter(self, score):
        # smoothness constant of the surrogate: p(1-p) <= 1/4
        p = sigmoid(score)
        assert p * (1 - p) <= 0.25 + 1e-12


class TestSurrogateGrad:
    def test_uniform_zero_scores(self):
        split = random_partition(10, 5, seed=0)
        y = np.ones(10)
        g = surrogate_grad(np.zeros(10), y, split)
        assert np.allclose(g[split.train], -1.0 / (2 * 5))
        assert np.all(g[split.test] == 0.0)

    def test_saturation(self):
        split = random_partition(6, 3, seed=1)
        y = np.ones(6)
        g = surrogate_grad(np.full(6, 50.0), y, split)
        assert np.max(np.abs(g)) < 1e-20

    def test_support_is_exactly_train(self):
        rng = np.random.default_rng(2)
        split = random_partition(20, 7, seed=3)
        g = surrogate_grad(rng.standard_normal(20),
                           rng.integers(0, 2, 20), split)
        assert np.all(g[split.test] == 0.0)
        assert np.all(g[split.train] != 0.0)

    def test_finite_difference_oracle(self):
        # independent oracle: central differences of the averaged surrogate
        rng = np.random.default_rng(4)
        split = random_partition(5, 3, seed=5)
        y = rng.integers(0, 2, 5)
        yhat = rng.standard_normal(5)

        def loss(v):
            # standard-normal scores never reach the clip
            return float(np.mean(sigmoid_ce(v[split.train], y[split.train])))

        g = surrogate_grad(yhat, y, split)
        eps = 1e-6
        for i in range(5):
            e = np.zeros(5)
            e[i] = eps
            fd = (loss(yhat + e) - loss(yhat - e)) / (2 * eps)
            if fd == 0.0:
                assert g[i] == 0.0
            else:
                assert abs(g[i] - fd) / abs(fd) < 1e-6


class TestErrors:
    def test_all_correct(self):
        split = random_partition(8, 4, seed=0)
        y = np.array([0, 1] * 4)
        yhat = np.where(y == 1, 5.0, -5.0)
        e = errors(yhat, y, split)
        assert e["train_err"] == 0.0 and e["test_err"] == 0.0

    def test_zero_scores_are_class_zero(self):
        # the class predict gives: a binary score is class 1 iff > 0
        split = random_partition(8, 4, seed=1)
        y = np.array([0, 1] * 4)
        e = errors(np.zeros(8), y, split)
        assert e["train_err"] == np.mean(y[split.train] == 1)
        assert e["test_err"] == np.mean(y[split.test] == 1)

    def test_multiclass_argmax_with_tie_break(self):
        split = random_partition(4, 2, seed=3)
        y = np.array([0, 1, 0, 1])
        scores = np.zeros((4, 2))  # ties -> class 0 everywhere
        e = errors(scores, y, split)
        expected_train = np.mean(y[split.train] != 0)
        assert e["train_err"] == pytest.approx(expected_train)


class TestGradientErrorInequality:
    @pytest.mark.parametrize("seed", range(5))
    def test_margin_error_bounded_by_gradient_l1(self, seed):
        # at delta = 0 every training margin error forces at least 1/2 of
        # per-sample gradient mass, so train_err <= 2 sum_n |grad_n|
        rng = np.random.default_rng(seed)
        n = 30
        split = random_partition(n, 12, seed=seed)
        y = rng.integers(0, 2, n)
        yhat = 3.0 * rng.standard_normal(n)
        e = errors(yhat, y, split)
        g = surrogate_grad(yhat, y, split)
        assert e["train_err"] <= (1 + np.exp(0.0)) * np.abs(g).sum() + 1e-12
