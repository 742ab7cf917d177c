import numpy as np
import pytest

from graphboost.aggregate import (INJECT_BLOCK, MAX_N_DEG, AlignmentConfig,
                                  Polynomial, _alignment_value_grad, fit_kta,
                                  fixed, injection, kta)
from graphboost.data import one_hot
from graphboost.graph import PropagationMatrix, SparseGraph, base_operator
from reference import alignment, alignment_value_grad, basis_gram, gram


@pytest.fixture
def ring_operator():
    g = SparseGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])
    return base_operator(g)


class TestApply:
    def test_injection_rho_one_equals_fixed(self, ring_operator):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((6, 3))
        x0 = rng.standard_normal((6, 3))
        a = injection(ring_operator, 1.0)
        b = fixed(ring_operator)
        assert np.allclose(a.apply(x, x0), b.apply(x))

    def test_injection_rho_zero_returns_initial(self, ring_operator):
        rng = np.random.default_rng(1)
        x = rng.standard_normal((6, 3))
        x0 = rng.standard_normal((6, 3))
        a = injection(ring_operator, 0.0)
        assert np.allclose(a.apply(x, x0), x0)

    def test_injection_requires_initial(self, ring_operator):
        a = injection(ring_operator, 0.5)
        with pytest.raises(ValueError, match="initial"):
            a.apply(np.ones((6, 2)))

    def test_kta_identity_weights(self, ring_operator):
        x = np.random.default_rng(2).standard_normal((6, 3))
        weights = np.zeros(5)
        weights[0] = 1.0
        a = kta(ring_operator, 3, weights)
        assert np.allclose(a.apply(x), x)

    def test_kta_weight_count_enforced(self, ring_operator):
        with pytest.raises(ValueError):
            kta(ring_operator, 3, np.ones(3))

    def test_kta_powers_match_dense_oracle(self, ring_operator):
        rng = np.random.default_rng(3)
        x = rng.standard_normal((6, 2))
        w = rng.standard_normal(5)
        a = kta(ring_operator, 3, w)
        dense = ring_operator.matrix.toarray()
        expected = w[0] * x
        for k in range(4):
            expected = expected + w[1 + k] * (
                np.linalg.matrix_power(dense, 2 ** k) @ x)
        assert np.max(np.abs(a.apply(x) - expected)) < 1e-10

    @pytest.mark.parametrize("kind", ["fixed", "injection", "kta"])
    def test_linearity_superposition(self, ring_operator, kind):
        rng = np.random.default_rng(4)
        x1 = rng.standard_normal((6, 3))
        x2 = rng.standard_normal((6, 3))
        c1, c2 = 0.7, -1.3
        if kind == "fixed":
            a = fixed(ring_operator)
            f = lambda x: a.apply(x)
        elif kind == "injection":
            # linear in x_t for fixed x_initial = 0
            a = injection(ring_operator, 0.6)
            zero = np.zeros_like(x1)
            f = lambda x: a.apply(x, zero)
        else:
            a = kta(ring_operator, 3, rng.standard_normal(5))
            f = lambda x: a.apply(x)
        lhs = f(c1 * x1 + c2 * x2)
        rhs = c1 * f(x1) + c2 * f(x2)
        assert np.max(np.abs(lhs - rhs)) <= 1e-10


class TestPolynomial:
    def test_pullback_matches_dense_adjoint(self, ring_operator):
        # dense oracle: the adjoint is A^T d for A = sum_i w_i P^{p_i}, and
        # the coefficient gradient is <d, P^{p_i} x>
        rng = np.random.default_rng(13)
        x = rng.standard_normal((6, 2))
        d = rng.standard_normal((6, 2))
        w = rng.standard_normal(5)
        p = ring_operator.matrix.toarray()
        powers = [np.linalg.matrix_power(p, k) for k in (0, 1, 2, 4, 8)]
        adjoint, grad = kta(ring_operator, 3, w).pullback(d, x)
        a = sum(wi * pk for wi, pk in zip(w, powers))
        assert np.max(np.abs(adjoint - a.T @ d)) < 1e-10
        assert np.allclose(grad, [np.vdot(d, pk @ x) for pk in powers],
                           rtol=0, atol=1e-10)

    @pytest.mark.parametrize("make", [
        fixed, lambda op: injection(op, 0.4),
        lambda op: kta(op, 3, [1.1, 0.5, -0.3, 2.0, 0.7])],
        ids=["fixed", "injection", "kta"])
    def test_pullback_is_the_linear_part(self, ring_operator, make):
        # P is symmetric, so the adjoint of the linear part is the linear
        # part itself, bit for bit
        rng = np.random.default_rng(18)
        x, d = rng.standard_normal((6, 2)), rng.standard_normal((6, 2))
        agg = make(ring_operator)
        assert np.array_equal(agg.pullback(d, x)[0], agg.linear(d))

    def test_every_matvec_is_one_operator_apply(self, ring_operator,
                                                monkeypatch):
        # per-layer profiles count P x by wrapping PropagationMatrix.apply
        # on the class, so every power must be reached through it
        calls = []
        apply = PropagationMatrix.apply

        def counted(self, x):
            calls.append(np.shape(x))
            return apply(self, x)
        monkeypatch.setattr(PropagationMatrix, "apply", counted)
        agg = kta(ring_operator, 3, [1.1, 0.5, -0.3, 2.0, 0.7])
        x = np.random.default_rng(20).standard_normal((6, 2))
        # the top power, P^8 x, takes 8 matvecs
        for run, matvecs in [(lambda: list(agg.terms(x)), 8),
                             (lambda: agg.linear(x), 8),
                             (lambda: agg.pullback(x, x), 8),
                             (lambda: injection(ring_operator, 0.4)
                              .apply(x, x), 1)]:
            calls.clear()
            run()
            assert calls == [(6, 2)] * matvecs

    def test_linear_drops_the_injected_term(self, ring_operator):
        x = np.random.default_rng(14).standard_normal((6, 3))
        a = injection(ring_operator, 0.25)
        p = ring_operator.matrix.toarray()
        assert np.allclose(a.linear(x), 0.25 * (p @ x))

    @pytest.mark.parametrize("weights", [
        [1.1, 0.5, -0.3, 2.0, 0.7], [1.0, 0.5, 1.0, 2.0, 1.0], [1.0] * 5])
    def test_inputs_untouched_and_dense_exact(self, ring_operator, weights):
        # products and sums are taken in place where no one else reads the
        # array; the inputs must come back unchanged and the results equal
        # the dense polynomial
        rng = np.random.default_rng(15)
        x, x0, d = (rng.standard_normal((6, 2)) for _ in range(3))
        saved = [x.copy(), x0.copy(), d.copy()]
        p = ring_operator.matrix.toarray()
        powers = [np.linalg.matrix_power(p, k) for k in (0, 1, 2, 4, 8)]
        a = sum(w * pk for w, pk in zip(weights, powers))
        for agg, dense in ((kta(ring_operator, 3, weights), a),
                           (fixed(ring_operator), p),
                           (injection(ring_operator, 0.4), 0.4 * p)):
            assert np.allclose(agg.apply(x, x0),
                               dense @ x + agg.inject * x0, atol=1e-12)
            assert np.allclose(agg.pullback(d, x)[0], dense.T @ d,
                               atol=1e-12)
            for before, after in zip(saved, (x, x0, d)):
                assert np.array_equal(before, after)

    @pytest.mark.parametrize("shape", [(6, 3), (6,)], ids=["2d", "1d"])
    def test_injection_bit_identical_to_allocating_sum(self, ring_operator,
                                                       shape):
        rng = np.random.default_rng(16)
        x, x0 = rng.standard_normal(shape), rng.standard_normal(shape)
        a = injection(ring_operator, 0.3)
        assert np.array_equal(a.apply(x, x0), a.linear(x) + a.inject * x0)

    def test_injection_spanning_row_blocks(self):
        # more rows than one buffer block holds
        n, c = 2 * INJECT_BLOCK // 8 + 3, 8
        g = SparseGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])
        a = injection(base_operator(g), 0.7)
        rng = np.random.default_rng(17)
        x, x0 = rng.standard_normal((n, c)), rng.standard_normal((n, c))
        assert np.array_equal(a.apply(x, x0), a.linear(x) + a.inject * x0)

    def test_identity_with_injection_leaves_input(self, ring_operator):
        x = np.random.default_rng(18).standard_normal((6, 2))
        saved = x.copy()
        a = Polynomial(ring_operator, (0,), (1.0,), inject=0.5)
        assert np.array_equal(a.apply(x, x), saved + 0.5 * saved)
        assert np.array_equal(x, saved)

    def test_powers_must_ascend(self, ring_operator):
        with pytest.raises(ValueError, match="ascend"):
            Polynomial(ring_operator, (1, 1), (1.0, 2.0))

    @pytest.mark.parametrize("rho", [-0.1, 1.5])
    def test_injection_rho_validated(self, ring_operator, rho):
        with pytest.raises(ValueError, match="rho"):
            injection(ring_operator, rho)

    def test_kta_degree_validated(self, ring_operator):
        with pytest.raises(ValueError, match="n_deg"):
            kta(ring_operator, -1)

    @pytest.mark.parametrize("n_deg", [MAX_N_DEG + 1, True, 2.0])
    def test_kta_degree_beyond_the_bound_refused(self, ring_operator, n_deg):
        # P^1024 at most: a larger degree asks for 2^n_deg products, and a
        # bool or float is no degree (a huge degree is the CLI test's, under
        # an alarm)
        with pytest.raises(ValueError, match="n_deg"):
            kta(ring_operator, n_deg)

    def test_kta_degree_bound_is_reached(self, ring_operator):
        agg = kta(ring_operator, MAX_N_DEG)
        assert agg.powers[-1] == 2 ** MAX_N_DEG == 1024


class TestGram:
    def test_orthonormal_rows_identity(self):
        z = np.eye(4)
        assert np.allclose(gram(z, [0, 1, 2]), np.eye(3))

    def test_duplicated_row(self):
        z = np.array([[1.0, 2.0], [1.0, 2.0], [0.0, 1.0]])
        k = gram(z, [0, 1])
        assert k[0, 1] == k[0, 0]
        assert np.linalg.matrix_rank(k) == 1

    def test_matches_double_loop_oracle(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((8, 4))
        ids = [1, 3, 4, 6]
        k = gram(z, ids)
        for a, i in enumerate(ids):
            for b, j in enumerate(ids):
                assert k[a, b] == pytest.approx(float(z[i] @ z[j]),
                                                abs=1e-12)

    def test_psd(self):
        rng = np.random.default_rng(6)
        z = rng.standard_normal((10, 3))
        vals = np.linalg.eigvalsh(gram(z, np.arange(6)))
        assert vals.min() >= -1e-10

    def test_needs_two_rows(self):
        with pytest.raises(ValueError):
            gram(np.ones((3, 2)), [0])


class TestAlignment:
    def test_self_alignment_is_one(self):
        z = np.random.default_rng(7).standard_normal((5, 3))
        assert alignment(z, z, np.arange(4)) == pytest.approx(1.0)

    def test_global_sign_invariance(self):
        z = np.random.default_rng(8).standard_normal((5, 3))
        assert alignment(z, -z, np.arange(4)) == pytest.approx(1.0)

    def test_block_constant_matches_one_hot(self):
        # two clusters with unit-norm rows aligned to their classes
        z = np.array([[1.0, 0.0], [1.0, 0.0], [0.0, 1.0], [0.0, 1.0]])
        y = one_hot([0, 0, 1, 1], 2)
        assert alignment(z, y, np.arange(4)) == pytest.approx(1.0)

    def test_zero_gram_rejected(self):
        with pytest.raises(ValueError, match="all-zero"):
            alignment(np.zeros((4, 2)), np.ones((4, 2)), np.arange(3))

    def test_permutation_invariance(self):
        rng = np.random.default_rng(9)
        z1 = rng.standard_normal((6, 3))
        z2 = rng.standard_normal((6, 2))
        ids = np.arange(5)
        base = alignment(z1, z2, ids)
        perm = rng.permutation(5)
        z1p, z2p = z1.copy(), z2.copy()
        z1p[ids] = z1[ids][perm]
        z2p[ids] = z2[ids][perm]
        assert alignment(z1p, z2p, ids) == pytest.approx(base)


class TestFitKta:
    def test_gradient_matches_finite_differences(self, ring_operator):
        rng = np.random.default_rng(10)
        x = rng.standard_normal((6, 3))
        y = one_hot([0, 1, 0, 1], 2)
        train = np.arange(4)
        agg = kta(ring_operator)
        g = basis_gram([b[train] for b in agg.terms(x)])
        k_target = y @ y.T
        theta = rng.standard_normal(5)
        rho, grad = _alignment_value_grad(g, theta, k_target)
        eps = 1e-6
        for i in range(5):
            tp, tm = theta.copy(), theta.copy()
            tp[i] += eps
            tm[i] -= eps
            fp, _ = _alignment_value_grad(g, tp, k_target)
            fm, _ = _alignment_value_grad(g, tm, k_target)
            fd = (fp - fm) / (2 * eps)
            assert abs(grad[i] - fd) / max(abs(fd), 1e-10) < 1e-5

    def test_monotone_ascent_on_clustered_features(self, ring_operator):
        # class-clustered features: alignment should improve from the
        # all-ones initialization
        rng = np.random.default_rng(11)
        labels = np.array([0, 0, 0, 1, 1, 1])
        x = one_hot(labels, 2) + 0.05 * rng.standard_normal((6, 2))
        train = np.arange(6)
        y = one_hot(labels, 2)
        agg = kta(ring_operator)
        initial = alignment(agg.apply(x), y, train)
        fitted, _, achieved = fit_kta(agg, x, y, train,
                                      AlignmentConfig(epochs=30, lr=0.05))
        assert achieved > initial

    def test_random_labels_barely_improve(self):
        # labels independent of features: improvement < 0.05 in >= 90/100
        # seeds (pilot: 20 train nodes keep the 5 weights from overfitting;
        # observed 94/100, mean improvement 0.027)
        n = 20
        g = SparseGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])
        op = base_operator(g)
        hits = 0
        for seed in range(100):
            rng = np.random.default_rng(2000 + seed)
            x = rng.standard_normal((n, 3))
            labels = rng.integers(0, 2, n)
            y = one_hot(labels, 2)
            train = np.arange(n)
            agg = kta(op)
            initial = alignment(agg.apply(x), y, train)
            _, _, achieved = fit_kta(agg, x, y, train,
                                     AlignmentConfig(epochs=30, lr=1e-2))
            hits += (achieved - initial) < 0.05
        assert hits >= 90

    def test_never_reads_test_labels(self, ring_operator):
        # the signature only admits train-restricted labels; a full-length
        # label matrix is rejected
        x = np.random.default_rng(12).standard_normal((6, 2))
        y_full = one_hot([0, 1, 0, 1, 0, 1], 2)
        with pytest.raises(ValueError, match="train"):
            fit_kta(kta(ring_operator), x, y_full, np.arange(4),
                    AlignmentConfig(epochs=2))

    @pytest.mark.parametrize("seed", [13, 14, 15])
    def test_fitted_weights_sum_to_one_at_the_same_alignment(
            self, ring_operator, seed):
        # a positive scale of the weights leaves the alignment, a cosine of
        # Gram matrices, as the ascent reached it
        rng = np.random.default_rng(seed)
        x = rng.standard_normal((6, 3))
        y = one_hot([0, 1, 0, 1], 2)
        train = np.arange(4)
        agg = kta(ring_operator)
        fitted, _, achieved = fit_kta(agg, x, y, train,
                                      AlignmentConfig(epochs=20, lr=0.05))
        assert fitted.coefs.sum() == pytest.approx(1.0, rel=0, abs=1e-15)
        g = basis_gram([b[train] for b in agg.terms(x)])
        scaled, _ = _alignment_value_grad(g, fitted.coefs, y @ y.T)
        assert abs(scaled - achieved) <= 1e-12
        assert abs(alignment(fitted.apply(x), y, train) - achieved) <= 1e-12

    def test_nonpositive_sum_is_left_unscaled(self, ring_operator):
        # q(1) <= 0 has no positive scale that makes it 1
        x = np.random.default_rng(16).standard_normal((6, 3))
        y = one_hot([0, 1, 0, 1], 2)
        agg = kta(ring_operator, weights=-np.ones(5))
        fitted, _, _ = fit_kta(agg, x, y, np.arange(4),
                               AlignmentConfig(epochs=1, lr=1e-3))
        assert fitted.coefs.sum() == pytest.approx(-5.0, abs=0.01)

    @pytest.mark.parametrize("seed", [17, 18, 19])
    def test_gram_matches_the_direct_formula(self, seed):
        # the ascent's value and gradient from the basis Gram B B^T are the
        # direct ones, from Z = sum_i theta_i B_i, up to rounding; basis
        # blocks of falling scale, as repeated smoothing gives
        rng = np.random.default_rng(seed)
        m, c = 12, 30
        basis = [0.5 ** i * rng.standard_normal((m, c)) for i in range(6)]
        y = one_hot(rng.integers(0, 3, m), 3)
        theta = rng.standard_normal(6)
        rho, grad = _alignment_value_grad(basis_gram(basis), theta, y @ y.T)
        rho_ref, grad_ref = alignment_value_grad(basis, theta, y @ y.T)
        assert abs(rho - rho_ref) <= 1e-12 * abs(rho_ref)
        assert (np.linalg.norm(grad - grad_ref)
                <= 1e-12 * np.linalg.norm(grad_ref))

    @pytest.mark.parametrize("n_deg", [0, 1, 3])
    def test_output_is_the_fitted_apply(self, n_deg):
        # the powers walked for the fit are summed into the stage's output,
        # bit for bit the fitted polynomial's own apply; the input is left
        n = 30
        g = SparseGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)]
                                   + [(i, (i + 7) % n) for i in range(n)])
        rng = np.random.default_rng(21)
        x = rng.standard_normal((n, 4))
        saved = x.copy()
        train = np.arange(0, n, 3)
        y = one_hot(rng.integers(0, 2, len(train)), 2)
        fitted, out, _ = fit_kta(kta(base_operator(g), n_deg), x, y, train,
                                 AlignmentConfig(epochs=5, lr=0.05))
        assert np.array_equal(out, fitted.apply(x))
        assert np.array_equal(x, saved)

    def test_initial_weights_are_ones(self, ring_operator):
        agg = kta(ring_operator)
        assert np.array_equal(agg.coefs, np.ones(5))
