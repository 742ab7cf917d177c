import itertools
import math
import os
import subprocess
import sys
import textwrap
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp

from graphboost.boost import (AggregatorSpec, BoostConfig,
                              run_functional_gb, run_samme,
                              stage_inputs)
from graphboost.data import partition_constants, synthesize_two_block
from graphboost.graph import PropagationMatrix, SparseGraph, base_operator
from graphboost.mlp import MlpParams, TrainConfig, project_l1_columns
from graphboost.theory import (ComplexityConstants, NumericalError,
                               build_theory_report, generalization_bound,
                               mc_transductive_rademacher,
                               optimization_bound, rademacher_bound,
                               smoothing_report, wlc_complexity_lower_bound)
from reference import dense_smoothing_report
from test_graph import random_connected_graph, two_component_graph


# peak resident growth of one smoothing_report in a fresh process, in N x N
# float64 arrays; a first call on a small graph loads the modules it imports
_REPORT_PEAK_SCRIPT = textwrap.dedent("""
    import resource, sys
    import numpy as np
    from graphboost.graph import SparseGraph, base_operator
    from graphboost.theory import smoothing_report
    def operator(n):
        rng = np.random.default_rng(0)
        path = np.stack([np.arange(n - 1), np.arange(1, n)], axis=1)
        extra = rng.integers(0, n, size=(2 * n, 2))
        extra = extra[extra[:, 0] != extra[:, 1]]
        return base_operator(SparseGraph.from_edges(n, np.vstack([path,
                                                                  extra])))
    smoothing_report(operator(10), np.ones((10, 4)), t_max=2)
    n = int(sys.argv[1])
    p = operator(n)
    x = np.random.default_rng(1).standard_normal((n, 4))
    before = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    smoothing_report(p, x, t_max=32)
    after = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print((after - before) * 1024 / (8.0 * n * n))
""")


def dense_stage_maps(model, ds):
    """Every stage's map X -> learner input, as the dense matrix the stage
    chain gives on identity features (its blocks side by side)."""
    return (np.hstack(blocks) for blocks in
            stage_inputs(model, replace(ds, features=np.eye(ds.n))))


class TestOptimizationBound:
    def test_literal_substitution(self):
        bound, _ = optimization_bound(np.log(2.0), 10, [1.0], delta=0.0)
        assert bound == pytest.approx(2 * np.log(2.0) / 20)

    def test_doubling_gamma_halves_bound(self):
        b1, _ = optimization_bound(1.0, 5, [0.5], delta=0.1)
        b2, _ = optimization_bound(1.0, 5, [1.0], delta=0.1)
        assert b2 == pytest.approx(b1 / 2)

    def test_reference_curve_is_reciprocal(self):
        _, curve = optimization_bound(1.0, 4, [0.5] * 100)
        products = curve * np.arange(1, 101)
        assert np.allclose(products, products[0])

    def test_zero_gamma_rejected(self):
        with pytest.raises(ValueError):
            optimization_bound(1.0, 4, [0.0])


class TestRademacherBound:
    def test_empty_product_conventions(self):
        # t = 1 with a single linear layer: D = 2 sqrt(2) regardless of cap
        for b in (0.1, 1.0, 7.0):
            c = ComplexityConstants(n_layers=1, b_tilde=b, c_tildes=(),
                                    m=4, u=4)
            assert c.d_constant == pytest.approx(2 * np.sqrt(2))

    def test_two_layer_substitution(self):
        c = ComplexityConstants(n_layers=2, b_tilde=1.0, c_tildes=(1.0,),
                                m=4, u=4)
        assert c.d_constant == pytest.approx(4 * np.sqrt(2))

    def test_homogeneous_in_features(self):
        c = ComplexityConstants(n_layers=2, b_tilde=0.5, c_tildes=(2.0,),
                                m=3, u=5)
        assert rademacher_bound(c, 2.0) == pytest.approx(
            2 * rademacher_bound(c, 1.0))

    def test_no_zero_power_pathologies(self):
        c = ComplexityConstants(n_layers=1, b_tilde=0.0, c_tildes=(), m=2,
                                u=2)
        assert np.isfinite(c.d_constant) and c.d_constant > 0


class TestGeneralizationBound:
    def test_confidence_term_substitution(self):
        # M = U = 2, delta' = 1/e: last addend = sqrt(S Q / 2) with
        # S = 32/21, Q = 1
        total, parts = generalization_bound(0.0, [], 2, 2, c0=0.0,
                                            delta_prime=1 / np.e)
        assert parts["s"] == pytest.approx(32 / 21)
        assert parts["q"] == pytest.approx(1.0)
        assert parts["confidence"] == pytest.approx(np.sqrt(16 / 21))
        assert total == pytest.approx(np.sqrt(16 / 21))

    def test_zero_everything_leaves_train_plus_confidence(self):
        total, parts = generalization_bound(0.3, [0.0, 0.0], 10, 10, c0=0.0,
                                            delta_prime=0.5)
        assert total == pytest.approx(0.3 + parts["confidence"])

    def test_s_close_to_one_at_scale(self):
        _, parts = generalization_bound(0.0, [], 10 ** 4, 10 ** 4, c0=0.0,
                                        delta_prime=0.5)
        assert abs(parts["s"] - 1.0) <= 1e-3

    def test_monotone_in_rad_terms_and_confidence(self):
        lo, _ = generalization_bound(0.1, [0.1], 8, 8, delta_prime=0.5)
        hi, _ = generalization_bound(0.1, [0.2], 8, 8, delta_prime=0.5)
        assert hi > lo
        tight, _ = generalization_bound(0.1, [0.1], 8, 8, delta_prime=0.5)
        loose, _ = generalization_bound(0.1, [0.1], 8, 8, delta_prime=0.01)
        assert loose > tight

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            generalization_bound(0.0, [], 2, 2, delta_prime=0.0)
        with pytest.raises(ValueError):
            generalization_bound(0.0, [], 2, 2, c0=-1.0)


def sign_cube(n):
    return np.array(list(itertools.product([-1.0, 0.0, 1.0], repeat=n)))


class TestMcTransductiveRademacher:
    def test_singleton_is_zero_mean(self):
        est, se = mc_transductive_rademacher(np.ones((1, 6)), 3, 3, seed=0)
        assert abs(est) <= 3 * se + 1e-12

    def test_sign_cube_analytic_value(self):
        # sup over {-1,0,1}^4 is ||sigma||_1; E = Q * N * 2 p0 = 2.0
        est, se = mc_transductive_rademacher(sign_cube(4), 2, 2, seed=1)
        assert abs(est - 2.0) <= 3 * se

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(2)
        v = rng.standard_normal((20, 6))
        e1, _ = mc_transductive_rademacher(v, 3, 3, seed=3)
        e2, _ = mc_transductive_rademacher(2.0 * v, 3, 3, seed=3)
        assert e2 == pytest.approx(2.0 * e1)

    def test_deterministic_per_seed(self):
        v = np.random.default_rng(4).standard_normal((5, 4))
        a = mc_transductive_rademacher(v, 2, 2, seed=7)
        b = mc_transductive_rademacher(v, 2, 2, seed=7)
        assert a == b

    def test_half_p_matches_classical_sampler(self):
        # independent oracle: classical +-1 Rademacher supremum, scaled by
        # Q (the p = 1/2 three-valued variable never takes 0)
        rng = np.random.default_rng(5)
        v = rng.standard_normal((10, 5))
        m = u = 4
        est, se = mc_transductive_rademacher(v, m, u, p=0.5,
                                             n_samples=40000, seed=6)
        draws = rng.choice([-1.0, 1.0], size=(40000, 5))
        sups = (v @ draws.T).max(axis=0)
        q = 1.0 / m + 1.0 / u
        classical = q * sups.mean()
        classical_se = q * sups.std(ddof=1) / np.sqrt(40000)
        assert abs(est - classical) <= 3 * np.hypot(se, classical_se)

    def test_empty_set_rejected(self):
        with pytest.raises(ValueError):
            mc_transductive_rademacher(np.empty((0, 3)), 2, 2)


class TestWlcComplexityLowerBound:
    def test_values(self):
        assert wlc_complexity_lower_bound(1.0, 0.0) == pytest.approx(1.0)
        assert wlc_complexity_lower_bound(2.0, 1.0) == pytest.approx(1.5)

    def test_range_validation(self):
        with pytest.raises(ValueError):
            wlc_complexity_lower_bound(1.0, 1.0)

    def test_construction_attains_lower_bound(self):
        # V = {alpha g : g in {-1,0,1}^N} satisfies the condition with
        # beta = 0; its complexity estimate must reach alpha * Q * N * 2 p0
        # and dominate the lower bound alpha
        alpha = 1.0
        v = alpha * sign_cube(4)
        est, se = mc_transductive_rademacher(v, 2, 2, seed=8)
        assert est + 3 * se >= wlc_complexity_lower_bound(alpha, 0.0)
        assert abs(est - 2.0 * alpha) <= 3 * se


class TestSmoothingReport:
    def test_component_orthogonal_to_top_dies(self):
        g = SparseGraph.from_edges(2, [(0, 1)])
        traj = smoothing_report(base_operator(g),
                                np.array([[1.0], [-1.0]]), t_max=3)
        assert traj.frobenius_direct[0] == pytest.approx(np.sqrt(2))
        assert np.allclose(traj.frobenius_direct[1:], 0.0, atol=1e-12)

    def test_top_eigenvector_is_fixed_point(self):
        g = SparseGraph.from_edges(2, [(0, 1)])
        xi1 = np.array([[1.0], [1.0]]) / np.sqrt(2)
        traj = smoothing_report(base_operator(g), xi1, t_max=5)
        assert np.allclose(traj.frobenius_direct, 1.0)
        assert np.allclose(traj.rank_one_distance, 0.0, atol=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_dual_computation_agrees_on_random_graphs(self, seed):
        g = random_connected_graph(30, 0.12, seed=seed)
        x = np.random.default_rng(seed).standard_normal((30, 5))
        traj = smoothing_report(base_operator(g), x, t_max=16)
        # construction raises if they disagree; double-check the arrays
        for d, s in zip(traj.frobenius_direct, traj.frobenius_spectral):
            assert abs(d ** 2 - s ** 2) <= 1e-6 * max(d ** 2, s ** 2, 1e-9)

    def test_rank_one_distance_nonincreasing(self):
        g = random_connected_graph(25, 0.15, seed=9)
        x = np.random.default_rng(9).standard_normal((25, 3))
        traj = smoothing_report(base_operator(g), x, t_max=12)
        r = traj.rank_one_distance
        assert np.all(r[1:] <= r[:-1] + 1e-10)

    def test_disconnected_graph_against_dense_projection(self):
        # eigenvalue 1 has one eigenvector per component, sqrt(deg + 1) on
        # it; the distance and the cosines are taken against all of them
        g = SparseGraph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4),
                                       (4, 5), (5, 6)])
        p = base_operator(g)
        x = np.random.default_rng(3).standard_normal((7, 4))
        traj = smoothing_report(p, x, t_max=6)
        proj = np.zeros((7, 7))
        for comp in ([0, 1, 2], [3, 4, 5, 6]):
            u = np.zeros(7)
            u[comp] = np.sqrt(g.degrees[comp] + 1.0)
            proj += np.outer(u, u) / (u @ u)
        cur = x
        for t in range(7):
            top = proj @ cur
            cos = np.linalg.norm(top, axis=0) / np.linalg.norm(cur, axis=0)
            assert abs(traj.rank_one_distance[t]
                       - np.linalg.norm(cur - top)) <= 1e-12
            assert abs(traj.cos_top[t] - cos.max()) <= 1e-12
            cur = p.matrix.toarray() @ cur
        assert traj.rank_one_distance[-1] < 0.5 * traj.rank_one_distance[0]

    def test_requires_n_rows(self):
        # a C x N input is refused, not transposed, before any
        # propagation
        g = random_connected_graph(6, 0.5, seed=1)
        x = np.random.default_rng(1).standard_normal((6, 2))
        with pytest.raises(ValueError, match=r"N = 6, got shape \(2, 6\)"):
            smoothing_report(base_operator(g), x.T, t_max=2)
        with pytest.raises(ValueError, match=r"got shape \(6,\)"):
            smoothing_report(base_operator(g), x[:, 0], t_max=2)

    def test_csv_emission(self, tmp_path):
        g = SparseGraph.from_edges(3, [(0, 1), (1, 2), (0, 2)])
        traj = smoothing_report(base_operator(g), np.eye(3),
                                t_max=2)
        path = tmp_path / "spectral.csv"
        traj.write_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "t,frob_direct,frob_spectral,cos_xi1_max,rank1_dist"
        assert len(lines) == 4


    def test_spectral_csv_bytes_unchanged(self, tmp_path):
        # the expected bytes are those of the component-basis report; each
        # value is also held within 1e-15 relative of the bytes the dense
        # eigendecomposition path wrote before it (t and frob_direct equal)
        g = SparseGraph.from_edges(7, [(0, 1), (1, 2), (0, 2), (3, 4),
                                       (4, 5), (5, 6)])
        x = np.random.default_rng(3).standard_normal((7, 2))
        path = tmp_path / "spectral.csv"
        smoothing_report(base_operator(g), x,
                         t_max=3).write_csv(path)
        text = path.read_text()
        assert text == (
            "t,frob_direct,frob_spectral,cos_xi1_max,rank1_dist\n"
            "0,5.298217601296804,5.2982176012968045,0.5842815582515349,"
            "4.428418294869635\n"
            "1,3.3447927284979455,3.3447927284979446,0.8757587510998751,"
            "1.6514894005889198\n"
            "2,3.1203468865529596,3.120346886552958,0.9403241861715005,"
            "1.1297537501887582\n"
            "3,3.0216645349688602,3.0216645349688585,0.9675655373713864,"
            "0.8186790613747185\n")
        dense = np.array([
            [0, 5.298217601296804, 5.298217601296804, 0.5842815582515349,
             4.428418294869634],
            [1, 3.3447927284979455, 3.3447927284979446, 0.8757587510998754,
             1.6514894005889196],
            [2, 3.1203468865529596, 3.1203468865529587, 0.9403241861715008,
             1.129753750188758],
            [3, 3.0216645349688602, 3.0216645349688585, 0.9675655373713867,
             0.8186790613747182]])
        got = np.array([[float(v) for v in line.split(",")]
                        for line in text.splitlines()[1:]])
        assert np.array_equal(got[:, :2], dense[:, :2])
        np.testing.assert_allclose(got, dense, rtol=1e-15, atol=0.0)

    @pytest.mark.parametrize("make", [
        lambda: random_connected_graph(40, 0.1, seed=3),
        lambda: two_component_graph(41, seed=12),
        # a connected block of 30 nodes and 6 isolated ones
        lambda: SparseGraph.from_edges(
            36, random_connected_graph(30, 0.1, seed=5).edges),
    ], ids=["connected", "two_components", "isolated_nodes"])
    def test_matches_dense_eigendecomposition(self, make):
        g = make()
        x = np.random.default_rng(g.n_nodes).standard_normal((g.n_nodes, 4))
        got = smoothing_report(base_operator(g), x, t_max=16)
        want = dense_smoothing_report(base_operator(g), x, t_max=16)
        for name in ("frobenius_direct", "frobenius_spectral", "cos_top",
                     "rank_one_distance"):
            np.testing.assert_allclose(getattr(got, name),
                                       getattr(want, name), rtol=1e-12,
                                       atol=0.0, err_msg=name)

    @pytest.mark.parametrize("edit,first_t", [
        (lambda m: 0.5 * m, 1),
        (lambda m: m - sp.diags(m.diagonal()), 0),
    ], ids=["half", "zero_diagonal"])
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_operator_that_does_not_fix_top_space_raises(self, edit,
                                                         first_t):
        # 0.5 P is symmetric with the same components, but it halves V_1 at
        # every step, so the second computation of the norm disagrees; with
        # a zero diagonal, 1 / sqrt(P_ii) gives no basis and the gap is NaN
        g = random_connected_graph(20, 0.15, seed=4)
        m = sp.csr_matrix(edit(base_operator(g).matrix))
        x = np.random.default_rng(4).standard_normal((20, 3))
        with pytest.raises(NumericalError, match=f"disagree at t={first_t}"):
            smoothing_report(PropagationMatrix(m), x, t_max=4)

    def test_peak_memory_holds_no_n_by_n_array(self):
        # the dense eigendecomposition grew the peak by about 3.4 N x N
        # float64 arrays; the component basis holds N x C ones
        n = 3000
        src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
        env = {**os.environ, "PYTHONPATH": src, "OPENBLAS_NUM_THREADS": "1",
               "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
        out = subprocess.run(
            [sys.executable, "-c", _REPORT_PEAK_SCRIPT, str(n)], env=env,
            capture_output=True, text=True, check=True, timeout=120)
        assert float(out.stdout) < 0.5


class TestTheoryReport:
    def test_functional_report_asserts_bound(self):
        ds = synthesize_two_block(40, 0.8, 0.05, seed=0)
        cfg = BoostConfig(
            n_rounds=4, hidden=(8,),
            learner=TrainConfig(epochs=40, lr=0.02, weight_decay=0.0),
            seed=1)
        model, _, _ = run_functional_gb(ds, cfg)
        report = build_theory_report(model, ds)
        opt = report["optimization"]
        if opt["guaranteed"]:
            assert opt["holds"]
        assert len(report["complexity"]) == len(model.stages)
        assert report["generalization"]["total"] >= opt["realized_train_err"]

    def test_samme_report_omits_optimization_section(self):
        ds = synthesize_two_block(24, 0.8, 0.1, seed=2)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=2, hidden=(8,), learner=TrainConfig(epochs=30),
            seed=4))
        report = build_theory_report(model, ds)
        assert "optimization" not in report
        assert report["complexity"]

    def test_two_node_toy_all_addends_finite(self):
        ds = synthesize_two_block(4, 1.0, 0.0, seed=5)
        cfg = BoostConfig(n_rounds=1, hidden=(),
                                 learner=TrainConfig(epochs=10),
                                 seed=6)
        model, _, _ = run_functional_gb(ds, cfg)
        report = build_theory_report(model, ds)
        parts = report["generalization"]
        for key in ("train_err", "complexity", "partition_slack",
                    "confidence"):
            assert np.isfinite(parts[key]) and parts[key] >= 0.0

    def test_report_over_skipped_rounds(self):
        # placeholder stages contribute the zero function: zero complexity
        ds = synthesize_two_block(16, 0.6, 0.4, seed=7, noise=3.0)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=6, hidden=(2,),
            learner=TrainConfig(epochs=1, lr=1e-9), seed=9))
        assert model.flags.get("skipped"), "pilot seed should skip rounds"
        report = build_theory_report(model, ds)
        for t in model.flags["skipped"]:
            entry = report["complexity"][t - 1]
            assert entry["eta_term"] == 0.0
            assert entry["rademacher_bound"] == 0.0
        assert np.isfinite(report["generalization"]["total"])

    @pytest.mark.parametrize("kind", ["fixed", "input_injection", "kta"])
    def test_px_frobenius_is_the_learner_inputs_norm(self, kind):
        # the report takes ||[cur, x0]||_F as hypot(||cur||, ||x0||); a
        # one-block input's norm is read as it is
        ds = synthesize_two_block(16, 0.7, 0.2, seed=3, noise=0.5)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=4, hidden=(4,), learner=TrainConfig(epochs=5),
            aggregator=AggregatorSpec(kind=kind, rho=0.3), seed=5))
        report = build_theory_report(model, ds)
        for entry, blocks in zip(report["complexity"],
                                 stage_inputs(model, ds)):
            want = float(np.linalg.norm(np.hstack(blocks)))
            if len(blocks) == 1:
                assert entry["px_frobenius"] == want
            else:
                assert entry["px_frobenius"] == pytest.approx(
                    want, rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["fixed", "input_injection", "kta"])
    def test_op_norm_matches_dense_chain(self, kind):
        # dense oracle: the spectral norm of the map X -> learner input,
        # read off the chain applied to the identity; under injection the
        # learner reads [Q_t X, X]
        ds = synthesize_two_block(16, 0.7, 0.2, seed=3, noise=0.5)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=4, hidden=(4,), learner=TrainConfig(epochs=5),
            aggregator=AggregatorSpec(kind=kind, rho=0.3), seed=5))
        report = build_theory_report(model, ds)
        for entry, dense in zip(report["complexity"],
                                dense_stage_maps(model, ds)):
            assert entry["op_norm"] == pytest.approx(
                np.linalg.norm(dense, 2), rel=1e-12, abs=0)

    @pytest.mark.parametrize("kind", ["fixed", "input_injection"],
                             ids=["fixed-augmented",
                                  "input_injection-augmented"])
    def test_op_norm_in_closed_form(self, kind):
        # the augmented operator has spectrum in (-1, 1] containing 1: a
        # fixed chain has norm 1; an injection chain has ||Q_t|| = 1 at
        # every t, so its learner's input [Q_t X, X] has norm sqrt(2)
        ds = synthesize_two_block(16, 0.7, 0.2, seed=3, noise=0.5)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=4, hidden=(4,), learner=TrainConfig(epochs=5),
            aggregator=AggregatorSpec(kind=kind, rho=0.5), seed=5))
        report = build_theory_report(model, ds)
        closed = math.sqrt(2.0) if kind == "input_injection" else 1.0
        for entry, dense in zip(report["complexity"],
                                dense_stage_maps(model, ds)):
            assert entry["op_norm"] == closed
            assert entry["op_norm"] == pytest.approx(
                np.linalg.norm(dense, 2), rel=1e-12, abs=0)
            assert "op_norm_upper_bound" not in entry

    def test_fitted_kta_chain_has_unit_op_norm(self):
        # every fitted stage's weights sum to 1, so each stage's q_t(1) = 1
        ds = synthesize_two_block(16, 0.7, 0.2, seed=3, noise=0.5)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=4, hidden=(4,), learner=TrainConfig(epochs=5),
            aggregator=AggregatorSpec(kind="kta"), seed=5))
        report = build_theory_report(model, ds)
        for stage in model.stages[1:]:
            assert np.all(stage.aggregator.coefs > 0.0)
            assert stage.aggregator.coefs.sum() == pytest.approx(
                1.0, rel=0, abs=1e-15)
        for entry in report["complexity"]:
            assert entry["op_norm"] == pytest.approx(1.0, rel=1e-14, abs=0)
            assert "op_norm_upper_bound" not in entry

    def test_negative_kta_coefficient_flags_upper_bound(self):
        ds = synthesize_two_block(16, 0.7, 0.2, seed=3, noise=0.5)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=4, hidden=(4,), learner=TrainConfig(epochs=5),
            aggregator=AggregatorSpec(kind="kta"), seed=5))
        stage = model.stages[2]
        coefs = stage.aggregator.coefs.copy()
        coefs[1] = -0.5
        stage.aggregator = replace(stage.aggregator, coefs=coefs)
        report = build_theory_report(model, ds)
        p = base_operator(ds.graph).matrix.toarray()
        powers = [np.eye(ds.n)] + [np.linalg.matrix_power(p, 2 ** k)
                                   for k in range(4)]
        product = np.eye(ds.n)
        for stage, entry in zip(model.stages[1:], report["complexity"][1:]):
            product = sum(w * pk for w, pk in zip(stage.aggregator.coefs,
                                                  powers)) @ product
            assert entry.get("op_norm_upper_bound", False) == (entry["t"] >= 3)
            assert entry["op_norm"] >= np.linalg.norm(product, 2) * (1 - 1e-12)

    @pytest.mark.parametrize("runner", [run_functional_gb, run_samme],
                             ids=["functional", "samme"])
    def test_learner_bound_reads_the_stage_input(self, runner):
        # the learners are bias-free, so the bound reads their input
        # P^(t) X alone, with no ones column (whose norm sqrt(N) would
        # add to every stage)
        ds = synthesize_two_block(24, 0.8, 0.1, seed=2)
        model, _, _ = runner(ds, BoostConfig(
            n_rounds=3, hidden=(8,), learner=TrainConfig(epochs=30),
            seed=4))
        report = build_theory_report(model, ds)
        root_mu = np.sqrt(ds.split.m * ds.split.u)
        for entry, stage in zip(report["complexity"], model.stages):
            assert stage.learner is not None
            assert stage.learner.weights[0].shape[0] == ds.n_features
            assert entry["rademacher_bound"] == pytest.approx(
                entry["d_constant"] * entry["px_frobenius"] / root_mu,
                rel=1e-12)

    def test_hand_assembled_generalization_terms(self):
        # reproduce the four addends by hand from the report constants
        ds = synthesize_two_block(8, 0.9, 0.1, seed=7)
        model, _, _ = run_samme(ds, BoostConfig(
            n_rounds=1, hidden=(4,), learner=TrainConfig(epochs=10),
            seed=2))
        report = build_theory_report(model, ds, c0=2.0, delta_prime=0.1)
        parts = report["generalization"]
        m, u = ds.split.m, ds.split.u
        q = 1 / m + 1 / u
        assert parts["partition_slack"] == pytest.approx(
            2.0 * q * np.sqrt(min(m, u)))
        s = partition_constants(m, u)[1]
        expected_conf = np.sqrt(s * q / 2 * np.log(10.0))
        assert parts["confidence"] == pytest.approx(expected_conf)
        assert parts["total"] == pytest.approx(
            parts["train_err"] + parts["complexity"]
            + parts["partition_slack"] + parts["confidence"])


class TestProp4MonteCarloVsClosedForm:
    def sample_constrained_outputs(self, n_funcs, n_layers, b_tilde, c_tilde,
                                   x, operator, seed, bias=False):
        """Random members of the constrained two-stage class: aggregation
        X -> P X W (columns of W capped at c_tilde) followed by an MLP with
        column caps b_tilde, bias-free as the trained learners are or,
        with ``bias``, reading [P X W, 1]."""
        rng = np.random.default_rng(seed)
        px = operator.apply(x)
        c = x.shape[1]
        outs = []
        for _ in range(n_funcs):
            w_agg = rng.standard_normal((c, c))
            scale = np.abs(w_agg).sum(axis=0)
            w_agg = w_agg / np.maximum(scale / c_tilde, 1.0)
            rep = px @ w_agg
            if bias:
                rep = np.hstack([rep, np.ones((len(rep), 1))])
            widths = (rep.shape[1],) + (4,) * (n_layers - 1) + (1,)
            draw = np.random.default_rng(int(rng.integers(2 ** 31)))
            mlp = project_l1_columns(MlpParams(weights=[
                draw.uniform(-2.0, 2.0, shape)
                for shape in zip(widths, widths[1:])]), b_tilde)
            h = rep
            for wmat in mlp.weights[:-1]:
                h = np.maximum(h @ wmat, 0.0)
            outs.append((h @ mlp.weights[-1])[:, 0])
        return np.array(outs), float(np.linalg.norm(px))

    @pytest.mark.parametrize("n_layers", [1, 2])
    def test_mc_below_bound(self, n_layers):
        ds = synthesize_two_block(12, 0.7, 0.2, seed=0)
        operator = base_operator(ds.graph)
        x = np.random.default_rng(1).standard_normal((12, 3))
        b_tilde, c_tilde = 1.5, 1.0
        m = u = 6
        outs, px_frob = self.sample_constrained_outputs(
            200, n_layers, b_tilde, c_tilde, x, operator, seed=2)
        constants = ComplexityConstants(n_layers=n_layers, b_tilde=b_tilde,
                                        c_tildes=(c_tilde,), m=m, u=u)
        bound = rademacher_bound(constants, px_frob)
        est, se = mc_transductive_rademacher(outs, m, u, seed=3)
        assert est <= bound
        assert est + 3 * se <= bound

    def test_mc_with_bias_below_bound_on_augmented_input(self):
        # why the learners are bias-free: on small features a bias row
        # dominates the members' outputs, so the closed form on ||P X||_F
        # falls below them, and only the one on the input [P X, 1], of
        # norm sqrt(||P X||_F^2 + N), stays above
        ds = synthesize_two_block(12, 0.7, 0.2, seed=0)
        operator = base_operator(ds.graph)
        x = 0.01 * np.random.default_rng(1).standard_normal((12, 3))
        b_tilde, c_tilde = 1.5, 1.0
        m = u = 6
        outs, px_frob = self.sample_constrained_outputs(
            200, 1, b_tilde, c_tilde, x, operator, seed=2, bias=True)
        constants = ComplexityConstants(n_layers=1, b_tilde=b_tilde,
                                        c_tildes=(c_tilde,), m=m, u=u)
        est, se = mc_transductive_rademacher(outs, m, u, seed=3)
        assert est - 3 * se > rademacher_bound(constants, px_frob)
        assert est + 3 * se <= rademacher_bound(
            constants, np.sqrt(px_frob ** 2 + 12))
