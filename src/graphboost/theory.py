"""Optimization/generalization bounds and over-smoothing diagnostics.

Everything here is a plain computation over run outputs: the O(1/T)
training-error bound from the per-iteration quality values gamma_t, the
closed-form complexity bound D^(t) ||P^(t) X||_F / sqrt(MU), the
random-partition generalization bound with its confidence terms, a
Monte-Carlo estimator of the three-valued-sign complexity of finite vector
sets, the quality/complexity trade-off lower bound, and the spectral decay
trajectory of propagated features.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .aggregate import Polynomial
from .boost import replay_scores, stage_inputs
from .data import partition_constants
from .graph import PropagationMatrix
from .losses import margin_loss, surrogate
from .mlp import max_column_l1

MC_DEFAULT_SAMPLES = 20000
MC_BLOCK = 1000


class NumericalError(RuntimeError):
    pass


@dataclass(frozen=True)
class ComplexityConstants:
    """Constants entering the closed-form complexity bound.

    ``n_layers`` counts weight matrices of the transformation MLP;
    ``b_tilde`` caps its column L1 norms; ``c_tildes`` holds the per-stage
    aggregation caps for stages s = 2..t (empty at t = 1).
    """

    n_layers: int
    b_tilde: float
    c_tildes: tuple = ()
    m: int = 1
    u: int = 1

    @property
    def d_constant(self):
        # 2*sqrt(2) (2 B)^(L-1) prod C^(s); empty product and L=1 exponent
        # both collapse to 1
        prod = 1.0
        for c in self.c_tildes:
            prod *= c
        return 2.0 * math.sqrt(2.0) * (2.0 * self.b_tilde) ** (self.n_layers - 1) * prod


def optimization_bound(l1, m, gammas, delta=0.0):
    """(1 + e^delta) L(1) / (2 M Gamma_T) plus the constant-gamma reference
    curve [bound at T'=1..T] showing the O(1/T) shape."""
    gammas = np.asarray(gammas, dtype=float)
    gamma_total = float(gammas.sum())
    if gamma_total <= 0.0:
        raise ValueError("Gamma_T must be positive")
    bound = (1.0 + math.exp(delta)) * l1 / (2.0 * m * gamma_total)
    gamma_bar = gamma_total / len(gammas)
    reference = np.array([
        (1.0 + math.exp(delta)) * l1 / (2.0 * m * gamma_bar * t)
        for t in range(1, len(gammas) + 1)
    ])
    return bound, reference


def rademacher_bound(constants: ComplexityConstants, input_frobenius):
    """D^(t) ||H||_F / sqrt(M U) for the bias-free class on input H, the
    learners' input P^(t) X."""
    return constants.d_constant * input_frobenius / math.sqrt(
        constants.m * constants.u)


def generalization_bound(train_err, rad_terms, m, u, c0=1.0,
                         delta_prime=0.05):
    """Four-addend random-partition bound; returns (total, breakdown).

    total = train_err + sum(rad_terms) + c0 Q sqrt(min(M,U))
            + sqrt(S Q / 2 * log(1/delta'))
    """
    if not 0.0 < delta_prime < 1.0:
        raise ValueError("delta' must lie in (0, 1)")
    if c0 < 0.0:
        raise ValueError("c0 must be >= 0")
    q, s, _ = partition_constants(m, u)
    complexity = float(np.sum(rad_terms))
    slack = c0 * q * math.sqrt(min(m, u))
    confidence = math.sqrt(s * q / 2.0 * math.log(1.0 / delta_prime))
    breakdown = {
        "train_err": float(train_err),
        "complexity": complexity,
        "partition_slack": slack,
        "confidence": confidence,
        "c0": c0,
        "delta_prime": delta_prime,
        "s": s,
        "q": q,
    }
    return float(train_err) + complexity + slack + confidence, breakdown


def _sign_draws(rng, n_draws, n, p):
    """Three-valued signs: +-1 with probability p each, 0 otherwise."""
    u = rng.random((n_draws, n))
    return np.where(u < p, 1.0, np.where(u < 2 * p, -1.0, 0.0))


def mc_transductive_rademacher(vectors, m, u, p=None,
                               n_samples=MC_DEFAULT_SAMPLES, seed=0):
    """Monte-Carlo estimate of Q E[sup_v <sigma, v>] over a finite set.

    ``vectors`` is a (|V|, N) array. p defaults to M U / (M+U)^2. Draws are
    generated in fixed-size blocks with child seeds spawned from ``seed``,
    so the merged estimate does not depend on how blocks are scheduled.
    Returns (estimate, standard error).
    """
    vectors = np.atleast_2d(np.asarray(vectors, dtype=float))
    if vectors.size == 0:
        raise ValueError("vector set must be nonempty")
    n = vectors.shape[1]
    q, _, p0 = partition_constants(m, u)
    if p is None:
        p = p0
    if not 0.0 <= p <= 0.5:
        raise ValueError("p must lie in [0, 1/2]")
    seeds = np.random.SeedSequence(seed).spawn(
        (n_samples + MC_BLOCK - 1) // MC_BLOCK)
    sups = []
    remaining = n_samples
    for child in seeds:
        count = min(MC_BLOCK, remaining)
        remaining -= count
        sigma = _sign_draws(np.random.default_rng(child), count, n, p)
        sups.append((vectors @ sigma.T).max(axis=0))
    sups = np.concatenate(sups)
    estimate = q * float(sups.mean())
    stderr = q * float(sups.std(ddof=1)) / math.sqrt(n_samples)
    return estimate, stderr


def wlc_complexity_lower_bound(alpha, beta):
    """(alpha^2 - beta^2) / alpha: any output set covering all sign vectors
    at quality (alpha, beta) is at least this complex."""
    if not alpha > beta >= 0.0:
        raise ValueError("need alpha > beta >= 0")
    return (alpha ** 2 - beta ** 2) / alpha


@dataclass(frozen=True)
class SpectralTrajectory:
    """Per-step record of ||P^t X||_F computed two ways, the largest
    per-column cosine with the top eigenspace V_1 (eigenvalue 1, spanned by
    sqrt(deg + 1) on each connected component), and the Frobenius distance
    to that space. The CSV keeps the names ``cos_xi1_max`` and
    ``rank1_dist``; on a connected graph V_1 is the line of the top
    eigenvector xi_1."""

    steps: np.ndarray
    frobenius_direct: np.ndarray
    frobenius_spectral: np.ndarray
    cos_top: np.ndarray
    rank_one_distance: np.ndarray

    def rows(self):
        for i, t in enumerate(self.steps):
            yield {
                "t": int(t),
                "frob_direct": float(self.frobenius_direct[i]),
                "frob_spectral": float(self.frobenius_spectral[i]),
                "cos_xi1_max": float(self.cos_top[i]),
                "rank1_dist": float(self.rank_one_distance[i]),
            }

    def write_csv(self, path):
        with open(path, "w") as fh:
            fh.write("t,frob_direct,frob_spectral,cos_xi1_max,rank1_dist\n")
            for row in self.rows():
                fh.write(
                    f"{row['t']},{row['frob_direct']!r},"
                    f"{row['frob_spectral']!r},{row['cos_xi1_max']!r},"
                    f"{row['rank1_dist']!r}\n")


def smoothing_report(p: PropagationMatrix, x, t_max) -> SpectralTrajectory:
    """Trajectory of repeatedly propagated features for t = 0..t_max.

    ``p`` is ``base_operator(g)``, whose eigenvalue-1 space V_1 has one
    orthonormal basis vector per connected component: 1 / sqrt(P_ii) =
    sqrt(deg + 1) on the component, normalised, and zero off it. P fixes
    V_1, so V_1^T P^t X = V_1^T X at every t, and the projection of P^t X
    onto V_1 is the one N x C matrix V_1 V_1^T X. The distance to V_1 is
    the norm of the subtraction P^t X - V_1 V_1^T X, which stays accurate
    as it decays (a difference of squared norms would cancel). The norm is
    computed a second time as sqrt(||V_1^T X||^2 + distance^2), which
    holds only if P fixes V_1, so a relative gap above 1e-6 from the
    direct ||P^t X||_F raises. The cosine of column c is ||V_1^T X_c|| /
    ||P^t X_c||. ``x`` is N x C.
    """
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[0] != p.n:
        raise ValueError(f"smoothing_report needs an N x C feature matrix "
                         f"with N = {p.n}, got shape {x.shape}")
    # imported here: scipy.sparse.csgraph adds about 60 ms to every CLI
    # start, and only the spectral report needs it
    from scipy.sparse.csgraph import connected_components

    k, comp = connected_components(p.matrix, directed=False)
    u = 1.0 / np.sqrt(p.matrix.diagonal())
    u /= np.sqrt(np.bincount(comp, weights=u * u, minlength=k))[comp]
    v1 = sp.csr_matrix((u, (np.arange(p.n), comp)), shape=(p.n, k))
    top = v1.T @ x
    top_col_norms = np.linalg.norm(top, axis=0)
    top_sq = float(np.sum(top * top))
    x_sq = float(np.sum(x * x))
    proj = v1 @ top

    steps = np.arange(t_max + 1)
    direct = np.empty(t_max + 1)
    spectral = np.empty(t_max + 1)
    cos_top = np.empty(t_max + 1)
    rank1 = np.empty(t_max + 1)

    # P^t X for t = 0..t_max are the terms of the polynomial sum_t P^t
    powers = Polynomial(p, tuple(steps), np.ones(len(steps))).terms(x)
    for t, cur in zip(steps, powers):
        direct[t] = np.linalg.norm(cur)
        rank1[t] = np.linalg.norm(cur - proj)
        spectral[t] = math.sqrt(top_sq + rank1[t] ** 2)
        col_norms = np.linalg.norm(cur, axis=0)
        safe = np.where(col_norms == 0.0, 1.0, col_norms)
        cos_top[t] = float(np.max(top_col_norms / safe))
        # compare squared norms; mass below 1e-6 ||X||^2 is numerically
        # zero, and a NaN gap (an operator with a zero diagonal) also raises
        d2, s2 = direct[t] ** 2, spectral[t] ** 2
        gap = abs(d2 - s2) / max(d2, s2, 1e-6 * x_sq, 1e-300)
        if not gap <= 1e-6:
            raise NumericalError(
                f"direct and spectral norms disagree at t={t}: "
                f"{direct[t]} vs {spectral[t]}")
    return SpectralTrajectory(steps=steps, frobenius_direct=direct,
                              frobenius_spectral=spectral, cos_top=cos_top,
                              rank_one_distance=rank1)


# ---------------------------------------------------------------------------
# report assembly over a finished boosting run

def build_theory_report(model, dataset, *, c0=1.0, delta_prime=0.05,
                        delta=0.0):
    """Assemble every bound the run supports into one report dict.

    Every term is read from ``model`` and ``dataset`` alone: one replay of
    the stage chain on the train rows gives the initial surrogate L(1) (of
    the stage-1 score) and the train error the generalization bound adds
    (the margin bound's right-hand side for functional runs, the 0-1 error
    of the final score for SAMME), so both describe the model whose
    complexity the bound counts; the per-stage (alpha, beta) are the stages'
    stored w.l.c. fits.

    The optimization section applies to functional (binary) runs only;
    gamma_t of iterations that failed the weak-learning check contribute 0
    and mark the bound "not guaranteed". Training sets no cap on the
    transformation class, so each stage's cap is the observed max column
    L1 norm of its learner; its bound reads the learner's input P^(t) X
    (the learners are bias-free).
    """
    split = dataset.split
    m, u = split.m, split.u
    q, s, p0 = partition_constants(m, u)
    report = {
        "mode": model.mode,
        "constants": {"m": m, "u": u, "q": q, "s": s, "p0": p0, "c0": c0,
                      "delta_prime": delta_prime, "delta": delta},
    }

    # one streamed pass over the stage chain: each stage's ||P^(t) X||_F
    # and its train rows, then the score by stage on those rows. Under
    # injection the learner input is [cur, x0], of norm hypot(||cur||,
    # ||x0||), and hypot of the one norm of any other input is that norm
    injected = model.aggregator_kind == "input_injection"
    x0_norm = (float(np.linalg.norm(dataset.features)),) if injected else ()
    px_norms, train_reps = [], []
    for blocks in stage_inputs(model, dataset):
        px_norms.append(math.hypot(float(np.linalg.norm(blocks[0])),
                                   *x0_norm))
        train_reps.append(tuple(b[split.train] for b in blocks))
        del blocks
    scores = replay_scores(model, dataset, train_reps)
    y_train = dataset.labels[split.train]
    if model.mode == "functional":
        gammas = [(st.wlc.gamma if st.wlc else 0.0)
                  for st in model.stages[1:]]
        guaranteed = all(st.wlc is not None for st in model.stages[1:])
        gamma_total = float(np.sum(gammas))
        l1_initial = surrogate(scores[0], y_train)[0]
        realized = float(np.mean(margin_loss(
            scores[(model.t_star or len(scores)) - 1], y_train, delta)))
        section = {
            "gammas": gammas,
            "gamma_total": gamma_total,
            "initial_surrogate": l1_initial,
            "realized_train_err": realized,
            "guaranteed": guaranteed,
        }
        if gamma_total > 0.0:
            rhs, _ = optimization_bound(l1_initial, m, gammas=[gamma_total],
                                        delta=delta)
            section["rhs"] = rhs
            section["holds"] = bool(realized <= rhs)
        else:
            section["rhs"] = float("inf")
            section["holds"] = True
        report["optimization"] = section

    # complexity section: one entry per stage
    entries = []
    # op_norm is ||X -> learner input||: ||Q_t||, or ||[Q_t, I]|| =
    # sqrt(1 + ||Q_t||^2) under injection, where the learner reads [Q_t X,
    # X]; Q_1 = I, Q_t = q_t(P) Q_{t-1} + inject_t I. ||Q_t|| is max
    # |Q_t(lambda)| over P's spectrum, in [-1, 1] and containing 1: with no
    # negative coefficient it is a_t, the value at lambda = 1; otherwise a_t
    # is an upper bound
    a_t, upper_bound = 1.0, False
    for idx, (stage, px) in enumerate(zip(model.stages, px_norms)):
        t = idx + 1
        if idx >= 1:
            coefs = np.asarray(stage.aggregator.coefs, dtype=float)
            a_t = (float(np.abs(coefs).sum()) * a_t
                   + abs(stage.aggregator.inject))
            upper_bound = upper_bound or bool(np.any(coefs < 0.0))
        # a rejected SAMME round's weight 0 gives it eta_term 0
        bt = max_column_l1(stage.learner)
        constants = ComplexityConstants(
            n_layers=stage.learner.n_layers, b_tilde=bt,
            c_tildes=(1.0,) * idx, m=m, u=u)
        bound = rademacher_bound(constants, px)
        entry = {"t": t, "b_tilde": bt, "d_constant": constants.d_constant,
                 "px_frobenius": px, "rademacher_bound": bound,
                 "eta": stage.weight, "eta_term": abs(stage.weight) * bound}
        entry["op_norm"] = math.sqrt(1.0 + a_t * a_t) if injected else a_t
        if upper_bound:
            entry["op_norm_upper_bound"] = True
        entries.append(entry)
    report["complexity"] = entries

    # spectral trade-off condition: is D^(t) ||P^(t)||_op / alpha_t
    # empirically geometric?
    seq = [entry["d_constant"] * entry["op_norm"] / stage.wlc.alpha
           for stage, entry in zip(model.stages[1:], entries[1:])
           if stage.wlc is not None]
    ratios = [seq[i + 1] / seq[i] for i in range(len(seq) - 1)
              if seq[i] > 0]
    report["spectral_condition"] = {
        "sequence": seq,
        "ratios": ratios,
        "empirically_geometric": bool(ratios and max(ratios) < 1.0),
    }

    # generalization assembly
    train_term = (report["optimization"]["rhs"]
                  if model.mode == "functional"
                  else float(np.mean(np.argmax(scores[-1], axis=1)
                                     != y_train)))
    rad_terms = [e["eta_term"] for e in entries]
    total, breakdown = generalization_bound(train_term, rad_terms, m, u,
                                            c0=c0, delta_prime=delta_prime)
    breakdown["total"] = total
    report["generalization"] = breakdown
    return report
