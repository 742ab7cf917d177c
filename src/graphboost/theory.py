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
from dataclasses import dataclass, field

import numpy as np

from .graph import ConvergenceError, PropagationMatrix, eigendecompose

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

    @property
    def q(self):
        return 1.0 / self.m + 1.0 / self.u

    @property
    def s(self):
        lo = min(self.m, self.u)
        return (4.0 * (self.m + self.u) * lo
                / ((2.0 * (self.m + self.u) - 1.0) * (2.0 * lo - 1.0)))

    @property
    def p0(self):
        return self.m * self.u / float(self.m + self.u) ** 2


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


def rademacher_bound(constants: ComplexityConstants, px_frobenius):
    """D^(t) ||P^(t) X||_F / sqrt(M U)."""
    return constants.d_constant * px_frobenius / math.sqrt(
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
    cc = ComplexityConstants(n_layers=1, b_tilde=1.0, m=m, u=u)
    complexity = float(np.sum(rad_terms))
    slack = c0 * cc.q * math.sqrt(min(m, u))
    confidence = math.sqrt(cc.s * cc.q / 2.0 * math.log(1.0 / delta_prime))
    breakdown = {
        "train_err": float(train_err),
        "complexity": complexity,
        "partition_slack": slack,
        "confidence": confidence,
        "c0": c0,
        "delta_prime": delta_prime,
        "s": cc.s,
        "q": cc.q,
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
    if p is None:
        p = m * u / float(m + u) ** 2
    if not 0.0 <= p <= 0.5:
        raise ValueError("p must lie in [0, 1/2]")
    q = 1.0 / m + 1.0 / u
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
    per-column cosine with the top eigenvector, and the Frobenius distance
    to the rank-one space spanned by it."""

    steps: np.ndarray
    frobenius_direct: np.ndarray
    frobenius_spectral: np.ndarray
    cos_top: np.ndarray
    rank_one_distance: np.ndarray
    eigenvalues: np.ndarray = field(repr=False, default=None)

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


def smoothing_report(p: PropagationMatrix, x, t_max, rtol=1e-6,
                     cap=None) -> SpectralTrajectory:
    """Trajectory of repeatedly propagated features for t = 0..t_max.

    The Frobenius norm is computed both by direct multiplication and by the
    eigenbasis identity ||X||_F^2 - sum_{n>=2} (1 - lambda_n^{2t}) a_nc^2
    (valid because the top eigenvalue of these operators is 1); a relative
    gap above ``rtol`` raises. The rank-one distance is the residual of
    projecting onto the top eigenvector.
    """
    spect = (eigendecompose(p) if cap is None else eigendecompose(p, cap=cap))
    x = np.atleast_2d(np.asarray(x, dtype=float))
    if x.shape[0] != p.n:
        x = x.T
    coeff = spect.expand(x)  # a_nc
    lam = spect.eigenvalues
    xi1 = spect.eigenvectors[:, 0]
    x_sq = float(np.sum(x * x))
    tail_sq = (coeff[1:] ** 2).sum(axis=1)  # per-eigenvector mass, n >= 2

    steps = np.arange(t_max + 1)
    direct = np.empty(t_max + 1)
    spectral = np.empty(t_max + 1)
    cos_top = np.empty(t_max + 1)
    rank1 = np.empty(t_max + 1)

    cur = x.copy()
    for t in steps:
        if t > 0:
            cur = p.apply(cur)
        direct[t] = np.linalg.norm(cur)
        decay = (1.0 - lam[1:] ** (2 * t)) @ tail_sq
        spectral[t] = math.sqrt(max(x_sq - decay, 0.0))
        proj = np.outer(xi1, xi1 @ cur)
        rank1[t] = np.linalg.norm(cur - proj)
        col_norms = np.linalg.norm(cur, axis=0)
        safe = np.where(col_norms == 0.0, 1.0, col_norms)
        cos_top[t] = float(np.max(np.abs(xi1 @ cur) / safe))
        # compare squared norms; mass below rtol ||X||^2 is numerically zero
        d2, s2 = direct[t] ** 2, spectral[t] ** 2
        gap = abs(d2 - s2) / max(d2, s2, rtol * x_sq, 1e-300)
        if gap > rtol:
            raise NumericalError(
                f"direct and spectral norms disagree at t={t}: "
                f"{direct[t]} vs {spectral[t]}")
    return SpectralTrajectory(steps=steps, frobenius_direct=direct,
                              frobenius_spectral=spectral, cos_top=cos_top,
                              rank_one_distance=rank1,
                              eigenvalues=lam)


# ---------------------------------------------------------------------------
# report assembly over a finished boosting run

class _StageChainOperator:
    """Homogeneous linear part of the stage-2..t aggregation chain, exposed
    with the operator interface power iteration expects. Input injection
    contributes its contraction part rho * P."""

    def __init__(self, aggregators):
        from .aggregate import FixedMatrix, InputInjection, Kta
        self._steps = []
        self.n = None
        for a in aggregators:
            if isinstance(a, FixedMatrix):
                self._steps.append(("fixed", a.operator, None))
                self.n = a.operator.n
            elif isinstance(a, InputInjection):
                self._steps.append(("scaled", a.operator, a.rho))
                self.n = a.operator.n
            elif isinstance(a, Kta):
                self._steps.append(("kta", a, None))
                self.n = a.operator.n
            else:
                raise TypeError(f"unknown aggregator {type(a)}")

    def _one(self, kind, payload, rho, x, transpose):
        if kind == "fixed":
            return (payload.apply_transpose(x) if transpose
                    else payload.apply(x))
        if kind == "scaled":
            return rho * (payload.apply_transpose(x) if transpose
                          else payload.apply(x))
        # kta polynomial: w0 I + sum w_k P^{2^k}; symmetric base, so the
        # transpose applies the same polynomial with transposed factors
        agg = payload
        acc = agg.weights[0] * x
        cur = x
        reached = 0
        for kk in range(agg.n_deg + 1):
            target = 2 ** kk
            for _ in range(target - reached):
                cur = (agg.operator.apply_transpose(cur) if transpose
                       else agg.operator.apply(cur))
            reached = target
            acc = acc + agg.weights[1 + kk] * cur
        return acc

    def apply(self, x):
        for kind, payload, rho in self._steps:
            x = self._one(kind, payload, rho, x, transpose=False)
        return x

    def apply_transpose(self, x):
        for kind, payload, rho in reversed(self._steps):
            x = self._one(kind, payload, rho, x, transpose=True)
        return x


def build_theory_report(model, trace, dataset, *, c0=1.0, delta_prime=0.05,
                        delta=0.0, b_tilde=None, compute_op_norms=True):
    """Assemble every bound the run supports into one report dict.

    The optimization section applies to functional (binary) runs only;
    gamma_t of iterations that failed the weak-learning check contribute 0
    and mark the bound "not guaranteed". ``b_tilde`` overrides the
    transformation-class cap; by default the observed max column L1 norm of
    each stage's learner is used (soft-constraint runs have no configured
    cap).
    """
    from .boost import stage_representations
    from .graph import operator_norm
    from .losses import margin_loss
    from .mlp import max_column_l1

    split = dataset.split
    m, u = split.m, split.u
    report = {
        "mode": model.mode,
        "constants": {"m": m, "u": u, "q": split.q, "s": split.s,
                      "p0": split.p0, "c0": c0, "delta_prime": delta_prime,
                      "delta": delta},
    }

    loop_rows = [r for r in trace if r["t"] >= 2]
    reps = stage_representations(model, dataset)
    if model.mode == "functional":
        gammas = [(st.wlc.gamma if st.wlc else 0.0)
                  for st in model.stages[1:]]
        guaranteed = all(st.wlc is not None for st in model.stages[1:])
        gamma_total = float(np.sum(gammas))
        l1_initial = trace[0]["train_loss"]
        from .boost import predict
        yhat, _ = predict(model, dataset, [r[split.train] for r in reps])
        realized = float(np.mean(margin_loss(
            yhat, dataset.labels[split.train], delta)))
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
    chain = []
    for idx, (stage, rep) in enumerate(zip(model.stages, reps)):
        t = idx + 1
        px = float(np.linalg.norm(rep))
        if stage.learner is None:
            # skipped round: the stage contributes the zero function
            entry = {"t": t, "b_tilde": 0.0, "d_constant": 0.0,
                     "px_frobenius": px, "rademacher_bound": 0.0,
                     "eta": 0.0, "eta_term": 0.0}
        else:
            bt = (b_tilde if b_tilde is not None
                  else max_column_l1(stage.learner))
            constants = ComplexityConstants(
                n_layers=stage.learner.n_layers, b_tilde=bt,
                c_tildes=(1.0,) * idx, m=m, u=u)
            bound = rademacher_bound(constants, px)
            entry = {"t": t, "b_tilde": bt,
                     "d_constant": constants.d_constant,
                     "px_frobenius": px, "rademacher_bound": bound,
                     "eta": stage.weight,
                     "eta_term": abs(stage.weight) * bound}
        if compute_op_norms and idx >= 1:
            chain.append(model.stages[idx].aggregator)
            try:
                entry["op_norm"] = operator_norm(_StageChainOperator(chain))
            except ConvergenceError as exc:
                entry["op_norm"] = exc.last_estimate
                entry["op_norm_converged"] = False
        elif idx == 0:
            entry["op_norm"] = 1.0
        entries.append(entry)
    report["complexity"] = entries

    # spectral trade-off condition: is D^(t) ||P^(t)||_op / alpha_t
    # empirically geometric?
    alphas = {r["t"]: r["alpha"] for r in loop_rows}
    seq = []
    for entry in entries[1:]:
        a = alphas.get(entry["t"], float("nan"))
        if (entry.get("op_norm") is not None and np.isfinite(a) and a > 0):
            seq.append(entry["d_constant"] * entry["op_norm"] / a)
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
                  else trace[-1]["train_err"])
    rad_terms = [e["eta_term"] for e in entries]
    total, breakdown = generalization_bound(train_term, rad_terms, m, u,
                                            c0=c0, delta_prime=delta_prime)
    breakdown["total"] = total
    report["generalization"] = breakdown
    return report
