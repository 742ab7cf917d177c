"""Node-aggregation function families and alignment-based selection.

Every aggregator is a polynomial in one symmetric operator P plus an
injected x0 term. Three families are built from it: multiplication by P,
input injection (rho * P x + (1 - rho) * x_init), and KTA, a learnable
polynomial in the powers P^{2^k} whose weights are trained by gradient
ascent on the kernel target alignment between the training-block Gram
matrix of the aggregated features and the Gram matrix of one-hot labels,
then scaled to sum to 1. A KTA fit walks the powers once and holds them:
the ascent runs on the Gram matrix of their train rows, and the fitted
polynomial's output is summed from the same powers.
All three are linear in the current representation.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .graph import PropagationMatrix
from .mlp import _Adam, check_step

ALIGNMENT_EPS = 1e-12
DEFAULT_N_DEG = 3
MAX_N_DEG = 10  # P^1024: the top power costs 2^n_deg sparse products
INJECT_BLOCK = 1 << 16  # elements of the injection buffer: 512 KiB


@dataclass
class AlignmentConfig:
    """``fit_kta``'s ascent: ``epochs`` Adam steps at step size ``lr``."""

    epochs: int = 20
    lr: float = 1e-2

    def __post_init__(self):
        if self.epochs < 1:
            raise ValueError("alignment epochs must be >= 1")
        check_step(self.lr)


@dataclass(frozen=True)
class Polynomial:
    """x -> sum_i coefs[i] P^{powers[i]} x + inject * x0 over one operator P.

    ``powers`` strictly ascend; x0 is the chain's initial features. Every
    operation is built on the cumulative power generator ``terms``.
    """

    operator: PropagationMatrix
    powers: tuple
    coefs: object  # sequence of floats; KTA holds a trainable array
    inject: float = 0.0

    def __post_init__(self):
        if len(self.coefs) != len(self.powers):
            raise ValueError(
                f"need {len(self.powers)} coefficients, got {len(self.coefs)}"
            )
        if any(a >= b for a, b in zip(self.powers, self.powers[1:])):
            raise ValueError("powers must strictly ascend")

    def terms(self, x, reach=None):
        """Yield P^p x for each power p, by repeated sparse matvec.

        ``reach`` restricts the walk to a receptive field: max(powers) + 1
        row sets, each sorted node ids (None for every node) holding every
        neighbour of the next, the last never None. x then holds the rows
        ``reach[0]``, the j-th product is taken on the rows ``reach[j]``
        only (``PropagationMatrix.apply``), and every term is yielded on the
        rows ``reach[-1]``, each row the unrestricted term's bit for bit."""
        reached = 0
        for p in self.powers:
            for _ in range(p - reached):
                reached += 1
                x = (self.operator.apply(x) if reach is None else
                     self.operator.apply(x, reach[reached],
                                         reach[reached - 1]))
            if reach is None or reach[p] is reach[-1]:
                yield x
            else:
                yield x[reach[-1] if reach[p] is None
                        else np.searchsorted(reach[p], reach[-1])]

    def _combine(self, terms, held=False):
        """sum_i coefs[i] terms[i] with no more arrays than the sum needs:
        a unit coefficient is skipped, which is exact, and a term nothing
        else reads (a product just made, or the last power when positive;
        every positive power when the terms are ``held``, made and kept
        by the caller) takes the product and the running sum in place."""
        acc, last = None, len(self.powers) - 1
        for i, (c, term) in enumerate(zip(self.coefs, terms)):
            owned = (held or i == last) and self.powers[i] > 0
            if c != 1.0:
                term = np.multiply(c, term, out=term if owned else None)
                owned = True
            if acc is not None:
                term = np.add(acc, term, out=term if owned else None)
            acc = term
        return acc

    def linear(self, x, reach=None):
        """The homogeneous part sum_i coefs[i] P^{powers[i]} x, on the rows
        ``reach[-1]`` when ``reach`` is given (see ``terms``)."""
        return self._combine(self.terms(x, reach))

    def apply(self, x, x0=None, reach=None):
        """The polynomial at x, on every row, or on the rows ``reach[-1]``
        of a receptive field ``reach`` (see ``terms``); x0 holds every
        row."""
        if not self.inject:
            return self.linear(x, reach)
        if x0 is None:
            raise ValueError("input injection needs the initial features")
        out = self.linear(x, reach)
        if out is x:  # the identity polynomial hands back its input
            out = out.copy()
        # inject * x0 goes through one bounded buffer, row block by row
        # block: the sums are those of out + inject * x0 without an N x C
        # temporary, x0's rows gathered a block at a time
        width = max(1, int(np.prod(out.shape[1:])))
        rows = max(1, INJECT_BLOCK // width)
        buf = np.empty((min(rows, len(out)),) + out.shape[1:])
        for start in range(0, len(out), rows):
            part = out[start:start + rows]
            block = (slice(start, start + rows) if reach is None
                     else reach[-1][start:start + rows])
            part += np.multiply(self.inject, x0[block], out=buf[:len(part)])
        return out

    def pullback(self, d, x):
        """Adjoint of the linear part at ``d``, and the gradient of
        <d, linear(x)> in the coefficients, <P^p d, x>, from the same
        powers: P is symmetric, so the linear part is its own adjoint."""
        grad = []

        def dotted(terms):
            for term in terms:
                grad.append(float(np.vdot(term, x)))
                yield term
        adjoint = self._combine(dotted(self.terms(d)))
        return adjoint, np.array(grad)


def fixed(operator):
    """x -> P x."""
    return Polynomial(operator, (1,), (1.0,))


def injection(operator, rho):
    """x -> rho P x + (1 - rho) x0, rho a number (not a bool) in [0, 1]."""
    if isinstance(rho, bool) or not 0.0 <= rho <= 1.0:
        raise ValueError(f"rho {rho!r}: must lie in [0, 1]")
    return Polynomial(operator, (1,), (rho,), inject=1.0 - rho)


def kta(operator, n_deg=DEFAULT_N_DEG, weights=None):
    """x -> w_0 x + sum_k w_{k+1} P^{2^k} x, k = 0..n_deg; the weights
    start at 1 by protocol, and ``fit_kta`` returns them scaled so that
    q(1) = sum_i w_i = 1. ``n_deg`` is an integer in 0..MAX_N_DEG; a bool
    is refused, for ``n_deg`` and for a weight."""
    if not (isinstance(n_deg, numbers.Integral) and not isinstance(n_deg, bool)
            and 0 <= n_deg <= MAX_N_DEG):
        raise ValueError(f"n_deg {n_deg!r}: not an integer in 0..{MAX_N_DEG}")
    powers = (0,) + tuple(2 ** k for k in range(n_deg + 1))
    if weights is None:
        weights = np.ones(len(powers))
    elif any(isinstance(w, bool) for w in weights):
        raise ValueError(f"weights {weights!r}: a bool is not a weight")
    return Polynomial(operator, powers, np.asarray(weights, dtype=float))


def _alignment_value_grad(gram, theta, k_target, eps=ALIGNMENT_EPS):
    """Alignment of Z = sum_i theta_i B_i against a fixed target Gram matrix
    K_Y, plus its exact gradient in theta.

    ``gram`` is the basis Gram B B^T of the stacked train-row blocks B =
    [B_0; B_1; ...], each m x C. With S_i = sum_j theta_j B_i B_j^T, the
    Gram of Z is K = sum_i theta_i S_i, and <B_i, M Z> = <S_i, M> for any
    m x m matrix M, so a call costs O(len(theta)^2 m^2) and nothing in C.
    """
    n, m = len(theta), len(k_target)
    s = (theta @ gram.reshape(n * m, n, m)).reshape(n, m * m)
    k = theta @ s
    ky = k_target.ravel()
    u = float(k @ ky)
    v = float(np.linalg.norm(k))
    c = float(np.linalg.norm(ky))
    denom = v * c + eps
    rho = u / denom
    du = 2.0 * (s @ ky)                                # d<K, K_Y>
    dv = 2.0 * (s @ k) / v if v > 0 else np.zeros(n)  # d||K||
    return rho, (du - rho * c * dv) / denom


def fit_kta(aggregator: Polynomial, x_t, labels_onehot_train, train_ids,
            cfg: AlignmentConfig):
    """Gradient ascent on the alignment between the aggregated features and
    the one-hot label Gram matrix; only train-restricted labels enter.

    One walk of the powers serves the fit and the stage's output. It holds
    the n_deg + 1 new powers P^{2^k} x_t, each the size of ``x_t`` (P^0 x_t
    is ``x_t`` itself). The train rows of all n_deg + 2, stacked into B,
    give the basis Gram B B^T, of side (n_deg + 2) m, formed once; each
    ascent step on it costs O((n_deg + 2)^2 m^2) and nothing in C.
    The ascent starts from the aggregator's weights (all 1 for ``kta``).
    The fitted weights are divided by q(1) = sum_i theta_i when it is
    positive, so that a chain of fitted stages does not grow like q(1)^t;
    a positive scale leaves the alignment, a cosine, unchanged. The fitted
    polynomial then sums the held powers in place.

    Returns (fitted aggregator, its output on ``x_t``, bit for bit
    ``fitted.apply(x_t)``, alignment of the unscaled weights).
    """
    train_ids = np.asarray(train_ids)
    y = np.asarray(labels_onehot_train, dtype=float)
    if y.shape[0] != len(train_ids):
        raise ValueError("labels must be restricted to the train rows")
    terms = list(aggregator.terms(x_t))
    basis = np.concatenate([term[train_ids] for term in terms])
    gram = basis @ basis.T
    k_target = y @ y.T
    theta = aggregator.coefs.astype(float)
    opt = _Adam(cfg.lr, 0.0, [theta.shape])
    for _ in range(cfg.epochs):
        _, grad = _alignment_value_grad(gram, theta, k_target)
        opt.step([theta], [-grad])  # ascent
    rho_final, _ = _alignment_value_grad(gram, theta, k_target)
    del basis, gram  # the sum below peaks: every power and one product
    q1 = theta.sum()
    if q1 > 0:
        theta /= q1
    fitted = replace(aggregator, coefs=theta)
    return fitted, fitted._combine(terms, held=True), float(rho_final)
