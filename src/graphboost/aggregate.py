"""Node-aggregation function families and alignment-based selection.

Every aggregator is a polynomial in one symmetric operator P plus an
injected x0 term. Three families are built from it: multiplication by P,
input injection (rho * P x + (1 - rho) * x_init), and KTA, a learnable
polynomial in the powers P^{2^k} whose weights are trained by gradient
ascent on the kernel target alignment between the training-block Gram
matrix of the aggregated features and the Gram matrix of one-hot labels.
All three are linear in the current representation.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .graph import PropagationMatrix
from .mlp import _Adam, check_step

ALIGNMENT_EPS = 1e-12
DEFAULT_N_DEG = 3
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

    def terms(self, x):
        """Yield P^p x for each power p, by repeated sparse matvec."""
        reached = 0
        for p in self.powers:
            for _ in range(p - reached):
                x = self.operator.apply(x)
            reached = p
            yield x

    def _combine(self, terms):
        """sum_i coefs[i] terms[i] with no more arrays than the sum needs:
        a unit coefficient is skipped, which is exact, and a term nothing
        else reads (a product just made, or the last power when positive)
        takes the product and the running sum in place."""
        acc, last = None, len(self.powers) - 1
        for i, (c, term) in enumerate(zip(self.coefs, terms)):
            owned = i == last and self.powers[i] > 0
            if c != 1.0:
                term = np.multiply(c, term, out=term if owned else None)
                owned = True
            if acc is not None:
                term = np.add(acc, term, out=term if owned else None)
            acc = term
        return acc

    def linear(self, x):
        """The homogeneous part sum_i coefs[i] P^{powers[i]} x."""
        return self._combine(self.terms(x))

    def apply(self, x, x0=None):
        if not self.inject:
            return self.linear(x)
        if x0 is None:
            raise ValueError("input injection needs the initial features")
        out = self.linear(x)
        if out is x:  # the identity polynomial hands back its input
            out = out.copy()
        # inject * x0 goes through one bounded buffer, row block by row
        # block: the sums are those of out + inject * x0 without an N x C
        # temporary
        width = max(1, int(np.prod(out.shape[1:])))
        rows = max(1, INJECT_BLOCK // width)
        buf = np.empty((min(rows, len(out)),) + out.shape[1:])
        for start in range(0, len(out), rows):
            part = out[start:start + rows]
            part += np.multiply(self.inject, x0[start:start + rows],
                                out=buf[:len(part)])
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

    def coef_grad(self, d, x):
        """``pullback``'s coefficient gradient <P^p d, x> alone."""
        return np.array([float(np.vdot(term, x)) for term in self.terms(d)])


def fixed(operator):
    """x -> P x."""
    return Polynomial(operator, (1,), (1.0,))


def injection(operator, rho):
    """x -> rho P x + (1 - rho) x0."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError("rho must lie in [0, 1]")
    return Polynomial(operator, (1,), (rho,), inject=1.0 - rho)


def kta(operator, n_deg=DEFAULT_N_DEG, weights=None):
    """x -> w_0 x + sum_k w_{k+1} P^{2^k} x, k = 0..n_deg; the weights
    start at 1 by protocol."""
    if n_deg < 0:
        raise ValueError("n_deg must be >= 0")
    powers = (0,) + tuple(2 ** k for k in range(n_deg + 1))
    if weights is None:
        weights = np.ones(len(powers))
    return Polynomial(operator, powers, np.asarray(weights, dtype=float))


def _alignment_value_grad(basis_train, theta, k_target, eps=ALIGNMENT_EPS):
    """Alignment of sum_i theta_i B_i against a fixed target Gram matrix,
    plus its exact gradient in theta.

    ``basis_train`` holds the train-row blocks of the basis outputs.
    """
    zt = sum(t * b for t, b in zip(theta, basis_train))
    k = zt @ zt.T
    u = float(np.vdot(k, k_target))
    v = float(np.linalg.norm(k))
    c = float(np.linalg.norm(k_target))
    denom = v * c + eps
    rho = u / denom
    kz = k @ zt          # for d||K||
    kyz = k_target @ zt  # for d<K, K_Y>
    grad = np.empty(len(theta))
    for i, b in enumerate(basis_train):
        du = 2.0 * float(np.vdot(b, kyz))
        dv = 2.0 * float(np.vdot(b, kz)) / v if v > 0 else 0.0
        grad[i] = (du - rho * c * dv) / denom
    return rho, grad


def fit_kta(aggregator: Polynomial, x_t, labels_onehot_train, train_ids,
            cfg: AlignmentConfig):
    """Gradient ascent on the alignment between the aggregated features and
    the one-hot label Gram matrix; only train-restricted labels enter.

    Returns (fitted aggregator, achieved alignment).
    """
    train_ids = np.asarray(train_ids)
    y = np.asarray(labels_onehot_train, dtype=float)
    if y.shape[0] != len(train_ids):
        raise ValueError("labels must be restricted to the train rows")
    basis_train = [b[train_ids] for b in aggregator.terms(x_t)]
    k_target = y @ y.T
    theta = aggregator.coefs.astype(float).copy()
    opt = _Adam(cfg.lr, 0.0, [theta.shape])
    rho = None
    for _ in range(cfg.epochs):
        rho, grad = _alignment_value_grad(basis_train, theta, k_target)
        opt.step([theta], [-grad])  # ascent
    rho_final, _ = _alignment_value_grad(basis_train, theta, k_target)
    return replace(aggregator, coefs=theta), float(rho_final)
