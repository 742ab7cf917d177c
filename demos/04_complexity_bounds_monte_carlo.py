#!/usr/bin/env python3
"""Transductive complexity: Monte-Carlo estimates vs the closed form.

Three exhibits:
  1. the closed-form class bound D ||P X||_F / sqrt(M U) dominates a
     Monte-Carlo estimate over sampled constrained members;
  2. the sign-cube construction showing that weak learnability forces
     complexity >= (alpha^2 - beta^2) / alpha;
  3. the random-partition generalization assembly with its four addends.
"""

import itertools

import numpy as np

from graphboost import (ComplexityConstants, generalization_bound,
                        mc_transductive_rademacher, rademacher_bound,
                        synthesize_two_block, wlc_complexity_lower_bound)
from graphboost.graph import base_operator
from graphboost.mlp import MlpParams, project_l1_columns

rng = np.random.default_rng(0)

# --- 1. sampled constrained learners stay below the closed form ----------
dataset = synthesize_two_block(12, 0.7, 0.2, seed=0)
operator = base_operator(dataset.graph)
x = rng.standard_normal((12, 3))
px = operator.apply(x)
b_cap, c_cap = 1.5, 1.0

outputs = []
for _ in range(300):
    w_agg = rng.standard_normal((3, 3))
    w_agg /= np.maximum(np.abs(w_agg).sum(axis=0) / c_cap, 1.0)
    draw = np.random.default_rng(int(rng.integers(2 ** 31)))
    mlp = project_l1_columns(MlpParams(weights=[
        draw.uniform(-2.0, 2.0, (3, 4)), draw.uniform(-2.0, 2.0, (4, 1))]),
        b_cap)
    h = np.maximum((px @ w_agg) @ mlp.weights[0], 0.0)
    outputs.append((h @ mlp.weights[1])[:, 0])

constants = ComplexityConstants(n_layers=2, b_tilde=b_cap,
                                c_tildes=(c_cap,), m=6, u=6)
bound = rademacher_bound(constants, float(np.linalg.norm(px)))
est, se = mc_transductive_rademacher(np.array(outputs), m=6, u=6, seed=1)
print("constrained two-stage class on a 12-node graph:")
print(f"  Monte-Carlo estimate {est:.3f} +- {se:.3f}")
print(f"  closed-form bound    {bound:.3f}  (D = {constants.d_constant:.3f})")

# --- 2. guaranteed weak learning cannot be cheap --------------------------
alpha = 1.0
cube = alpha * np.array(list(itertools.product([-1, 0, 1], repeat=4)),
                        dtype=float)
est2, se2 = mc_transductive_rademacher(cube, m=2, u=2, seed=2)
lower = wlc_complexity_lower_bound(alpha, 0.0)
print("\nan output set covering every sign pattern at quality "
      f"(alpha={alpha}, beta=0):")
print(f"  estimated complexity {est2:.3f} +- {se2:.3f} "
      f"(analytic value 2.0), forced lower bound {lower:.1f}")

# --- 3. the full generalization assembly ----------------------------------
total, parts = generalization_bound(train_err=0.05,
                                    rad_terms=[0.02, 0.015, 0.012],
                                    m=140, u=1000, c0=1.0,
                                    delta_prime=0.05)
print("\ngeneralization assembly at M=140, U=1000, delta'=0.05:")
for key in ("train_err", "complexity", "partition_slack", "confidence"):
    print(f"  {key:>16} = {parts[key]:.4f}")
print(f"  {'total':>16} = {total:.4f}")
print("the slack term carries the undetermined universal constant c0 and "
      "is reported separately for exactly that reason")
