#!/usr/bin/env python3
"""Functional gradient boosting with online weak-learning verification.

Each iteration regresses a learner onto the negative gradient of the
training surrogate, then fits cone parameters (alpha, beta) with
||Z - alpha g|| = beta ||g||, taking the midpoint of the feasible ratio
beta / alpha. Their quality gamma = (a^2-b^2)/a^2 accumulates into
Gamma_T, which drives a computable cap on the realized training error:

    train_err <= (1 + e^delta) * initial_loss / (2 M Gamma_T)

The cap shrinks like 1/T as long as every iteration stays weakly learnable.
"""

import numpy as np

from graphboost import (BoostConfig, TrainConfig, optimization_bound,
                        run_functional_gb, synthesize_two_block)
from graphboost.losses import margin_loss

dataset = synthesize_two_block(n=60, p_in=0.8, p_out=0.05, seed=3)
cfg = BoostConfig(
    n_rounds=10,
    hidden=(),  # linear learners are plenty for separable communities
    learner=TrainConfig(epochs=60, lr=0.05, weight_decay=0.0),
    seed=1,
)
# the driver also returns the score at the selected iterate t*
model, trace, yhat = run_functional_gb(dataset, cfg)

print(f"{'t':>3} {'surrogate':>10} {'train_err':>10} {'cos':>6} "
      f"{'alpha':>7} {'gamma':>6} {'|grad|_1':>9}")
for row in trace:
    print(f"{row['t']:>3} {row['train_loss']:>10.4f} "
          f"{row['train_err']:>10.3f} {row['cos_theta']:>6.2f} "
          f"{row['alpha']:>7.3f} {row['gamma']:>6.3f} "
          f"{row['grad_l1']:>9.5f}")

gammas = [st.wlc.gamma for st in model.stages[1:] if st.wlc]
bound, curve = optimization_bound(trace[0]["train_loss"], dataset.split.m,
                                  gammas)
realized = float(np.mean(margin_loss(yhat[dataset.split.train],
                                     dataset.labels[dataset.split.train])))

print(f"\nevery loop iteration passed the weak-learning check: "
      f"{len(gammas) == cfg.n_rounds}")
print(f"Gamma_T = {sum(gammas):.3f}")
print(f"realized training error {realized:.4f} <= bound {bound:.4f}: "
      f"{realized <= bound}")
print("reference 1/T curve (same average gamma):",
      np.array2string(curve[:5], precision=4), "...")
print(f"selected iterate t* = {model.t_star} "
      "(smallest gradient L1 norm along the run)")
