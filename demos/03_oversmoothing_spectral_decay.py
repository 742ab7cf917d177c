#!/usr/bin/env python3
"""Why stacking propagation steps destroys node-level information.

Repeatedly applying the GCN operator D~^{-1/2}(A + I)D~^{-1/2} shrinks every
eigencomponent except the top one, so the features collapse toward the
rank-one space spanned by the top eigenvector (whose entries follow
sqrt(degree + 1)).
The trajectory below tracks the feature norm two independent ways (direct
multiplication vs the eigenvalue identity) together with the distance to
that rank-one space.
"""

import numpy as np

from graphboost import (base_operator, eigendecompose, smoothing_report,
                        synthesize_two_block)

dataset = synthesize_two_block(n=80, p_in=0.25, p_out=0.02, seed=11,
                               noise=0.3)
operator = base_operator(dataset.graph)

spectrum, _ = eigendecompose(operator)
print("top of the spectrum:", np.array2string(spectrum[:5], precision=4))
print("the gap below 1.0 sets how fast information decays\n")

traj = smoothing_report(operator, dataset.features, t_max=24)
print(f"{'t':>3} {'norm (direct)':>14} {'norm (spectral)':>16} "
      f"{'rank-one dist':>14} {'max cos to top':>15}")
for row in traj.rows():
    if row["t"] % 2 == 0:
        print(f"{row['t']:>3} {row['frob_direct']:>14.6f} "
              f"{row['frob_spectral']:>16.6f} {row['rank1_dist']:>14.6f} "
              f"{row['cos_xi1_max']:>15.4f}")

kept = traj.rank_one_distance[-1] / traj.rank_one_distance[0]
print(f"\nafter {traj.steps[-1]} propagation steps only {kept:.2%} of the "
      "node-discriminating mass survives;")
print("a single-operator pipeline at that depth has little left to "
      "classify with, which is exactly what the multi-scale ensemble "
      "avoids by reading every intermediate depth.")
