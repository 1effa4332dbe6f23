"""Noise robustness demo.

Two 2-D point clouds sit at (-5, 0) and (5, 0).  Appending eight pure-noise
coordinates wrecks the plain entropic coupling, while the group-robust
solver pins its simplex weight on the informative group and recovers a
plan close to the clean reference.
"""

import numpy as np

from frot import (
    FrotConfig,
    SinkhornConfig,
    build_grouped_cost,
    frot_fw_solve,
    sinkhorn_solve,
    synth_generate,
)

n = m = 30
seed = 0

src_clean, dst_clean = synth_generate(n, m, seed, include_noise=False)
src, dst = synth_generate(n, m, seed)
print(f"clean points: {src_clean.points.shape}, noisy points: {src.points.shape}, "
      f"groups {src.group_widths}")

cfg = SinkhornConfig(epsilon=0.02, t_max=3000)
clean_costs = build_grouped_cost(src_clean, dst_clean, "squared_euclidean")
noisy_costs = build_grouped_cost(src, dst, "squared_euclidean")

ot_clean = sinkhorn_solve(src_clean.weights, dst_clean.weights,
                          clean_costs.total(), cfg)
ot_noisy = sinkhorn_solve(src.weights, dst.weights, noisy_costs.total(), cfg)

robust = frot_fw_solve(
    src, dst, noisy_costs,
    FrotConfig(eta=1.0, fw_iters=10, subsolver="sinkhorn", epsilon=0.02,
               sinkhorn_t_max=3000),
)

print(f"\ngroup weights on noisy data: informative {robust.alpha[0]:.6f}, "
      f"noise {robust.alpha[1]:.2e}")

# how much mass each plan puts on the clean nearest-neighbour structure:
# correlate against the clean entropic plan
ref = ot_clean.plan.matrix


def overlap(plan):
    return float(np.sum(np.minimum(plan, ref)))


print("\nshared mass with the clean reference plan (1.0 = identical):")
print(f"  entropic OT, clean inputs : {overlap(ot_clean.plan.matrix):.3f}")
print(f"  entropic OT, noisy inputs : {overlap(ot_noisy.plan.matrix):.3f}")
print(f"  robust transport, noisy   : {overlap(robust.plan.matrix):.3f}")

print("\nmax row-marginal error of the robust plan:",
      f"{robust.plan.marginal_residual:.2e}")
