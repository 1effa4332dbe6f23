"""Exact versus smoothed solvers on a fixed two-group instance.

The epigraph LP gives the exact min-max optimum.  Frank-Wolfe with an
exact subproblem tracks it as the smoothing weakens (small eta), and with
an entropic subproblem the plan sharpens onto the LP plan as epsilon
shrinks.
"""

import numpy as np

from frot import (
    FrotConfig,
    build_grouped_cost,
    comparison_instance,
    frot_fw_solve,
    frot_lp_solve,
    group_costs,
)

src, dst = comparison_instance(20, 20, seed=1)
costs = build_grouped_cost(src, dst, "squared_euclidean")

lp = frot_lp_solve(costs, src.weights, dst.weights)
print(f"exact LP optimum: t* = {lp.objective:.6f} "
      f"(group costs at the LP plan: {np.round(group_costs(lp.plan, costs), 4)})")

print("\nFrank-Wolfe with exact subproblems, sweeping the smoothing eta:")
print(f"{'eta':>6} {'max group cost':>16} {'rel gap to LP':>14} {'plan MSE':>12}")
for eta in (0.05, 0.1, 0.5, 1.0, 2.0):
    fw = frot_fw_solve(src, dst, costs, FrotConfig(eta=eta, fw_iters=50))
    value = float(group_costs(fw.plan, costs).max())
    mse = float(np.mean((fw.plan.matrix - lp.plan.matrix) ** 2))
    print(f"{eta:>6} {value:>16.6f} {abs(value - lp.objective) / lp.objective:>14.2e} "
          f"{mse:>12.2e}")

print("\nFrank-Wolfe with entropic subproblems at eta = 1, sweeping epsilon:")
print(f"{'epsilon':>8} {'max group cost':>16} {'plan MSE vs LP':>15}")
for eps in (0.2, 0.1, 0.05, 0.02, 0.01):
    fw = frot_fw_solve(
        src, dst, costs,
        FrotConfig(eta=1.0, fw_iters=50, subsolver="sinkhorn", epsilon=eps,
                   sinkhorn_t_max=5000),
    )
    value = float(group_costs(fw.plan, costs).max())
    mse = float(np.mean((fw.plan.matrix - lp.plan.matrix) ** 2))
    print(f"{eps:>8} {value:>16.6f} {mse:>15.2e}")

print("\nsmaller eta tracks the exact objective; smaller epsilon sharpens the "
      "plan onto the exact one.")
