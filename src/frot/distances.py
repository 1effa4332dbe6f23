"""Wasserstein and feature-robust Wasserstein distances.

The robust distance raises per-group ground distances to the p-th power,
solves the min-max transport problem over the groups, and takes the p-th
root.  With a true ground metric this is itself a metric; the package
test-suite exercises the axioms.  The diagonal-projection identity against
subspace-robust transport (singleton groups, squared Euclidean) is
provided as an oracle check.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import GroupedMeasure, TransportPlan, _pairwise_cost, build_grouped_cost
from .minmax import frot_fw_solve  # noqa: F401 -- bench/tracing.py hooks this name
from .minmax import check_lp_size, frot_lp_solve, group_costs
from .solvers import _check_order, emd_exact_solve

GROUND_METRICS = ("euclidean", "l1")


def _check_ground_metric(kind: str) -> None:
    if kind == "squared_euclidean":
        raise ValueError(
            "squared_euclidean is not a metric (no triangle inequality); "
            "use 'euclidean' or 'l1'"
        )
    if kind not in GROUND_METRICS:
        raise ValueError(f"unknown ground metric {kind!r}, expected one of {GROUND_METRICS}")


def wasserstein_p(src: GroupedMeasure, dst: GroupedMeasure,
                  distance_kind: str = "euclidean", p: float = 1.0) -> float:
    """p-Wasserstein distance (min_P <P, D^p>)^(1/p) on the full points,
    solved exactly."""
    _check_order(p)
    _check_ground_metric(distance_kind)
    D = _pairwise_cost(src.points, dst.points, distance_kind)
    result = emd_exact_solve(src.weights, dst.weights, D**p)
    return float(max(result.objective, 0.0) ** (1.0 / p))


@dataclass(frozen=True)
class FrwdResult:
    """A feature-robust Wasserstein distance evaluation.

    ``alpha`` is the reporting weight vector: uniform over the groups
    attaining the max cost at the optimal plan.
    """

    value: float
    order: float
    plan: TransportPlan
    alpha: np.ndarray


def frwd_distance(
    src: GroupedMeasure,
    dst: GroupedMeasure,
    distance_kind: str = "euclidean",
    p: float = 2.0,
    method: str = "lp",
) -> FrwdResult:
    """Feature-robust p-Wasserstein distance between grouped measures.

    Builds per-group costs d(x^(k), y^(k))^p from a true ground metric,
    solves the min-max transport problem exactly by the epigraph LP, and
    returns the p-th root of the optimum.  ``method="lp"`` is the only
    method.  The LP is limited to ``minmax.LP_MAX_VARIABLES`` plan
    variables (n * m <= 40 000, 200x200); larger pairs raise ``ValueError``.
    """
    if method != "lp":
        raise ValueError("method must be 'lp'")
    _check_order(p)
    _check_ground_metric(distance_kind)
    # fail before the (L, n, m) cost stack is built for a pair the LP refuses
    check_lp_size(src.weights.size, dst.weights.size)
    stack = build_grouped_cost(src, dst, distance_kind).matrices ** p

    res = frot_lp_solve(stack, src.weights, dst.weights)
    phi = group_costs(res.plan, stack)
    active = phi >= phi.max() - 1e-9 * max(phi.max(), 1.0)
    return FrwdResult(
        value=float(max(res.objective, 0.0) ** (1.0 / p)),
        order=float(p),
        plan=res.plan,
        alpha=active / active.sum(),
    )


def srw_equivalence_check(src: GroupedMeasure, dst: GroupedMeasure, plan, alpha):
    """Compare the two sides of the diagonal-projection identity.

    With singleton groups and weights alpha on the simplex, projecting the
    points by U = (sqrt(a_1) e_1, ..., sqrt(a_d) e_d)' and summing squared
    Euclidean transport costs must equal the alpha-weighted sum of the
    per-coordinate squared-difference costs.  Both sides are computed
    independently; returns (lhs, rhs, |lhs - rhs|).
    """
    if any(w != 1 for w in src.group_widths) or not src.same_group_structure(dst):
        raise ValueError("the identity requires singleton groups on both measures")
    alpha = np.asarray(alpha, dtype=float).reshape(-1)
    if alpha.shape[0] != src.dim:
        raise ValueError(f"alpha has length {alpha.shape[0]}, expected {src.dim}")
    if np.any(alpha < 0) or abs(alpha.sum() - 1.0) > 1e-9:
        raise ValueError("alpha must be a simplex vector (nonnegative, summing to 1)")
    P = plan.matrix if isinstance(plan, TransportPlan) else np.asarray(plan, dtype=float)

    # left side: explicit projection matrix, pairwise squared distances
    U = np.diag(np.sqrt(alpha))
    px = src.points @ U
    py = dst.points @ U
    lhs = float(np.sum(P * _pairwise_cost(px, py, "squared_euclidean")))

    # right side: weighted per-coordinate squared-difference costs
    rhs = 0.0
    for k in range(src.dim):
        diff = src.points[:, k][:, None] - dst.points[:, k][None, :]
        rhs += alpha[k] * float(np.sum(P * diff**2))
    return lhs, rhs, abs(lhs - rhs)
