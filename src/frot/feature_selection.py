"""Feature importance and top-K selection from two-class sample sets.

Treating every feature as its own singleton group, the min-max transport
solver produces simplex weights that concentrate on the features with the
largest between-class transport cost; those weights rank the features.
Two per-dimension baselines are included: the exact 1-D Wasserstein
distance and absolute linear correlation with the class label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .measures import build_grouped_cost, build_grouped_measure
from .minmax import FrotConfig, frot_fw_solve
from .solvers import emd_exact_solve  # noqa: F401 -- bench/tracing.py hooks this name
from .solvers import sorted_wasserstein_1d

RANK_METHODS = ("frot", "wasserstein_sort", "linear_correlation")


@dataclass(frozen=True)
class FeatureRanking:
    """Per-feature importance scores and the induced descending order."""

    importances: np.ndarray
    order: np.ndarray
    method: str

    def __post_init__(self):
        imp = np.asarray(self.importances, dtype=float)
        order = np.asarray(self.order, dtype=int)
        if np.any(imp < 0):
            raise ValueError("importances must be nonnegative")
        if sorted(order.tolist()) != list(range(imp.shape[0])):
            raise ValueError("order must be a permutation of 0..d-1")
        object.__setattr__(self, "importances", imp)
        object.__setattr__(self, "order", order)


def _descending_order(scores: np.ndarray) -> np.ndarray:
    # stable sort on negated scores: ties resolve to the lower feature index
    return np.argsort(-scores, kind="stable")


def _check_classes(class1, class2):
    x = np.asarray(class1, dtype=float)
    y = np.asarray(class2, dtype=float)
    if x.ndim != 2 or y.ndim != 2:
        raise ValueError("class samples must be 2-D arrays (rows are samples)")
    if x.shape[1] != y.shape[1]:
        raise ValueError(
            f"classes disagree on feature count: {x.shape[1]} vs {y.shape[1]}"
        )
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise ValueError("both classes need at least one sample")
    return x, y


def frot_feature_importance(class1, class2,
                            fw_cfg: FrotConfig | None = None) -> FeatureRanking:
    """Rank features by the robust-transport simplex weights.

    Builds singleton-group squared-difference costs between the two sample
    sets, runs the Frank-Wolfe solver (by default eta = 1 and 10
    iterations of entropic subproblems at epsilon = 0.02, for speed at
    large d), and returns the closed-form weights at the final plan
    together with their descending order.
    """
    x, y = _check_classes(class1, class2)
    if fw_cfg is None:
        fw_cfg = FrotConfig(eta=1.0, fw_iters=10, subsolver="sinkhorn", epsilon=0.02)
    src = build_grouped_measure(x)
    dst = build_grouped_measure(y)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    solution = frot_fw_solve(src, dst, costs, fw_cfg)
    return FeatureRanking(
        importances=solution.alpha,
        order=_descending_order(solution.alpha),
        method="frot",
    )


def select_top_k(ranking: FeatureRanking, k: int) -> np.ndarray:
    """First k feature indices of the ranking (ties already resolved to the
    lower index by construction)."""
    d = ranking.order.shape[0]
    if not 1 <= k <= d:
        raise ValueError(f"k must be in [1, {d}], got {k}")
    return ranking.order[:k].copy()


def baseline_rank(class1, class2, method: str) -> FeatureRanking:
    """Per-dimension baseline rankings.

    ``wasserstein_sort`` scores each dimension by the exact 1-D Wasserstein
    distance W1 of the two classes, from their sorted samples
    (``solvers.sorted_wasserstein_1d``), for any two sample counts.
    ``linear_correlation`` scores by
    the absolute correlation of the feature with the binary class label;
    constant features score 0 by convention.
    """
    x, y = _check_classes(class1, class2)
    n, m = x.shape[0], y.shape[0]
    d = x.shape[1]
    scores = np.empty(d)

    if method == "wasserstein_sort":
        for k in range(d):
            scores[k] = sorted_wasserstein_1d(x[:, k], y[:, k], p=1)
    elif method == "linear_correlation":
        labels = np.concatenate([np.zeros(n), np.ones(m)])
        labels_c = labels - labels.mean()
        denom_l = np.sqrt(np.sum(labels_c**2))
        stacked = np.vstack([x, y])
        centered = stacked - stacked.mean(axis=0)
        denom_f = np.sqrt(np.sum(centered**2, axis=0))
        with np.errstate(invalid="ignore", divide="ignore"):
            corr = (centered.T @ labels_c) / (denom_f * denom_l)
        scores = np.abs(np.where(denom_f == 0, 0.0, corr))
    else:
        raise ValueError(
            f"method must be 'wasserstein_sort' or 'linear_correlation', got {method!r}"
        )
    return FeatureRanking(importances=scores, order=_descending_order(scores),
                          method=method)
