"""Transport-based feature selection on synthetic two-class data.

Twenty features, two of which carry the class signal.  The robust-
transport weights concentrate on the informative ones; the per-dimension
sort-Wasserstein and linear-correlation baselines agree here, but the
transport ranking comes with a coupling of the two classes for free.
"""

import numpy as np

from frot import baseline_rank, frot_feature_importance, labeled_synthetic, select_top_k

X, labels = labeled_synthetic(n_per_class=50, n_features=20, informative=(3, 11),
                              shift=5.0, seed=1)
class1 = X[labels == 0]
class2 = X[labels == 1]
print(f"two classes of {class1.shape[0]} samples, {X.shape[1]} features, "
      "informative features: 3 and 11")

ranking = frot_feature_importance(class1, class2)
top = select_top_k(ranking, 4)
print("\nrobust-transport importances (top 4):")
for idx in top:
    print(f"  feature {idx:>2}: weight {ranking.importances[idx]:.4f}")

for method in ("wasserstein_sort", "linear_correlation"):
    baseline = baseline_rank(class1, class2, method)
    print(f"\n{method} scores (top 4):")
    for idx in select_top_k(baseline, 4):
        print(f"  feature {idx:>2}: score {baseline.importances[idx]:.4f}")

agree = set(select_top_k(ranking, 2).tolist())
print(f"\ntop-2 by robust transport: {sorted(agree)} "
      f"(expected {{3, 11}}: {'yes' if agree == {3, 11} else 'no'})")
