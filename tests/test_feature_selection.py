import numpy as np
import pytest

from frot import (
    FeatureRanking,
    FrotConfig,
    baseline_rank,
    emd_exact_solve,
    frot_feature_importance,
    labeled_synthetic,
    select_top_k,
    sorted_wasserstein_1d,
)


def _informative_instance(seed=0, n=40, d=5, informative=0, shift=5.0):
    rng = np.random.default_rng(seed)
    class1 = rng.normal(size=(n, d))
    class2 = rng.normal(size=(n, d))
    class1[:, informative] -= shift / 2
    class2[:, informative] += shift / 2
    return class1, class2


def test_informative_dimension_ranked_first():
    class1, class2 = _informative_instance()
    ranking = frot_feature_importance(class1, class2)
    assert ranking.order[0] == 0
    assert ranking.method == "frot"
    assert ranking.importances.sum() == pytest.approx(1.0, abs=1e-12)

    # oracle: the informative dimension carries the dominant exact per-
    # feature transport cost by construction
    uniform = np.full(class1.shape[0], 1.0 / class1.shape[0])
    per_dim = [
        emd_exact_solve(
            uniform, uniform,
            (class1[:, k][:, None] - class2[:, k][None, :]) ** 2
        ).objective
        for k in range(class1.shape[1])
    ]
    assert int(np.argmax(per_dim)) == 0
    assert per_dim[0] > 3 * max(per_dim[1:])


def test_single_feature_gets_full_weight():
    class1, class2 = _informative_instance(d=1, informative=0)
    ranking = frot_feature_importance(class1, class2)
    np.testing.assert_allclose(ranking.importances, [1.0])
    np.testing.assert_array_equal(ranking.order, [0])


def test_duplicated_informative_dimensions_share_importance():
    class1, class2 = _informative_instance(d=4)
    class1[:, 1] = class1[:, 0]
    class2[:, 1] = class2[:, 0]
    ranking = frot_feature_importance(class1, class2)
    assert ranking.importances[0] == pytest.approx(ranking.importances[1], abs=1e-9)
    assert set(ranking.order[:2].tolist()) == {0, 1}


def test_importances_invariant_to_sample_order():
    class1, class2 = _informative_instance(seed=3)
    rng = np.random.default_rng(99)
    shuffled = frot_feature_importance(class1[rng.permutation(len(class1))],
                                       class2[rng.permutation(len(class2))])
    base = frot_feature_importance(class1, class2)
    np.testing.assert_allclose(shuffled.importances, base.importances, atol=1e-9)


def test_scaling_a_feature_weakly_increases_its_rank():
    class1, class2 = _informative_instance(seed=4, d=6, informative=2, shift=2.0)
    base = frot_feature_importance(class1, class2)
    rank_before = int(np.where(base.order == 3)[0][0])
    class1_scaled = class1.copy()
    class2_scaled = class2.copy()
    class1_scaled[:, 3] *= 3.0
    class2_scaled[:, 3] *= 3.0
    scaled = frot_feature_importance(class1_scaled, class2_scaled)
    rank_after = int(np.where(scaled.order == 3)[0][0])
    assert rank_after <= rank_before


def test_zero_cost_feature_concentrates_weight_on_other():
    # feature 1 is constant and identical across classes: zero cost matrix
    class1 = np.column_stack([np.linspace(-3, -1, 10), np.ones(10)])
    class2 = np.column_stack([np.linspace(1, 3, 10), np.ones(10)])
    ranking = frot_feature_importance(class1, class2)
    phi = None  # softmax bound: alpha_other >= 1 - L * exp(-phi/eta)
    uniform = np.full(10, 0.1)
    phi = emd_exact_solve(
        uniform, uniform, (class1[:, 0][:, None] - class2[:, 0][None, :]) ** 2
    ).objective
    assert ranking.importances[0] >= 1.0 - 2 * np.exp(-phi / 1.0)
    assert ranking.order[0] == 0


def test_constant_features_permitted():
    class1 = np.column_stack([np.zeros(6), np.arange(6.0)])
    class2 = np.column_stack([np.zeros(6), np.arange(6.0) + 4.0])
    ranking = frot_feature_importance(class1, class2)
    assert ranking.order[0] == 1


def test_select_top_k():
    ranking = FeatureRanking(np.array([0.1, 0.6, 0.3]), np.array([1, 2, 0]), "frot")
    np.testing.assert_array_equal(select_top_k(ranking, 2), [1, 2])
    np.testing.assert_array_equal(select_top_k(ranking, 3), [1, 2, 0])
    with pytest.raises(ValueError, match="k must"):
        select_top_k(ranking, 0)
    with pytest.raises(ValueError, match="k must"):
        select_top_k(ranking, 4)


def test_ties_break_to_lower_index():
    ranking = frot_feature_importance(*_informative_instance(d=3, shift=0.0))
    # no informative signal: importances near-uniform, order must still be a
    # deterministic permutation with stable tie handling
    assert ranking.order.tolist() == sorted(
        range(3), key=lambda i: (-ranking.importances[i], i)
    )


def test_baseline_identical_distributions_score_zero():
    rng = np.random.default_rng(8)
    data = rng.normal(size=(12, 3))
    ranking = baseline_rank(data, data.copy(), "wasserstein_sort")
    np.testing.assert_allclose(ranking.importances, np.zeros(3), atol=1e-12)
    np.testing.assert_array_equal(ranking.order, [0, 1, 2])


def test_baselines_rank_informative_first():
    class1, class2 = _informative_instance(seed=9)
    for method in ("wasserstein_sort", "linear_correlation"):
        ranking = baseline_rank(class1, class2, method)
        assert ranking.order[0] == 0
        assert ranking.method == method


def test_wasserstein_sort_ranks_informative_first_for_unequal_counts():
    class1, class2 = _informative_instance(seed=10)
    ranking = baseline_rank(class1[:17], class2, "wasserstein_sort")
    assert ranking.order[0] == 0


def test_wasserstein_sort_unequal_counts_matches_exact_solver():
    # continuous samples, and small integers that put ties inside and
    # across the two classes; seeds 6 and 7 have equal counts, which take
    # the same CDF integral and must agree with the sorted coupling
    for seed in range(8):
        rng = np.random.default_rng(seed)
        n, m = (7 + seed, 12 - seed // 2) if seed < 6 else (9, 9)
        if seed % 2:
            class1 = rng.integers(0, 4, size=(n, 3)).astype(float)
            class2 = rng.integers(0, 4, size=(m, 3)).astype(float)
        else:
            class1 = rng.normal(size=(n, 3))
            class2 = rng.normal(loc=0.3, size=(m, 3))
        scores = baseline_rank(class1, class2, "wasserstein_sort").importances
        for k in range(3):
            C = np.abs(class1[:, k][:, None] - class2[:, k][None, :])
            exact = emd_exact_solve(np.full(n, 1.0 / n), np.full(m, 1.0 / m), C)
            assert scores[k] == pytest.approx(exact.objective, rel=1e-12, abs=1e-15)
            if n == m:
                sorted_w1 = sorted_wasserstein_1d(class1[:, k], class2[:, k], p=1)
                assert scores[k] == pytest.approx(sorted_w1, abs=1e-12)


def test_constant_feature_correlation_zero_by_convention():
    class1 = np.column_stack([np.full(8, 2.0), np.arange(8.0)])
    class2 = np.column_stack([np.full(8, 2.0), np.arange(8.0) + 3.0])
    ranking = baseline_rank(class1, class2, "linear_correlation")
    assert ranking.importances[0] == 0.0
    assert ranking.order[0] == 1


def test_baseline_unknown_method_rejected():
    with pytest.raises(ValueError, match="method"):
        baseline_rank(np.zeros((2, 2)), np.zeros((2, 2)), "mmd")


def test_class_shape_validation():
    with pytest.raises(ValueError, match="feature count"):
        frot_feature_importance(np.zeros((3, 2)), np.zeros((3, 3)))
    with pytest.raises(ValueError, match="at least one sample"):
        frot_feature_importance(np.zeros((0, 2)), np.zeros((3, 2)))
    with pytest.raises(ValueError, match="2-D"):
        frot_feature_importance(np.zeros(3), np.zeros((3, 1)))


def test_labeled_synthetic_layout():
    X, labels = labeled_synthetic(10, n_features=6, informative=(1, 4), seed=5)
    assert X.shape == (20, 6)
    np.testing.assert_array_equal(labels, [0.0] * 10 + [1.0] * 10)
    gap = X[labels == 1].mean(axis=0) - X[labels == 0].mean(axis=0)
    assert gap[1] > 3.0 and gap[4] > 3.0
    assert np.all(np.abs(gap[[0, 2, 3, 5]]) < 2.0)


def test_feature_ranking_validation():
    with pytest.raises(ValueError, match="permutation"):
        FeatureRanking(np.array([0.5, 0.5]), np.array([0, 0]), "frot")
    with pytest.raises(ValueError, match="nonnegative"):
        FeatureRanking(np.array([-0.1, 1.1]), np.array([1, 0]), "frot")
