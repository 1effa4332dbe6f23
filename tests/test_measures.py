import json

import numpy as np
import pytest

from frot import (
    GroupedCost,
    TransportPlan,
    build_grouped_cost,
    build_grouped_measure,
    load_measure_csv,
    load_measure_json,
    save_measure_csv,
    save_measure_json,
)


def test_uniform_default_weights():
    mu = build_grouped_measure(np.arange(8.0).reshape(4, 2), [2])
    assert mu.n_groups == 1
    np.testing.assert_allclose(mu.weights, [0.25, 0.25, 0.25, 0.25])
    assert abs(mu.weights.sum() - 1.0) < 1e-12


def test_default_grouping_is_per_feature():
    mu = build_grouped_measure(np.zeros((2, 3)) + [[1, 2, 3], [4, 5, 6]])
    assert mu.n_groups == 3
    assert mu.group_widths == (1, 1, 1)
    assert mu.group_bounds == ((0, 1), (1, 2), (2, 3))


def test_weights_normalized():
    mu = build_grouped_measure([[0.0], [1.0]], [1], weights=[2.0, 2.0])
    np.testing.assert_allclose(mu.weights, [0.5, 0.5])


def test_zero_weight_points_dropped():
    mu = build_grouped_measure([[0.0], [1.0], [2.0]], [1], weights=[1.0, 0.0, 3.0])
    assert mu.n_points == 2
    np.testing.assert_allclose(mu.points.ravel(), [0.0, 2.0])
    np.testing.assert_allclose(mu.weights, [0.25, 0.75])


def test_duplicate_points_merged_preserving_order():
    pts = [[5.0, 0.0], [1.0, 1.0], [5.0, 0.0], [0.0, 2.0]]
    mu = build_grouped_measure(pts, [2], weights=[1.0, 1.0, 3.0, 1.0])
    assert mu.n_points == 3
    np.testing.assert_allclose(mu.points, [[5.0, 0.0], [1.0, 1.0], [0.0, 2.0]])
    np.testing.assert_allclose(mu.weights, [4.0 / 6.0, 1.0 / 6.0, 1.0 / 6.0])


@pytest.mark.parametrize(
    "points, widths, weights, match",
    [
        (np.zeros((0, 2)), [2], None, "non-empty"),
        (np.zeros((3, 4)), [2], None, "dimension"),
        (np.zeros((3, 2)), [2, 1], None, "dimension"),
        (np.zeros((3, 2)), [2], [0.0, 0.0, 0.0], "zero"),
        (np.zeros((3, 2)), [2], [1.0, -0.5, 1.0], "nonnegative"),
        (np.zeros((3, 2)), [0, 2], None, "positive"),
    ],
)
def test_construction_errors(points, widths, weights, match):
    with pytest.raises(ValueError, match=match):
        build_grouped_measure(points, widths, weights)


def test_identical_single_points_give_zero_cost():
    mu = build_grouped_measure([[1.0, 2.0, 3.0]], [2, 1])
    cost = build_grouped_cost(mu, mu, "squared_euclidean")
    np.testing.assert_array_equal(cost.matrices, np.zeros((2, 1, 1)))


def test_hand_computed_squared_euclidean():
    src = build_grouped_measure([[0.0, 0.0]], [2])
    dst = build_grouped_measure([[3.0, 4.0]], [2])
    cost = build_grouped_cost(src, dst, "squared_euclidean")
    assert cost.matrices[0, 0, 0] == pytest.approx(25.0, abs=1e-12)
    assert build_grouped_cost(src, dst, "euclidean").matrices[0, 0, 0] == pytest.approx(5.0)
    assert build_grouped_cost(src, dst, "l1").matrices[0, 0, 0] == pytest.approx(7.0)


_PAIR_COSTS = {
    "squared_euclidean": lambda x, y: np.sum((x - y) ** 2),
    "euclidean": lambda x, y: np.sqrt(np.sum((x - y) ** 2)),
    "l1": lambda x, y: np.sum(np.abs(x - y)),
}


@pytest.mark.parametrize("kind", sorted(_PAIR_COSTS))
def test_metric_costs_match_per_pair_loops(kind):
    rng = np.random.default_rng(12)
    widths = [3, 1, 2]
    # far from the origin, where a Gram-expansion kernel leaves nonzero
    # self-distances
    mu = build_grouped_measure(1e8 + rng.normal(size=(7, 6)), widths)
    self_cost = build_grouped_cost(mu, mu, kind)
    for k in range(len(widths)):
        np.testing.assert_array_equal(np.diag(self_cost.matrices[k]), 0.0)

    src = build_grouped_measure(rng.normal(size=(5, 6)), widths)
    dst = build_grouped_measure(rng.normal(loc=0.5, size=(4, 6)), widths)
    cost = build_grouped_cost(src, dst, kind)
    pair_cost = _PAIR_COSTS[kind]
    for k in range(len(widths)):
        x, y = src.group(k), dst.group(k)
        loops = [[pair_cost(x[i], y[j]) for j in range(4)] for i in range(5)]
        np.testing.assert_allclose(cost.matrices[k], loops, rtol=1e-13, atol=0)


def test_cosine_identical_unit_vectors():
    src = build_grouped_measure([[1.0, 0.0]], [2])
    cost = build_grouped_cost(src, src, "cosine_normalized")
    assert cost.matrices[0, 0, 0] == pytest.approx(0.0, abs=1e-15)


def test_cosine_rescales_before_comparing():
    src = build_grouped_measure([[2.0, 0.0]], [2])
    dst = build_grouped_measure([[0.0, 5.0]], [2])
    cost = build_grouped_cost(src, dst, "cosine_normalized")
    assert cost.matrices[0, 0, 0] == pytest.approx(2.0)


def test_cosine_zero_norm_rejected():
    src = build_grouped_measure([[0.0, 0.0, 1.0]], [2, 1])
    with pytest.raises(ValueError, match="zero-norm"):
        build_grouped_cost(src, src, "cosine_normalized")


def test_group_structure_mismatch_rejected():
    src = build_grouped_measure(np.ones((2, 4)), [2, 2])
    dst = build_grouped_measure(np.ones((3, 4)), [1, 3])
    with pytest.raises(ValueError, match="group structures"):
        build_grouped_cost(src, dst, "squared_euclidean")


def test_cost_permutation_equivariance():
    rng = np.random.default_rng(11)
    pts_a = rng.normal(size=(5, 4))
    pts_b = rng.normal(size=(6, 4))
    perm_a = rng.permutation(5)
    perm_b = rng.permutation(6)
    base = build_grouped_cost(
        build_grouped_measure(pts_a, [2, 2]),
        build_grouped_measure(pts_b, [2, 2]),
        "squared_euclidean",
    )
    permuted = build_grouped_cost(
        build_grouped_measure(pts_a[perm_a], [2, 2]),
        build_grouped_measure(pts_b[perm_b], [2, 2]),
        "squared_euclidean",
    )
    np.testing.assert_allclose(
        permuted.matrices, base.matrices[:, perm_a][:, :, perm_b], atol=1e-12
    )


def test_group_costs_sum_to_ungrouped_squared_distance():
    rng = np.random.default_rng(7)
    pts_a = rng.normal(size=(4, 7))
    pts_b = rng.normal(size=(5, 7))
    cost = build_grouped_cost(
        build_grouped_measure(pts_a, [3, 2, 2]),
        build_grouped_measure(pts_b, [3, 2, 2]),
        "squared_euclidean",
    )
    full = np.array([[np.sum((xa - xb) ** 2) for xb in pts_b] for xa in pts_a])
    np.testing.assert_allclose(cost.total(), full, atol=1e-10)


def test_cosine_symmetric_on_self_pair():
    rng = np.random.default_rng(3)
    mu = build_grouped_measure(rng.normal(size=(6, 4)), [2, 2])
    cost = build_grouped_cost(mu, mu, "cosine_normalized")
    for k in range(2):
        np.testing.assert_allclose(cost.matrices[k], cost.matrices[k].T, atol=1e-12)


def test_grouped_cost_invariants():
    with pytest.raises(ValueError, match="nonnegative"):
        GroupedCost(np.array([[[-0.1]]]), "euclidean")
    with pytest.raises(ValueError, match="3-D"):
        GroupedCost(np.zeros((2, 2)), "euclidean")


def test_measure_is_immutable():
    mu = build_grouped_measure(np.ones((2, 2)), [2])
    with pytest.raises(ValueError):
        mu.points[0, 0] = 7.0


def test_transport_plan_validation():
    a = b = np.array([0.5, 0.5])
    plan = TransportPlan.from_matrix(np.full((2, 2), 0.25), a, b)
    assert plan.marginal_residual < 1e-15
    with pytest.raises(ValueError, match="negative"):
        TransportPlan.from_matrix([[0.6, -0.1], [0.2, 0.3]], a, b)
    with pytest.raises(ValueError, match="mass"):
        TransportPlan.from_matrix(np.full((2, 2), 0.3), a, b)
    residual = TransportPlan.from_matrix([[0.5, 0.0], [0.25, 0.25]], a, b)
    assert residual.marginal_residual == pytest.approx(0.5)


def test_transport_plan_owns_a_read_only_copy():
    a = b = np.array([0.5, 0.5])
    source = np.array([[0.5, -1e-13], [0.0, 0.5]])
    before = source.copy()
    plan = TransportPlan.from_matrix(source, a, b)
    assert not plan.matrix.flags.writeable
    assert not np.shares_memory(plan.matrix, source)
    # the clip onto 0 happens in the copy, not in the caller's array
    assert plan.matrix[0, 1] == 0.0
    assert source.tobytes() == before.tobytes()
    with pytest.raises(ValueError):
        plan.matrix[0, 0] = 1.0


def test_transport_plan_rejects_non_finite_entries():
    a = b = np.array([0.5, 0.5])
    # NaN slips past the mass check: abs(nan - 1) > 1e-9 is False
    with pytest.raises(ValueError, match="non-finite"):
        TransportPlan.from_matrix(np.full((2, 2), np.nan), a, b)
    with pytest.raises(ValueError, match="non-finite"):
        TransportPlan.from_matrix([[0.5, np.inf], [0.0, 0.5]], a, b)


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(5)
    mu = build_grouped_measure(rng.normal(size=(4, 5)), [2, 3],
                               weights=rng.uniform(0.5, 1.5, 4))
    path = tmp_path / "measure.csv"
    save_measure_csv(mu, path)
    assert b"\r" not in path.read_bytes()
    back = load_measure_csv(path)
    np.testing.assert_array_equal(back.points, mu.points)
    np.testing.assert_array_equal(back.weights, mu.weights)
    assert back.group_bounds == mu.group_bounds


def test_csv_header_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("g0_0,oops\n1.0,2.0\n")
    with pytest.raises(ValueError, match="column"):
        load_measure_csv(path)
    path.write_text("g1_0,g0_0\n1.0,2.0\n")
    with pytest.raises(ValueError, match="group 0"):
        load_measure_csv(path)
    path.write_text("g0_0,weight,g1_0\n1.0,1.0,2.0\n")
    with pytest.raises(ValueError, match="last column"):
        load_measure_csv(path)
    path.write_text("g0_0,g0_1,weight\n1.0,2.0\n")
    with pytest.raises(ValueError, match=r"rows of \[2\] values under a 3-name header"):
        load_measure_csv(path)
    path.write_text("g0_0,g0_1\n1.0,2.0\n3.0\n")
    with pytest.raises(ValueError, match=r"rows of \[1, 2\] values under a 2-name"):
        load_measure_csv(path)


def test_measure_files_are_written_atomically(tmp_path, monkeypatch):
    mu = build_grouped_measure([[0.0, 1.0], [2.0, 3.0]], [2])
    nu = build_grouped_measure([[5.0, 6.0]], [1, 1])
    for save in (save_measure_csv, save_measure_json):
        path = tmp_path / "measure"
        save(mu, path)
        before = path.read_bytes()

        def fail(src, dst):
            raise OSError("disk full")

        with monkeypatch.context() as patch:
            patch.setattr("frot.measures.os.replace", fail)
            with pytest.raises(OSError, match="disk full"):
                save(nu, path)
        assert path.read_bytes() == before
        assert sorted(tmp_path.iterdir()) == [path]


def test_json_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    mu = build_grouped_measure(rng.normal(size=(3, 4)), [1, 3])
    path = tmp_path / "measure.json"
    save_measure_json(mu, path)
    back = load_measure_json(path)
    np.testing.assert_array_equal(back.points, mu.points)
    np.testing.assert_array_equal(back.weights, mu.weights)
    assert back.group_bounds == mu.group_bounds
    doc = json.loads(path.read_text())
    assert set(doc) == {"points", "group_widths", "weights"}
