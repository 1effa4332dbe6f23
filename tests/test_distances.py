import numpy as np
import pytest

from frot import (
    build_grouped_measure,
    emd_exact_solve,
    frwd_distance,
    sorted_wasserstein_1d,
    srw_equivalence_check,
    wasserstein_p,
)

from helpers import random_birkhoff_plan, random_grouped_pair


def test_wasserstein_identical_measures_is_zero():
    mu = build_grouped_measure(np.random.default_rng(0).normal(size=(5, 3)), [3])
    assert wasserstein_p(mu, mu, "euclidean", p=2) == pytest.approx(0.0, abs=1e-9)


def test_wasserstein_single_points_is_ground_distance():
    src = build_grouped_measure([[0.0, 0.0]], [2])
    dst = build_grouped_measure([[3.0, 4.0]], [2])
    assert wasserstein_p(src, dst, "euclidean", p=2) == pytest.approx(5.0)
    assert wasserstein_p(src, dst, "l1", p=1) == pytest.approx(7.0)


def test_wasserstein_matches_sorted_1d():
    rng = np.random.default_rng(2)
    xs = rng.normal(size=8)
    ys = rng.normal(loc=1.0, size=8)
    src = build_grouped_measure(xs.reshape(-1, 1), [1])
    dst = build_grouped_measure(ys.reshape(-1, 1), [1])
    for p in (1.0, 2.0):
        assert wasserstein_p(src, dst, "euclidean", p=p) == pytest.approx(
            sorted_wasserstein_1d(xs, ys, p=p), abs=1e-10
        )


def test_wasserstein_rejects_bad_order_and_kind():
    mu = build_grouped_measure(np.zeros((2, 2)) + [[0.0, 0.0], [1.0, 1.0]], [2])
    with pytest.raises(ValueError, match="at least 1"):
        wasserstein_p(mu, mu, p=0.5)
    with pytest.raises(ValueError, match="not a metric"):
        wasserstein_p(mu, mu, "squared_euclidean", p=1)
    with pytest.raises(ValueError, match="unknown ground metric"):
        wasserstein_p(mu, mu, "cosine_normalized", p=1)


@pytest.mark.parametrize("p", [np.inf, np.nan])
def test_every_distance_takes_only_a_finite_order_of_at_least_1(p):
    # every distance is below 1, where D**inf is 0 and the p-th root of a
    # zero objective is 1
    mu = build_grouped_measure([[0.0, 0.0], [0.5, 0.5]], [1, 1])
    nu = build_grouped_measure([[0.25, 0.0], [0.5, 0.75]], [1, 1])
    for distance in (lambda: sorted_wasserstein_1d([0.0, 0.5], [0.25, 0.5], p=p),
                     lambda: wasserstein_p(mu, nu, p=p),
                     lambda: frwd_distance(mu, nu, p=p)):
        with pytest.raises(ValueError, match="finite and at least 1"):
            distance()


# ---------------------------------------------------------------------------
# robust distance
# ---------------------------------------------------------------------------


def test_frwd_identity_of_indiscernibles():
    rng = np.random.default_rng(3)
    measures = [build_grouped_measure(rng.normal(size=(5, 4)), [2, 2])]
    # shifted 25-point measures whose self-distance LPs once broke the
    # epigraph solver with a singular basis
    for seed in (15, 33, 37):
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0, 0)))
        shift = rng.standard_normal(6)
        measures.append(build_grouped_measure(rng.standard_normal((25, 6)) + shift,
                                              [2, 2, 2]))
    for mu in measures:
        for p in (1.0, 2.0):
            assert frwd_distance(mu, mu, p=p, method="lp").value == 0.0


@pytest.mark.parametrize("n", [25, 40])
@pytest.mark.parametrize("p", [1.0, 2.0])
def test_self_distances_are_exactly_zero(n, p):
    # uniform measures shaped like the robust-distance benchmark's: shifted
    # Gaussian points, 3 groups of 2 coordinates
    for seed in range(4):
        rng = np.random.default_rng(np.random.SeedSequence((seed, n)))
        points = rng.standard_normal((n, 6)) + rng.standard_normal(6)
        mu = build_grouped_measure(points, [2, 2, 2])
        assert frwd_distance(mu, mu, p=p, method="lp").value == 0.0
        assert wasserstein_p(mu, mu, p=p) == 0.0


def test_frwd_symmetry():
    rng = np.random.default_rng(4)
    src, dst = random_grouped_pair(rng, 5, 5, [2, 1], uniform_weights=False)
    for p in (1.0, 2.0):
        d1 = frwd_distance(src, dst, p=p).value
        d2 = frwd_distance(dst, src, p=p).value
        assert d1 == pytest.approx(d2, abs=1e-10)
        assert d1 >= 0.0


def test_frwd_single_points_is_max_group_distance():
    src = build_grouped_measure([[0.0, 0.0, 1.0]], [2, 1])
    dst = build_grouped_measure([[3.0, 4.0, 1.5]], [2, 1])
    # the forced plan concentrates the simplex weight on the widest group
    expected = max(5.0, 0.5)
    for p in (1.0, 2.0):
        result = frwd_distance(src, dst, "euclidean", p=p)
        assert result.value == pytest.approx(expected, abs=1e-9)
        assert result.plan.matrix[0, 0] == pytest.approx(1.0)


def test_frwd_rejects_squared_euclidean_ground():
    rng = np.random.default_rng(5)
    src, dst = random_grouped_pair(rng, 3, 3, [2])
    with pytest.raises(ValueError, match="not a metric"):
        frwd_distance(src, dst, "squared_euclidean", p=2)


def test_frwd_triangle_inequality_small_batch():
    rng = np.random.default_rng(6)
    for _ in range(15):
        widths = [1] * int(rng.integers(1, 4))
        n = int(rng.integers(2, 6))
        mu, nu = random_grouped_pair(rng, n, int(rng.integers(2, 6)), widths)
        gamma = build_grouped_measure(
            rng.normal(size=(int(rng.integers(2, 6)), sum(widths))), widths)
        for p in (1.0, 2.0):
            d_mg = frwd_distance(mu, gamma, p=p).value
            d_mn = frwd_distance(mu, nu, p=p).value
            d_ng = frwd_distance(nu, gamma, p=p).value
            assert d_mg <= d_mn + d_ng + 1e-8


def test_frwd_dominates_per_group_wasserstein():
    rng = np.random.default_rng(7)
    src, dst = random_grouped_pair(rng, 5, 6, [2, 2], uniform_weights=False)
    for p in (1.0, 2.0):
        robust = frwd_distance(src, dst, p=p).value
        for k in range(src.n_groups):
            sub_src = build_grouped_measure(src.group(k), [2], src.weights)
            sub_dst = build_grouped_measure(dst.group(k), [2], dst.weights)
            per_group = wasserstein_p(sub_src, sub_dst, "euclidean", p=p)
            assert robust >= per_group - 1e-9


def test_frwd_has_only_the_lp_method():
    rng = np.random.default_rng(8)
    src, dst = random_grouped_pair(rng, 6, 6, [1, 2])
    assert frwd_distance(src, dst, p=2, method="lp").value > 0
    with pytest.raises(ValueError, match="method"):
        frwd_distance(src, dst, p=2, method="fw")


def test_frwd_past_the_lp_size_limit_raises():
    # 201 x 201 = 40 401 plan variables; the guard fires before the LP is built
    rng = np.random.default_rng(11)
    src, dst = random_grouped_pair(rng, 201, 201, [1, 1])
    with pytest.raises(ValueError, match="limited to 40000 plan variables"):
        frwd_distance(src, dst, p=1)


def test_frwd_checks_the_lp_size_limit_before_building_costs(monkeypatch):
    # a 1000 x 1000 pair would build a 53 MB cost stack only to be refused
    def unexpected(*args, **kwargs):
        raise AssertionError("build_grouped_cost called past the LP size limit")

    monkeypatch.setattr("frot.distances.build_grouped_cost", unexpected)
    rng = np.random.default_rng(12)
    src, dst = random_grouped_pair(rng, 1000, 1000, [2, 2, 2])
    with pytest.raises(ValueError, match="limited to 40000 plan variables"):
        frwd_distance(src, dst, p=2)


def test_frwd_alpha_is_simplex_vector():
    rng = np.random.default_rng(9)
    src, dst = random_grouped_pair(rng, 4, 4, [2, 1, 1])
    res = frwd_distance(src, dst, p=1)
    assert res.alpha.min() >= 0.0
    assert res.alpha.sum() == pytest.approx(1.0, abs=1e-12)


def test_frwd_requires_shared_structure_and_valid_order():
    rng = np.random.default_rng(10)
    src = build_grouped_measure(rng.normal(size=(3, 4)), [2, 2])
    dst = build_grouped_measure(rng.normal(size=(3, 4)), [1, 3])
    with pytest.raises(ValueError, match=r"group structures differ: \(2, 2\) vs \(1, 3\)"):
        frwd_distance(src, dst)
    with pytest.raises(ValueError, match="at least 1"):
        frwd_distance(src, src, p=0.9)


# ---------------------------------------------------------------------------
# diagonal-projection identity
# ---------------------------------------------------------------------------


def test_srw_identity_on_random_triples():
    rng = np.random.default_rng(11)
    for _ in range(50):
        src, dst = random_grouped_pair(rng, 3, 3, [1, 1, 1])
        plan = random_birkhoff_plan(rng, 3)
        alpha = rng.dirichlet(np.ones(3))
        lhs, rhs, diff = srw_equivalence_check(src, dst, plan, alpha)
        assert diff <= 1e-10


def test_srw_one_hot_alpha_reduces_to_single_coordinate():
    rng = np.random.default_rng(12)
    src, dst = random_grouped_pair(rng, 4, 4, [1, 1])
    plan = random_birkhoff_plan(rng, 4)
    lhs, rhs, diff = srw_equivalence_check(src, dst, plan, [0.0, 1.0])
    direct = float(np.sum(plan * (src.points[:, 1][:, None]
                                  - dst.points[:, 1][None, :]) ** 2))
    assert lhs == pytest.approx(direct, abs=1e-12)
    assert rhs == pytest.approx(direct, abs=1e-12)
    assert diff <= 1e-10


def test_srw_rejects_bad_inputs():
    rng = np.random.default_rng(13)
    src, dst = random_grouped_pair(rng, 3, 3, [1, 1])
    plan = random_birkhoff_plan(rng, 3)
    with pytest.raises(ValueError, match="simplex"):
        srw_equivalence_check(src, dst, plan, [0.0, 0.0])
    wide_src = build_grouped_measure(rng.normal(size=(3, 2)), [2])
    with pytest.raises(ValueError, match="singleton"):
        srw_equivalence_check(wide_src, wide_src, plan, [1.0])
