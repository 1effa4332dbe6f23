import numpy as np
import pytest

from frot import comparison_instance, labeled_synthetic, synth_generate
from frot.synthetic import EFFECTIVE_COV, RAW_COV, _psd_projection


def test_pair_shapes_and_groups():
    src, dst = synth_generate(20, 30, seed=0)
    assert src.points.shape == (20, 10)
    assert dst.points.shape == (30, 10)
    assert src.group_widths == (2, 8)
    np.testing.assert_allclose(src.weights, np.full(20, 0.05))


def test_noise_free_variant_is_two_dimensional_single_group():
    src, dst = synth_generate(10, 10, seed=0, include_noise=False)
    assert src.points.shape == (10, 2)
    assert src.group_widths == (2,)


def test_same_seed_reproduces_bitwise():
    a1, b1 = synth_generate(15, 15, seed=42)
    a2, b2 = synth_generate(15, 15, seed=42)
    np.testing.assert_array_equal(a1.points, a2.points)
    np.testing.assert_array_equal(b1.points, b2.points)


def test_different_seeds_differ():
    a1, _ = synth_generate(15, 15, seed=1)
    a2, _ = synth_generate(15, 15, seed=2)
    assert not np.array_equal(a1.points, a2.points)


def test_signal_stream_is_independent_of_noise_stream():
    noisy_src, noisy_dst = synth_generate(12, 12, seed=7)
    clean_src, clean_dst = synth_generate(12, 12, seed=7, include_noise=False)
    np.testing.assert_array_equal(noisy_src.points[:, :2], clean_src.points)
    np.testing.assert_array_equal(noisy_dst.points[:, :2], clean_dst.points)


def test_cluster_means_are_separated():
    src, dst = synth_generate(400, 400, seed=3)
    assert src.points[:, 0].mean() == pytest.approx(-5.0, abs=0.5)
    assert dst.points[:, 0].mean() == pytest.approx(5.0, abs=0.5)
    assert np.abs(src.points[:, 2:].mean(axis=0)).max() < 0.5


def test_effective_covariance_is_psd_projection():
    sym = (RAW_COV + RAW_COV.T) / 2
    eigvals = np.linalg.eigvalsh(sym)
    assert eigvals.min() < 0  # the configured matrix is indefinite as written
    proj_eigs = np.linalg.eigvalsh(EFFECTIVE_COV)
    assert proj_eigs.min() >= -1e-12
    # projection only clips the negative part
    np.testing.assert_allclose(
        np.linalg.eigvalsh(_psd_projection(RAW_COV)),
        np.clip(eigvals, 0.0, None),
        atol=1e-12,
    )


def test_sample_counts_validated():
    with pytest.raises(ValueError, match="positive"):
        synth_generate(0, 5)
    with pytest.raises(ValueError, match="positive"):
        comparison_instance(5, 0)
    with pytest.raises(ValueError, match="n_per_class"):
        labeled_synthetic(0)
    with pytest.raises(ValueError, match="out of range"):
        labeled_synthetic(5, n_features=3, informative=(3,))


def test_comparison_instance_properties():
    src, dst = comparison_instance(20, 20, seed=1)
    assert src.points.shape == (20, 4)
    assert src.group_widths == (2, 2)
    # group 0 separates the clusters, group 1 does not
    gap0 = dst.points[:, 0].mean() - src.points[:, 0].mean()
    gap1 = dst.points[:, 2].mean() - src.points[:, 2].mean()
    assert gap0 > 1.5
    assert abs(gap1) < 1.0
    again, _ = comparison_instance(20, 20, seed=1)
    np.testing.assert_array_equal(again.points, src.points)
