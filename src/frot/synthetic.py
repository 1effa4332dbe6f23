"""Seeded synthetic data generators.

All randomness flows from a single root seed through named child streams
(one per stage: source signal, target signal, source noise, target noise),
so the informative coordinates of a draw are identical with and without
the noise block, and every generator is bitwise-reproducible for a fixed
seed.
"""

from __future__ import annotations

import numpy as np

from .measures import GroupedMeasure, build_grouped_measure

SOURCE_MEAN = np.array([-5.0, 0.0])
TARGET_MEAN = np.array([5.0, 0.0])

#: signal covariance as configured, symmetrized; it is indefinite as
#: written, so sampling uses its projection onto the PSD cone (negative
#: eigenvalues clipped to zero) -- see EFFECTIVE_COV
RAW_COV = np.array([[5.0, 4.0], [1.0, 1.0]])

#: width of the standard-normal noise group of :func:`synth_generate`
NOISE_DIMS = 8

#: separation of the two clusters in group 0 of :func:`comparison_instance`
COMPARISON_SHIFT = 2.5


def _psd_projection(matrix: np.ndarray) -> np.ndarray:
    sym = (matrix + matrix.T) / 2.0
    eigvals, eigvecs = np.linalg.eigh(sym)
    return (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.T


EFFECTIVE_COV = _psd_projection(RAW_COV)


def _sample_gaussian(rng: np.random.Generator, mean, cov, size: int) -> np.ndarray:
    eigvals, eigvecs = np.linalg.eigh(cov)
    factor = eigvecs * np.sqrt(np.clip(eigvals, 0.0, None))
    z = rng.standard_normal((size, mean.shape[0]))
    return mean + z @ factor.T


def synth_generate(n: int, m: int, seed: int = 0, *, include_noise: bool = True):
    """Generate the two-cluster synthetic pair of grouped measures.

    Source points are drawn around (-5, 0) and target points around
    (5, 0) with a shared 2-D covariance; with ``include_noise`` each point
    gains ``NOISE_DIMS`` standard-normal coordinates, grouped separately
    from the informative pair (group widths (2, NOISE_DIMS)).  Without
    noise the measures are 2-D with a single group.

    Returns ``(src, dst)`` :class:`GroupedMeasure` objects with uniform
    weights.
    """
    if n < 1 or m < 1:
        raise ValueError("sample counts must be positive")

    streams = np.random.SeedSequence(seed).spawn(4)
    rng_src = np.random.default_rng(streams[0])
    rng_dst = np.random.default_rng(streams[1])
    x = _sample_gaussian(rng_src, SOURCE_MEAN, EFFECTIVE_COV, n)
    y = _sample_gaussian(rng_dst, TARGET_MEAN, EFFECTIVE_COV, m)

    if not include_noise:
        return (build_grouped_measure(x, [2]), build_grouped_measure(y, [2]))

    rng_src_noise = np.random.default_rng(streams[2])
    rng_dst_noise = np.random.default_rng(streams[3])
    zx = rng_src_noise.standard_normal((n, NOISE_DIMS))
    zy = rng_dst_noise.standard_normal((m, NOISE_DIMS))
    widths = [2, NOISE_DIMS]
    return (
        build_grouped_measure(np.hstack([x, zx]), widths),
        build_grouped_measure(np.hstack([y, zy]), widths),
    )


def comparison_instance(n: int = 20, m: int = 20, seed: int = 1):
    """Fixed two-group instance for comparing the exact and smoothed solvers.

    Group 0 separates the clusters by ``COMPARISON_SHIFT`` along its first
    coordinate; group 1 is pure noise.  The max in the exact min-max then
    sits on group 0 with a moderate margin over group 1, so light
    smoothing reproduces the exact plan while heavy smoothing visibly
    mixes the groups, which is exactly the regime the solver-comparison
    sweeps probe.

    Returns ``(src, dst)`` with group widths (2, 2) and uniform weights.
    """
    if n < 1 or m < 1:
        raise ValueError("sample counts must be positive")
    streams = np.random.SeedSequence(seed).spawn(2)
    rng_src = np.random.default_rng(streams[0])
    rng_dst = np.random.default_rng(streams[1])

    x1 = rng_src.standard_normal((n, 2))
    x1[:, 0] -= COMPARISON_SHIFT / 2.0
    y1 = rng_dst.standard_normal((m, 2))
    y1[:, 0] += COMPARISON_SHIFT / 2.0
    x2 = rng_src.standard_normal((n, 2))
    y2 = rng_dst.standard_normal((m, 2))

    src = build_grouped_measure(np.hstack([x1, x2]), [2, 2])
    dst = build_grouped_measure(np.hstack([y1, y2]), [2, 2])
    return src, dst


def labeled_synthetic(n_per_class: int, n_features: int = 20,
                      informative=(0, 1), shift: float = 5.0, seed: int = 0):
    """Two-class labeled data with a few mean-shifted informative features.

    Class 0 and class 1 are standard normal except on the ``informative``
    feature indices, where the class means sit at -shift/2 and +shift/2.
    Returns ``(X, labels)`` with class-0 rows first.
    """
    if n_per_class < 1:
        raise ValueError("n_per_class must be positive")
    informative = tuple(informative)
    if any(not 0 <= i < n_features for i in informative):
        raise ValueError("informative indices out of range")
    streams = np.random.SeedSequence(seed).spawn(2)
    x0 = np.random.default_rng(streams[0]).standard_normal((n_per_class, n_features))
    x1 = np.random.default_rng(streams[1]).standard_normal((n_per_class, n_features))
    for idx in informative:
        x0[:, idx] -= shift / 2.0
        x1[:, idx] += shift / 2.0
    X = np.vstack([x0, x1])
    labels = np.concatenate([np.zeros(n_per_class), np.ones(n_per_class)])
    return X, labels
