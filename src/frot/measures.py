"""Grouped discrete measures, per-group cost matrices, and transport plans.

A grouped measure is a discrete probability measure whose support points
live in R^d, with the d coordinates partitioned into L contiguous feature
groups.  All solvers in this package operate on these types.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.spatial.distance import cdist

COST_KINDS = ("squared_euclidean", "euclidean", "l1", "cosine_normalized")

_CDIST_METRICS = {"squared_euclidean": "sqeuclidean", "euclidean": "euclidean",
                  "l1": "cityblock"}

#: construction-time tolerance for clipping tiny negative plan entries
PLAN_CLIP_TOL = 1e-12


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, dtype=float)
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class GroupedMeasure:
    """Discrete measure with support coordinates partitioned into groups.

    Attributes
    ----------
    points : ndarray, shape (n, d)
        Support points, one per row.
    group_bounds : tuple of (start, stop)
        Contiguous, disjoint index ranges covering exactly [0, d).
    weights : ndarray, shape (n,)
        Nonnegative probabilities summing to 1.

    Instances are immutable; build them with :func:`build_grouped_measure`.
    """

    points: np.ndarray
    group_bounds: tuple
    weights: np.ndarray

    @property
    def n_points(self) -> int:
        return self.points.shape[0]

    @property
    def dim(self) -> int:
        return self.points.shape[1]

    @property
    def n_groups(self) -> int:
        return len(self.group_bounds)

    @property
    def group_widths(self) -> tuple:
        return tuple(hi - lo for lo, hi in self.group_bounds)

    def group(self, k: int) -> np.ndarray:
        """Coordinates of group k, shape (n, d_k)."""
        lo, hi = self.group_bounds[k]
        return self.points[:, lo:hi]

    def same_group_structure(self, other: "GroupedMeasure") -> bool:
        return self.group_bounds == other.group_bounds


def build_grouped_measure(points, group_widths=None, weights=None) -> GroupedMeasure:
    """Construct a :class:`GroupedMeasure` from raw arrays.

    Parameters
    ----------
    points : array-like, shape (n, d)
        Support points, one row per point.
    group_widths : sequence of positive int, optional
        Widths of the L contiguous groups; must sum to d.  When omitted,
        every coordinate becomes its own singleton group (L = d).
    weights : array-like of shape (n,), optional
        Nonnegative point masses; normalized to sum to 1.  Omitted weights
        default to uniform 1/n.

    Notes
    -----
    Zero-weight points are removed and exact-duplicate support points are
    merged (weights summed, first-occurrence order kept).  Both behaviors
    keep downstream solvers free of degenerate rows.
    """
    pts = np.array(points, dtype=float)
    if pts.ndim == 1:
        pts = pts.reshape(-1, 1)
    if pts.ndim != 2 or pts.shape[0] == 0:
        raise ValueError("points must be a non-empty 2-D array, one row per point")
    if not np.all(np.isfinite(pts)):
        raise ValueError("points must be finite")
    n, d = pts.shape

    if group_widths is None:
        widths = [1] * d
    else:
        widths = [int(w) for w in group_widths]
        if len(widths) == 0 or any(w < 1 for w in widths):
            raise ValueError("group_widths must be a non-empty list of positive integers")
        if sum(widths) != d:
            raise ValueError(
                f"group_widths sum to {sum(widths)} but points have dimension {d}"
            )

    if weights is None:
        w = np.full(n, 1.0 / n)
    else:
        w = np.array(weights, dtype=float).reshape(-1)
        if w.shape[0] != n:
            raise ValueError(f"weights have length {w.shape[0]}, expected {n}")
        if not np.all(np.isfinite(w)):
            raise ValueError("weights must be finite")
        if np.any(w < 0):
            raise ValueError("weights must be nonnegative")
        if not np.any(w > 0):
            raise ValueError("weights must not all be zero")

    keep = w > 0
    pts, w = pts[keep], w[keep]

    # merge exact-duplicate support points, preserving first-occurrence order
    uniq, first, inverse = np.unique(pts, axis=0, return_index=True, return_inverse=True)
    if uniq.shape[0] < pts.shape[0]:
        merged = np.bincount(inverse.reshape(-1), weights=w)
        order = np.argsort(first)
        pts = uniq[order]
        w = merged[order]

    w = w / w.sum()

    bounds = []
    lo = 0
    for width in widths:
        bounds.append((lo, lo + width))
        lo += width
    return GroupedMeasure(_frozen(pts), tuple(bounds), _frozen(w))


def _check_cost_stack(matrices) -> np.ndarray:
    """The stack as a float array, if it is 3-D, finite and nonnegative."""
    mats = np.asarray(matrices, dtype=float)
    if mats.ndim != 3:
        raise ValueError("cost matrices must be a 3-D stack of shape (L, n, m)")
    if not np.all(np.isfinite(mats)):
        raise ValueError("cost matrices must be finite")
    if mats.min(initial=0.0) < 0:
        raise ValueError("cost matrices must be nonnegative")
    return mats


@dataclass(frozen=True)
class GroupedCost:
    """Stack of L nonnegative n-by-m cost matrices, one per feature group."""

    matrices: np.ndarray
    cost_kind: str

    def __post_init__(self):
        mats = _check_cost_stack(self.matrices)
        if self.cost_kind == "cosine_normalized" and mats.max(initial=0.0) > 4.0 + 1e-12:
            raise ValueError("cosine_normalized costs must lie in [0, 4]")
        object.__setattr__(self, "matrices", _frozen(mats))

    @property
    def n_groups(self) -> int:
        return self.matrices.shape[0]

    @property
    def shape(self) -> tuple:
        return self.matrices.shape[1], self.matrices.shape[2]

    def total(self) -> np.ndarray:
        """Sum of the per-group matrices."""
        return self.matrices.sum(axis=0)


def _pairwise_cost(xs: np.ndarray, ys: np.ndarray, cost_kind: str) -> np.ndarray:
    """Cost matrix between the rows of xs and ys for one of ``COST_KINDS``."""
    # cdist sums explicit coordinate differences, so coincident points cost
    # exactly 0; the Gram expansion x.x + y.y - 2 x.y would cancel there
    if cost_kind in _CDIST_METRICS:
        return cdist(xs, ys, _CDIST_METRICS[cost_kind])
    # cosine_normalized
    nx = np.linalg.norm(xs, axis=1)
    ny = np.linalg.norm(ys, axis=1)
    if np.any(nx == 0) or np.any(ny == 0):
        raise ValueError("zero-norm vector; cosine_normalized is undefined")
    sim = (xs / nx[:, None]) @ (ys / ny[:, None]).T
    return np.clip(2.0 - 2.0 * sim, 0.0, 4.0)


def build_grouped_cost(src: GroupedMeasure, dst: GroupedMeasure, cost_kind: str) -> GroupedCost:
    """Build the per-group cost matrices between two grouped measures.

    For every group k the entry [C_k]_ij is the cost between the group-k
    coordinates of source point i and target point j:

    - ``squared_euclidean``: squared L2 distance
    - ``euclidean``: L2 distance
    - ``l1``: L1 distance
    - ``cosine_normalized``: vectors are rescaled to unit norm and the cost
      is 2 - 2 <f_i, f_j>, so entries lie in [0, 4]

    Raises on mismatched group structure, and on zero-norm vectors under
    ``cosine_normalized``.
    """
    if cost_kind not in COST_KINDS:
        raise ValueError(f"unknown cost_kind {cost_kind!r}, expected one of {COST_KINDS}")
    if not src.same_group_structure(dst):
        raise ValueError(
            f"group structures differ: {src.group_widths} vs {dst.group_widths}"
        )
    mats = np.empty((src.n_groups, src.n_points, dst.n_points))
    for k in range(src.n_groups):
        try:
            mats[k] = _pairwise_cost(src.group(k), dst.group(k), cost_kind)
        except ValueError as exc:
            raise ValueError(f"group {k}: {exc}") from None
    return GroupedCost(mats, cost_kind)


@dataclass(frozen=True)
class TransportPlan:
    """Nonnegative coupling matrix with (near-)prescribed marginals.

    ``marginal_residual`` is the max over the row/column sides of the L1
    deviation of the plan's marginals from the weights it was built
    against.
    """

    matrix: np.ndarray
    marginal_residual: float

    @classmethod
    def from_matrix(cls, matrix, a, b) -> "TransportPlan":
        """Validate a candidate plan against marginals ``a`` and ``b``.

        Non-finite entries and entries more negative than -1e-12 are
        rejected; tiny negative round-off is clipped to zero.  Total mass
        must equal 1 within 1e-9.
        """
        mat = np.array(matrix, dtype=float)
        a = np.asarray(a, dtype=float)
        b = np.asarray(b, dtype=float)
        if mat.shape != (a.shape[0], b.shape[0]):
            raise ValueError(f"plan shape {mat.shape} does not match weights "
                             f"({a.shape[0]}, {b.shape[0]})")
        if not np.all(np.isfinite(mat)):
            raise ValueError("plan has non-finite entries")
        if mat.min(initial=0.0) < -PLAN_CLIP_TOL:
            raise ValueError(f"plan has negative entries (min {mat.min()})")
        np.clip(mat, 0.0, None, out=mat)
        total = mat.sum()
        if abs(total - 1.0) > 1e-9:
            raise ValueError(f"plan mass {total} differs from 1 by more than 1e-9")
        residual = max(
            np.abs(mat.sum(axis=1) - a).sum(),
            np.abs(mat.sum(axis=0) - b).sum(),
        )
        return cls(_frozen(mat), float(residual))

    @property
    def shape(self) -> tuple:
        return self.matrix.shape

    def cost(self, C) -> float:
        """Transport cost <plan, C>."""
        return float(np.sum(self.matrix * np.asarray(C)))


# ---------------------------------------------------------------------------
# Artifact I/O: every CSV and JSON file is read and written here, in one
# format: LF line endings, floats as their shortest round-trip repr, a
# csv-quoted header row, and each file written atomically (to a temporary
# sibling that is then renamed over the target)
# ---------------------------------------------------------------------------

SCHEMA_VERSION = "1"

_GROUP_COL = re.compile(r"^g(\d+)_")


def _atomic_write(path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_suffix(path.suffix + ".tmp")
    try:
        tmp.write_text(text)
        os.replace(tmp, path)
    except OSError:
        tmp.unlink(missing_ok=True)
        raise


def write_json(path, doc: dict) -> None:
    """Write a result document stamped with ``SCHEMA_VERSION``."""
    doc = {"schema_version": SCHEMA_VERSION, **doc}
    _atomic_write(path, json.dumps(doc, sort_keys=True, indent=1) + "\n")


def write_csv(path, rows, header=None) -> None:
    """Write a float matrix, one line per row, under an optional header."""
    out = io.StringIO()
    if header is not None:
        csv.writer(out, lineterminator="\n").writerow(header)
    out.writelines(",".join(map(repr, row)) + "\n"
                   for row in np.asarray(rows, dtype=float).tolist())
    _atomic_write(path, out.getvalue())


def read_csv(path):
    """Read a CSV with a header row: ``(header, data)``, where ``data`` is
    a float array with one row per non-blank line."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None:
            raise ValueError(f"{path}: empty CSV")
        rows = [row for row in reader if row]
    if not rows:
        raise ValueError(f"{path}: no data rows")
    widths = {len(row) for row in rows}
    if widths != {len(header)}:
        raise ValueError(f"{path}: rows of {sorted(widths)} values under a "
                         f"{len(header)}-name header")
    return header, np.array([[float(v) for v in row] for row in rows])


def write_plan_csv(path, matrix) -> None:
    """Write a transport plan as a headerless :func:`write_csv` file."""
    write_csv(path, matrix)


def read_plan_csv(path) -> np.ndarray:
    """Read a plan written by :func:`write_plan_csv`."""
    return np.loadtxt(path, delimiter=",", ndmin=2)


def load_measure_csv(path) -> GroupedMeasure:
    """Read a measure from CSV: one row per point, columns ``g<k>_*`` declare
    group membership (contiguous, ascending from group 0), and an optional
    last column ``weight`` carries masses."""
    header, data = read_csv(path)
    names = [name.strip() for name in header]
    weights = None
    if names[-1] == "weight":
        names, data, weights = names[:-1], data[:, :-1], data[:, -1]
    groups = []
    for name in names:
        m = _GROUP_COL.match(name)
        if m is None:
            raise ValueError(f"{path}: column {name!r} is not 'g<k>_*' "
                             "(only the last column may be 'weight')")
        groups.append(int(m.group(1)))
    if not groups:
        raise ValueError(f"{path}: no feature columns with 'g<k>_' prefixes")
    steps = np.diff(groups)
    if groups[0] != 0 or np.any((steps != 0) & (steps != 1)):
        raise ValueError(f"{path}: group columns must be contiguous and "
                         "ascending from group 0")
    return build_grouped_measure(data, np.bincount(groups), weights)


def save_measure_csv(measure: GroupedMeasure, path) -> None:
    """Write a measure as CSV in the format read by :func:`load_measure_csv`."""
    header = [f"g{k}_{j}" for k, width in enumerate(measure.group_widths)
              for j in range(width)]
    write_csv(path, np.column_stack([measure.points, measure.weights]),
              header + ["weight"])


def load_measure_json(path) -> GroupedMeasure:
    """Read a measure from a JSON file with keys ``points``,
    ``group_widths`` and optional ``weights``."""
    with open(path) as fh:
        doc = json.load(fh)
    if "points" not in doc:
        raise ValueError("measure JSON must contain 'points'")
    return build_grouped_measure(
        doc["points"], doc.get("group_widths"), doc.get("weights")
    )


def save_measure_json(measure: GroupedMeasure, path) -> None:
    _atomic_write(path, json.dumps({
        "points": measure.points.tolist(),
        "group_widths": list(measure.group_widths),
        "weights": measure.weights.tolist(),
    }))
