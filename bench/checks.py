"""Correctness checks made apart from the program.

References are computed here from the raw points, with scipy only: cost
matrices with ``scipy.spatial.distance.cdist``, and the transport LP and
the epigraph LP min t s.t. <P, C_k> <= t on a sparse constraint matrix
built here, solved by HiGHS through ``linprog``.  No check reads a clock
or a warning.  Every check returns a list of problems; an empty list
passes.
"""

from __future__ import annotations

import csv
import itertools
import json
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog
from scipy.spatial.distance import cdist

HIGHS_OPTIONS = {"primal_feasibility_tolerance": 1e-10,
                 "dual_feasibility_tolerance": 1e-10}

MARGINAL_TOL = 1e-9
REL_TOL = 1e-9
INFORMATIVE_WEIGHT_MIN = 0.99
EXACT_FW_REL_GAP_MAX = 0.01
SYMMETRY_TOL = 1e-10
TRIANGLE_TOL = 1e-8
HIT_RATE_MIN = 0.95


# ---------------------------------------------------------------------------
# Independent references
# ---------------------------------------------------------------------------

def group_cost_stack(x, y, bounds, metric="sqeuclidean", p=1.0) -> np.ndarray:
    """(L, n, m) per-group costs cdist(x_k, y_k, metric) ** p."""
    return np.stack([cdist(x[:, lo:hi], y[:, lo:hi], metric) ** p for lo, hi in bounds])


def _marginal_rows(n: int, m: int):
    """Sparse rows giving the row sums then the column sums of vec(P)."""
    flat = np.arange(n * m)
    rows = np.concatenate([flat // m, n + flat % m])
    return sparse.csr_matrix((np.ones(2 * n * m), (rows, np.concatenate([flat, flat]))),
                             shape=(n + m, n * m))


def _solve(c, a, b, **kwargs) -> float:
    res = linprog(c, b_eq=np.concatenate([a, b]), method="highs",
                  options=HIGHS_OPTIONS, **kwargs)
    if res.status != 0:
        raise RuntimeError(f"reference LP failed: {res.message}")
    return float(res.fun)


def transport_lp(C, a, b) -> float:
    """min <P, C> over couplings of (a, b)."""
    n, m = C.shape
    return _solve(C.ravel(), a, b, A_eq=_marginal_rows(n, m), bounds=(0, None))


def epigraph_lp(stack, a, b) -> float:
    """min over couplings P of max_k <P, C_k>, as min t s.t. <P, C_k> - t <= 0."""
    L, n, m = stack.shape
    c = np.zeros(n * m + 1)
    c[-1] = 1.0
    a_ub = sparse.hstack([sparse.csr_matrix(stack.reshape(L, -1)), -np.ones((L, 1))])
    a_eq = sparse.hstack([_marginal_rows(n, m), sparse.csr_matrix((n + m, 1))])
    return _solve(c, a, b, A_ub=a_ub.tocsr(), b_ub=np.zeros(L), A_eq=a_eq.tocsr(),
                  bounds=[(0, None)] * (n * m) + [(None, None)])


def _close(x, y, rel=REL_TOL, abs_tol=1e-12) -> bool:
    return abs(x - y) <= rel * max(abs(x), abs(y)) + abs_tol


# ---------------------------------------------------------------------------
# Plans and Frank-Wolfe solutions
# ---------------------------------------------------------------------------

def _marginal_residual(plan, a, b) -> float:
    """Max over the row and column sides of the L1 marginal deviation."""
    return max(np.abs(plan.sum(axis=1) - a).sum(), np.abs(plan.sum(axis=0) - b).sum())


def check_coupling(plan, a, b) -> list:
    """Nonnegative, with both marginals within 1e-9 (L1)."""
    plan = np.asarray(plan, dtype=float)
    if plan.shape != (len(a), len(b)):
        return [f"plan shape {plan.shape} != ({len(a)}, {len(b)})"]
    problems = []
    if plan.min() < 0:
        problems.append(f"plan has a negative entry {plan.min():.3e}")
    residual = _marginal_residual(plan, a, b)
    if residual > MARGINAL_TOL:
        problems.append(f"plan marginals off by {residual:.3e} (L1)")
    return problems


def check_max_group_cost(reported, plan, stack, lp_star) -> list:
    """The reported max group cost is max_k <P, C_k> and is not below LP*."""
    recomputed = float(np.tensordot(stack, plan, axes=([1, 2], [0, 1])).max())
    problems = []
    if not _close(reported, recomputed):
        problems.append(f"max group cost {reported!r} != recomputed {recomputed!r}")
    if reported < lp_star * (1.0 - REL_TOL):
        problems.append(f"max group cost {reported!r} below the LP optimum {lp_star!r}")
    return problems


def check_fw(out, stack, a, b, lp_star, exact: bool) -> list:
    """Frank-Wolfe output dict: plan, alpha, max_cost, gaps."""
    problems = check_coupling(out["plan"], a, b)
    if out["alpha"][0] < INFORMATIVE_WEIGHT_MIN:
        problems.append(f"informative weight {out['alpha'][0]!r} < {INFORMATIVE_WEIGHT_MIN}")
    problems += check_max_group_cost(out["max_cost"], out["plan"], stack, lp_star)
    if exact:
        if out["max_cost"] > lp_star * (1.0 + EXACT_FW_REL_GAP_MAX):
            problems.append(f"exact-subproblem cost {out['max_cost']!r} more than 1% "
                            f"above LP* {lp_star!r}")
        floor = -1e-9 * float(stack.max())
        if np.min(out["gaps"]) < floor:
            problems.append(f"negative FW gap {np.min(out['gaps'])!r} with exact subproblems")
    return problems


# ---------------------------------------------------------------------------
# Robust distances
# ---------------------------------------------------------------------------

def distance_reference(x, y, bounds, p) -> dict:
    """Independent optima for one pair: the epigraph LP, W_p on the full
    points and W_p on every group, all from Euclidean ground distances."""
    a = np.full(len(x), 1.0 / len(x))
    b = np.full(len(y), 1.0 / len(y))
    stack = group_cost_stack(x, y, bounds, "euclidean", p)
    return {
        "frwd": epigraph_lp(stack, a, b) ** (1.0 / p),
        "w_full": transport_lp(cdist(x, y, "euclidean") ** p, a, b) ** (1.0 / p),
        "w_groups": [transport_lp(C, a, b) ** (1.0 / p) for C in stack],
    }


def check_distance(out, ref, a, b) -> list:
    """One robust-distance op: value, W_p, coupling and the sandwich
    max_k W_p(group k) <= FRWD_p <= W_p(full points)."""
    problems = check_coupling(out["plan"], a, b)
    if not _close(out["value"], ref["frwd"]):
        problems.append(f"FRWD {out['value']!r} != reference {ref['frwd']!r}")
    if not _close(out["w"], ref["w_full"]):
        problems.append(f"W_p {out['w']!r} != reference {ref['w_full']!r}")
    lower = max(ref["w_groups"])
    if out["value"] < lower * (1.0 - REL_TOL) - 1e-12:
        problems.append(f"FRWD {out['value']!r} below max group W_p {lower!r}")
    if out["value"] > out["w"] * (1.0 + REL_TOL) + 1e-12:
        problems.append(f"FRWD {out['value']!r} above full-point W_p {out['w']!r}")
    return problems


def check_metric_axioms(dist: dict) -> list:
    """Symmetry and the triangle inequality; ``dist[(i, j)]`` over ordered
    pairs of distinct measures of one family."""
    problems = []
    members = sorted({i for pair in dist for i in pair})
    for (i, j), value in dist.items():
        if (j, i) in dist and abs(value - dist[(j, i)]) > SYMMETRY_TOL:
            problems.append(f"d({i},{j}) = {value!r} != d({j},{i}) = {dist[(j, i)]!r}")
    for i, j, k in itertools.permutations(members, 3):
        if {(i, k), (i, j), (j, k)} <= dist.keys() and \
                dist[(i, k)] > dist[(i, j)] + dist[(j, k)] + TRIANGLE_TOL:
            problems.append(f"triangle fails: d({i},{k}) > d({i},{j}) + d({j},{k})")
    return problems


# ---------------------------------------------------------------------------
# CLI session outputs, read back from disk
# ---------------------------------------------------------------------------

def read_measure(path):
    """(points, group bounds, weights) from a ``g<k>_*`` + ``weight`` CSV."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    header, data = rows[0], np.array(rows[1:], dtype=float)
    groups = [int(name.split("_")[0][1:]) for name in header[:-1]]
    bounds = []
    for k in sorted(set(groups)):
        cols = [i for i, g in enumerate(groups) if g == k]
        bounds.append((cols[0], cols[-1] + 1))
    return data[:, :-1], bounds, data[:, -1]


def read_plan(path) -> np.ndarray:
    with open(path, newline="") as fh:
        return np.array(list(csv.reader(fh)), dtype=float)


def read_json(path) -> dict:
    return json.loads(Path(path).read_text())


def read_selected(features_dir):
    """Header and rows of ``selected_train.csv`` and ``selected_test.csv``."""
    headers, rows = [], []
    for split in ("train", "test"):
        lines = (Path(features_dir) / f"selected_{split}.csv").read_text().splitlines()
        headers.append(lines[0].split(","))
        rows.append([line.split(",") for line in lines[1:]])
    return headers, rows


def check_frot_session(plan, result, stack, a, b, lp_star) -> list:
    problems = check_coupling(plan, a, b)
    if result["alpha"][0] < INFORMATIVE_WEIGHT_MIN:
        problems.append(f"informative weight {result['alpha'][0]!r} < {INFORMATIVE_WEIGHT_MIN}")
    return problems + check_max_group_cost(result["max_group_cost"], plan, stack, lp_star)


def check_sinkhorn_session(plan, result, cost, a, b, tol=1e-9) -> list:
    """Mass-1 nonnegative plan whose residual and transport cost match
    result.json, and ``converged`` false whenever that residual exceeds tol.
    The plan is not required to be a coupling: an unconverged standalone
    solve is written as it stopped."""
    problems = []
    if plan.shape != (len(a), len(b)) or plan.min() < 0:
        problems.append("plan has the wrong shape or a negative entry")
    if abs(plan.sum() - 1.0) > MARGINAL_TOL:
        problems.append(f"plan mass {plan.sum()!r} != 1")
    residual = _marginal_residual(plan, a, b)
    if not _close(result["marginal_residual"], residual):
        problems.append(f"reported residual {result['marginal_residual']!r} != {residual!r}")
    transport = float(np.sum(plan * cost))
    if not _close(result["transport_cost"], transport):
        problems.append(f"reported transport cost {result['transport_cost']!r} != {transport!r}")
    if residual > tol and result["converged"]:
        problems.append(f"converged reported with residual {residual:.3e} > {tol}")
    return problems


def check_features_session(ranking, summary, selected_headers, selected_rows) -> list:
    """``ranking_frot.json`` holds a simplex vector, and each of
    ``selected_{train,test}.csv`` carries exactly the top-k columns."""
    problems = []
    imp = np.asarray(ranking["importances"], dtype=float)
    if imp.min() < 0 or abs(imp.sum() - 1.0) > MARGINAL_TOL:
        problems.append(f"importances are not a simplex vector (sum {imp.sum()!r})")
    k = summary["top_k"]
    top = [int(i) for i in np.argsort(-imp, kind="stable")[:k]]
    if ranking["order"][:k] != top:
        problems.append(f"ranking order {ranking['order'][:k]} != top-{k} by weight {top}")
    expected = [summary["feature_names"][i] for i in top] + ["label"]
    trial = summary["trials"][0]
    for split, header, rows in zip(("train", "test"), selected_headers, selected_rows):
        if header != expected:
            problems.append(f"selected_{split}.csv columns {header} != {expected}")
        if len(rows) != trial[f"n_{split}"] or any(len(r) != k + 1 for r in rows):
            problems.append(f"selected_{split}.csv has the wrong shape")
    return problems


def top2_is_informative(ranking, informative=(0, 1)) -> bool:
    return set(ranking["order"][:2]) == set(informative)


def check_hit_rate(hits: int, sessions: int) -> list:
    if sessions and hits < HIT_RATE_MIN * sessions:
        return [f"informative features in the top 2 in {hits}/{sessions} sessions"]
    return []
