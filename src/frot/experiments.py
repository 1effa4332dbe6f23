"""Seeded experiment runners and their on-disk result formats.

A runner's keyword parameters are its settings and their defaults.  Every
runner writes plot-ready artifacts (plans as dense CSV, traces and weights
as JSON) plus a manifest recording the call it ran, defaults included, the
library versions and the wall time.  Result files are deterministic given
the settings.  All of them go through the artifact I/O of
:mod:`frot.measures`: LF line endings, floats as their shortest round-trip
repr, a quoted header row, and every file written atomically.
"""

from __future__ import annotations

import inspect
import numbers
import platform
import time
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .feature_selection import (RANK_METHODS, baseline_rank, frot_feature_importance,
                                select_top_k)
from .measures import (build_grouped_cost, read_csv, save_measure_csv, write_csv, write_json,
                       write_plan_csv)
from .measures import load_measure_csv  # noqa: F401 -- bench/tracing.py hooks this name
from .minmax import FrotConfig, frot_fw_solve, frot_lp_solve, round_to_polytope
from .solvers import SinkhornConfig, sinkhorn_solve
from .synthetic import EFFECTIVE_COV, comparison_instance, labeled_synthetic, synth_generate

SCENARIOS = ("noise_robustness", "solver_comparison", "feature_selection")


def _write_manifest(scenario: str, settings: dict, wall_time: float,
                    outputs, notes=None) -> None:
    """Record a run; ``settings`` is the runner's ``dict(locals())`` taken on
    entry, i.e. its keyword arguments with the defaults applied."""
    write_json(Path(settings["out_dir"]) / "manifest.json", {
        "scenario": scenario,
        "seed": settings["seed"],
        "spec": {"scenario": scenario, **settings},
        "versions": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "frot": __version__,
        },
        "wall_time_s": wall_time,
        "outputs": sorted([*outputs, "manifest.json"]),
        "notes": notes or {},
    })


def _runner(scenario: str):
    if scenario not in SCENARIOS:
        raise ValueError(f"scenario must be one of {SCENARIOS}")
    return globals()[f"run_{scenario}"]


def _check_settings(settings: dict) -> None:
    if any(key in settings and len(settings[key]) == 0
           for key in ("eta_grid", "epsilon_grid")):
        raise ValueError("parameter grids must be non-empty")
    if settings.get("trials", 1) < 1:
        raise ValueError("trials must be at least 1")


def settings_read_by(func, settings: dict) -> dict:
    """The entries of ``settings`` that ``func`` takes as keywords.

    A name that no scenario runner takes, a non-integer where the runners'
    default is an integer, a non-number where it is a float, an empty grid
    or ``trials < 1`` raises ``ValueError``; a name that only other runners
    take is dropped.
    """
    known = {name: param.default for scenario in SCENARIOS
             for name, param in inspect.signature(_runner(scenario)).parameters.items()}
    unknown = set(settings) - set(known)
    if unknown:
        raise ValueError(f"unknown experiment settings: {sorted(unknown)}")
    for name, value in settings.items():
        if type(known[name]) is int and not isinstance(value, numbers.Integral):
            raise ValueError(f"setting {name!r} must be an integer (got {value!r})")
        if type(known[name]) is float and not isinstance(value, numbers.Real):
            raise ValueError(f"setting {name!r} must be a number (got {value!r})")
    _check_settings(settings)
    params = inspect.signature(func).parameters
    return {name: value for name, value in settings.items() if name in params}


def run_experiment(scenario: str, /, **settings) -> dict:
    """Run a scenario's ``run_<scenario>`` runner on the settings it reads."""
    runner = _runner(scenario)
    return runner(**settings_read_by(runner, settings))


# ---------------------------------------------------------------------------
# Noise robustness: plain OT on clean and noisy data vs robust transport
# ---------------------------------------------------------------------------


def run_noise_robustness(*, out_dir="results", seed=0, n=50, m=50, eta=1.0,
                         epsilon=0.02, fw_iters=10, sinkhorn_t_max=5000) -> dict:
    """Compare entropic OT plans on clean/noisy data with the robust plan.

    Generates the two-cluster pair (informative 2-D signal plus an 8-D
    noise block), solves entropic OT on the clean signal, entropic OT on
    the full noisy points, and the group-robust problem on the noisy
    points, and emits all three plans plus the group weights.
    """
    settings = dict(locals())
    start = time.perf_counter()
    out_dir = Path(out_dir)
    sink_cfg = SinkhornConfig(epsilon=epsilon, t_max=sinkhorn_t_max)
    fw_cfg = FrotConfig(eta=eta, fw_iters=fw_iters, subsolver="sinkhorn",
                        epsilon=epsilon, sinkhorn_t_max=sinkhorn_t_max)

    src_clean, dst_clean = synth_generate(n, m, seed, include_noise=False)
    src, dst = synth_generate(n, m, seed)
    clean_cost = build_grouped_cost(src_clean, dst_clean, "squared_euclidean").total()
    noisy_costs = build_grouped_cost(src, dst, "squared_euclidean")

    ot_clean = sinkhorn_solve(src_clean.weights, dst_clean.weights, clean_cost, sink_cfg)
    ot_noisy = sinkhorn_solve(src.weights, dst.weights, noisy_costs.total(), sink_cfg)
    robust = frot_fw_solve(src, dst, noisy_costs, fw_cfg)

    outputs = ["ot_clean_plan.csv", "ot_noisy_plan.csv", "robust_plan.csv",
               "summary.json"]
    # emitted plans are rounded onto the polytope so downstream consumers get
    # exact couplings; each solver's own residual is recorded in the summary
    write_plan_csv(out_dir / "ot_clean_plan.csv",
                   round_to_polytope(ot_clean.plan.matrix, src_clean.weights,
                                     dst_clean.weights))
    write_plan_csv(out_dir / "ot_noisy_plan.csv",
                   round_to_polytope(ot_noisy.plan.matrix, src.weights,
                                     dst.weights))
    write_plan_csv(out_dir / "robust_plan.csv", robust.plan.matrix)
    summary = {
        "alpha": robust.alpha.tolist(),
        "informative_group_weight": float(robust.alpha[0]),
        "objective_trace": robust.objective_trace.tolist(),
        "fw_gap_trace": robust.fw_gap_trace.tolist(),
        "marginal_residuals": {
            "ot_clean": ot_clean.plan.marginal_residual,
            "ot_noisy": ot_noisy.plan.marginal_residual,
            "robust": robust.plan.marginal_residual,
        },
        "converged": {"ot_clean": ot_clean.converged, "ot_noisy": ot_noisy.converged,
                      "robust": robust.metadata["subsolver_converged_all"]},
    }
    write_json(out_dir / "summary.json", summary)
    _write_manifest("noise_robustness", settings, time.perf_counter() - start, outputs,
                    notes={"signal_covariance_psd_projection": EFFECTIVE_COV.tolist()})
    return summary


# ---------------------------------------------------------------------------
# Solver comparison: exact LP vs Frank-Wolfe paths over eta and epsilon grids
# ---------------------------------------------------------------------------


def _plan_mse(p1: np.ndarray, p2: np.ndarray) -> float:
    return float(np.mean((p1 - p2) ** 2))


def run_solver_comparison(*, out_dir="results", seed=0, n=20, m=20, eta=1.0,
                          epsilon=0.1, fw_iters=50,
                          eta_grid=(0.05, 0.1, 0.2, 0.5, 1.0, 2.0),
                          epsilon_grid=(0.01, 0.02, 0.05, 0.1, 0.2),
                          sinkhorn_t_max=5000) -> dict:
    """Sweep the smoothing strength and the subsolver regularization.

    On a fixed two-group instance, solves the exact epigraph LP once, then
    for every value in ``eta_grid`` runs Frank-Wolfe with the exact and the
    entropic subsolver (at ``epsilon``), recording max-cost objectives and
    the mean squared error between each plan and the LP plan.  A second
    sweep runs the entropic subsolver over ``epsilon_grid`` at ``eta``.
    Both sweeps run ``fw_iters`` iterations; the comparison lets
    Frank-Wolfe converge rather than using the small fixed budget that
    suffices for the robustness runs.
    """
    settings = dict(locals())
    _check_settings(settings)
    start = time.perf_counter()
    out_dir = Path(out_dir)

    src, dst = comparison_instance(n, m, seed)
    costs = build_grouped_cost(src, dst, "squared_euclidean")
    lp = frot_lp_solve(costs, src.weights, dst.weights)

    eta_rows = []
    for grid_eta in eta_grid:
        fw_emd = frot_fw_solve(src, dst, costs,
                               FrotConfig(eta=grid_eta, fw_iters=fw_iters))
        fw_sink = frot_fw_solve(
            src, dst, costs,
            FrotConfig(eta=grid_eta, fw_iters=fw_iters, subsolver="sinkhorn",
                       epsilon=epsilon, sinkhorn_t_max=sinkhorn_t_max),
        )
        eta_rows.append({
            "eta": grid_eta,
            "lp_objective": lp.objective,
            "fw_emd_objective": fw_emd.max_group_cost,
            "fw_emd_smoothed": float(fw_emd.objective_trace[-1]),
            "fw_emd_plan_mse": _plan_mse(lp.plan.matrix, fw_emd.plan.matrix),
            "fw_sinkhorn_objective": fw_sink.max_group_cost,
            "fw_sinkhorn_smoothed": float(fw_sink.objective_trace[-1]),
            "fw_sinkhorn_plan_mse": _plan_mse(lp.plan.matrix, fw_sink.plan.matrix),
        })

    eps_rows = []
    for grid_epsilon in epsilon_grid:
        fw_sink = frot_fw_solve(
            src, dst, costs,
            FrotConfig(eta=eta, fw_iters=fw_iters, subsolver="sinkhorn",
                       epsilon=grid_epsilon, sinkhorn_t_max=sinkhorn_t_max),
        )
        eps_rows.append({
            "epsilon": grid_epsilon,
            "lp_objective": lp.objective,
            "fw_sinkhorn_objective": fw_sink.max_group_cost,
            "fw_sinkhorn_plan_mse": _plan_mse(lp.plan.matrix, fw_sink.plan.matrix),
        })

    outputs = ["eta_sweep.csv", "epsilon_sweep.csv", "lp_plan.csv", "summary.json"]
    for name, rows in (("eta_sweep.csv", eta_rows), ("epsilon_sweep.csv", eps_rows)):
        write_csv(out_dir / name, [list(row.values()) for row in rows], list(rows[0]))
    write_plan_csv(out_dir / "lp_plan.csv", lp.plan.matrix)
    summary = {
        "lp_objective": lp.objective,
        "eta_sweep": eta_rows,
        "epsilon_sweep": eps_rows,
    }
    write_json(out_dir / "summary.json", summary)
    _write_manifest("solver_comparison", settings, time.perf_counter() - start, outputs)
    return summary


# ---------------------------------------------------------------------------
# Feature selection pipeline
# ---------------------------------------------------------------------------


def _load_labeled_csv(path, label_col=None):
    header, data = read_csv(path)
    if label_col is None:
        label_idx = len(header) - 1
    else:
        if label_col not in header:
            raise ValueError(f"{path}: label column {label_col!r} not in header")
        label_idx = header.index(label_col)
    labels = data[:, label_idx]
    X = np.delete(data, label_idx, axis=1)
    names = [h for i, h in enumerate(header) if i != label_idx]
    classes = np.unique(labels)
    if classes.shape[0] != 2:
        raise ValueError(f"{path}: expected a binary label column, got {classes}")
    return X, labels, names, classes


def _train_test_split(n_rows: int, rng: np.random.Generator):
    order = rng.permutation(n_rows)
    n_train = int(round(0.75 * n_rows))
    return order[:n_train], order[n_train:]


def _standardize(train: np.ndarray, test: np.ndarray):
    mean = train.mean(axis=0)
    std = train.std(axis=0)
    std = np.where(std == 0, 1.0, std)
    return (train - mean) / std, (test - mean) / std


def run_feature_selection(*, out_dir="results", seed=0, eta=1.0, epsilon=0.02,
                          fw_iters=10, sinkhorn_t_max=300, data_path=None,
                          label_col=None, trials=1, top_k=2, n_per_class=60,
                          n_features=20) -> dict:
    """Rank features on train splits and emit rankings plus reduced data.

    Each trial splits the labeled data 75/25, standardizes features on the
    training split, and ranks with the robust-transport weights and both
    per-dimension baselines.  Multi-trial mode repeats with derived seeds
    and aggregates how often each feature lands in the top K.  The first
    trial's rankings and top-K-reduced train/test CSVs are emitted.  The
    labeled data is read from ``data_path`` (label column ``label_col``,
    default the last), or generated with ``n_per_class`` points per class
    and ``n_features`` features when no path is given.
    """
    settings = dict(locals())
    _check_settings(settings)
    start = time.perf_counter()
    out_dir = Path(out_dir)

    if data_path is not None:
        X_all, labels_all, names, classes = _load_labeled_csv(data_path, label_col)
    else:
        X_all, labels_all = labeled_synthetic(n_per_class, n_features, seed=seed)
        names = [f"f{i}" for i in range(X_all.shape[1])]
        classes = np.array([0.0, 1.0])

    d = X_all.shape[1]
    top_counts = {method: np.zeros(d, dtype=int) for method in RANK_METHODS}
    trials_out = []

    for trial in range(trials):
        trial_seed = seed + trial
        rng = np.random.default_rng(np.random.SeedSequence((trial_seed, 925)))
        train_idx, test_idx = _train_test_split(X_all.shape[0], rng)
        X_train, X_test = _standardize(X_all[train_idx], X_all[test_idx])
        y_train, y_test = labels_all[train_idx], labels_all[test_idx]
        class1 = X_train[y_train == classes[0]]
        class2 = X_train[y_train == classes[1]]

        rankings = {
            "frot": frot_feature_importance(
                class1, class2,
                fw_cfg=FrotConfig(eta=eta, fw_iters=fw_iters, subsolver="sinkhorn",
                                  epsilon=epsilon, sinkhorn_t_max=sinkhorn_t_max)),
            "wasserstein_sort": baseline_rank(class1, class2, "wasserstein_sort"),
            "linear_correlation": baseline_rank(class1, class2, "linear_correlation"),
        }
        entry = {"trial_seed": trial_seed,
                 "n_train": int(train_idx.size), "n_test": int(test_idx.size)}
        for method, ranking in rankings.items():
            selected = select_top_k(ranking, top_k)
            top_counts[method][selected] += 1
            entry[method] = {
                "order": ranking.order.tolist(),
                "importances": ranking.importances.tolist(),
                "top_k": selected.tolist(),
            }
        trials_out.append(entry)

        if trial == 0:
            for method, ranking in rankings.items():
                write_json(out_dir / f"ranking_{method}.json", {
                    "method": method,
                    "importances": ranking.importances.tolist(),
                    "order": ranking.order.tolist(),
                    "config": {"eta": eta, "fw_iters": fw_iters, "epsilon": epsilon,
                               "sinkhorn_t_max": sinkhorn_t_max, "top_k": top_k,
                               "standardized": True},
                })
            selected = entry["frot"]["top_k"]
            header = [names[i] for i in selected] + ["label"]
            for split, X_split, y_split in (("train", X_train, y_train),
                                            ("test", X_test, y_test)):
                write_csv(out_dir / f"selected_{split}.csv",
                          np.column_stack([X_split[:, selected], y_split]), header)

    outputs = (["rankings.json", "selected_train.csv", "selected_test.csv"]
               + [f"ranking_{method}.json" for method in RANK_METHODS])
    summary = {
        "top_k": top_k,
        "trials": trials_out,
        "top_k_counts": {m: top_counts[m].tolist() for m in RANK_METHODS},
        "feature_names": names,
    }
    write_json(out_dir / "rankings.json", summary)
    _write_manifest("feature_selection", settings, time.perf_counter() - start, outputs)
    return summary


def emit_synthetic_pair(*, out_dir="results", seed=0, n=20, m=20) -> dict:
    """Generate the ``n`` x ``m`` synthetic pair and write both measures as
    CSV."""
    out_dir = Path(out_dir)
    src, dst = synth_generate(n, m, seed)
    save_measure_csv(src, out_dir / "source.csv")
    save_measure_csv(dst, out_dir / "target.csv")
    return {"source": str(out_dir / "source.csv"), "target": str(out_dir / "target.csv"),
            "n": n, "m": m}
