import csv
import inspect
import json
from pathlib import Path

import numpy as np
import pytest

from frot import experiments, load_measure_csv, synth_generate
from frot.experiments import (
    SCENARIOS,
    emit_synthetic_pair,
    run_experiment,
    run_feature_selection,
    run_noise_robustness,
    run_solver_comparison,
)
from frot.measures import read_plan_csv, write_plan_csv

pytestmark = pytest.mark.filterwarnings(
    "ignore:Sinkhorn stopped at t_max:RuntimeWarning"
)


def _read_manifest(out_dir):
    return json.loads((out_dir / "manifest.json").read_text())


def test_spec_validation():
    with pytest.raises(ValueError, match="scenario"):
        run_experiment("fig_something")
    with pytest.raises(ValueError, match="non-empty"):
        run_experiment("noise_robustness", eta_grid=())
    with pytest.raises(ValueError, match="unknown"):
        run_experiment("noise_robustness", bogus=1)
    with pytest.raises(ValueError, match="trials must be at least 1"):
        run_experiment("feature_selection", trials=0)
    for setting in ({"n": "five"}, {"trials": 1.5}, {"seed": 0.0}):
        with pytest.raises(ValueError, match=f"'{next(iter(setting))}' must be an integer"):
            run_experiment("noise_robustness", **setting)


# small runs of each scenario; the settings under test are left to the case
_SMALL_RUNS = {
    "noise_robustness": dict(n=8, m=8),
    "solver_comparison": dict(n=6, m=6, eta_grid=(1.0,), epsilon_grid=(0.1,)),
    "feature_selection": dict(n_per_class=12, n_features=4),
}


@pytest.mark.parametrize("given", [
    {},
    {"fw_iters": 3, "epsilon": 0.5, "sinkhorn_t_max": 150},
], ids=["scenario defaults", "given values"])
@pytest.mark.parametrize("scenario", SCENARIOS)
def test_manifest_records_the_settings_the_run_used(tmp_path, monkeypatch,
                                                    scenario, given):
    real_config = experiments.FrotConfig
    configs = []

    def recording(**kwargs):
        configs.append(real_config(**kwargs))
        return configs[-1]

    monkeypatch.setattr(experiments, "FrotConfig", recording)
    run_experiment(scenario, out_dir=str(tmp_path), **_SMALL_RUNS[scenario], **given)
    spec = _read_manifest(tmp_path)["spec"]
    params = inspect.signature(getattr(experiments, f"run_{scenario}")).parameters
    defaults = {name: param.default for name, param in params.items()}
    # only the settings the scenario reads, which include every defaulted one
    assert set(spec) == {"scenario", *params}
    assert set(defaults) <= set(spec)
    assert ("eta_grid" in spec) == (scenario == "solver_comparison")
    assert ("n" in spec) == (scenario != "feature_selection")
    expected = {**defaults, **_SMALL_RUNS[scenario], **given}
    for key in ("fw_iters", "epsilon", "sinkhorn_t_max"):
        assert spec[key] == expected[key]
    entropic = [cfg for cfg in configs if cfg.subsolver == "sinkhorn"]
    assert {cfg.fw_iters for cfg in configs} == {spec["fw_iters"]}
    assert {cfg.sinkhorn_t_max for cfg in entropic} == {spec["sinkhorn_t_max"]}
    # the first entropic run is never the solver comparison's epsilon sweep
    assert entropic[0].epsilon == spec["epsilon"]


def test_noise_robustness_artifacts(tmp_path):
    summary = run_noise_robustness(seed=0, n=12, m=12, out_dir=str(tmp_path / "run"),
                                   sinkhorn_t_max=300)
    out = tmp_path / "run"
    assert summary["informative_group_weight"] >= 0.999
    for name in ("ot_clean_plan.csv", "ot_noisy_plan.csv", "robust_plan.csv",
                 "summary.json", "manifest.json"):
        assert (out / name).exists()
    # every emitted plan is marginal-feasible for the uniform weights
    for name in ("ot_clean_plan.csv", "ot_noisy_plan.csv", "robust_plan.csv"):
        plan = read_plan_csv(out / name)
        assert plan.shape == (12, 12)
        assert plan.min() >= 0.0
        assert abs(plan.sum() - 1.0) <= 1e-9
        assert np.abs(plan.sum(axis=1) - 1.0 / 12).sum() <= 1e-9
        assert np.abs(plan.sum(axis=0) - 1.0 / 12).sum() <= 1e-9
    manifest = _read_manifest(out)
    assert manifest["schema_version"] == "1"
    assert manifest["spec"]["seed"] == 0
    assert "signal_covariance_psd_projection" in manifest["notes"]


def test_noise_robustness_rerun_is_bitwise_identical(tmp_path):
    run_experiment("noise_robustness", seed=5, n=8, m=8,
                   out_dir=str(tmp_path / "a"), sinkhorn_t_max=200)
    run_experiment("noise_robustness", seed=5, n=8, m=8,
                   out_dir=str(tmp_path / "b"), sinkhorn_t_max=200)
    for name in ("ot_clean_plan.csv", "ot_noisy_plan.csv", "robust_plan.csv",
                 "summary.json"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes()
    m1 = _read_manifest(tmp_path / "a")
    m2 = _read_manifest(tmp_path / "b")
    for m in (m1, m2):
        m.pop("wall_time_s")
        m["spec"].pop("out_dir")
    assert m1 == m2


def test_solver_comparison_artifacts(tmp_path):
    summary = run_solver_comparison(seed=1, n=10, m=10, out_dir=str(tmp_path / "cmp"),
                                    eta_grid=(0.05, 2.0), epsilon_grid=(0.1, 0.05),
                                    fw_iters=30, sinkhorn_t_max=2000)
    out = tmp_path / "cmp"
    rows = summary["eta_sweep"]
    assert [row["eta"] for row in rows] == [0.05, 2.0]
    # the exact-subproblem path can never beat the LP optimum
    for row in rows:
        assert row["fw_emd_objective"] >= row["lp_objective"] - 1e-9
    # smaller smoothing tracks the exact plan more closely
    assert rows[0]["fw_emd_plan_mse"] < rows[1]["fw_emd_plan_mse"]
    eps_rows = summary["epsilon_sweep"]
    assert eps_rows[0]["epsilon"] == 0.1
    assert (out / "eta_sweep.csv").exists()
    assert (out / "epsilon_sweep.csv").exists()
    header = (out / "eta_sweep.csv").read_text().splitlines()[0].split(",")
    assert "fw_emd_plan_mse" in header
    lp_plan = read_plan_csv(out / "lp_plan.csv")
    assert abs(lp_plan.sum() - 1.0) <= 1e-9


def test_feature_selection_run(tmp_path):
    summary = run_feature_selection(seed=0, out_dir=str(tmp_path / "fs"), trials=3,
                                    top_k=2, n_per_class=24, n_features=8)
    out = tmp_path / "fs"
    assert len(summary["trials"]) == 3
    counts = np.asarray(summary["top_k_counts"]["frot"])
    assert counts[0] == 3 and counts[1] == 3
    for method in ("frot", "wasserstein_sort", "linear_correlation"):
        doc = json.loads((out / f"ranking_{method}.json").read_text())
        assert doc["method"] == method
        assert sorted(doc["order"]) == list(range(8))
    train = (out / "selected_train.csv").read_text().splitlines()
    assert train[0] == "f0,f1,label"
    n_total = 48
    n_train = len(train) - 1
    n_test = len((out / "selected_test.csv").read_text().splitlines()) - 1
    assert n_train == round(0.75 * n_total)
    assert n_train + n_test == n_total


def test_ranking_config_records_the_sinkhorn_budget(tmp_path):
    def config(t_max):
        out = tmp_path / f"t{t_max}"
        run_feature_selection(out_dir=str(out), trials=1, sinkhorn_t_max=t_max,
                              **_SMALL_RUNS["feature_selection"])
        return json.loads((out / "ranking_frot.json").read_text())["config"]

    few, many = config(5), config(400)
    assert (few["sinkhorn_t_max"], many["sinkhorn_t_max"]) == (5, 400)
    assert few != many


def test_feature_selection_from_csv(tmp_path):
    rng = np.random.default_rng(0)
    rows = ["a,b,c,label"]
    for _ in range(30):
        label = rng.integers(0, 2)
        feats = rng.normal(size=3)
        feats[1] += 4.0 * label
        rows.append(",".join(repr(float(v)) for v in feats) + f",{label}")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n")
    summary = run_feature_selection(seed=0, out_dir=str(tmp_path / "fs"), trials=1,
                                    top_k=1, data_path=str(data_path))
    assert summary["feature_names"] == ["a", "b", "c"]
    assert summary["trials"][0]["frot"]["top_k"] == [1]


def test_reduced_csv_headers_quote_feature_names(tmp_path):
    rng = np.random.default_rng(4)
    rows = ['"a,b",c,d,label']
    for _ in range(30):
        label = rng.integers(0, 2)
        feats = rng.normal(size=3)
        feats[[0, 2]] += 4.0 * label
        rows.append(",".join(repr(float(v)) for v in feats) + f",{label}")
    data_path = tmp_path / "data.csv"
    data_path.write_text("\n".join(rows) + "\n")
    summary = run_feature_selection(seed=0, out_dir=str(tmp_path / "fs"), trials=1,
                                    top_k=2, data_path=str(data_path))
    assert summary["feature_names"] == ["a,b", "c", "d"]
    for split in ("train", "test"):
        with open(tmp_path / "fs" / f"selected_{split}.csv", newline="") as fh:
            header, *body = list(csv.reader(fh))
        assert sorted(header[:-1]) == ["a,b", "d"] and header[-1] == "label"
        assert body and all(len(row) == len(header) for row in body)


def test_feature_selection_csv_errors(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b,label\n1.0,2.0,0\n3.0,4.0,2\n1.0,1.0,1\n")
    with pytest.raises(ValueError, match="binary label"):
        run_feature_selection(data_path=str(path), out_dir=str(tmp_path / "out"))
    with pytest.raises(ValueError, match="label column"):
        run_feature_selection(data_path=str(path), label_col="missing",
                              out_dir=str(tmp_path / "out"))


def test_emitted_measures_round_trip(tmp_path):
    info = emit_synthetic_pair(seed=2, n=6, m=7, out_dir=str(tmp_path))
    for path, measure in zip((info["source"], info["target"]), synth_generate(6, 7, 2)):
        back = load_measure_csv(path)
        assert back.points.tobytes() == measure.points.tobytes()
        assert back.weights.tobytes() == measure.weights.tobytes()
        assert back.group_widths == measure.group_widths == (2, 8)


def test_plan_csv_round_trip(tmp_path):
    rng = np.random.default_rng(1)
    plan = rng.dirichlet(np.ones(12)).reshape(3, 4)
    path = tmp_path / "plan.csv"
    write_plan_csv(path, plan)
    np.testing.assert_array_equal(read_plan_csv(path), plan)


def test_solver_comparison_sweeps_epsilon_at_the_eta_setting(tmp_path, monkeypatch):
    real_config = experiments.FrotConfig
    etas = []

    def recording(**kwargs):
        etas.append(kwargs["eta"])
        return real_config(**kwargs)

    monkeypatch.setattr(experiments, "FrotConfig", recording)
    run_solver_comparison(out_dir=str(tmp_path), n=6, m=6, eta=0.7,
                          eta_grid=(0.05, 2.0), epsilon_grid=(0.1, 0.2))
    # exact and entropic runs per eta_grid value, then the epsilon sweep at eta
    assert etas == [0.05, 0.05, 2.0, 2.0, 0.7, 0.7]


def test_readme_scenario_defaults_are_the_runners_defaults():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    header = "| scenario | `n` x `m` | `fw_iters` | `epsilon` | `sinkhorn_t_max` |"
    lines = readme.split(header, 1)[1].splitlines()[2:]
    rows = {}
    for line in lines:
        if not line.startswith("|"):
            break
        cells = [cell.strip().strip("`") for cell in line.strip("|").split("|")]
        rows[cells[0]] = cells[1:]
    assert sorted(rows) == sorted(SCENARIOS)
    for scenario, (size, fw_iters, epsilon, t_max) in rows.items():
        params = inspect.signature(getattr(experiments, f"run_{scenario}")).parameters
        if "n" in params:
            assert size == f"{params['n'].default} x {params['m'].default}"
        else:
            assert size == "(data size)"
        assert int(fw_iters) == params["fw_iters"].default
        assert float(epsilon) == params["epsilon"].default
        assert int(t_max) == params["sinkhorn_t_max"].default
