"""Experiment settings and written outputs of the CLI subcommands."""

import json

import numpy as np
import pytest

from frot import cli, load_measure_csv
from frot.measures import build_grouped_cost, read_plan_csv

pytestmark = pytest.mark.filterwarnings(
    "ignore:Sinkhorn stopped at t_max:RuntimeWarning"
)


def _pass_through(fn):
    # a wrapper that hides the signature, like the benchmark's tracer
    def wrapper(*args, **kwargs):
        return fn(*args, **kwargs)
    return wrapper


def test_settings_reach_runners_behind_signature_hiding_wrappers(tmp_path, monkeypatch):
    for name in ("emit_synthetic_pair", "run_experiment"):
        monkeypatch.setattr(cli, name, _pass_through(getattr(cli, name)))
    monkeypatch.chdir(tmp_path)
    out = tmp_path / "pair"
    assert cli.main(["synth", "--n", "50", "--m", "50", "--out", str(out)]) == 0
    assert load_measure_csv(out / "source.csv").points.shape[0] == 50
    assert load_measure_csv(out / "target.csv").points.shape[0] == 50

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_per_class": 12, "n_features": 4}))
    out = tmp_path / "fs"
    assert cli.main(["select-features", "--trials", "2", "--seed", "3",
                     "--config", str(config), "--out", str(out)]) == 0
    spec = json.loads((out / "manifest.json").read_text())["spec"]
    assert (spec["trials"], spec["seed"]) == (2, 3)
    assert len(json.loads((out / "rankings.json").read_text())["trials"]) == 2
    assert not (tmp_path / "results").exists()


@pytest.mark.parametrize("command", [
    ["select-features"],
    ["synth"],
    ["experiment", "--scenario", "feature_selection"],
], ids=lambda command: command[0])
def test_config_naming_the_scenario_is_exit_code_2(tmp_path, capsys, command):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"scenario": "noise_robustness", "n": 5, "m": 5}))
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(config), "--out", str(out)]) == 2
    assert "scenario" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command, config, message", [
    (["select-features"], [1, 2], "must be a JSON object"),
    (["synth"], [1, 2], "must be a JSON object"),
    (["experiment", "--scenario", "noise_robustness"], [1, 2], "must be a JSON object"),
    (["synth"], {"n": "five"}, "setting 'n' must be an integer (got 'five')"),
    (["experiment", "--scenario", "noise_robustness"], {"n": "five"},
     "setting 'n' must be an integer (got 'five')"),
    (["select-features"], {"trials": 1.5}, "setting 'trials' must be an integer (got 1.5)"),
], ids=["list select-features", "list synth", "list experiment", "string n synth",
        "string n experiment", "float trials"])
def test_bad_config_contents_are_exit_code_2(tmp_path, capsys, command, config, message):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    assert cli.main([*command, "--config", str(path), "--out", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_sinkhorn_writes_a_coupling_when_the_solve_stops_short(tmp_path):
    pair = tmp_path / "pair"
    assert cli.main(["synth", "--n", "50", "--m", "50", "--out", str(pair)]) == 0
    out = tmp_path / "sink"
    assert cli.main(["sinkhorn", "--source", str(pair / "source.csv"),
                     "--target", str(pair / "target.csv"), "--out", str(out)]) == 0
    src = load_measure_csv(pair / "source.csv")
    dst = load_measure_csv(pair / "target.csv")
    plan = read_plan_csv(out / "plan.csv")
    doc = json.loads((out / "result.json").read_text())
    # the solve stops at its sweep budget far from its marginals
    assert not doc["converged"] and doc["solve_marginal_residual"] > 0.1
    residual = max(np.abs(plan.sum(axis=1) - src.weights).sum(),
                   np.abs(plan.sum(axis=0) - dst.weights).sum())
    assert plan.min() >= 0.0 and residual <= 1e-12
    assert doc["marginal_residual"] == residual
    cost = build_grouped_cost(src, dst, "squared_euclidean").total()
    assert doc["transport_cost"] == pytest.approx(float(np.sum(plan * cost)), rel=1e-12)
