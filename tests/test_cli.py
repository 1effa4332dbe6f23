import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import frot
from frot import build_grouped_measure, save_measure_csv, save_measure_json
from frot.cli import build_parser, main
from frot.measures import read_plan_csv
from frot.solvers import SolverFailure

pytestmark = pytest.mark.filterwarnings(
    "ignore:Sinkhorn stopped at t_max:RuntimeWarning"
)


def test_import_leaves_scipy_stats_unloaded():
    # nothing in frot needs scipy.stats, and importing it would add about
    # half a second and 20 MB to every CLI start (2-vCPU machine)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    probe = "import sys, frot; print('scipy.stats' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True, timeout=60)
    assert out.stdout.strip() == "False"


def test_public_names_resolve_once():
    assert len(set(frot.__all__)) == len(frot.__all__)
    for name in frot.__all__:
        assert getattr(frot, name) is not None


@pytest.fixture()
def measure_files(tmp_path):
    rng = np.random.default_rng(0)
    src = build_grouped_measure(rng.normal(size=(6, 4)), [2, 2])
    dst = build_grouped_measure(rng.normal(loc=1.0, size=(6, 4)), [2, 2])
    src_path = tmp_path / "src.csv"
    dst_path = tmp_path / "dst.json"
    save_measure_csv(src, src_path)
    save_measure_json(dst, dst_path)
    return src_path, dst_path


def test_sinkhorn_subcommand(measure_files, tmp_path, capsys):
    src, dst = measure_files
    out = tmp_path / "out"
    code = main(["sinkhorn", "--source", str(src), "--target", str(dst),
                 "--epsilon", "0.5", "--out", str(out)])
    assert code == 0
    assert "sinkhorn" in capsys.readouterr().out
    plan = read_plan_csv(out / "plan.csv")
    assert abs(plan.sum() - 1.0) <= 1e-9
    doc = json.loads((out / "result.json").read_text())
    assert doc["schema_version"] == "1"
    assert doc["converged"]


def test_emd_subcommand(measure_files, tmp_path):
    src, dst = measure_files
    out = tmp_path / "out"
    assert main(["emd", "--source", str(src), "--target", str(dst),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["objective"] > 0


def test_frot_subcommand_fw_and_lp(measure_files, tmp_path):
    src, dst = measure_files
    out_fw = tmp_path / "fw"
    assert main(["frot", "--source", str(src), "--target", str(dst),
                 "--eta", "1.0", "--iters", "5", "--out", str(out_fw)]) == 0
    fw_doc = json.loads((out_fw / "result.json").read_text())
    assert len(fw_doc["alpha"]) == 2
    out_lp = tmp_path / "lp"
    assert main(["frot", "--source", str(src), "--target", str(dst),
                 "--solver", "lp", "--out", str(out_lp)]) == 0
    lp_doc = json.loads((out_lp / "result.json").read_text())
    assert fw_doc["max_group_cost"] >= lp_doc["objective"] - 1e-9


def test_frwd_subcommand(measure_files, tmp_path, capsys):
    src, dst = measure_files
    out = tmp_path / "out"
    assert main(["frwd", "--source", str(src), "--target", str(dst),
                 "--p", "2", "--out", str(out)]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["value"] > 0
    assert doc["order"] == 2.0


def test_synth_and_reingest(tmp_path):
    out = tmp_path / "synth"
    assert main(["synth", "--n", "6", "--m", "7", "--seed", "3",
                 "--out", str(out)]) == 0
    assert (out / "source.csv").exists()
    assert main(["emd", "--source", str(out / "source.csv"),
                 "--target", str(out / "target.csv"),
                 "--out", str(tmp_path / "emd")]) == 0


def test_select_features_subcommand(tmp_path, capsys):
    out = tmp_path / "fs"
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n_per_class": 16, "n_features": 6,
                                  "trials": 2, "top_k": 2}))
    assert main(["select-features", "--seed", "1", "--out", str(out),
                 "--config", str(config)]) == 0
    doc = json.loads((out / "rankings.json").read_text())
    assert len(doc["trials"]) == 2
    assert "select-features" in capsys.readouterr().out


def test_select_features_breaks_count_ties_toward_the_lower_index(tmp_path, capsys):
    assert main(["select-features", "--trials", "2", "--top-k", "3", "--seed", "3",
                 "--out", str(tmp_path)]) == 0
    counts = json.loads((tmp_path / "rankings.json").read_text())["top_k_counts"]["frot"]
    # features 7 and 18 tie for the third place
    assert counts[7] == counts[18] == sorted(counts)[-3]
    assert capsys.readouterr().out.rstrip().endswith("[0, 1, 7]")


def test_select_features_finds_a_named_label_column_under_spaced_names(tmp_path):
    rng = np.random.default_rng(6)
    rows = ["cls, a, b, c, d"]
    for _ in range(24):
        label = rng.integers(0, 2)
        feats = rng.normal(size=4)
        feats[2] += 4.0 * label
        rows.append(f"{label}," + ",".join(repr(float(v)) for v in feats))
    data = tmp_path / "d.csv"
    data.write_text("\n".join(rows) + "\n")
    out = tmp_path / "fs"
    assert main(["select-features", "--data", str(data), "--label-col", "cls",
                 "--top-k", "1", "--out", str(out)]) == 0
    doc = json.loads((out / "rankings.json").read_text())
    assert doc["feature_names"] == ["a", "b", "c", "d"]
    assert doc["top_k_counts"]["wasserstein_sort"] == [0, 0, 1, 0]


def test_experiment_subcommand_with_config_override(tmp_path):
    out = tmp_path / "exp"
    config = tmp_path / "cfg.json"
    # config overrides the flag value for n and m
    config.write_text(json.dumps({"n": 6, "m": 6, "sinkhorn_t_max": 200}))
    assert main(["experiment", "--scenario", "noise_robustness",
                 "--n", "50", "--seed", "2", "--out", str(out),
                 "--config", str(config)]) == 0
    plan = read_plan_csv(out / "robust_plan.csv")
    assert plan.shape == (6, 6)


def test_validation_exit_code(tmp_path, capsys):
    code = main(["emd", "--source", str(tmp_path / "missing.csv"),
                 "--target", str(tmp_path / "missing.csv"),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["emd", "--source", "{tmp}", "--target", "{tmp}"],
    ["select-features", "--config", "{tmp}/missing.json"],
], ids=["directory as measure", "missing config"])
def test_file_errors_are_exit_code_2(tmp_path, capsys, argv):
    code = main([arg.format(tmp=tmp_path) for arg in argv]
                + ["--out", str(tmp_path / "out")])
    assert code == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "out").exists()


def test_bad_measure_file_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("nope,columns\n1,2\n")
    code = main(["emd", "--source", str(bad), "--target", str(bad),
                 "--out", str(tmp_path / "out")])
    assert code == 2


def test_solver_failure_exit_code(measure_files, tmp_path, monkeypatch, capsys):
    src, dst = measure_files

    def boom(*args, **kwargs):
        raise SolverFailure("synthetic breakdown")

    monkeypatch.setattr("frot.cli.emd_exact_solve", boom)
    code = main(["emd", "--source", str(src), "--target", str(dst),
                 "--out", str(tmp_path / "out")])
    assert code == 1
    assert "solver failure" in capsys.readouterr().err


def test_argparse_validation_is_exit_code_2():
    with pytest.raises(SystemExit) as exc:
        main(["frot", "--solver", "bogus"])
    assert exc.value.code == 2


@pytest.mark.parametrize("argv", [
    ["emd", "--eta", "1"],
    ["frwd", "--iters", "5"],
    ["frwd", "--method", "lp"],
    ["sinkhorn", "--seed", "1"],
    ["frot", "--config", "cfg.json"],
    ["synth", "--epsilon", "0.1"],
], ids=lambda argv: f"{argv[0]} {argv[1]}")
def test_subcommands_reject_flags_they_do_not_read(measure_files, tmp_path, argv):
    src, dst = measure_files
    pair = [] if argv[0] == "synth" else ["--source", str(src), "--target", str(dst)]
    with pytest.raises(SystemExit) as exc:
        main([*argv, *pair, "--out", str(tmp_path / "out")])
    assert exc.value.code == 2


def test_select_features_on_empty_csv_is_exit_code_2(tmp_path, capsys):
    empty = tmp_path / "empty.csv"
    empty.write_text("")
    code = main(["select-features", "--data", str(empty),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    assert "empty CSV" in capsys.readouterr().err


def test_non_numeric_cell_error_names_file_and_line(measure_files, tmp_path, capsys):
    _, dst = measure_files
    bad = tmp_path / "bad.csv"
    bad.write_text("g0_0,weight\n1.0,0.5\n3.0,\n")
    code = main(["emd", "--source", str(bad), "--target", str(dst),
                 "--out", str(tmp_path / "out")])
    assert code == 2
    err = capsys.readouterr().err
    assert f"{bad}, line 3:" in err
    assert "could not convert string to float" in err


def test_experiment_flags_change_the_solver_comparison(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"n": 6, "m": 6, "sinkhorn_t_max": 200,
                                  "eta_grid": [1.0], "epsilon_grid": [0.1]}))

    def summary(name, *flags):
        out = tmp_path / name
        assert main(["experiment", "--scenario", "solver_comparison", *flags,
                     "--config", str(config), "--out", str(out)]) == 0
        return json.loads((out / "summary.json").read_text())

    iters3 = summary("i3", "--iters", "3")
    assert summary("i5", "--iters", "5") != iters3
    assert summary("i3e", "--iters", "3", "--epsilon", "0.5") != iters3
    manifest = json.loads((tmp_path / "i3e" / "manifest.json").read_text())
    assert (manifest["spec"]["fw_iters"], manifest["spec"]["epsilon"]) == (3, 0.5)


def test_parser_is_built_once_and_keeps_no_state_between_calls(measure_files, tmp_path):
    assert build_parser() is build_parser()
    src, dst = measure_files
    pair = ["--source", str(src), "--target", str(dst)]
    assert main(["frot", *pair, "--solver", "lp", "--out", str(tmp_path / "lp")]) == 0
    assert main(["frot", *pair, "--out", str(tmp_path / "fw")]) == 0
    doc = json.loads((tmp_path / "fw" / "result.json").read_text())
    assert doc["solver"] == "fw-exact_emd"

    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"eta_grid": [1.0], "epsilon_grid": [0.1]}))
    assert main(["experiment", "--scenario", "solver_comparison", "--n", "6", "--m", "6",
                 "--iters", "7", "--trials", "2", "--config", str(config),
                 "--out", str(tmp_path / "exp")]) == 0
    config.write_text(json.dumps({"n_per_class": 12, "n_features": 4}))
    assert main(["select-features", "--config", str(config),
                 "--out", str(tmp_path / "fs")]) == 0
    spec = json.loads((tmp_path / "fs" / "manifest.json").read_text())["spec"]
    # select-features takes no --n or --m; the feature-selection defaults apply
    assert "n" not in spec and "m" not in spec and spec["trials"] == 1
    assert (spec["fw_iters"], spec["epsilon"], spec["sinkhorn_t_max"]) == (10, 0.02, 300)


def test_readme_command_lines_parse():
    # every `frot ...` line of the "Command line" block, continuations
    # joined and the `...` placeholders as dummy paths; parsed, not run
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = [["measure.csv" if token == "..." else token for token in line.split()[1:]]
                for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("frot ")]
    assert len(commands) >= 10
    for argv in commands:
        assert build_parser().parse_args(argv).command == argv[0]
