#!/usr/bin/env python3
"""Self-test of the benchmark's checks.

    python3 bench/selftest.py

Runs frot on small instances, confirms that every check accepts the real
outputs, then corrupts copies of them (mass moved between two plan rows, a
distance scaled by 1.01, a wrong top-2 ranking, ...) and confirms that the
check rejects each one.  Exits 1 if any expectation fails.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shutil
import sys
import tempfile
import warnings
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

import numpy as np  # noqa: E402

import checks  # noqa: E402
import run  # noqa: E402
from frot import cli, distances, measures, minmax, synthetic  # noqa: E402

failures = []


def expect(label, problems, reject):
    if bool(problems) != reject:
        failures.append(f"{label}: expected {'rejection' if reject else 'pass'}, "
                        f"got {problems or 'pass'}")


def move_mass(plan, amount=1e-3):
    """Move mass between two rows of one column: total mass is unchanged."""
    plan = np.array(plan, dtype=float)
    delta = min(amount, plan[0].max())
    j = int(np.argmax(plan[0]))
    plan[0, j] -= delta
    plan[1, j] += delta
    return plan


def with_changes(doc, **changes):
    out = dict(doc)
    out.update(changes)
    return out


def test_frank_wolfe():
    src, dst = synthetic.synth_generate(20, 20, 0)
    stack = checks.group_cost_stack(src.points, dst.points, src.group_bounds)
    lp_star = checks.epigraph_lp(stack, src.weights, dst.weights)
    a, b = src.weights, dst.weights
    for subsolver in ("exact_emd", "sinkhorn"):
        exact = subsolver == "exact_emd"
        cfg = minmax.FrotConfig(eta=1.0, fw_iters=10, subsolver=subsolver, epsilon=0.02)
        costs = measures.build_grouped_cost(src, dst, "squared_euclidean")
        sol = minmax.frot_fw_solve(src, dst, costs, cfg)
        good = {"plan": sol.plan.matrix, "alpha": sol.alpha,
                "max_cost": sol.max_group_cost, "gaps": sol.fw_gap_trace}
        tag = f"fw {subsolver}"
        expect(f"{tag} real output", checks.check_fw(good, stack, a, b, lp_star, exact), False)
        bad = {
            "mass moved between rows": with_changes(good, plan=move_mass(good["plan"])),
            "negative entry": with_changes(good, plan=good["plan"] - np.eye(20) * 1e-6),
            "max cost scaled by 1.01": with_changes(good, max_cost=good["max_cost"] * 1.01),
            "informative weight 0.5": with_changes(good, alpha=np.array([0.5, 0.5])),
        }
        for label, out in bad.items():
            expect(f"{tag} {label}", checks.check_fw(out, stack, a, b, lp_star, exact), True)
        expect(f"{tag} cost below LP*",
               checks.check_fw(good, stack, a, b, good["max_cost"] * 1.001, exact), True)
    expect("fw exact cost 2% above LP*",
           checks.check_fw(good, stack, a, b, good["max_cost"] / 1.02, True), True)
    expect("fw exact negative gap",
           checks.check_fw(with_changes(good, gaps=np.array([1.0, -1e-3 * stack.max()])),
                           stack, a, b, lp_star, True), True)


def test_distances():
    rng = np.random.default_rng(0)
    family = [measures.build_grouped_measure(rng.standard_normal((n, 6)) + rng.standard_normal(6),
                                             (2, 2, 2)) for n in (7, 9, 11)]
    for p in (1.0, 2.0):
        dist = {}
        for i, j in itertools.permutations(range(3), 2):
            x, y = family[i], family[j]
            res = distances.frwd_distance(x, y, p=p, method="lp")
            good = {"value": res.value, "plan": res.plan.matrix,
                    "w": distances.wasserstein_p(x, y, "euclidean", p)}
            ref = checks.distance_reference(x.points, y.points, x.group_bounds, p)
            dist[(i, j)] = good["value"]
            tag = f"distance p={p:g} ({i},{j})"
            expect(f"{tag} real output", checks.check_distance(good, ref, x.weights, y.weights),
                   False)
            bad = {
                "value scaled by 1.01": with_changes(good, value=good["value"] * 1.01),
                "W_p scaled by 1.01": with_changes(good, w=good["w"] * 1.01),
                "mass moved between rows": with_changes(good, plan=move_mass(good["plan"])),
            }
            for label, out in bad.items():
                expect(f"{tag} {label}",
                       checks.check_distance(out, ref, x.weights, y.weights), True)
            high_group = dict(ref, w_groups=[good["value"] * 1.01])
            expect(f"{tag} below a group W_p",
                   checks.check_distance(good, high_group, x.weights, y.weights), True)
        tag = f"metric axioms p={p:g}"
        expect(f"{tag} real outputs", checks.check_metric_axioms(dist), False)
        expect(f"{tag} asymmetric",
               checks.check_metric_axioms({**dist, (0, 1): dist[(0, 1)] * 1.01}), True)
        broken = dict(dist)
        broken[(0, 2)] = broken[(2, 0)] = dist[(0, 1)] + dist[(1, 2)] + 1e-6
        expect(f"{tag} triangle", checks.check_metric_axioms(broken), True)


def test_cli_session():
    run.RUNS.mkdir(exist_ok=True)
    out = Path(tempfile.mkdtemp(prefix="selftest-", dir=run.RUNS))
    try:
        src, dst = out / "source.csv", out / "target.csv"
        pair = ["--source", str(src), "--target", str(dst)]
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in (
                ["synth", "--n", "20", "--m", "20", "--seed", "3", "--out", str(out)],
                ["sinkhorn", *pair, "--out", str(out / "sinkhorn")],
                ["frot", *pair, "--out", str(out / "frot")],
                ["select-features", "--trials", "1", "--seed", "3",
                 "--out", str(out / "features")])]
        expect("cli exit codes", [c for c in codes if c != 0], False)

        x, bounds, a = checks.read_measure(src)
        y, _, b = checks.read_measure(dst)
        stack = checks.group_cost_stack(x, y, bounds)
        lp_star = checks.epigraph_lp(stack, a, b)

        plan = checks.read_plan(out / "frot" / "plan.csv")
        result = checks.read_json(out / "frot" / "result.json")
        expect("frot session real output",
               checks.check_frot_session(plan, result, stack, a, b, lp_star), False)
        expect("frot session mass moved between rows",
               checks.check_frot_session(move_mass(plan), result, stack, a, b, lp_star), True)
        expect("frot session max cost scaled by 1.01",
               checks.check_frot_session(
                   plan, with_changes(result, max_group_cost=result["max_group_cost"] * 1.01),
                   stack, a, b, lp_star), True)
        expect("frot session informative weight 0.5",
               checks.check_frot_session(plan, with_changes(result, alpha=[0.5, 0.5]),
                                         stack, a, b, lp_star), True)

        plan = checks.read_plan(out / "sinkhorn" / "plan.csv")
        result = checks.read_json(out / "sinkhorn" / "result.json")
        cost = stack.sum(axis=0)
        expect("sinkhorn session real output",
               checks.check_sinkhorn_session(plan, result, cost, a, b), False)
        for label, doc in {
            "residual scaled by 1.01":
                with_changes(result, marginal_residual=result["marginal_residual"] * 1.01 + 1e-9),
            "transport cost scaled by 1.01":
                with_changes(result, transport_cost=result["transport_cost"] * 1.01),
        }.items():
            expect(f"sinkhorn session {label}",
                   checks.check_sinkhorn_session(plan, doc, cost, a, b), True)
        skewed = move_mass(plan, 1e-3)
        expect("sinkhorn session converged with a residual",
               checks.check_sinkhorn_session(
                   skewed, with_changes(result, converged=True,
                                        marginal_residual=float(max(
                                            np.abs(skewed.sum(1) - a).sum(),
                                            np.abs(skewed.sum(0) - b).sum())),
                                        transport_cost=float(np.sum(skewed * cost))),
                   cost, a, b), True)
        expect("sinkhorn session mass 1.01",
               checks.check_sinkhorn_session(plan * 1.01, result, cost, a, b), True)

        features = out / "features"
        ranking = checks.read_json(features / "ranking_frot.json")
        summary = checks.read_json(features / "rankings.json")
        headers, rows = checks.read_selected(features)
        expect("features real output",
               checks.check_features_session(ranking, summary, headers, rows), False)
        scaled = with_changes(ranking, importances=[v * 1.01 for v in ranking["importances"]])
        expect("features importances off the simplex",
               checks.check_features_session(scaled, summary, headers, rows), True)
        swapped = [h[:] for h in headers]
        swapped[0][0], swapped[0][1] = swapped[0][1], swapped[0][0]
        expect("features selected columns swapped",
               checks.check_features_session(ranking, summary, swapped, rows), True)
        expect("features selected rows dropped",
               checks.check_features_session(ranking, summary, headers,
                                             [rows[0][1:], rows[1]]), True)
        expect("top-2 real ranking", [] if checks.top2_is_informative(ranking) else ["miss"],
               False)
        wrong = with_changes(ranking, order=[ranking["order"][0], 7] + list(range(8, 20)))
        expect("top-2 wrong ranking", [] if checks.top2_is_informative(wrong) else ["miss"],
               True)
        expect("hit rate 19/20", checks.check_hit_rate(19, 20), False)
        expect("hit rate 18/20", checks.check_hit_rate(18, 20), True)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def main() -> int:
    warnings.simplefilter("ignore", RuntimeWarning)
    for test in (test_frank_wolfe, test_distances, test_cli_session):
        test()
    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest:", "FAILED" if failures else "ok")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
