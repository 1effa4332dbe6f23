"""Command-line front end.

Subcommands cover the solver primitives (sinkhorn, emd, frot, frwd), the
feature-selection pipeline, synthetic data generation, and the seeded
experiment runners.  Each subcommand accepts only the flags it reads.  For
the ones that call an experiment runner (select-features, synth,
experiment), a JSON config file passed with --config overrides any flag it
names.  Exit codes: 0 success, 2 validation or file error, 1 solver
failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

import numpy as np

from .distances import GROUND_METRICS, frwd_distance
from . import experiments
from .experiments import SCENARIOS, emit_synthetic_pair, run_experiment
from .feature_selection import _descending_order
from .measures import (TransportPlan, build_grouped_cost, load_measure_csv,
                       load_measure_json, write_json, write_plan_csv)
from .minmax import SUBSOLVERS, FrotConfig, frot_fw_solve, frot_lp_solve, round_to_polytope
from .solvers import SinkhornConfig, SolverFailure, emd_exact_solve, sinkhorn_solve

EXIT_OK = 0
EXIT_SOLVER_FAILURE = 1
EXIT_VALIDATION = 2


def _load_measure(path: str):
    if Path(path).suffix == ".json":
        return load_measure_json(path)
    return load_measure_csv(path)


def _load_pair(args):
    src = _load_measure(args.source)
    dst = _load_measure(args.target)
    costs = build_grouped_cost(src, dst, args.cost)
    return src, dst, costs


def cmd_sinkhorn(args) -> int:
    src, dst, costs = _load_pair(args)
    cfg = SinkhornConfig(epsilon=args.epsilon, t_max=args.iters)
    C = costs.total()
    result = sinkhorn_solve(src.weights, dst.weights, C, cfg)
    # the written plan is rounded onto the marginal polytope, so it is a
    # coupling even when the solve stopped short; the solve's own residual
    # is recorded beside the written plan's
    plan = TransportPlan.from_matrix(
        round_to_polytope(result.plan.matrix, src.weights, dst.weights),
        src.weights, dst.weights)
    out = Path(args.out)
    write_plan_csv(out / "plan.csv", plan.matrix)
    write_json(out / "result.json", {
        "objective": result.objective,
        "transport_cost": float(np.sum(plan.matrix * C)),
        "converged": result.converged,
        "iterations": result.iterations,
        "marginal_residual": plan.marginal_residual,
        "solve_marginal_residual": result.plan.marginal_residual,
    })
    print(f"sinkhorn: objective {result.objective:.6g}, "
          f"solve residual {result.plan.marginal_residual:.3e}, "
          f"converged {result.converged}")
    return EXIT_OK


def cmd_emd(args) -> int:
    src, dst, costs = _load_pair(args)
    result = emd_exact_solve(src.weights, dst.weights, costs.total())
    out = Path(args.out)
    write_plan_csv(out / "plan.csv", result.plan.matrix)
    write_json(out / "result.json", {
        "objective": result.objective,
        "marginal_residual": result.plan.marginal_residual,
    })
    print(f"emd: objective {result.objective:.6g}")
    return EXIT_OK


def cmd_frot(args) -> int:
    src, dst, costs = _load_pair(args)
    out = Path(args.out)
    if args.solver == "lp":
        lp = frot_lp_solve(costs, src.weights, dst.weights)
        write_plan_csv(out / "plan.csv", lp.plan.matrix)
        write_json(out / "result.json", {
            "objective": lp.objective,
            "solver": "lp",
        })
        print(f"frot lp: max group cost {lp.objective:.6g}")
        return EXIT_OK
    cfg = FrotConfig(eta=args.eta, fw_iters=args.iters, subsolver=args.solver,
                     epsilon=args.epsilon)
    sol = frot_fw_solve(src, dst, costs, cfg)
    write_plan_csv(out / "plan.csv", sol.plan.matrix)
    write_json(out / "result.json", {
        "alpha": sol.alpha.tolist(),
        "objective_trace": sol.objective_trace.tolist(),
        "fw_gap_trace": sol.fw_gap_trace.tolist(),
        "max_group_cost": sol.max_group_cost,
        "solver": f"fw-{cfg.subsolver}",
        "metadata": sol.metadata,
    })
    print(f"frot fw-{cfg.subsolver}: max group cost {sol.max_group_cost:.6g}, "
          f"alpha {np.array2string(sol.alpha, precision=4)}")
    return EXIT_OK


def cmd_frwd(args) -> int:
    src = _load_measure(args.source)
    dst = _load_measure(args.target)
    result = frwd_distance(src, dst, distance_kind=args.distance, p=args.p)
    out = Path(args.out)
    write_plan_csv(out / "plan.csv", result.plan.matrix)
    write_json(out / "result.json", {
        "value": result.value,
        "order": result.order,
        "alpha": result.alpha.tolist(),
    })
    print(f"frwd (p={args.p}): {result.value:.6g}")
    return EXIT_OK


def cmd_select_features(args) -> int:
    summary = run_experiment("feature_selection", **_settings_from_args(args))
    top_k = summary["top_k"]
    ranked = _descending_order(np.array(summary["top_k_counts"]["frot"]))[:top_k]
    print(f"select-features: top-{top_k} by robust weights across "
          f"{len(summary['trials'])} trial(s): {sorted(ranked.tolist())}")
    return EXIT_OK


def cmd_synth(args) -> int:
    # filtered by the experiments module's own function, since the name
    # called below may be a (*args, **kwargs) wrapper around it
    settings = experiments.settings_read_by(experiments.emit_synthetic_pair,
                                            _settings_from_args(args))
    info = emit_synthetic_pair(**settings)
    print(f"synth: wrote {info['source']} and {info['target']} "
          f"({info['n']} x {info['m']} points)")
    return EXIT_OK


def cmd_experiment(args) -> int:
    settings = _settings_from_args(args)
    run_experiment(args.scenario, **settings)
    print(f"experiment {args.scenario}: results in {settings['out_dir']}")
    return EXIT_OK


def _settings_from_args(args) -> dict:
    """The experiment settings the flags give, then those the --config file
    names; flags left at ``None`` are left out, so the runner's default
    applies."""
    settings = {"seed": args.seed, "out_dir": args.out}
    for attr, key in (("eta", "eta"), ("epsilon", "epsilon"), ("iters", "fw_iters"),
                      ("n", "n"), ("m", "m"), ("trials", "trials"),
                      ("top_k", "top_k"), ("data", "data_path"),
                      ("label_col", "label_col")):
        if getattr(args, attr, None) is not None:
            settings[key] = getattr(args, attr)
    if args.config:
        with open(args.config) as fh:
            config = json.load(fh)
        if not isinstance(config, dict):
            raise ValueError(f"{args.config}: a config must be a JSON object")
        settings.update(config)
    return settings


#: flags shared by several subcommands; each subcommand takes only the ones
#: it reads, and every one takes --out
_SHARED_FLAGS = {
    "--eta": dict(type=float, default=1.0, help="group-weight smoothing strength"),
    "--epsilon": dict(type=float, default=0.02, help="entropic regularization"),
    "--iters": dict(type=int, default=10,
                    help="iteration budget (Frank-Wolfe or Sinkhorn sweeps)"),
    "--seed": dict(type=int, default=0),
    "--config": dict(default=None, help="JSON config; values named there override flags"),
    "--out": dict(default="results", help="output directory"),
}

#: the flags of the subcommands that call an experiment runner; they default
#: --epsilon and --iters to None, so the runner's default applies
_SPEC_FLAGS = ("--eta", "--epsilon", "--iters", "--seed", "--config")


def _add_shared(parser: argparse.ArgumentParser, *flags: str) -> None:
    for flag in (*flags, "--out"):
        parser.add_argument(flag, **_SHARED_FLAGS[flag])


def _add_pair_inputs(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--source", required=True, help="source measure (CSV or JSON)")
    parser.add_argument("--target", required=True, help="target measure (CSV or JSON)")
    parser.add_argument("--cost", default="squared_euclidean",
                        help="cost kind for the group matrices")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once per process: ``parse_args`` returns a fresh
    namespace on every call, and nothing changes the parser once built."""
    parser = argparse.ArgumentParser(
        prog="frot",
        description="Feature-robust optimal transport toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("sinkhorn", help="entropic OT between two measures")
    _add_pair_inputs(p)
    _add_shared(p, "--epsilon", "--iters")
    p.set_defaults(func=cmd_sinkhorn, iters=1000)

    p = sub.add_parser("emd", help="exact OT between two measures")
    _add_pair_inputs(p)
    _add_shared(p)
    p.set_defaults(func=cmd_emd)

    p = sub.add_parser("frot", help="group-robust min-max transport")
    _add_pair_inputs(p)
    _add_shared(p, "--eta", "--epsilon", "--iters")
    p.add_argument("--solver", choices=(*SUBSOLVERS, "lp"),
                   default="exact_emd", help="subproblem solver, or exact LP")
    p.set_defaults(func=cmd_frot)

    p = sub.add_parser("frwd", help="feature-robust Wasserstein distance")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--p", type=float, default=2.0, help="distance order")
    p.add_argument("--distance", choices=GROUND_METRICS, default="euclidean")
    _add_shared(p)
    p.set_defaults(func=cmd_frwd)

    p = sub.add_parser("select-features", help="rank and select features")
    p.add_argument("--data", default=None,
                   help="labeled CSV (default: built-in synthetic data)")
    p.add_argument("--label-col", dest="label_col", default=None,
                   help="label column name (default: last column)")
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    _add_shared(p, *_SPEC_FLAGS)
    p.set_defaults(func=cmd_select_features, epsilon=None, iters=None)

    p = sub.add_parser("synth", help="generate the synthetic measure pair")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    _add_shared(p, "--seed", "--config")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("experiment", help="run a seeded experiment scenario")
    p.add_argument("--scenario", required=True, choices=SCENARIOS)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--top-k", dest="top_k", type=int, default=None)
    _add_shared(p, *_SPEC_FLAGS)
    p.set_defaults(func=cmd_experiment, epsilon=None, iters=None)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except SolverFailure as exc:
        print(f"solver failure: {exc}", file=sys.stderr)
        return EXIT_SOLVER_FAILURE


if __name__ == "__main__":
    sys.exit(main())
