"""The four benchmark workloads.

Each workload builds its inputs from the run seed in ``__init__`` (counted
in set-up), names the operations of round ``r`` in ``round_ops``, runs one
operation with ``run`` through frot's public module attributes (so the
tracer's wrappers see every call), checks an output with ``check`` and the
run as a whole with ``check_run`` from the ``notes`` that ``check`` left.  Rounds cycle through a fixed pool of
instances, so repeated rounds repeat the same operations.  ``checks`` is
imported only when checking, so set-up time holds frot and the inputs alone.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import shutil
import tempfile
from pathlib import Path

import numpy as np

from frot import cli, distances, measures, minmax, synthetic


class FrankWolfe:
    """``build_grouped_cost`` plus ``frot_fw_solve`` on one
    ``synth_generate(50, 50, s)`` pair (2 informative + 8 noise dims)."""

    POOL = 16
    ROUND = 4
    N = 50

    def __init__(self, seed, subsolver):
        self.subsolver = subsolver
        self.cfg = minmax.FrotConfig(eta=1.0, fw_iters=10, subsolver=subsolver, epsilon=0.02)
        self.seeds = [seed * 1000 + i for i in range(self.POOL)]
        self.pairs = [synthetic.synth_generate(self.N, self.N, s) for s in self.seeds]
        self._lp = {}

    def round_ops(self, r):
        start = (r * self.ROUND) % self.POOL
        return list(range(start, start + self.ROUND))

    def run(self, i):
        src, dst = self.pairs[i]
        costs = measures.build_grouped_cost(src, dst, "squared_euclidean")
        sol = minmax.frot_fw_solve(src, dst, costs, self.cfg)
        return {"plan": sol.plan.matrix, "alpha": sol.alpha,
                "max_cost": sol.max_group_cost, "gaps": sol.fw_gap_trace}

    def _reference(self, i):
        if i not in self._lp:
            from checks import epigraph_lp, group_cost_stack
            src, dst = self.pairs[i]
            stack = group_cost_stack(src.points, dst.points, src.group_bounds)
            self._lp[i] = (stack, epigraph_lp(stack, src.weights, dst.weights))
        return self._lp[i]

    def check(self, i, out, notes):
        from checks import check_fw
        src, dst = self.pairs[i]
        stack, lp_star = self._reference(i)
        notes.setdefault("rel_gap_lp", []).append(out["max_cost"] / lp_star - 1.0)
        return check_fw(out, stack, src.weights, dst.weights, lp_star,
                        exact=self.subsolver == "exact_emd")

    def check_run(self, notes):
        return []

    def close(self):
        pass


class RobustDistance:
    """``frwd_distance(method="lp")`` plus ``wasserstein_p`` for one ordered
    pair of a family of uniform measures with unequal sizes, 3 groups of 2
    coordinates, at p in {1, 2}.  A round is every ordered pair of one
    family at both orders."""

    FAMILIES = 8
    SIZES = (25, 30, 35, 40)
    WIDTHS = (2, 2, 2)
    ORDERS = (1.0, 2.0)

    def __init__(self, seed):
        self.families = []
        for f in range(self.FAMILIES):
            members = []
            for i, n in enumerate(self.SIZES):
                rng = np.random.default_rng(np.random.SeedSequence((seed, f, i)))
                shift = rng.standard_normal(sum(self.WIDTHS))
                points = rng.standard_normal((n, sum(self.WIDTHS))) + shift
                members.append(measures.build_grouped_measure(points, self.WIDTHS))
            self.families.append(members)
        self._refs = {}

    def round_ops(self, r):
        f = r % self.FAMILIES
        pairs = itertools.permutations(range(len(self.SIZES)), 2)
        return [(f, i, j, p) for i, j in pairs for p in self.ORDERS]

    def run(self, op):
        f, i, j, p = op
        x, y = self.families[f][i], self.families[f][j]
        res = distances.frwd_distance(x, y, distance_kind="euclidean", p=p, method="lp")
        w = distances.wasserstein_p(x, y, "euclidean", p)
        return {"value": res.value, "plan": res.plan.matrix, "w": w}

    def check(self, op, out, notes):
        from checks import check_distance, distance_reference
        f, i, j, p = op
        x, y = self.families[f][i], self.families[f][j]
        # the optima are symmetric, so one reference serves both orders
        key = (f, min(i, j), max(i, j), p)
        if key not in self._refs:
            lo, hi = self.families[f][key[1]], self.families[f][key[2]]
            self._refs[key] = distance_reference(lo.points, hi.points, lo.group_bounds, p)
        problems = check_distance(out, self._refs[key], x.weights, y.weights)
        if not problems:
            notes.setdefault("values", {}).setdefault((f, p), {})[(i, j)] = out["value"]
        return problems

    def check_run(self, notes):
        """Symmetry and the triangle inequality per family and order.
        d(mu, mu) = 0 is not checked: ``frwd_distance(x, x, method="lp")``
        raises ``SolverFailure`` (a singular simplex basis) on some seeds."""
        from checks import check_metric_axioms
        problems = []
        for (f, p), dist in sorted(notes.get("values", {}).items()):
            problems += [f"family {f}, p={p:g}: {msg}" for msg in check_metric_axioms(dist)]
        return problems

    def close(self):
        pass


class CliSession:
    """One in-process ``frot`` CLI session in a fresh directory:
    ``synth --n 50 --m 50``, ``sinkhorn``, ``frot`` (CLI defaults) and
    ``select-features --trials 1``, all with the session's seed."""

    POOL = 16
    ROUND = 2

    def __init__(self, seed, workdir: Path):
        self.seeds = [seed * 1000 + i for i in range(self.POOL)]
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        self._lp = {}

    def round_ops(self, r):
        start = (r * self.ROUND) % self.POOL
        return [self.seeds[k] for k in range(start, start + self.ROUND)]

    @staticmethod
    def commands(seed, out: str):
        src, dst = f"{out}/source.csv", f"{out}/target.csv"
        pair = ["--source", src, "--target", dst]
        return [
            ["synth", "--n", "50", "--m", "50", "--seed", str(seed), "--out", out],
            ["sinkhorn", *pair, "--out", f"{out}/sinkhorn"],
            ["frot", *pair, "--out", f"{out}/frot"],
            ["select-features", "--trials", "1", "--seed", str(seed),
             "--out", f"{out}/features"],
        ]

    def run(self, seed):
        out = tempfile.mkdtemp(prefix=f"s{seed}-", dir=self.workdir)
        with contextlib.redirect_stdout(io.StringIO()):
            codes = [cli.main(argv) for argv in self.commands(seed, out)]
        return {"dir": out, "codes": codes}

    def check(self, seed, out, notes):
        import checks
        problems = [f"command {argv[0]} exited {code}"
                    for argv, code in zip(self.commands(seed, out["dir"]), out["codes"])
                    if code != 0]
        if problems:
            return problems
        d = Path(out["dir"])
        notes.setdefault("bytes_written", []).append(
            sum(p.stat().st_size for p in d.rglob("*") if p.is_file()))
        x, bounds, a = checks.read_measure(d / "source.csv")
        y, _, b = checks.read_measure(d / "target.csv")
        if seed not in self._lp:
            stack = checks.group_cost_stack(x, y, bounds)
            self._lp[seed] = (stack, checks.epigraph_lp(stack, a, b))
        stack, lp_star = self._lp[seed]

        frot_result = checks.read_json(d / "frot" / "result.json")
        problems += checks.check_frot_session(checks.read_plan(d / "frot" / "plan.csv"),
                                              frot_result, stack, a, b, lp_star)
        notes.setdefault("rel_gap_lp", []).append(frot_result["max_group_cost"] / lp_star - 1)
        problems += checks.check_sinkhorn_session(
            checks.read_plan(d / "sinkhorn" / "plan.csv"),
            checks.read_json(d / "sinkhorn" / "result.json"),
            stack.sum(axis=0), a, b)

        ranking = checks.read_json(d / "features" / "ranking_frot.json")
        problems += checks.check_features_session(
            ranking, checks.read_json(d / "features" / "rankings.json"),
            *checks.read_selected(d / "features"))
        notes["hits"] = notes.get("hits", 0) + int(checks.top2_is_informative(ranking))
        notes["sessions"] = notes.get("sessions", 0) + 1
        return problems

    def check_run(self, notes):
        from checks import check_hit_rate
        return check_hit_rate(notes.get("hits", 0), notes.get("sessions", 0))

    def close(self):
        shutil.rmtree(self.workdir, ignore_errors=True)


def build(name, seed, workdir: Path):
    if name == "fw_entropic":
        return FrankWolfe(seed, "sinkhorn")
    if name == "fw_exact":
        return FrankWolfe(seed, "exact_emd")
    if name == "robust_distance":
        return RobustDistance(seed)
    if name == "cli_session":
        return CliSession(seed, workdir)
    raise ValueError(f"unknown workload {name!r}")
