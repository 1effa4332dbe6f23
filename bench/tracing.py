"""Spans around the calls into each frot layer, recorded from outside the
program.

``Tracer.install`` replaces the module attributes through which frot calls
its layers (``frot.minmax.sinkhorn_solve``, ``frot.minmax.solve_lp``,
``frot.distances.emd_exact_solve``, ...) with wrappers that record one span
per call: layer name, start, end, parent span and the operation it belongs
to.  ``Tracer.uninstall`` puts the originals back, so untraced rounds run
the untouched program.  Spans stay in memory until the run writes them out.
"""

from __future__ import annotations

import importlib
import json
import time
from collections import defaultdict

# Every attribute listed here is looked up by the program at call time, so
# replacing it routes that call site through a wrapper.  A function imported
# by name into several modules has one entry per importing module.
HOOKS = {
    "cli": [("frot.cli", "main")],
    "experiments": [("frot.cli", "run_experiment"), ("frot.cli", "emit_synthetic_pair")],
    "synthetic": [("frot.experiments", "synth_generate"),
                  ("frot.experiments", "labeled_synthetic")],
    "features": [("frot.experiments", "frot_feature_importance"),
                 ("frot.experiments", "baseline_rank"),
                 ("frot.experiments", "select_top_k")],
    "io": [("frot.cli", "write_json"), ("frot.cli", "write_plan_csv"),
           ("frot.cli", "load_measure_csv"), ("frot.cli", "load_measure_json"),
           ("frot.experiments", "write_json"), ("frot.experiments", "write_plan_csv"),
           ("frot.experiments", "save_measure_csv"),
           ("frot.experiments", "load_measure_csv")],
    "distances": [("frot.distances", "frwd_distance"), ("frot.distances", "wasserstein_p"),
                  ("frot.cli", "frwd_distance")],
    "lp": [("frot.distances", "frot_lp_solve"), ("frot.cli", "frot_lp_solve"),
           ("frot.experiments", "frot_lp_solve")],
    "simplex": [("frot.minmax", "solve_lp")],
    "fw": [("frot.minmax", "frot_fw_solve"), ("frot.distances", "frot_fw_solve"),
           ("frot.feature_selection", "frot_fw_solve"), ("frot.cli", "frot_fw_solve"),
           ("frot.experiments", "frot_fw_solve")],
    "sinkhorn": [("frot.minmax", "sinkhorn_solve"), ("frot.cli", "sinkhorn_solve"),
                 ("frot.experiments", "sinkhorn_solve")],
    "emd": [("frot.minmax", "emd_exact_solve"), ("frot.distances", "emd_exact_solve"),
            ("frot.feature_selection", "emd_exact_solve"), ("frot.cli", "emd_exact_solve")],
    "cost": [("frot.measures", "build_grouped_cost"), ("frot.cli", "build_grouped_cost"),
             ("frot.feature_selection", "build_grouped_cost"),
             ("frot.experiments", "build_grouped_cost")],
}

#: the plan layer is a classmethod, wrapped on its class
PLAN_HOOK = ("frot.measures", "TransportPlan", "from_matrix")

LAYERS = tuple(HOOKS) + ("plan", "op")


def _count_sinkhorn(result, counts):
    counts["sinkhorn.sweeps"] += result.iterations
    counts["sinkhorn.converged"] += int(result.converged)
    counts["sinkhorn.residual_max"] = max(counts["sinkhorn.residual_max"],
                                          float(result.plan.marginal_residual))


def _count_simplex(result, counts):
    counts["simplex.pivots"] += result.iterations


def _count_fw(result, counts):
    counts["fw.iterations"] += result.metadata["iterations"]


# counts read off the layer's returned result, outside its span
COUNTERS = {"sinkhorn": _count_sinkhorn, "simplex": _count_simplex, "fw": _count_fw}


class Tracer:
    """Records spans ``[layer, start, end, parent, op]`` while installed."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(float)
        self._stack = []
        self._saved = []
        self._op = -1

    def _wrap(self, layer, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        counter = COUNTERS.get(layer)

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append([layer, clock(), 0.0, stack[-1] if stack else -1, self._op])
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[index][2] = clock()
            if counter is not None:
                counter(result, self.counts)
            return result

        return traced

    def install(self):
        for layer, sites in HOOKS.items():
            for module_name, attr in sites:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
                self._saved.append((module, attr, original))
                setattr(module, attr, self._wrap(layer, original))
        module_name, cls_name, attr = PLAN_HOOK
        cls = getattr(importlib.import_module(module_name), cls_name)
        original = cls.__dict__[attr]
        self._saved.append((cls, attr, original))
        setattr(cls, attr, classmethod(self._wrap("plan", original.__func__)))

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    def op(self, index, fn, *args):
        """Run one benchmark operation under a root span named ``op``."""
        self._op = index
        try:
            return self._wrap("op", fn)(*args)
        finally:
            self._op = -1

    def self_times(self) -> dict:
        """Per-layer self time: span duration minus its children's spans."""
        child = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals = defaultdict(float)
        calls = defaultdict(int)
        for (layer, start, end, _, _), inner in zip(self.spans, child):
            totals[layer] += (end - start) - inner
            calls[layer] += 1
        return {layer: (calls[layer], totals[layer]) for layer in LAYERS}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"fields": ["layer", "start", "end", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
