"""The benchmark tracer patches frot functions by module and name; every
name it lists must exist, so that a rename fails here rather than in a
traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import numpy as np
import pytest

import frot.minmax

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = _load_tracing()


@pytest.mark.parametrize(
    "layer, module_name, attr",
    [(layer, mod, attr) for layer, sites in tracing.HOOKS.items() for mod, attr in sites],
)
def test_hooked_function_exists(layer, module_name, attr):
    module = importlib.import_module(module_name)
    assert callable(getattr(module, attr, None)), (
        f"{layer} hook {module_name}.{attr} does not resolve"
    )


def test_plan_hook_is_a_classmethod():
    module_name, cls_name, attr = tracing.PLAN_HOOK
    cls = getattr(importlib.import_module(module_name), cls_name)
    assert isinstance(cls.__dict__.get(attr), classmethod)


def test_frot_lp_solve_calls_the_hooked_solve_lp_once(monkeypatch):
    """The simplex layer is counted at ``frot.minmax.solve_lp``; if the
    epigraph LP stopped calling it there, the traced ``simplex.*`` metrics
    would read 0 without any hook failing to resolve."""
    calls = []
    real = frot.minmax.solve_lp

    def counting(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(frot.minmax, "solve_lp", counting)
    rng = np.random.default_rng(0)
    uniform = np.full(4, 0.25)
    frot.minmax.frot_lp_solve(rng.uniform(size=(2, 4, 4)), uniform, uniform)
    assert len(calls) == 1
