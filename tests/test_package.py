"""The package's lazy export table, and the names the benchmark relies on."""

import importlib
import math
import runpy
from pathlib import Path

import fairmi
from fairmi import model

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def test_every_exported_name_resolves_to_its_module_attribute():
    for name in fairmi.__all__:
        module = importlib.import_module(f"fairmi.{fairmi._EXPORTS[name]}")
        assert getattr(fairmi, name) is getattr(module, name), name


def test_every_benchmark_span_names_a_function():
    """The benchmark times these functions; a missing one would fail only a traced run."""
    for module_name, func_name, *_ in runpy.run_path(str(SPANS_PY))["SPANS"]:
        module = importlib.import_module(f"fairmi.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_all_arrays_pairs_count_every_layout_parameter():
    """The benchmark counts parameters through all_arrays()."""
    dims = (6, 5, 3)
    pairs = list(model.init_params(dims, 3, seed=0).all_arrays())
    assert all(w.ndim == 2 and b.shape == (w.shape[1],) for w, b in pairs)
    assert sum(a.size for pair in pairs for a in pair) == sum(
        math.prod(shape) for _, shape in model._layout(dims, 3))
