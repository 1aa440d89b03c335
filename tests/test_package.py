"""The package's lazy export table, the names the benchmark relies on, and
source-wide rules read off the syntax tree."""

import ast
import importlib
import math
import runpy
from pathlib import Path

import fairmi
from fairmi import model

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
SRC_FILES = sorted(Path(fairmi.__file__).resolve().parent.glob("*.py"))


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


def _imports_autodiff(node):
    if isinstance(node, ast.Import):
        return any(alias.name == "fairmi.autodiff" for alias in node.names)
    if isinstance(node, ast.ImportFrom):
        module = ("." * node.level) + (node.module or "")
        if module in ("fairmi.autodiff", ".autodiff"):
            return True
        return module in ("fairmi", ".") and any(alias.name == "autodiff" for alias in node.names)
    return False


def test_the_guard_epsilon_and_its_import_have_one_home():
    """1e-12 is written only in autodiff, and no function imports autodiff late."""
    assert "autodiff.py" in {path.name for path in SRC_FILES}
    for path in SRC_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "autodiff.py":
            literals = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                        and type(node.value) is float and node.value == 1e-12]
            assert not literals, f"{path.name} writes 1e-12 on lines {literals}"
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late = [node.lineno for node in ast.walk(func) if _imports_autodiff(node)]
                assert not late, f"{path.name}: {func.name} imports fairmi.autodiff on lines {late}"
