"""The package's exports, the names the benchmark relies on, and source-wide
rules read off the syntax tree."""

import argparse
import ast
import importlib
import json
import math
import re
import runpy
import sys
from dataclasses import MISSING, fields, replace
from pathlib import Path

import numpy as np
import pytest

import fairmi
from fairmi import cli, data, model, trainer

SPANS_PY = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"
PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
README = Path(__file__).resolve().parents[1] / "README.md"
SRC_FILES = sorted(Path(fairmi.__file__).resolve().parent.glob("*.py"))
# the program: the package, the benchmark and the scripts, but not the tests
PROGRAM_FILES = SRC_FILES + sorted(path for folder in ("perfbench", "scripts")
                                   for path in (Path(__file__).resolve().parents[1] / folder).glob("*.py"))


EXPORTS = [
    "Dataset", "EpochLog", "MetricsReport", "ModelParams", "SyntheticSpec",
    "TrainConfig", "accuracy", "balance", "conditional_mi", "contingency", "encode",
    "evaluate", "f_beta", "fit", "full_report", "generate_synthetic", "group_cluster_mi",
    "init_params", "kmeans", "load_checkpoint", "load_csv", "minibatches", "mnce", "nmi",
    "save_checkpoint", "soft_assign",
]


def test_every_exported_name_resolves_to_its_module_attribute():
    assert fairmi.__all__ == EXPORTS
    for name in fairmi.__all__:
        value = getattr(fairmi, name)
        assert value.__module__.startswith("fairmi."), name
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_every_benchmark_span_names_a_function():
    """The benchmark times these functions; a missing one would fail only a traced run."""
    for module_name, func_name, *_ in runpy.run_path(str(SPANS_PY))["SPANS"]:
        module = importlib.import_module(f"fairmi.{module_name}")
        assert callable(getattr(module, func_name, None)), f"{module_name}.{func_name}"


def test_a_traced_report_records_every_metrics_span():
    """full_report reaches each metric through the module, where the benchmark's wrappers sit."""
    spans = runpy.run_path(str(SPANS_PY))
    keys = {key for module_name, _, key, _ in spans["SPANS"] if module_name == "metrics"}
    tracer = spans["Tracer"]()
    tracer.install()
    try:
        ids = np.array([0, 0, 1, 1])
        tracer.modules["metrics"].full_report(ids, np.array([0, 1, 0, 1]), ids)
    finally:
        tracer.uninstall()
    assert keys and keys <= tracer.seen(), sorted(keys - tracer.seen())


def test_all_arrays_pairs_count_every_layout_parameter():
    """The benchmark counts parameters through all_arrays()."""
    dims = (6, 5, 3)
    pairs = list(model.init_params(dims, 3, seed=0).all_arrays())
    assert all(w.ndim == 2 and b.shape == (w.shape[1],) for w, b in pairs)
    assert sum(a.size for pair in pairs for a in pair) == sum(
        math.prod(shape) for _, shape in model._layout(dims, 3))


def _imported_modules(node):
    """The modules an import statement names; relative ones start with a dot."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if isinstance(node, ast.ImportFrom):
        return ["." * node.level + (node.module or "")]
    return []


def test_the_guard_epsilon_and_its_import_have_one_home():
    """1e-12 is written only in autodiff, and every import sits at a module's top."""
    assert "autodiff.py" in {path.name for path in SRC_FILES}
    late = []
    for path in SRC_FILES:
        tree = ast.parse(path.read_text(), filename=str(path))
        if path.name != "autodiff.py":
            literals = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Constant)
                        and type(node.value) is float and node.value == 1e-12]
            assert not literals, f"{path.name} writes 1e-12 on lines {literals}"
        for func in ast.walk(tree):
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                late += [(path.name, func.name, module) for node in ast.walk(func)
                         for module in _imported_modules(node)]
    assert late == []


def _asks_if_an_inverse_is_finite(node):
    """Whether ``node`` is an ``isfinite(1 / ...)`` call, the check that 1 / tau does not overflow."""
    return (_calls(node, "isfinite")
            and any(isinstance(arg, ast.BinOp) and isinstance(arg.op, ast.Div)
                    and isinstance(arg.left, ast.Constant) and arg.left.value == 1 for arg in node.args))


def test_the_temperature_overflow_check_has_one_home():
    """Only one src function asks whether 1 / tau is finite, so every caller refuses a tau alike."""
    assert _homes(_asks_if_an_inverse_is_finite) == [("data", "check_tau")]


def _homes(has_rule):
    """(module, function) of each src function with a node for which ``has_rule`` holds."""
    return [(path.stem, func.name) for path in SRC_FILES
            for func in ast.walk(ast.parse(path.read_text(), filename=str(path)))
            if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(has_rule(node) for node in ast.walk(func))]


def _calls(node, name):
    return isinstance(node, ast.Call) and getattr(node.func, "attr", getattr(node.func, "id", None)) == name


def test_the_integer_id_check_has_one_home():
    """Only ``data.check_array`` asks whether a dtype is an integer one, so a float, str or bool id
    array or count table fails alike everywhere."""
    def asks_if_integer(node):
        return _calls(node, "issubdtype") and getattr(node.args[-1], "attr", None) == "integer"

    assert _homes(asks_if_integer) == [("data", "check_array")]


def test_the_per_width_check_has_one_home():
    """Only ``data.check_widths`` loops ``check_number`` over a list it is given; the other loops
    of it run over a literal table of fields and their bounds."""
    def loops_check_number_over_a_given_list(node):
        return (isinstance(node, ast.For) and not isinstance(node.iter, ast.Tuple)
                and any(_calls(sub, "check_number") for sub in ast.walk(node)))

    assert _homes(loops_check_number_over_a_given_list) == [("data", "check_widths")]


def test_the_number_type_check_has_one_home():
    """Only ``data.check_number``, ``data.check_seed`` and ``data._shown`` ask whether a value is one
    of the ``numbers`` types, so every scalar input is refused alike, bools and non-finite reals too."""
    def names_a_number_type(node):
        return isinstance(node, ast.Attribute) and getattr(node.value, "id", None) == "numbers"

    assert _homes(names_a_number_type) == [("data", "_shown"), ("data", "check_number"), ("data", "check_seed")]


def _valid_records():
    """A valid record of each dataclass whose scalar fields hold a run's settings, with its error class."""
    spec = data.SyntheticSpec(classes=2, groups=2, per_cell_count=5, class_sep=1.0, group_shift=1.0, dim=4,
                              noise_sd=1.0, seed=0)
    return [(trainer.TrainConfig(k=3), trainer.TrainError), (spec, data.DataError)]


@pytest.mark.parametrize("record,error,field", [
    pytest.param(record, error, f, id=f"{type(record).__name__}.{f.name}")
    for record, error in _valid_records() for f in fields(record) if f.type in ("int", "float")])
@pytest.mark.parametrize("bad", ["x", True], ids=["str", "bool"])
def test_every_scalar_field_refuses_a_non_number_by_name(record, error, field, bad):
    """A field added without a rule fails here: each ``int`` and ``float`` field of the config and of
    the synthetic spec refuses a string and a bool with a message that starts with its name."""
    with pytest.raises(error) as err:
        replace(record, **{field.name: bad})
    kind = "an integer" if field.type == "int" else "a finite number"
    assert str(err.value) == f"{field.name} must be {kind}, got {bad!r}"


def test_the_float_matrix_conversion_has_one_home():
    """Only ``data.check_array`` turns a caller's array into float64, so every array is refused
    alike; ``autodiff`` converts its graphs' constants and input bindings."""
    def converts_to_float64(node):
        return _calls(node, "asarray") and any(
            keyword.arg == "dtype" and any(getattr(sub, "attr", None) == "float64" for sub in ast.walk(keyword.value))
            for keyword in node.keywords)

    assert _homes(converts_to_float64) == [("autodiff", "constant"), ("autodiff", "forward"),
                                           ("data", "check_array")]


def test_the_finite_array_check_has_one_home():
    """``np.isfinite`` is called only by ``data.check_array`` on a caller's array, ``data._parse_features``
    on a CSV's cells, and ``autodiff`` and ``trainer`` on values the program made itself; ``math.isfinite``
    checks scalars."""
    def calls_np_isfinite(node):
        return _calls(node, "isfinite") and getattr(getattr(node.func, "value", None), "id", None) != "math"

    homes = _homes(calls_np_isfinite)
    assert {module for module, _ in homes} == {"autodiff", "data", "trainer"}
    assert [home for home in homes if home[0] == "data"] == [("data", "_parse_features"), ("data", "check_array")]


def test_readme_lists_the_report_keys_in_field_order():
    """README's report-key sentence names ``MetricsReport``'s fields in order, the keys
    ``report_to_dict`` writes."""
    sentence = re.search(r"Report JSON keys, in order: (.*?), with ", README.read_text(), flags=re.S).group(1)
    assert re.findall(r"`(\w+)`", sentence) == [f.name for f in fields(fairmi.MetricsReport)]


def test_runtime_dependencies_are_exactly_the_imported_third_party_modules():
    """``[project].dependencies`` names each third-party module that src imports, and no other,
    so a runtime import cannot come back unlisted."""
    tomllib = pytest.importorskip("tomllib")
    project = tomllib.loads(PYPROJECT.read_text())["project"]
    listed = {re.match(r"[A-Za-z0-9_.-]+", req).group().lower().replace("-", "_")
              for req in project["dependencies"]}
    imported = set()
    for path in SRC_FILES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            imported.update(module.split(".")[0] for module in _imported_modules(node))
    # a relative import's first part is "", the package itself
    assert listed == imported - set(sys.stdlib_module_names) - {""}


def _names_used(node):
    """Every name, attribute and imported name ``node`` mentions, and each string constant
    that is an identifier, as the benchmark's span table names functions."""
    used = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            used.add(sub.id)
        elif isinstance(sub, ast.Attribute):
            used.add(sub.attr)
        elif isinstance(sub, ast.alias):
            used.add(sub.name.split(".")[-1])
        elif isinstance(sub, ast.Constant) and isinstance(sub.value, str) and sub.value.isidentifier():
            used.add(sub.value)
    return used


def test_every_public_function_and_class_has_a_user_outside_the_tests():
    """A public module-level function or class of src is used by another top-level statement
    of the package, the benchmark or the scripts, is the console script's entry point, or is
    exported; a test alone does not keep code alive."""
    tomllib = pytest.importorskip("tomllib")
    entry_points = {target.split(":")[1]
                    for target in tomllib.loads(PYPROJECT.read_text())["project"]["scripts"].values()}
    defined, used = [], set()
    for path in PROGRAM_FILES:
        for node in ast.parse(path.read_text(), filename=str(path)).body:
            is_def = isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            if is_def and path in SRC_FILES and not node.name.startswith("_"):
                defined.append((path.stem, node.name))
            # a definition's mentions of itself do not count
            used |= _names_used(node) - ({node.name} if is_def else set())
    assert len(defined) > 50  # the definitions were read
    kept = used | entry_points | set(fairmi.__all__)
    assert [f"{module}.{name}" for module, name in defined if name not in kept] == []


def test_readme_documents_the_checkpoint_version_the_program_writes():
    """The checkpoint layout in README and the format cannot drift apart unnoticed."""
    assert re.findall(r"u32 version \((\d+)\)", README.read_text()) == [str(model.CHECKPOINT_VERSION)]


def _subcommand_options():
    """Each subcommand's option strings, read off the parser."""
    (sub,) = [a for a in cli.build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {opt for action in p._actions for opt in action.option_strings}
            for name, p in sub.choices.items()}


def test_readme_shows_only_options_the_parser_has():
    """An option on a ``fairmi <subcommand>`` command line in README belongs to that
    subcommand, and any other option README names to some subcommand, so a flag cannot
    leave the parser while the docs still show it."""
    options = _subcommand_options()
    text = README.read_text()
    fence = re.compile(r"^```[^\n]*\n(.*?)^```", flags=re.S | re.M)
    # code lines, with shell continuations joined, then inline code spans outside the fences
    code = [line for block in fence.findall(text) for line in block.replace("\\\n", " ").splitlines()]
    code += re.findall(r"`([^`\n]+)`", fence.sub("", text))
    flag = re.compile(r"(?<![\w-])--[a-z][a-z-]*")
    shown = [(sub, opt) for piece in code
             for sub, rest in re.findall(r"\bfairmi (\w+)((?:(?!\bfairmi ).)*)", piece)
             for opt in flag.findall(rest)]
    assert ("eval", "--checkpoint") in shown  # the command lines were read
    assert [(sub, opt) for sub, opt in shown if opt not in options.get(sub, ())] == []
    assert sorted(set(flag.findall(text)) - set().union(*options.values())) == []


def test_readme_configuration_table_lists_the_config_fields_with_their_defaults():
    """README's Configuration table has one row per ``TrainConfig`` field, in declaration
    order, with the default as JSON (``required`` where there is none), so a config key
    cannot enter or leave ``TrainConfig`` while the table says otherwise."""
    section = README.read_text().split("\n## Configuration\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^\| `(\w+)` +\| ([^|]*?) +\|", section, flags=re.M)
    shown = [(key, cell if cell == "required" else json.loads(cell)) for key, cell in rows]
    assert shown == [(f.name, "required" if f.default is MISSING else json.loads(json.dumps(f.default)))
                     for f in fields(trainer.TrainConfig)]


def _resolves(dotted):
    """Whether a ``module.attr...`` path names something in the package."""
    head, *attrs = dotted.split(".")
    obj = importlib.import_module("fairmi" if head == "fairmi" else f"fairmi.{head}")
    for attr in attrs:
        if not hasattr(obj, attr):
            return False
        obj = getattr(obj, attr)
    return True


def test_readme_names_only_what_the_package_has():
    """Each ``module.attr`` README names resolves, and each name README imports from
    ``fairmi`` is exported, so a name cannot leave the package while the docs still use it."""
    text = README.read_text()
    modules = [path.stem for path in SRC_FILES if path.stem != "__init__"]
    reference = re.compile(rf"(?<![\w./-])(fairmi|{'|'.join(modules)})((?:\.\w+)+)")
    # the Layout section lists the module files themselves
    named = [m.group(0) for m in reference.finditer(text) if m.group(2) != ".py"]
    assert "clustering.TOL" in named  # the references were read
    assert [dotted for dotted in named if not _resolves(dotted)] == []
    imported = [name.strip() for line in re.findall(r"^from fairmi import (.+)$", text, flags=re.M)
                for name in line.split(",")]
    assert "evaluate" in imported
    assert sorted(set(imported) - set(fairmi.__all__)) == []
