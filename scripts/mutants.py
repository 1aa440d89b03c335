"""Mutation check: does the test suite fail when the code it guards is broken?

Each mutant swaps one exact snippet of a source file for a broken form, in
a fresh temporary copy of the repository, never in the working tree, and
runs the test files that must fail on it (pytest stops at the first
failure). A mutant is killed when they fail and survives when they pass.
One line per mutant gives the verdict and the time taken; the exit status
is 1 when any mutant survives or its run errs.

    python scripts/mutants.py

A snippet must occur exactly once in its file; tests/test_scripts.py
checks that, so a table that no longer matches the code fails the tests.
Stdlib only.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# name -> (file, snippet, replacement, test files that must fail)
MUTANTS = {
    # the +0.0 clamp of an information quantity kept as max(), which keeps -0.0
    "at-least-zero-keeps-minus-zero": (
        "src/fairmi/objectives.py", "return v if v > 0.0 else 0.0", "return max(v, 0.0)",
        ("tests/test_objectives.py",)),
    # nmi's quotient can round to 1.0000000000000002 on identical labelings
    "nmi-unclamped": (
        "src/fairmi/metrics.py", "return float(min(max(value, 0.0), 1.0))", "return float(value)",
        ("tests/test_metrics.py",)),
    # a checkpoint read one byte short of the file's end reaches struct and numpy unchecked
    "cursor-need-off-by-one": (
        "src/fairmi/model.py", "if len(self.blob) - self.at < size:", "if len(self.blob) - self.at < size - 1:",
        ("tests/test_model.py",)),
    # a value of the wrong type printed without `_shown`, so the string "2" reads as the number 2; `!r`
    # in its place differs only on numpy 2, whose repr of np.float64(2.5) is "np.float64(2.5)"
    "check-number-plain": (
        "src/fairmi/data.py", "'a finite number'}, got {_shown(value)}\")", "'a finite number'}, got {value}\")",
        ("tests/test_data.py",)),
    # a value equal to its least bound is refused, e.g. seed 0 or batch size 1
    "check-number-least-exclusive": (
        "src/fairmi/data.py", "if least is not None and value < least:", "if least is not None and value <= least:",
        ("tests/test_data.py",)),
    # a row selected twice passes back one of its gradients instead of their sum
    "select-rows-plain-assignment": (
        "src/fairmi/autodiff.py", "np.add.at(total, node.indices, g)", "total[node.indices] = g",
        ("tests/test_autodiff.py",)),
    # a matrix with a NaN or an inf cell passes the array rule
    "check-array-no-finite-check": (
        "src/fairmi/data.py", "if not integer and not np.isfinite(m).all():", "if False:",
        ("tests/test_data.py",)),
    # an array of the wrong shape passes the array rule, e.g. a warm start of the wrong k
    "check-array-no-shape-check": (
        "src/fairmi/data.py", "m.shape != tuple(w or n for n, w in zip(m.shape, shape))", "False",
        ("tests/test_clustering.py",)),
    # bools pass as integers: [True, False] counts as the ids [1, 0]
    "check-array-bools-as-integers": (
        "src/fairmi/data.py", "np.issubdtype(arr.dtype, np.integer) if integer", "arr.dtype.kind in 'biu' if integer",
        ("tests/test_data.py",)),
    # the least bound is skipped, so negative ids and counts pass
    "check-array-no-least-bound": (
        "src/fairmi/data.py", "if least is not None and m.min() < least:", "if False:",
        ("tests/test_data.py",)),
    # ModelParams keeps the array it was given, so a list or a float32 array is stored as such
    "params-keep-given-arrays": (
        "src/fairmi/model.py", "{name: check_array(self.arrays[name], name, ModelError, shape)",
        "{name: (check_array(self.arrays[name], name, ModelError, shape), self.arrays[name])[1]",
        ("tests/test_model.py",)),
    # the number rule compares with its bound before it knows the value is a number, so f_beta's
    # beta "2" or None raises a bare TypeError
    "check-number-bound-before-type": (
        "src/fairmi/data.py", "    kind = numbers.Integral if integer else numbers.Real\n",
        "    kind = numbers.Integral if integer else numbers.Real\n"
        "    if least is not None and value < least:\n        raise error(f\"{name} must be >= {least}\")\n",
        ("tests/test_metrics.py",)),
    # the loss takes any weight: a string fails inside the graph, a NaN as a nameless scale factor
    "total-loss-unchecked-weights": (
        "src/fairmi/objectives.py",
        '    check_number(alpha, "alpha", ObjectiveError, least=0)\n'
        '    check_number(beta_fair, "beta_fair", ObjectiveError, least=0)\n', "",
        ("tests/test_objectives.py",)),
    # each epoch's k-means starts afresh instead of from the centers of the epoch before
    "measure-ignores-init": (
        "src/fairmi/trainer.py", "seed=(cfg.seed, epoch, 0xD1A6), init=centers)", "seed=(cfg.seed, epoch, 0xD1A6))",
        ("tests/test_trainer.py", "tests/test_golden.py")),
    # each epoch's k-means is a fresh 10-restart one in place of the warm start
    "measure-restarts-afresh": (
        "src/fairmi/trainer.py", "seed=(cfg.seed, epoch, 0xD1A6), init=centers)",
        "seed=(cfg.seed, epoch, 0xD1A6), restarts=10)",
        ("tests/test_trainer.py", "tests/test_golden.py")),
    # training and scoring keep the initial centers: the ones each measurement returns are dropped
    "train-on-initial-centers": (
        "src/fairmi/trainer.py", "mi, cmi, extras, centers = _measure(", "mi, cmi, extras, _ = _measure(",
        ("tests/test_trainer.py", "tests/test_golden.py")),
    # the last of the k-means runs wins a tie of inertia, not the warm start
    "kmeans-last-run-wins-a-tie": (
        "src/fairmi/clustering.py", "min(runs, key=lambda run: run[2])",
        "min(reversed(list(runs)), key=lambda run: run[2])",
        ("tests/test_clustering.py",)),
    # the old re-seed rule: an empty cluster may take the only member of another, which then empties
    "reseed-takes-a-singleton": (
        "src/fairmi/clustering.py", "np.where(counts[labels] > 1, point_d2, -1.0)",
        "np.where(counts[labels] > 0, point_d2, -1.0)",
        ("tests/test_clustering.py",)),
}


def mutate(tree: Path, file: str, snippet: str, replacement: str):
    """Replace the one occurrence of ``snippet`` in ``tree / file``."""
    path = tree / file
    text = path.read_text(encoding="utf-8")
    if text.count(snippet) != 1:
        raise SystemExit(f"{file}: the snippet {snippet!r} occurs {text.count(snippet)} times, not once")
    path.write_text(text.replace(snippet, replacement), encoding="utf-8")


def run(name: str) -> str:
    """The verdict on one mutant: killed, survived, or the pytest exit status it erred with."""
    file, snippet, replacement, tests = MUTANTS[name]
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache",
                                                                   ".hypothesis"))
        mutate(tree, file, snippet, replacement)
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
        status = subprocess.run([sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests],
                                cwd=tree, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL).returncode
    return {0: "survived", 1: "killed"}.get(status, f"error (pytest exit {status})")


def main() -> int:
    verdicts = []
    for name in MUTANTS:
        start = time.perf_counter()
        verdicts.append(run(name))
        print(f"{verdicts[-1]:<9} {name:<32} {time.perf_counter() - start:5.1f} s", flush=True)
    return 0 if set(verdicts) <= {"killed"} else 1


if __name__ == "__main__":
    sys.exit(main())
