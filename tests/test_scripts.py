"""Smoke runs of the experiment scripts at tiny sizes."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("geometry,betas,epochs", [
    ("group-dominated", "0.0", "12"),
    # 21 epochs: one past the default 20 warmup epochs, so the cluster terms run
    ("canonical", "0.2,0.0", "21"),
], ids=["group-dominated", "canonical"])
def test_fairness_sweep_runs(geometry, betas, epochs, capsys):
    main = runpy.run_path(str(SCRIPTS / "fairness_sweep.py"))["main"]
    assert main(["--geometry", geometry, "--seeds", "1", "--betas", betas, "--epochs", epochs]) == 0
    out = capsys.readouterr().out
    assert "mnce" in out
    # the delta line is printed only when exactly two weights are given
    assert ("mean mnce delta" in out) == ("," in betas)


def test_every_mutant_snippet_occurs_once_in_its_file():
    """The mutation table still matches the code; the mutants themselves run in scripts/mutants.py only."""
    mutants = runpy.run_path(str(SCRIPTS / "mutants.py"))["MUTANTS"]
    root = SCRIPTS.parent
    for name, (file, snippet, replacement, tests) in mutants.items():
        assert (root / file).read_text(encoding="utf-8").count(snippet) == 1, name
        assert replacement != snippet and tests and all((root / t).is_file() for t in tests), name
