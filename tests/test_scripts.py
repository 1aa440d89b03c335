"""Smoke runs of the experiment scripts at tiny sizes."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


@pytest.mark.parametrize("script,argv", [
    ("sweep_fairness_weight.py", ["--seeds", "1", "--betas", "0.0", "--epochs", "12"]),
    # 21 epochs: one past the default 20 warmup epochs, so the cluster terms run
    ("run_synthetic_ablation.py", ["--seeds", "1", "--betas", "0.2,0.0", "--epochs", "21"]),
])
def test_script_runs(script, argv, capsys):
    main = runpy.run_path(str(SCRIPTS / script))["main"]
    assert main(argv) == 0
    assert "mnce" in capsys.readouterr().out
