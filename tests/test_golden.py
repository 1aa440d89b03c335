"""Byte identity against committed digests: training logs, checkpoints and reports.

``scripts/golden_digests.py`` runs short ``fairmi train``, ``eval`` and
``metrics`` calls in a fresh process with one BLAS thread. A change that
alters these bytes on purpose reruns it with ``--write`` and names every
changed digest.
"""

import json
import os
import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
SCRIPT = ROOT / "scripts" / "golden_digests.py"
GOLDEN = Path(__file__).resolve().parent / "golden.json"


def test_outputs_match_the_committed_digests():
    golden = json.loads(GOLDEN.read_text())
    taken = (golden["python"], golden["numpy"])
    here = (platform.python_version(), np.__version__)
    if here != taken:
        pytest.fail(f"{GOLDEN.name} was taken with Python {taken[0]} and numpy {taken[1]}, and this is "
                    f"Python {here[0]} and numpy {here[1]}: check the outputs on the old versions, "
                    f"then rerun {SCRIPT.name} --write")
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1")
    run = subprocess.run([sys.executable, str(SCRIPT)], env=env, capture_output=True, text=True)
    assert run.returncode == 0, run.stderr
    got = json.loads(run.stdout)
    assert (got["python"], got["numpy"]) == here
    assert got["digests"] == golden["digests"]
