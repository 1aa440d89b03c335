"""Digests of the outputs whose bytes a refactor must keep, as held in tests/golden.json.

In a temporary directory: two short ``fairmi train`` runs on one synthetic
CSV, one standardized and one with ``--no-standardize``; ``fairmi eval
--truth-col`` of each checkpoint on its training file and on a held-out
file; and ``fairmi metrics --truth-col`` on a seeded partition. Prints the
sha256 of each training log, checkpoint and report, with the Python and
numpy versions they were taken with. BLAS runs one thread, so the thread
count cannot change a bit.

    python scripts/golden_digests.py            # print the digests as JSON
    python scripts/golden_digests.py --write    # rewrite tests/golden.json

A change that alters these bytes on purpose reruns ``--write`` and names
every changed digest.
"""

import os

# before numpy loads its BLAS
os.environ["OPENBLAS_NUM_THREADS"] = os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "golden.json"
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from fairmi import cli  # noqa: E402

SPEC = {"classes": 3, "groups": 2, "per_cell_count": 50, "class_sep": 8.0,
        "group_shift": 6.0, "dim": 16, "noise_sd": 1.0, "seed": 1}
CONFIG = {"k": 3, "warmup_epochs": 2, "max_epochs": 6, "seed": 1}


def _fairmi(*argv):
    if cli.run([str(a) for a in argv]) != 0:
        raise SystemExit(f"fairmi {' '.join(map(str, argv))} failed")


def _write_partition(path, n=2000, seed=7):
    """Predicted, group and true labels; the group and truth cells are strings."""
    rng = np.random.default_rng(seed)
    truth = rng.integers(0, 4, size=n)
    pred = np.where(rng.random(n) < 0.8, truth, rng.integers(0, 4, size=n))
    groups = rng.integers(0, 3, size=n)
    with open(path, "w") as fh:
        fh.write("pred,group,truth\n")
        fh.writelines(f"{p},g{g},c{t}\n" for p, g, t in zip(pred, groups, truth))


def digests() -> dict:
    """sha256 of every output, keyed by its path under the run directory."""
    with tempfile.TemporaryDirectory() as tmp:
        work = Path(tmp)
        (work / "spec.json").write_text(json.dumps(SPEC))
        (work / "heldout_spec.json").write_text(json.dumps(dict(SPEC, per_cell_count=80, seed=2)))
        (work / "config.json").write_text(json.dumps(CONFIG))
        for name in ("train", "heldout"):
            spec = "spec.json" if name == "train" else "heldout_spec.json"
            _fairmi("synth", "--spec", work / spec, "--out", work / f"{name}.csv")
        outputs = []
        for run, flags in (("standardized", []), ("raw", ["--no-standardize"])):
            _fairmi("train", "--data", work / "train.csv", "--config", work / "config.json",
                    "--truth-col", "label", "--out-dir", work / run, *flags)
            outputs += [f"{run}/training_log.csv", f"{run}/checkpoint.bin"]
            for scored in ("train", "heldout"):
                report = f"{run}/eval_{scored}.json"
                _fairmi("eval", "--data", work / f"{scored}.csv", "--config", work / "config.json",
                        "--truth-col", "label", "--checkpoint", work / run / "checkpoint.bin",
                        "--report", work / report)
                outputs.append(report)
        _write_partition(work / "partition.csv")
        _fairmi("metrics", "--pred", work / "partition.csv", "--groups-col", "group",
                "--truth-col", "truth", "--report", work / "metrics.json")
        outputs.append("metrics.json")
        return {name: hashlib.sha256((work / name).read_bytes()).hexdigest() for name in outputs}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--write", action="store_true", help=f"rewrite {GOLDEN.relative_to(ROOT)}")
    args = ap.parse_args(argv)
    record = {"python": platform.python_version(), "numpy": np.__version__, "digests": digests()}
    text = json.dumps(record, indent=2) + "\n"
    if args.write:
        GOLDEN.write_text(text)
    else:
        sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main())
