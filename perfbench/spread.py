"""Run-to-run spread of the end-to-end metrics, as a benchmark check computes it.

    python3 perfbench/spread.py --seeds 301-310
    python3 perfbench/spread.py --workloads score_heldout --seeds 301-305 --seconds 20
    python3 perfbench/spread.py --seeds 301-310 --write perfbench/baseline.json

Runs ``run.py --trace 0`` once per workload and seed, one process at a time,
and prints for each metric the median of the runs and the spread: the
distance between the first and third quartile (``statistics.quantiles``,
n=4) as a share of the median, next to a third of the metric's bound in
``BENCHMARK.json``. ``--write`` also makes one traced run per workload and
stores all of it, with the machine record, as the baseline file.
"""

import argparse
import json
import statistics
import subprocess
import sys
from datetime import date
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def parse_seeds(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_once(workload, seed, seconds, trace):
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr[-4000:])
        raise SystemExit(f"{workload} seed {seed} --trace {trace} exited with {proc.returncode}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: {result['failed']} of {result['attempted']} failed")
    machine = json.loads(lines[0].split(" ", 1)[1])
    return result, machine


def summary(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0}


def main(argv=None):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seeds", default="301-310", help="e.g. 301-310 or 1,5,9")
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--write", help="write the baseline JSON here")
    args = parser.parse_args(argv)
    seeds = parse_seeds(args.seeds)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    out = {"end_to_end": {}, "per_layer": {}}
    machine = None
    worst = 0.0
    for workload in args.workloads.split(","):
        runs = {}
        for seed in seeds:
            result, machine = run_once(workload, seed, args.seconds, 0)
            for name, m in result["metrics"].items():
                runs.setdefault(name, []).append(m["value"])
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k} {m['value']:.4g}" for k, m in result["metrics"].items()), flush=True)
        metrics = {}
        print(f"\n{workload}: {len(seeds)} runs of {args.seconds:g} s")
        print(f"  {'metric':16s}{'median':>12s}{'spread':>9s}{'bound/3':>9s}")
        for name, values in runs.items():
            s = metrics[name] = summary(values)
            flag = "" if name == "setup_s" or s["spread"] <= bounds[name] / 3 else "  above a third"
            if name != "setup_s":
                worst = max(worst, s["spread"] / bounds[name])
            print(f"  {name:16s}{s['median']:12.5g}{s['spread']:9.3f}{bounds[name] / 3:9.3f}{flag}")
        print(flush=True)
        out["end_to_end"][workload] = {"seeds": seeds, "metrics": metrics}
        if args.write:
            traced, _ = run_once(workload, seeds[0], args.seconds, 1)
            out["per_layer"][workload] = {
                "seed": seeds[0], "metrics": {k: m["value"] for k, m in traced["metrics"].items()}}
    print(f"largest spread as a share of its bound (setup_s aside): {worst:.2f}")
    if args.write:
        baseline = {
            "about": "Medians, quartiles and spreads of the end-to-end metrics over runs "
                     "of spread.py (one seed each), and one traced run per workload. "
                     "Timings are in reference seconds (see calibration.py).",
            "date": date.today().isoformat(),
            "machine": machine,
            "run_seconds": args.seconds,
            **out,
        }
        Path(args.write).write_text(json.dumps(baseline, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
