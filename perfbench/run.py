"""fairmi benchmark: one workload per process, or all of them with ``--all``.

    python3 perfbench/run.py --workload fit_canonical --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --all --seed 1

Run from the repository root; the program is imported from ``src/``. With
``--trace 0`` the last stdout line reports the end-to-end metrics named in
``BENCHMARK.json``, timings in reference seconds (see ``calibration.py``):
``setup_s`` the median set-up, and the other timings the mean of their
samples without the fastest and slowest fifth, where a sample of
``epoch_ms.*`` is the percentile of the epochs of one fit. With
``--trace 1`` it reports the per-layer metrics. Ops run one at a time and
stop before one would end past ``--seconds`` (at least two always run).
Every set-up repetition and every op counts as an attempt; one that raises,
exits non-zero or fails an output check counts as failed.

``--all`` runs every workload untraced and then traced, each in a fresh
process, prints every metric with its unit, the failure ratio, and whether
the traced shares split the layers as ``workloads.PREDICTIONS`` says.
"""

from time import perf_counter

STARTED = perf_counter()  # set-up time counts the imports below

import os

# One BLAS thread unless the caller sets one: on two cores shared with other
# load, a second spin-waiting OpenBLAS thread turned 0.9 s metrics calls into
# 9 s ones, and that noise would swamp any change being measured.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import argparse
import importlib
import json
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
from calibration import LOOPS, REFERENCE_MS
from oracle import ReportCapture, check_report
from spans import Tracer
from workloads import PREDICTIONS, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPS = 5
# Time spent on the calibration loops before and after every set-up and op,
# as a share of that unit's wall time (the previous unit of its kind stands in
# before it has run). One loop time spreads by 20-35% between the host's fast
# and slow states, so a run needs a hundred or more of each to scale by.
CALIBRATION_SHARE = 0.05
TRIM = 0.2  # share of samples cut from each end of a trimmed mean
OP_PHASES = ("fit", "eval", "metrics")
MODULES = ("data", "autodiff", "model", "clustering", "objectives", "metrics", "trainer", "cli")


def load_program():
    """Import fairmi from this checkout's ``src/``; never from anywhere else."""
    src = ROOT / "src"
    if not (src / "fairmi" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no fairmi sources under {src}")
    sys.path.insert(0, str(src))
    program = argparse.Namespace(**{m: importlib.import_module(f"fairmi.{m}") for m in MODULES})
    if Path(program.data.__file__).resolve().parent != src / "fairmi":
        raise SystemExit(f"benchmark: fairmi imported from {program.data.__file__}, not {src}")
    return program


def machine_record():
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: v for k, v in sorted(os.environ.items()) if k.endswith("_NUM_THREADS")},
    }


@dataclass
class Unit:
    kind: str                                   # "setup" or "op"
    traced: bool
    wall_s: float = 0.0
    calibration: dict = field(default_factory=dict)  # loop name -> ms, before and after
    phases: list = field(default_factory=list)  # (phase, seconds) of each timed call
    epoch_ms: list = field(default_factory=list)  # one list of epoch times per fit
    problems: list = field(default_factory=list)


class Run:
    """State of one benchmark process: program, checks and timed units."""

    def __init__(self, program, workdir, seed, tracer, capture):
        self.program = program
        self.workdir = workdir
        self.seed = seed
        self.tracer = tracer
        self.capture = capture
        self.units = []
        self.unit = None
        self.quality = []  # (acc, mnce) of every scored report
        self.param_count = 0
        self._first = {}

    def run_unit(self, kind, traced, fn):
        unit = self.unit = Unit(kind, traced)
        same_kind = [u.wall_s for u in self.units if u.kind == kind]
        self.calibrate(unit, same_kind[-1] if same_kind else 0.0)
        self.units.append(unit)
        # spans outside timed() calls belong to set-up, or to the benchmark
        self.tracer.phase = "setup" if kind == "setup" else "bench"
        if traced:
            self.tracer.install()
        t0 = perf_counter()
        try:
            return fn()
        except Exception:  # noqa: BLE001 - an op that raises is a failed op
            if kind == "setup":
                raise
            unit.problems.append(traceback.format_exc())
        finally:
            unit.wall_s = perf_counter() - t0
            self.tracer.uninstall()
            self.calibrate(unit, unit.wall_s)
            for problem in unit.problems:
                print(f"benchmark: {kind} failed: {problem}", file=sys.stderr)

    @staticmethod
    def calibrate(unit, wall_s):
        """Run every calibration loop in turn, at least once, for CALIBRATION_SHARE of wall_s."""
        deadline = perf_counter() + CALIBRATION_SHARE * wall_s
        while True:
            for name, loop in LOOPS.items():
                unit.calibration.setdefault(name, []).append(loop())
            if perf_counter() >= deadline:
                return

    def timed(self, phase, fn, *args):
        base = self.tracer.phase
        if self.unit.kind == "op":
            self.tracer.phase = phase
        t0 = perf_counter()
        try:
            return fn(*args)
        finally:
            self.unit.phases.append((phase, perf_counter() - t0))
            self.tracer.phase = base

    def fit(self, config, dataset):
        trainer = self.program.trainer
        stamps = []
        hooks = trainer.TrainerHooks(on_epoch=lambda log: stamps.append(perf_counter()))
        params, logs = self.timed("fit", trainer.fit, config, dataset, hooks)
        first = max(config.warmup_epochs, 1)  # intervals that end after warmup
        self.unit.epoch_ms.append([1e3 * (stamps[e] - stamps[e - 1]) for e in range(first, len(stamps))])
        return params, logs

    # -- output checks; each mismatch fails the current unit --------------------

    def check_same(self, what, value):
        if self._first.setdefault(what, value) != value:
            self.unit.problems.append(f"{what} differs from the first one of this run")

    def check_log(self, logs, seed):
        path = os.path.join(self.workdir, "training_log.csv")
        self.program.trainer.write_log_csv(logs, path)
        with open(path, "rb") as fh:
            self.check_same(("training_log.csv", seed), fh.read())

    def check_exit(self, what, code):
        if code != 0:
            self.unit.problems.append(f"{what} exited with {code}")

    def check_oracle(self, what, report, pred, groups, truth):
        self.unit.problems.extend(f"{what}: {p}" for p in check_report(report, pred, groups, truth))

    def check_report_file(self, path, report):
        with open(path) as fh:
            written = json.load(fh)
        for name in ("acc", "nmi", "bal", "mnce", "mi_gc"):
            got, want = written[name], getattr(report, name)
            if got is None or abs(got - want) > 5e-7 + 1e-12:
                self.unit.problems.append(f"{path}: {name} is {got}, report has {want}")
        for name in ("n", "k", "t"):
            if written[name] != getattr(report, name):
                self.unit.problems.append(f"{path}: {name} is {written[name]}")


def _trimmed_mean(values):
    """Mean of the values without the lowest and highest ``TRIM`` share."""
    values = sorted(values)
    cut = int(len(values) * TRIM)
    return statistics.fmean(values[cut:len(values) - cut]) if values else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _percentile(values, q):
    return float(np.percentile(values, q)) if values else 0.0


def _timings(units, import_s, scale, vector_phases):
    """End-to-end timings; scale[(unit kind, loop name)] multiplies each sample.

    Phases in ``vector_phases`` are scaled by the vector loop, everything
    else (fits, epochs, set-up) by the fit loop; see calibration.py.
    """
    def loop(phase):
        return "vector" if phase in vector_phases else "fit"

    phase = defaultdict(list)
    fits, setups = [], []
    for u in units:
        for name, seconds in u.phases:
            phase[name].append(seconds * scale[(u.kind, loop(name))])
        k = scale[(u.kind, loop("fit"))]
        fits.extend([ms * k for ms in epochs] for epochs in u.epoch_ms)
        if u.kind == "setup":
            setups.append(u.wall_s * scale[("setup", loop("setup"))])
    return {
        "setup_s": (import_s * scale[("setup", loop("setup"))] + _median(setups), "s"),
        "fit_s": (_trimmed_mean(phase["fit"]), "s"),
        # per fit, so that one fit's slow stretch moves one sample, not the tail
        "epoch_ms.p50": (_trimmed_mean([_percentile(f, 50) for f in fits]), "ms"),
        # p90, not p95: of a fit's 40 timed epochs p95 lies between the 2nd and
        # 3rd slowest, too few to repeat on a noisy host; p90 between the 4th and 5th
        "epoch_ms.p90": (_trimmed_mean([_percentile(f, 90) for f in fits]), "ms"),
        "eval_s": (_trimmed_mean(phase["eval"]), "s"),
        "metrics_s": (_trimmed_mean(phase["metrics"]), "s"),
    }


def end_to_end(run, import_s, vector_phases):
    units = [u for u in run.units if not u.traced]
    setups = [u for u in units if u.kind == "setup"]
    ops = [u for u in units if u.kind == "op"]
    # Host speed also changes within a run, so set-up samples (score_heldout
    # trains there) are scaled by the loops timed around the set-ups and op
    # samples by the loops timed around the ops. A mean follows the share of
    # time the host spends slow, which a median of short loops does not.
    calibration = {(kind, loop): _trimmed_mean([c for u in group for c in u.calibration[loop]])
                   for kind, group in (("setup", setups), ("op", ops)) for loop in LOOPS}
    measured = _timings(units, import_s, defaultdict(lambda: 1.0), vector_phases)
    values = _timings(units, import_s, {k: REFERENCE_MS / v for k, v in calibration.items()},
                      vector_phases)
    counts = {name: sum(1 for u in units for p, _ in u.phases if p == name) for name in OP_PHASES}
    print(f"samples: set-ups {len(setups)}, ops {len(ops)}, timed calls {counts}, "
          f"epochs {sum(len(f) for u in units for f in u.epoch_ms)}, "
          f"calibration loops {sum(len(c) for u in units for c in u.calibration.values())}")
    print("calibration: " + ", ".join(f"{kind} {loop} {v:.4g} ms" for (kind, loop), v in calibration.items())
          + "; measured " + ", ".join(f"{k} {v:.6g} {u}" for k, (v, u) in measured.items()))
    acc, mnce = (_median(q) for q in zip(*run.quality))
    values.update({
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "acc": (acc, "ratio"),
        "mnce": (mnce, "ratio"),
    })
    return values


PER_OP_SPANS = (
    ("clustering.kmeans.refresh", ("self_s", "calls")),
    ("clustering.kmeans.restarts", ("self_s", "calls")),
    ("clustering.soft_assign", ("self_s",)),
    ("clustering.soft_assign_graph", ("self_s",)),
    ("autodiff.forward", ("self_s", "calls")),
    ("autodiff.backward", ("self_s", "calls")),
    ("trainer.adam_step", ("self_s", "calls")),
    ("trainer.fit", ("self_s",)),
    ("trainer.evaluate", ("self_s",)),
    ("model.graph_build", ("self_s",)),
    ("model.encode", ("self_s", "rows")),
    ("model.load_checkpoint", ("self_s",)),
    ("objectives.graph_build", ("self_s",)),
    ("objectives.group_cluster_mi", ("self_s", "calls")),
    ("objectives.conditional_mi", ("self_s",)),
    ("metrics.accuracy", ("self_s",)),
    ("metrics.nmi", ("self_s",)),
    ("metrics.balance", ("self_s",)),
    ("metrics.mnce", ("self_s",)),
    ("metrics.full_report", ("self_s",)),
    ("data.load_csv", ("self_s", "rows")),
    ("data.minibatches", ("self_s",)),
    ("cli.run", ("self_s",)),
)
_UNITS = {"self_s": "s", "calls": "count", "rows": "count"}


def per_layer(run):
    tracer = run.tracer
    ops = [u for u in run.units if u.kind == "op"]
    traced = ops[1::2]
    n_ops = len(traced)
    n_setups = sum(1 for u in run.units if u.traced and u.kind == "setup")

    def op_wall(u):
        return sum(s for name, s in u.phases if name in OP_PHASES)

    wall = sum(op_wall(u) for u in traced)
    values = {}
    for key, fields in PER_OP_SPANS:
        stat = tracer.totals(OP_PHASES, key)
        for f in fields:
            values[f"{key}.{f}"] = (getattr(stat, f) / n_ops, _UNITS[f])
    values["clustering.kmeans.rows"] = (
        sum(tracer.totals(OP_PHASES, f"clustering.kmeans.{k}").rows for k in ("refresh", "restarts"))
        / n_ops, "count")
    values["data.generate_synthetic.self_s"] = (
        tracer.totals(("setup",), "data.generate_synthetic").self_s / max(n_setups, 1), "s")
    epochs = tracer.totals(("fit",), "data.minibatches").calls
    values["trainer.steps_per_epoch"] = (
        tracer.totals(("fit",), "trainer.adam_step").calls / epochs if epochs else 0.0, "count")
    values["trainer.param_count"] = (run.param_count, "count")
    counts = [c for phase, *c in tracer.step_counts if phase in OP_PHASES]
    for i, (name, unit) in enumerate((("nodes_per_step", "count"),
                                      ("matmul_flops_per_step", "flop"),
                                      ("bytes_per_step", "B-computed"))):
        values[f"autodiff.{name}"] = (_median([c[i] for c in counts]), unit)
    for module in MODULES:
        values[f"{module}.share"] = (tracer.module_self_s(OP_PHASES, module) / wall, "ratio")
    eval_wall = sum(s for u in traced for name, s in u.phases if name == "eval")
    for module in ("clustering", "data"):
        values[f"eval.{module}.share"] = (tracer.module_self_s(("eval",), module) / eval_wall, "ratio")
    values["trace.op_s"] = (wall / n_ops, "s")
    values["trace.overhead"] = (
        _median([op_wall(t) / op_wall(u) for u, t in zip(ops[0::2], traced)]) - 1.0, "ratio")
    return values


def run_workload(name, seed, seconds, trace):
    program = load_program()
    import_s = perf_counter() - STARTED
    workload = WORKLOADS[name]
    print("machine: " + json.dumps(machine_record(), sort_keys=True))
    workdir = ROOT / ".perfbench_work" / f"{name}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        run = Run(program, str(workdir), seed, Tracer(), ReportCapture(program.metrics))
        for r in range(SETUP_REPS):
            state = run.run_unit("setup", trace and r % 2 == 1, lambda: workload.setup(run))
        start = perf_counter()
        n = 0
        # stop before an op that would end past the deadline
        while n < 2 or (perf_counter() - start + (1 + 2 * CALIBRATION_SHARE)
                        * _median([u.wall_s for u in run.units[SETUP_REPS:]]) <= seconds):
            # ops with the same input set must repeat exactly; a traced run
            # pairs each traced op with the untraced op before it
            input_set = n // 2 if trace else max(n - 1, 0)
            run.run_unit("op", trace and n % 2 == 1, lambda: workload.op(run, state, input_set))
            n += 1
        if trace:
            missing = sorted(workload.expected_spans - run.tracer.seen())
            if missing:
                run.unit.problems.append(f"no calls recorded for {', '.join(missing)}")
                print(f"benchmark: span coverage: no calls for {missing}", file=sys.stderr)
        attempted = len(run.units)
        failed = sum(1 for u in run.units if u.problems)
        values = per_layer(run) if trace else end_to_end(run, import_s, workload.vector_phases)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for key, (value, unit) in values.items():
        print(f"{name} {key} = {value:.6g} {unit}")
    print(f"{name} fail_ratio = {failed}/{attempted}")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in values.items()},
    }


def run_all(seed, seconds):
    results = {}
    machine = None
    ok = True
    for name in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{name} --trace {trace} exited with {proc.returncode}")
            results[(name, trace)] = json.loads(lines[-1])
            machine = machine or lines[0]
    print(machine)
    for trace, title in ((0, "end-to-end (untraced)"), (1, "per-layer (traced)")):
        names = list(WORKLOADS)
        print(f"\n{title}, seed {seed}, {seconds} s per run")
        print(f"{'metric':40s}" + "".join(f"{n:>16s}" for n in names) + "  unit")
        first = results[(names[0], trace)]["metrics"]
        for key, m in first.items():
            row = "".join(f"{results[(n, trace)]['metrics'][key]['value']:16.6g}" for n in names)
            print(f"{key:40s}{row}  {m['unit']}")
        for n in names:
            r = results[(n, trace)]
            ok = ok and r["correct"]
            print(f"{n}: fail_ratio = {r['failed'] / r['attempted']:.3g} "
                  f"({r['failed']} of {r['attempted']}), correct = {r['correct']}")

    def traced(workload, key):
        return results[(workload, 1)]["metrics"][key]["value"]

    def training_share(workload):
        adam = traced(workload, "trainer.adam_step.self_s") / traced(workload, "trace.op_s")
        return traced(workload, "autodiff.share") + adam

    checks = (
        ("clustering.share: fit_canonical > fit_steps",
         traced("fit_canonical", "clustering.share") > traced("fit_steps", "clustering.share")),
        ("autodiff.share + Adam share: fit_steps > fit_canonical",
         training_share("fit_steps") > training_share("fit_canonical")),
        ("eval.clustering.share + eval.data.share > 0.5 on score_heldout",
         traced("score_heldout", "eval.clustering.share") + traced("score_heldout", "eval.data.share") > 0.5),
    )
    print("\nlayer split predictions")
    for text, holds in checks:
        print(f"  {'holds' if holds else 'FAILS'}: {text}")
    for workload, rows in PREDICTIONS.items():
        metrics = results[(workload, 1)]["metrics"]
        print(f"  {workload}:")
        for layer, moves in rows:
            value = metrics.get(layer)
            shown = f"{value['value']:.4g} {value['unit']}" if value else ""
            print(f"    {layer:40s} -> {moves:48s} {shown}")
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="workload name (see workloads.WORKLOADS)")
    parser.add_argument("--all", action="store_true", help="run every workload, untraced and traced")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.all:
        return run_all(args.seed, args.seconds)
    if args.workload is None:
        parser.error("give --workload or --all")
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; known: {', '.join(WORKLOADS)}")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
