"""Fairness-weight sweep on one of two synthetic geometries.

Trains one model per (seed, fairness weight) pair, scores each against the
generating labels, and prints one row per run, then the mean per weight,
then the mean mnce delta when exactly two weights are given.

- canonical: the criterion-7 mixture (3 classes x 2 groups x 150 rows,
  class_sep 8, group_shift 6, dim 16) with the default config. The class
  structure dominates, so expect every weight to land on the same fair
  solution.
- group-dominated: the group offset is three times the class separation
  (3 classes x 2 groups x 60 rows, class_sep 4, group_shift 12, dim 8),
  trained with a smaller network, so an unconstrained model clusters by
  group.

    python scripts/fairness_sweep.py --geometry group-dominated --seeds 1,2
"""

import argparse
import time

import numpy as np

from fairmi import data, trainer

# name -> (SyntheticSpec fields, TrainConfig fields, default betas, default epochs)
GEOMETRIES = {
    "canonical": (
        dict(classes=3, groups=2, per_cell_count=150, class_sep=8.0, group_shift=6.0, dim=16),
        dict(k=3),
        "0.2,0.0", 300,
    ),
    "group-dominated": (
        dict(classes=3, groups=2, per_cell_count=60, class_sep=4.0, group_shift=12.0, dim=8),
        dict(k=3, encoder_widths=(32, 8), warmup_epochs=10, batch_size=128,
             learning_rate=1e-3),
        "0.0,0.25,0.5,1.0", 80,
    ),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--geometry", choices=GEOMETRIES, default="canonical")
    ap.add_argument("--seeds", default="1,2,3", help="comma-separated seeds")
    ap.add_argument("--betas", help="comma-separated fairness weights "
                                    "(default: 0.2,0.0 canonical, 0.0,0.25,0.5,1.0 group-dominated)")
    ap.add_argument("--epochs", type=int, help="default: 300 canonical, 80 group-dominated")
    args = ap.parse_args(argv)

    spec_fields, config_fields, default_betas, default_epochs = GEOMETRIES[args.geometry]
    seeds = [int(s) for s in args.seeds.split(",")]
    betas = [float(b) for b in (args.betas or default_betas).split(",")]
    epochs = default_epochs if args.epochs is None else args.epochs
    datasets = {seed: data.generate_synthetic(data.SyntheticSpec(**spec_fields, noise_sd=1.0, seed=seed))
                for seed in seeds}

    header = (f"{'seed':>4} {'beta':>5} {'acc':>7} {'nmi':>7} {'bal':>7} {'mnce':>7} "
              f"{'f_beta':>7} {'mi_gc':>10} {'sec':>6}")
    print(header)
    print("-" * len(header))
    results = {}
    for beta in betas:
        for seed in seeds:
            cfg = trainer.TrainConfig(**config_fields, beta_fair=beta, max_epochs=epochs, seed=seed)
            start = time.monotonic()
            params, logs = trainer.fit(cfg, datasets[seed])
            elapsed = time.monotonic() - start
            report = trainer.evaluate(params, datasets[seed], cfg)
            results.setdefault(beta, []).append((report, logs[-1].mi_gc))
            print(f"{seed:>4} {beta:>5.2f} {report.acc:>7.4f} {report.nmi:>7.4f} "
                  f"{report.bal:>7.4f} {report.mnce:>7.4f} {report.f_beta:>7.4f} "
                  f"{logs[-1].mi_gc:>10.3e} {elapsed:>6.1f}")

    print()
    for beta in betas:
        rows = results[beta]
        print(f"beta={beta:.2f} means: acc {np.mean([r.acc for r, _ in rows]):.4f}  "
              f"mnce {np.mean([r.mnce for r, _ in rows]):.4f}  "
              f"final mi_gc {np.mean([m for _, m in rows]):.3e}")
    if len(betas) == 2:
        a, b = betas
        delta = (np.mean([r.mnce for r, _ in results[a]])
                 - np.mean([r.mnce for r, _ in results[b]]))
        print(f"mean mnce delta (beta={a:g} minus beta={b:g}): {delta:+.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
