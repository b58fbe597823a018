#!/usr/bin/env python3
"""Sweep hidden-layer configurations of the estimator on one synthetic
dataset and compare validation error per target, including the closed-form
ridge baseline."""

import argparse
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wattrank import synthetic
from wattrank.dataset_builder import assemble
from wattrank.errors import WattrankError
from wattrank.estimator import (
    TrainConfig,
    evaluate,
    fit_linear_baseline,
    init_model,
    train,
)

HIDDEN_SPECS = [[], [14], [28, 14], [56, 28], [28, 28, 14]]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = synthetic.SyntheticConfig
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--n-workloads", type=int, default=defaults.n_workloads)
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    parser.add_argument("--lr", type=float, default=TrainConfig.lr)
    args = parser.parse_args()

    experiment = synthetic.generate(synthetic.SyntheticConfig(
        n_workloads=args.n_workloads, seed=args.seed))
    samples = synthetic.ingest_experiment(experiment)
    ds = assemble(samples, seed=42)
    d = samples[0].features.size
    print(f"{len(samples)} samples, {d} features, "
          f"train {len(ds.train_indices)} / val {len(ds.val_indices)}\n")
    print(f"{'architecture':<22} {'epochs':>6} {'val power R2':>13} "
          f"{'val perf R2':>12} {'seconds':>8}")

    val = evaluate(fit_linear_baseline(ds), ds)["val"]
    print(f"{'ridge baseline':<22} {'-':>6} {val['power']['r2']:>13.4f} "
          f"{val['perf']['r2']:>12.4f} {'-':>8}")

    for hidden in HIDDEN_SPECS:
        start = time.monotonic()
        model = init_model(d, hidden, seed=42)
        trained, _ = train(model, ds, TrainConfig(lr=args.lr, epochs=args.epochs))
        metrics = evaluate(trained, ds)
        label = "x".join(map(str, trained.layer_dims))
        print(f"{label:<22} {trained.epochs_trained:>6} "
              f"{metrics['val']['power']['r2']:>13.4f} "
              f"{metrics['val']['perf']['r2']:>12.4f} "
              f"{time.monotonic() - start:>8.1f}")
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WattrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
