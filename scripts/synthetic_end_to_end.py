#!/usr/bin/env python3
"""Full-pipeline experiment on synthetic workloads with a known ground truth.

Writes PTX files, nvidia-smi-style power logs, and run metadata to a work
directory, pushes everything through the real parse -> profile -> ingest ->
dataset -> train path, then reports recovery quality (validation R^2 per
target), the feature-importance ranking, and a device ranking for the first
workload.
"""

import argparse
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from wattrank import synthetic
from wattrank.dataset_builder import assemble, feature_importance, ingest_run, save_dataset
from wattrank.errors import WattrankError
from wattrank.estimator import TrainConfig, evaluate, init_model, save_model, train
from wattrank.instruction_profiler import profile
from wattrank.ptx_parser import parse_ptx_file
from wattrank.ranking import rank_devices, report
from wattrank.telemetry_ingest import load_run_meta, parse_power_csv


def write_experiment_files(experiment: synthetic.SyntheticExperiment, outdir: Path):
    outdir.mkdir(parents=True, exist_ok=True)
    for name, ptx_text in experiment.kernels.items():
        (outdir / f"{name}.ptx").write_text(ptx_text)
    run_files = []
    for index, run in enumerate(experiment.runs):
        ptx_path = outdir / f"{run.meta.workload_id}.ptx"
        power_path = outdir / f"run_{index:03d}.power.csv"
        power_path.write_text(run.power_csv_text)
        meta_path = outdir / f"run_{index:03d}.meta.json"
        meta_path.write_text(json.dumps({
            "workload_id": run.meta.workload_id,
            "device_name": run.meta.device_name,
            "wall_clock_s": run.meta.wall_clock_s,
            "repetitions": run.meta.repetitions,
        }, indent=2))
        run_files.append((ptx_path, power_path, meta_path))
    return run_files


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    defaults = synthetic.SyntheticConfig
    parser.add_argument("--n-workloads", type=int, default=defaults.n_workloads)
    parser.add_argument("--seed", type=int, default=defaults.seed)
    parser.add_argument("--noise-frac", type=float, default=defaults.noise_frac)
    parser.add_argument("--epochs", type=int, default=TrainConfig.epochs)
    parser.add_argument("--lr", type=float, default=TrainConfig.lr)
    parser.add_argument("--outdir", type=Path, default=Path("runs/synthetic"))
    args = parser.parse_args()

    config = synthetic.SyntheticConfig(
        n_workloads=args.n_workloads, seed=args.seed, noise_frac=args.noise_frac
    )
    experiment = synthetic.generate(config)
    run_files = write_experiment_files(experiment, args.outdir)
    print(f"wrote {len(run_files)} runs over {args.n_workloads} workloads "
          f"and {len(experiment.devices)} devices to {args.outdir}/")

    # ingest from the files we just wrote, exactly like the CLI would
    samples = []
    for ptx_path, power_path, meta_path in run_files:
        meta = load_run_meta(meta_path)
        prof = profile(parse_ptx_file(ptx_path), meta.workload_id)
        samples.append(ingest_run(prof, experiment.devices, meta, parse_power_csv(power_path)))

    ds = assemble(samples, seed=42)
    save_dataset(ds, args.outdir / "dataset")
    model = init_model(samples[0].features.size, None, seed=42)
    trained, history = train(model, ds, TrainConfig(lr=args.lr, epochs=args.epochs))
    save_model(trained, args.outdir / "model.json")
    metrics = evaluate(trained, ds)
    print(f"\ntrained {trained.layer_dims} for {trained.epochs_trained} epochs "
          f"(best epoch {history.best_epoch})")
    for split in ("train", "val"):
        row = metrics[split]
        print(f"  {split:<5}  power R^2 {row['power']['r2']:.4f}   "
              f"perf R^2 {row['perf']['r2']:.4f}")

    print(f"\nplanted dominant features: power -> {synthetic.POWER_DOMINANT}, "
          f"perf -> {synthetic.PERF_DOMINANT}")
    for target in ("power", "perf"):
        ranked = feature_importance(ds, target)
        shown = ", ".join(f"{name} ({score:+.2f})" for name, score in ranked[:4])
        print(f"  {target} importance: {shown}")

    workload = experiment.runs[0].meta.workload_id
    prof = profile(parse_ptx_file(args.outdir / f"{workload}.ptx"), workload)
    print(f"\ndevice ranking for {workload} (perf per watt):")
    print(report(rank_devices(prof, experiment.devices, trained), "table"))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except WattrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(1)
