"""Command-line surface: profile PTX, manage devices, ingest runs, build
datasets, train/evaluate models, and rank devices for a workload.

Exit codes: 0 success, 1 input or validation error, 2 when a power cap
excludes every device.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import dataset_builder, device_catalog, estimator, ranking, telemetry_ingest
from .errors import WattrankError
from .instruction_profiler import profile, profile_from_json, profile_to_json
from .ptx_parser import parse_ptx_file
from .ranking import AllDevicesExcluded


def _load_catalog_arg(path: str | None) -> list[device_catalog.DeviceSpec]:
    if path is None:
        return device_catalog.default_catalog()
    return device_catalog.load_catalog(path)


def _profile_ptx(path: str, workload_id: str | None):
    doc = parse_ptx_file(path)
    return profile(doc, workload_id or Path(path).stem)


def _cmd_profile(args) -> int:
    prof = _profile_ptx(args.ptx, args.workload_id)
    text = profile_to_json(prof)
    if args.out:
        Path(args.out).write_text(text + "\n", encoding="utf-8")
    else:
        print(text)
    return 0


def _cmd_devices_list(args) -> int:
    catalog = _load_catalog_arg(args.catalog)
    print(f"{'name':<12} {'arch':<8} {'SMs':>4} {'FP32':>6} {'L2 KiB':>7} "
          f"{'core MHz':>9} {'mem MHz':>8} {'GB/s':>7} {'TDP W':>6}")
    for d in catalog:
        tdp = f"{d.tdp_watts:.0f}" if d.tdp_watts is not None else "-"
        print(f"{d.name:<12} {d.architecture:<8} {d.sm_count:>4} {d.fp32_cores:>6} "
              f"{d.l2_cache_kib:>7} {d.core_clock_mhz:>9.0f} "
              f"{d.memory_clock_mhz:>8.0f} {d.memory_bandwidth_gbps:>7.0f} {tdp:>6}")
    return 0


def _cmd_devices_add(args) -> int:
    base = _load_catalog_arg(args.catalog)
    extra = device_catalog.load_catalog(args.file)
    merged = list(base)
    seen = {d.name for d in merged}
    for spec in extra:
        if spec.name in seen:
            raise device_catalog.DuplicateName(spec.name)
        seen.add(spec.name)
        merged.append(spec)
    out = args.out or args.catalog
    if out is None:
        raise WattrankError(
            "refusing to overwrite the built-in catalog; pass --out or --catalog"
        )
    device_catalog.save_catalog(merged, out)
    print(f"wrote {len(merged)} devices to {out}")
    return 0


def _cmd_ingest(args) -> int:
    prof = profile_from_json(Path(args.profile).read_text(encoding="utf-8"))
    meta = telemetry_ingest.load_run_meta(args.meta)
    trace = telemetry_ingest.parse_power_csv(args.power)
    catalog = _load_catalog_arg(args.catalog)
    device = device_catalog.find_device(catalog, meta.device_name)
    record = telemetry_ingest.build_run_record(prof, device, trace, meta)
    sample = dataset_builder.make_sample(prof, device, record)
    Path(args.out).write_text(
        dataset_builder.sample_to_json(sample) + "\n", encoding="utf-8"
    )
    print(
        f"{record.workload_id} on {record.device_name}: "
        f"{record.mean_power_w:.2f} W, {record.perf_ips:.4g} inst/s "
        f"({trace.zero_w_dropped} 0 W rows dropped) -> {args.out}"
    )
    return 0


def _cmd_dataset_build(args) -> int:
    paths = sorted(Path(args.samples).glob("*.json"))
    if not paths:
        raise WattrankError(f"no sample JSON files in {args.samples}")
    samples = [
        dataset_builder.sample_from_json(p.read_text(encoding="utf-8")) for p in paths
    ]
    ds = dataset_builder.assemble(
        samples, seed=args.seed, group_by_workload=args.group_by_workload
    )
    csv_path, json_path = dataset_builder.save_dataset(ds, args.out)
    print(
        f"{len(ds.samples)} samples -> {csv_path} + {json_path} "
        f"(train {len(ds.train_indices)}, val {len(ds.val_indices)}, seed {ds.seed})"
    )
    return 0


def _parse_hidden(text: str) -> list[int] | None:
    if text == "auto":
        return None
    if text in ("none", ""):
        return []
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise WattrankError(f"bad --hidden spec {text!r}") from exc


def _print_metrics(tag: str, metrics: dict) -> None:
    for split in ("train", "val"):
        row = metrics[split]
        print(
            f"{tag} {split:<5}  power mse {row['power']['mse']:.6g} "
            f"r2 {row['power']['r2']:.4f} | perf mse {row['perf']['mse']:.6g} "
            f"r2 {row['perf']['r2']:.4f}"
        )


def _cmd_train(args) -> int:
    ds = dataset_builder.load_dataset(args.dataset)
    if args.select_threshold is not None:
        ds = dataset_builder.select_features(ds, args.select_threshold)
        print(f"feature selection keeps {(ds.norm.feature_stds > 0).sum()} features")

    config = estimator.TrainConfig(lr=args.lr, epochs=args.epochs, patience=args.patience)
    model = estimator.init_model(
        ds.samples[0].features.shape[0], _parse_hidden(args.hidden), seed=args.seed
    )
    trained, history = estimator.train(model, ds, config)
    estimator.save_model(trained, args.out)
    _print_metrics("mlp", estimator.evaluate(trained, ds))
    print(
        f"trained {trained.layer_dims} for {trained.epochs_trained} epochs "
        f"(best epoch {history.best_epoch}) -> {args.out}"
    )
    return 0


def _cmd_eval(args) -> int:
    ds = dataset_builder.load_dataset(args.dataset)
    model = estimator.load_model(args.model)
    _print_metrics("model", estimator.evaluate(model, ds))
    return 0


def _cmd_rank(args) -> int:
    prof = _profile_ptx(args.ptx, args.workload_id)
    catalog = _load_catalog_arg(args.catalog)
    model = estimator.load_model(args.model)
    result = ranking.rank_devices(
        prof, catalog, model,
        objective=args.objective, power_cap_w=args.power_cap,
    )
    sys.stdout.write(ranking.report(result, args.format))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wattrank",
        description="Static PTX profiling and learned power/performance "
        "ranking of GPGPU devices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("profile", help="profile a PTX file into class counts")
    p.add_argument("ptx")
    p.add_argument("--workload-id", default=None)
    p.add_argument("--out", default=None, help="write profile JSON here")
    p.set_defaults(func=_cmd_profile)

    p = sub.add_parser("devices", help="inspect or extend a device catalog")
    dev_sub = p.add_subparsers(dest="devices_command", required=True)
    q = dev_sub.add_parser("list", help="print the catalog")
    q.add_argument("--catalog", default=None, help="catalog JSON (default: built-in)")
    q.set_defaults(func=_cmd_devices_list)
    q = dev_sub.add_parser("add", help="merge extra device records")
    q.add_argument("--file", required=True, help="JSON array of device records")
    q.add_argument("--catalog", default=None, help="base catalog (default: built-in)")
    q.add_argument("--out", default=None, help="where to write the merged catalog")
    q.set_defaults(func=_cmd_devices_add)

    p = sub.add_parser("ingest", help="turn one measured run into a labeled sample")
    p.add_argument("--power", required=True, help="nvidia-smi power CSV")
    p.add_argument("--meta", required=True, help="run metadata JSON")
    p.add_argument("--profile", required=True, help="instruction profile JSON")
    p.add_argument("--catalog", default=None, help="catalog JSON (default: built-in)")
    p.add_argument("--out", required=True, help="labeled sample JSON to write")
    p.set_defaults(func=_cmd_ingest)

    p = sub.add_parser("dataset", help="dataset operations")
    ds_sub = p.add_subparsers(dest="dataset_command", required=True)
    q = ds_sub.add_parser("build", help="assemble samples into a training dataset")
    q.add_argument("--samples", required=True, help="directory of sample JSON files")
    q.add_argument("--seed", type=int, default=42)
    q.add_argument("--out", required=True, help="output prefix (.csv/.json)")
    q.add_argument("--group-by-workload", action="store_true",
                   help="keep each workload entirely in one split")
    q.set_defaults(func=_cmd_dataset_build)

    p = sub.add_parser("train", help="train the neural estimator")
    p.add_argument("--dataset", required=True, help="dataset prefix from 'dataset build'")
    p.add_argument("--hidden", default="auto",
                   help="comma-separated hidden sizes, 'auto' (2d,d) or 'none'")
    p.add_argument("--lr", type=float, default=0.01)
    p.add_argument("--epochs", type=int, default=5000)
    p.add_argument("--patience", type=int, default=200)
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--select-threshold", type=float, default=None,
                   help="drop features whose |correlation| with both power and "
                        "perf is below this")
    p.add_argument("--out", required=True, help="model JSON to write")
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="report MSE and R^2 of a saved model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("rank", help="rank catalog devices for a PTX workload")
    p.add_argument("--ptx", required=True)
    p.add_argument("--catalog", default=None, help="catalog JSON (default: built-in)")
    p.add_argument("--model", required=True)
    p.add_argument("--objective", default="perf_per_watt",
                   help="max_perf | min_power | max_perf_per_watt (or perf, power, "
                        "perf_per_watt)")
    p.add_argument("--power-cap", type=float, default=None)
    p.add_argument("--format", choices=("table", "json", "csv"), default="table")
    p.add_argument("--workload-id", default=None)
    p.set_defaults(func=_cmd_rank)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except AllDevicesExcluded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except WattrankError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
