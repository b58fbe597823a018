"""Command-line surface: profile PTX, manage devices, ingest runs, build
datasets, train/evaluate models, and rank devices for a workload.

Exit codes: 0 success, 1 input, validation or usage error, 2 when no device
is left to rank: every prediction is not positive or over the power cap.
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
    merged = device_catalog.unique_names([*base, *device_catalog.load_catalog(args.file)])
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
    sample = dataset_builder.ingest_run(prof, _load_catalog_arg(args.catalog), meta, trace)
    Path(args.out).write_text(dataset_builder.sample_to_json(sample) + "\n", encoding="utf-8")
    print(
        f"{sample.workload_id} on {sample.device_name}: "
        f"{sample.power_w:.2f} W, {sample.perf_ips:.4g} inst/s "
        f"({trace.zero_w_dropped} 0 W rows dropped) -> {args.out}"
    )
    return 0


def _cmd_dataset_build(args) -> int:
    paths = sorted(Path(args.samples).glob("*.json"))
    if not paths:
        raise WattrankError(f"no sample JSON files in {args.samples}")
    samples = []
    for path in paths:
        try:
            samples.append(dataset_builder.sample_from_json(path.read_text(encoding="utf-8")))
        except (WattrankError, UnicodeDecodeError) as exc:
            raise WattrankError(f"{path}: {exc}") from exc
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
    if text == "none":
        return []
    try:  # an empty item, as in "28,,14" or ",", is a ValueError
        return [int(tok) for tok in text.split(",")]
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
    prof = _profile_ptx(args.ptx, None)
    catalog = _load_catalog_arg(args.catalog)
    model = estimator.load_model(args.model)
    result = ranking.rank_devices(
        prof, catalog, model,
        objective=args.objective, power_cap_w=args.power_cap,
    )
    sys.stdout.write(ranking.report(result, args.format))
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # a usage error exits 1, not argparse's 2
        raise WattrankError(f"{self.prog}: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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
    p.add_argument("--lr", type=float, default=estimator.TrainConfig.lr)
    p.add_argument("--epochs", type=int, default=estimator.TrainConfig.epochs)
    p.add_argument("--patience", type=int, default=estimator.TrainConfig.patience)
    p.add_argument("--seed", type=int, default=42)
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
                   help=f"{' | '.join(ranking.OBJECTIVES)} "
                        f"(or {', '.join(ranking.OBJECTIVE_ALIASES)})")
    p.add_argument("--power-cap", type=float, default=None)
    p.add_argument("--format", choices=ranking.FORMATS, default="table")
    p.set_defaults(func=_cmd_rank)

    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except AllDevicesExcluded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (WattrankError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
