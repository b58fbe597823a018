#!/usr/bin/env python3
"""wattrank benchmark: seeded closed-loop workloads over wattrank's public API.

    python3 benchmark/run.py --workload rank-unique-ptx --seed 1 --seconds 30 --trace 0
    python3 benchmark/run.py --workload all          # every workload, one table

One client in one process, BLAS capped at one thread.  ``--trace 0`` reports
the end-to-end metrics; ``--trace 1`` alternates traced and untraced ops and
reports the per-layer metrics plus the tracing overhead.  The last line of
stdout is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; details and spans go to ``.bench_out/``.  See README.md here.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from contextlib import nullcontext
from pathlib import Path
from types import SimpleNamespace

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
MODULES = ("ptx_parser", "instruction_profiler", "telemetry_ingest", "device_catalog",
           "dataset_builder", "estimator", "ranking")
# Set up at least SETUP_REPS times, and more while the set-ups so far took
# under SETUP_SECONDS, so that a short set-up also gets a steady median.
SETUP_REPS = 3
SETUP_SECONDS = 2.0
NAMES = ("rank-unique-ptx", "ingest-shared-ptx", "train-estimator")


def import_wattrank() -> SimpleNamespace:
    """Import wattrank from ``src/`` afresh and return its modules."""
    for name in [m for m in sys.modules if m == "wattrank" or m.startswith("wattrank.")]:
        del sys.modules[name]
    package = importlib.import_module("wattrank")
    if Path(package.__file__).resolve().parent != SRC / "wattrank":
        raise SystemExit(f"error: imported wattrank from {package.__file__}, not {SRC}")
    return SimpleNamespace(**{m: getattr(package, m) for m in MODULES})


def git_sha() -> str:
    try:
        done = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=30, check=True)
        top, sha = done.stdout.splitlines()
        if Path(top).resolve() == ROOT:
            return sha
    except (OSError, ValueError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy

    return {
        "seed": seed,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "blas_threads": {v: os.environ[v] for v in BLAS_VARS},
        "git_sha": git_sha(),
    }


def measure(workload, seconds: float, tracer=None) -> dict:
    """Closed loop: time each op's wattrank calls, check the output outside
    the timed region, stop once ``seconds`` of wall clock have passed (and at
    least two ops ran).  With a tracer, every other op group is traced.

    A failure is an op that raised or gave a wrong answer; ``wrong`` counts
    the latter, which make the run incorrect."""
    ops = {"ms": [], "ok": [], "traced": [], "failures": [], "wrong": 0}
    deadline = time.perf_counter() + seconds
    for index, op in enumerate(workload.ops()):
        traced = tracer is not None and op.group % 2 == 1
        gc.collect()
        with tracer.active(str(index)) if traced else nullcontext():
            start = time.perf_counter()
            try:
                result, error = op.run(), None
            except Exception as exc:  # noqa: BLE001 - a failing op is counted, the run goes on
                result, error = None, f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - start
        if error is None:
            try:
                error = op.check(result)
            except Exception as exc:  # noqa: BLE001
                error = f"check raised {type(exc).__name__}: {exc}"
            ops["wrong"] += error is not None
        ops["ms"].append(elapsed * 1e3)
        ops["ok"].append(error is None)
        ops["traced"].append(traced)
        if error is not None:
            ops["failures"].append(f"op {index}: {error}")
        if index >= 1 and time.perf_counter() >= deadline:
            break
    return ops


def latency(ops: dict) -> dict:
    """Latency of the ops that succeeded: a failed op may stop early, so it
    would pull the figures down.  ``tail`` is the highest percentile with at
    least ten samples beyond it; ``ops_per_s`` is successful ops per second
    of busy time, failed ops' time included."""
    ordered = sorted(m for m, ok in zip(ops["ms"], ops["ok"]) if ok)
    n = len(ordered)
    if n == 0:
        raise SystemExit(f"error: every op failed, first: {ops['failures'][0]}")
    return {
        "n": n,
        "p50": statistics.median(ordered),
        "tail": ordered[n - 11] if n > 10 else ordered[-1],
        "tail_percentile": round(100.0 * (n - 10) / n, 2) if n > 10 else 100.0,
        "ops_per_s": n / (sum(ops["ms"]) / 1e3),
    }


def _p50_ok(ops: dict, traced: bool) -> float:
    ms = [m for m, ok, t in zip(ops["ms"], ops["ok"], ops["traced"]) if ok and t == traced]
    if not ms:
        raise SystemExit(f"error: no {'traced' if traced else 'untraced'} op succeeded")
    return statistics.median(ms)


def run_one(args) -> int:
    import numpy  # noqa: F401  - loaded before timing, like any wattrank user

    import workloads
    from spans import Tracer, per_layer

    sys.path.insert(0, str(SRC))
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    OUT.mkdir(exist_ok=True)
    details = {"workload": args.workload, "seconds": args.seconds, "trace": args.trace,
               **environment(args.seed)}
    try:
        workdir.mkdir(parents=True)
        w = import_wattrank()  # the first import compiles bytecode: not timed
        catalog = workdir / "catalog.json"
        w.device_catalog.save_catalog(w.device_catalog.default_catalog(), str(catalog))
        workload = workloads.WORKLOADS[args.workload](args.seed, workdir, catalog)
        workload.prepare()
        if args.trace:
            w = import_wattrank()
            tracer = Tracer(w, workload.files)
            with tracer.active("setup"):
                workload.setup(w, workdir / "setup")
            ops = measure(workload, args.seconds, tracer)
            p50 = {side: _p50_ok(ops, side == "traced") for side in ("untraced", "traced")}
            metrics = per_layer(tracer.spans, p50["traced"] - p50["untraced"])
            tracer.write(OUT / f"{args.workload}-seed{args.seed}.spans.jsonl")
            details["op_ms.p50"] = p50
        else:
            setups = []
            while len(setups) < SETUP_REPS or (sum(setups) < SETUP_SECONDS and len(setups) < 200):
                start = time.perf_counter()
                w = import_wattrank()
                workload.setup(w, workdir / f"setup{len(setups)}")
                setups.append(time.perf_counter() - start)
            ops = measure(workload, args.seconds)
            lat = latency(ops)
            metrics = {
                "setup_s": (statistics.median(setups), "s"),
                "op_ms.p50": (lat["p50"], "ms"),
                "op_ms.tail": (lat["tail"], "ms"),
                "ops_per_s": (lat["ops_per_s"], "1/s"),
                "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            }
            details["setup_s_reps"] = setups
            details["op_ms"] = lat
        probe = workload.probe_parser(w)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass  # another run still uses it

    attempted = len(ops["ms"])
    failed = len(ops["failures"])
    details.update({
        "attempted": attempted,
        "failed": failed,
        "failed_share": failed / attempted,
        "wrong_answers": ops["wrong"],
        "probe_kernels": workloads.PROBE_KERNELS,
        "probe_errors": probe,
        "failures": ops["failures"][:50],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })
    val_r2 = getattr(workload, "val_r2_min", None)
    if val_r2 is not None:
        details["val_r2_min"] = val_r2
    _check_names(metrics, "per_layer" if args.trace else "end_to_end")
    with open(OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json", "w",
              encoding="utf-8") as fh:
        json.dump(details, fh, indent=2)
    _print_human(details)
    print(json.dumps({
        "correct": ops["wrong"] == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": details["metrics"],
    }))
    return 0


def _check_names(metrics: dict, section: str) -> None:
    """The emitted metrics must be exactly those BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    declared = {m["name"]: m["unit"] for m in spec[section]}
    emitted = {name: unit for name, (_, unit) in metrics.items()}
    if declared != emitted:
        raise SystemExit(f"error: {section} metrics differ from BENCHMARK.json: "
                         f"{sorted(set(declared.items()) ^ set(emitted.items()))}")


def _print_human(d: dict) -> None:
    print(f"# {d['workload']}  seed {d['seed']}  {d['seconds']} s  trace {d['trace']}  "
          f"python {d['python']}  numpy {d['numpy']}  nproc {d['nproc']}  "
          f"BLAS threads {d['blas_threads']['OPENBLAS_NUM_THREADS']}  git {d['git_sha'][:12]}")
    for name, m in d["metrics"].items():
        print(f"{name:<52} {m['value']:>14.6g} {m['unit']}")
    if "op_ms" in d:
        lat = d["op_ms"]
        print(f"  op_ms.tail is p{lat['tail_percentile']} of n = {lat['n']} ops")
    print(f"{'failed_share':<52} {d['failed_share']:>14.6g} share  "
          f"({d['failed']}/{d['attempted']}, {d['wrong_answers']} of them wrong answers)")
    print(f"parser probe, not timed: {len(d['probe_errors'])} of {d['probe_kernels']} kernels "
          f"with nvcc's multi-line vprintf call parsed or profiled wrong")
    for error in d["probe_errors"][:1]:
        print(f"  probe: {error[:160]}")
    if "val_r2_min" in d:
        print(f"{'val_r2_min':<52} {d['val_r2_min']:>14.6g} R^2")
    for failure in d["failures"][:3]:
        print(f"  failure: {failure[:160]}")


def run_all(args) -> int:
    """Each workload in its own process, one after the other."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in NAMES:
        done = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
             str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900,
        )
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.stderr.write(done.stderr)
            return done.returncode or 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}/{metric}"] = value
    print(json.dumps(combined))
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "wattrank" / "__init__.py").is_file():
        print(f"error: no wattrank sources under {SRC}", file=sys.stderr)
        return 2
    for var in BLAS_VARS:  # before numpy loads its BLAS
        os.environ[var] = "1"
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
