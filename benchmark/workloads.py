"""The three benchmark workloads and the checks on every op.

Each op calls wattrank's public functions in the order of the CLI command
it stands for, through the module namespace ``w`` (so the tracer can swap
them).  Input generation happens between ops and is not timed.  Each check
compares the program's output with what ``inputs`` planted.
"""

from __future__ import annotations

import itertools
import math
import shutil
import statistics
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator

import numpy as np

import inputs
from inputs import CLASSES, Kernel, Run

PROBE_KERNELS = 4  # kernels carrying nvcc's multi-line vprintf call, see probe_parser
R2_MIN = 0.95  # acceptance criterion 6


@dataclass
class Op:
    run: Callable[[], object]
    check: Callable[[object], str | None]
    group: int  # the traced run traces whole groups: every other one


# ---- ops: one CLI command each ---------------------------------------------


def ingest(w, run: Run, out_path: Path):
    """``wattrank ingest`` of one run, parsing the run's kernel itself."""
    meta = w.telemetry_ingest.load_run_meta(str(run.meta_path))
    prof = w.instruction_profiler.profile(
        w.ptx_parser.parse_ptx_file(str(run.kernel.path)), meta.workload_id
    )
    trace = w.telemetry_ingest.parse_power_csv(str(run.power_path))
    device = w.device_catalog.find_device(w.device_catalog.default_catalog(), meta.device_name)
    record = w.telemetry_ingest.build_run_record(prof, device, trace, meta)
    sample = w.dataset_builder.make_sample(prof, device, record)
    out_path.write_text(w.dataset_builder.sample_to_json(sample) + "\n", encoding="utf-8")
    return prof, trace, sample


def build_dataset(w, samples_dir: Path, prefix: Path):
    """``wattrank dataset build --samples DIR --seed 42 --out PREFIX``."""
    samples = [
        w.dataset_builder.sample_from_json(p.read_text(encoding="utf-8"))
        for p in sorted(samples_dir.glob("*.json"))
    ]
    ds = w.dataset_builder.assemble(samples, seed=42)
    w.dataset_builder.save_dataset(ds, str(prefix))
    return ds


def train(w, ds, seed: int, model_path: Path):
    """``wattrank train`` with the defaults (auto hidden layers [28, 14])."""
    model = w.estimator.init_model(ds.samples[0].features.shape[0], None, seed=seed)
    trained, _ = w.estimator.train(model, ds, w.estimator.TrainConfig())
    w.estimator.fit_linear_baseline(ds)
    metrics = w.estimator.evaluate(trained, ds)
    w.estimator.save_model(trained, str(model_path))
    return trained, metrics, w.estimator.load_model(str(model_path))


def rank(w, kernel: Kernel, catalog_path: Path, model_path: Path):
    """``wattrank rank --ptx K --catalog C --model M --format json``."""
    prof = w.instruction_profiler.profile(
        w.ptx_parser.parse_ptx_file(str(kernel.path)), kernel.path.stem
    )
    catalog = w.device_catalog.load_catalog(str(catalog_path))
    model = w.estimator.load_model(str(model_path))
    result = w.ranking.rank_devices(prof, catalog, model, objective="perf_per_watt")
    return prof, w.ranking.report(result, "json")


# ---- checks -----------------------------------------------------------------


def _profile_error(kernel: Kernel, prof) -> str | None:
    counts = {cls.value: n for cls, n in prof.counts.items()}
    if counts != kernel.counts or prof.total != kernel.total:
        wrong = {c: (counts.get(c), n) for c, n in kernel.counts.items() if counts.get(c) != n}
        return f"profile of {kernel.name}: (got, planted) {wrong}"
    return None


def _close(what: str, got: float, want: float) -> str | None:
    if not math.isclose(got, want, rel_tol=1e-12):
        return f"{what}: got {got!r}, planted {want!r}"
    return None


def check_ingest(run: Run, result) -> str | None:
    prof, trace, sample = result
    dropped = run.rows - len(trace.samples)
    if dropped != run.zero_rows:
        return f"0 W rows dropped: got {dropped}, inserted {run.zero_rows}"
    planted = [float(run.kernel.counts[c]) for c in CLASSES]
    if [float(x) for x in sample.features[: len(CLASSES)]] != planted:
        return f"sample class features of {run.kernel.name} differ from the planted counts"
    return (
        _profile_error(run.kernel, prof)
        or _close("mean power", sample.power_w, run.power_w)
        or _close("perf_ips", sample.perf_ips, run.perf_ips)
    )


def check_dataset(runs: dict, ds) -> str | None:
    n = len(ds.samples)
    if sorted(ds.train_indices + ds.val_indices) != list(range(n)):
        return "train and val indices do not partition the samples"
    if len(ds.train_indices) != (7 * n) // 10:
        return f"train split has {len(ds.train_indices)} of {n} rows, not floor(0.7 n)"
    for s in ds.samples:
        run = runs[(s.workload_id, s.device_name)]
        error = _close("sample power", s.power_w, run.power_w) or _close(
            "sample perf", s.perf_ips, run.perf_ips
        )
        if error:
            return error
    return None


def _mlp(weights, biases, X):
    """Reference forward pass: ReLU hidden layers, affine output."""
    for W, b in zip(weights[:-1], biases[:-1]):
        X = np.maximum(X @ W.T + b, 0.0)
    return X @ weights[-1].T + biases[-1]


def check_train(w, runs: dict, devices: dict, ds, result) -> str | None:
    """Validation R^2 >= 0.95 on both targets, recomputed from the planted
    features and labels, and bit-exact outputs after save/load."""
    trained, metrics, loaded = result
    val = [runs[(ds.samples[i].workload_id, ds.samples[i].device_name)] for i in ds.val_indices]
    F = np.array([[r.kernel.counts[c] for c in CLASSES] + list(devices[r.device]) for r in val])
    Y = np.array([[r.power_w, r.perf_ips] for r in val])
    norm = trained.norm
    X = np.divide(F - norm.feature_means, norm.feature_stds,
                  out=np.zeros_like(F), where=norm.feature_stds > 0)
    pred = _mlp(trained.weights, trained.biases, X) * norm.target_stds + norm.target_means
    r2 = 1.0 - ((Y - pred) ** 2).sum(axis=0) / ((Y - Y.mean(axis=0)) ** 2).sum(axis=0)
    if r2.min() < R2_MIN:
        return f"validation R^2 (power, perf) = {r2.round(4).tolist()} < {R2_MIN}"
    reported = [metrics["val"]["power"]["r2"], metrics["val"]["perf"]["r2"]]
    if not np.allclose(reported, r2, rtol=0, atol=1e-9):
        return f"evaluate() R^2 {reported} differs from the reference {r2.tolist()}"
    if not np.array_equal(w.estimator.forward(trained, X), w.estimator.forward(loaded, X)):
        return "forward outputs change after save_model/load_model"
    return None


def check_rank(w, kernel: Kernel, device_names: list[str], result) -> str | None:
    prof, text = result
    error = _profile_error(kernel, prof)
    if error:
        return error
    parsed = w.ranking.parse_report_json(text)
    names = [e.device_name for e in parsed.entries] + [p.device_name for p in parsed.excluded]
    if sorted(names) != sorted(device_names):
        return f"ranking covers {sorted(names)}, catalog has {sorted(device_names)}"
    if [e.rank for e in parsed.entries] != list(range(1, len(parsed.entries) + 1)):
        return "ranks are not 1..n"
    return None


# ---- workloads ----------------------------------------------------------------


class Workload:
    """Inputs come from ``seed`` alone.  ``prepare`` writes the set-up inputs
    (not timed), ``setup`` does the wattrank work before the first op (timed
    as setup_s), and ``ops`` yields ops for as long as the caller asks,
    writing each op's inputs just before yielding it."""

    def __init__(self, seed: int, workdir: Path, catalog_path: Path):
        self.seed = seed
        self.workdir = workdir
        self.rng = np.random.default_rng([seed, 1])
        self.sizes = inputs.golden_sequence(seed)
        self.files: dict[str, dict] = {}  # path -> generator facts, for the tracer
        self.catalog_path = catalog_path
        self.devices = dict(inputs.load_devices(self.catalog_path))
        self.runs: dict[tuple[str, str], Run] = {}
        self.w = None

    def _kernels(self, directory: Path, prefix: str, count: int, lo: int, hi: int,
                 call_share: float) -> list[Kernel]:
        directory.mkdir(parents=True, exist_ok=True)
        kernels = []
        for _ in range(count):
            name = f"{prefix}_{len(self.files):05d}"
            kernel = inputs.write_kernel(
                directory / f"{name}.ptx", name,
                inputs.log_uniform(next(self.sizes), lo, hi),
                bool(self.rng.random() < call_share), self.rng,
            )
            self.files[str(kernel.path)] = {"lines": kernel.lines, "kernel": kernel.name}
            kernels.append(kernel)
        return kernels

    def _runs(self, directory: Path, kernels: list[Kernel], rows: tuple[int, int]) -> list[Run]:
        runs = inputs.write_runs(
            directory, kernels, list(self.devices.items()), rows, self.sizes, self.rng
        )
        for run in runs:
            self.files[str(run.power_path)] = {"rows": run.rows}
            self.runs[(run.kernel.name, run.device)] = run
        return runs

    def prepare(self) -> None:
        pass

    def setup(self, w, directory: Path) -> None:
        self.w = w

    def ops(self) -> Iterator[Op]:
        raise NotImplementedError

    def probe_parser(self, w) -> list[str]:
        """Parse and profile kernels that carry nvcc's multi-line vprintf
        call, outside the timed ops, and return one error per kernel the
        program got wrong.  The ops carry no such call, so that an op fails
        only when the program breaks; this keeps the call's handling in the
        report of every run."""
        errors = []
        directory = self.workdir / "probe"
        for kernel in self._kernels(directory, f"printf{self.seed}", PROBE_KERNELS, 500, 4000, 1.0):
            try:
                prof = w.instruction_profiler.profile(
                    w.ptx_parser.parse_ptx_file(str(kernel.path)), kernel.name
                )
                error = _profile_error(kernel, prof)
            except Exception as exc:  # noqa: BLE001 - the probe reports, it does not stop the run
                error = f"{kernel.name}: raised {type(exc).__name__}: {exc}"
            if error is not None:
                errors.append(error)
        shutil.rmtree(directory)
        return errors


class _TrainedCorpus(Workload):
    """Set-up ingests a measured corpus at the paper's scale (40 workloads x
    3 devices; acceptance criterion 6 uses 20) and builds the dataset from it.

    The corpus kernels carry no vprintf call: set-up must succeed for any op
    to be measured, and the ops carry the calls at the usual share."""

    def prepare(self) -> None:
        corpus = self.workdir / "corpus"
        kernels = self._kernels(corpus, f"net{self.seed}", 40, 500, 4000, call_share=0.0)
        self.corpus = self._runs(corpus, kernels, (120, 600))

    def setup(self, w, directory: Path) -> None:
        super().setup(w, directory)
        self.val_r2: list[float] = []
        samples = directory / "samples"
        samples.mkdir(parents=True)
        for run in self.corpus:
            ingest(w, run, samples / f"{run.kernel.name}__{run.device}.json")
        build_dataset(w, samples, directory / "dataset")
        self.ds = w.dataset_builder.load_dataset(str(directory / "dataset"))

    def record_r2(self, result):
        """Keep the lower validation R^2 that ``evaluate`` reported."""
        val = result[1]["val"]
        self.val_r2.append(min(val["power"]["r2"], val["perf"]["r2"]))
        return result

    @property
    def val_r2_min(self) -> float:
        return statistics.median(self.val_r2)


class RankUniquePtx(_TrainedCorpus):
    """Each op is ``wattrank rank`` on a PTX file never seen before."""

    def setup(self, w, directory: Path) -> None:
        super().setup(w, directory)
        self.model_path = directory / "model.json"
        self.record_r2(train(w, self.ds, 42, self.model_path))

    def ops(self) -> Iterator[Op]:
        names = list(self.devices)
        directory = self.workdir / "ops"
        for i in itertools.count():
            (kernel,) = self._kernels(directory, f"conv{self.seed}", 1, 3000, 30000, 0.0)
            yield Op(
                run=lambda k=kernel: rank(self.w, k, self.catalog_path, self.model_path),
                check=lambda result, k=kernel: check_rank(self.w, k, names, result),
                group=i,
            )
            kernel.path.unlink()


class IngestSharedPtx(Workload):
    """Rounds of 8 kernels x every catalog device, one ``wattrank ingest``
    per run, then ``wattrank dataset build`` over the round's samples."""

    def ops(self) -> Iterator[Op]:
        for round_no in itertools.count():
            directory = self.workdir / f"round{round_no}"
            kernels = self._kernels(directory, f"gemm{self.seed}", 8, 2000, 12000, 0.0)
            runs = self._runs(directory, kernels, (300, 3600))
            samples = directory / "samples"
            samples.mkdir()
            for run in runs:
                yield Op(
                    run=lambda r=run, out=samples / f"{run.kernel.name}__{run.device}.json": (
                        ingest(self.w, r, out)
                    ),
                    check=lambda result, r=run: check_ingest(r, result),
                    group=round_no,
                )
            yield Op(
                run=lambda s=samples, d=directory: build_dataset(self.w, s, d / "dataset"),
                check=lambda ds: check_dataset(self.runs, ds),
                group=round_no,
            )
            shutil.rmtree(directory)


class TrainEstimator(_TrainedCorpus):
    """Each op is the default ``wattrank train`` with its own init seed."""

    def ops(self) -> Iterator[Op]:
        model_path = self.workdir / "model.json"
        for i in itertools.count():
            seed = 1000 * self.seed + i
            yield Op(
                run=lambda s=seed: train(self.w, self.ds, s, model_path),
                check=lambda result: check_train(
                    self.w, self.runs, self.devices, self.ds, self.record_r2(result)
                ),
                group=i,
            )


WORKLOADS = {
    "rank-unique-ptx": RankUniquePtx,
    "ingest-shared-ptx": IngestSharedPtx,
    "train-estimator": TrainEstimator,
}
