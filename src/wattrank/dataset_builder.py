"""Training-matrix assembly: join profiles, device features, and labels.

One labeled sample per (workload, device) run: the feature vector is the
8 instruction-class counts concatenated with the 6 device features, the
targets are measured watts and instructions/s.  Assembly shuffles the runs
(or workloads) with a user-visible seed, keeps each one's samples on one side
of a cut near floor(0.7 n) training rows (exact when every run is unique),
and computes z-score statistics on the training split only.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, fields
from pathlib import Path

import numpy as np

from .device_catalog import DEVICE_FEATURE_NAMES, DeviceSpec, device_to_features, find_device
from .errors import WattrankError
from .instruction_profiler import CLASS_ORDER, InstructionProfile, profile_to_features
from .json_types import json_dumps, json_loads, json_numbers, json_value
from .telemetry_ingest import (
    PowerTrace, RunMeta, RunRecord, UnparsableValue, build_run_record, csv_rows,
)


class TooFewSamples(WattrankError):
    def __init__(self, n: int):
        super().__init__(f"need at least 3 samples to split, got {n}")
        self.n = n


class InconsistentFeatureLength(WattrankError):
    pass


class CorruptDataset(WattrankError):
    """A dataset sidecar that does not describe its CSV."""


def feature_names() -> list[str]:
    """The 14 canonical feature names, in dataset column order."""
    return [cls.value for cls in CLASS_ORDER] + DEVICE_FEATURE_NAMES


def feature_vector(profile: InstructionProfile, device: DeviceSpec) -> np.ndarray:
    """One row's 14 features, in :func:`feature_names` order: the raw class
    counts, then the device features."""
    return np.concatenate([profile_to_features(profile), device_to_features(device)])


def _column_names(width: int) -> list[str]:
    """:func:`feature_names` for the 14-column contract, ``f0..f{w-1}`` otherwise."""
    names = feature_names()
    return names if width == len(names) else [f"f{i}" for i in range(width)]


def _header(width: int) -> list[str]:
    """The dataset CSV's header for ``width`` features."""
    return ["workload_id", "device_name", *_column_names(width), "power_w", "perf_ips"]


@dataclass(frozen=True)
class LabeledSample:
    workload_id: str
    device_name: str
    features: np.ndarray
    power_w: float
    perf_ips: float


def make_sample(
    profile: InstructionProfile, device: DeviceSpec, record: RunRecord
) -> LabeledSample:
    """Build one training row from :func:`feature_vector` and measured labels."""
    return LabeledSample(
        workload_id=profile.workload_id,
        device_name=device.name,
        features=feature_vector(profile, device),
        power_w=record.mean_power_w,
        perf_ips=record.perf_ips,
    )


def ingest_run(profile: InstructionProfile, catalog: list[DeviceSpec], meta: RunMeta,
               trace: PowerTrace) -> LabeledSample:
    """The labeled sample of one measured run: the device that ``meta`` names
    in ``catalog``, joined with ``profile`` and the run's checked labels."""
    device = find_device(catalog, meta.device_name)
    return make_sample(profile, device, build_run_record(profile, device, trace, meta))


def sample_to_json(sample: LabeledSample) -> str:
    return json_dumps(
        {
            "workload_id": sample.workload_id,
            "device_name": sample.device_name,
            "feature_names": feature_names(),
            "features": [float(x) for x in sample.features],
            "power_w": sample.power_w,
            "perf_ips": sample.perf_ips,
        },
        indent=2,
    )


def sample_from_json(text: str) -> LabeledSample:
    """Parse one sample; rejects anything but string ids and 14 finite
    features and targets, all JSON numbers."""
    try:
        doc = json_value(json_loads(text), dict)
        names = doc.get("feature_names")
        if names is not None and list(names) != feature_names():
            raise InconsistentFeatureLength(
                f"sample feature ordering {names} does not match the contract"
            )
        sample = LabeledSample(
            workload_id=json_value(doc["workload_id"], str),
            device_name=json_value(doc["device_name"], str),
            features=json_numbers(doc["features"]),
            power_w=json_value(doc["power_w"], float),
            perf_ips=json_value(doc["perf_ips"], float),
        )
    except KeyError as exc:
        raise InconsistentFeatureLength(f"bad sample JSON: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise InconsistentFeatureLength(f"bad sample JSON: {exc}") from exc
    if sample.features.shape != (len(feature_names()),):
        raise InconsistentFeatureLength(
            f"sample has feature shape {sample.features.shape}, "
            f"expected ({len(feature_names())},)"
        )
    if not np.isfinite([*sample.features, sample.power_w, sample.perf_ips]).all():
        raise InconsistentFeatureLength("sample has a non-finite feature or target")
    return sample


def _zscore(v, means: np.ndarray, stds: np.ndarray) -> np.ndarray:
    """``(v - means) / stds``, and 0 where a std is 0."""
    v = np.asarray(v, dtype=float)
    out = np.zeros_like(v)
    np.divide(v - means, stds, out=out, where=stds > 0)
    return out


@dataclass(frozen=True)
class NormStats:
    """Z-score statistics.  A column with std exactly 0 is constant on the
    train split: it standardizes to 0, so the model does not read it."""

    feature_means: np.ndarray
    feature_stds: np.ndarray
    target_means: np.ndarray
    target_stds: np.ndarray

    def standardize_features(self, v: np.ndarray) -> np.ndarray:
        return _zscore(v, self.feature_means, self.feature_stds)

    def standardize_targets(self, y: np.ndarray) -> np.ndarray:
        return _zscore(y, self.target_means, self.target_stds)

    def destandardize_targets(self, y: np.ndarray) -> np.ndarray:
        return np.asarray(y, dtype=float) * self.target_stds + self.target_means

    def to_dict(self) -> dict:
        return {f.name: getattr(self, f.name).tolist() for f in fields(self)}

    @classmethod
    def from_dict(cls, doc: dict) -> "NormStats":
        """Inverse of :meth:`to_dict`.  Every stat must be an array of JSON
        numbers (else ``TypeError``), and the four must be finite stats of
        some ``n`` features and 2 targets (else ``ValueError``)."""
        stats = [json_numbers(doc[f.name]) for f in fields(cls)]
        n = stats[0].size
        if [a.shape for a in stats] != [(n,), (n,), (2,), (2,)]:
            raise ValueError(f"norm_stats are not stats of {n} features and 2 targets")
        if not all(np.isfinite(a).all() for a in stats):
            raise ValueError("norm_stats has a non-finite value")
        return cls(*stats)


@dataclass(frozen=True)
class TrainingDataset:
    """Samples split into train and val rows.  ``norm`` is not passed: it is
    the z-score statistics of the train rows, worked out on construction, so
    any split (a fold, say) standardizes with its own train rows only.  Raises
    :class:`WattrankError` when a mean or std overflows a float."""

    samples: list[LabeledSample]
    train_indices: list[int]
    val_indices: list[int]
    seed: int
    norm: NormStats = field(init=False)

    def __post_init__(self):
        X = self.feature_matrix(self.train_indices)
        Y = self.target_matrix(self.train_indices)
        with np.errstate(over="ignore", invalid="ignore"):
            stats = [X.mean(axis=0), X.std(axis=0), Y.mean(axis=0), Y.std(axis=0)]
        if not all(np.isfinite(a).all() for a in stats):
            raise WattrankError("the train rows' means or stds overflow a float")
        object.__setattr__(self, "norm", NormStats(*stats))

    def feature_matrix(self, indices) -> np.ndarray:
        return np.stack([self.samples[i].features for i in indices])

    def target_matrix(self, indices) -> np.ndarray:
        return np.array([[self.samples[i].power_w, self.samples[i].perf_ips]
                         for i in indices], dtype=float)


def _split_indices(seed: int, groups: list) -> tuple[list[int], list[int]]:
    """Shuffle the sorted groups by ``seed`` and cut them where the train side
    comes nearest to floor(0.7 n) rows (ties go to the larger train side),
    leaving at least one group on each side."""
    blocks: dict = {}
    for i, g in enumerate(groups):
        blocks.setdefault(g, []).append(i)
    if len(blocks) < 2:
        raise WattrankError(f"a split needs at least 2 runs or workloads, got {len(blocks)}")
    keys = sorted(blocks)
    shuffled = [blocks[keys[p]] for p in np.random.default_rng(seed).permutation(len(keys))]
    n_train = (7 * len(groups)) // 10
    sizes = np.cumsum([len(b) for b in shuffled]).tolist()
    cut = min(range(1, len(shuffled)), key=lambda k: (abs(sizes[k - 1] - n_train), -k))
    return [i for b in shuffled[:cut] for i in b], [i for b in shuffled[cut:] for i in b]


def assemble(
    samples: list[LabeledSample], seed: int = 42, group_by_workload: bool = False
) -> TrainingDataset:
    """Deterministic shuffle-and-split plus train-side normalization stats.

    Raises :class:`TooFewSamples` below n=3,
    :class:`InconsistentFeatureLength` if rows disagree on feature count, and
    :class:`WattrankError` for a negative ``seed``, when the samples hold
    fewer than 2 runs (2 workloads with ``group_by_workload``) or when the
    statistics are not finite.
    """
    if seed < 0:
        raise WattrankError(f"seed must be a non-negative integer, got {seed}")
    n = len(samples)
    if n < 3:
        raise TooFewSamples(n)
    width = samples[0].features.shape[0]
    for sample in samples:
        if sample.features.shape != (width,):
            raise InconsistentFeatureLength(
                f"expected {width} features, {sample.workload_id}/{sample.device_name} "
                f"has {sample.features.shape}"
            )

    if group_by_workload:
        groups = [s.workload_id for s in samples]
    else:  # a run is the index of its first sample, so replicates stay together
        first: dict = {}
        groups = [first.setdefault((s.workload_id, s.device_name), i)
                  for i, s in enumerate(samples)]
    return TrainingDataset(list(samples), *_split_indices(seed, groups), seed)


_TARGET_COLUMN = {"power": 0, "perf": 1}


def feature_importance(ds: TrainingDataset, target: str) -> list[tuple[str, float]]:
    """Pearson correlation of each feature with the target on the train split.

    Returns (name, score) pairs sorted by |score| descending; constant
    columns (or a constant target) score 0.
    """
    if target not in _TARGET_COLUMN:
        raise ValueError(f"target must be 'power' or 'perf', got {target!r}")
    X = ds.feature_matrix(ds.train_indices)
    y = ds.target_matrix(ds.train_indices)[:, _TARGET_COLUMN[target]]
    names = _column_names(X.shape[1])

    xc = X - X.mean(axis=0)
    yc = y - y.mean()
    x_ss = (xc**2).sum(axis=0)
    y_ss = (yc**2).sum()
    scores = np.zeros(X.shape[1])
    if y_ss > 0:
        valid = x_ss > 0
        scores[valid] = (xc[:, valid] * yc[:, None]).sum(axis=0) / np.sqrt(
            x_ss[valid] * y_ss
        )
    ranked = sorted(
        zip(names, scores.tolist()), key=lambda pair: abs(pair[1]), reverse=True
    )
    return [(name, float(score)) for name, score in ranked]


def save_dataset(ds: TrainingDataset, prefix) -> tuple[Path, Path]:
    """Write ``<prefix>.csv`` (samples) and ``<prefix>.json`` (seed, split)."""
    prefix = Path(prefix)
    csv_path = prefix.with_suffix(".csv")
    json_path = prefix.with_suffix(".json")
    with open(csv_path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_header(ds.samples[0].features.shape[0]))
        for s in ds.samples:
            writer.writerow(
                [s.workload_id, s.device_name]
                + [repr(float(x)) for x in s.features]
                + [repr(float(s.power_w)), repr(float(s.perf_ips))]
            )
    sidecar = {
        "seed": ds.seed,
        "train_indices": list(ds.train_indices),
        "val_indices": list(ds.val_indices),
    }
    json_path.write_text(json_dumps(sidecar, indent=2) + "\n", encoding="utf-8")
    return csv_path, json_path


def load_dataset(prefix) -> TrainingDataset:
    """Inverse of :func:`save_dataset`; the statistics come from the train rows.

    A header other than the one :func:`save_dataset` writes for its width
    raises :class:`InconsistentFeatureLength`.  A row whose field count
    differs from the header's, a non-numeric or non-finite cell, or a line
    the CSV reader cannot read raises :class:`UnparsableValue` naming its
    CSV row.  A sidecar whose indices do not split the rows into two
    non-empty sides raises :class:`CorruptDataset` naming the sidecar; its
    other keys (``norm_stats`` in older sidecars, say) are ignored.  Train
    rows whose statistics overflow a float raise :class:`WattrankError`
    naming the CSV.
    """
    prefix = Path(prefix)
    csv_path = prefix.with_suffix(".csv")
    with open(csv_path, newline="", encoding="utf-8") as fh:
        reader = csv_rows(fh)
        header = next(reader, [])
        if header != _header(len(header) - 4):
            raise InconsistentFeatureLength(f"unexpected dataset header {header!r}")
        samples = []
        for row_number, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != len(header):
                raise UnparsableValue(
                    row_number, f"{len(row)} fields, header has {len(header)}"
                )
            try:
                values = np.array([float(x) for x in row[2:]])
            except ValueError as exc:
                raise UnparsableValue(row_number, str(exc)) from exc
            if not np.isfinite(values).all():
                raise UnparsableValue(row_number, "non-finite value")
            power_w, perf_ips = values[-2:].tolist()
            samples.append(LabeledSample(row[0], row[1], values[:-2], power_w, perf_ips))
    json_path = prefix.with_suffix(".json")
    try:
        with open(json_path, encoding="utf-8") as fh:
            sidecar = json_loads(fh.read())  # decode errors are ValueErrors
        train_idx, val_idx = sidecar["train_indices"], sidecar["val_indices"]
        indices = [json_value(i, int) for i in (*train_idx, *val_idx)]
        seed = json_value(sidecar["seed"], int)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptDataset(f"{json_path}: not a dataset sidecar: {exc!r}") from exc
    n = len(samples)
    if not (train_idx and val_idx and sorted(indices) == list(range(n))):
        raise CorruptDataset(
            f"{json_path}: train_indices and val_indices do not split {n} rows"
        )
    try:
        return TrainingDataset(samples, train_idx, val_idx, seed)
    except WattrankError as exc:
        raise WattrankError(f"{csv_path}: {exc}") from exc
