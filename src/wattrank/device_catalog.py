"""Architectural feature records for candidate GPGPU devices.

The catalog is a JSON array of device records restricted to features that
are published across NVIDIA generations (SM count, FP32 cores, L2 size,
clocks, memory bandwidth).  FP64 core counts are deliberately not part of
the schema: they are not reported for every architecture.  TDP is carried
as an optional sanity bound for measured power, not as a model feature.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from importlib import resources

import numpy as np

from .errors import WattrankError


class SchemaError(WattrankError):
    def __init__(self, field: str, record: str):
        super().__init__(f"catalog record {record!r}: bad or missing field {field!r}")
        self.field = field
        self.record = record


class DuplicateName(WattrankError):
    def __init__(self, name: str):
        super().__init__(f"duplicate device name {name!r}")
        self.name = name


@dataclass(frozen=True)
class DeviceSpec:
    name: str
    architecture: str
    sm_count: int
    fp32_cores: int
    l2_cache_kib: int
    core_clock_mhz: float
    memory_clock_mhz: float
    memory_bandwidth_gbps: float
    tdp_watts: float | None = None
    provenance: str | None = None


_STR_FIELDS = ("name", "architecture")
_INT_FIELDS = ("sm_count", "fp32_cores", "l2_cache_kib")
_FLOAT_FIELDS = ("core_clock_mhz", "memory_clock_mhz", "memory_bandwidth_gbps")
_OPTIONAL_FIELDS = ("tdp_watts", "provenance")
_ALL_FIELDS = _STR_FIELDS + _INT_FIELDS + _FLOAT_FIELDS + _OPTIONAL_FIELDS

#: The required numeric fields, in this order, are the device features; part
#: of the on-disk dataset contract.
DEVICE_FEATURE_NAMES = [*_INT_FIELDS, *_FLOAT_FIELDS]


def _validate_record(raw: dict, label: str) -> DeviceSpec:
    for key in raw:
        if key not in _ALL_FIELDS:
            raise SchemaError(key, label)
    for field in _STR_FIELDS:
        if not isinstance(raw.get(field), str) or not raw[field]:
            raise SchemaError(field, label)
    for field in _INT_FIELDS:
        value = raw.get(field)
        if not isinstance(value, int) or isinstance(value, bool) or value <= 0:
            raise SchemaError(field, label)
    for field in _FLOAT_FIELDS:
        value = raw.get(field)
        if not isinstance(value, (int, float)) or isinstance(value, bool) or value <= 0:
            raise SchemaError(field, label)
    tdp = raw.get("tdp_watts")
    if tdp is not None and (
        not isinstance(tdp, (int, float)) or isinstance(tdp, bool) or tdp <= 0
    ):
        raise SchemaError("tdp_watts", label)
    provenance = raw.get("provenance")
    if provenance is not None and not isinstance(provenance, str):
        raise SchemaError("provenance", label)
    values = {field: raw.get(field) for field in _ALL_FIELDS}
    for field in _FLOAT_FIELDS + ("tdp_watts",):
        if values[field] is not None:
            values[field] = float(values[field])
    return DeviceSpec(**values)


def parse_catalog(text: str) -> list[DeviceSpec]:
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise SchemaError("<json>", f"<parse error: {exc}>") from exc
    if not isinstance(raw, list):
        raise SchemaError("<root>", "<catalog must be a JSON array>")
    specs: list[DeviceSpec] = []
    seen: set[str] = set()
    for index, record in enumerate(raw):
        label = record.get("name", f"#{index}") if isinstance(record, dict) else f"#{index}"
        if not isinstance(record, dict):
            raise SchemaError("<record>", label)
        spec = _validate_record(record, str(label))
        if spec.name in seen:
            raise DuplicateName(spec.name)
        seen.add(spec.name)
        specs.append(spec)
    return specs


def load_catalog(path) -> list[DeviceSpec]:
    """Load and validate a catalog file, preserving record order."""
    with open(path, encoding="utf-8") as fh:
        return parse_catalog(fh.read())


def save_catalog(specs: list[DeviceSpec], path) -> None:
    records = [
        {k: v for k, v in asdict(spec).items() if v is not None} for spec in specs
    ]
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(records, fh, indent=2)
        fh.write("\n")


def default_catalog() -> list[DeviceSpec]:
    """The catalog shipped with the package (V100, 2080Ti, 1080Ti)."""
    text = resources.files("wattrank").joinpath("data/default_catalog.json").read_text()
    return parse_catalog(text)


def find_device(catalog: list[DeviceSpec], name: str) -> DeviceSpec:
    for spec in catalog:
        if spec.name == name:
            return spec
    raise SchemaError("name", name)


def device_to_features(d: DeviceSpec) -> np.ndarray:
    """Fixed-order numeric feature vector; name/architecture/TDP excluded."""
    return np.array([getattr(d, name) for name in DEVICE_FEATURE_NAMES], dtype=float)
