"""Architectural feature records for candidate GPGPU devices.

The catalog is a JSON array of device records restricted to features that
are published across NVIDIA generations (SM count, FP32 cores, L2 size,
clocks, memory bandwidth).  FP64 core counts are deliberately not part of
the schema: they are not reported for every architecture.  TDP is carried
as an optional sanity bound for measured power, not as a model feature.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass
from importlib import resources
from pathlib import Path
from typing import Iterable

import numpy as np

from .errors import WattrankError
from .json_types import json_dumps, json_loads, json_value


class SchemaError(WattrankError):
    def __init__(self, field: str, record: str, message: str | None = None):
        super().__init__(
            message or f"catalog record {record!r}: bad or missing field {field!r}"
        )
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


#: Each record field and its JSON kind (see :mod:`wattrank.json_types`), in
#: :class:`DeviceSpec` order.
_FIELD_KINDS = {
    "name": str, "architecture": str,
    "sm_count": int, "fp32_cores": int, "l2_cache_kib": int,
    "core_clock_mhz": float, "memory_clock_mhz": float, "memory_bandwidth_gbps": float,
    "tdp_watts": float, "provenance": str,
}
_OPTIONAL_FIELDS = ("tdp_watts", "provenance")  # may be absent or null

#: The required numeric fields, in this order, are the device features; part
#: of the on-disk dataset contract.
DEVICE_FEATURE_NAMES = [
    f for f, kind in _FIELD_KINDS.items() if kind is not str and f not in _OPTIONAL_FIELDS
]


def _field_value(raw: dict, field: str, label: str):
    """``raw[field]`` read by its kind: a name must be non-empty, a device
    ``name`` printable too, and a number positive and finite as a float."""
    value, kind = raw.get(field), _FIELD_KINDS[field]
    if value is None and field in _OPTIONAL_FIELDS:
        return None
    try:
        value = json_value(value, kind)
        if field == "name":
            valid = value != "" and value.isprintable()
        elif kind is str:
            valid = value != "" or field == "provenance"
        else:
            valid = 0 < json_value(value, float) < math.inf
    except (TypeError, ValueError):
        valid = False
    if not valid:
        raise SchemaError(field, label)
    return value


def _validate_record(raw, index: int) -> DeviceSpec:
    try:
        raw = json_value(raw, dict)
    except TypeError:
        raise SchemaError("<record>", f"#{index}") from None
    label = str(raw.get("name", f"#{index}"))
    for key in raw:
        if key not in _FIELD_KINDS:
            raise SchemaError(key, label)
    return DeviceSpec(**{field: _field_value(raw, field, label) for field in _FIELD_KINDS})


def unique_names(specs: Iterable[DeviceSpec]) -> list[DeviceSpec]:
    """``specs`` in order; raises :class:`DuplicateName` at the first name
    seen twice."""
    by_name: dict[str, DeviceSpec] = {}
    for spec in specs:
        if spec.name in by_name:
            raise DuplicateName(spec.name)
        by_name[spec.name] = spec
    return list(by_name.values())


def parse_catalog(text: str) -> list[DeviceSpec]:
    try:
        raw = json_value(json_loads(text), list)
    except ValueError as exc:  # bad or too deeply nested JSON, or too long an integer
        raise SchemaError("<json>", f"<parse error: {exc}>") from exc
    except TypeError:
        raise SchemaError("<root>", "<catalog must be a JSON array>") from None
    return unique_names(_validate_record(record, index) for index, record in enumerate(raw))


def load_catalog(path) -> list[DeviceSpec]:
    """Load and validate a catalog file, preserving record order."""
    with open(path, encoding="utf-8") as fh:
        return parse_catalog(fh.read())


def save_catalog(specs: list[DeviceSpec], path) -> None:
    records = [
        {k: v for k, v in asdict(spec).items() if v is not None} for spec in specs
    ]
    Path(path).write_text(json_dumps(records, indent=2) + "\n", encoding="utf-8")


def default_catalog() -> list[DeviceSpec]:
    """The catalog shipped with the package (V100, 2080Ti, 1080Ti)."""
    text = resources.files("wattrank").joinpath("data/default_catalog.json").read_text()
    return parse_catalog(text)


def find_device(catalog: list[DeviceSpec], name: str) -> DeviceSpec:
    for spec in catalog:
        if spec.name == name:
            return spec
    names = ", ".join(repr(spec.name) for spec in catalog)
    raise SchemaError("name", name, f"device {name!r} is not in the catalog ({names})")


def device_to_features(d: DeviceSpec) -> np.ndarray:
    """Fixed-order numeric feature vector; name/architecture/TDP excluded."""
    return np.array([getattr(d, name) for name in DEVICE_FEATURE_NAMES], dtype=float)
