"""Ingestion of nvidia-smi power logs and run metadata into measured labels.

nvidia-smi writes one CSV row per sampling interval (1 s by default) with a
``power.draw [W]`` column formatted like ``"110.25 W"``.  Power for a run is
the arithmetic mean over all samples.  The performance label is derived from
the workload's static instruction count: instructions-per-second =
static count x inference repetitions / wall-clock seconds, with the
repetition count supplied by the run metadata file.
"""

from __future__ import annotations

import csv
import io
import json
import math
import re
from dataclasses import dataclass
from datetime import datetime

from .device_catalog import DeviceSpec
from .errors import WattrankError
from .instruction_profiler import InstructionProfile


class MissingColumn(WattrankError):
    pass


class UnparsableValue(WattrankError):
    def __init__(self, row: int, detail: str):
        super().__init__(f"row {row}: {detail}")
        self.row = row


class EmptyTrace(WattrankError):
    pass


class NonPositiveDuration(WattrankError):
    pass


class ImplausiblePower(WattrankError):
    pass


@dataclass(frozen=True)
class PowerTrace:
    """Sampled power draw: (timestamp-or-index, watts) pairs in file order,
    and how many 0 W rows the parser dropped."""

    samples: tuple[tuple[float, float], ...]
    zero_w_dropped: int = 0


@dataclass(frozen=True)
class RunMeta:
    workload_id: str
    device_name: str
    wall_clock_s: float
    repetitions: int = 1


@dataclass(frozen=True)
class RunRecord:
    """Measured labels for one (workload, device) run."""

    workload_id: str
    device_name: str
    wall_clock_s: float
    static_instruction_count: int
    mean_power_w: float
    perf_ips: float


#: nvidia-smi's default sampling interval, in seconds.
SAMPLE_INTERVAL_S = 1.0

_TIMESTAMP_FORMATS = ("%Y/%m/%d %H:%M:%S.%f", "%Y/%m/%d %H:%M:%S")
# nvidia-smi's own shape, on which fromisoformat agrees with strptime.
_NVIDIA_SMI_TIMESTAMP_RE = re.compile(
    r"\d{4}/\d{2}/\d{2} \d{2}:\d{2}:\d{2}(?:\.\d{1,6})?", re.ASCII
)


def _parse_timestamp(raw: str) -> float | None:
    """Seconds as a float, or ``None`` when ``raw`` is no timestamp.

    nvidia-smi's ``YYYY/MM/DD HH:MM:SS[.ffffff]`` is read first, by
    ``fromisoformat``, ~10x faster than ``strptime``; such a string is never
    a number, so reading it before ``float`` changes no result.  Any other
    text, and any such string that ``fromisoformat`` rejects, is tried as a
    bare number, then by ``strptime`` with :data:`_TIMESTAMP_FORMATS`, then
    by ``fromisoformat``.
    """
    raw = raw.strip()
    if _NVIDIA_SMI_TIMESTAMP_RE.fullmatch(raw):
        try:
            return datetime.fromisoformat(raw.replace("/", "-")).timestamp()
        except ValueError:
            pass
    try:
        return float(raw)
    except ValueError:
        pass
    for fmt in _TIMESTAMP_FORMATS:
        try:
            return datetime.strptime(raw, fmt).timestamp()
        except ValueError:
            continue
    try:
        return datetime.fromisoformat(raw).timestamp()
    except ValueError:
        return None


def _parse_watts(raw: str, row: int) -> float:
    text = raw.strip()
    if text.lower().endswith("w"):
        text = text[:-1].strip()
    try:
        watts = float(text)
    except ValueError as exc:
        raise UnparsableValue(row, f"cannot parse power value {raw!r}") from exc
    if watts < 0 or not math.isfinite(watts):
        raise UnparsableValue(row, f"nonphysical power value {raw!r}")
    return watts


def parse_power_csv_text(text: str) -> PowerTrace:
    """A row without a parsable timestamp is stamped with its sample index
    times :data:`SAMPLE_INTERVAL_S`.  Rows that read exactly 0 W are dropped
    and counted in :attr:`PowerTrace.zero_w_dropped`."""
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("empty file: no header row") from None

    power_col = None
    time_col = None
    for index, column in enumerate(header):
        name = column.strip().lower()
        if "power.draw" in name and power_col is None:
            power_col = index
        if "timestamp" in name and time_col is None:
            time_col = index
    if power_col is None:
        raise MissingColumn(f"no column matching 'power.draw' in header {header!r}")

    samples: list[tuple[float, float]] = []
    zero_w_dropped = 0
    last_ts = -math.inf
    for row_number, row in enumerate(reader, start=2):
        if not any(map(str.strip, row)):
            continue
        if power_col >= len(row):
            raise UnparsableValue(row_number, f"row has no power field: {row!r}")
        watts = _parse_watts(row[power_col], row_number)
        if watts == 0.0:
            # A powered GPU never reads exactly 0 W; treat as sensor glitch.
            zero_w_dropped += 1
            continue
        timestamp = None
        if time_col is not None and time_col < len(row):
            timestamp = _parse_timestamp(row[time_col])
        if timestamp is None:
            timestamp = float(len(samples)) * SAMPLE_INTERVAL_S
        if timestamp < last_ts:
            raise UnparsableValue(row_number, "timestamps decrease")
        last_ts = timestamp
        samples.append((timestamp, watts))

    if not samples:
        raise EmptyTrace("no power samples in file")
    return PowerTrace(samples=tuple(samples), zero_w_dropped=zero_w_dropped)


def parse_power_csv(path) -> PowerTrace:
    """Parse an nvidia-smi power log; see :func:`parse_power_csv_text`."""
    with open(path, encoding="utf-8") as fh:
        return parse_power_csv_text(fh.read())


def trace_to_csv(trace: PowerTrace) -> str:
    """Serialize a trace back to CSV; re-parsing reproduces the samples."""
    lines = ["timestamp, power.draw [W]"]
    lines.extend(f"{ts!r}, {watts!r} W" for ts, watts in trace.samples)
    return "\n".join(lines) + "\n"


def mean_power(trace: PowerTrace) -> float:
    """Arithmetic mean of the sampled watts over the entire run."""
    if not trace.samples:
        raise EmptyTrace("cannot average an empty trace")
    return math.fsum(watts for _, watts in trace.samples) / len(trace.samples)


def load_run_meta(path) -> RunMeta:
    """Read run metadata JSON: ``workload_id`` and ``device_name`` must be
    strings, ``wall_clock_s`` a number (not a boolean)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)  # JSONDecodeError is a ValueError
        workload_id, device_name, wall_clock_s = (
            doc[key] for key in ("workload_id", "device_name", "wall_clock_s")
        )
        if type(workload_id) is not str or type(device_name) is not str:
            raise TypeError("workload_id and device_name must be strings")
        if type(wall_clock_s) not in (int, float):
            raise TypeError(f"wall_clock_s must be a number, got {wall_clock_s!r}")
        meta = RunMeta(
            workload_id=workload_id,
            device_name=device_name,
            wall_clock_s=float(wall_clock_s),
            repetitions=doc.get("repetitions", 1),
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise UnparsableValue(0, f"bad run metadata {path}: {exc}") from exc
    _check_meta(meta)
    return meta


def _check_meta(meta: RunMeta) -> None:
    if not math.isfinite(meta.wall_clock_s):
        raise UnparsableValue(0, f"wall_clock_s must be finite, got {meta.wall_clock_s}")
    if meta.wall_clock_s <= 0:
        raise NonPositiveDuration(f"wall_clock_s = {meta.wall_clock_s}")
    if type(meta.repetitions) is not int or meta.repetitions < 1:
        raise UnparsableValue(
            0, f"repetitions must be an integer >= 1, got {meta.repetitions!r}"
        )


def build_run_record(
    profile: InstructionProfile,
    device: DeviceSpec,
    trace: PowerTrace,
    meta: RunMeta,
) -> RunRecord:
    """Combine a profile, device, and power trace into measured labels.

    The mean power is sanity-checked against the device TDP (plus 20%
    headroom) when the catalog knows it.
    """
    _check_meta(meta)
    watts = mean_power(trace)
    if device.tdp_watts is not None and watts > 1.2 * device.tdp_watts:
        raise ImplausiblePower(
            f"mean power {watts:.1f} W exceeds 1.2 x TDP "
            f"({device.tdp_watts:.1f} W) for {device.name}"
        )
    return RunRecord(
        workload_id=profile.workload_id,
        device_name=device.name,
        wall_clock_s=meta.wall_clock_s,
        static_instruction_count=profile.total,
        mean_power_w=watts,
        perf_ips=profile.total * meta.repetitions / meta.wall_clock_s,
    )
