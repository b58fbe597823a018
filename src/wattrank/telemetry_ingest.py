"""Ingestion of nvidia-smi power logs and run metadata into measured labels.

nvidia-smi writes one CSV row per sampling interval (1 s by default) with a
``power.draw [W]`` column formatted like ``"110.25 W"``.  Power for a run is
the arithmetic mean over all samples.  The performance label is derived from
the workload's static instruction count: instructions-per-second =
static count x inference repetitions / wall-clock seconds, with the
repetition count supplied by the run metadata file.  No label reads a time,
so the log's timestamp column is not read: kept rows are placed
:data:`SAMPLE_INTERVAL_S` apart.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

from .device_catalog import DeviceSpec
from .errors import WattrankError
from .instruction_profiler import InstructionProfile
from .json_types import json_loads, json_value


class MissingColumn(WattrankError):
    pass


class UnparsableValue(WattrankError):
    """A value that does not parse, in a CSV ``row`` or (``row`` None) in run
    metadata."""

    def __init__(self, row: int | None, detail: str):
        super().__init__(detail if row is None else f"row {row}: {detail}")
        self.row = row


class EmptyTrace(WattrankError):
    pass


class NonPositiveDuration(WattrankError):
    pass


class ImplausiblePower(WattrankError):
    pass


class MismatchedRun(WattrankError):
    """The run metadata names another workload or device than the profile
    and device it is joined with."""


@dataclass(frozen=True)
class PowerTrace:
    """Sampled power draw: (seconds, watts) pairs in file order, and how many
    0 W rows the parser dropped.  A parsed log's seconds are the kept row's
    index times :data:`SAMPLE_INTERVAL_S`."""

    samples: tuple[tuple[float, float], ...]
    zero_w_dropped: int = 0


@dataclass(frozen=True)
class RunMeta:
    workload_id: str
    device_name: str
    wall_clock_s: float
    repetitions: int = 1

    def __post_init__(self):
        if not math.isfinite(self.wall_clock_s):
            raise UnparsableValue(None, f"wall_clock_s must be finite, got {self.wall_clock_s}")
        if self.wall_clock_s <= 0:
            raise NonPositiveDuration(f"wall_clock_s = {self.wall_clock_s}")
        if type(self.repetitions) is not int or self.repetitions < 1:
            raise UnparsableValue(
                None, f"repetitions must be an integer >= 1, got {self.repetitions!r}"
            )


@dataclass(frozen=True)
class RunRecord:
    """Measured labels for one run; :func:`build_run_record` checks them."""

    mean_power_w: float
    perf_ips: float


#: nvidia-smi's default sampling interval, in seconds.
SAMPLE_INTERVAL_S = 1.0


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


def csv_rows(lines):
    """The rows of ``csv.reader(lines)``; a line it cannot read (a field over
    its size limit, say) raises :class:`UnparsableValue` naming the line."""
    reader = csv.reader(lines)
    try:
        yield from reader
    except csv.Error as exc:
        raise UnparsableValue(reader.line_num, f"unreadable CSV line: {exc}") from None


def parse_power_csv_text(text: str) -> PowerTrace:
    """Read the ``power.draw`` column; no other column, the timestamp
    included, is read.  Each kept row is stamped with its index among the
    kept rows times :data:`SAMPLE_INTERVAL_S`.  Rows that read exactly 0 W
    are dropped and counted in :attr:`PowerTrace.zero_w_dropped`.  A row
    whose power field is missing or does not parse (a repeated header row,
    say) raises :class:`UnparsableValue` naming the row.  Lines end as in a
    file read in text mode: at LF, CRLF or a lone CR."""
    reader = csv_rows(io.StringIO(text, newline=None))
    try:
        header = next(reader)
    except StopIteration:
        raise MissingColumn("empty file: no header row") from None

    power_col = None
    for index, column in enumerate(header):
        if "power.draw" in column.lower():
            power_col = index
            break
    if power_col is None:
        raise MissingColumn(f"no column matching 'power.draw' in header {header!r}")

    samples: list[tuple[float, float]] = []
    zero_w_dropped = 0
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
        samples.append((len(samples) * SAMPLE_INTERVAL_S, watts))

    if not samples:
        raise EmptyTrace("no power samples in file")
    return PowerTrace(samples=tuple(samples), zero_w_dropped=zero_w_dropped)


def parse_power_csv(path) -> PowerTrace:
    """Parse an nvidia-smi power log; see :func:`parse_power_csv_text`."""
    with open(path, encoding="utf-8") as fh:
        return parse_power_csv_text(fh.read())


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
            doc = json_loads(fh.read())  # decode errors are ValueErrors
        return RunMeta(
            workload_id=json_value(doc["workload_id"], str),
            device_name=json_value(doc["device_name"], str),
            wall_clock_s=json_value(doc["wall_clock_s"], float),
            repetitions=doc.get("repetitions", 1),
        )
    except KeyError as exc:
        raise UnparsableValue(None, f"run metadata {path}: missing field {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise UnparsableValue(None, f"bad run metadata {path}: {exc}") from exc


def build_run_record(
    profile: InstructionProfile,
    device: DeviceSpec,
    trace: PowerTrace,
    meta: RunMeta,
) -> RunRecord:
    """Combine a profile, device, and power trace into measured labels.

    The metadata must name the profile's workload and the device.  The mean
    power is sanity-checked against the device TDP (plus 20% headroom) when
    the catalog knows it, and the instructions per second must be finite.
    """
    if meta.workload_id != profile.workload_id or meta.device_name != device.name:
        raise MismatchedRun(
            f"run metadata is for {meta.workload_id!r} on {meta.device_name!r}, "
            f"but the profile is {profile.workload_id!r} and the device {device.name!r}"
        )
    watts = mean_power(trace)
    if device.tdp_watts is not None and watts > 1.2 * device.tdp_watts:
        raise ImplausiblePower(
            f"mean power {watts:.1f} W exceeds 1.2 x TDP "
            f"({device.tdp_watts:.1f} W) for {device.name}"
        )
    try:
        perf_ips = profile.total * meta.repetitions / meta.wall_clock_s
    except OverflowError:  # an int too large for a float
        perf_ips = math.inf
    if not math.isfinite(perf_ips):
        raise UnparsableValue(
            None, f"{profile.total} instructions x {meta.repetitions} repetitions / "
            f"{meta.wall_clock_s} s is not a finite instructions per second"
        )
    return RunRecord(mean_power_w=watts, perf_ips=perf_ips)
