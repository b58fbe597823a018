"""Device ranking: score model predictions and order candidate GPGPUs."""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass, fields

from .device_catalog import DeviceSpec
from .errors import WattrankError
from .estimator import MlpModel, Prediction, predict
from .instruction_profiler import InstructionProfile
from .json_types import json_dumps, json_loads, json_value


class EmptyCatalog(WattrankError):
    pass


class AllDevicesExcluded(WattrankError):
    pass


#: Each objective's score of a ranked (positive) prediction; the highest ranks first.
_SCORES = {
    "max_perf": lambda p: p.perf_ips,
    "min_power": lambda p: -p.power_w,
    "max_perf_per_watt": lambda p: p.perf_ips / p.power_w,
}
OBJECTIVES = tuple(_SCORES)

# CLI-friendly spellings.
OBJECTIVE_ALIASES = {
    "perf": "max_perf",
    "power": "min_power",
    "perf_per_watt": "max_perf_per_watt",
}


@dataclass(frozen=True)
class RankingEntry:
    device_name: str
    power_w: float
    perf_ips: float
    objective_score: float
    rank: int


@dataclass(frozen=True)
class RankingResult:
    entries: list[RankingEntry]
    excluded: list[Prediction]
    objective: str
    power_cap_w: float | None


def resolve_objective(name: str) -> str:
    canonical = OBJECTIVE_ALIASES.get(name, name)
    if canonical not in OBJECTIVES:
        raise WattrankError(
            f"unknown objective {name!r}; choose from {OBJECTIVES}"
        )
    return canonical


def rank_predictions(
    predictions: list[Prediction],
    objective: str = "max_perf_per_watt",
    power_cap_w: float | None = None,
) -> RankingResult:
    """Order predictions by objective score (descending, ties by name).

    A prediction that is not positive (:attr:`Prediction.clamped`) or whose
    power exceeds ``power_cap_w`` is listed separately; :class:`AllDevicesExcluded`
    is raised when no device is left.  A NaN cap, which no power exceeds, is rejected.
    """
    objective = resolve_objective(objective)
    score = _SCORES[objective]
    if power_cap_w is not None and math.isnan(power_cap_w):
        raise WattrankError("power cap must be a number, got nan")
    if not predictions:
        raise EmptyCatalog("no devices to rank")

    cap = math.inf if power_cap_w is None else power_cap_w
    excluded = sorted((p for p in predictions if p.clamped or p.power_w > cap),
                      key=lambda p: p.device_name)
    kept = [p for p in predictions if not (p.clamped or p.power_w > cap)]
    if not kept:
        n = sum(p.clamped for p in excluded)
        raise AllDevicesExcluded(f"no device left to rank; excluded {n} not positive, "
                                 f"{len(excluded) - n} over the power cap")

    kept.sort(key=lambda p: (-score(p), p.device_name))
    entries = [
        RankingEntry(p.device_name, p.power_w, p.perf_ips, score(p), rank)
        for rank, p in enumerate(kept, start=1)
    ]
    return RankingResult(
        entries=entries,
        excluded=excluded,
        objective=objective,
        power_cap_w=power_cap_w,
    )


def rank_devices(
    profile: InstructionProfile,
    catalog: list[DeviceSpec],
    model: MlpModel,
    objective: str = "max_perf_per_watt",
    power_cap_w: float | None = None,
) -> RankingResult:
    """Predict power/performance per cataloged device and rank them."""
    predictions = [predict(model, profile, device) for device in catalog]
    return rank_predictions(predictions, objective, power_cap_w)


#: Each column of the JSON and CSV reports: key (and CSV header), the
#: :class:`RankingEntry` attribute it holds and its JSON kind.  An excluded
#: device has the columns that a :class:`Prediction` has.
_COLUMNS = (
    ("rank", "rank", int),
    ("device", "device_name", str),
    ("power_w", "power_w", float),
    ("perf_ips", "perf_ips", float),
    ("score", "objective_score", float),
)
_EXCLUDED_COLUMNS = tuple(
    column for column in _COLUMNS if column[1] in {f.name for f in fields(Prediction)}
)
CSV_HEADER = ",".join(key for key, _, _ in _COLUMNS)


def _row(item, columns) -> dict:
    return {key: getattr(item, attr) for key, attr, _ in columns}


def _json_report(result: RankingResult) -> str:
    return json_dumps(
        {
            "objective": result.objective,
            "power_cap_w": result.power_cap_w,
            "entries": [_row(e, _COLUMNS) for e in result.entries],
            "excluded": [_row(p, _EXCLUDED_COLUMNS) for p in result.excluded],
        },
        indent=2,
    )


def _csv_report(result: RankingResult) -> str:
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(key for key, _, _ in _COLUMNS)
    writer.writerows(_row(e, _COLUMNS).values() for e in result.entries)
    return out.getvalue()


def _table_report(result: RankingResult) -> str:
    cap = "" if result.power_cap_w is None else f"   power cap: {result.power_cap_w} W"
    lines = [
        f"objective: {result.objective}{cap}",
        f"{'rank':>4}  {'device':<12} {'power_w':>10} {'perf_ips':>14} {'score':>14}",
    ]
    for e in result.entries:
        lines.append(
            f"{e.rank:>4}  {e.device_name:<12} {e.power_w:>10.2f} "
            f"{e.perf_ips:>14.4g} {e.objective_score:>14.6g}"
        )
    if result.excluded:
        lines.append("excluded:")
        for p in result.excluded:
            lines.append(f"      {p.device_name:<12} {p.power_w:>10.2f} {p.perf_ips:>14.4g}  "
                         + ("not positive" if p.clamped else "over the power cap"))
    return "\n".join(lines) + "\n"


_REPORTS = {"table": _table_report, "json": _json_report, "csv": _csv_report}
FORMATS = tuple(_REPORTS)


def report(result: RankingResult, format: str = "table") -> str:
    """Render a ranking as a table, JSON document, or CSV text (quoted by
    :mod:`csv`)."""
    if format not in _REPORTS:
        raise WattrankError(f"unknown report format {format!r}")
    return _REPORTS[format](result)


def parse_report_json(text: str) -> RankingResult:
    """Rebuild a :class:`RankingResult` from :func:`report`'s JSON output.

    Raises :class:`WattrankError` unless device names and the objective are
    strings, ranks are integers, and watts, performance, scores and the
    power cap (or null) are JSON numbers.
    """
    try:
        doc = json_loads(text)
        entries = [RankingEntry(**_read(e, _COLUMNS)) for e in doc["entries"]]
        excluded = [
            Prediction(**_read(p, _EXCLUDED_COLUMNS), workload_id="")
            for p in doc["excluded"]
        ]
        cap = doc["power_cap_w"]
        return RankingResult(
            entries=entries,
            excluded=excluded,
            objective=json_value(doc["objective"], str),
            power_cap_w=None if cap is None else json_value(cap, float),
        )
    except (KeyError, TypeError, ValueError) as exc:  # JSONDecodeError is a ValueError
        raise WattrankError(f"not a ranking report: {exc!r}") from exc


def _read(row: dict, columns) -> dict:
    """``row``'s columns as attribute values, each read by its JSON kind."""
    return {attr: json_value(row[key], kind) for key, attr, kind in columns}
