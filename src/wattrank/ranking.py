"""Device ranking: score model predictions and order candidate GPGPUs."""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

from .device_catalog import DeviceSpec
from .errors import WattrankError
from .estimator import MlpModel, Prediction, predict
from .instruction_profiler import InstructionProfile
from .json_types import json_loads, json_value


class EmptyCatalog(WattrankError):
    pass


class AllDevicesExcluded(WattrankError):
    pass


OBJECTIVES = ("max_perf", "min_power", "max_perf_per_watt")

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


def _score(pred: Prediction, objective: str) -> float:
    if objective == "max_perf":
        return pred.perf_ips
    if objective == "min_power":
        return -pred.power_w
    # perf per watt; a clamped zero-power prediction dominates trivially
    return pred.perf_ips / pred.power_w if pred.power_w > 0 else math.inf


def rank_predictions(
    predictions: list[Prediction],
    objective: str = "max_perf_per_watt",
    power_cap_w: float | None = None,
) -> RankingResult:
    """Order predictions by objective score (descending, ties by name).

    Devices whose predicted power exceeds ``power_cap_w`` are listed
    separately; :class:`AllDevicesExcluded` is raised when no device
    survives the cap.  A NaN cap, which no power exceeds, is rejected.
    """
    objective = resolve_objective(objective)
    if power_cap_w is not None and math.isnan(power_cap_w):
        raise WattrankError("power cap must be a number, got nan")
    if not predictions:
        raise EmptyCatalog("no devices to rank")

    kept = []
    excluded = []
    for pred in predictions:
        if power_cap_w is not None and pred.power_w > power_cap_w:
            excluded.append(pred)
        else:
            kept.append(pred)
    if not kept:
        raise AllDevicesExcluded(
            f"power cap {power_cap_w} W excludes every device"
        )

    ordered = sorted(
        kept, key=lambda p: (-_score(p, objective), p.device_name)
    )
    entries = [
        RankingEntry(
            device_name=p.device_name,
            power_w=p.power_w,
            perf_ips=p.perf_ips,
            objective_score=_score(p, objective),
            rank=position,
        )
        for position, p in enumerate(ordered, start=1)
    ]
    excluded.sort(key=lambda p: p.device_name)
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
    if not catalog:
        raise EmptyCatalog("device catalog is empty")
    predictions = [predict(model, profile, device) for device in catalog]
    return rank_predictions(predictions, objective, power_cap_w)


CSV_HEADER = "rank,device,power_w,perf_ips,score"


def report(result: RankingResult, format: str = "table") -> str:
    """Render a ranking as a table, JSON document, or CSV text."""
    if format == "json":
        return json.dumps(
            {
                "objective": result.objective,
                "power_cap_w": result.power_cap_w,
                "entries": [
                    {
                        "rank": e.rank,
                        "device": e.device_name,
                        "power_w": e.power_w,
                        "perf_ips": e.perf_ips,
                        "score": e.objective_score,
                    }
                    for e in result.entries
                ],
                "excluded": [
                    {
                        "device": p.device_name,
                        "power_w": p.power_w,
                        "perf_ips": p.perf_ips,
                    }
                    for p in result.excluded
                ],
            },
            indent=2,
        )
    if format == "csv":
        lines = [CSV_HEADER]
        for e in result.entries:
            lines.append(
                f"{e.rank},{e.device_name},{e.power_w!r},{e.perf_ips!r},"
                f"{e.objective_score!r}"
            )
        return "\n".join(lines) + "\n"
    if format == "table":
        lines = [
            f"objective: {result.objective}"
            + (
                f"   power cap: {result.power_cap_w} W"
                if result.power_cap_w is not None
                else ""
            ),
            f"{'rank':>4}  {'device':<12} {'power_w':>10} {'perf_ips':>14} {'score':>14}",
        ]
        for e in result.entries:
            lines.append(
                f"{e.rank:>4}  {e.device_name:<12} {e.power_w:>10.2f} "
                f"{e.perf_ips:>14.4g} {e.objective_score:>14.6g}"
            )
        if result.excluded:
            lines.append(f"excluded by power cap ({result.power_cap_w} W):")
            for p in result.excluded:
                lines.append(f"      {p.device_name:<12} predicted {p.power_w:.2f} W")
        return "\n".join(lines) + "\n"
    raise WattrankError(f"unknown report format {format!r}")


def parse_report_json(text: str) -> RankingResult:
    """Rebuild a :class:`RankingResult` from :func:`report`'s JSON output.

    Raises :class:`WattrankError` unless device names and the objective are
    strings, ranks are integers, and watts, performance, scores and the
    power cap (or null) are JSON numbers.
    """
    try:
        doc = json_loads(text)
        entries = [
            RankingEntry(
                device_name=json_value(e["device"], str),
                power_w=json_value(e["power_w"], float),
                perf_ips=json_value(e["perf_ips"], float),
                objective_score=json_value(e["score"], float),
                rank=json_value(e["rank"], int),
            )
            for e in doc["entries"]
        ]
        excluded = [
            Prediction(
                power_w=json_value(p["power_w"], float),
                perf_ips=json_value(p["perf_ips"], float),
                device_name=json_value(p["device"], str),
                workload_id="",
            )
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
