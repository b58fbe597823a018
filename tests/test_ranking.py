import csv
import io
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattrank.errors import WattrankError
from wattrank.estimator import Prediction
from wattrank.ranking import (
    CSV_HEADER,
    AllDevicesExcluded,
    EmptyCatalog,
    parse_report_json,
    rank_predictions,
    report,
    resolve_objective,
)


def _pred(name, power, perf):
    return Prediction(power_w=power, perf_ips=perf, device_name=name, workload_id="w")


def test_perf_per_watt_dominance():
    result = rank_predictions(
        [_pred("A", 100.0, 1e9), _pred("B", 200.0, 1e9)], "max_perf_per_watt"
    )
    assert result.entries[0].device_name == "A"
    assert result.entries[0].rank == 1
    assert result.entries[1].rank == 2


def test_singleton_catalog_ranks_first_under_every_objective():
    for objective in ("max_perf", "min_power", "max_perf_per_watt"):
        result = rank_predictions([_pred("only", 120.0, 5e8)], objective)
        assert [e.rank for e in result.entries] == [1]


def test_objective_scores():
    preds = [_pred("A", 100.0, 2e9), _pred("B", 50.0, 1e9)]
    by_perf = rank_predictions(preds, "max_perf")
    assert by_perf.entries[0].device_name == "A"
    assert by_perf.entries[0].objective_score == 2e9
    by_power = rank_predictions(preds, "min_power")
    assert by_power.entries[0].device_name == "B"
    assert by_power.entries[0].objective_score == -50.0


def test_objective_aliases():
    assert resolve_objective("perf_per_watt") == "max_perf_per_watt"
    assert resolve_objective("max_perf") == "max_perf"
    with pytest.raises(Exception):
        resolve_objective("fastest")


def test_ties_resolve_lexicographically():
    preds = [_pred(name, 100.0, 1e9) for name in ("zeta", "alpha", "mid")]
    result = rank_predictions(preds, "max_perf")
    assert [e.device_name for e in result.entries] == ["alpha", "mid", "zeta"]
    again = rank_predictions(preds, "max_perf")
    assert again.entries == result.entries


def test_power_cap_partitions_catalog():
    preds = [_pred("hot", 300.0, 3e9), _pred("warm", 200.0, 2e9), _pred("cool", 100.0, 1e9)]
    result = rank_predictions(preds, "max_perf", power_cap_w=250.0)
    ranked = {e.device_name for e in result.entries}
    excluded = {p.device_name for p in result.excluded}
    assert ranked == {"warm", "cool"}
    assert excluded == {"hot"}
    assert ranked | excluded == {"hot", "warm", "cool"}
    assert [e.rank for e in result.entries] == [1, 2]


def test_all_devices_excluded():
    with pytest.raises(AllDevicesExcluded):
        rank_predictions([_pred("hot", 300.0, 1e9)], "max_perf", power_cap_w=100.0)


def test_nan_power_cap_rejected():
    with pytest.raises(WattrankError, match="nan"):
        rank_predictions([_pred("cool", 100.0, 1e9)], "max_perf", power_cap_w=float("nan"))


def test_empty_catalog():
    with pytest.raises(EmptyCatalog):
        rank_predictions([], "max_perf")


def _reject_constant(token):
    raise AssertionError(f"report holds the non-JSON token {token}")


#: Watts or instructions per second: zero, or between 1e-6 and 1e3 either side of it.
_VALUES = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(1e-6, 1e3), st.floats(-1e3, -1e-6))


@given(
    st.lists(st.tuples(st.text(alphabet="abcdefgh", min_size=1, max_size=4), _VALUES, _VALUES),
             min_size=1, max_size=8, unique_by=lambda t: t[0]),
    st.sampled_from(["max_perf", "min_power", "max_perf_per_watt"]),
    st.one_of(st.none(), st.floats(-10.0, 1e3)),
)
@settings(max_examples=200)
def test_only_positive_predictions_under_the_cap_are_ranked(rows, objective, cap):
    preds = [_pred(name, power, perf) for name, power, perf in rows]
    limit = math.inf if cap is None else cap
    try:
        result = rank_predictions(preds, objective, power_cap_w=cap)
    except AllDevicesExcluded:
        assert all(p.clamped or p.power_w > limit for p in preds)
        return
    for e in result.entries:
        assert 0 < e.power_w <= limit and e.perf_ips > 0 and math.isfinite(e.objective_score)
    assert all(p.clamped or p.power_w > limit for p in result.excluded)
    names = [e.device_name for e in result.entries] + [p.device_name for p in result.excluded]
    assert sorted(names) == sorted(name for name, _, _ in rows)
    json.loads(report(result, "json"), parse_constant=_reject_constant)


def test_json_report_round_trips_not_positive_predictions():
    preds = [Prediction(power, perf, name, workload_id="") for name, power, perf in
             [("A", 100.0, 2e9), ("zero", 0.0, 1e9), ("neg", -3.5, 5e8),
              ("slow", 90.0, -1e7), ("hot", 300.0, 3e9)]]
    result = rank_predictions(preds, "max_perf_per_watt", power_cap_w=250.0)
    assert [p.device_name for p in result.excluded] == ["hot", "neg", "slow", "zero"]
    assert [p.clamped for p in result.excluded] == [False, True, True, True]
    again = parse_report_json(report(result, "json"))
    assert again == result
    assert [p.clamped for p in again.excluded] == [False, True, True, True]


def test_all_devices_excluded_counts_each_reason():
    preds = [_pred("neg", -1.0, 1e9), _pred("zero", 100.0, 0.0), _pred("hot", 300.0, 1e9)]
    with pytest.raises(AllDevicesExcluded, match="excluded 2 not positive, 1 over the power cap"):
        rank_predictions(preds, "max_perf", power_cap_w=250.0)


@given(
    st.lists(
        st.tuples(
            st.text(alphabet="abcdefgh", min_size=1, max_size=4),
            st.floats(min_value=1.0, max_value=1e3),
            st.floats(min_value=1.0, max_value=1e10),
        ),
        min_size=1,
        max_size=8,
        unique_by=lambda t: t[0],
    ),
    st.floats(min_value=1e-3, max_value=1e3),
)
@settings(max_examples=120)
def test_rank_order_invariant_under_positive_scaling(rows, c):
    preds = [_pred(name, power, perf) for name, power, perf in rows]
    scaled = [_pred(name, power, c * perf) for name, power, perf in rows]
    base = rank_predictions(preds, "max_perf")
    after = rank_predictions(scaled, "max_perf")
    assert [e.device_name for e in base.entries] == [e.device_name for e in after.entries]


def test_rank_order_invariant_under_monotone_transform():
    import math

    preds = [_pred(f"d{i}", 100.0 + i, (i + 1) * 1e8) for i in range(6)]
    transformed = [
        _pred(p.device_name, p.power_w, math.exp(p.perf_ips / 1e9)) for p in preds
    ]
    a = rank_predictions(preds, "max_perf")
    b = rank_predictions(transformed, "max_perf")
    assert [e.device_name for e in a.entries] == [e.device_name for e in b.entries]


def test_repeated_invocation_is_identical():
    preds = [_pred("A", 100.0, 2e9), _pred("B", 150.0, 3e9), _pred("C", 150.0, 3e9)]
    first = rank_predictions(preds, "max_perf_per_watt")
    second = rank_predictions(preds, "max_perf_per_watt")
    assert first == second


def _result():
    return rank_predictions(
        [_pred("A", 100.0, 2e9), _pred("B", 300.0, 3e9), _pred("C", 150.0, 1e9)],
        "max_perf_per_watt",
        power_cap_w=250.0,
    )


def test_csv_header_golden():
    text = report(_result(), "csv")
    assert text.splitlines()[0] == CSV_HEADER
    assert CSV_HEADER == "rank,device,power_w,perf_ips,score"
    assert len(text.splitlines()) == 3  # header + two ranked rows


def test_json_round_trips_to_same_entries():
    result = _result()
    again = parse_report_json(report(result, "json"))
    assert again.entries == result.entries
    assert again.objective == result.objective
    assert again.power_cap_w == result.power_cap_w
    assert [p.device_name for p in again.excluded] == [
        p.device_name for p in result.excluded
    ]


def _report_doc(change):
    doc = json.loads(report(_result(), "json"))
    change(doc)
    return json.dumps(doc)


@pytest.mark.parametrize(
    "text",
    [
        "{}",
        "[]",
        "not json",
        _report_doc(lambda d: d["entries"][0].pop("power_w")),
        _report_doc(lambda d: d["entries"][0].update(power_w="150")),
        _report_doc(lambda d: d["entries"][0].update(rank=True)),
        _report_doc(lambda d: d["entries"][0].update(device=7)),
        _report_doc(lambda d: d["excluded"].append({"device": "x"})),
        _report_doc(lambda d: d.update(power_cap_w="250")),
        _report_doc(lambda d: d.update(objective=None)),
    ],
    ids=["empty-object", "list", "malformed", "no-power", "string-power", "bool-rank",
         "numeric-device", "excluded-without-power", "string-cap", "null-objective"],
)
def test_parse_report_json_rejects_other_documents(text):
    with pytest.raises(WattrankError, match="not a ranking report"):
        parse_report_json(text)


def test_table_excluded_section_only_when_needed():
    capped = report(_result(), "table")
    assert "excluded" in capped
    uncapped = report(
        rank_predictions([_pred("A", 100.0, 2e9)], "max_perf"), "table"
    )
    assert "excluded" not in uncapped


def test_unknown_format_rejected():
    with pytest.raises(Exception):
        report(_result(), "yaml")


def _capped_result():
    """Two ranked devices, one over the cap, and one whose predicted power is
    not positive."""
    return rank_predictions(
        [_pred("V100", 212.5, 3.25e9), _pred("idle", -12.5, 1e8),
         _pred("2080Ti", 180.0, 2.5e9), _pred("Titan", 320.0, 4e9)],
        "perf_per_watt",
        power_cap_w=250.0,
    )


def test_report_texts_golden():
    result = _capped_result()
    assert report(result, "table") == (
        "objective: max_perf_per_watt   power cap: 250.0 W\n"
        "rank  device          power_w       perf_ips          score\n"
        "   1  V100             212.50       3.25e+09    1.52941e+07\n"
        "   2  2080Ti           180.00        2.5e+09    1.38889e+07\n"
        "excluded:\n"
        "      Titan            320.00          4e+09  over the power cap\n"
        "      idle             -12.50          1e+08  not positive\n"
    )
    assert report(result, "json") == """{
  "objective": "max_perf_per_watt",
  "power_cap_w": 250.0,
  "entries": [
    {
      "rank": 1,
      "device": "V100",
      "power_w": 212.5,
      "perf_ips": 3250000000.0,
      "score": 15294117.647058824
    },
    {
      "rank": 2,
      "device": "2080Ti",
      "power_w": 180.0,
      "perf_ips": 2500000000.0,
      "score": 13888888.888888888
    }
  ],
  "excluded": [
    {
      "device": "Titan",
      "power_w": 320.0,
      "perf_ips": 4000000000.0
    },
    {
      "device": "idle",
      "power_w": -12.5,
      "perf_ips": 100000000.0
    }
  ]
}"""
    assert report(result, "csv") == (
        "rank,device,power_w,perf_ips,score\n"
        "1,V100,212.5,3250000000.0,15294117.647058824\n"
        "2,2080Ti,180.0,2500000000.0,13888888.888888888\n"
    )
    again = parse_report_json(report(result, "json"))
    assert again.entries == result.entries
    assert [(p.device_name, p.power_w, p.perf_ips) for p in again.excluded] == [
        ("Titan", 320.0, 4e9), ("idle", -12.5, 1e8)
    ]


def test_csv_quotes_device_names():
    names = ['A100 (40GB, PCIe)', 'say "fast"', 'both, "x"']
    result = rank_predictions(
        [_pred(name, 100.0 + i, 1e9) for i, name in enumerate(names)], "max_perf"
    )
    rows = list(csv.reader(io.StringIO(report(result, "csv"))))
    assert rows[0] == CSV_HEADER.split(",")
    assert [len(row) for row in rows] == [5] * 4
    assert sorted(row[1] for row in rows[1:]) == sorted(names)
    assert [row[1] for row in rows[1:]] == [e.device_name for e in result.entries]
