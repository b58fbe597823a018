from dataclasses import fields

import pytest
from hypothesis import given
from hypothesis import strategies as st

from wattrank.device_catalog import DeviceSpec
from wattrank.instruction_profiler import profile
from wattrank.ptx_parser import parse_ptx
from wattrank.telemetry_ingest import (
    EmptyTrace,
    ImplausiblePower,
    MismatchedRun,
    MissingColumn,
    NonPositiveDuration,
    PowerTrace,
    RunMeta,
    RunRecord,
    UnparsableValue,
    build_run_record,
    mean_power,
    parse_power_csv,
    parse_power_csv_text,
)

HEADER = "timestamp, power.draw [W]\n"

DEVICE = DeviceSpec("dev", "Test", 10, 640, 1024, 1000.0, 800.0, 200.0, tdp_watts=250.0)


def _watts(trace):
    return [w for _, w in trace.samples]


def test_three_row_transcription():
    trace = parse_power_csv_text(HEADER + "t1, 100.0 W\nt2, 110.0 W\nt3, 120.0 W\n")
    assert _watts(trace) == [100.0, 110.0, 120.0]


def test_mean_power_exact():
    trace = parse_power_csv_text(HEADER + "a, 100.0 W\nb, 110.0 W\nc, 120.0 W\n")
    assert mean_power(trace) == 110.0


def test_mixed_value_formats_parse_identically():
    trace = parse_power_csv_text(HEADER + "x, 95 W\ny, 95.00 W\nz, 95\n")
    assert _watts(trace) == [95.0, 95.0, 95.0]


def test_header_match_is_case_insensitive_substring():
    trace = parse_power_csv_text("index, Power.Draw [W], util\n0, 42.5 W, 17 %\n")
    assert _watts(trace) == [42.5]


def test_missing_power_column():
    with pytest.raises(MissingColumn):
        parse_power_csv_text("timestamp, utilization.gpu [%]\n0, 50 %\n")


def test_empty_data_section():
    with pytest.raises(EmptyTrace):
        parse_power_csv_text(HEADER)


def test_blank_rows_are_skipped():
    trace = parse_power_csv_text(HEADER + "a, 100.0 W\n\n , \t\n,\nb, 110.0 W\n")
    assert _watts(trace) == [100.0, 110.0]
    assert trace.zero_w_dropped == 0


def test_unparsable_value_reports_row():
    with pytest.raises(UnparsableValue) as excinfo:
        parse_power_csv_text(HEADER + "a, 100.0 W\nb, oops W\n")
    assert excinfo.value.row == 3


@pytest.mark.parametrize("field", ["timestamp", "power"])
def test_field_over_the_csv_size_limit_reports_its_line(field):
    long = "1" * 140000
    row = f"{long}, 100 W\n" if field == "timestamp" else f"2, {long}\n"
    with pytest.raises(UnparsableValue, match="field larger than field limit") as info:
        parse_power_csv_text(HEADER + "1, 100 W\n" + row + "3, 100 W\n")
    assert info.value.row == 3
    with pytest.raises(UnparsableValue) as info:
        parse_power_csv_text("x" * 140000 + "\n1, 100 W\n")
    assert info.value.row == 1


def test_negative_power_rejected():
    with pytest.raises(UnparsableValue):
        parse_power_csv_text(HEADER + "a, -5.0 W\n")


def test_zero_watt_glitches_dropped():
    trace = parse_power_csv_text(HEADER + "a, 100.0 W\nb, 0.0 W\nc, 120.0 W\n")
    assert _watts(trace) == [100.0, 120.0]
    with pytest.raises(EmptyTrace):
        parse_power_csv_text(HEADER + "a, 0.0 W\n")


def test_zero_watt_rows_are_counted():
    watts = [0.0 if i in (0, 5, 6, 19) else 100.0 + i for i in range(20)]
    text = HEADER + "".join(f"2021/03/01 10:00:{i:02d}, {w:.2f} W\n" for i, w in enumerate(watts))
    trace = parse_power_csv_text(text)
    assert trace.zero_w_dropped == 4
    assert _watts(trace) == [w for w in watts if w]
    assert parse_power_csv_text(HEADER + "a, 100.0 W\n").zero_w_dropped == 0


@pytest.mark.parametrize(
    "text",
    [
        "power.draw [W]\n100 W\n110 W\n120 W\n",
        HEADER + "2021/03/01 10:00:00.000, 100 W\n2021/03/01 10:00:01.000, 110 W\n"
        "2021/03/01 10:00:02.000, 120 W\n",
        HEADER + "N/A, 100.0 W\nN/A, 0 W\nN/A, 110.0 W\nN/A, 120.0 W\n",
        "power.draw [W], timestamp\n100 W, 2021/03/01 10:00:00.000\n110 W\n"
        "120 W, 2021/03/01 10:00:02.000\n",
        # nvidia-smi writes local time, so at a DST fall-back its stamps go back an hour
        HEADER + "2021/11/07 01:59:58.000, 100 W\n2021/11/07 01:59:59.000, 110 W\n"
        "2021/11/07 01:00:00.000, 120 W\n",
    ],
    ids=["no-timestamp-column", "nvidia-smi", "unreadable", "short-row", "dst-fall-back"],
)
def test_index_fallback_without_timestamp_column(text):
    trace = parse_power_csv_text(text)
    assert trace.samples == ((0.0, 100.0), (1.0, 110.0), (2.0, 120.0))


def test_log_pasted_twice_with_its_header_is_rejected_at_the_second_header():
    log = ("timestamp, name, power.draw [W], utilization.gpu [%]\n"
           "2021/03/01 10:00:00.000, Tesla V100, 100.00 W, 50 %\n"
           "2021/03/01 10:00:01.000, Tesla V100, 110.00 W, 50 %\n")
    with pytest.raises(UnparsableValue, match=r"power value ' power\.draw \[W\]'") as info:
        parse_power_csv_text(log + log)
    assert info.value.row == 4


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
def test_text_splits_lines_as_a_file_does(tmp_path, newline):
    text = newline.join([HEADER.rstrip("\n"), "5, 100.0 W", "6, 110.0 W", ""])
    path = tmp_path / "power.csv"
    path.write_bytes(text.encode())
    assert parse_power_csv_text(text) == parse_power_csv(path)
    assert parse_power_csv_text(text).samples == ((0.0, 100.0), (1.0, 110.0))


@given(st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=100),
       st.randoms(use_true_random=False))
def test_mean_invariant_under_reordering(watts, rand):
    trace = PowerTrace(tuple(enumerate(map(float, watts))))
    shuffled = list(watts)
    rand.shuffle(shuffled)
    other = PowerTrace(tuple(enumerate(map(float, shuffled))))
    assert mean_power(trace) == mean_power(other)


@given(
    st.lists(st.floats(min_value=1.0, max_value=1e4), min_size=1, max_size=50),
    st.floats(min_value=0.1, max_value=100.0),
)
def test_mean_scales_linearly(watts, c):
    base = PowerTrace(tuple(enumerate(map(float, watts))))
    scaled = PowerTrace(tuple((i, c * w) for i, w in base.samples))
    assert mean_power(scaled) == pytest.approx(c * mean_power(base), rel=1e-12)


def test_mean_against_two_pass_oracle():
    import numpy as np

    rng = np.random.default_rng(123)
    watts = rng.uniform(50.0, 250.0, size=1000)
    rows = HEADER + "".join(f"t{i}, {w} W\n" for i, w in enumerate(watts))
    trace = parse_power_csv_text(rows)
    first = sum(watts) / len(watts)
    oracle = first + sum(w - first for w in watts) / len(watts)
    assert abs(mean_power(trace) - oracle) <= 1e-9


def _profile_with_total(n):
    return profile(parse_ptx("\n".join("add.u32 %r1, %r2, %r3;" for _ in range(n))), "w")


def test_run_record_perf_simple():
    trace = PowerTrace(((0.0, 100.0), (1.0, 110.0), (2.0, 120.0)))
    meta = RunMeta("w", "dev", wall_clock_s=2.0, repetitions=1)
    record = build_run_record(_profile_with_total(20), DEVICE, trace, meta)
    assert record.perf_ips == 10.0
    assert record.mean_power_w == 110.0


def test_run_record_perf_with_repetitions():
    trace = PowerTrace(((0.0, 100.0),))
    meta = RunMeta("w", "dev", wall_clock_s=4.0, repetitions=1000)
    record = build_run_record(_profile_with_total(20), DEVICE, trace, meta)
    assert record.perf_ips == 5000.0


def test_perf_homogeneous_in_repetitions():
    trace = PowerTrace(((0.0, 100.0),))
    prof = _profile_with_total(20)
    one = build_run_record(prof, DEVICE, trace, RunMeta("w", "dev", 4.0, 10))
    two = build_run_record(prof, DEVICE, trace, RunMeta("w", "dev", 4.0, 20))
    assert two.perf_ips == 2 * one.perf_ips


def test_nonpositive_duration_rejected():
    trace = PowerTrace(((0.0, 100.0),))
    with pytest.raises(NonPositiveDuration):
        build_run_record(_profile_with_total(5), DEVICE, trace, RunMeta("w", "dev", 0.0, 1))


@pytest.mark.parametrize(
    "args,error",
    [((1.0, 2.5), UnparsableValue), ((1.0, True), UnparsableValue), ((1.0, 0), UnparsableValue),
     ((float("nan"), 1), UnparsableValue), ((float("inf"), 1), UnparsableValue),
     ((-1.0, 1), NonPositiveDuration)],
)
def test_run_meta_is_checked_when_built(args, error):
    with pytest.raises(error):
        RunMeta("w", "d", *args)


def test_empty_trace_propagates():
    with pytest.raises(EmptyTrace):
        build_run_record(
            _profile_with_total(5), DEVICE, PowerTrace(()), RunMeta("w", "dev", 1.0, 1)
        )


def test_power_above_tdp_bound_rejected():
    trace = PowerTrace(((0.0, 400.0),))  # 400 > 1.2 * 250
    with pytest.raises(ImplausiblePower):
        build_run_record(_profile_with_total(5), DEVICE, trace, RunMeta("w", "dev", 1.0, 1))


def test_run_record_holds_only_the_labels():
    # The ids come from the profile and device it is joined with (make_sample).
    assert [f.name for f in fields(RunRecord)] == ["mean_power_w", "perf_ips"]


@pytest.mark.parametrize(
    "meta", [RunMeta("other", "dev", 1.0, 1), RunMeta("w", "other_dev", 1.0, 1)],
    ids=["other-workload", "other-device"],
)
def test_meta_for_another_run_rejected(meta):
    trace = PowerTrace(((0.0, 100.0),))
    with pytest.raises(MismatchedRun, match="other"):
        build_run_record(_profile_with_total(5), DEVICE, trace, meta)


@pytest.mark.parametrize(
    "meta",
    [RunMeta("w", "dev", 1.0, 10**400), RunMeta("w", "dev", 1e-320, 1)],
    ids=["repetitions-overflow-float", "wall-clock-makes-infinite-perf"],
)
def test_non_finite_perf_label_rejected(meta):
    trace = PowerTrace(((0.0, 100.0),))
    with pytest.raises(UnparsableValue, match="not a finite instructions per second"):
        build_run_record(_profile_with_total(5), DEVICE, trace, meta)


def test_power_bound_skipped_without_tdp():
    no_tdp = DeviceSpec("dev", "Test", 10, 640, 1024, 1000.0, 800.0, 200.0)
    trace = PowerTrace(((0.0, 400.0),))
    record = build_run_record(_profile_with_total(5), no_tdp, trace, RunMeta("w", "dev", 1.0, 1))
    assert record.mean_power_w == 400.0
