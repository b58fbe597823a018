from datetime import datetime

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattrank.device_catalog import DeviceSpec
from wattrank.instruction_profiler import profile
from wattrank.ptx_parser import parse_ptx
from wattrank.telemetry_ingest import (
    EmptyTrace,
    ImplausiblePower,
    MissingColumn,
    NonPositiveDuration,
    PowerTrace,
    RunMeta,
    UnparsableValue,
    _parse_timestamp,
    build_run_record,
    mean_power,
    parse_power_csv_text,
    trace_to_csv,
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
    again = parse_power_csv_text(trace_to_csv(trace))
    assert again.samples == trace.samples and again.zero_w_dropped == 0


def _timestamp_oracle(raw: str) -> float | None:
    """``_parse_timestamp`` as it was before its nvidia-smi fast path."""
    raw = raw.strip()
    try:
        return float(raw)
    except ValueError:
        pass
    for fmt in ("%Y/%m/%d %H:%M:%S.%f", "%Y/%m/%d %H:%M:%S"):
        try:
            return datetime.strptime(raw, fmt).timestamp()
        except ValueError:
            continue
    try:
        return datetime.fromisoformat(raw).timestamp()
    except ValueError:
        return None


@st.composite
def _timestamp_like(draw):
    """Near misses of nvidia-smi's ``YYYY/MM/DD HH:MM:SS.fff`` as well as hits."""

    def number(low, high, widths=(1, 2, 2)):
        return f"{draw(st.integers(low, high)):0{draw(st.sampled_from(widths))}d}"

    sep = draw(st.sampled_from("//-"))
    year = number(1900, 2100, widths=(4, 4, 4, 5))
    if draw(st.integers(0, 9)) == 0:  # ISO week date
        date = f"{year}{sep}W{number(0, 54, widths=(2,))}{sep}{number(0, 8, widths=(1,))}"
    else:
        date = f"{year}{sep}{number(0, 13)}{sep}{number(0, 32)}"
    clock = ":".join(number(0, high) for high in (24, 60, 61)[: draw(st.integers(0, 3))])
    fraction = draw(st.sampled_from(["", "", ".", ","])) + draw(
        st.text("0123456789", max_size=7)
    )
    text = date
    if clock:
        text += draw(st.sampled_from([" ", " ", "T", "  ", "\t"])) + clock + fraction
    text += draw(st.sampled_from(["", "", "", "Z", "+01:00", "-0530", " UTC"]))
    if draw(st.integers(0, 4)) == 0:  # one digit as Arabic-Indic or fullwidth
        i = draw(st.sampled_from([i for i, ch in enumerate(text) if ch.isdigit()]))
        text = text[:i] + chr(draw(st.sampled_from([0x0660, 0xFF10])) + int(text[i])) + text[i + 1 :]
    pad = st.sampled_from(["", "", " ", "\t", "\u3000", "\n "])
    return draw(pad) + text + draw(pad)


@given(
    _timestamp_like()
    | st.integers(0, 10**10).map(str)
    | st.floats().map(repr)
    | st.text(max_size=30)
)
@example("2021/03/01 10:00:05.123")
@example("2021/03/01 10:00:05")
@example("2021/3/1 1:02:03.5")
@example("2021/03/01 10:00:05.1234567")
@example("2021/W09/1")
@example("2021/03/01T10")
@example("2021/13/01 10:00:00")
@example("2021/03/01 24:00:00")
@example("2021/03/01 10:00:60")
@example("20210301")
@settings(max_examples=500)
def test_timestamps_match_the_strptime_oracle(raw):
    """Every string reads as it did before the fast path: the same float or
    ``None`` (compared by repr, so NaN matches NaN)."""
    assert repr(_parse_timestamp(raw)) == repr(_timestamp_oracle(raw))


def test_nvidia_smi_timestamps_parsed():
    text = HEADER + (
        "2021/03/01 10:00:00.000, 100.0 W\n2021/03/01 10:00:01.000, 110.0 W\n"
    )
    trace = parse_power_csv_text(text)
    t0, t1 = (ts for ts, _ in trace.samples)
    assert t1 - t0 == pytest.approx(1.0)


def test_index_fallback_without_timestamp_column():
    trace = parse_power_csv_text("power.draw [W]\n100 W\n110 W\n")
    assert [ts for ts, _ in trace.samples] == [0.0, 1.0]


def test_serialization_round_trip():
    trace = parse_power_csv_text(HEADER + "1.5, 100.25 W\n2.5, 110.125 W\n")
    again = parse_power_csv_text(trace_to_csv(trace))
    assert again.samples == trace.samples


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
    assert record.static_instruction_count == 20


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


def test_empty_trace_propagates():
    with pytest.raises(EmptyTrace):
        build_run_record(
            _profile_with_total(5), DEVICE, PowerTrace(()), RunMeta("w", "dev", 1.0, 1)
        )


def test_power_above_tdp_bound_rejected():
    trace = PowerTrace(((0.0, 400.0),))  # 400 > 1.2 * 250
    with pytest.raises(ImplausiblePower):
        build_run_record(_profile_with_total(5), DEVICE, trace, RunMeta("w", "dev", 1.0, 1))


def test_power_bound_skipped_without_tdp():
    no_tdp = DeviceSpec("dev", "Test", 10, 640, 1024, 1000.0, 800.0, 200.0)
    trace = PowerTrace(((0.0, 400.0),))
    record = build_run_record(_profile_with_total(5), no_tdp, trace, RunMeta("w", "dev", 1.0, 1))
    assert record.mean_power_w == 400.0
