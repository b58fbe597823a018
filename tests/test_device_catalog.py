import json
from importlib import resources

import pytest

from wattrank.device_catalog import (
    DeviceSpec,
    DuplicateName,
    SchemaError,
    default_catalog,
    device_to_features,
    find_device,
    load_catalog,
    parse_catalog,
    save_catalog,
    unique_names,
)

GOOD_RECORD = {
    "name": "TestGPU",
    "architecture": "Test",
    "sm_count": 10,
    "fp32_cores": 640,
    "l2_cache_kib": 1024,
    "core_clock_mhz": 1000.0,
    "memory_clock_mhz": 800.0,
    "memory_bandwidth_gbps": 200.0,
}


def test_default_catalog_reference_devices():
    catalog = default_catalog()
    v100 = find_device(catalog, "V100")
    assert (v100.l2_cache_kib, v100.fp32_cores, v100.sm_count) == (6144, 5120, 80)
    t2080 = find_device(catalog, "2080Ti")
    assert (t2080.l2_cache_kib, t2080.fp32_cores, t2080.sm_count) == (5632, 4352, 68)
    t1080 = find_device(catalog, "1080Ti")
    assert (t1080.l2_cache_kib, t1080.fp32_cores, t1080.sm_count) == (2816, 3584, 28)


def test_feature_vector_order():
    v100 = find_device(default_catalog(), "V100")
    assert device_to_features(v100).tolist() == [80, 5120, 6144, 1530.0, 877.0, 900.0]


def test_name_is_not_a_feature():
    a = DeviceSpec("a", "X", 1, 2, 3, 4.0, 5.0, 6.0)
    b = DeviceSpec("b", "Y", 1, 2, 3, 4.0, 5.0, 6.0, tdp_watts=100.0)
    assert device_to_features(a).tolist() == device_to_features(b).tolist()


def test_load_save_identity(tmp_path):
    path = tmp_path / "catalog.json"
    original = default_catalog()
    save_catalog(original, path)
    assert load_catalog(path) == original
    # a second bounce is also the identity
    save_catalog(load_catalog(path), path)
    assert load_catalog(path) == original


def test_saving_the_default_catalog_writes_the_shipped_file(tmp_path):
    save_catalog(default_catalog(), tmp_path / "c.json")
    shipped = resources.files("wattrank").joinpath("data/default_catalog.json")
    assert (tmp_path / "c.json").read_bytes() == shipped.read_bytes()


def test_empty_catalog():
    assert parse_catalog("[]") == []


def test_file_order_preserved(tmp_path):
    records = [dict(GOOD_RECORD, name=f"gpu{i}") for i in (3, 1, 2)]
    path = tmp_path / "cat.json"
    path.write_text(json.dumps(records))
    assert [d.name for d in load_catalog(path)] == ["gpu3", "gpu1", "gpu2"]


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda r: r.pop("sm_count"), "sm_count"),
        (lambda r: r.update(sm_count=0), "sm_count"),
        (lambda r: r.update(sm_count=-4), "sm_count"),
        (lambda r: r.update(sm_count=80.5), "sm_count"),
        (lambda r: r.update(sm_count=True), "sm_count"),
        (lambda r: r.update(core_clock_mhz="fast"), "core_clock_mhz"),
        (lambda r: r.update(name=""), "name"),
        (lambda r: r.update(tdp_watts=-1), "tdp_watts"),
        (lambda r: r.update(fp64_cores=2560), "fp64_cores"),
        (lambda r: r.update(extra="nope"), "extra"),
    ],
)
def test_schema_errors(mutate, field):
    record = dict(GOOD_RECORD)
    mutate(record)
    with pytest.raises(SchemaError) as excinfo:
        parse_catalog(json.dumps([record]))
    assert excinfo.value.field == field


@pytest.mark.parametrize("name", ["a\rb", "a\nb", "tab\there", "nul\x00", "\x85"])
def test_device_names_must_be_printable(name):
    """A CR in a name is written unquoted in the CSV report and splits its row."""
    with pytest.raises(SchemaError) as excinfo:
        parse_catalog(json.dumps([dict(GOOD_RECORD, name=name)]))
    assert excinfo.value.field == "name"


def _catalog_text(field: str, literal: str) -> str:
    """A one-record catalog whose ``field`` holds the JSON text ``literal``."""
    return json.dumps([dict(GOOD_RECORD, **{field: "@@"})]).replace('"@@"', literal)


_FLOAT_FIELDS = ["core_clock_mhz", "memory_clock_mhz", "memory_bandwidth_gbps", "tdp_watts"]
_INT_FIELDS = ["sm_count", "fp32_cores", "l2_cache_kib"]


@pytest.mark.parametrize(
    "field,literal",
    [(f, lit) for f in _FLOAT_FIELDS for lit in ("NaN", "Infinity", "-Infinity", "1e400")]
    + [(f, "1" + "0" * 400) for f in _INT_FIELDS + _FLOAT_FIELDS]
    + [("provenance", lit) for lit in ("7", "true", "[]", '{"a": "b"}')],
)
def test_catalog_numbers_must_be_finite_floats(field, literal):
    with pytest.raises(SchemaError) as excinfo:
        parse_catalog(_catalog_text(field, literal))
    assert excinfo.value.field == field


@pytest.mark.parametrize("literal", ['""', "null"])
def test_provenance_may_be_empty_or_null(literal):
    spec, = parse_catalog(_catalog_text("provenance", literal))
    assert spec.provenance == json.loads(literal)


def test_catalog_with_an_overlong_integer_is_a_schema_error():
    with pytest.raises(SchemaError):
        parse_catalog(_catalog_text("sm_count", "1" * 5000))


def test_unique_names_keeps_order_and_rejects_the_first_repeat():
    a, b = (DeviceSpec(n, "X", 1, 2, 3, 4.0, 5.0, 6.0) for n in "ab")
    assert unique_names([b, a]) == [b, a]
    with pytest.raises(DuplicateName) as excinfo:
        unique_names([a, b, a, a])
    assert excinfo.value.name == "a"
    with pytest.raises(DuplicateName):
        unique_names([a, a])


def test_duplicate_names_rejected():
    with pytest.raises(DuplicateName):
        parse_catalog(json.dumps([GOOD_RECORD, GOOD_RECORD]))


def test_find_device_missing():
    with pytest.raises(SchemaError):
        find_device(default_catalog(), "NoSuchGPU")


def test_provenance_round_trips(tmp_path):
    record = dict(GOOD_RECORD, provenance="whitepaper", tdp_watts=225.0)
    path = tmp_path / "cat.json"
    path.write_text(json.dumps([record]))
    loaded = load_catalog(path)
    assert loaded[0].provenance == "whitepaper"
    save_catalog(loaded, path)
    assert load_catalog(path) == loaded
