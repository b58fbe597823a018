"""Every loader returns a valid object or raises a WattrankError.

Inputs are drawn two ways: arbitrary text, and a valid document with one
node (the root, a field or an element, at any depth) replaced by an
arbitrary JSON value or, in an object, removed.  The values lean on the
cases a type rule gets wrong: null, booleans, integers no float can hold,
NaN, infinities, digit strings and nested arrays and objects.
"""

import json
import math
from dataclasses import asdict, replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattrank.dataset_builder import (
    LabeledSample,
    NormStats,
    assemble,
    load_dataset,
    sample_from_json,
    sample_to_json,
    save_dataset,
)
from wattrank.device_catalog import (
    default_catalog,
    device_to_features,
    parse_catalog,
    save_catalog,
)
from wattrank.errors import WattrankError
from wattrank.estimator import Prediction, init_model, load_model, save_model
from wattrank.instruction_profiler import profile, profile_from_json, profile_to_json
from wattrank.json_types import json_loads, json_numbers, json_value
from wattrank.ptx_parser import parse_ptx
from wattrank.ranking import parse_report_json, rank_predictions, report
from wattrank.telemetry_ingest import load_run_meta, parse_power_csv_text

HUGE = 10**400

_SPECIAL = st.sampled_from(
    [None, True, False, 0, -1, HUGE, -HUGE, math.nan, math.inf, -math.inf, "", "7", "-2.5e3"]
)
_LEAF = _SPECIAL | st.integers() | st.floats() | st.text(max_size=6)
JSON_VALUES = _SPECIAL | (
    _LEAF
    | st.lists(_LEAF, max_size=3)
    | st.lists(st.lists(_LEAF, max_size=2), max_size=2)
    | st.dictionaries(st.text(max_size=4), _LEAF, max_size=2)
)
# Arbitrary text, weighted toward the characters that structure JSON, CSV
# and PTX (a lone "\r" among them).
TEXT = st.text(max_size=80) | st.text(st.sampled_from('\r\n\t ,;."{}[]():-+eE0123456789W'),
                                      max_size=80)


@st.composite
def mutated(draw, doc):
    """``doc`` as JSON text with one node replaced (or removed)."""

    def swap(node):
        if isinstance(node, dict):
            keys = list(node)
        elif isinstance(node, list):
            keys = list(range(len(node)))
        else:
            keys = []
        if not keys or draw(st.integers(0, 3)) == 0:
            return draw(JSON_VALUES)
        key = draw(st.sampled_from(keys))
        copy = node.copy()
        if isinstance(node, dict) and draw(st.integers(0, 7)) == 0:
            del copy[key]
        else:
            copy[key] = swap(node[key])
        return copy

    return json.dumps(swap(doc))


def _outcome(load, arg):
    """``load(arg)``, or ``None`` for a WattrankError; any other error fails."""
    try:
        return load(arg)
    except WattrankError:
        return None


def _check_catalog(catalog):
    for spec in catalog or []:
        features = device_to_features(spec)
        assert np.isfinite(features).all() and (features > 0).all(), spec
        assert spec.tdp_watts is None or 0 < spec.tdp_watts < math.inf, spec


@pytest.fixture(scope="module")
def docs(tmp_path_factory, corpus_doc):
    """Valid documents for each loader, and text-taking versions of the file
    loaders (each writes the text to its own file first)."""
    root = tmp_path_factory.mktemp("fuzz")
    catalog_path = root / "catalog.json"
    save_catalog(default_catalog(), catalog_path)
    prof = profile(corpus_doc, "copy")
    sample = LabeledSample("copy", "V100", np.arange(14.0), 150.0, 1e9)
    ranking = rank_predictions(
        [Prediction(120.0, 1e9, "V100", "copy"), Prediction(260.0, 2e9, "2080Ti", "copy")],
        power_cap_w=250.0,
    )
    rows = [LabeledSample(f"w{i}", "V100", np.array([i, i * i, 1.0]), 100.0 + i, 1e9 * i)
            for i in range(1, 6)]
    dataset = assemble(rows, seed=1)
    prefix = root / "ds"
    save_dataset(dataset, prefix)
    model_path = root / "model.json"
    save_model(replace(init_model(3, [2], seed=0), norm=dataset.norm), model_path)

    def via(path, load, arg=None):
        def run(text):
            path.write_text(text, encoding="utf-8")
            return load(arg or path)
        return run

    texts = {
        "catalog": catalog_path.read_text(),
        "profile": profile_to_json(prof),
        "sample": sample_to_json(sample),
        "report": report(ranking, "json"),
        "run_meta": json.dumps({"workload_id": "copy", "device_name": "V100",
                                "wall_clock_s": 1.5, "repetitions": 3}),
        "model": model_path.read_text(),
        "sidecar": prefix.with_suffix(".json").read_text(),
    }
    loaders = {
        "catalog": parse_catalog,
        "profile": profile_from_json,
        "sample": sample_from_json,
        "report": parse_report_json,
        "run_meta": via(root / "meta.json", load_run_meta),
        "model": via(model_path, load_model),
        "sidecar": via(prefix.with_suffix(".json"), load_dataset, prefix),
    }
    for name, text in texts.items():  # every valid document loads
        assert loaders[name](text) is not None, name
    return {name: (json.loads(text), loaders[name]) for name, text in texts.items()}


LOADERS = ["catalog", "profile", "sample", "report", "run_meta", "model", "sidecar"]


@pytest.mark.parametrize("name", LOADERS)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_json_loaders_on_mutated_documents(docs, name, data):
    doc, load = docs[name]
    result = _outcome(load, data.draw(mutated(doc), label="text"))
    if name == "catalog":
        _check_catalog(result)


def _catalog_with(field, literal):
    records = [{k: v for k, v in asdict(d).items() if v is not None}
               for d in default_catalog()]
    records[0][field] = "@@"
    return json.dumps(records).replace('"@@"', literal)


@pytest.mark.parametrize("name", LOADERS)
def test_every_json_loader_rejects_nesting_too_deep_to_decode(docs, name):
    with pytest.raises(WattrankError):
        docs[name][1]("[" * 100000)


def _nested(depth, leaf):
    for _ in range(depth):
        leaf = [leaf]
    return leaf


@pytest.mark.parametrize(
    "name,path",
    [("sample", ["features"]), ("model", ["weights", 0]), ("model", ["norm_stats", "target_stds"]),
     ("sidecar", ["train_indices"]), ("catalog", [0, "sm_count"])],
)
@pytest.mark.parametrize("depth", [40, 200])
def test_json_loaders_reject_deep_arrays_that_decode(docs, name, path, depth):
    """Arrays deeper than numpy's 32 iterable dimensions, inside documents
    that the decoder can read."""
    doc, load = docs[name]
    doc = json.loads(json.dumps(doc))
    node = doc
    for key in path[:-1]:
        node = node[key]
    node[path[-1]] = _nested(depth, 1.0)
    with pytest.raises(WattrankError):
        load(json.dumps(doc))


def test_json_loads_turns_deep_nesting_into_value_error():
    assert json_loads("[[1]]") == [[1]]
    with pytest.raises(ValueError, match="nested too deeply"):
        json_loads('{"a": ' * 100000)
    assert json_numbers(_nested(40, 2)).shape == (1,) * 40
    with pytest.raises(TypeError, match="expected a number"):
        json_numbers(_nested(40, "2"))


@settings(max_examples=120, deadline=None)
@given(text=TEXT)
@example(text=_catalog_with("sm_count", str(HUGE)))
@example(text=_catalog_with("core_clock_mhz", "NaN"))
@example(text="timestamp, power.draw [W]\r5, 100 W\r6, 110 W\r")
def test_every_loader_on_arbitrary_text(docs, text):
    for name in LOADERS:
        result = _outcome(docs[name][1], text)
        if name == "catalog":
            _check_catalog(result)
    _outcome(parse_power_csv_text, text)
    _outcome(parse_power_csv_text, "timestamp, power.draw [W]\n" + text)
    _outcome(parse_ptx, text)


@pytest.mark.parametrize(
    "value,kind,expected",
    [("a", str, "a"), (3, int, 3), (3, float, 3.0), (2.5, float, 2.5), ([], list, []),
     ({}, dict, {}), (math.inf, float, math.inf)],
)
def test_json_value_accepts_its_kind(value, kind, expected):
    out = json_value(value, kind)
    assert out == expected and type(out) is kind


@pytest.mark.parametrize(
    "value,kind",
    [(True, int), (False, float), (None, str), ("3", int), ("2.5", float), (2.0, int),
     (3, str), ({}, list), ([], dict)],
)
def test_json_value_rejects_other_types(value, kind):
    with pytest.raises(TypeError, match="expected"):
        json_value(value, kind)


def test_every_writer_refuses_a_number_that_is_not_finite(tmp_path):
    norm = NormStats(np.zeros(14), np.ones(14), np.zeros(2), np.ones(2))
    model = replace(init_model(14, [], seed=0), norm=norm)
    model.weights[0][0, 0] = math.nan
    writers = [  # a perf per watt that overflows, a NaN weight, an infinite label and clock
        lambda: report(rank_predictions([Prediction(1e-300, 1e10, "a", "w")]), "json"),
        lambda: save_model(model, tmp_path / "model.json"),
        lambda: sample_to_json(LabeledSample("w", "V100", np.ones(14), math.inf, 1.0)),
        lambda: save_catalog(
            [replace(default_catalog()[0], core_clock_mhz=-math.inf)], tmp_path / "catalog.json"),
    ]
    for write in writers:
        with pytest.raises(WattrankError, match="JSON"):
            write()
    assert not list(tmp_path.iterdir())  # a refused file is not even created


def test_json_value_rejects_numbers_no_float_holds():
    assert json_value(HUGE, int) == HUGE
    with pytest.raises(ValueError, match="out of range"):
        json_value(HUGE, float)
    with pytest.raises(ValueError, match="out of range"):
        json_numbers([1, HUGE])
    with pytest.raises(TypeError, match="expected a number"):
        json_numbers([[1.0, True]])
    assert json_numbers([[1, 2.5]]).tolist() == [[1.0, 2.5]]


@pytest.mark.parametrize(
    "change,message",
    [({"feature_means": [0.0]}, "stats of 1 features"),
     ({"target_stds": [1.0]}, "stats of 2 features"),
     ({"feature_stds": [1.0, math.nan]}, "non-finite"),
     ({"target_means": [0.0, math.inf]}, "non-finite"),
     ({"feature_means": 5.0}, "stats of 1 features")],
)
def test_norm_stats_check_their_own_shape(change, message):
    good = {"feature_means": [0.0, 1.0], "feature_stds": [1.0, 2.0],
            "target_means": [5.0, 6.0], "target_stds": [1.0, 1.0]}
    assert NormStats.from_dict(good).to_dict() == good
    with pytest.raises(ValueError, match=message):
        NormStats.from_dict({**good, **change})
