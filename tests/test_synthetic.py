import math
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattrank import synthetic
from wattrank.dataset_builder import feature_vector
from wattrank.errors import WattrankError
from wattrank.instruction_profiler import CLASS_ORDER, profile
from wattrank.ptx_parser import parse_ptx

COUNTS = st.dictionaries(st.sampled_from(CLASS_ORDER), st.integers(0, 60))
NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,12}", fullmatch=True)


@settings(max_examples=80, deadline=None)
@given(counts=COUNTS, name=NAMES, seed=st.integers(0, 2**32 - 1))
def test_workload_ptx_profiles_to_its_counts(counts, name, seed):
    text = synthetic.make_workload_ptx(counts, name, np.random.default_rng(seed))
    prof = profile(parse_ptx(text), name)
    assert prof.counts == {cls: counts.get(cls, 0) for cls in CLASS_ORDER}
    assert prof.total == sum(counts.values())


@pytest.mark.parametrize("field,value", [
    ("seed", -1), ("n_workloads", 0), ("n_workloads", -3),
    ("noise_frac", -0.5), ("noise_frac", math.nan), ("noise_frac", math.inf),
])
def test_config_names_the_field_it_refuses(field, value):
    with pytest.raises(WattrankError, match=f"^{field} must be .*, got {value}$"):
        synthetic.SyntheticConfig(**{field: value})


@pytest.mark.parametrize("seed", [0, 7])
def test_generate_is_deterministic_in_seed(seed):
    config = synthetic.SyntheticConfig(n_workloads=4, seed=seed)
    assert synthetic.generate(config) == synthetic.generate(config)
    other = synthetic.generate(synthetic.SyntheticConfig(n_workloads=4, seed=seed + 1))
    assert other.kernels != synthetic.generate(config).kernels


def test_generated_features_are_those_of_the_parsed_kernels(monkeypatch):
    """Each pair's features, from which ``generate`` plants the labels, equal
    those of its kernel through the parser."""
    pairs = []

    def recording(prof, device):
        pairs.append((prof.workload_id, device, feature_vector(prof, device)))
        return pairs[-1][2]

    monkeypatch.setattr(synthetic, "feature_vector", recording)
    experiment = synthetic.generate(synthetic.SyntheticConfig(n_workloads=6, seed=2))
    assert [(name, device.name) for name, device, _ in pairs] == [
        (run.meta.workload_id, run.meta.device_name) for run in experiment.runs]
    for name, device, features in pairs:
        parsed = profile(parse_ptx(experiment.kernels[name]), name)
        np.testing.assert_array_equal(features, feature_vector(parsed, device))


def test_generate_does_not_parse(monkeypatch):
    def fail(text):
        raise AssertionError("generate parsed a kernel")

    monkeypatch.setattr(synthetic, "parse_ptx", fail)
    synthetic.generate(synthetic.SyntheticConfig(n_workloads=3, seed=1))


def test_kernels_hold_each_workload_once_and_runs_each_pair_once():
    experiment = synthetic.generate(synthetic.SyntheticConfig(n_workloads=5, seed=3))
    names = [f"cnn_{w:03d}" for w in range(5)]
    assert list(experiment.kernels) == names
    for name, text in experiment.kernels.items():
        assert text.count(".entry") == 1 and f".entry {name}(" in text
    devices = [d.name for d in experiment.devices]
    pairs = [(run.meta.workload_id, run.meta.device_name) for run in experiment.runs]
    assert pairs == list(product(names, devices))

    samples = synthetic.ingest_experiment(experiment)
    assert [(s.workload_id, s.device_name) for s in samples] == pairs
