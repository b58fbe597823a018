import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wattrank import synthetic
from wattrank.dataset_builder import (
    InconsistentFeatureLength,
    LabeledSample,
    TooFewSamples,
    TrainingDataset,
    assemble,
    feature_importance,
    feature_names,
    feature_vector,
    ingest_run,
    load_dataset,
    make_sample,
    sample_from_json,
    sample_to_json,
    save_dataset,
)
from wattrank.device_catalog import DeviceSpec
from wattrank.errors import WattrankError
from wattrank.instruction_profiler import InstructionClass, profile
from wattrank.telemetry_ingest import (
    MismatchedRun,
    PowerTrace,
    RunMeta,
    UnparsableValue,
    build_run_record,
)

DEVICE = DeviceSpec("dev", "Test", 10, 640, 1024, 1000.0, 800.0, 200.0)


def _samples(X, Y, workloads=None):
    return [
        LabeledSample(
            workload_id=workloads[i] if workloads else f"w{i}",
            device_name=f"d{i % 3}",
            features=np.asarray(X[i], dtype=float),
            power_w=float(Y[i][0]),
            perf_ips=float(Y[i][1]),
        )
        for i in range(len(X))
    ]


def _random_samples(n, d=5, seed=0):
    rng = np.random.default_rng(seed)
    return _samples(rng.normal(size=(n, d)), rng.uniform(1, 10, size=(n, 2)))


def test_make_sample_concatenation_order(corpus_doc):
    prof = profile(corpus_doc, "copy_kernel")
    trace = PowerTrace(((0.0, 100.0),))
    record = build_run_record(prof, DEVICE, trace, RunMeta("copy_kernel", "dev", 2.0, 1))
    sample = make_sample(prof, DEVICE, record)
    assert sample.features.tolist() == [8, 3, 9, 0, 0, 0, 0, 0, 10, 640, 1024, 1000.0, 800.0, 200.0]
    assert len(sample.features) == len(feature_names()) == 14
    assert sample.power_w == 100.0
    assert sample.perf_ips == 10.0


def test_ingest_run_joins_the_device_that_the_metadata_names(corpus_doc):
    prof = profile(corpus_doc, "copy_kernel")  # 20 instructions
    other = replace(DEVICE, name="other", sm_count=20)
    trace = PowerTrace(((0.0, 100.0), (1.0, 120.0)))
    meta = RunMeta("copy_kernel", "other", 2.0, 3)
    sample = ingest_run(prof, [DEVICE, other], meta, trace)
    assert (sample.workload_id, sample.device_name) == ("copy_kernel", "other")
    assert sample.features.tolist() == feature_vector(prof, other).tolist()
    assert (sample.power_w, sample.perf_ips) == (110.0, 30.0)
    record = build_run_record(prof, other, trace, meta)
    assert sample_to_json(sample) == sample_to_json(make_sample(prof, other, record))
    with pytest.raises(WattrankError, match="not in the catalog"):
        ingest_run(prof, [DEVICE], meta, trace)
    with pytest.raises(MismatchedRun):
        ingest_run(profile(corpus_doc, "another_kernel"), [DEVICE, other], meta, trace)


def test_feature_vector_follows_feature_names(corpus_doc):
    prof = profile(corpus_doc, "copy_kernel")
    row = feature_vector(prof, DEVICE)
    for index, name in enumerate(feature_names()):
        if name in {cls.value for cls in InstructionClass}:
            assert row[index] == prof.counts[InstructionClass(name)], name
        else:
            assert row[index] == getattr(DEVICE, name), name


def test_sample_json_round_trip(corpus_doc):
    prof = profile(corpus_doc, "copy_kernel")
    record = build_run_record(
        prof, DEVICE, PowerTrace(((0.0, 100.0),)), RunMeta("copy_kernel", "dev", 2.0, 1)
    )
    sample = make_sample(prof, DEVICE, record)
    again = sample_from_json(sample_to_json(sample))
    assert again.workload_id == sample.workload_id
    assert again.features.tolist() == sample.features.tolist()
    assert (again.power_w, again.perf_ips) == (sample.power_w, sample.perf_ips)


def test_sample_json_rejects_reordered_features(corpus_doc):
    prof = profile(corpus_doc, "copy_kernel")
    record = build_run_record(
        prof, DEVICE, PowerTrace(((0.0, 100.0),)), RunMeta("copy_kernel", "dev", 2.0, 1)
    )
    text = sample_to_json(make_sample(prof, DEVICE, record))
    mangled = text.replace("sm_count", "sm_count_v2")
    with pytest.raises(InconsistentFeatureLength):
        sample_from_json(mangled)


_GOOD_SAMPLE = {
    "workload_id": "w", "device_name": "d", "features": [1.0] * 14,
    "power_w": 100.0, "perf_ips": 1e9,
}


@pytest.mark.parametrize("change", [
    {"features": [1.0] * 5},
    {"features": [1.0] * 15},
    {"features": [[1.0] * 14]},
    {"features": [1.0] * 13 + [float("nan")]},
    {"features": [1.0] * 13 + ["inf"]},
    {"power_w": "nan"},
    {"perf_ips": float("inf")},
    {"power_w": None},
    {"workload_id": 5},
    {"device_name": ["x"]},
    {"power_w": "150"},
    {"perf_ips": True},
    {"features": [1.0] * 13 + ["1.0"]},
    {"features": [1.0] * 13 + [False]},
])
def test_sample_json_rejects_bad_samples(change):
    assert sample_from_json(json.dumps(_GOOD_SAMPLE)).features.shape == (14,)
    with pytest.raises(InconsistentFeatureLength):
        sample_from_json(json.dumps({**_GOOD_SAMPLE, **change}))


@pytest.mark.parametrize("text", ["[]", '"sample"', "7", "null"])
def test_sample_json_rejects_non_objects(text):
    with pytest.raises(InconsistentFeatureLength):
        sample_from_json(text)


def test_split_sizes():
    ds = assemble(_random_samples(10), seed=42)
    assert len(ds.train_indices) == 7
    assert len(ds.val_indices) == 3
    ds = assemble(_random_samples(3), seed=42)
    assert len(ds.train_indices) == 2
    assert len(ds.val_indices) == 1


def test_split_is_deterministic_in_seed():
    samples = _random_samples(20)
    a = assemble(samples, seed=42)
    b = assemble(samples, seed=42)
    assert a.train_indices == b.train_indices
    assert a.val_indices == b.val_indices
    c = assemble(samples, seed=43)
    assert c.train_indices != a.train_indices


def test_split_partitions_everything():
    ds = assemble(_random_samples(33), seed=5)
    combined = sorted(ds.train_indices + ds.val_indices)
    assert combined == list(range(33))


def test_too_few_samples():
    with pytest.raises(TooFewSamples):
        assemble(_random_samples(2))


def test_inconsistent_feature_length():
    samples = _random_samples(5, d=4)
    bad = LabeledSample("w", "d", np.zeros(7), 1.0, 1.0)
    with pytest.raises(InconsistentFeatureLength):
        assemble(samples + [bad])


def _plain_split(n, seed):
    """The split of rows that are all distinct runs: a shuffle cut at
    floor(0.7 n)."""
    perm = np.random.default_rng(seed).permutation(n)
    n_train = (7 * n) // 10
    return [int(i) for i in perm[:n_train]], [int(i) for i in perm[n_train:]]


@pytest.mark.parametrize("seed", [0, 1, 7, 42, 2**31 - 1])
def test_unique_runs_split_like_a_plain_shuffle(seed):
    samples = _random_samples(200)
    for n in range(3, 201):
        ds = assemble(samples[:n], seed=seed)
        assert (ds.train_indices, ds.val_indices) == _plain_split(n, seed)


@pytest.fixture(scope="module")
def replicated():
    """The 12 runs of one experiment plus replicates of 6 of them."""
    def samples(seed):
        config = synthetic.SyntheticConfig(n_workloads=4, seed=seed)
        return synthetic.ingest_experiment(synthetic.generate(config))
    return samples(1) + samples(7)[:6]


@pytest.mark.parametrize("seed", [42, *range(10)])
def test_replicate_samples_of_a_run_stay_on_one_side(replicated, seed):
    ds = assemble(replicated, seed=seed)

    def runs(indices):
        return {(replicated[i].workload_id, replicated[i].device_name) for i in indices}

    assert not runs(ds.train_indices) & runs(ds.val_indices)
    assert sorted(ds.train_indices + ds.val_indices) == list(range(18))


def test_split_needs_two_runs():
    samples = _random_samples(3)
    one_run = [replace(s, workload_id="w", device_name="d") for s in samples]
    with pytest.raises(WattrankError, match="at least 2 runs"):
        assemble(one_run)


def test_grouped_split_keeps_workloads_together():
    workloads = [f"net{i // 4}" for i in range(24)]
    rng = np.random.default_rng(1)
    samples = _samples(rng.normal(size=(24, 4)), rng.uniform(1, 5, (24, 2)), workloads)
    ds = assemble(samples, seed=9, group_by_workload=True)
    train_w = {samples[i].workload_id for i in ds.train_indices}
    val_w = {samples[i].workload_id for i in ds.val_indices}
    assert not train_w & val_w
    assert sorted(ds.train_indices + ds.val_indices) == list(range(24))


@pytest.mark.parametrize("seed", range(5))
def test_grouped_split_two_workloads_three_devices(seed):
    workloads = [f"net{i // 3}" for i in range(6)]
    rng = np.random.default_rng(seed)
    samples = _samples(rng.normal(size=(6, 4)), rng.uniform(1, 5, (6, 2)), workloads)
    ds = assemble(samples, seed=seed, group_by_workload=True)
    assert len(ds.train_indices) == len(ds.val_indices) == 3
    assert {samples[i].workload_id for i in ds.train_indices} != {
        samples[i].workload_id for i in ds.val_indices
    }


@pytest.mark.parametrize("seed", range(3))
def test_grouped_split_cut_nearest_seventy_percent(seed):
    # 5 workloads x 5 devices: n_train = 17, so 15 train rows beat 20
    workloads = [f"net{i // 5}" for i in range(25)]
    rng = np.random.default_rng(seed)
    samples = _samples(rng.normal(size=(25, 3)), rng.uniform(1, 5, (25, 2)), workloads)
    ds = assemble(samples, seed=seed, group_by_workload=True)
    assert (len(ds.train_indices), len(ds.val_indices)) == (15, 10)


def test_grouped_split_never_empties_a_side():
    # group sizes 1 and 10: either order leaves one group on each side
    workloads = ["small"] + ["big"] * 10
    rng = np.random.default_rng(2)
    samples = _samples(rng.normal(size=(11, 3)), rng.uniform(1, 5, (11, 2)), workloads)
    for seed in range(6):
        ds = assemble(samples, seed=seed, group_by_workload=True)
        assert {len(ds.train_indices), len(ds.val_indices)} == {1, 10}


def test_grouped_split_needs_two_workloads():
    rng = np.random.default_rng(0)
    samples = _samples(rng.normal(size=(5, 3)), rng.uniform(1, 5, (5, 2)), ["only"] * 5)
    with pytest.raises(WattrankError):
        assemble(samples, group_by_workload=True)


def test_standardize_centering():
    ds = assemble(_random_samples(12), seed=0)
    np.testing.assert_allclose(
        ds.norm.standardize_features(ds.norm.feature_means), 0.0, atol=1e-15
    )


def test_standardized_train_rows_have_unit_moments():
    ds = assemble(_random_samples(40, d=6, seed=3), seed=7)
    Z = ds.norm.standardize_features(ds.feature_matrix(ds.train_indices))
    np.testing.assert_allclose(Z.mean(axis=0), 0.0, atol=1e-9)
    np.testing.assert_allclose(Z.std(axis=0), 1.0, atol=1e-9)


def test_constant_column_maps_to_zero():
    X = np.random.default_rng(0).normal(size=(10, 3))
    X[:, 1] = 4.25
    ds = assemble(_samples(X, np.ones((10, 2))), seed=0)
    probe = np.array([1.0, 99.0, 2.0])
    assert ds.norm.standardize_features(probe)[1] == 0.0


def test_importance_self_and_anti_correlation():
    rng = np.random.default_rng(8)
    base = rng.normal(size=30)
    X = np.column_stack([base, -base, rng.normal(size=30)])
    Y = np.column_stack([base, base])
    ds = assemble(_samples(X, Y), seed=1)
    scores = dict(feature_importance(ds, "power"))
    assert scores["f0"] == pytest.approx(1.0)
    assert scores["f1"] == pytest.approx(-1.0)


def test_importance_ranks_planted_feature_first():
    rng = np.random.default_rng(15)
    X = rng.normal(size=(60, 4))
    target = 3.0 * X[:, 1] + rng.normal(scale=1e-6, size=60)
    ds = assemble(_samples(X, np.column_stack([target, target])), seed=1)
    ranked = feature_importance(ds, "power")
    assert ranked[0][0] == "f1"
    assert abs(ranked[0][1]) > abs(ranked[-1][1])


def test_importance_matches_independent_pearson():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(35, 5))
    y = rng.normal(size=35)
    ds = assemble(_samples(X, np.column_stack([y, y])), seed=3)
    got = dict(feature_importance(ds, "power"))
    Xt = ds.feature_matrix(ds.train_indices)
    yt = ds.target_matrix(ds.train_indices)[:, 0]
    for j in range(5):
        oracle = np.corrcoef(Xt[:, j], yt)[0, 1]
        assert got[f"f{j}"] == pytest.approx(oracle, abs=1e-12)


def test_importance_invariant_under_positive_affine_feature_maps():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(40, 4))
    y = rng.normal(size=40)
    ds = assemble(_samples(X, np.column_stack([y, y])), seed=2)
    X2 = X.copy()
    X2[:, 2] = 7.5 * X2[:, 2] + 100.0
    ds2 = assemble(_samples(X2, np.column_stack([y, y])), seed=2)
    a = dict(feature_importance(ds, "power"))
    b = dict(feature_importance(ds2, "power"))
    for name in a:
        assert b[name] == pytest.approx(a[name], abs=1e-9)


def test_importance_rejects_an_unknown_target():
    ds = assemble(_random_samples(12), seed=0)
    with pytest.raises(ValueError, match="target must be 'power' or 'perf', got 'energy'"):
        feature_importance(ds, "energy")


def test_importance_constant_column_scores_zero():
    X = np.random.default_rng(3).normal(size=(20, 3))
    X[:, 0] = 1.0
    y = X[:, 2]
    ds = assemble(_samples(X, np.column_stack([y, y])), seed=4)
    assert dict(feature_importance(ds, "power"))["f0"] == 0.0


@given(st.integers(min_value=3, max_value=60), st.integers(min_value=0, max_value=2**31))
@settings(max_examples=60, deadline=None)
def test_split_law_property(n, seed):
    ds = assemble(_random_samples(n), seed=seed)
    assert len(ds.train_indices) == (7 * n) // 10
    assert len(ds.val_indices) == n - (7 * n) // 10
    assert not set(ds.train_indices) & set(ds.val_indices)
    assert sorted(ds.train_indices + ds.val_indices) == list(range(n))


def test_dataset_save_load_round_trip(tmp_path, corpus_doc):
    prof = profile(corpus_doc, "copy_kernel")
    rng = np.random.default_rng(6)
    samples = []
    for i in range(8):
        device = DeviceSpec(f"dev{i % 2}", "T", 8 + i % 2, 640, 1024, 1000.0, 800.0, 200.0)
        record = build_run_record(
            prof, device, PowerTrace(((0.0, float(rng.uniform(50, 200))),)),
            RunMeta("copy_kernel", device.name, float(rng.uniform(1, 5)), 100),
        )
        samples.append(make_sample(prof, device, record))
    ds = assemble(samples, seed=13)
    save_dataset(ds, tmp_path / "ds")
    again = load_dataset(tmp_path / "ds")
    assert again.seed == ds.seed
    assert again.train_indices == ds.train_indices
    assert again.val_indices == ds.val_indices
    np.testing.assert_array_equal(again.norm.feature_means, ds.norm.feature_means)
    np.testing.assert_array_equal(again.norm.feature_stds, ds.norm.feature_stds)
    np.testing.assert_array_equal(again.norm.target_means, ds.norm.target_means)
    np.testing.assert_array_equal(again.norm.target_stds, ds.norm.target_stds)
    for a, b in zip(again.samples, ds.samples):
        assert a.workload_id == b.workload_id
        assert a.device_name == b.device_name
        np.testing.assert_array_equal(a.features, b.features)
        assert a.power_w == b.power_w
        assert a.perf_ips == b.perf_ips


def _stats(ds, indices):
    X, Y = ds.feature_matrix(indices), ds.target_matrix(indices)
    return [X.mean(axis=0), X.std(axis=0), Y.mean(axis=0), Y.std(axis=0)]


def _norm_list(norm):
    return [norm.feature_means, norm.feature_stds, norm.target_means, norm.target_stds]


def test_loaded_statistics_come_from_the_csv_rows(tmp_path):
    """A train-row label edited in the CSV shows in the loaded statistics."""
    ds = assemble(_random_samples(10, d=14), seed=3)
    csv_path, json_path = save_dataset(ds, tmp_path / "ds")
    assert set(json.loads(json_path.read_text())) == {"seed", "train_indices", "val_indices"}
    lines = csv_path.read_text().splitlines()
    row = ds.train_indices[0] + 1
    cells = lines[row].split(",")
    lines[row] = ",".join([*cells[:-2], "500.0", cells[-1]])
    csv_path.write_text("\n".join(lines) + "\n")

    loaded = load_dataset(tmp_path / "ds")
    assert loaded.samples[ds.train_indices[0]].power_w == 500.0
    assert loaded.norm.target_means[0] != ds.norm.target_means[0]
    for got, want in zip(_norm_list(loaded.norm), _stats(loaded, loaded.train_indices)):
        np.testing.assert_array_equal(got, want)


def test_a_hand_built_fold_standardizes_with_its_own_train_rows():
    """A leave-one-device-out fold cut from a dataset gets the statistics of
    its own train rows, not those of the dataset it was cut from."""
    ds = assemble(_random_samples(30, d=14), seed=5)
    tr = [i for i, s in enumerate(ds.samples) if s.device_name != "d0"]
    val = [i for i, s in enumerate(ds.samples) if s.device_name == "d0"]
    fold = TrainingDataset(ds.samples, tr, val, ds.seed)
    X = np.array([ds.samples[i].features for i in tr])
    Y = np.array([[ds.samples[i].power_w, ds.samples[i].perf_ips] for i in tr])
    want = [X.mean(axis=0), X.std(axis=0), Y.mean(axis=0), Y.std(axis=0)]
    for got, expected in zip(_norm_list(fold.norm), want):
        assert got.tobytes() == expected.tobytes()
    assert fold.norm.target_means.tolist() != ds.norm.target_means.tolist()
    with pytest.raises(TypeError, match="norm"):
        TrainingDataset(ds.samples, tr, val, ds.seed, norm=ds.norm)


@pytest.mark.parametrize("n,seed", [(3, 0), (7, 1), (60, 42)])
def test_sidecars_with_stored_statistics_load_bit_identically(tmp_path, n, seed):
    """Sidecars that still carry ``norm_stats`` and ``feature_names`` load,
    and the recomputed statistics equal the stored ones bit for bit."""
    ds = assemble(_random_samples(n, d=14, seed=n), seed=seed)
    _, json_path = save_dataset(ds, tmp_path / "ds")
    sidecar = {"seed": seed, "train_indices": ds.train_indices,
               "val_indices": ds.val_indices, "norm_stats": ds.norm.to_dict(),
               "feature_names": feature_names()}
    json_path.write_text(json.dumps(sidecar, indent=2) + "\n")
    loaded = load_dataset(tmp_path / "ds")
    for got, want in zip(_norm_list(loaded.norm), _norm_list(ds.norm)):
        assert got.tobytes() == want.tobytes()


def test_statistics_that_overflow_are_rejected(tmp_path):
    X = [[1.0 if i % 2 else 1.7e308] * 14 for i in range(10)]
    samples = _samples(X, [[100.0, 1e9]] * 10)
    with pytest.raises(WattrankError, match="overflow"):
        assemble(samples, seed=0)
    ds = assemble(_samples([[1.0] * 14] * 10, [[100.0, 1e9]] * 10), seed=0)
    csv_path, _ = save_dataset(ds, tmp_path / "ds")
    csv_path.write_text(csv_path.read_text().replace(",1.0,", ",1.7e+308,"))
    with pytest.raises(WattrankError, match=f"^{re.escape(str(csv_path))}: .*overflow"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("bad_cell", ["abc", "", "nan", "-inf", None])
def test_load_dataset_rejects_bad_row_naming_it(tmp_path, bad_cell):
    ds = assemble(_random_samples(6, d=14), seed=1)
    csv_path, _ = save_dataset(ds, tmp_path / "ds")
    lines = csv_path.read_text().splitlines()
    cells = lines[2].split(",")
    lines[2] = ",".join(cells[:-1] if bad_cell is None else [*cells[:5], bad_cell, *cells[6:]])
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UnparsableValue) as info:
        load_dataset(tmp_path / "ds")
    assert info.value.row == 3


def test_load_dataset_skips_blank_rows(tmp_path):
    ds = assemble(_random_samples(6, d=14), seed=1)
    csv_path, _ = save_dataset(ds, tmp_path / "ds")
    lines = csv_path.read_text().splitlines()
    csv_path.write_text("\n".join([lines[0], "", *lines[1:3], "", "", *lines[3:], ""]) + "\n")
    loaded = load_dataset(tmp_path / "ds")
    assert [s.features.tolist() for s in loaded.samples] == [
        s.features.tolist() for s in ds.samples]
    assert loaded.norm.to_dict() == ds.norm.to_dict()


def test_load_dataset_rejects_a_field_over_the_csv_size_limit(tmp_path):
    ds = assemble(_random_samples(6, d=14), seed=1)
    csv_path, _ = save_dataset(ds, tmp_path / "ds")
    lines = csv_path.read_text().splitlines()
    lines[3] = "w" * 140000 + lines[3][lines[3].index(","):]
    csv_path.write_text("\n".join(lines) + "\n")
    with pytest.raises(UnparsableValue, match="field larger than field limit") as info:
        load_dataset(tmp_path / "ds")
    assert info.value.row == 4


@pytest.mark.parametrize(
    "rename",
    [{"sm_count": "fp32_cores", "fp32_cores": "sm_count"},
     {"power_w": "perf_ips", "perf_ips": "power_w"},
     {name: f"f{i}" for i, name in enumerate(feature_names())}, {"device_name": "device"}],
    ids=["swapped-features", "swapped-targets", "f-name-at-width-14", "renamed-id"],
)
def test_load_dataset_requires_the_exact_header(tmp_path, rename):
    ds = assemble(_random_samples(6, d=14), seed=1)
    csv_path, _ = save_dataset(ds, tmp_path / "ds")
    header, rest = csv_path.read_text().split("\n", 1)
    header = ",".join(rename.get(name, name) for name in header.split(","))
    csv_path.write_text(header + "\n" + rest)
    with pytest.raises(InconsistentFeatureLength, match="unexpected dataset header"):
        load_dataset(tmp_path / "ds")


@pytest.mark.parametrize("width", [1, 3, 13, 15])
def test_datasets_of_other_widths_load_with_f_names(tmp_path, width):
    ds = assemble(_random_samples(6, d=width), seed=1)
    csv_path, _ = save_dataset(ds, tmp_path / "ds")
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header[2:-2] == [f"f{i}" for i in range(width)]
    loaded = load_dataset(tmp_path / "ds")
    assert [s.features.tolist() for s in loaded.samples] == [
        s.features.tolist() for s in ds.samples]


def test_dataset_csv_header_names(tmp_path):
    ds = assemble(_random_samples(5, d=14), seed=1)
    csv_path, _ = save_dataset(ds, tmp_path / "ds")
    header = csv_path.read_text().splitlines()[0].split(",")
    assert header == ["workload_id", "device_name", *feature_names(), "power_w", "perf_ips"]
