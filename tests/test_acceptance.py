"""Acceptance gate: one test per release criterion, each printing a
PASS line (run with ``pytest -s tests/test_acceptance.py -v``)."""

import time

import numpy as np

from conftest import preactivation_margin
from wattrank import synthetic
from wattrank.dataset_builder import (
    LabeledSample,
    assemble,
    feature_importance,
    load_dataset,
    save_dataset,
)
from wattrank.device_catalog import default_catalog, find_device, load_catalog, save_catalog
from wattrank.estimator import (
    TrainConfig,
    design_matrices,
    fit_linear_baseline,
    forward,
    gradient_check,
    init_model,
    load_model,
    r2_score,
    save_model,
    train,
)
from wattrank.instruction_profiler import CLASS_ORDER, InstructionClass, profile
from wattrank.estimator import Prediction
from wattrank.ranking import rank_predictions
from wattrank.telemetry_ingest import PowerTrace, mean_power, parse_power_csv_text


def _announce(number: int, text: str) -> None:
    print(f"ACCEPTANCE {number} PASS — {text}")


def _samples(X, Y):
    return [
        LabeledSample(f"w{i}", f"d{i % 3}", np.asarray(X[i], float),
                      float(Y[i][0]), float(Y[i][1]))
        for i in range(len(X))
    ]


def test_criterion_1_reference_listing_golden(corpus_doc):
    start = time.monotonic()
    assert len(corpus_doc.instructions) == 20
    prof = profile(corpus_doc, "copy_kernel")
    expected = {
        InstructionClass.DATA_MOVEMENT_AND_CONVERSION: 8,
        InstructionClass.ARITHMETIC_AND_FLOATING_POINT: 3,
        InstructionClass.LOGIC_AND_SHIFT: 9,
    }
    for cls in CLASS_ORDER:
        assert prof.counts[cls] == expected.get(cls, 0)
    assert prof.total == 20
    assert time.monotonic() - start < 1.0
    _announce(1, "reference listing parses to 20 instructions with counts (8, 3, 9)")


def test_criterion_2_shipped_catalog_values():
    catalog = default_catalog()
    expected = {
        "V100": (6144, 5120, 80),
        "2080Ti": (5632, 4352, 68),
        "1080Ti": (2816, 3584, 28),
    }
    for name, (l2, cores, sms) in expected.items():
        device = find_device(catalog, name)
        assert (device.l2_cache_kib, device.fp32_cores, device.sm_count) == (l2, cores, sms)
    _announce(2, "shipped catalog reproduces the three reference device rows exactly")


def test_criterion_3_split_law_exhaustive():
    start = time.monotonic()
    rng = np.random.default_rng(0)
    for n in range(3, 201):
        X = rng.normal(size=(n, 4))
        Y = rng.uniform(1, 10, size=(n, 2))
        samples = _samples(X, Y)
        ds = assemble(samples, seed=7)
        assert len(ds.train_indices) == (7 * n) // 10
        assert len(ds.val_indices) == n - (7 * n) // 10
        assert not set(ds.train_indices) & set(ds.val_indices)
        assert sorted(ds.train_indices + ds.val_indices) == list(range(n))
        again = assemble(samples, seed=7)
        assert again.train_indices == ds.train_indices
        assert again.val_indices == ds.val_indices
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _announce(3, f"70/30 split law holds for n = 3..200 ({elapsed:.2f} s)")


def test_criterion_4_gradient_verification():
    start = time.monotonic()
    rng = np.random.default_rng(1234)
    cases = [(14, [28, 14], 42)]
    while len(cases) < 20:
        cases.append(
            (
                int(rng.integers(2, 15)),
                list(rng.integers(2, 24, size=rng.integers(0, 3))),
                int(rng.integers(0, 2**31)),
            )
        )
    worst = 0.0
    for input_dim, hidden, seed in cases:
        model = init_model(input_dim, hidden, seed=seed)
        x = rng.normal(size=(2, input_dim))
        y = rng.normal(size=(2, 2))
        # finite differences are invalid across a ReLU kink; step past them
        while preactivation_margin(model, x) <= 1e-3:
            x = rng.normal(size=(2, input_dim))
        error = gradient_check(model, x, y)
        worst = max(worst, error)
        assert error <= 1e-5, (input_dim, hidden, seed, error)
    elapsed = time.monotonic() - start
    assert elapsed < 30.0
    _announce(4, f"backprop matches finite differences on 20 architectures "
                 f"(worst {worst:.2e}, {elapsed:.1f} s)")


def test_criterion_5_linear_oracle_equivalence():
    start = time.monotonic()
    rng = np.random.default_rng(2024)
    n, d = 200, 14
    X = rng.normal(size=(n, d)) * rng.uniform(1, 50, size=d)
    A = rng.normal(size=(2, d))
    b = np.array([100.0, 5e5])
    Y = X @ A.T + b  # noiseless
    ds = assemble(_samples(X, Y), seed=42)
    trained, _ = train(
        init_model(d, [], seed=7), ds, TrainConfig(lr=0.05, epochs=5000, patience=5000)
    )
    Xv, Yv = design_matrices(ds, ds.val_indices, None)
    pred = forward(trained, Xv)
    r2 = r2_score(Yv, pred)
    assert min(r2) >= 0.999
    baseline = fit_linear_baseline(ds)
    gap = np.abs(pred - forward(baseline, Xv)).max()
    assert gap <= 1e-3
    elapsed = time.monotonic() - start
    assert elapsed < 60.0
    _announce(5, f"zero-hidden network reaches R^2 {min(r2):.6f} and sits "
                 f"{gap:.2e} from the ridge optimum ({elapsed:.1f} s)")


def test_criterion_6_synthetic_end_to_end_recovery():
    start = time.monotonic()
    config = synthetic.SyntheticConfig()  # 20 workloads x 3 devices, 1% noise
    experiment = synthetic.generate(config)
    samples = synthetic.ingest_experiment(experiment)
    assert len(samples) == 60
    ds = assemble(samples, seed=42)
    trained, _ = train(init_model(14, None, seed=42), ds, TrainConfig())
    Xv, Yv = design_matrices(ds, ds.val_indices, None)
    r2 = r2_score(Yv, forward(trained, Xv))
    assert r2[0] >= 0.95, f"power validation R^2 {r2[0]}"
    assert r2[1] >= 0.95, f"perf validation R^2 {r2[1]}"
    ranked = feature_importance(ds, "power")
    assert ranked[0][0] == synthetic.POWER_DOMINANT
    elapsed = time.monotonic() - start
    assert elapsed < 120.0
    _announce(6, f"end-to-end recovery: val R^2 power {r2[0]:.3f} / perf {r2[1]:.3f}, "
                 f"dominant feature ranked first ({elapsed:.1f} s)")


def test_criterion_7_ingestion_exactness():
    trace = PowerTrace(((0.0, 100.0), (1.0, 110.0), (2.0, 120.0)))
    assert mean_power(trace) == 110.0
    rng = np.random.default_rng(99)
    watts = rng.uniform(50.0, 250.0, size=1000)
    text = "timestamp, power.draw [W]\n" + "".join(
        f"2021/03/01 10:{i // 600:02d}:{(i // 10) % 60:02d}.{i % 10}00, {w:.6f} W\n"
        for i, w in enumerate(watts)
    )
    parsed = parse_power_csv_text(text)
    values = [w for _, w in parsed.samples]
    first = sum(values) / len(values)
    oracle = first + sum(v - first for v in values) / len(values)
    assert abs(mean_power(parsed) - oracle) <= 1e-9
    _announce(7, "mean power is exact on the worked example and matches the "
                 "two-pass oracle on 1000 rows")


def test_criterion_8_ranking_determinism_and_invariance():
    start = time.monotonic()
    rng = np.random.default_rng(5)
    names = [f"gpu{i}" for i in range(12)]
    preds = [
        Prediction(float(rng.uniform(50, 300)), float(rng.uniform(1e8, 1e10)), n, "w")
        for n in names
    ]
    base = rank_predictions(preds, "max_perf")
    for c in (1e-6, 0.5, 3.0, 1e6):
        scaled = [
            Prediction(p.power_w, c * p.perf_ips, p.device_name, "w") for p in preds
        ]
        after = rank_predictions(scaled, "max_perf")
        assert [e.device_name for e in after.entries] == [
            e.device_name for e in base.entries
        ]
    assert rank_predictions(preds, "max_perf") == base  # repeated invocation
    tied = [Prediction(100.0, 1e9, n, "w") for n in ("zz", "aa", "mm")]
    assert [e.device_name for e in rank_predictions(tied, "max_perf").entries] == [
        "aa", "mm", "zz",
    ]
    elapsed = time.monotonic() - start
    assert elapsed < 5.0
    _announce(8, "rank order survives positive scaling and repetition; "
                 "ties break lexicographically")


def test_criterion_9_serialization_round_trips(tmp_path):
    # model: forward outputs bit-exact after save/load
    rng = np.random.default_rng(31)
    X = rng.normal(size=(40, 6)) * 10
    Y = np.column_stack([X @ rng.normal(size=6) + 100, X @ rng.normal(size=6) + 50])
    ds = assemble(_samples(X, Y), seed=3)
    trained, _ = train(init_model(6, [5], seed=0), ds,
                       TrainConfig(epochs=200, patience=400))
    save_model(trained, tmp_path / "m.json")
    again = load_model(tmp_path / "m.json")
    probe = rng.normal(size=(25, 6))
    assert (forward(again, probe) == forward(trained, probe)).all()

    # dataset: CSV + sidecar round trip preserves every sample and statistic
    save_dataset(ds, tmp_path / "ds")
    ds2 = load_dataset(tmp_path / "ds")
    assert ds2.train_indices == ds.train_indices
    assert ds2.val_indices == ds.val_indices
    np.testing.assert_array_equal(ds2.norm.feature_means, ds.norm.feature_means)
    np.testing.assert_array_equal(ds2.norm.target_stds, ds.norm.target_stds)
    for a, b in zip(ds2.samples, ds.samples):
        assert (a.workload_id, a.device_name) == (b.workload_id, b.device_name)
        np.testing.assert_array_equal(a.features, b.features)
        assert (a.power_w, a.perf_ips) == (b.power_w, b.perf_ips)

    # catalog: load(save(load)) is the identity
    catalog = default_catalog()
    save_catalog(catalog, tmp_path / "cat.json")
    assert load_catalog(tmp_path / "cat.json") == catalog
    _announce(9, "model, dataset, and catalog serialization all round-trip exactly")
