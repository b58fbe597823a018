import json
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattrank import synthetic
from wattrank.dataset_builder import LabeledSample, assemble, feature_names, select_features
from wattrank.device_catalog import DeviceSpec, default_catalog
from wattrank.estimator import (
    CorruptFile,
    DimensionMismatch,
    DivergenceDetected,
    FeatureContractMismatch,
    MlpModel,
    TrainConfig,
    VersionMismatch,
    design_matrices,
    _loss_and_grads,
    evaluate,
    fit_linear_baseline,
    forward,
    gradient_check,
    init_model,
    load_model,
    predict,
    r2_score,
    save_model,
    train,
)
from wattrank.errors import WattrankError
from wattrank.instruction_profiler import profile
from wattrank.ptx_parser import parse_ptx
from wattrank.ranking import rank_devices


def _samples(X, Y):
    return [
        LabeledSample(f"w{i}", f"d{i % 3}", np.asarray(X[i], float),
                      float(Y[i][0]), float(Y[i][1]))
        for i in range(len(X))
    ]


def _linear_dataset(n=60, d=5, seed=0, noise=0.0):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(n, d)) * rng.uniform(1, 20, size=d)
    A = rng.normal(size=(2, d))
    b = np.array([50.0, 1000.0])
    Y = X @ A.T + b
    if noise:
        Y = Y + rng.normal(scale=noise, size=Y.shape)
    return assemble(_samples(X, Y), seed=42)


def test_default_architecture():
    m = init_model(14, seed=0)
    assert m.layer_dims == (14, 28, 14, 2)
    assert [w.shape for w in m.weights] == [(28, 14), (14, 28), (2, 14)]
    assert all(not b.any() for b in m.biases)


def test_init_is_deterministic():
    a = init_model(14, seed=5)
    b = init_model(14, seed=5)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_init_glorot_bounds():
    m = init_model(10, [20], seed=1)
    r = np.sqrt(6.0 / (10 + 20))
    assert np.abs(m.weights[0]).max() <= r


def test_zero_hidden_layers_is_linear_map():
    m = init_model(14, [], seed=2)
    assert m.layer_dims == (14, 2)


@pytest.mark.parametrize("input_dim,hidden", [(14, [-3]), (14, [0]), (14, [4, 0]), (0, None)])
def test_init_rejects_layers_narrower_than_one(input_dim, hidden):
    with pytest.raises(DimensionMismatch):
        init_model(input_dim, hidden)


@pytest.mark.parametrize("epochs", [0, -5])
def test_train_rejects_fewer_than_one_epoch(epochs):
    with pytest.raises(WattrankError, match="epoch"):
        train(init_model(5, [], seed=0), _linear_dataset(), TrainConfig(epochs=epochs))


def test_forward_zero_network():
    m = init_model(6, [4], seed=0)
    zeros = MlpModel(m.layer_dims, [np.zeros_like(w) for w in m.weights],
                     [np.zeros_like(b) for b in m.biases], None, 0)
    assert forward(zeros, np.ones(6)).tolist() == [0.0, 0.0]


def test_forward_linear_matches_matrix_multiply():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(2, 5))
    b = rng.normal(size=2)
    m = MlpModel((5, 2), [W], [b], None, 0)
    x = rng.normal(size=5)
    np.testing.assert_allclose(forward(m, x), W @ x + b, atol=1e-15)
    X = rng.normal(size=(7, 5))
    np.testing.assert_allclose(forward(m, X), X @ W.T + b, atol=1e-15)


def test_relu_kills_negative_preactivations():
    W0 = -np.eye(3)
    b0 = np.zeros(3)
    W1 = np.ones((2, 3))
    b1 = np.array([0.5, -0.5])
    m = MlpModel((3, 3, 2), [W0, W1], [b0, b1], None, 0)
    out = forward(m, np.array([1.0, 2.0, 3.0]))  # pre-activations all negative
    np.testing.assert_array_equal(out, b1)


def test_forward_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        forward(init_model(4, [], seed=0), np.ones(5))


def test_gradient_check_fresh_default_model():
    rng = np.random.default_rng(11)
    m = init_model(14, seed=11)
    assert gradient_check(m, rng.normal(size=14), rng.normal(size=2)) <= 1e-5


def test_gradient_check_zero_network_zero_target():
    m = init_model(3, [2], seed=0)
    zeros = MlpModel(m.layer_dims, [np.zeros_like(w) for w in m.weights],
                     [np.zeros_like(b) for b in m.biases], None, 0)
    assert gradient_check(zeros, np.ones(3), np.zeros(2)) == 0.0


def test_linear_backprop_matches_analytic_formula():
    rng = np.random.default_rng(7)
    W = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    x = rng.normal(size=(1, 4))
    y = rng.normal(size=(1, 2))
    _, grad_w, grad_b = _loss_and_grads([W], [b], x, y)
    resid = (x @ W.T + b) - y
    np.testing.assert_allclose(grad_w[0], 2.0 * resid.T @ x / resid.size, atol=1e-10)
    np.testing.assert_allclose(grad_b[0], (2.0 * resid / resid.size).sum(axis=0), atol=1e-10)


@given(
    st.integers(min_value=1, max_value=6),
    st.lists(st.integers(min_value=1, max_value=8), max_size=2),
    st.integers(min_value=0, max_value=10_000),
)
@settings(max_examples=12, deadline=None)
@example(6, [5, 6], 0)  # true gradient -1.5e-6: float64 loss rounding swamped it
def test_gradient_check_random_architectures(input_dim, hidden, seed):
    from conftest import preactivation_margin
    from hypothesis import assume

    rng = np.random.default_rng(seed)
    m = init_model(input_dim, hidden, seed=seed)
    x = rng.normal(size=(3, input_dim))
    y = rng.normal(size=(3, 2))
    # finite differences are meaningless across a ReLU kink
    assume(preactivation_margin(m, x) > 1e-3)
    assert gradient_check(m, x, y) <= 1e-5


@pytest.mark.parametrize(
    "lr", [0.0, -0.01, float("nan"), float("inf")], ids=["0.0", "-0.01", "nan", "inf"]
)
def test_train_rejects_bad_learning_rate(lr):
    with pytest.raises(WattrankError, match="learning rate"):
        train(init_model(5, [4], seed=1), _linear_dataset(),
              TrainConfig(lr=lr, epochs=50, patience=1000))


def test_training_is_deterministic():
    ds = _linear_dataset()
    cfg = TrainConfig(lr=0.02, epochs=200, patience=500)
    a, _ = train(init_model(5, [6], seed=3), ds, cfg)
    b, _ = train(init_model(5, [6], seed=3), ds, cfg)
    for wa, wb in zip(a.weights, b.weights):
        np.testing.assert_array_equal(wa, wb)


def test_divergence_detected():
    ds = _linear_dataset()
    with np.errstate(all="ignore"), pytest.raises(DivergenceDetected):
        train(init_model(5, [], seed=0), ds, TrainConfig(lr=50.0, epochs=500, patience=500))


def _power_iteration_lmax(M, iters=500):
    v = np.ones(M.shape[0]) / np.sqrt(M.shape[0])
    for _ in range(iters):
        v = M @ v
        v /= np.linalg.norm(v)
    return float(v @ M @ v)


def test_convex_training_loss_monotone_under_lr_bound():
    ds = _linear_dataset(n=80, d=6, seed=9)
    X, _ = design_matrices(ds, ds.train_indices, None)
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    lmax = _power_iteration_lmax(Xa.T @ Xa / X.shape[0])
    lr = 1.9 / lmax
    _, history = train(init_model(6, [], seed=4), ds,
                       TrainConfig(lr=lr, epochs=400, patience=10_000))
    diffs = np.diff(history.train_mse)
    assert (diffs <= 1e-12).all()


def test_zero_hidden_training_matches_ridge_baseline():
    ds = _linear_dataset(n=120, d=5, seed=14)
    trained, _ = train(init_model(5, [], seed=2), ds,
                       TrainConfig(lr=0.05, epochs=4000, patience=4000))
    baseline = fit_linear_baseline(ds)
    Xv, Yv = design_matrices(ds, ds.val_indices, None)
    gap = np.abs(forward(trained, Xv) - forward(baseline, Xv)).max()
    assert gap <= 1e-3
    assert min(r2_score(Yv, forward(trained, Xv))) >= 0.999


def test_linear_baseline_recovers_slope_two():
    rng = np.random.default_rng(5)
    x = rng.normal(size=40)
    X = x[:, None]
    y = 2.0 * x
    ds = assemble(_samples(X, np.column_stack([y, y])), seed=1)
    model = fit_linear_baseline(ds)
    at_0_and_1 = model.norm.standardize_features(np.array([[0.0], [1.0]]))
    raw = model.norm.destandardize_targets(forward(model, at_0_and_1))
    assert raw[1, 0] - raw[0, 0] == pytest.approx(2.0, abs=1e-6)
    assert raw[0, 0] == pytest.approx(0.0, abs=1e-6)


def test_linear_baseline_handles_duplicate_columns():
    rng = np.random.default_rng(6)
    x = rng.normal(size=30)
    X = np.column_stack([x, x])
    y = x + 1.0
    ds = assemble(_samples(X, np.column_stack([y, y])), seed=1)
    model = fit_linear_baseline(ds)
    assert np.isfinite(model.weights[0]).all()
    Xs, Ys = design_matrices(ds, ds.train_indices, None)
    assert np.abs(forward(model, Xs) - Ys).max() <= 1e-6


def test_linear_baseline_against_independent_solver():
    rng = np.random.default_rng(17)
    ds = _linear_dataset(n=50, d=4, seed=17, noise=3.0)
    model = fit_linear_baseline(ds)
    X, Y = design_matrices(ds, ds.train_indices, None)
    Xa = np.hstack([X, np.ones((X.shape[0], 1))])
    oracle, *_ = np.linalg.lstsq(
        Xa.T @ Xa + 1e-6 * np.eye(5), Xa.T @ Y, rcond=None
    )
    np.testing.assert_allclose(
        forward(model, X), Xa @ oracle, atol=1e-8
    )


DEVICE_A = DeviceSpec("devA", "T", 10, 640, 1024, 1000.0, 800.0, 200.0)
DEVICE_B = DeviceSpec("devB", "T", 10, 640, 1024, 1000.0, 800.0, 200.0)


def _pipeline_fixture(constant_targets=False, seed=0):
    rng = np.random.default_rng(seed)
    prof_texts = ["\n".join("add.u32 %r1, %r2, %r3;" for _ in range(k)) for k in
                  rng.integers(5, 50, size=12)]
    profiles = [profile(parse_ptx(t), f"w{i}") for i, t in enumerate(prof_texts)]
    samples = []
    for i, prof in enumerate(profiles):
        device = DeviceSpec(f"d{i % 3}", "T", 8 + i % 3, 640, 1024, 1000.0, 800.0, 200.0)
        power = 100.0 if constant_targets else float(rng.uniform(80, 200))
        perf = 5000.0 if constant_targets else float(rng.uniform(1e3, 1e4))
        samples.append(LabeledSample(prof.workload_id, device.name,
                                     np.concatenate([
                                         np.array([prof.total] + [0.0] * 7),
                                         np.array([8 + i % 3, 640, 1024, 1000.0, 800.0, 200.0]),
                                     ]),
                                     power, perf))
    return profiles, assemble(samples, seed=3)


def test_predict_constant_targets_returns_constant(corpus_doc):
    profiles, ds = _pipeline_fixture(constant_targets=True)
    trained, _ = train(init_model(14, [], seed=0), ds, TrainConfig(epochs=50, patience=100))
    prediction = predict(trained, profile(corpus_doc, "copy_kernel"), DEVICE_A)
    assert prediction.power_w == pytest.approx(100.0, abs=1e-9)
    assert prediction.perf_ips == pytest.approx(5000.0, abs=1e-9)


def test_predict_identical_device_numerics_identical_outputs(corpus_doc):
    _, ds = _pipeline_fixture(seed=2)
    trained, _ = train(init_model(14, [], seed=1), ds, TrainConfig(epochs=100, patience=200))
    prof = profile(corpus_doc, "copy_kernel")
    a = predict(trained, prof, DEVICE_A)
    b = predict(trained, prof, DEVICE_B)
    assert (a.power_w, a.perf_ips) == (b.power_w, b.perf_ips)
    assert a.device_name == "devA" and b.device_name == "devB"


def test_predict_equals_manual_pipeline_composition(corpus_doc):
    _, ds = _pipeline_fixture(seed=3)
    trained, _ = train(init_model(14, [7], seed=2), ds, TrainConfig(epochs=80, patience=200))
    prof = profile(corpus_doc, "copy_kernel")
    got = predict(trained, prof, DEVICE_A)
    from wattrank.device_catalog import device_to_features
    from wattrank.instruction_profiler import profile_to_features

    raw = np.concatenate([profile_to_features(prof), device_to_features(DEVICE_A)])
    manual = trained.norm.destandardize_targets(
        forward(trained, trained.norm.standardize_features(raw))
    )
    manual = np.maximum(manual, 0.0)
    assert (got.power_w, got.perf_ips) == (manual[0], manual[1])


def test_predict_clamps_negative_outputs(corpus_doc):
    _, ds = _pipeline_fixture(seed=4)
    trained, _ = train(init_model(14, [], seed=3), ds, TrainConfig(epochs=50, patience=100))
    # force a hugely negative output via doctored weights
    doctored = MlpModel(trained.layer_dims,
                        [np.zeros_like(w) for w in trained.weights],
                        [np.full_like(trained.biases[-1], -1e6)],
                        trained.norm, trained.seed)
    prediction = predict(doctored, profile(corpus_doc, "copy_kernel"), DEVICE_A)
    assert prediction.power_w == 0.0 and prediction.perf_ips == 0.0
    assert prediction.clamped


def test_predict_feature_contract_mismatch(corpus_doc):
    ds = _linear_dataset(d=5)  # stats cover 5 features, not 14
    trained, _ = train(init_model(5, [], seed=0), ds, TrainConfig(epochs=10, patience=50))
    with pytest.raises(FeatureContractMismatch):
        predict(trained, profile(corpus_doc, "copy_kernel"), DEVICE_A)


def test_feature_mask_training_and_prediction(corpus_doc):
    _, ds = _pipeline_fixture(seed=5)
    selected = select_features(ds, 0.5)
    trained, _ = train(init_model(14, [], seed=0), selected,
                       TrainConfig(epochs=60, patience=100))
    assert trained.norm is selected.norm
    prediction = predict(trained, profile(corpus_doc, "copy_kernel"), DEVICE_A)
    assert np.isfinite([prediction.power_w, prediction.perf_ips]).all()


@pytest.fixture(scope="module")
def default_synthetic_ds():
    samples = synthetic.ingest_experiment(synthetic.generate(synthetic.SyntheticConfig()))
    return assemble(samples, seed=42)


def test_selection_serves_both_targets_on_default_synthetic(default_synthetic_ds):
    ds = default_synthetic_ds
    selected = select_features(ds, 0.1)
    np.testing.assert_array_equal(selected.norm.feature_stds > 0, ds.norm.feature_stds > 0)
    val = evaluate(fit_linear_baseline(selected), selected)["val"]
    assert val["perf"]["r2"] >= 0.95 and val["power"]["r2"] >= 0.95


def test_prediction_ignores_a_dropped_device_feature(default_synthetic_ds, corpus_doc):
    ds = default_synthetic_ds
    selected = select_features(ds, 1.0)  # keeps the single best column
    sm_count = feature_names().index("sm_count")
    assert selected.norm.feature_stds[sm_count] == 0 < ds.norm.feature_stds[sm_count]
    prof = profile(corpus_doc, "copy_kernel")
    device = default_catalog()[0]
    tripled = replace(device, sm_count=3 * device.sm_count)
    model, _ = train(init_model(14, [7], seed=0), selected, TrainConfig(epochs=60))
    assert predict(model, prof, tripled) == predict(model, prof, device)
    unselected, _ = train(init_model(14, [7], seed=0), ds, TrainConfig(epochs=60))
    assert predict(unselected, prof, tripled) != predict(unselected, prof, device)


def test_save_load_round_trip_bit_exact(tmp_path):
    ds = _linear_dataset()
    mlp, _ = train(init_model(5, [4], seed=6), ds, TrainConfig(epochs=120, patience=300))
    for trained in (mlp, fit_linear_baseline(ds)):
        path = tmp_path / "model.json"
        save_model(trained, path)
        again = load_model(path)
        assert again.layer_dims == trained.layer_dims
        rng = np.random.default_rng(0)
        X = rng.normal(size=(10, 5))
        np.testing.assert_array_equal(forward(again, X), forward(trained, X))
        assert again.epochs_trained == trained.epochs_trained
        assert again.seed == trained.seed
        # files written before models dropped their mask say "feature_mask": null
        path.write_text(json.dumps({**json.loads(path.read_text()), "feature_mask": None}))
        older = load_model(path)
        np.testing.assert_array_equal(forward(older, X), forward(trained, X))
        save_model(older, path)
        np.testing.assert_array_equal(forward(load_model(path), X), forward(trained, X))


def test_ridge_baseline_ranks_every_default_device(corpus_doc):
    _, ds = _pipeline_fixture(seed=6)
    catalog = default_catalog()
    result = rank_devices(profile(corpus_doc, "copy_kernel"), catalog, fit_linear_baseline(ds))
    assert sorted(e.device_name for e in result.entries) == sorted(d.name for d in catalog)
    assert not result.excluded


def test_load_model_version_mismatch(tmp_path):
    ds = _linear_dataset()
    trained, _ = train(init_model(5, [], seed=0), ds, TrainConfig(epochs=10, patience=50))
    path = tmp_path / "model.json"
    save_model(trained, path)
    doc = json.loads(path.read_text())
    doc["version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(VersionMismatch):
        load_model(path)


def test_load_model_corrupt_file(tmp_path):
    path = tmp_path / "model.json"
    path.write_text("{ not json")
    with pytest.raises(CorruptFile):
        load_model(path)
    ds = _linear_dataset()
    trained, _ = train(init_model(5, [], seed=0), ds, TrainConfig(epochs=10, patience=50))
    save_model(trained, path)
    truncated = path.read_text()[:80]
    path.write_text(truncated)
    with pytest.raises(CorruptFile):
        load_model(path)


def _output_three_wide(doc):
    doc["layer_dims"][-1] = 3
    doc["weights"][-1].append(doc["weights"][-1][0])
    doc["biases"][-1].append(0.0)


@pytest.mark.parametrize(
    "corrupt,reason",
    [
        (lambda d: d.update(layer_dims=[5, 3, 2]), "do not chain"),
        (lambda d: d.update(feature_mask=[True] * 5 + [False]), "feature_mask"),
        (lambda d: d.update(feature_mask="yes"), "feature_mask"),
        (lambda d: d.update(feature_mask=[1] * 5), "feature_mask"),
        (lambda d: d["norm_stats"].update(target_means=[0.0, 0.0, 0.0]), "norm_stats"),
        (_output_three_wide, "do not map"),
        (lambda d: d.update(layer_dims=[], weights=[], biases=[]), "do not map"),
        (lambda d: d["weights"][0][0].__setitem__(0, float("nan")), "non-finite"),
        (lambda d: d["norm_stats"]["feature_stds"].__setitem__(0, float("inf")), "non-finite"),
        (lambda d: d["layer_dims"].__setitem__(0, 5.7), "integers"),
        (lambda d: d.update(seed=True), "integers"),
        (lambda d: d.update(epochs_trained="12"), "integers"),
        (lambda d: d["weights"][0][0].__setitem__(0, "0.63"), "expected a number"),
        (lambda d: d["biases"][0].__setitem__(0, False), "expected a number"),
        (lambda d: d["norm_stats"]["feature_means"].__setitem__(0, "1.5"), "expected a number"),
    ],
    ids=["unchained-hidden", "mask-length", "mask-string", "mask-ints",
         "target-stats-3-wide", "output-3-wide", "no-layers", "nan-weight", "inf-stat",
         "float-dim", "bool-seed", "string-epochs", "string-weight", "bool-bias",
         "string-mean"],
)
def test_load_model_rejects_unchained_shapes(tmp_path, corrupt, reason):
    ds = _linear_dataset()
    trained, _ = train(init_model(5, [], seed=0), ds, TrainConfig(epochs=10, patience=50))
    path = tmp_path / "model.json"
    save_model(trained, path)
    doc = json.loads(path.read_text())
    corrupt(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match=re.escape(str(path)) + ".*" + reason):
        load_model(path)


def test_evaluate_standardizes_with_the_model_statistics():
    rng = np.random.default_rng(11)
    X = rng.normal(size=(60, 5)) * rng.uniform(1, 20, size=5)
    Y = X @ rng.normal(size=(2, 5)).T + rng.normal(scale=2.0, size=(60, 2)) + [50.0, 1e3]
    trained, _ = train(init_model(5, [4], seed=1), assemble(_samples(X, Y), seed=42),
                       TrainConfig(epochs=200, patience=400))
    other = assemble(_samples(X, Y), seed=7)  # another split, other statistics
    metrics = evaluate(trained, other)
    for split, indices in (("train", other.train_indices), ("val", other.val_indices)):
        Xs = trained.norm.standardize_features(other.feature_matrix(indices))
        Ys = trained.norm.standardize_targets(other.target_matrix(indices))
        pred = forward(trained, Xs)
        for column, target in enumerate(("power", "perf")):
            assert metrics[split][target] == {
                "mse": float(((pred - Ys) ** 2).mean(axis=0)[column]),
                "r2": float(r2_score(Ys, pred)[column]),
            }


def test_evaluate_rejects_a_dataset_of_another_width():
    trained, _ = train(init_model(5, [], seed=0), _linear_dataset(d=5), TrainConfig(epochs=5))
    with pytest.raises(FeatureContractMismatch):
        evaluate(trained, _linear_dataset(d=4))


def test_evaluate_reports_both_targets_and_splits():
    ds = _linear_dataset()
    trained, _ = train(init_model(5, [], seed=0), ds, TrainConfig(epochs=200, patience=400))
    metrics = evaluate(trained, ds)
    assert set(metrics) == {"train", "val"}
    assert set(metrics["train"]) == {"power", "perf"}
    assert metrics["val"]["power"]["r2"] <= 1.0
