import functools
import json
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from wattrank import synthetic
from wattrank.dataset_builder import LabeledSample, assemble, feature_names, feature_vector
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
    _layers,
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
from wattrank.instruction_profiler import InstructionClass, profile
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


def test_a_negative_seed_is_an_error_that_names_it():
    rng = np.random.default_rng(0)
    samples = _samples(rng.normal(size=(10, 5)), rng.normal(size=(10, 2)))
    for make in (lambda: assemble(samples, seed=-1), lambda: init_model(14, seed=-1)):
        with pytest.raises(WattrankError, match="^seed must be a non-negative integer, got -1$"):
            make()
    assert assemble(samples, seed=0).seed == 0 and init_model(14, seed=0).seed == 0


@pytest.mark.parametrize("epochs", [0, -5])
def test_train_rejects_fewer_than_one_epoch(epochs):
    with pytest.raises(WattrankError, match="epoch"):
        train(init_model(5, [], seed=0), _linear_dataset(), TrainConfig(epochs=epochs))


def test_forward_zero_network():
    m = init_model(6, [4], seed=0)
    zeros = MlpModel([np.zeros_like(w) for w in m.weights],
                     [np.zeros_like(b) for b in m.biases], None, 0)
    assert forward(zeros, np.ones(6)).tolist() == [0.0, 0.0]


def test_forward_linear_matches_matrix_multiply():
    rng = np.random.default_rng(3)
    W = rng.normal(size=(2, 5))
    b = rng.normal(size=2)
    m = MlpModel([W], [b], None, 0)
    x = rng.normal(size=5)
    np.testing.assert_allclose(forward(m, x), W @ x + b, atol=1e-15)
    X = rng.normal(size=(7, 5))
    np.testing.assert_allclose(forward(m, X), X @ W.T + b, atol=1e-15)


def test_relu_kills_negative_preactivations():
    W0 = -np.eye(3)
    b0 = np.zeros(3)
    W1 = np.ones((2, 3))
    b1 = np.array([0.5, -0.5])
    m = MlpModel([W0, W1], [b0, b1], None, 0)
    out = forward(m, np.array([1.0, 2.0, 3.0]))  # pre-activations all negative
    np.testing.assert_array_equal(out, b1)


def test_forward_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        forward(init_model(4, [], seed=0), np.ones(5))


def test_train_rejects_a_dataset_wider_than_the_model():
    with pytest.raises(DimensionMismatch, match="dataset provides 5 features, model expects 4"):
        train(init_model(4, [], seed=0), _linear_dataset(d=5))


def test_gradient_check_fresh_default_model():
    rng = np.random.default_rng(11)
    m = init_model(14, seed=11)
    assert gradient_check(m, rng.normal(size=14), rng.normal(size=2)) <= 1e-5


def test_gradient_check_zero_network_zero_target():
    m = init_model(3, [2], seed=0)
    zeros = MlpModel([np.zeros_like(w) for w in m.weights],
                     [np.zeros_like(b) for b in m.biases], None, 0)
    assert gradient_check(zeros, np.ones(3), np.zeros(2)) == 0.0


def test_linear_backprop_matches_analytic_formula():
    rng = np.random.default_rng(7)
    W = rng.normal(size=(2, 4))
    b = rng.normal(size=2)
    x = rng.normal(size=(1, 4))
    y = rng.normal(size=(1, 2))
    grad_w, grad_b = [np.empty_like(W)], [np.empty_like(b)]
    _loss_and_grads([W], _layers([W], [b], x), y, grad_w, grad_b)
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


@pytest.mark.parametrize("patience", [0, -3])
def test_train_rejects_patience_below_one(patience):
    with pytest.raises(WattrankError, match="patience"):
        train(init_model(5, [], seed=0), _linear_dataset(),
              TrainConfig(epochs=50, patience=patience))


def _oracle_layers(weights, biases, X):
    """``_layers`` as the oracle loop called it, kept apart from the code
    under test."""
    acts = [X]
    for W, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(acts[-1] @ W.T + b, 0.0))
    acts.append(acts[-1] @ weights[-1].T + biases[-1])
    return acts


def _oracle_train(m, ds, config):
    """``train`` as it was before one parameter vector: per-layer arrays,
    copies and updates, and ``np.mean`` for the losses."""

    def loss_and_grads(weights, biases, X, Y):
        acts = _oracle_layers(weights, biases, X)
        resid = acts[-1] - Y
        loss = float(np.mean(resid**2))
        delta = 2.0 * resid / resid.size
        grad_w = [np.empty(0)] * len(weights)
        grad_b = [np.empty(0)] * len(weights)
        for k in range(len(weights) - 1, -1, -1):
            grad_w[k] = delta.T @ acts[k]
            grad_b[k] = delta.sum(axis=0)
            if k > 0:
                delta = (delta @ weights[k]) * (acts[k] > 0)
        return loss, grad_w, grad_b

    X_tr, Y_tr = design_matrices(ds, ds.train_indices)
    X_val, Y_val = design_matrices(ds, ds.val_indices)
    weights = [w.copy() for w in m.weights]
    biases = [b.copy() for b in m.biases]
    best_val = np.inf
    best_snapshot = ([w.copy() for w in weights], [b.copy() for b in biases])
    best_epoch = -1
    stale = 0
    train_hist, val_hist = [], []
    for epoch in range(config.epochs):
        train_loss, grad_w, grad_b = loss_and_grads(weights, biases, X_tr, Y_tr)
        if not np.isfinite(train_loss):
            raise DivergenceDetected(
                f"train loss became non-finite at epoch {epoch}; lower the lr"
            )
        val_loss = float(np.mean((_oracle_layers(weights, biases, X_val)[-1] - Y_val) ** 2))
        train_hist.append(train_loss)
        val_hist.append(val_loss)
        if val_loss < best_val:
            best_val = val_loss
            best_snapshot = ([w.copy() for w in weights], [b.copy() for b in biases])
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break
        for k in range(len(weights)):
            weights[k] -= config.lr * grad_w[k]
            biases[k] -= config.lr * grad_b[k]
    return (*best_snapshot, len(train_hist)), (train_hist, val_hist, best_epoch)


def _outcome(train_fn, m, ds, config):
    with np.errstate(all="ignore"):
        try:
            return train_fn(m, ds, config)
        except DivergenceDetected as exc:
            return str(exc)


@st.composite
def _training_runs(draw):
    """A dataset (some with constant columns), a network for it and a config
    whose patience is often short enough to stop early."""
    if draw(st.integers(0, 5)) == 0:
        ds = _default_synthetic()
    else:
        ds = _linear_dataset(n=draw(st.integers(3, 150)), d=draw(st.integers(1, 16)),
                             seed=draw(st.integers(0, 100)),
                             noise=draw(st.sampled_from([0.0, 1.0, 30.0])))
        workloads = draw(st.integers(2, 12))
        if workloads < len(ds.samples) and draw(st.booleans()):  # a side may get one row
            ds = assemble([replace(s, workload_id=f"w{i % workloads}")
                           for i, s in enumerate(ds.samples)], seed=7, group_by_workload=True)
    hidden = draw(st.sampled_from([None, [], [7]]) | st.lists(st.integers(1, 12), max_size=2))
    m = init_model(ds.samples[0].features.shape[0], hidden, seed=draw(st.integers(0, 2**32 - 1)))
    lr = draw(st.floats(1e-3, 0.3) | st.sampled_from([2.0, 50.0]))
    config = TrainConfig(lr=lr, epochs=draw(st.integers(1, 150)),
                         patience=draw(st.integers(1, 40)))
    return m, ds, config


@functools.cache
def _default_synthetic():
    """The default synthetic dataset, whose ``texture_and_surface`` and
    ``other`` columns are constant: std 0 in its statistics."""
    samples = synthetic.ingest_experiment(synthetic.generate(synthetic.SyntheticConfig()))
    return assemble(samples, seed=42)


def _assert_trains_like_the_oracle(m, ds, config):
    got = _outcome(train, m, ds, config)
    want = _outcome(_oracle_train, m, ds, config)
    if isinstance(want, str):
        assert got == want  # diverged at the same epoch
        return
    assert not isinstance(got, str), got
    (weights, biases, epochs_trained), (train_mse, val_mse, best_epoch) = want
    model, history = got
    assert _bits(model.weights) == _bits(weights) and _bits(model.biases) == _bits(biases)
    assert _bits([history.train_mse, history.val_mse]) == _bits([train_mse, val_mse])
    assert (history.best_epoch, model.epochs_trained) == (best_epoch, epochs_trained)


def _bits(arrays):
    """Shape and bytes of each array: stricter than ``np.array_equal``,
    which takes -0.0 for 0.0 and never matches NaN."""
    return [(np.shape(a), np.asarray(a, dtype=float).tobytes()) for a in arrays]


@given(_training_runs())
@settings(max_examples=40, deadline=None)
# One val row: numpy multiplies it by gemv, not gemm, so it must not be
# stacked under the train rows.
@example((init_model(2, [4], seed=0), _linear_dataset(n=3, d=2, seed=1),
          TrainConfig(lr=0.1, epochs=50, patience=50)))
def test_training_matches_the_per_layer_oracle(run):
    """Bit for bit the weights, biases and history of the per-layer loop,
    including the epoch it diverges at."""
    _assert_trains_like_the_oracle(*run)


@pytest.mark.parametrize(
    "hidden,lr,epochs,patience,stops",
    [(None, 0.01, 400, 200, False), ([7], 0.5, 300, 5, True), ([], 0.25, 300, 3, True),
     ([], 50.0, 100, 100, None)],
    ids=["default-shape", "one-hidden-early-stop", "linear-early-stop", "diverges"],
)
def test_training_matches_the_oracle_on_the_default_dataset(
    hidden, lr, epochs, patience, stops
):
    ds = _default_synthetic()
    assert (ds.norm.feature_stds == 0).any()
    m = init_model(14, hidden, seed=3)
    config = TrainConfig(lr=lr, epochs=epochs, patience=patience)
    _assert_trains_like_the_oracle(m, ds, config)
    got = _outcome(train, m, ds, config)
    if stops is None:
        assert isinstance(got, str) and "non-finite" in got
    else:
        assert (got[0].epochs_trained < epochs) is stops


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
    assert (got.power_w, got.perf_ips) == (manual[0], manual[1])


def test_predict_refuses_an_untrained_model(corpus_doc):
    with pytest.raises(FeatureContractMismatch, match="no normalization statistics"):
        predict(init_model(14, [], seed=0), profile(corpus_doc, "copy_kernel"), DEVICE_A)


def test_predict_keeps_negative_outputs(corpus_doc):
    _, ds = _pipeline_fixture(seed=4)
    trained, _ = train(init_model(14, [], seed=3), ds, TrainConfig(epochs=50, patience=100))
    # doctored weights: both outputs are -1e6 times the standardized SM count,
    # hugely negative for DEVICE_A (10 SMs, above the mean of 9)
    weights = np.zeros_like(trained.weights[0])
    weights[:, feature_names().index("sm_count")] = -1e6
    doctored = MlpModel([weights], [np.zeros(2)],
                        trained.norm, trained.seed)
    prof = profile(corpus_doc, "copy_kernel")
    prediction = predict(doctored, prof, DEVICE_A)
    norm = trained.norm
    raw = norm.destandardize_targets(
        forward(doctored, norm.standardize_features(feature_vector(prof, DEVICE_A))))
    assert (prediction.power_w, prediction.perf_ips) == (raw[0], raw[1])
    assert prediction.power_w < 0 and prediction.perf_ips < 0
    assert prediction.clamped
    small = replace(DEVICE_A, name="small", sm_count=8)
    assert not predict(doctored, prof, small).clamped
    result = rank_devices(prof, [DEVICE_A, small], doctored)
    assert [e.device_name for e in result.entries] == ["small"]
    assert result.excluded == [prediction]


def test_predict_rejects_an_output_that_is_not_finite(corpus_doc):
    model = fit_linear_baseline(_default_synthetic())
    huge = replace(default_catalog()[0], memory_clock_mhz=1.7e308)  # schema-valid
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # numpy's overflow warning would raise here
        with pytest.raises(WattrankError, match="'V100' is not finite"):
            predict(model, profile(corpus_doc, "copy_kernel"), huge)
        with pytest.raises(WattrankError, match="'V100' is not finite"):
            rank_devices(profile(corpus_doc, "copy_kernel"), [huge], model)


def test_predict_feature_contract_mismatch(corpus_doc):
    ds = _linear_dataset(d=5)  # stats cover 5 features, not 14
    trained, _ = train(init_model(5, [], seed=0), ds, TrainConfig(epochs=10, patience=50))
    with pytest.raises(FeatureContractMismatch):
        predict(trained, profile(corpus_doc, "copy_kernel"), DEVICE_A)


def test_ridge_serves_both_targets_on_default_synthetic():
    ds = _default_synthetic()
    val = evaluate(fit_linear_baseline(ds), ds)["val"]
    assert val["perf"]["r2"] >= 0.95 and val["power"]["r2"] >= 0.95


def test_prediction_ignores_a_constant_feature(corpus_doc):
    ds = _default_synthetic()
    texture = feature_names().index("texture_and_surface")
    assert ds.norm.feature_stds[texture] == 0
    model, _ = train(init_model(14, [7], seed=0), ds, TrainConfig(epochs=60))
    assert model.norm is ds.norm
    prof = profile(corpus_doc, "copy_kernel")
    textured = replace(prof, counts={**prof.counts, InstructionClass.TEXTURE_AND_SURFACE: 9})
    device = default_catalog()[0]
    assert predict(model, textured, device) == predict(model, prof, device)
    # a column that varies on the train rows does move the prediction
    tripled = replace(device, sm_count=3 * device.sm_count)
    assert predict(model, prof, tripled) != predict(model, prof, device)


def test_save_model_refuses_an_untrained_model(tmp_path):
    with pytest.raises(FeatureContractMismatch, match="untrained"):
        save_model(init_model(5, [], seed=0), tmp_path / "model.json")
    assert not (tmp_path / "model.json").exists()


def test_a_model_with_numpy_integer_widths_saves_and_loads_bit_for_bit(tmp_path):
    """The layer widths are read off the weights, so widths given as numpy
    integers save like any others."""
    model = init_model(5, list(np.array([6])), seed=1)
    trained, _ = train(model, _linear_dataset(), TrainConfig(epochs=20, patience=50))
    assert trained.layer_dims == (5, 6, 2)
    path = tmp_path / "model.json"
    save_model(trained, path)
    again = load_model(path)
    assert again.layer_dims == trained.layer_dims
    for got, want in zip([*again.weights, *again.biases], [*trained.weights, *trained.biases]):
        assert got.tobytes() == want.tobytes()
    assert again.norm.to_dict() == trained.norm.to_dict()
    text = path.read_text()
    save_model(again, path)
    assert path.read_text() == text


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
    catalog = default_catalog()
    model = fit_linear_baseline(_default_synthetic())
    prof = profile(corpus_doc, "copy_kernel")
    assert not any(predict(model, prof, device).clamped for device in catalog)
    result = rank_devices(prof, catalog, model)
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


@pytest.mark.parametrize(
    "version,error",
    [(True, CorruptFile), (1.0, CorruptFile), ("1", CorruptFile), (None, CorruptFile),
     ([1], CorruptFile), (0, VersionMismatch), (2, VersionMismatch),
     (10**400, VersionMismatch)],
)
def test_load_model_reads_the_version_as_a_json_integer(tmp_path, version, error):
    ds = _linear_dataset()
    path = tmp_path / "model.json"
    save_model(fit_linear_baseline(ds), path)
    assert load_model(path).layer_dims == (5, 2)
    doc = json.loads(path.read_text())
    doc["version"] = version
    path.write_text(json.dumps(doc))
    with pytest.raises(error, match=re.escape(str(path))):
        load_model(path)
    del doc["version"]
    path.write_text(json.dumps(doc))
    with pytest.raises(CorruptFile, match="missing version"):
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
        (lambda d: d["layer_dims"].__setitem__(0, 5.7), "expected an integer"),
        (lambda d: d.update(seed=True), "expected an integer"),
        (lambda d: d.update(epochs_trained="12"), "expected an integer"),
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
