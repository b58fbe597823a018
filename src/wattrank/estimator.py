"""Predictive model: a small feedforward network.

The network maps the standardized 14-feature vector (instruction-class
counts + device features) to standardized (power, performance).  Hidden
layers use ReLU, the output layer is linear, and the default shape is
[d, 2d, d, 2].  Training is deterministic full-batch gradient descent on
the mean-squared error over both outputs, with early stopping on the
validation loss, over one vector of all weights and biases.  The ridge
baseline is the same model with no hidden layer, solved in closed form.
Everything is plain numpy in double precision so that backpropagation can
be verified against central finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .dataset_builder import NormStats, TrainingDataset, feature_vector
from .device_catalog import DeviceSpec
from .errors import WattrankError
from .instruction_profiler import InstructionProfile
from .json_types import json_dumps, json_loads, json_numbers, json_value

MODEL_FILE_VERSION = 1
RIDGE_PENALTY = 1e-6  # keeps the ridge normal equations solvable


class DimensionMismatch(WattrankError):
    pass


class DivergenceDetected(WattrankError):
    pass


class FeatureContractMismatch(WattrankError):
    pass


class VersionMismatch(WattrankError):
    pass


class CorruptFile(WattrankError):
    pass


@dataclass(frozen=True)
class MlpModel:
    """Feedforward network with its normalization statistics.

    ``weights[k]`` has shape (layer_dims[k+1], layer_dims[k]); hidden
    layers apply ReLU, the final layer is affine.
    """

    weights: list[np.ndarray]
    biases: list[np.ndarray]
    norm: NormStats | None
    seed: int
    epochs_trained: int = 0

    @property
    def layer_dims(self) -> tuple[int, ...]:
        return (self.weights[0].shape[1], *(w.shape[0] for w in self.weights))


@dataclass(frozen=True)
class Prediction:
    power_w: float
    perf_ips: float
    device_name: str
    workload_id: str

    @property
    def clamped(self) -> bool:
        """True unless both outputs are positive: a guess that is never ranked."""
        return not (self.power_w > 0 and self.perf_ips > 0)


@dataclass(frozen=True)
class TrainConfig:
    lr: float = 0.01
    epochs: int = 5000
    patience: int = 200


@dataclass(frozen=True)
class TrainHistory:
    train_mse: list[float]
    val_mse: list[float]
    best_epoch: int


def init_model(
    input_dim: int, hidden_spec: list[int] | None = None, seed: int = 42
) -> MlpModel:
    """Glorot-uniform weights, zero biases, deterministic in ``seed``.

    ``hidden_spec`` defaults to [2d, d] for d = ``input_dim``; an empty list
    yields a plain linear map.  Raises :class:`DimensionMismatch` when the
    input or a hidden layer is less than 1 wide, and :class:`WattrankError`
    for a negative ``seed``.
    """
    if hidden_spec is None:
        hidden_spec = [2 * input_dim, input_dim]
    dims = (input_dim, *hidden_spec, 2)
    if min(dims) < 1:
        raise DimensionMismatch(f"every layer needs a width of at least 1: {list(dims)}")
    if seed < 0:
        raise WattrankError(f"seed must be a non-negative integer, got {seed}")
    rng = np.random.default_rng(seed)
    weights = []
    biases = []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        r = math.sqrt(6.0 / (fan_in + fan_out))
        weights.append(rng.uniform(-r, r, size=(fan_out, fan_in)))
        biases.append(np.zeros(fan_out))
    return MlpModel(weights, biases, norm=None, seed=seed)


def _layers(
    weights: list[np.ndarray], biases: list[np.ndarray], X: np.ndarray
) -> list[np.ndarray]:
    """The input, every hidden (ReLU) activation, then the affine output."""
    acts = [X]
    for W, b in zip(weights[:-1], biases[:-1]):
        acts.append(np.maximum(acts[-1] @ W.T + b, 0.0))
    acts.append(acts[-1] @ weights[-1].T + biases[-1])
    return acts


def forward(m: MlpModel, x: np.ndarray) -> np.ndarray:
    """Run the network on a standardized vector or row matrix."""
    x = np.asarray(x, dtype=float)
    single = x.ndim == 1
    X = np.atleast_2d(x)
    if X.shape[1] != m.layer_dims[0]:
        raise DimensionMismatch(
            f"input has {X.shape[1]} features, model expects {m.layer_dims[0]}"
        )
    out = _layers(m.weights, m.biases, X)[-1]
    return out[0] if single else out


def _unflatten(flat: np.ndarray, dims) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """Views into ``flat``: each layer's weights, then its biases."""
    shapes = [s for i, o in zip(dims, dims[1:]) for s in ((o, i), (o,))]
    ends = np.cumsum([math.prod(s) for s in shapes])
    views = [v.reshape(s) for v, s in zip(np.split(flat, ends[:-1]), shapes)]
    return views[0::2], views[1::2]


def _mse(resid: np.ndarray) -> float:
    """``np.mean(resid**2)``, without its wrapper."""
    return float(np.add.reduce(np.square(resid), axis=None) / resid.size)


def _loss_and_grads(weights, acts, Y, grad_w, grad_b) -> float:
    """MSE of ``acts[-1]`` against ``Y``, where ``acts`` is what
    :func:`_layers` returned; its gradient w.r.t. every weight and bias is
    written into the arrays of ``grad_w`` and ``grad_b``."""
    delta = acts[-1] - Y
    loss = _mse(delta)
    delta /= delta.size / 2  # rounds 2x/n once, like (2.0 * x) / n: doubling is exact
    for k in range(len(weights) - 1, -1, -1):
        np.matmul(delta.T, acts[k], out=grad_w[k])
        np.add.reduce(delta, axis=0, out=grad_b[k])
        if k > 0:
            delta = delta @ weights[k]
            delta *= acts[k] > 0  # ReLU': a > 0 iff z > 0
    return loss


def design_matrices(
    ds: TrainingDataset, indices, norm: NormStats | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """(X, Y) for the given sample indices, standardized with ``norm`` or ``ds.norm``."""
    norm = ds.norm if norm is None else norm
    X = ds.feature_matrix(indices)
    if X.shape[1] != norm.feature_means.size:
        raise FeatureContractMismatch(
            f"dataset has {X.shape[1]} features, statistics cover {norm.feature_means.size}"
        )
    return norm.standardize_features(X), norm.standardize_targets(ds.target_matrix(indices))


def train(
    m: MlpModel, ds: TrainingDataset, config: TrainConfig = TrainConfig()
) -> tuple[MlpModel, TrainHistory]:
    """Full-batch gradient descent with early stopping.

    One flat vector holds the weights and biases, another their gradients;
    the results are bit for bit those of per-layer arrays.  The returned
    model holds the weights of the best validation epoch and the dataset's
    normalization statistics.  Raises :class:`WattrankError` when
    ``config.epochs`` or ``config.patience`` is below 1 or ``config.lr`` is
    not a finite positive number, and :class:`DivergenceDetected` when the
    train loss stops being finite (learning rate too high).
    """
    if min(config.epochs, config.patience) < 1:
        raise WattrankError(f"epochs and patience must be at least 1, got {config}")
    if not (math.isfinite(config.lr) and config.lr > 0):
        raise WattrankError(f"learning rate must be finite and > 0, got {config.lr}")
    X_tr, Y_tr = design_matrices(ds, ds.train_indices)
    X_val, Y_val = design_matrices(ds, ds.val_indices)
    if X_tr.shape[1] != m.layer_dims[0]:
        raise DimensionMismatch(
            f"dataset provides {X_tr.shape[1]} features, model expects {m.layer_dims[0]}"
        )

    params = np.concatenate([a.ravel() for pair in zip(m.weights, m.biases) for a in pair])
    weights, biases = _unflatten(params, m.layer_dims)
    grads = np.empty_like(params)
    grad_w, grad_b = _unflatten(grads, m.layer_dims)
    best = params.copy()
    best_val = math.inf
    best_epoch = -1
    stale = 0
    train_hist: list[float] = []
    val_hist: list[float] = []

    for epoch in range(config.epochs):
        acts = _layers(weights, biases, X_tr)
        train_loss = _loss_and_grads(weights, acts, Y_tr, grad_w, grad_b)
        if not math.isfinite(train_loss):
            raise DivergenceDetected(
                f"train loss became non-finite at epoch {epoch}; lower the lr"
            )
        # Not stacked under the train rows: numpy multiplies a one-row
        # matrix with gemv, whose sums round unlike gemm's.
        val_loss = _mse(_layers(weights, biases, X_val)[-1] - Y_val)
        train_hist.append(train_loss)
        val_hist.append(val_loss)

        if val_loss < best_val:
            best_val = val_loss
            np.copyto(best, params)
            best_epoch = epoch
            stale = 0
        else:
            stale += 1
            if stale >= config.patience:
                break

        params -= config.lr * grads

    best_weights, best_biases = _unflatten(best, m.layer_dims)
    trained = replace(
        m,
        weights=best_weights,
        biases=best_biases,
        norm=ds.norm,
        epochs_trained=len(train_hist),
    )
    return trained, TrainHistory(
        train_mse=train_hist, val_mse=val_hist, best_epoch=best_epoch
    )


def gradient_check(m: MlpModel, x: np.ndarray, y: np.ndarray) -> float:
    """Max relative error between backprop and central finite differences.

    Perturbs every weight and bias by +-1e-6 and compares against the
    backpropagated gradient of the MSE; the relative error uses
    |g_bp - g_fd| / max(|g_bp| + |g_fd|, 1e-8).  The perturbed losses and
    their difference are computed in ``np.longdouble``, so the rounding of
    the loss does not swamp a gradient near 1e-6.
    """
    X = np.atleast_2d(np.asarray(x, dtype=float))
    Y = np.atleast_2d(np.asarray(y, dtype=float))
    grad_w = [np.empty_like(w) for w in m.weights]
    grad_b = [np.empty_like(b) for b in m.biases]
    _loss_and_grads(m.weights, _layers(m.weights, m.biases, X), Y, grad_w, grad_b)
    X, Y = X.astype(np.longdouble), Y.astype(np.longdouble)
    weights = [w.astype(np.longdouble) for w in m.weights]
    biases = [b.astype(np.longdouble) for b in m.biases]

    def loss():
        return np.mean((_layers(weights, biases, X)[-1] - Y) ** 2)

    h = 1e-6
    worst = 0.0
    for arrays, grads in ((weights, grad_w), (biases, grad_b)):
        for arr, grad in zip(arrays, grads):
            flat = arr.reshape(-1)
            grad_flat = grad.reshape(-1)
            for i in range(flat.size):
                original = flat[i]
                flat[i] = original + h
                plus = loss()
                flat[i] = original - h
                minus = loss()
                flat[i] = original
                fd = float(plus - minus) / (2.0 * h)
                bp = grad_flat[i]
                rel = abs(bp - fd) / max(abs(bp) + abs(fd), 1e-8)
                worst = max(worst, rel)
    return worst


def fit_linear_baseline(ds: TrainingDataset) -> MlpModel:
    """Closed-form ridge regression on the standardized train split, as a
    network with no hidden layer."""
    X, Y = design_matrices(ds, ds.train_indices)
    n, d = X.shape
    Xa = np.hstack([X, np.ones((n, 1))])
    A = Xa.T @ Xa + RIDGE_PENALTY * np.eye(d + 1)
    coef = np.linalg.solve(A, Xa.T @ Y)  # (d+1, 2)
    return MlpModel([coef[:-1].T], [coef[-1]], ds.norm, seed=0)


def predict(m: MlpModel, profile: InstructionProfile, device: DeviceSpec) -> Prediction:
    """Standardize, forward, de-standardize; outputs of 0 or less stay (``clamped``).
    An output that is not finite raises :class:`WattrankError` naming the device."""
    if m.norm is None:
        raise FeatureContractMismatch("model has no normalization statistics")
    raw = feature_vector(profile, device)
    if raw.size != m.norm.feature_means.size:
        raise FeatureContractMismatch(
            f"built {raw.size} features, model statistics cover "
            f"{m.norm.feature_means.size}"
        )
    with np.errstate(over="ignore", invalid="ignore"):
        out = m.norm.destandardize_targets(forward(m, m.norm.standardize_features(raw)))
    if not np.isfinite(out).all():
        raise WattrankError(f"prediction for device {device.name!r} is not finite: {out}")
    return Prediction(
        power_w=float(out[0]),
        perf_ips=float(out[1]),
        device_name=device.name,
        workload_id=profile.workload_id,
    )


def r2_score(y_true: np.ndarray, y_pred: np.ndarray) -> np.ndarray:
    """Coefficient of determination per output column."""
    y_true = np.atleast_2d(np.asarray(y_true, dtype=float))
    y_pred = np.atleast_2d(np.asarray(y_pred, dtype=float))
    ss_res = ((y_true - y_pred) ** 2).sum(axis=0)
    ss_tot = ((y_true - y_true.mean(axis=0)) ** 2).sum(axis=0)
    out = np.ones(y_true.shape[1])
    nonzero = ss_tot > 0
    out[nonzero] = 1.0 - ss_res[nonzero] / ss_tot[nonzero]
    out[~nonzero & (ss_res > 0)] = 0.0
    return out


def evaluate(m: MlpModel, ds: TrainingDataset) -> dict:
    """Standardized-space MSE and R^2 per target on both splits; rows are
    standardized with ``m.norm`` (``ds.norm`` for an untrained model)."""
    report: dict = {}
    for split, indices in (("train", ds.train_indices), ("val", ds.val_indices)):
        X, Y = design_matrices(ds, indices, m.norm)
        pred = forward(m, X)
        mse = ((pred - Y) ** 2).mean(axis=0)
        r2 = r2_score(Y, pred)
        report[split] = {
            "power": {"mse": float(mse[0]), "r2": float(r2[0])},
            "perf": {"mse": float(mse[1]), "r2": float(r2[1])},
        }
    return report


def save_model(m: MlpModel, path) -> None:
    if m.norm is None:
        raise FeatureContractMismatch("refusing to save an untrained model")
    doc = {
        "version": MODEL_FILE_VERSION,
        "layer_dims": list(m.layer_dims),
        "weights": [w.tolist() for w in m.weights],
        "biases": [b.tolist() for b in m.biases],
        "norm_stats": m.norm.to_dict(),
        "seed": m.seed,
        "epochs_trained": m.epochs_trained,
    }
    Path(path).write_text(json_dumps(doc) + "\n", encoding="utf-8")


def load_model(path) -> MlpModel:
    """Read a :func:`save_model` file.

    Raises :class:`CorruptFile` naming ``path`` unless ``version``,
    ``layer_dims``, ``seed`` and ``epochs_trained`` are JSON integers, the
    weights, biases and stats are JSON numbers, every one of them finite,
    and the layers chain from the feature statistics to 2 outputs; a
    version other than :data:`MODEL_FILE_VERSION` raises
    :class:`VersionMismatch`.  A ``feature_mask`` other than ``null`` is
    rejected too: models no longer carry a mask.
    """
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json_value(json_loads(fh.read()), dict)  # decode errors are ValueErrors
        version = json_value(doc["version"], int)
    except KeyError:
        raise CorruptFile(f"{path}: missing version field") from None
    except (TypeError, ValueError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    if version != MODEL_FILE_VERSION:
        raise VersionMismatch(f"{path}: file version {version}, expected {MODEL_FILE_VERSION}")
    if doc.get("feature_mask") is not None:
        raise CorruptFile(f"{path}: models no longer carry a feature_mask; retrain it")
    try:
        dims = [json_value(d, int) for d in json_value(doc["layer_dims"], list)]
        seed = json_value(doc["seed"], int)
        epochs_trained = json_value(doc.get("epochs_trained", 0), int)
        weights = [json_numbers(w) for w in doc["weights"]]
        biases = [json_numbers(b) for b in doc["biases"]]
        norm = NormStats.from_dict(doc["norm_stats"])
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"{path}: {exc}") from exc
    n = norm.feature_means.size
    if len(dims) < 2 or dims[0] != n or dims[-1] != 2:
        raise CorruptFile(f"{path}: layer_dims {dims} do not map {n} features to 2 outputs")
    expected = list(zip(dims[1:], dims[:-1]))
    if [w.shape for w in weights] != expected or [
        b.shape for b in biases
    ] != [(d,) for d in dims[1:]]:
        raise CorruptFile(f"{path}: weight shapes do not chain with layer_dims")
    if not all(np.isfinite(a).all() for a in (*weights, *biases)):
        raise CorruptFile(f"{path}: non-finite weight or bias")
    return MlpModel(weights, biases, norm, seed, epochs_trained)
