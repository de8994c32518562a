"""Small ReLU network training as a nonsmooth noisy-oracle testbed.

The objective is binary cross entropy of a one-hidden-layer ReLU network
over a synthetic two-Gaussian dataset. ReLU kinks make it nonsmooth, and
mini-batching makes the oracle inexact in two distinct ways worth
contrasting: freshly resampled fixed-size batches give errors that are
neither deterministic nor bounded, while an adaptive scheme that grows a
point-keyed batch until its error against the full-data values is inside a
prescribed bound behaves exactly like a deterministic bounded-error oracle.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .oracle import OracleHandle, TruthAccess, _canonical_bytes, keyed_seed


@dataclass(frozen=True)
class Dataset:
    """Feature matrix of shape (N, p) with 0/1 labels of shape (N,).

    standardized promises zero-mean unit-variance feature columns and is
    checked on construction.
    """

    features: np.ndarray
    labels: np.ndarray
    standardized: bool = False

    def __post_init__(self):
        X = np.asarray(self.features, dtype=float)
        y = np.asarray(self.labels, dtype=float)
        if X.ndim != 2 or y.ndim != 1 or X.shape[0] != y.shape[0]:
            raise ValueError("features must be (N, p) and labels (N,) with matching N")
        if X.shape[0] == 0 or X.shape[1] == 0:
            raise ValueError("dataset must be nonempty")
        if not np.all((y == 0.0) | (y == 1.0)):
            raise ValueError("labels must be 0 or 1")
        if self.standardized:
            mu = X.mean(axis=0)
            var = X.var(axis=0)
            if np.max(np.abs(mu)) > 1e-10 or np.max(np.abs(var - 1.0)) > 1e-8:
                raise ValueError("standardized data must have mean 0, variance 1 columns")
        object.__setattr__(self, "features", X)
        object.__setattr__(self, "labels", y)


def synth_dataset(num_points: int, num_features: int, separation: float,
                  seed: int = 0) -> Dataset:
    """Two standardized Gaussian clouds separated along the first feature.

    Half the points (rounded down) carry label 1 and are shifted by
    +separation/2 on feature 0, the rest by -separation/2. Rows are
    shuffled and features standardized to zero mean, unit variance.
    """
    if num_points < 2 or num_features < 1:
        raise ValueError("need at least 2 points and 1 feature")
    rng = np.random.default_rng(seed)
    y = np.zeros(num_points)
    y[: num_points // 2] = 1.0
    X = rng.standard_normal((num_points, num_features))
    X[:, 0] += np.where(y == 1.0, 0.5 * separation, -0.5 * separation)
    perm = rng.permutation(num_points)
    X, y = X[perm], y[perm]
    mu = X.mean(axis=0)
    sd = X.std(axis=0)
    sd[sd == 0.0] = 1.0
    return Dataset(features=(X - mu) / sd, labels=y, standardized=True)


def weight_count(num_features: int, hidden: int = 10) -> int:
    """Flat parameter count: first layer, its bias, output layer, its bias."""
    return hidden * num_features + hidden + hidden + 1


def init_weights(num_features: int, hidden: int = 10, seed: int = 0) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(-0.5, 0.5, size=weight_count(num_features, hidden))


def _unpack(w: np.ndarray, num_features: int, hidden: int):
    """Layer views of a flat weight vector, or of each row of a (k, dims) stack."""
    split = hidden * num_features
    W1 = w[..., :split].reshape(w.shape[:-1] + (hidden, num_features))
    b1 = w[..., split:split + hidden]
    w2 = w[..., split + hidden:split + 2 * hidden]
    b2 = w[..., -1]
    return W1, b1, w2, b2


def _sigmoid(t: np.ndarray) -> np.ndarray:
    out = np.empty_like(t)
    pos = t >= 0.0
    out[pos] = 1.0 / (1.0 + np.exp(-t[pos]))
    e = np.exp(t[~pos])
    out[~pos] = e / (1.0 + e)
    return out


def _mean_bce(logit: np.ndarray, y: np.ndarray) -> float:
    """Mean of softplus(logit) - y * logit over a 1-d logit vector.

    np.add.reduce(v) / n is the computation np.mean(v) performs, without its
    dispatch overhead.
    """
    v = np.logaddexp(0.0, logit) - y * logit
    return float(np.add.reduce(v) / v.shape[0])


def _forward_loss(w, X, y, hidden: int) -> float:
    """Mean binary cross entropy only, skipping the backward pass.

    Line-search trials query the objective many times per accepted step, so
    the gradient work is worth avoiding there.
    """
    w = np.asarray(w, dtype=float)
    num_features = X.shape[1]
    if w.shape != (weight_count(num_features, hidden),):
        raise ValueError("weight vector has the wrong length")
    W1, b1, w2, b2 = _unpack(w, num_features, hidden)
    return _mean_bce(np.maximum(X @ W1.T + b1, 0.0) @ w2 + b2, y)


def _logits_and_grads(W, X, y, hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """Logits (k, rows) and loss subgradients (k, dims) for a (k, dims) weight stack.

    Every weight vector sees the same rows. Each layer is one broadcast
    matmul over the stack, and each row of the result is what a stack of
    one gives, bit for bit.
    """
    num_features = X.shape[1]
    if W.ndim != 2 or W.shape[1] != weight_count(num_features, hidden):
        raise ValueError("weight vector has the wrong length")
    W1, b1, w2, b2 = _unpack(W, num_features, hidden)
    pre = X @ W1.transpose(0, 2, 1) + b1[:, None, :]
    act = np.maximum(pre, 0.0)
    logit = (act @ w2[:, :, None])[:, :, 0] + b2[:, None]
    batch = X.shape[0]
    dlogit = (_sigmoid(logit) - y) / batch
    db2 = dlogit.sum(axis=1)
    dw2 = (act.transpose(0, 2, 1) @ dlogit[:, :, None])[:, :, 0]
    dpre = dlogit[:, :, None] * w2[:, None, :] * (pre > 0.0)
    dW1 = dpre.transpose(0, 2, 1) @ X
    db1 = dpre.sum(axis=1)
    grads = np.concatenate([dW1.reshape(W.shape[0], -1), db1, dw2, db2[:, None]], axis=1)
    return logit, grads


def loss_and_grad(w, X, y, hidden: int = 10) -> tuple[float, np.ndarray]:
    """Mean binary cross entropy and a subgradient, both over the given rows.

    The forward pass is X -> ReLU(X W1^T + b1) -> logit, with the loss
    written as softplus(logit) - y * logit for numerical stability. ReLU
    contributes derivative zero at its kink.
    """
    w = np.asarray(w, dtype=float)
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    if w.ndim != 1:
        raise ValueError("weight vector has the wrong length")
    logit, grads = _logits_and_grads(w[None], X, y, hidden)
    return _mean_bce(logit[0], y), grads[0]


def accuracy(data: Dataset, w, hidden: int = 10) -> float:
    """Fraction of rows classified correctly, ties going to the positive class."""
    w = np.asarray(w, dtype=float)
    W1, b1, w2, b2 = _unpack(w, data.features.shape[1], hidden)
    logit = np.maximum(data.features @ W1.T + b1, 0.0) @ w2 + b2
    return float(np.mean((logit >= 0.0) == (data.labels == 1.0)))


def adaptive_batch_eval(data: Dataset, w, eps_f: float, seed: int,
                        hidden: int = 10) -> tuple[float, np.ndarray, int]:
    """Loss and gradient from a point-keyed batch grown until inside the bound.

    The whole dataset is permuted by a key derived from (seed, w), so the
    same w always sees the same sample order. Starting from a prefix of 16
    rows the batch doubles, cumulatively and without replacement, until the
    batch estimates are within eps_f of the full-data loss and sqrt(eps_f)
    of the full-data gradient. If doubling reaches the whole dataset the
    exact full-data values are returned with zero error. eps_f of 0 or
    infinity is allowed; the former always consumes the full dataset.
    Returns (loss, gradient, rows used).
    """
    w = np.asarray(w, dtype=float)
    if math.isnan(eps_f) or eps_f < 0.0:
        raise ValueError("eps_f must be nonnegative")
    total = data.features.shape[0]
    f_full, g_full = loss_and_grad(w, data.features, data.labels, hidden)
    if total <= 16:
        return f_full, g_full, total
    rng = np.random.default_rng(keyed_seed(seed, w, tag=b"batch"))
    perm = rng.permutation(total)
    grad_tol = math.sqrt(eps_f)
    size = 16
    while size < total:
        f_b, g_b = loss_and_grad(w, data.features[perm[:size]],
                                 data.labels[perm[:size]], hidden)
        if abs(f_b - f_full) <= eps_f and np.linalg.norm(g_b - g_full) <= grad_tol:
            return f_b, g_b, size
        size = min(2 * size, total)
    return f_full, g_full, total


@dataclass(frozen=True)
class BatchOracleConfig:
    """How the training oracle estimates the loss.

    mode "full" evaluates everything exactly. Mode "fixed" draws a fresh
    batch of batch_size rows per value query (the gradient reuses the most
    recent batch), giving an oracle that is noisy but not deterministic.
    Mode "adaptive" uses adaptive_batch_eval with the given eps_f target.
    """

    mode: str = "full"
    batch_size: int = 128
    eps_f: float = 0.05
    resample_seed: int = 0

    def __post_init__(self):
        if self.mode not in ("full", "fixed", "adaptive"):
            raise ValueError(f"unknown batch mode {self.mode!r}")
        if self.batch_size < 1:
            raise ValueError("batch_size must be at least 1")
        if not (self.eps_f > 0.0):
            raise ValueError("eps_f must be positive")


def _last_point_memo(fn):
    """fn with a one-entry cache on its last argument's exact bytes.

    An array result is handed out as a copy, so a caller that mutates it
    cannot change what the next call returns.
    """
    last: dict = {"key": None, "value": None}

    def memo(w):
        w = np.asarray(w, dtype=float)
        key = (w.shape, w.tobytes())
        if key != last["key"]:
            last["value"] = fn(w)
            last["key"] = key
        value = last["value"]
        return value.copy() if isinstance(value, np.ndarray) else value

    return memo


def bce_loss_oracle(data: Dataset, config: BatchOracleConfig = BatchOracleConfig(),
                    hidden: int = 10) -> OracleHandle:
    """Oracle over the flat weight vector for the given dataset.

    Truth access always evaluates the full dataset and remembers its last
    point, so reporting f and g at an iterate that did not move costs no
    second full-data pass. The handle's meta dict carries the mode;
    adaptive mode additionally tracks samples_total (sum of rows used per
    distinct query point) and last_used there. Fixed mode rejects batch
    sizes above the dataset size and is flagged as not deterministic, since
    the same w can see different batches; its eval_g carries a stacked
    `many` that evaluates a whole gradient bundle on the last batch.
    """
    X, y = data.features, data.labels
    num_features = X.shape[1]
    dims = weight_count(num_features, hidden)

    def full_f(w):
        return _forward_loss(w, X, y, hidden)

    def full_g(w):
        return loss_and_grad(w, X, y, hidden)[1]

    truth = TruthAccess(f=_last_point_memo(full_f), g=_last_point_memo(full_g))
    meta = {"mode": config.mode, "hidden": hidden}

    if config.mode == "full":
        return OracleHandle(dims=dims, eval_f=full_f, eval_g=full_g, truth_access=truth,
                            deterministic=True, meta=meta)

    if config.mode == "fixed":
        if config.batch_size > X.shape[0]:
            raise ValueError("batch_size exceeds the dataset size")
        state: dict = {"counter": 0, "batch": None}
        meta["state"] = state
        # One generator for the oracle's lifetime; its position is the
        # iteration counter, so the batch sequence is a pure function of
        # resample_seed while each draw stays cheap.
        batch_rng = np.random.default_rng(np.random.SeedSequence(config.resample_seed))

        def draw_batch():
            state["counter"] += 1
            idx = batch_rng.choice(X.shape[0], size=config.batch_size, replace=False)
            state["batch"] = idx
            return idx

        def last_batch():
            idx = state["batch"] if state["batch"] is not None else draw_batch()
            return X.take(idx, axis=0), y.take(idx)

        def fixed_f(w):
            idx = draw_batch()
            return _forward_loss(w, X.take(idx, axis=0), y.take(idx), hidden)

        def fixed_g(w):
            return loss_and_grad(w, *last_batch(), hidden)[1]

        # A gradient bundle shares the last batch, so it is one stacked pass.
        fixed_g.many = lambda points: _logits_and_grads(points, *last_batch(), hidden)[1]

        return OracleHandle(dims=dims, eval_f=fixed_f, eval_g=fixed_g, truth_access=truth,
                            deterministic=False, meta=meta)

    meta["samples_total"] = 0
    meta["last_used"] = 0
    cache: dict = {"key": None, "value": None}

    def adaptive(w):
        w = np.asarray(w, dtype=float)
        key = _canonical_bytes(w)
        if cache["key"] != key:
            loss, grad, used = adaptive_batch_eval(data, w, config.eps_f,
                                                   config.resample_seed, hidden)
            cache["key"] = key
            cache["value"] = (loss, grad, used)
            meta["samples_total"] += used
            meta["last_used"] = used
        return cache["value"]

    def adaptive_f(w):
        return adaptive(w)[0]

    def adaptive_g(w):
        return adaptive(w)[1]

    return OracleHandle(dims=dims, eval_f=adaptive_f, eval_g=adaptive_g, truth_access=truth,
                        deterministic=True, meta=meta)
