"""Desk-scale adaptable classifier and the test-time adaptation objectives.

The classifier is a frozen random feature map followed by a trained linear
head; the only test-time trainable parameters are a per-feature scale and
shift (``gamma``, ``beta``) packed into one flat vector of length ``2h``.
All objective gradients are derived in closed form, so adaptation needs no
autodiff framework. Prediction, the objectives and the adaptation step take
a batch's frozen features, ``model.features(batch)``, rather than the batch:
the features do not depend on the parameters, so an engine step computes
them once and shares them.

The objective is the data term alone: the mean prediction entropy of the
batch, optionally restricted to rows whose entropy falls below EATA's
reliability margin ``0.4 * ln(classes)``. The update step then applies two
contractions toward the source parameters ``theta0``:

* the quadratic anchor ``lambda * (theta - theta0)^T Omega (theta - theta0)``,
  in decoupled form: one shrink of the data step's result by
  ``alpha_i = 1 - 2 * lambda * omega_i * lr`` per coordinate,
* weight ensembling, the interpolation
  ``theta <- alpha * theta + (1 - alpha) * theta0``.

An anchored step is therefore exactly an entropy step followed by
interpolation with ``alpha_i``, which is the equivalence the update is
designed around; the anchor never enters the objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    ConfigurationError,
    InputDomainError,
    InsufficientDataError,
    NumericalError,
    TrainingError,
    check_fields,
)

OBJECTIVE_KINDS = (
    "entropy",
    "filtered_entropy",
    "fisher_entropy",
    "weight_ensemble_entropy",
    "filtered_fisher",
    "filtered_ensemble",
)
_FILTERED = {"filtered_entropy", "filtered_fisher", "filtered_ensemble"}
_FISHER = {"fisher_entropy", "filtered_fisher"}
_ENSEMBLE = {"weight_ensemble_entropy", "filtered_ensemble"}

DEFAULT_TTA_LR = 2.5e-3
SOURCE_BATCH_SIZE = 64


@dataclass(frozen=True)
class TTAObjectiveConfig:
    """One TTA update rule: data term plus optional anchor/ensembling."""

    kind: str = "entropy"
    lr: float = DEFAULT_TTA_LR
    fisher_lambda: float = 0.0
    fisher_omega: np.ndarray | None = None  # None -> uniform weights of 1
    alpha: float = 1.0

    def __post_init__(self):
        if self.fisher_omega is not None:
            om = np.asarray(self.fisher_omega, dtype=np.float64)
            object.__setattr__(self, "fisher_omega", om)
        check_fields(
            ("kind", self.kind in OBJECTIVE_KINDS, f"unknown objective {self.kind!r}"),
            ("lr", bool(np.isfinite(self.lr)) and self.lr >= 0, "must be finite and >= 0"),
            ("alpha", 0.0 <= self.alpha <= 1.0, "must be in [0, 1]"),
            ("fisher_lambda", self.fisher_lambda >= 0, "must be >= 0"),
            ("fisher_omega", self.fisher_omega is None or not np.any(self.fisher_omega < 0),
             "entries must be >= 0"),
        )

    @property
    def filtered(self) -> bool:
        return self.kind in _FILTERED

    @property
    def fisher(self) -> bool:
        return self.kind in _FISHER

    @property
    def ensembled(self) -> bool:
        return self.kind in _ENSEMBLE


def default_anchoring(kind: str, reservoir: bool) -> tuple[float, float]:
    """The package's default ``(fisher_lambda, alpha)`` for an objective kind.

    Single-model runs get the stronger regularization (lambda 2000,
    alpha 0.99); reservoir runs default weaker (lambda 1000, alpha 0.995)
    since per-domain models need less external variance control. Kinds
    without an anchor or ensembling get the neutral (0, 1).
    """
    lam = (1000.0 if reservoir else 2000.0) if kind in _FISHER else 0.0
    alpha = (0.995 if reservoir else 0.99) if kind in _ENSEMBLE else 1.0
    return lam, alpha


class AdaptableClassifier:
    """Frozen random features -> batch norm -> affine (gamma, beta) -> head.

    Features are standardized by the statistics of the batch at hand (the
    transductive batch-norm convention: first-order distribution shift is
    absorbed by renormalization, the affine parameters adapt the residual).
    ``features`` and the head never change after source training; adaptation
    touches only the packed ``[gamma, beta]`` vector.
    """

    BN_EPS = 1e-8

    def __init__(self, input_dim: int, n_classes: int, hidden: int, seed: int):
        if n_classes < 2:
            raise InputDomainError(f"need >= 2 classes, got {n_classes}")
        self.input_dim = int(input_dim)
        self.n_classes = int(n_classes)
        self.hidden = int(hidden)
        self.seed = int(seed)
        rng = np.random.default_rng(seed)
        self._w_feat = rng.standard_normal((hidden, input_dim)) / np.sqrt(input_dim)
        self._b_feat = 0.1 * rng.standard_normal(hidden)
        self.head_w = 0.01 * rng.standard_normal((n_classes, hidden))
        self.head_b = np.zeros(n_classes)
        self.source_params = init_params(hidden)

    @property
    def param_dim(self) -> int:
        return 2 * self.hidden

    def features(self, batch: np.ndarray) -> np.ndarray:
        """Batch-standardized frozen features; constant w.r.t. the parameters."""
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise InputDomainError(
                f"batch must have shape (b, {self.input_dim}), got {x.shape}"
            )
        raw = np.tanh(x @ self._w_feat.T + self._b_feat)
        mean = raw.mean(axis=0)
        std = raw.std(axis=0)
        return (raw - mean) / (std + self.BN_EPS)

    def logits(self, params: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Head outputs for the frozen features ``feats`` of a batch."""
        gamma, beta = split_params(params, self.hidden)
        if feats.ndim != 2 or feats.shape[1] != self.hidden:
            raise InputDomainError(
                f"features must have shape (b, {self.hidden}), got {feats.shape}"
            )
        return (gamma * feats + beta) @ self.head_w.T + self.head_b


def init_params(hidden: int) -> np.ndarray:
    """Identity affine adaptation: gamma = 1, beta = 0."""
    return np.concatenate([np.ones(hidden), np.zeros(hidden)])


def split_params(params: np.ndarray, hidden: int) -> tuple[np.ndarray, np.ndarray]:
    vec = np.asarray(params, dtype=np.float64)
    if vec.shape != (2 * hidden,):
        raise InputDomainError(
            f"parameter vector has shape {vec.shape}, expected ({2 * hidden},)"
        )
    return vec[:hidden], vec[hidden:]


def _log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))


def predict(
    model: AdaptableClassifier, params: np.ndarray, feats: np.ndarray
) -> np.ndarray:
    """Row-softmax class probabilities, shape ``(b, n_classes)``, of the batch
    whose frozen features are ``feats`` (``model.features(batch)``)."""
    logits = model.logits(params, feats)
    if not np.all(np.isfinite(logits)):
        raise NumericalError("prediction produced non-finite logits")
    return np.exp(_log_softmax(logits))


def _data_loss_and_grad(
    model: AdaptableClassifier,
    params: np.ndarray,
    feats: np.ndarray,
    config: TTAObjectiveConfig,
) -> tuple[float, np.ndarray]:
    """Entropy objective (optionally filtered): value and gradient in (gamma, beta)."""
    logits = model.logits(params, feats)
    if not np.all(np.isfinite(logits)):
        raise NumericalError("objective evaluation produced non-finite logits")
    logp = _log_softmax(logits)
    p = np.exp(logp)
    ent = -(p * logp).sum(axis=1)

    if config.filtered:
        mask = ent < 0.4 * np.log(model.n_classes)
        if not mask.any():
            return 0.0, np.zeros(2 * model.hidden)
    else:
        mask = np.ones(ent.shape[0], dtype=bool)
    m = int(mask.sum())
    loss = float(ent[mask].mean())

    # dH/du_y = -p_y (ln p_y + H), averaged over the rows that pass the filter.
    dl_du = -p * (logp + ent[:, None])
    dl_du[~mask] = 0.0
    dl_du /= m
    grad_act = dl_du @ model.head_w  # (b, h)
    grad_gamma = (grad_act * feats).sum(axis=0)
    grad_beta = grad_act.sum(axis=0)
    return loss, np.concatenate([grad_gamma, grad_beta])


def _omega(config: TTAObjectiveConfig, dim: int) -> np.ndarray:
    if config.fisher_omega is None:
        return np.ones(dim)
    om = np.asarray(config.fisher_omega, dtype=np.float64)
    if om.shape != (dim,):
        raise ConfigurationError(
            f"fisher_omega has shape {om.shape}, expected ({dim},)"
        )
    return om


def objective_loss(
    model: AdaptableClassifier,
    params: np.ndarray,
    feats: np.ndarray,
    config: TTAObjectiveConfig,
) -> float:
    """Data-term value on the batch whose frozen features are ``feats``."""
    return _data_loss_and_grad(model, params, feats, config)[0]


def objective_grad(
    model: AdaptableClassifier,
    params: np.ndarray,
    feats: np.ndarray,
    config: TTAObjectiveConfig,
) -> np.ndarray:
    """Analytic gradient of :func:`objective_loss` with respect to ``params``."""
    return _data_loss_and_grad(model, params, feats, config)[1]


def tta_step(
    model: AdaptableClassifier,
    params: np.ndarray,
    feats: np.ndarray,
    config: TTAObjectiveConfig,
) -> np.ndarray:
    """One adaptation step on the batch whose frozen features are ``feats``
    (``model.features(batch)``); returns new parameters, inputs untouched.

    The data gradient is applied first. A configured quadratic anchor then
    shrinks the step's result toward the source parameters coordinate-wise
    by ``1 - 2 * lambda * omega_i * lr`` (clipped at 0 for stability), and a
    configured ensembling interpolates by ``alpha``. Anchor and ensembling
    are therefore exactly interchangeable parameterizations of the same
    contraction.
    """
    theta = np.asarray(params, dtype=np.float64).copy()
    grad = objective_grad(model, theta, feats, config)
    if not np.all(np.isfinite(grad)):
        raise NumericalError("TTA gradient is non-finite")
    theta = theta - config.lr * grad
    if config.fisher:
        shrink = np.clip(
            1.0 - 2.0 * config.fisher_lambda * config.lr * _omega(config, theta.size),
            0.0,
            1.0,
        )
        theta = model.source_params + shrink * (theta - model.source_params)
    if config.ensembled:
        theta = config.alpha * theta + (1.0 - config.alpha) * model.source_params
    return theta


def estimate_fisher(
    model: AdaptableClassifier, source_batches: Sequence[np.ndarray]
) -> np.ndarray:
    """Diagonal Fisher weights: mean squared entropy gradient at the source.

    ``omega_i = mean over batches of (d L_ent / d theta_i)^2``, evaluated at
    the model's source parameters.
    """
    if len(source_batches) == 0:
        raise InsufficientDataError("Fisher estimation needs at least one batch")
    cfg = TTAObjectiveConfig(kind="entropy")
    acc = np.zeros(model.param_dim)
    for batch in source_batches:
        g = objective_grad(model, model.source_params, model.features(batch), cfg)
        acc += g**2
    return acc / len(source_batches)


def train_source(
    model_seed: int,
    source_data: tuple[np.ndarray, np.ndarray],
    epochs: int,
    lr: float,
    hidden: int = 32,
) -> AdaptableClassifier:
    """Train the head and affine parameters by cross-entropy SGD on
    minibatches of ``SOURCE_BATCH_SIZE``.

    Deterministic for a fixed seed. Returns the classifier with the trained
    head frozen and the trained parameter vector as ``source_params``.
    """
    inputs, labels = source_data
    x = np.asarray(inputs, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if x.ndim != 2 or x.shape[0] == 0:
        raise InsufficientDataError("source data must be a nonempty (n, d) matrix")
    if y.shape != (x.shape[0],):
        raise InputDomainError("labels must align with inputs")
    n_classes = int(y.max()) + 1
    model = AdaptableClassifier(x.shape[1], n_classes, hidden, model_seed)
    params = init_params(hidden)

    rng = np.random.default_rng(model_seed + 1)
    onehot = np.eye(n_classes)[y]
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        for start in range(0, x.shape[0], SOURCE_BATCH_SIZE):
            idx = order[start : start + SOURCE_BATCH_SIZE]
            feats = model.features(x[idx])
            gamma, beta = params[:hidden], params[hidden:]
            act = gamma * feats + beta
            logits = act @ model.head_w.T + model.head_b
            logp = _log_softmax(logits)
            if not np.all(np.isfinite(logp)):
                raise TrainingError("source training diverged (non-finite loss)")
            dl_du = (np.exp(logp) - onehot[idx]) / idx.size
            grad_act = dl_du @ model.head_w
            model.head_w -= lr * (dl_du.T @ act)
            model.head_b -= lr * dl_du.sum(axis=0)
            params = params - lr * np.concatenate(
                [(grad_act * feats).sum(axis=0), grad_act.sum(axis=0)]
            )
    model.source_params = params
    return model
