"""Desk-scale adaptable classifier and the test-time adaptation update rule.

The classifier is a frozen random feature map followed by a trained linear
head; the only test-time trainable parameters are a per-feature scale and
shift (``gamma``, ``beta``) packed into one flat vector of length ``2h``.
All gradients are derived in closed form, so adaptation needs no autodiff
framework. Prediction, the data term and the adaptation step take a batch's
frozen features, ``model.features(batch)``, rather than the batch: the
features do not depend on the parameters, so an engine step computes them
once and shares them. ``predict`` also takes a ``(B, 2h)`` stack of
parameter vectors with the ``(B, b, h)`` features of ``B`` batches, and
gives each slice the bits of a call on that slice alone, so an episode
predicts a block of steps in one call.

A ``MethodConfig`` is one ``methods`` entry of a run config and the update
rule it names. Its data term is the mean prediction entropy of the batch,
for a filtered kind restricted to rows whose entropy falls below EATA's
reliability margin ``0.4 * ln(classes)``; only its gradient is computed
(``entropy_grad``), since no step reads the loss. The update step then applies two
contractions toward the source parameters ``theta0``:

* the quadratic anchor ``lambda * (theta - theta0)^T Omega (theta - theta0)``,
  in decoupled form: one shrink of the data step's result by
  ``alpha_i = 1 - 2 * lambda * omega_i * lr`` per coordinate,
* weight ensembling, the interpolation
  ``theta <- alpha * theta + (1 - alpha) * theta0``.

An anchored step is therefore exactly an entropy step followed by
interpolation with ``alpha_i``, which is the equivalence the update is
designed around; the anchor never enters the data term.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    InputDomainError,
    InsufficientDataError,
    NumericalError,
    TrainingError,
    check_fields,
    encodes_as_utf8,
)
from .seeding import keyed_rng

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
# The longest output file name, summary_<name>_seed<seed>.json, fits in 255
# bytes for every seed below 2**32 (10 digits).
MAX_NAME_BYTES = 255 - len("summary__seed4294967295.json")


@dataclass(frozen=True)
class MethodConfig:
    """One engine variant: an objective kind, its learning rate and the
    reservoir switch.

    The kind fixes the data term (``filtered``) and which contraction
    follows the step. The anchor strength and ensembling rate are fixed per
    kind: single-model runs get the stronger regularization (lambda 2000,
    alpha 0.99); reservoir runs default weaker (lambda 1000, alpha 0.995)
    since per-domain models need less external variance control. Kinds
    without an anchor or ensembling get the neutral (0, 1).
    """

    name: str
    kind: str = "entropy"
    reservoir: bool = False
    lr: float = DEFAULT_TTA_LR

    def __post_init__(self):
        # The name is part of every output file name.
        utf8 = encodes_as_utf8(self.name)
        check_fields(
            ("name", self.name != "" and "/" not in self.name,
             "must be nonempty and contain no '/'"),
            ("name", "\0" not in self.name, "must not contain a NUL character"),
            ("name", utf8, "must be encodable as UTF-8"),
            ("name", not utf8 or len(self.name.encode()) <= MAX_NAME_BYTES,
             f"must be at most {MAX_NAME_BYTES} bytes in UTF-8"),
            ("kind", self.kind in OBJECTIVE_KINDS, f"unknown objective {self.kind!r}"),
            ("lr", bool(np.isfinite(self.lr)) and self.lr >= 0, "must be finite and >= 0"),
        )

    @property
    def filtered(self) -> bool:
        return self.kind in _FILTERED

    @property
    def fisher_lambda(self) -> float:
        if self.kind not in _FISHER:
            return 0.0
        return 1000.0 if self.reservoir else 2000.0

    @property
    def alpha(self) -> float:
        if self.kind not in _ENSEMBLE:
            return 1.0
        return 0.995 if self.reservoir else 0.99


class AdaptableClassifier:
    """Frozen random features -> batch norm -> affine (gamma, beta) -> head.

    Features are standardized by the statistics of the batch at hand (the
    transductive batch-norm convention: first-order distribution shift is
    absorbed by renormalization, the affine parameters adapt the residual).
    ``features`` and the head never change after source training; adaptation
    touches only the packed ``[gamma, beta]`` vector. The weights are drawn
    from ``keyed_rng(seed)``: a seed outside ``[0, 2**32)`` raises
    ``OverflowError``.
    """

    BN_EPS = 1e-8

    def __init__(self, input_dim: int, n_classes: int, hidden: int, seed: int):
        if n_classes < 2:
            raise InputDomainError(f"need >= 2 classes, got {n_classes}")
        self.input_dim = int(input_dim)
        self.n_classes = int(n_classes)
        self.hidden = int(hidden)
        rng = keyed_rng(seed)
        self._w_feat = rng.standard_normal((hidden, input_dim)) / np.sqrt(input_dim)
        self._b_feat = 0.1 * rng.standard_normal(hidden)
        self.head_w = 0.01 * rng.standard_normal((n_classes, hidden))
        self.head_b = np.zeros(n_classes)
        self.source_params = init_params(hidden)
        # EATA's reliability margin on a row's prediction entropy.
        self.entropy_margin = 0.4 * np.log(self.n_classes)

    @property
    def param_dim(self) -> int:
        return 2 * self.hidden

    def features(self, batch: np.ndarray) -> np.ndarray:
        """Batch-standardized frozen features; constant w.r.t. the parameters.
        A ``(B, b, input_dim)`` stack gives slice ``i`` the bits of ``features(batch[i])``."""
        x = np.asarray(batch, dtype=np.float64)
        if x.ndim not in (2, 3) or x.shape[-1] != self.input_dim:
            raise InputDomainError(
                f"batch must have shape ([B,] b, {self.input_dim}), got {x.shape}"
            )
        raw = x @ self._w_feat.T
        raw += self._b_feat
        np.tanh(raw, out=raw)
        std = raw.std(axis=-2, keepdims=True)
        raw -= raw.mean(axis=-2, keepdims=True)
        raw /= std + self.BN_EPS
        return raw

    def logits(self, params: np.ndarray, feats: np.ndarray) -> np.ndarray:
        """Head outputs for the frozen features ``feats`` of a batch. A
        ``(B, 2h)`` parameter stack with ``(B, b, h)`` features gives slice
        ``i`` the bits of ``logits(params[i], feats[i])``."""
        gamma, beta = split_params(params, self.hidden)
        if (
            feats.ndim != gamma.ndim + 1
            or feats.shape[:-2] != gamma.shape[:-1]
            or feats.shape[-1] != self.hidden
        ):
            raise InputDomainError(
                f"features must have shape ({'B, ' * (gamma.ndim - 1)}b, {self.hidden}),"
                f" got {feats.shape}"
            )
        act = gamma[..., None, :] * feats
        act += beta[..., None, :]
        logits = act @ self.head_w.T
        logits += self.head_b
        return logits


def init_params(hidden: int) -> np.ndarray:
    """Identity affine adaptation: gamma = 1, beta = 0."""
    return np.concatenate([np.ones(hidden), np.zeros(hidden)])


def split_params(params: np.ndarray, hidden: int) -> tuple[np.ndarray, np.ndarray]:
    """``(gamma, beta)`` of a ``(2h,)`` vector or a ``(B, 2h)`` stack of them."""
    vec = np.asarray(params, dtype=np.float64)
    if vec.ndim not in (1, 2) or vec.shape[-1] != 2 * hidden:
        raise InputDomainError(
            f"parameter vector has shape {vec.shape}, expected ([B,] {2 * hidden})"
        )
    return vec[..., :hidden], vec[..., hidden:]


def log_softmax(logits: np.ndarray, axis: int = 1) -> np.ndarray:
    """Log-softmax along ``axis``, of class logits and of domain-assignment logits."""
    shifted = logits - logits.max(axis=axis, keepdims=True)
    lse = np.exp(shifted).sum(axis=axis, keepdims=True)
    shifted -= np.log(lse, out=lse)
    return shifted


def _log_probs(model: AdaptableClassifier, params: np.ndarray, feats: np.ndarray) -> np.ndarray:
    """Log-softmax over the classes of the head's logits for the frozen
    features ``feats``, of one batch or of a stack (see ``logits``)."""
    logits = model.logits(params, feats)
    if not np.isfinite(logits).all():
        raise NumericalError("non-finite logits")
    return log_softmax(logits, axis=-1)


def predict(
    model: AdaptableClassifier, params: np.ndarray, feats: np.ndarray
) -> np.ndarray:
    """Row-softmax class probabilities, shape ``(b, n_classes)``, of the batch
    whose frozen features are ``feats`` (``model.features(batch)``). A
    ``(B, 2h)`` parameter stack with ``(B, b, h)`` features gives ``(B, b,
    n_classes)``, slice ``i`` with the bits of ``predict(params[i],
    feats[i])``; any non-finite logit of the stack raises."""
    logp = _log_probs(model, params, feats)
    return np.exp(logp, out=logp)


def entropy_grad(
    model: AdaptableClassifier, params: np.ndarray, feats: np.ndarray, filtered: bool
) -> np.ndarray:
    """Gradient in (gamma, beta) of the mean prediction entropy of the batch
    whose frozen features are ``feats``.

    ``filtered`` keeps only the rows whose entropy is below the margin
    ``0.4 * ln(classes)``; a batch with no such row gives 0.
    """
    logp = _log_probs(model, params, feats)
    p = np.exp(logp)
    ent = (p * logp).sum(axis=1)
    np.negative(ent, out=ent)

    # dH/du_y = -p_y (ln p_y + H), averaged over the rows that pass the
    # filter. The sign rides on the divisor: rounding is symmetric in sign,
    # so (p x) / -m is (-p x) / m bit for bit.
    dl_du = logp
    dl_du += ent[:, None]
    dl_du *= p
    if filtered:
        keep = ent < model.entropy_margin
        kept = np.count_nonzero(keep)
        if not kept:
            return np.zeros(2 * model.hidden)
        dl_du /= -kept
        dl_du[~keep] = 0.0
    else:
        dl_du /= -ent.shape[0]
    grad_act = dl_du @ model.head_w  # (b, h)
    grad = np.empty(2 * model.hidden)
    grad_act.sum(axis=0, out=grad[model.hidden :])
    grad_act *= feats
    grad_act.sum(axis=0, out=grad[: model.hidden])
    return grad


def tta_step(
    model: AdaptableClassifier,
    params: np.ndarray,
    feats: np.ndarray,
    method: MethodConfig,
    omega: np.ndarray,
) -> np.ndarray:
    """One adaptation step on the batch whose frozen features are ``feats``
    (``model.features(batch)``); returns new parameters, inputs untouched.

    The data gradient is applied first. A method with a quadratic anchor
    then shrinks the step's result toward the source parameters
    coordinate-wise by ``1 - 2 * lambda * omega_i * lr`` (clipped at 0 for
    stability), with ``omega`` the anchor's per-coordinate weights; a
    method with ensembling interpolates by ``alpha``. Anchor and ensembling
    are therefore exactly interchangeable parameterizations of the same
    contraction.
    """
    theta = np.asarray(params, dtype=np.float64)
    step = entropy_grad(model, theta, feats, method.filtered)
    if not np.isfinite(step).all():
        raise NumericalError("TTA gradient is non-finite")
    lr, lam, alpha = method.lr, method.fisher_lambda, method.alpha
    src = model.source_params
    step *= lr
    theta = np.subtract(theta, step, out=step)
    if lam:
        # np.clip's values, NaN included, without its wrapper.
        shrink = omega * (2.0 * lam * lr)
        np.subtract(1.0, shrink, out=shrink)
        np.minimum(np.maximum(shrink, 0.0, out=shrink), 1.0, out=shrink)
        theta -= src
        theta *= shrink
        theta += src
    if alpha != 1.0:
        theta *= alpha
        theta += (1.0 - alpha) * src
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
    acc = np.zeros(model.param_dim)
    for batch in source_batches:
        g = entropy_grad(model, model.source_params, model.features(batch), filtered=False)
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
    minibatches of ``SOURCE_BATCH_SIZE``, an epoch's full ones featurized as one stack.

    Deterministic for a fixed seed: the classifier draws from
    ``keyed_rng(model_seed)`` and the minibatch order from
    ``keyed_rng(model_seed + 1)``, so a seed outside ``[0, 2**32 - 1)``
    raises ``OverflowError``. Returns the classifier with the trained head
    frozen and the trained parameter vector as ``source_params``.
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

    rng = keyed_rng(model_seed + 1)
    onehot = np.eye(n_classes)[y]
    full = x.shape[0] - x.shape[0] % SOURCE_BATCH_SIZE
    for _ in range(epochs):
        order = rng.permutation(x.shape[0])
        stacked = model.features(x[order[:full]].reshape(-1, SOURCE_BATCH_SIZE, x.shape[1]))
        for start in range(0, x.shape[0], SOURCE_BATCH_SIZE):
            idx = order[start : start + SOURCE_BATCH_SIZE]
            feats = stacked[start // SOURCE_BATCH_SIZE] if start < full else model.features(x[idx])
            gamma, beta = params[:hidden], params[hidden:]
            act = gamma * feats + beta
            logits = act @ model.head_w.T + model.head_b
            logp = log_softmax(logits)
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
