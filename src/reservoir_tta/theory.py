"""Numerical verification of the parameter-variance theory.

Four families of checks on a noisy quadratic surrogate task:

* plain SGD parameter variance grows linearly in the step count,
* source-weighted ensembling bounds it by a closed-form geometric sum,
* the interpolated update admits an exact closed-form recursion,
* an anchored (Fisher-style) update and the ensembling update with
  ``alpha = 1 - 2 * lambda * omega * eta`` trace identical trajectories,

plus a Chebyshev bound on the probability of leaving a stability region.

Variance of a parameter vector is summarized as the trace of its empirical
covariance across trials; correspondingly the task's gradient-noise level
``vbar`` is the total (summed per-coordinate) noise variance, which makes
the scalar formulas dimension-free. Every Monte-Carlo routine derives one
rng stream per trial from the key ``(seed, trial_index)``
(``seeding.keyed_rng``): trial trajectories are bit-identical no matter how
execution is chunked or parallelized, and the cross-trial moment
reductions agree to float summation-order tolerance.

A trial's gradient noise is ``rng.normal(0.0, noise_std, (steps, dim))``,
taken as its arithmetic: the driver fills a chunk's trials with
``standard_normal`` draws in place and scales the whole chunk once by
``0.0 + noise_std * z``, which gives that call's bits.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .errors import ConfigurationError, InsufficientDataError
from .seeding import keyed_rng

_CHUNK = 2048


@dataclass(frozen=True)
class NoisyQuadraticTask:
    """Quadratic surrogate loss with additive zero-mean gradient noise.

    The stochastic gradient at ``theta`` is
    ``curvature * (theta - optimum) + noise`` with per-coordinate noise
    standard deviations ``noise_std``. Zero curvature gives the pure noise
    walk used by the closed-form variance comparisons.
    """

    optimum: np.ndarray
    curvature: np.ndarray
    noise_std: np.ndarray

    def __post_init__(self):
        opt = np.atleast_1d(np.asarray(self.optimum, dtype=np.float64))
        curv = np.atleast_1d(np.asarray(self.curvature, dtype=np.float64))
        std = np.atleast_1d(np.asarray(self.noise_std, dtype=np.float64))
        if not (opt.shape == curv.shape == std.shape):
            raise ConfigurationError("task fields must share one shape")
        if np.any(curv < 0):
            raise ConfigurationError("curvature entries must be nonnegative")
        if np.any(std < 0):
            raise ConfigurationError("noise stds must be nonnegative")
        object.__setattr__(self, "optimum", opt)
        object.__setattr__(self, "curvature", curv)
        object.__setattr__(self, "noise_std", std)

    @property
    def dim(self) -> int:
        return self.optimum.size

    @property
    def total_noise_variance(self) -> float:
        """Trace of the gradient-noise covariance (the scalar ``vbar``)."""
        return float((self.noise_std**2).sum())


def pure_noise_task(dim: int = 1, noise_std: float = 1.0) -> NoisyQuadraticTask:
    """Zero-curvature task; ``vbar = dim * noise_std**2``."""
    return NoisyQuadraticTask(
        optimum=np.zeros(dim), curvature=np.zeros(dim), noise_std=np.full(dim, noise_std)
    )


@dataclass(frozen=True)
class StabilitySpec:
    """Stability radius ``beta`` around the task optimum, with the start point."""

    beta: float
    theta0: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "theta0", np.atleast_1d(np.asarray(self.theta0, dtype=np.float64))
        )
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")


@dataclass(frozen=True)
class VarianceCurve:
    """Per-step trace of the empirical parameter covariance, t = 0..steps."""

    steps: np.ndarray
    variance: np.ndarray


def linear_variance_closed_form(eta: float, vbar: float, t: np.ndarray) -> np.ndarray:
    """Plain-SGD pure-noise variance: ``t * eta^2 * vbar``."""
    return np.asarray(t, dtype=np.float64) * eta**2 * vbar


def ensemble_variance_closed_form(
    eta: float, alpha: float, vbar: float, t: np.ndarray
) -> np.ndarray:
    """Weight-ensembling variance ``eta^2 vbar alpha^2 (1 - alpha^(2t)) / (1 - alpha^2)``
    for ``alpha`` in [0, 1)."""
    tt = np.asarray(t, dtype=np.float64)
    return eta**2 * vbar * alpha**2 * (1.0 - alpha ** (2 * tt)) / (1.0 - alpha**2)


def _scale_noise(noise: np.ndarray, task: NoisyQuadraticTask) -> np.ndarray:
    """``0.0 + noise_std * noise`` in place: the bits of ``rng.normal(0.0,
    noise_std, size)`` from the standard-normal draw of the same rng."""
    np.multiply(noise, task.noise_std, out=noise)
    return np.add(noise, 0.0, out=noise)


def _trial_noise(
    seed: int, trial: int, steps: int, task: NoisyQuadraticTask
) -> np.ndarray:
    """One trial's ``(steps, dim)`` gradient noise."""
    return _scale_noise(keyed_rng(seed, trial).standard_normal((steps, task.dim)), task)


def _mc_iterates(
    task: NoisyQuadraticTask,
    eta: float,
    steps: int,
    trials: int,
    seed: int,
    theta0: np.ndarray,
    alpha: float | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """The Monte-Carlo driver: yields ``(t, x)`` per chunk of trials and step.

    ``x`` holds one chunk's ``(n, dim)`` iterates at step ``t = 0..steps``
    and is valid until the next yield. ``alpha=None`` means plain SGD,
    otherwise every step interpolates back toward ``theta0``.
    """
    for start in range(0, trials, _CHUNK):
        n = min(_CHUNK, trials - start)
        noise = np.empty((n, steps, task.dim))
        for i in range(n):
            keyed_rng(seed, start + i).standard_normal(out=noise[i])
        _scale_noise(noise, task)
        x = np.tile(theta0, (n, 1))
        yield 0, x
        for t in range(steps):
            grad = task.curvature * (x - task.optimum) + noise[:, t, :]
            x = x - eta * grad
            if alpha is not None:
                x = alpha * x + (1.0 - alpha) * theta0
            yield t + 1, x


def _trace_variance(total: np.ndarray, total_sq: np.ndarray, trials: int) -> np.ndarray:
    """Per-step trace of the sample covariance from per-coordinate moment sums."""
    mean = total / trials
    per_coord = (total_sq - trials * mean**2) / (trials - 1)
    return np.maximum(per_coord.sum(axis=1), 0.0)


def _run_variance_mc(
    task: NoisyQuadraticTask,
    eta: float,
    steps: int,
    trials: int,
    seed: int,
    theta0: np.ndarray,
    alpha: float | None,
) -> VarianceCurve:
    """Variance curve of the Monte-Carlo driver's iterates."""
    total = np.zeros((steps + 1, task.dim))
    total_sq = np.zeros((steps + 1, task.dim))
    for t, x in _mc_iterates(task, eta, steps, trials, seed, theta0, alpha):
        total[t] += x.sum(axis=0)
        total_sq[t] += (x**2).sum(axis=0)
    variance = _trace_variance(total, total_sq, trials)
    return VarianceCurve(steps=np.arange(steps + 1), variance=variance)


def simulate_sgd(
    task: NoisyQuadraticTask,
    eta: float,
    steps: int,
    trials: int,
    seed: int,
) -> VarianceCurve:
    """Empirical per-step parameter variance under plain SGD from the optimum."""
    if trials < 100:
        raise ConfigurationError(f"need >= 100 trials, got {trials}")
    return _run_variance_mc(task, eta, steps, trials, seed, task.optimum, alpha=None)


def simulate_weight_ensemble(
    task: NoisyQuadraticTask,
    eta: float,
    alpha: float,
    steps: int,
    trials: int,
    seed: int,
) -> VarianceCurve:
    """Empirical per-step variance under the source-interpolated update.

    Requires a zero-curvature task (the closed form assumes gradient noise
    independent of the iterate) and ``alpha`` in [0, 1).
    """
    if trials < 100:
        raise ConfigurationError(f"need >= 100 trials, got {trials}")
    if not 0.0 <= alpha < 1.0:
        raise ConfigurationError(f"alpha must be in [0, 1), got {alpha}")
    if np.any(task.curvature != 0):
        raise ConfigurationError("closed-form comparison requires zero curvature")
    return _run_variance_mc(task, eta, steps, trials, seed, task.optimum, alpha=alpha)


def fit_slope(curve: VarianceCurve) -> tuple[float, float]:
    """Least-squares slope of variance vs step, and the fit's R^2."""
    t = curve.steps.astype(np.float64)
    v = curve.variance
    coeffs = np.polyfit(t, v, 1)
    fitted = np.polyval(coeffs, t)
    ss_res = float(((v - fitted) ** 2).sum())
    ss_tot = float(((v - v.mean()) ** 2).sum())
    r2 = 1.0 - ss_res / ss_tot if ss_tot > 0 else 1.0
    return float(coeffs[0]), r2


def check_recursion(
    gradient_log: np.ndarray, eta: float, alpha: float, theta0: np.ndarray
) -> float:
    """Max discrepancy between the iterated update and its closed form.

    Iterative: ``theta_t = alpha * (theta_{t-1} - eta * g_{t-1}) + (1 - alpha) * theta0``.
    Closed form: ``theta_t = theta0 - eta * sum_i alpha^(t - i) * g_i``.
    """
    grads = np.asarray(gradient_log, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] == 0:
        raise InsufficientDataError("gradient log must be a nonempty (T, dim) array")
    start = np.asarray(theta0, dtype=np.float64)
    steps = grads.shape[0]

    theta = start.copy()
    worst = 0.0
    for t in range(1, steps + 1):
        theta = alpha * (theta - eta * grads[t - 1]) + (1.0 - alpha) * start
        powers = alpha ** (t - np.arange(t, dtype=np.float64))
        closed = start - eta * (powers[:, None] * grads[:t]).sum(axis=0)
        worst = max(worst, float(np.abs(theta - closed).max()))
    return worst


def check_fisher_trajectory(
    task: NoisyQuadraticTask,
    lam: float,
    omega: float,
    eta: float,
    steps: int,
    seed: int,
) -> float:
    """Max per-step gap between the anchored and the interpolated trajectory.

    Both paths start at ``optimum + 1`` and see identical noise. The anchored
    path applies the quadratic penalty's pull ``2 * lam * omega * eta``
    toward the start after each data step; the other interpolates with
    ``alpha = 1 - 2 * lam * omega * eta``.
    """
    alpha = 1.0 - 2.0 * lam * omega * eta
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(
            f"1 - 2*lam*omega*eta = {alpha} is outside (0, 1]"
        )
    start = task.optimum + 1.0
    noise = _trial_noise(seed, 0, steps, task)

    theta_fis = start.copy()
    theta_ens = start.copy()
    worst = 0.0
    for t in range(steps):
        g_fis = task.curvature * (theta_fis - task.optimum) + noise[t]
        half = theta_fis - eta * g_fis
        theta_fis = half - 2.0 * lam * omega * eta * (half - start)

        g_ens = task.curvature * (theta_ens - task.optimum) + noise[t]
        theta_ens = alpha * (theta_ens - eta * g_ens) + (1.0 - alpha) * start

        worst = max(worst, float(np.abs(theta_fis - theta_ens).max()))
    return worst


@dataclass(frozen=True)
class ChebyshevReport:
    """Divergence rates vs the Chebyshev bound at every recorded step."""

    steps: np.ndarray
    empirical_rate: np.ndarray
    bound: np.ndarray
    empirical_var: np.ndarray
    slack: np.ndarray  # 3-sigma binomial slack on the rate estimate

    @property
    def holds(self) -> bool:
        return bool(np.all(self.empirical_rate <= self.bound + self.slack))

    @property
    def max_violation(self) -> float:
        return float((self.empirical_rate - (self.bound + self.slack)).max())


def check_chebyshev(
    task: NoisyQuadraticTask,
    spec: StabilitySpec,
    eta: float,
    steps: int,
    trials: int,
    seed: int,
) -> ChebyshevReport:
    """Empirical ``Pr[||theta_t - optimum|| > beta]`` against the variance bound.

    Requires a contractive configuration (positive curvature with
    ``eta * curvature < 2``) so the mean drifts toward the optimum, and
    ``beta`` strictly above the starting distance.
    """
    if trials < 100:
        raise ConfigurationError(f"need >= 100 trials, got {trials}")
    if np.any(task.curvature <= 0) or np.any(eta * task.curvature >= 2):
        raise ConfigurationError(
            "Chebyshev check needs contractive curvature (0 < eta*a < 2)"
        )
    theta0 = spec.theta0
    if theta0.shape != task.optimum.shape:
        raise ConfigurationError("theta0 must match the task dimension")
    d0 = float(np.linalg.norm(theta0 - task.optimum))
    if spec.beta <= d0:
        raise ConfigurationError(
            f"beta = {spec.beta} must exceed the initial distance {d0}"
        )

    total = np.zeros((steps + 1, task.dim))
    total_sq = np.zeros((steps + 1, task.dim))
    exceed = np.zeros(steps + 1)
    for t, x in _mc_iterates(task, eta, steps, trials, seed, theta0):
        total[t] += x.sum(axis=0)
        total_sq[t] += (x**2).sum(axis=0)
        exceed[t] += (np.linalg.norm(x - task.optimum, axis=1) > spec.beta).sum()
    variance = _trace_variance(total, total_sq, trials)
    rate = exceed / trials
    bound = variance / (spec.beta - d0) ** 2
    slack = 3.0 * np.sqrt(rate * (1.0 - rate) / trials)
    return ChebyshevReport(
        steps=np.arange(steps + 1),
        empirical_rate=rate,
        bound=bound,
        empirical_var=variance,
        slack=slack,
    )


def contractive_variance_closed_form(
    task: NoisyQuadraticTask, eta: float, t: np.ndarray
) -> np.ndarray:
    """Exact trace variance of the contractive recursion (for reporting)."""
    tt = np.asarray(t, dtype=np.float64)[:, None]
    rho = 1.0 - eta * task.curvature[None, :]
    with np.errstate(divide="ignore", invalid="ignore"):
        per = np.where(
            rho**2 == 1.0,
            tt * eta**2 * task.noise_std[None, :] ** 2,
            eta**2
            * task.noise_std[None, :] ** 2
            * (1.0 - rho ** (2 * tt))
            / (1.0 - rho**2),
        )
    return per.sum(axis=1)
