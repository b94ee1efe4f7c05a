"""Numerical verification of the parameter-variance theory.

Four families of checks on a noisy quadratic surrogate task:

* plain SGD parameter variance grows linearly in the step count,
* source-weighted ensembling bounds it by a closed-form geometric sum,
* the interpolated update admits an exact closed-form recursion,
* an anchored (Fisher-style) update and the ensembling update with
  ``alpha = 1 - 2 * lambda * omega * eta`` trace identical trajectories,

plus a Chebyshev bound on the probability of leaving a stability region.

The routines return plain numbers and arrays: a Monte-Carlo variance is the
``(steps + 1,)`` array over t = 0..steps (one such row per interpolation
weight for ``simulate_weight_ensemble``), the two exactness checks return
their worst discrepancy, and ``check_chebyshev`` returns its variance, rate
and bound arrays. Tolerances, sampling slack and verdicts belong to the
caller (``cli``'s ``theory`` command).

Variance of a parameter vector is summarized as the trace of its empirical
covariance across trials; correspondingly the task's gradient-noise level
``vbar`` is the total (summed per-coordinate) noise variance, which makes
the scalar formulas dimension-free.

The Monte-Carlo routines run their trials in chunks of ``_CHUNK`` and draw
each chunk's noise from one generator, ``keyed_rng(seed, chunk, tag)``, with
``chunk`` counting a call's chunks from 0 and ``tag`` the routine's own
nonzero constant: ``_SGD_TAG``, ``_ENSEMBLE_TAG`` or ``_CHEBYSHEV_TAG``.
The three routines thus draw independent noise, and as the tag is the key's
last word, ``SeedSequence``'s zero padding cannot make a chunk's key equal
to a key of up to two words, such as ``(seed, 3)`` and ``(seed, 4)`` of
``cli``'s recursion check or the Fisher check's ``(seed, 0)``. A chunk's
noise is its generator's standard-normal stream laid out ``(steps, dim, n)``
in C order, times the per-coordinate ``noise_std``: a trial is a column of
its chunk. So the draws depend on ``_CHUNK``, and changing it changes every
Monte-Carlo output; they do not depend on ``_BLOCK``. Both are module
constants, so a config and seed give the same bits on every run.

The chunk is the unit of work. ``_chunk_iterates``, the driver, steps one
chunk's trials; each Monte-Carlo routine turns the driver's blocks into its
chunk's moment sums (and counts outside the ball). ``_map_chunks`` yields
the chunks' sums in chunk order, and the routine adds them into
zero-initialised totals in a plain loop, in the order in which a single
pass over the chunks would add them, so every bit is the same however the
chunks ran. The map runs the chunks in pairs, whatever the host: the
calling thread makes both generators of a pair, runs the even chunk itself
and the odd one on a helper thread, and joins the helper before it yields
the pair's results. Numpy fills the draws and runs the updates on ``n``
trials with the interpreter lock released, so on two CPUs the pair
overlaps. There is never more than one helper, so at most two chunks'
buffers are live at once.

The driver steps a stack of walks on one draw: every update rule of a call
(one interpolation weight per walk of ``simulate_weight_ensemble``, or the
single plain-SGD walk) sees the same trials' noise, which is drawn once.
Each walk's iterates and moments are bit-identical to a call that steps it
alone, so ``simulate_weight_ensemble`` over several weights returns, row by
row, the curves of one-weight calls at a fraction of their draws.

The driver steps ``_BLOCK`` steps at a time on dim-major ``(walks, dim, n)``
iterates, so that every update and reduction runs over the chunk's ``n``
trials in numpy's inner loop, not over ``dim`` (4 in the Chebyshev check)
entries at a time. It draws each block's noise straight into the block's
buffer, so its memory is set by the chunk and the block, not by the step
count. The routines reduce each block of iterates at once: ``_trial_sums``
sums every coordinate over its contiguous trials, pairwise as numpy sums a
contiguous axis, then squares the block in place, and the Chebyshev check's
distance adds the ``dim`` rows in order, as ``np.linalg.norm(axis=1)``
does, in one scratch buffer per chunk.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, Iterator, Sequence, TypeVar

import numpy as np

from .errors import ConfigurationError, InsufficientDataError
from .seeding import keyed_rng

_CHUNK = 2048
# Steps the Monte-Carlo driver takes between yields: fewer cost time in
# per-block numpy calls, more cost memory in the block buffers.
_BLOCK = 8
# The last key word of each Monte-Carlo routine's chunk generators.
_SGD_TAG = 1
_ENSEMBLE_TAG = 2
_CHEBYSHEV_TAG = 3

_Result = TypeVar("_Result")


def _check_finite(name: str, value) -> None:
    if not np.all(np.isfinite(value)):
        raise ConfigurationError(f"{name} must be finite")


def _check_steps(steps: int) -> None:
    if steps < 0:
        raise ConfigurationError(f"need >= 0 steps, got {steps}")


def _check_mc(steps: int, trials: int, eta: float) -> None:
    """The inputs every Monte-Carlo routine shares."""
    _check_steps(steps)
    if trials < 100:
        raise ConfigurationError(f"need >= 100 trials, got {trials}")
    _check_finite("eta", eta)


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
        for name, value in (("optimum", opt), ("curvature", curv), ("noise stds", std)):
            _check_finite(name, value)
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


def ensemble_variance_closed_form(
    eta: float, alpha: float, vbar: float, t: np.ndarray
) -> np.ndarray:
    """Weight-ensembling variance ``eta^2 vbar alpha^2 (1 - alpha^(2t)) / (1 - alpha^2)``
    for ``alpha`` in [0, 1)."""
    tt = np.asarray(t, dtype=np.float64)
    return eta**2 * vbar * alpha**2 * (1.0 - alpha ** (2 * tt)) / (1.0 - alpha**2)


def _map_chunks(
    work: Callable[[np.random.Generator, int], _Result],
    trials: int,
    seed: int,
    tag: int,
) -> Iterator[_Result]:
    """Yields ``work(keyed_rng(seed, c, tag), n)`` for every chunk ``c`` of
    ``trials``, with ``n`` its trial count, in chunk order.

    The chunks run in pairs. The calling thread makes a pair's two
    generators, in chunk order, starts one helper thread on the odd chunk
    and runs the even one itself; a lone last chunk starts no thread. The
    helper is joined before the even result is yielded, so it never outlives
    its pair, and if it failed, its exception is raised in place of the odd
    result.
    """
    last = (trials - 1) // _CHUNK
    for c in range(0, last + 1, 2):
        rng = keyed_rng(seed, c, tag)
        if c == last:
            yield work(rng, trials - c * _CHUNK)
            return
        odd_rng = keyed_rng(seed, c + 1, tag)
        odd_n = min(_CHUNK, trials - (c + 1) * _CHUNK)
        odd = []

        def helper() -> None:
            try:
                odd.append(work(odd_rng, odd_n))
            except BaseException as exc:  # raised by the calling thread
                odd.append(exc)

        thread = threading.Thread(target=helper, name="theory-chunks")
        thread.start()
        try:
            even = work(rng, _CHUNK)
        finally:
            thread.join()
        yield even
        (result,) = odd
        if isinstance(result, BaseException):
            raise result
        yield result


def _chunk_iterates(
    task: NoisyQuadraticTask,
    eta: float,
    steps: int,
    rng: np.random.Generator,
    n: int,
    theta0: np.ndarray,
    alphas: np.ndarray | None = None,
) -> Iterator[tuple[int, np.ndarray]]:
    """The Monte-Carlo driver of one chunk of ``n`` trials: yields ``(t,
    xs)`` per block of steps.

    ``xs`` holds the chunk's dim-major ``(walks, k, dim, n)`` iterates of
    steps ``t..t+k-1``; it is valid until the next yield, and the caller may
    overwrite it. The chunk yields ``t = 0`` with ``k = 1``, then blocks of
    up to ``_BLOCK`` steps through ``steps``. ``alphas=None`` is one
    plain-SGD walk; otherwise there is one walk per entry of the 1-D
    ``alphas``, and every step of walk ``w`` interpolates back toward
    ``theta0`` with weight ``alphas[w]``.

    The noise comes from ``rng``, block by block in step order, each
    block's ``(k, dim, n)`` standard normals straight into the block buffer,
    scaled there by ``noise_std``: the bits of one ``standard_normal((steps,
    dim, n)) * noise_std[:, None]`` draw. All walks step on that one draw.
    """
    walks = 1 if alphas is None else len(alphas)
    xs = np.empty((walks, _BLOCK, task.dim, n))
    last = np.empty((walks, task.dim, n))
    grad = np.empty((walks, task.dim, n))
    std, curvature, optimum, start = (
        v[:, None] for v in (task.noise_std, task.curvature, task.optimum, theta0)
    )
    if alphas is not None:
        keep = alphas[:, None, None]
        pull = (1.0 - keep) * start
    last[...] = start
    xs[:, 0] = last
    yield 0, xs[:, :1]
    for t in range(1, steps + 1, _BLOCK):
        k = min(_BLOCK, steps + 1 - t)
        # The block's noise waits in the last walk's slots: step j adds
        # slot j to every walk's gradient before it overwrites it.
        noise = xs[-1, :k]
        rng.standard_normal(out=noise)
        noise *= std
        x = last
        for j in range(k):
            np.subtract(x, optimum, out=grad)
            np.multiply(curvature, grad, out=grad)
            np.add(grad, noise[j], out=grad)
            np.multiply(eta, grad, out=grad)
            np.subtract(x, grad, out=xs[:, j])
            x = xs[:, j]
            if alphas is not None:
                np.multiply(keep, x, out=x)
                np.add(x, pull, out=x)
        np.copyto(last, x)
        yield t, xs[:, :k]


def _trial_sums(xs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The ``(..., k, dim)`` sums over the contiguous trials of dim-major
    ``(..., k, dim, n)`` iterates and of their squares, each summed pairwise,
    whatever the block size. Squares ``xs`` in place."""
    return xs.sum(axis=-1), np.square(xs, out=xs).sum(axis=-1)


def _trace_variance(total: np.ndarray, total_sq: np.ndarray, trials: int) -> np.ndarray:
    """Per-step trace of the sample covariance from per-coordinate moment
    sums, over the last axis."""
    mean = total / trials
    per_coord = (total_sq - trials * mean**2) / (trials - 1)
    return np.maximum(per_coord.sum(axis=-1), 0.0)


def _run_variance_mc(
    task: NoisyQuadraticTask,
    eta: float,
    steps: int,
    trials: int,
    seed: int,
    tag: int,
    alphas: np.ndarray | None,
) -> np.ndarray:
    """The ``(walks, steps + 1)`` per-step trace variance of each walk of the
    Monte-Carlo driver from the optimum, t = 0..steps: each chunk sums its
    moments once per block of steps, and the chunks' sums are added in chunk
    order."""
    walks = 1 if alphas is None else len(alphas)
    total = np.zeros((2, walks, steps + 1, task.dim))

    def chunk_moments(rng: np.random.Generator, n: int) -> np.ndarray:
        moments = np.empty_like(total)
        for t, xs in _chunk_iterates(task, eta, steps, rng, n, task.optimum, alphas):
            moments[:, :, t : t + xs.shape[1]] = _trial_sums(xs)
        return moments

    for moments in _map_chunks(chunk_moments, trials, seed, tag):
        total += moments
    return _trace_variance(total[0], total[1], trials)


def simulate_sgd(
    task: NoisyQuadraticTask,
    eta: float,
    steps: int,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Empirical per-step parameter variance under plain SGD from the optimum."""
    _check_mc(steps, trials, eta)
    return _run_variance_mc(task, eta, steps, trials, seed, _SGD_TAG, None)[0]


def simulate_weight_ensemble(
    task: NoisyQuadraticTask,
    eta: float,
    alphas: Sequence[float],
    steps: int,
    trials: int,
    seed: int,
) -> np.ndarray:
    """Empirical per-step variance under the source-interpolated update, one
    ``(steps + 1,)`` row per entry of ``alphas``.

    Every weight steps on the same trials' noise, drawn once, and row ``a``
    is bit-identical to a call with ``alphas[a]`` alone. Requires a
    zero-curvature task (the closed form assumes gradient noise independent
    of the iterate) and every weight in [0, 1).
    """
    alphas = np.asarray(alphas, dtype=np.float64)
    _check_mc(steps, trials, eta)
    if alphas.ndim != 1 or alphas.size == 0:
        raise ConfigurationError("alphas must be a nonempty sequence of weights")
    if not np.all((0.0 <= alphas) & (alphas < 1.0)):
        raise ConfigurationError(f"alphas must be in [0, 1), got {alphas.tolist()}")
    if np.any(task.curvature != 0):
        raise ConfigurationError("closed-form comparison requires zero curvature")
    return _run_variance_mc(task, eta, steps, trials, seed, _ENSEMBLE_TAG, alphas)


def fit_slope(v: np.ndarray) -> tuple[float, float]:
    """Least-squares slope of a per-step variance ``v[t]``, t = 0.., against
    ``t``, and the fit's R^2."""
    t = np.arange(v.size, dtype=np.float64)
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
    The log is a nonempty ``(T, dim)`` array and ``theta0`` a ``(dim,)`` one.
    """
    grads = np.asarray(gradient_log, dtype=np.float64)
    if grads.ndim != 2 or grads.shape[0] == 0:
        raise InsufficientDataError("gradient log must be a nonempty (T, dim) array")
    start = np.asarray(theta0, dtype=np.float64)
    if start.shape != grads.shape[1:]:
        raise ConfigurationError(
            f"theta0 must have shape ({grads.shape[1]},), got {start.shape}"
        )
    for name, value in (
        ("eta", eta), ("alpha", alpha), ("gradient log", grads), ("theta0", start)
    ):
        _check_finite(name, value)
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
    _check_steps(steps)
    alpha = 1.0 - 2.0 * lam * omega * eta
    if not 0.0 < alpha <= 1.0:
        raise ConfigurationError(
            f"1 - 2*lam*omega*eta = {alpha} is outside (0, 1]"
        )
    start = task.optimum + 1.0
    noise = keyed_rng(seed, 0).standard_normal((steps, task.dim)) * task.noise_std

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


def check_chebyshev(
    task: NoisyQuadraticTask,
    beta: float,
    theta0: np.ndarray,
    eta: float,
    steps: int,
    trials: int,
    seed: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Empirical ``Pr[||theta_t - optimum|| > beta]`` against the variance bound.

    The iterates start at ``theta0``, and the moments and the count outside
    the ball are reduced once per block of the driver's steps. Returns three
    ``(steps + 1,)`` arrays over t = 0..steps: the trace variance, the rate
    of trials outside the ``beta`` ball, and the Chebyshev bound ``variance /
    (beta - d0)^2`` with ``d0 = ||theta0 - optimum||``. Requires a
    contractive configuration (positive curvature with ``eta * curvature <
    2``) so the mean drifts toward the optimum, and ``beta > d0``, hence
    ``beta > 0``. Every input is finite.
    """
    _check_mc(steps, trials, eta)
    if np.any(task.curvature <= 0) or np.any(eta * task.curvature >= 2):
        raise ConfigurationError(
            "Chebyshev check needs contractive curvature (0 < eta*a < 2)"
        )
    theta0 = np.atleast_1d(np.asarray(theta0, dtype=np.float64))
    if theta0.shape != task.optimum.shape:
        raise ConfigurationError("theta0 must match the task dimension")
    _check_finite("theta0", theta0)
    _check_finite("beta", beta)
    d0 = float(np.linalg.norm(theta0 - task.optimum))
    if beta <= d0:
        raise ConfigurationError(f"beta = {beta} must exceed the initial distance {d0}")

    total = np.zeros((2, steps + 1, task.dim))
    exceed = np.zeros(steps + 1)
    optimum = task.optimum[:, None]

    def chunk_sums(rng: np.random.Generator, n: int) -> tuple[np.ndarray, np.ndarray]:
        moments = np.empty_like(total)
        counts = np.empty(steps + 1, dtype=np.int64)
        offset = np.empty((_BLOCK, task.dim, n))
        distance = np.empty((_BLOCK, n))
        for t, (xs,) in _chunk_iterates(task, eta, steps, rng, n, theta0):
            k = xs.shape[0]
            off, dist = offset[:k], distance[:k]
            np.subtract(xs, optimum, out=off)
            moments[:, t : t + k] = _trial_sums(xs)
            # The sum over the dim rows is the sequential one of norm(axis=1).
            np.sqrt(np.add.reduce(np.square(off, out=off), axis=-2, out=dist), out=dist)
            counts[t : t + k] = (dist > beta).sum(axis=-1)
        return moments, counts

    for moments, counts in _map_chunks(chunk_sums, trials, seed, _CHEBYSHEV_TAG):
        total += moments
        exceed += counts
    variance = _trace_variance(total[0], total[1], trials)
    return variance, exceed / trials, variance / (beta - d0) ** 2


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
