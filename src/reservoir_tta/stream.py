"""Synthetic recurring-domain streams and the end-to-end episode engine.

The data universe is a set of Gaussian class blobs (the source domain).
A test domain is an invertible affine distortion of the input space plus
per-coordinate input noise, all scaled by a severity knob; severity 0 is
the source domain exactly. Streams visit the domains under one of three
schedules: a fixed repeating order (CSC), a reshuffled order per visit
(CDC), or a continuous path that linearly blends consecutive domains
(CCC).

A domain's rotation is the exponential of a skew-symmetric generator ``A``,
computed in numpy: ``A @ A = -S**2`` is symmetric, so one ``np.linalg.eigh``
gives ``S``, and ``exp(A) = cos(S) + A sinc(S)`` (``_rotations``).

``DomainStream`` serves each step's batch with its frozen features and style
vector already computed. At construction it draws the raw batch of every
(domain, slot) pair once and builds one distortion table, a row per distinct
(primary, next, weight) of the schedule, in stacked chunks of rows; every
step is distorted from its row, and the first batch of each (row, slot) is
replayed to every later step with that key. None of this work depends on the
adapted parameters, and the stream serves its steps in order only, so the
steps form blocks of ``_BLOCK_STEPS``: a block's fresh batches are
distorted, featurized and styled as one stack at its first step.
``run_episode`` executes the per-batch pipeline on those batches: reservoir
update, domain detection, centroid refinement, model selection and
adaptation, parameter ensembling, prediction. It is one loop over the
blocks: routing and adaptation run step by step within a block, and the
prediction, which changes no state, runs once per block after its steps, as
one stack. Every stacked pass gives each step the bits of its own per-step
call. Its ``EpisodeMetrics`` is the one per-step record, behind the metrics
CSV, the trace and the tests. A routed episode
fills every routing column; an untraced single-model episode skips the
routing stages, whose outcome is then constant. Hidden labels and the
schedule's domain ids feed the metrics only, never the adaptation path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterable

import numpy as np

from . import tta
from .clustering import (
    DEFAULT_K_MAX,
    CentroidSet,
    StyleReservoir,
    soft_assign_vector,
    update_centroids,
)
from .errors import (
    ConfigurationError,
    EndOfStream,
    GenerationError,
    InputDomainError,
    InsufficientDataError,
    check_fields,
)
from .model_reservoir import ModelReservoir
from .seeding import keyed_rng
from .style import FeatureExtractor, extract_style

# Sub-stream tags for counter-based seeding; one tag per independent rng use.
_TAG_STREAM = 0
_TAG_RESERVOIR = 1
_TAG_DOMAIN_CHECK = 2

SCENARIO_KINDS = ("csc", "cdc", "ccc")
# make_domains: batches per candidate's style mean, the required style
# separation in units of tau, and the pool redraws before giving up.
DOMAIN_STYLE_BATCHES = 16
MIN_SEPARATION_FACTOR = 1.3
DOMAIN_MAX_RETRIES = 10
# Domains domain_style_mean draws at once, and distortion-table rows
# DomainStream blends at once: each bounds a stage's transient memory.
_CANDIDATE_STACK = 4
_TABLE_ROWS = 128
# Steps per block: DomainStream prepares a block's fresh batches as one stack
# at its first step, and run_episode predicts the block as one stack after
# adapting its steps; the size trades per-call overhead against transient memory.
_BLOCK_STEPS = 16


@dataclass(frozen=True)
class BlobSpec:
    """Source input distribution: one unit-variance Gaussian blob per class."""

    class_means: np.ndarray  # (classes, input_dim)

    @property
    def classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def input_dim(self) -> int:
        return self.class_means.shape[1]

    def sample(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, self.classes, size=count)
        inputs = self.class_means[labels] + rng.standard_normal((count, self.input_dim))
        return inputs, labels

    def sample_batches(self, rngs: Iterable, count: int, batch_size: int, noise: bool = False):
        """Stacked inputs, labels and (with ``noise``, else ``None``) noise of
        ``count`` batches, batch ``i`` drawn by the ``i``-th generator of
        ``rngs`` as ``sample(rng, batch_size)`` and then a standard-normal
        draw of its inputs' shape. The class means are added in one pass after
        the draws (IEEE addition commutes, so the bits are ``sample``'s)."""
        inputs = np.empty((count, batch_size, self.input_dim))
        labels = np.empty((count, batch_size), dtype=np.int64)
        draws = np.empty_like(inputs) if noise else None
        for i, rng in zip(range(count), rngs):
            labels[i] = rng.integers(0, self.classes, size=batch_size)
            rng.standard_normal(out=inputs[i])
            if noise:
                rng.standard_normal(out=draws[i])
        inputs += self.class_means[labels]
        return inputs, labels, draws


@dataclass(frozen=True)
class LabeledDataset:
    """Materialized labeled sample of the source distribution."""

    inputs: np.ndarray
    labels: np.ndarray
    blob: BlobSpec


def make_blob(
    classes: int, input_dim: int, seed: int, separation: float = 6.0
) -> BlobSpec:
    """Class means on a sphere sized so typical pairwise distance ~ separation,
    drawn from ``keyed_rng(seed)``: a seed outside ``[0, 2**32)`` raises
    ``OverflowError``."""
    if classes < 2:
        raise InputDomainError(f"need >= 2 classes, got {classes}")
    rng = keyed_rng(seed)
    directions = rng.standard_normal((classes, input_dim))
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    return BlobSpec(class_means=directions * separation / np.sqrt(2.0))


def make_source_dataset(
    classes: int,
    samples_per_class: int,
    input_dim: int,
    seed: int,
    separation: float = 6.0,
) -> LabeledDataset:
    """Gaussian class blobs with controlled mean separation; seeded."""
    if samples_per_class < 1:
        raise InsufficientDataError(
            f"samples_per_class must be positive, got {samples_per_class}"
        )
    blob = make_blob(classes, input_dim, seed, separation)
    inputs, labels = blob.sample(keyed_rng(seed, 1), classes * samples_per_class)
    return LabeledDataset(inputs=inputs, labels=labels, blob=blob)


def _rotations(a: np.ndarray) -> np.ndarray:
    """``exp(a)`` for a ``(..., d, d)`` stack of skew-symmetric matrices.

    ``a @ a = -S**2`` is symmetric negative semidefinite, so one
    ``np.linalg.eigh`` gives ``S = V diag(theta) V^T`` with ``theta =
    sqrt(-eigenvalue)``. The even terms of the exponential series sum to
    ``cos(S)`` and the odd ones to ``a sinc(S)``, with ``sinc(t) = sin(t) /
    t`` (1 at 0), so ``exp(a) = (V cos(theta) + a V sinc(theta)) V^T``.
    Every step works slice by slice, so a stacked call gives each slice the
    bits of a call on that slice alone.
    """
    eigenvalues, v = np.linalg.eigh(a @ a)
    theta = np.sqrt(np.maximum(-eigenvalues, 0.0))
    sinc = np.divide(np.sin(theta), theta, out=np.ones_like(theta), where=theta > 0)
    half = v * np.cos(theta)[..., None, :] + a @ (v * sinc[..., None, :])
    return half @ np.swapaxes(v, -1, -2)


def _distort(
    inputs: np.ndarray,
    noise: np.ndarray,
    transform: np.ndarray,
    offset: np.ndarray,
    noise_std: np.ndarray,
) -> np.ndarray:
    """``inputs`` under a domain's transform, offset and noise scale, with
    ``noise`` a standard-normal draw of their shape as the input noise.

    ``0.0 + noise_std * noise`` is the arithmetic of ``rng.normal(0.0,
    noise_std, size)``, so a draw taken from ``rng`` gives that call's bits,
    and one draw can serve several domains. The noise is added only where
    the domain has some ``noise_std > 0``. The domain's fields may carry a
    leading axis of ``B`` domains, with ``(B, b, d)`` inputs: each slice then
    gets the bits of a call with its own domain alone.
    """
    out = inputs @ np.swapaxes(transform, -1, -2)
    out += offset[..., None, :]
    scaled = noise_std[..., None, :] * noise
    scaled += 0.0
    np.add(out, scaled, out=out, where=np.any(noise_std > 0, axis=-1)[..., None, None])
    return out


@dataclass(frozen=True)
class DomainSpec:
    """One test domain: an affine input distortion plus input noise.

    The base fields are severity-free direction parameters; the effective
    ``transform``, ``offset`` and ``noise_std`` scale all of them by
    ``severity``, and are computed on first read. The transform's rotation is
    ``exp(A)`` of the skew-symmetric ``A = severity * rotation_angle *
    rotation_gen``, computed as ``cos(S) + A sinc(S)`` with ``S**2 = -A @ A``
    (:func:`_rotations`). Severity 0 is the identity with no noise (the
    source domain). A domain carries no id: it is its index in
    ``EpisodeContext.domains``, the value the schedule holds.

    Every field may carry the same leading axes, for a stack of domains
    (:func:`blend_domains` builds one for a stream's CCC blends); the
    effective fields then carry them too. ``apply`` takes one domain.
    """

    severity: float
    rotation_gen: np.ndarray  # unit-spectral-norm skew-symmetric generator
    rotation_angle: float
    log_scale: np.ndarray
    offset_base: np.ndarray
    noise_base: np.ndarray

    @cached_property
    def transform(self) -> np.ndarray:
        """``exp(severity * rotation_angle * rotation_gen)`` times the
        diagonal ``exp(severity * log_scale)``."""
        severity = np.asarray(self.severity)
        angle = severity * np.asarray(self.rotation_angle)
        rotation = _rotations(angle[..., None, None] * self.rotation_gen)
        return rotation * np.exp(severity[..., None] * self.log_scale)[..., None, :]

    @cached_property
    def offset(self) -> np.ndarray:
        return np.asarray(self.severity)[..., None] * self.offset_base

    @cached_property
    def noise_std(self) -> np.ndarray:
        return np.asarray(self.severity)[..., None] * self.noise_base

    def apply(self, inputs: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Distort ``inputs`` with ``noise``, a standard-normal draw of their
        shape, as the input noise (see :func:`_distort`)."""
        return _distort(inputs, noise, self.transform, self.offset, self.noise_std)


def _sphere_points(count: int, rng: np.random.Generator) -> np.ndarray:
    """Well-spread unit vectors (Fibonacci lattice under a random rotation)."""
    i = np.arange(count) + 0.5
    phi = np.arccos(1 - 2 * i / count)
    golden = np.pi * (1 + np.sqrt(5))
    pts = np.stack(
        [np.sin(phi) * np.cos(golden * i), np.sin(phi) * np.sin(golden * i), np.cos(phi)],
        axis=1,
    )
    raw = rng.standard_normal((3, 3))
    q, _ = np.linalg.qr(raw)
    return pts[rng.permutation(count)] @ q.T


def _draw_domain(
    severity: float,
    rng: np.random.Generator,
    dim: int,
    tier: np.ndarray,
) -> DomainSpec:
    """One random distortion around a structured per-domain tier point.

    Random rotations and per-coordinate effects alone can leave two domains
    with near-identical channel statistics. The tier point spreads domains
    along three global style axes (input gain, input-noise level, offset
    magnitude), akin to corruption types at distinct severities, so a set
    with well-separated style fingerprints is reachable within a few
    redraws.
    """
    raw = rng.standard_normal((dim, dim))
    gen = (raw - raw.T) / 2.0
    gen /= np.linalg.norm(gen, 2)
    gain, log_noise, log_angle = tier
    return DomainSpec(
        severity=severity,
        rotation_gen=gen,
        rotation_angle=float(0.95 * np.exp(0.35 * log_angle)),
        log_scale=rng.normal(0.0, 0.5, size=dim) + 1.1 * gain,
        offset_base=rng.normal(0.0, 1.8, size=dim),
        noise_base=np.exp(0.6 * log_noise) * rng.uniform(0.1, 0.6, size=dim),
    )


def blend_domains(a: DomainSpec, b: DomainSpec, w: float | np.ndarray) -> DomainSpec:
    """Convex combination of two domains' base parameters (w = 0 gives ``a``).

    ``w`` may be an array of weights: ``a`` and ``b`` are then stacks with
    ``w``'s shape as their leading axes, and so is the blend. Each weight
    mixes its own pair with the arithmetic of a scalar ``w``, so a stack's
    row has the bits of that pair's single blend, and a weight-0 row keeps
    ``a``'s bits (``(1 - 0) * x + 0 * x = x``): one call builds a stream's
    whole distortion table, pure domains included.
    """
    if a.rotation_gen.shape != b.rotation_gen.shape:
        raise InputDomainError("cannot blend domains of different dimension")
    mixed = []
    for f in fields(DomainSpec):
        x, y = getattr(a, f.name), getattr(b, f.name)
        wx = np.reshape(w, np.shape(w) + (1,) * (np.ndim(x) - np.ndim(w)))
        mixed.append((1.0 - wx) * x + wx * y)
    return DomainSpec(*mixed)


def domain_style_mean(
    pool: list[DomainSpec],
    blob: BlobSpec,
    extractor: FeatureExtractor,
    batch_size: int,
    batches: int,
    seed_key: tuple,
) -> np.ndarray:
    """The ``(len(pool), style_dim)`` mean style vectors of a list of domains,
    each over freshly sampled batches.

    Batch ``i`` of the ``k``-th domain draws its inputs and then its domain
    noise from the rng ``keyed_rng(*seed_key, k, i)``, one ``default_rng``
    call per batch; ``_CANDIDATE_STACK`` domains are drawn and extracted as
    one stack.
    """
    rngs = (keyed_rng(*seed_key, k, i) for k in range(len(pool)) for i in range(batches))
    means = np.empty((len(pool), extractor.style_dim))
    for c in range(0, len(pool), _CANDIDATE_STACK):
        part = pool[c : c + _CANDIDATE_STACK]
        inputs, _, noise = blob.sample_batches(rngs, len(part) * batches, batch_size, True)
        for k, d in enumerate(part):
            rows = slice(k * batches, (k + 1) * batches)
            inputs[rows] = d.apply(inputs[rows], noise[rows])
        styles = extract_style(inputs, extractor).reshape(len(part), batches, -1)
        means[c : c + len(part)] = styles.mean(axis=1)
    return means


def make_domains(
    count: int,
    severity: float,
    seed: int,
    *,
    blob: BlobSpec,
    extractor: FeatureExtractor,
    tau: float,
    source_style_mean: np.ndarray,
    batch_size: int = 64,
) -> list[DomainSpec]:
    """Draw ``count`` domains whose styles are pairwise well separated.

    ``count`` domains are picked from a pool of ``8 * count`` candidates by
    their style means, each over ``DOMAIN_STYLE_BATCHES`` batches. The pick
    is rejected unless every pair of domain style means, the source style
    mean included, is separated by more than ``MIN_SEPARATION_FACTOR * tau``;
    a rejected pool is redrawn with a fresh sub-seed up to
    ``DOMAIN_MAX_RETRIES`` times before raising. A candidate's style batches
    are keyed by its pool index (one :func:`domain_style_mean` call per
    pool); a returned domain is named by its index in the returned list. A
    ``severity`` that makes a candidate's distorted batches non-finite (at
    the default set-up, from about 418 on) raises ``InputDomainError``
    naming it, without numpy's overflow warnings.
    """
    if count < 1:
        raise InputDomainError(f"domain count must be positive, got {count}")
    pool_size = 8 * count
    for attempt in range(DOMAIN_MAX_RETRIES):
        rng = keyed_rng(seed, attempt)
        # Spread tier points on an ellipsoid in (input gain, log noise level,
        # log rotation angle) space: candidates differ in their global style
        # signature, akin to corruption types at distinct severities, and any
        # point is extreme along some axis. The gain axis is stretched
        # because it moves style without hurting the class structure.
        tiers = np.array([-0.8, 0.0, 0.0]) + np.array(
            [0.9, 1.0, 1.0]
        ) * _sphere_points(pool_size, rng)
        pool = [
            _draw_domain(severity, rng, blob.input_dim, tier=tier) for tier in tiers
        ]
        try:
            with np.errstate(over="ignore", invalid="ignore"):
                means = domain_style_mean(
                    pool, blob, extractor, batch_size, DOMAIN_STYLE_BATCHES,
                    seed_key=(seed, _TAG_DOMAIN_CHECK, attempt),
                )
        except (InputDomainError, np.linalg.LinAlgError) as exc:
            raise InputDomainError(f"severity {severity} makes the batches non-finite") from exc
        chosen, closest = _farthest_point_subset(means, count, source_style_mean)
        if closest > MIN_SEPARATION_FACTOR * tau:
            return [pool[idx] for idx in chosen]
    raise GenerationError(
        f"could not draw {count} domains separated by more than "
        f"{MIN_SEPARATION_FACTOR} * tau after {DOMAIN_MAX_RETRIES} attempts"
    )


def _farthest_point_subset(
    means: np.ndarray, count: int, source_mean: np.ndarray
) -> tuple[list[int], float]:
    """Greedy max-min-distance selection from a candidate pool, starting
    from the candidate farthest from the source, and the smallest distance
    among the chosen means and the source (``np.minimum``: a NaN propagates)."""
    dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
    to_source = np.linalg.norm(means - np.asarray(source_mean), axis=1)
    chosen = [int(np.argmax(to_source))]
    closest = to_source[chosen[0]]
    min_d = np.minimum(dists[chosen[0]], to_source)
    min_d[chosen[0]] = -np.inf
    while len(chosen) < count:
        nxt = int(np.argmax(min_d))
        chosen.append(nxt)
        closest = np.minimum(closest, min_d[nxt])
        min_d = np.minimum(min_d, dists[nxt])
        min_d[nxt] = -np.inf
    return chosen, closest


@dataclass(frozen=True)
class ScenarioPlan:
    """Stream schedule (which domain feeds each batch) and the domains' severity.

    ``domains``, ``visits`` and ``batches_per_domain`` are all >= 1, so an
    episode has at least one step. A severity too large for finite batches
    passes here and fails in :func:`make_domains`.
    """

    kind: str = "csc"
    domains: int = 8
    visits: int = 20
    batches_per_domain: int = 25
    batch_size: int = 64
    severity: float = 1.0

    def __post_init__(self):
        check_fields(
            ("kind", self.kind in SCENARIO_KINDS, f"unknown kind {self.kind!r}"),
            ("domains", self.domains >= 1, "must be >= 1"),
            ("visits", self.visits >= 1, "must be >= 1"),
            ("batch_size", self.batch_size >= 2, "must be >= 2"),
            ("batches_per_domain", self.batches_per_domain >= 1, "must be >= 1"),
            ("severity", bool(np.isfinite(self.severity)) and self.severity >= 0,
             "must be finite and >= 0"),
        )

    @property
    def total_steps(self) -> int:
        return self.domains * self.visits * self.batches_per_domain

    @property
    def steps_per_visit(self) -> int:
        return self.domains * self.batches_per_domain

    def visit_order(self, visit: int, seed: int) -> np.ndarray:
        """Domain order within one visit: fixed for CSC, reshuffled per (seed, visit) else."""
        if self.kind == "csc":
            return np.arange(self.domains)
        return keyed_rng(seed, visit).permutation(self.domains)

    def schedule(self, seed: int) -> tuple[np.ndarray, ...]:
        """Every step's visit, primary domain, next domain and blend weight,
        as four arrays of ``total_steps`` entries.

        Each visit's order is drawn once. A segment is one domain's
        ``batches_per_domain`` steps within a visit. CSC and CDC steps have
        ``next == primary`` and weight 0; a CCC segment ramps its weight
        ``j / batches_per_domain`` toward the next segment's domain, except
        the stream's last segment, which stays pure.
        """
        per = self.batches_per_domain
        order = np.array(
            [self.visit_order(visit, seed) for visit in range(self.visits)], dtype=np.int64
        ).reshape(-1)
        nxt, weight = order, np.zeros(self.total_steps)
        if self.kind == "ccc":
            nxt = np.append(order[1:], order[-1])
            weight = np.tile(np.arange(per) / per, order.size)
            weight[-per:] = 0.0
        visit = np.arange(self.total_steps) // self.steps_per_visit
        return visit, np.repeat(order, per), np.repeat(nxt, per), weight


@dataclass(frozen=True)
class StreamBatch:
    """One test batch, prepared for the engine: its hidden labels, frozen
    features ``model.features(inputs)`` and style vector (``None`` from a
    stream built without styles). Its arrays are read-only. The step's
    visit and hidden domain are in the stream's schedule."""

    labels: np.ndarray
    features: np.ndarray
    style: np.ndarray | None


def _freeze(arrays: tuple) -> tuple:
    """Make ``arrays`` read-only (``None`` skipped) and return them."""
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    return arrays


class DomainStream:
    """The seeded batches of one episode over a context's plan and domains.

    Construction builds ``plan.schedule(seed)`` and draws every (domain,
    slot) key's raw batch, its inputs, labels and standard-normal noise,
    from the key's own rng ``keyed_rng(seed, _TAG_STREAM, domain, slot)``
    into three read-only arrays indexed ``[domain, slot]``, drawn as one
    stack (``BlobSpec.sample_batches``). It maps every step to a row of one
    read-only distortion table: the transform, offset and noise scale of
    each distinct ``(primary, next, weight)``, a pure step (weight 0, or the
    same domain at both segment ends: every CSC and CDC step) taken as
    ``(primary, primary, 0.0)``. The table is blended ``_TABLE_ROWS`` rows at
    a time into preallocated arrays: a chunk's rows have the bits of one
    :func:`blend_domains` call over the whole table.

    ``next_batch`` serves each step once, in order. At the first step of a
    block of ``_BLOCK_STEPS``, the stream prepares the batch of every (row,
    slot) key first seen in the block as one stack: it distorts the keys'
    (primary, slot) inputs with their noise under their rows (noise only on
    the rows with some ``noise_std > 0``), then makes one feature pass and,
    if ``styles`` is set, one style pass. Each
    kept batch copies its slice of the stack, so that a replayed batch does
    not pin its whole block. Each slice has the bits of a pass over that
    batch alone. The engine never reads raw inputs.

    The first ``StreamBatch`` of each (row, slot) is served to every later
    step with that key, pure or blended, so every recurrence of a domain
    replays the same test data: visit-to-visit error differences reflect
    adaptation, not resampling, as in recurring corruption benchmarks. A
    batch is kept from its block's preparation to the last step of its key,
    so the replay table ends empty. With ``D`` domains and ``per = batches_per_domain``,
    the table has at most ``D + D(D-1)(per-1)`` rows and the replay table
    at most ``D*per + D(D-1)(per-1)`` batches, however many visits.
    """

    def __init__(self, context: EpisodeContext, seed: int, styles: bool = True):
        plan = context.plan
        if len(context.domains) != plan.domains:
            raise ConfigurationError(
                f"plan expects {plan.domains} domains, got {len(context.domains)}"
            )
        self.context = context
        self.seed = seed
        self.styles = styles
        self.schedule = plan.schedule(seed)
        per = plan.batches_per_domain
        rngs = (keyed_rng(seed, _TAG_STREAM, d, s) for d in range(plan.domains) for s in range(per))
        drawn = context.blob.sample_batches(rngs, plan.domains * per, plan.batch_size, noise=True)
        self._inputs, self._labels, self._noise = _freeze(
            tuple(a.reshape(plan.domains, per, *a.shape[1:]) for a in drawn)
        )
        _, primary, nxt, weight = self.schedule
        pure = (weight == 0.0) | (primary == nxt)
        triples = [primary, np.where(pure, primary, nxt), np.where(pure, 0.0, weight)]
        rows, step_rows = np.unique(np.column_stack(triples), axis=0, return_inverse=True)
        domains = context.domains
        stacked = [np.stack([getattr(d, f.name) for d in domains]) for f in fields(DomainSpec)]
        dim = context.blob.input_dim
        self._table = np.empty((len(rows), dim, dim)), *np.empty((2, len(rows), dim))
        for r0 in range(0, len(rows), _TABLE_ROWS):
            chunk = rows[r0 : r0 + _TABLE_ROWS]
            a, b = (DomainSpec(*(x[e] for x in stacked)) for e in chunk[:, :2].T.astype(int))
            blend = blend_domains(a, b, chunk[:, 2])
            for out, part in zip(self._table, (blend.transform, blend.offset, blend.noise_std)):
                out[r0 : r0 + _TABLE_ROWS] = part
        self._rows = step_rows.reshape(-1)
        # A batch is held for replay from its block's preparation until the
        # last step with its (row, slot).
        n = plan.total_steps
        keys = self._rows * per + np.arange(n) % per
        self._first, self._last = np.zeros((2, n), dtype=bool)
        self._first[np.unique(keys, return_index=True)[1]] = True
        self._last[n - 1 - np.unique(keys[::-1], return_index=True)[1]] = True
        _freeze((*self._table, self._rows, self._first, self._last))
        self._replay: dict[tuple[int, int], StreamBatch] = {}
        self._next = 0  # the one step next_batch serves

    def next_batch(self, step: int) -> StreamBatch:
        """The batch of ``step``, which must be the next step of the stream:
        any other step (out of order, repeated or past the end) raises
        :class:`EndOfStream`. At the first step of a block, the block's fresh
        keys are prepared."""
        n = self.context.plan.total_steps
        if step != self._next or step >= n:
            raise EndOfStream(f"step {step} is not the next step ({self._next} of {n})")
        if step % _BLOCK_STEPS == 0:
            ahead = np.arange(step, min(step + _BLOCK_STEPS, n))
            self._prepare(ahead[self._first[ahead]])
        self._next = step + 1
        key = self._rows[step].item(), step % self.context.plan.batches_per_domain
        return self._replay.pop(key) if self._last[step] else self._replay[key]

    def _prepare(self, fresh: np.ndarray) -> None:
        """Put in the replay table the batch of each of the steps ``fresh``,
        distorted, featurized and styled as one stack."""
        if not fresh.size:
            return
        ctx = self.context
        rows, slots = self._rows[fresh], fresh % ctx.plan.batches_per_domain
        draw = self.schedule[1][fresh], slots
        inputs = _distort(self._inputs[draw], self._noise[draw], *(t[rows] for t in self._table))
        features = ctx.model.features(inputs)
        styles = extract_style(inputs, ctx.extractor) if self.styles else None
        # Copies, so that a replayed batch does not pin its whole block.
        keys = zip(rows.tolist(), *(a.tolist() for a in draw))
        for i, (row, domain, slot) in enumerate(keys):
            style = None if styles is None else styles[i].copy()
            self._replay[row, slot] = StreamBatch(
                *_freeze((self._labels[domain, slot], features[i].copy(), style))
            )


@dataclass(frozen=True)
class ClusterParams:
    """Size of the style reservoir the centroids are refined over.

    The domain cap is ``clustering.DEFAULT_K_MAX`` (16; 1 without the
    reservoir switch), and the centroids take one step of
    :func:`clustering.update_centroids` per batch, at its default learning
    rate 1e-4.
    """

    reservoir_size: int = 1024

    def __post_init__(self):
        check_fields(("reservoir_size", self.reservoir_size >= 1, "must be >= 1"))


@dataclass(frozen=True)
class EpisodeContext:
    """Everything an episode needs that does not depend on the stream seed.
    ``tau`` is the new-domain threshold; a domain is its index in ``domains``."""

    blob: BlobSpec
    model: tta.AdaptableClassifier
    extractor: FeatureExtractor
    tau: float
    source_style_mean: np.ndarray
    domains: list[DomainSpec]
    plan: ScenarioPlan
    cluster: ClusterParams
    fisher_omega: np.ndarray


@dataclass
class EpisodeMetrics:
    """The one per-step record of an episode: row i of every column is step i.

    ``visits`` and ``true_domains`` are hidden, read from the stream's
    schedule; the hidden domain of a CCC blend is the nearer segment end.
    A routed episode fills ``min_distance``, each step's ``detect``
    distance, and ``soft_assignment``, each step's q zero-padded to the
    domain cap; an unrouted one (see :func:`run_episode`) leaves both
    ``None``, and ``assigned_models`` and ``detected_domains`` zero. The
    per-visit summaries are derived from the columns.
    """

    visits: np.ndarray
    true_domains: np.ndarray
    assigned_models: np.ndarray
    per_batch_error: np.ndarray
    detected_domains: np.ndarray
    drift_norm: np.ndarray
    min_distance: np.ndarray | None
    soft_assignment: np.ndarray | None

    @property
    def step_count(self) -> int:
        return int(self.per_batch_error.size)

    def per_visit_error(self) -> np.ndarray:
        """Mean error per visit."""
        n_visits = int(self.visits.max()) + 1
        return np.array(
            [self.per_batch_error[self.visits == v].mean() for v in range(n_visits)]
        )

    def per_visit_domain_error(self) -> np.ndarray:
        """Mean error per (visit, true domain). Every visit holds a step of
        every domain: CSC and CDC visit each domain in turn, and each CCC
        segment's weight-0 step is its primary domain."""
        n_visits = int(self.visits.max()) + 1
        n_domains = int(self.true_domains.max()) + 1
        table = np.empty((n_visits, n_domains))
        for v in range(n_visits):
            for d in range(n_domains):
                sel = (self.visits == v) & (self.true_domains == d)
                table[v, d] = self.per_batch_error[sel].mean()
        return table


def run_episode(
    context: EpisodeContext,
    method: tta.MethodConfig,
    seed: int,
    trace: bool = False,
) -> EpisodeMetrics:
    """Execute one adaptation episode and record its metrics.

    The :class:`DomainStream` draws every raw batch before the first step.
    Each step takes the stream's prepared batch, offers its style to the
    style reservoir, detects the domain (possibly spawning a centroid and a
    model), refines the centroids, soft-assigns, adapts the selected model
    by one :func:`tta.tta_step` of ``method``, anchored by the context's
    ``fisher_omega``, then predicts with the soft-assignment ensemble of
    the models. The batch's frozen features are shared by the
    adaptation step, a spawned model's clone choice and the prediction,
    since none of them changes the features. The reservoir switch only sets
    the domain cap: without it the cap is 1, and the ensemble is the single
    model.

    The prediction reads no state the later steps change, so the episode is
    one loop over the blocks of ``_BLOCK_STEPS`` steps: it routes and adapts
    a block's steps one by one, keeping each step's ensembled parameters,
    features and labels, and then one stacked :func:`tta.predict` fills the
    block's ``per_batch_error``. The prediction runs in the block's
    ``finally``: when a step fails, with any exception, the block's earlier
    steps are predicted before its error propagates, so a non-finite
    prediction still raises before the error of a later step, in the step
    order of a per-step loop. Errors of the stream's preparation are not
    deferred: a batch of the block that cannot be prepared (say, with
    non-finite inputs) raises at the block's first step.

    A routed step fills every routing column. At cap 1 the routing is
    constant, q = [1] and k* = 0 on every step, so ``trace`` only decides
    whether such an episode routes: without it, the episode skips the
    routing stages and its stream the style pass; every other column is the
    same bits.
    Deterministic per (context, method, seed).
    """
    plan = context.plan
    k_max = DEFAULT_K_MAX if method.reservoir else 1
    route = k_max > 1 or trace

    n = plan.total_steps
    stream = DomainStream(context, seed, styles=route)
    # A reservoir never holds more styles than the episode offers.
    reservoir = StyleReservoir(
        min(context.cluster.reservoir_size, n),
        context.extractor.style_dim,
        keyed_rng(seed, _TAG_RESERVOIR),
    )
    centroids = CentroidSet(context.source_style_mean, k_max=k_max)
    model = context.model
    models = ModelReservoir(model.source_params)

    visits, primary, nxt, weight = stream.schedule
    assigned = np.zeros(n, dtype=np.int64)
    errors = np.zeros(n)
    detected = np.zeros(n, dtype=np.int64)
    drift = np.zeros(n)
    min_distance = np.zeros(n) if route else None
    soft = np.zeros((n, k_max)) if route else None

    q, k_star = np.ones(1), 0  # the constant routing of an unrouted episode
    for start in range(0, n, _BLOCK_STEPS):
        adapted = []  # (ensembled parameters, features, labels) of the block's steps
        try:
            for step in range(start, min(start + _BLOCK_STEPS, n)):
                batch = stream.next_batch(step)
                feats, s = batch.features, batch.style
                if route:
                    reservoir.offer(s)
                    decision = centroids.detect(s, context.tau)
                    if decision.kind == "new_domain":
                        models.init_new_model(lambda p: tta.predict(model, p, feats))
                    update_centroids(centroids, reservoir)
                    q = soft_assign_vector(s, centroids)
                    k_star = int(np.argmax(q))
                    assigned[step] = k_star
                    detected[step] = centroids.count - 1
                    min_distance[step] = decision.distance
                    soft[step, : q.size] = q
                new_params = tta.tta_step(
                    model, models.entry(k_star), feats, method, context.fisher_omega
                )
                models.write_active(k_star, new_params)
                theta = models.ensemble_params(q)
                gap = theta - model.source_params
                drift[step] = math.sqrt(gap @ gap)  # np.linalg.norm's 1-D arithmetic
                adapted.append((theta, feats, batch.labels))
        finally:  # also when a step failed: the steps before it come first
            if adapted:
                thetas, feats, labels = map(np.stack, zip(*adapted))
                wrong = tta.predict(model, thetas, feats).argmax(axis=-1) != labels
                errors[start : start + len(wrong)] = wrong.mean(axis=-1)

    return EpisodeMetrics(
        visits=visits,
        true_domains=np.where(weight < 0.5, primary, nxt),
        assigned_models=assigned,
        per_batch_error=errors,
        detected_domains=detected,
        drift_norm=drift,
        min_distance=min_distance,
        soft_assignment=soft,
    )
