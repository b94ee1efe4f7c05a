"""Synthetic recurring-domain streams and the end-to-end episode engine.

The data universe is a set of Gaussian class blobs (the source domain).
A test domain is an invertible affine distortion of the input space plus
per-coordinate input noise, all scaled by a severity knob; severity 0 is
the source domain exactly. Streams visit the domains under one of three
schedules: a fixed repeating order (CSC), a reshuffled order per visit
(CDC), or a continuous path that linearly blends consecutive domains
(CCC).

``DomainStream`` serves each step's batch with its frozen features and style
vector already computed. Every step of a (domain, slot) pair uses the same
raw batch: a recurring stream replays a pure-domain pair's prepared batch on
every later visit, and a CCC stream keeps a pair's raw draw for the blends
of later visits, so neither is drawn again. ``run_episode`` executes the
per-batch loop on those batches: reservoir update, domain detection,
centroid refinement, model selection and adaptation, parameter ensembling,
prediction. Its ``EpisodeMetrics`` is the one per-step record, behind the
metrics CSV, the trace and the tests. An untraced single-model episode
skips the routing stages, whose outcome is then constant. Hidden labels
and the schedule's domain ids feed the metrics only, never the adaptation
path.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.linalg import expm

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
from .model_reservoir import ModelReservoir, select_active
from .seeding import keyed_rng, keyed_rngs
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


@dataclass(frozen=True)
class LabeledDataset:
    """Materialized labeled sample of the source distribution."""

    inputs: np.ndarray
    labels: np.ndarray
    blob: BlobSpec


def make_blob(
    classes: int, input_dim: int, seed: int, separation: float = 6.0
) -> BlobSpec:
    """Class means on a sphere sized so typical pairwise distance ~ separation."""
    if classes < 2:
        raise InputDomainError(f"need >= 2 classes, got {classes}")
    rng = np.random.default_rng(seed)
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


@dataclass(frozen=True)
class DomainSpec:
    """One test domain: an affine input distortion plus input noise.

    The base fields are severity-free direction parameters; the effective
    transform scales all of them by ``severity``. Severity 0 is the identity
    with no noise (the source domain). A domain carries no id: it is its
    index in ``EpisodeContext.domains``, the value the schedule holds.
    """

    severity: float
    rotation_gen: np.ndarray  # unit-spectral-norm skew-symmetric generator
    rotation_angle: float
    log_scale: np.ndarray
    offset_base: np.ndarray
    noise_base: np.ndarray

    transform: np.ndarray = field(init=False)
    offset: np.ndarray = field(init=False)
    noise_std: np.ndarray = field(init=False)

    def __post_init__(self):
        rot = expm(self.severity * self.rotation_angle * self.rotation_gen)
        scale = np.diag(np.exp(self.severity * self.log_scale))
        object.__setattr__(self, "transform", rot @ scale)
        object.__setattr__(self, "offset", self.severity * self.offset_base)
        object.__setattr__(self, "noise_std", self.severity * self.noise_base)

    def apply(self, inputs: np.ndarray, noise: np.ndarray) -> np.ndarray:
        """Distort ``inputs`` with ``noise``, a standard-normal draw of their
        shape, as the input noise.

        ``0.0 + noise_std * noise`` is the arithmetic of
        ``rng.normal(0.0, noise_std, size)``, so a draw taken from ``rng``
        gives that call's bits, and one draw can serve several domains.
        """
        out = inputs @ self.transform.T + self.offset
        if np.any(self.noise_std > 0):
            out = out + (0.0 + self.noise_std * noise)
        return out


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


def blend_domains(a: DomainSpec, b: DomainSpec, w: float) -> DomainSpec:
    """Convex combination of two domains' base parameters (w = 0 gives ``a``)."""
    if a.rotation_gen.shape != b.rotation_gen.shape:
        raise InputDomainError("cannot blend domains of different dimension")
    u = 1.0 - w
    return DomainSpec(
        severity=u * a.severity + w * b.severity,
        rotation_gen=u * a.rotation_gen + w * b.rotation_gen,
        rotation_angle=u * a.rotation_angle + w * b.rotation_angle,
        log_scale=u * a.log_scale + w * b.log_scale,
        offset_base=u * a.offset_base + w * b.offset_base,
        noise_base=u * a.noise_base + w * b.noise_base,
    )


def domain_style_mean(
    domain: DomainSpec,
    blob: BlobSpec,
    extractor: FeatureExtractor,
    batch_size: int,
    batches: int,
    seed_key: tuple,
) -> np.ndarray:
    """Mean style vector of a domain over freshly sampled batches, extracted
    as one stack.

    Batch ``i`` draws its inputs and then its domain noise from the rng of
    the key ``(*seed_key, i)``, one ``np.random.default_rng`` call per batch
    (``seeding.keyed_rngs``).
    """
    stack = np.empty((batches, batch_size, blob.input_dim))
    for i, rng in enumerate(keyed_rngs(seed_key, range(batches))):
        x, _ = blob.sample(rng, batch_size)
        stack[i] = domain.apply(x, rng.standard_normal(x.shape))
    return np.mean(extract_style(stack, extractor), axis=0)


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
    are keyed by its pool index, and a returned domain's id is its index in
    the returned list.
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
        means = np.stack(
            [
                domain_style_mean(
                    d, blob, extractor, batch_size, DOMAIN_STYLE_BATCHES,
                    seed_key=(seed, _TAG_DOMAIN_CHECK, attempt, k),
                )
                for k, d in enumerate(pool)
            ]
        )
        chosen = _farthest_point_subset(means, count, source_style_mean)
        mat = np.vstack([means[chosen], np.asarray(source_style_mean)])
        dists = np.linalg.norm(mat[:, None, :] - mat[None, :, :], axis=2)
        off_diag = dists[np.triu_indices(mat.shape[0], k=1)]
        if np.all(off_diag > MIN_SEPARATION_FACTOR * tau):
            return [pool[idx] for idx in chosen]
    raise GenerationError(
        f"could not draw {count} domains separated by more than "
        f"{MIN_SEPARATION_FACTOR} * tau after {DOMAIN_MAX_RETRIES} attempts"
    )


def _farthest_point_subset(
    means: np.ndarray, count: int, source_mean: np.ndarray
) -> list[int]:
    """Greedy max-min-distance selection from a candidate pool, starting
    from the candidate farthest from the source."""
    dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
    to_source = np.linalg.norm(means - np.asarray(source_mean), axis=1)
    chosen = [int(np.argmax(to_source))]
    min_d = np.minimum(dists[chosen[0]], to_source)
    min_d[chosen[0]] = -np.inf
    while len(chosen) < count:
        nxt = int(np.argmax(min_d))
        chosen.append(nxt)
        min_d = np.minimum(min_d, dists[nxt])
        min_d[nxt] = -np.inf
    return chosen


@dataclass(frozen=True)
class ScenarioPlan:
    """Stream schedule (which domain feeds each batch) and the domains' severity."""

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
            ("visits", self.visits >= 0, "must be >= 0"),
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
        if self.kind == "ccc" and order.size:
            nxt = np.append(order[1:], order[-1])
            weight = np.tile(np.arange(per) / per, order.size)
            weight[-per:] = 0.0
        visit = np.arange(self.total_steps) // self.steps_per_visit
        return visit, np.repeat(order, per), np.repeat(nxt, per), weight


@dataclass(frozen=True)
class StreamBatch:
    """One test batch, prepared for the engine: its hidden labels, frozen
    features ``model.features(inputs)`` and style vector (``None`` from a
    stream built without styles). A tabled batch's arrays are read-only.
    The step's visit and hidden domain are in the stream's schedule."""

    labels: np.ndarray
    features: np.ndarray
    style: np.ndarray | None


def _freeze(arrays: tuple) -> tuple:
    """Make a tabled entry's arrays read-only: every step it serves shares
    them, so a write raises instead of changing a later batch."""
    for array in arrays:
        if array is not None:
            array.flags.writeable = False
    return arrays


class DomainStream:
    """The seeded batches of one episode over a context's plan and domains.

    ``plan.schedule(seed)`` is built once, at construction. ``next_batch``
    draws a step's batch, distorts it, and runs the feature pass and, if
    ``styles`` is set, the style pass; the engine never reads raw inputs.

    Every step of a (domain, slot) key draws the same raw batch: the same
    inputs, labels and standard-normal noise, from the key's own rng. A
    pure-domain step (blend weight 0, or the same domain at both segment
    ends: every CSC and CDC step) depends on its key alone, so every
    recurrence of a domain replays the same test data; visit-to-visit error
    differences then reflect adaptation, not resampling, as in recurring
    corruption benchmarks.

    Two tables, each holding at most one entry per key, keep a draw that a
    later visit needs again, read-only:

    - the replay table keeps a pure step's prepared batch, which serves
      every later pure occurrence of its key with no draw, feature or style
      pass;
    - the raw table keeps a key's raw batch while a later visit blends it
      (CCC only); a step that finds its key there skips the sampling and
      only distorts and prepares the batch.
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
        visit, primary, nxt, weight = self.schedule
        per = plan.batches_per_domain
        pure = (weight == 0.0) | (primary == nxt)
        key = primary * per + np.arange(plan.total_steps) % per  # flat (domain, slot)

        def last_visit(steps: np.ndarray) -> np.ndarray:
            """Last visit of each (domain, slot) key among ``steps``; -1 if none."""
            last = np.full((plan.domains, per), -1)
            np.maximum.at(last.reshape(-1), key[steps], visit[steps])
            return last

        self._last_pure = last_visit(pure)
        self._last_blend = last_visit(~pure)
        self._replay: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}
        self._raw: dict[tuple[int, int], tuple[np.ndarray, ...]] = {}

    def next_batch(self, step: int) -> StreamBatch:
        ctx = self.context
        if not 0 <= step < ctx.plan.total_steps:
            raise EndOfStream(f"step {step} outside [0, {ctx.plan.total_steps})")
        visit, primary, nxt, w = [column[step].item() for column in self.schedule]
        slot = step % ctx.plan.batches_per_domain
        pure = w == 0.0 or primary == nxt
        key = (primary, slot)
        if pure and key in self._replay:
            return StreamBatch(*self._replay[key])
        raw = self._raw.get(key)
        if raw is None:
            rng = keyed_rng(self.seed, _TAG_STREAM, primary, slot)
            inputs, labels = ctx.blob.sample(rng, ctx.plan.batch_size)
            raw = (inputs, labels, rng.standard_normal(inputs.shape))
            if visit < self._last_blend[key]:
                self._raw[key] = _freeze(raw)
        inputs, labels, noise = raw
        if pure:
            domain = ctx.domains[primary]
        else:
            domain = blend_domains(ctx.domains[primary], ctx.domains[nxt], w)
        inputs = domain.apply(inputs, noise)
        style = extract_style(inputs, ctx.extractor) if self.styles else None
        prepared = (labels, ctx.model.features(inputs), style)
        if pure and visit < self._last_pure[key]:
            self._replay[key] = _freeze(prepared)
        return StreamBatch(*prepared)


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
    A traced episode also fills ``min_distance``, each step's ``detect``
    distance, and ``soft_assignment``, each step's q zero-padded to the
    domain cap; an untraced one leaves both ``None``. The per-visit
    summaries are derived from the columns.
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
        """Mean error per visit (empty array for an empty episode)."""
        if self.step_count == 0:
            return np.empty(0)
        n_visits = int(self.visits.max()) + 1
        return np.array(
            [self.per_batch_error[self.visits == v].mean() for v in range(n_visits)]
        )

    def per_visit_domain_error(self) -> np.ndarray:
        """Mean error per (visit, true domain); NaN where a pair never occurs."""
        if self.step_count == 0:
            return np.empty((0, 0))
        n_visits = int(self.visits.max()) + 1
        n_domains = int(self.true_domains.max()) + 1
        table = np.full((n_visits, n_domains), np.nan)
        for v in range(n_visits):
            for d in range(n_domains):
                sel = (self.visits == v) & (self.true_domains == d)
                if sel.any():
                    table[v, d] = self.per_batch_error[sel].mean()
        return table


def run_episode(
    context: EpisodeContext,
    method: tta.MethodConfig,
    seed: int,
    trace: bool = False,
) -> EpisodeMetrics:
    """Execute one adaptation episode and record its metrics.

    Each step takes the :class:`DomainStream`'s prepared batch, offers its
    style to the style reservoir, detects the domain (possibly spawning a
    centroid and a model), refines the centroids, soft-assigns, adapts the
    selected model by one :func:`tta.tta_step` of ``method``, anchored by
    the context's ``fisher_omega``, then predicts with the soft-assignment
    ensemble of the models. The batch's frozen features are shared by the
    adaptation step, a spawned model's clone choice and the prediction,
    since none of them changes the features. The reservoir switch only sets
    the domain cap: without it the cap is 1, and the ensemble is the single
    model.

    At cap 1 the routing is constant: q = [1] and k* = 0 on every step, and
    the style pass, the reservoir offer and the detection feed only the
    trace columns. Without ``trace`` such an episode skips them, and its
    stream skips the style pass; every other column is the same bits.
    Deterministic per (context, method, seed).
    """
    plan = context.plan
    k_max = DEFAULT_K_MAX if method.reservoir else 1
    route = k_max > 1 or trace

    n = plan.total_steps
    stream = DomainStream(context, seed, styles=route)
    # A reservoir never holds more styles than the episode offers.
    reservoir = StyleReservoir(
        max(1, min(context.cluster.reservoir_size, n)),
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
    min_distance = np.zeros(n) if trace else None
    soft = np.zeros((n, k_max)) if trace else None

    q, k_star = np.ones(1), 0  # the constant routing of an unrouted episode
    for step in range(n):
        batch = stream.next_batch(step)
        feats, s = batch.features, batch.style
        if route:
            reservoir.offer(s)
            decision = centroids.detect(s, context.tau)
            if decision.is_new:
                models.init_new_model(lambda p: tta.predict(model, p, feats))
            update_centroids(centroids, reservoir)
            q = soft_assign_vector(s, centroids)
            k_star = select_active(q)
        new_params = tta.tta_step(
            model, models.entry(k_star), feats, method, context.fisher_omega
        )
        models.write_active(k_star, new_params)

        theta = models.ensemble_params(q)
        probs = tta.predict(model, theta, feats)
        predicted = probs.argmax(axis=1)

        assigned[step] = k_star
        errors[step] = float((predicted != batch.labels).mean())
        detected[step] = centroids.count - 1
        drift[step] = float(np.linalg.norm(theta - model.source_params))
        if trace:
            min_distance[step] = decision.distance
            soft[step, : q.size] = q

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
