"""Synthetic recurring-domain streams and the end-to-end episode engine.

The data universe is a set of Gaussian class blobs (the source domain).
A test domain is an invertible affine distortion of the input space plus
per-coordinate input noise, all scaled by a severity knob; severity 0 is
the source domain exactly. Streams visit the domains under one of three
schedules: a fixed repeating order (CSC), a reshuffled order per visit
(CDC), or a continuous path that linearly blends consecutive domains
(CCC).

``run_episode`` executes the full per-batch loop: style extraction,
reservoir update, domain detection, centroid refinement, model selection
and adaptation, parameter ensembling, prediction. Hidden ground-truth
labels and domain ids feed the metrics only, never the adaptation path.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np
from scipy.linalg import expm

from . import tta
from .clustering import (
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
from .style import FeatureExtractor, ThresholdCalibration, extract_style

# Sub-stream tags for counter-based seeding; one tag per independent rng use.
_TAG_STREAM = 0
_TAG_RESERVOIR = 1
_TAG_DOMAIN_CHECK = 2

SCENARIO_KINDS = ("csc", "cdc", "ccc")


@dataclass(frozen=True)
class BlobSpec:
    """Source input distribution: one unit-variance Gaussian blob per class."""

    class_means: np.ndarray  # (classes, input_dim)
    within_std: float = 1.0

    @property
    def classes(self) -> int:
        return self.class_means.shape[0]

    @property
    def input_dim(self) -> int:
        return self.class_means.shape[1]

    def sample(self, rng: np.random.Generator, count: int) -> tuple[np.ndarray, np.ndarray]:
        labels = rng.integers(0, self.classes, size=count)
        inputs = self.class_means[labels] + self.within_std * rng.standard_normal(
            (count, self.input_dim)
        )
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
    inputs, labels = blob.sample(
        np.random.default_rng((seed, 1)), classes * samples_per_class
    )
    return LabeledDataset(inputs=inputs, labels=labels, blob=blob)


@dataclass(frozen=True)
class DomainSpec:
    """One test domain: an affine input distortion plus input noise.

    The base fields are severity-free direction parameters; the effective
    transform scales all of them by ``severity``. Severity 0 is the identity
    with no noise (the source domain).
    """

    id: int
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

    @property
    def noise_cov(self) -> np.ndarray:
        return np.diag(self.noise_std**2)

    def apply(self, inputs: np.ndarray, rng: np.random.Generator) -> np.ndarray:
        out = inputs @ self.transform.T + self.offset
        if np.any(self.noise_std > 0):
            out = out + rng.normal(0.0, self.noise_std, size=out.shape)
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
    domain_id: int,
    severity: float,
    rng: np.random.Generator,
    dim: int,
    tier: np.ndarray = np.zeros(3),
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
        id=domain_id,
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
        id=a.id if w < 0.5 else b.id,
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
    """Mean style vector of a domain over freshly sampled batches."""
    styles = []
    for i in range(batches):
        rng = np.random.default_rng((*seed_key, i))
        x, _ = blob.sample(rng, batch_size)
        styles.append(extract_style(domain.apply(x, rng), extractor))
    return np.mean(styles, axis=0)


def make_domains(
    count: int,
    severity: float,
    seed: int,
    *,
    blob: BlobSpec | None = None,
    extractor: FeatureExtractor | None = None,
    tau: float | None = None,
    source_style_mean: np.ndarray | None = None,
    batch_size: int = 64,
    style_batches: int = 16,
    min_separation_factor: float = 1.3,
    max_retries: int = 10,
) -> list[DomainSpec]:
    """Draw ``count`` distinct domains, enforcing style separation when possible.

    When an extractor and threshold are supplied, the candidate set is
    rejected unless every pair of domain style means (the source style mean
    included, if given) is separated by more than
    ``min_separation_factor * tau``; rejected sets are redrawn with a fresh
    sub-seed up to ``max_retries`` times before raising.
    """
    if count < 1:
        raise InputDomainError(f"domain count must be positive, got {count}")
    if blob is None:
        raise InputDomainError("make_domains requires a blob to size the domains")
    check = extractor is not None and tau is not None
    attempts = max_retries if check else 1
    pool_size = 8 * count if check else count
    for attempt in range(attempts):
        rng = np.random.default_rng((seed, attempt))
        if pool_size > 1:
            # Spread tier points on an ellipsoid in (input gain, log noise
            # level, log rotation angle) space: candidates differ in their
            # global style signature, akin to corruption types at distinct
            # severities, and any point is extreme along some axis. The gain
            # axis is stretched because it moves style without hurting the
            # class structure.
            tiers = np.array([-0.8, 0.0, 0.0]) + np.array(
                [0.9, 1.0, 1.0]
            ) * _sphere_points(pool_size, rng)
        else:
            tiers = np.zeros((1, 3))
        pool = [
            _draw_domain(k, severity, rng, blob.input_dim, tier=tiers[k])
            for k in range(pool_size)
        ]
        if not check:
            return pool
        means = np.stack(
            [
                domain_style_mean(
                    d, blob, extractor, batch_size, style_batches,
                    seed_key=(seed, _TAG_DOMAIN_CHECK, attempt, d.id),
                )
                for d in pool
            ]
        )
        chosen = _farthest_point_subset(means, count, source_style_mean)
        mat = means[chosen]
        if source_style_mean is not None:
            mat = np.vstack([mat, np.asarray(source_style_mean)])
        dists = np.linalg.norm(mat[:, None, :] - mat[None, :, :], axis=2)
        off_diag = dists[np.triu_indices(mat.shape[0], k=1)]
        if np.all(off_diag > min_separation_factor * tau):
            return [
                replace(pool[idx], id=new_id) for new_id, idx in enumerate(chosen)
            ]
    raise GenerationError(
        f"could not draw {count} domains separated by more than "
        f"{min_separation_factor} * tau after {attempts} attempts"
    )


def _farthest_point_subset(
    means: np.ndarray, count: int, source_mean: np.ndarray | None
) -> list[int]:
    """Greedy max-min-distance selection from a candidate pool."""
    dists = np.linalg.norm(means[:, None, :] - means[None, :, :], axis=2)
    if source_mean is not None:
        to_source = np.linalg.norm(means - np.asarray(source_mean), axis=1)
    else:
        to_source = np.full(means.shape[0], np.inf)
    chosen = [int(np.argmax(to_source)) if source_mean is not None else 0]
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
    """Stream schedule (which domain feeds each batch) and the domain draw."""

    kind: str = "csc"
    domains: int = 8
    visits: int = 20
    batches_per_domain: int = 25
    batch_size: int = 64
    severity: float = 1.0
    domain_seed: int = 23
    min_separation_factor: float = 1.3

    def __post_init__(self):
        check_fields(
            ("kind", self.kind in SCENARIO_KINDS, f"unknown kind {self.kind!r}"),
            ("domains", self.domains >= 1, "must be >= 1"),
            ("visits", self.visits >= 0, "must be >= 0"),
            ("batch_size", self.batch_size >= 2, "must be >= 2"),
            ("batches_per_domain", self.batches_per_domain >= 1, "must be >= 1"),
            ("severity", self.severity >= 0, "must be >= 0"),
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
        rng = np.random.default_rng((seed, visit))
        return rng.permutation(self.domains)

    def segment_at(self, step: int, seed: int) -> tuple[int, int, int, float]:
        """(visit, primary domain, next domain, blend weight) for one step."""
        if not 0 <= step < self.total_steps:
            raise EndOfStream(f"step {step} outside [0, {self.total_steps})")
        visit = step // self.steps_per_visit
        within = step % self.steps_per_visit
        slot = within // self.batches_per_domain
        order = self.visit_order(visit, seed)
        primary = int(order[slot])
        if self.kind != "ccc":
            return visit, primary, primary, 0.0
        # Continuous path: ramp linearly toward the next scheduled domain.
        j = within % self.batches_per_domain
        w = j / self.batches_per_domain
        flat = visit * self.steps_per_visit + (slot + 1) * self.batches_per_domain
        if flat >= self.total_steps:
            return visit, primary, primary, 0.0
        nxt_visit = flat // self.steps_per_visit
        nxt_slot = (flat % self.steps_per_visit) // self.batches_per_domain
        nxt = int(self.visit_order(nxt_visit, seed)[nxt_slot])
        return visit, primary, nxt, w


@dataclass(frozen=True)
class StreamBatch:
    inputs: np.ndarray
    labels: np.ndarray
    domain_id: int
    visit: int


class DomainStream:
    """Deterministic batch generator for a plan over a fixed domain set."""

    def __init__(
        self,
        plan: ScenarioPlan,
        domains: Sequence[DomainSpec],
        blob: BlobSpec,
        seed: int,
    ):
        if len(domains) != plan.domains:
            raise ConfigurationError(
                f"plan expects {plan.domains} domains, got {len(domains)}"
            )
        self.plan = plan
        self.domains = list(domains)
        self.blob = blob
        self.seed = seed

    def next_batch(self, step: int) -> StreamBatch:
        visit, primary, nxt, w = self.plan.segment_at(step, self.seed)
        # Batch content is keyed by (domain, slot within the domain's visit),
        # so every recurrence of a domain replays the same test data; visit-
        # to-visit error differences then reflect adaptation, not resampling
        # (recurring corruption benchmarks revisit a fixed test set the same
        # way).
        slot = step % self.plan.batches_per_domain
        rng = np.random.default_rng((self.seed, _TAG_STREAM, primary, slot))
        inputs, labels = self.blob.sample(rng, self.plan.batch_size)
        if w == 0.0 or primary == nxt:
            domain = self.domains[primary]
            hidden = primary
        else:
            domain = blend_domains(self.domains[primary], self.domains[nxt], w)
            hidden = primary if w < 0.5 else nxt
        return StreamBatch(
            inputs=domain.apply(inputs, rng),
            labels=labels,
            domain_id=hidden,
            visit=visit,
        )


@dataclass(frozen=True)
class MethodConfig:
    """One engine variant: a TTA objective plus the reservoir switch.

    ``fisher_lambda`` and ``alpha`` left at None take the defaults of
    :func:`tta.default_anchoring` for the kind and the reservoir switch.
    """

    name: str
    kind: str = "entropy"
    reservoir: bool = False
    lr: float = tta.DEFAULT_TTA_LR
    entropy_margin: float | None = None
    fisher_lambda: float | None = None
    alpha: float | None = None

    def __post_init__(self):
        self.objective(None)  # raises for a bad kind, lr, margin, lambda or alpha

    def objective(self, fisher_omega: np.ndarray | None) -> tta.TTAObjectiveConfig:
        """The update rule, with ``fisher_omega`` as the anchor's weights."""
        lam, alpha = tta.default_anchoring(self.kind, self.reservoir)
        return tta.TTAObjectiveConfig(
            kind=self.kind,
            lr=self.lr,
            entropy_margin=self.entropy_margin,
            fisher_lambda=lam if self.fisher_lambda is None else self.fisher_lambda,
            fisher_omega=fisher_omega,
            alpha=alpha if self.alpha is None else self.alpha,
        )


@dataclass(frozen=True)
class ClusterParams:
    """Clustering knobs used by the engine."""

    reservoir_size: int = 1024
    k_max: int = 16
    quantile: float = 0.99
    centroid_lr: float = 1e-4
    centroid_steps: int = 1

    def __post_init__(self):
        check_fields(
            ("reservoir_size", self.reservoir_size >= 1, "must be >= 1"),
            ("k_max", self.k_max >= 1, "must be >= 1"),
            ("quantile", 0 < self.quantile <= 1, "must be in (0, 1]"),
            ("centroid_lr", self.centroid_lr >= 0, "must be >= 0"),
            ("centroid_steps", self.centroid_steps >= 1, "must be >= 1"),
        )


@dataclass(frozen=True)
class EpisodeContext:
    """Everything an episode needs that does not depend on the stream seed."""

    blob: BlobSpec
    model: tta.AdaptableClassifier
    source_params: np.ndarray
    extractor: FeatureExtractor
    calibration: ThresholdCalibration
    source_style_mean: np.ndarray
    domains: list[DomainSpec]
    plan: ScenarioPlan
    cluster: ClusterParams
    fisher_omega: np.ndarray


@dataclass
class EpisodeMetrics:
    """Per-step records of one episode plus derived per-visit summaries."""

    steps: np.ndarray
    visits: np.ndarray
    true_domains: np.ndarray
    assigned_models: np.ndarray
    per_batch_error: np.ndarray
    detected_domains: np.ndarray
    drift_norm: np.ndarray
    predictions: np.ndarray

    @property
    def step_count(self) -> int:
        return int(self.steps.size)

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


@dataclass(frozen=True)
class StepRecord:
    """Engine state handed to a per-step observer during an episode."""

    step: int
    decision_kind: str
    decision_index: int
    min_distance: float
    active_index: int
    soft_assignment: np.ndarray
    centroid_count: int
    model_count: int


def run_episode(
    context: EpisodeContext,
    method: MethodConfig,
    seed: int,
    plan: ScenarioPlan | None = None,
    step_callback: Callable[[StepRecord], None] | None = None,
) -> EpisodeMetrics:
    """Execute one adaptation episode and record its metrics.

    The per-batch order is: extract style, offer it to the style reservoir,
    detect the domain (possibly spawning a centroid and a model), refine
    centroids, soft-assign, adapt the selected model, then predict — with
    the ensembled parameters for reservoir methods, the single model
    otherwise. Deterministic per (plan, method, seed).
    """
    plan = context.plan if plan is None else plan
    cluster = context.cluster
    k_max = cluster.k_max if method.reservoir else 1
    objective = method.objective(context.fisher_omega)

    stream = DomainStream(plan, context.domains, context.blob, seed)
    style_dim = context.extractor.style_dim
    reservoir = StyleReservoir(
        cluster.reservoir_size, style_dim, seed=(seed, _TAG_RESERVOIR)
    )
    centroids = CentroidSet(context.source_style_mean, k_max=k_max)
    models = ModelReservoir(context.source_params)
    tau = context.calibration.tau
    model = context.model

    n = plan.total_steps
    visits = np.zeros(n, dtype=np.int64)
    true_domains = np.zeros(n, dtype=np.int64)
    assigned = np.zeros(n, dtype=np.int64)
    errors = np.zeros(n)
    detected = np.zeros(n, dtype=np.int64)
    drift = np.zeros(n)
    preds = np.zeros((n, plan.batch_size), dtype=np.int64)

    for step in range(n):
        batch = stream.next_batch(step)
        s = extract_style(batch.inputs, context.extractor)
        reservoir.offer(s)
        decision = centroids.detect(s, tau)
        if decision.is_new:
            models.init_new_model(lambda p: tta.predict(model, p, batch.inputs))
        update_centroids(
            centroids, reservoir, lr=cluster.centroid_lr, steps=cluster.centroid_steps
        )
        q = soft_assign_vector(s, centroids)
        k_star = select_active(q)
        new_params = tta.tta_step(model, models.entry(k_star), batch.inputs, objective)
        models.write_active(k_star, new_params)

        theta = models.ensemble_params(q) if method.reservoir else models.entry(k_star)
        probs = tta.predict(model, theta, batch.inputs)
        predicted = probs.argmax(axis=1)

        visits[step] = batch.visit
        true_domains[step] = batch.domain_id
        assigned[step] = k_star
        errors[step] = float((predicted != batch.labels).mean())
        detected[step] = centroids.count - 1
        drift[step] = float(np.linalg.norm(theta - context.source_params))
        preds[step] = predicted
        if step_callback is not None:
            step_callback(
                StepRecord(
                    step=step,
                    decision_kind=decision.kind,
                    decision_index=decision.index,
                    min_distance=decision.distance,
                    active_index=k_star,
                    soft_assignment=q,
                    centroid_count=centroids.count,
                    model_count=models.count,
                )
            )

    return EpisodeMetrics(
        steps=np.arange(n),
        visits=visits,
        true_domains=true_domains,
        assigned_models=assigned,
        per_batch_error=errors,
        detected_domains=detected,
        drift_norm=drift,
        predictions=preds,
    )
