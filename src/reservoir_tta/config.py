"""Run configuration: defaults, YAML loading, validation, context building.

One config file drives everything. Paper-derived defaults are pinned here:
style reservoir size 1024, domain cap 16, threshold quantile 0.99 over 2000
source style vectors, centroid learning rate 1e-4. Harness-level knobs
(synthetic data shapes, severities, learning rates) were tuned once on the
synthetic benchmark and frozen.
"""

from __future__ import annotations

import types
import typing
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from . import stream, tta
from .errors import ConfigurationError
from .style import FeatureExtractor, calibrate_threshold, extract_style, mean_style

_TAG_CALIBRATION = 10
_TAG_FISHER = 11

DEFAULT_SEEDS = (1, 2, 3, 4, 5)


@dataclass(frozen=True)
class SourceParams:
    """Synthetic source task and its training recipe."""

    classes: int = 5
    input_dim: int = 16
    samples_per_class: int = 400
    separation: float = 8.0
    hidden: int = 32
    epochs: int = 12
    lr: float = 0.03
    batch_size: int = 64
    seed: int = 7


@dataclass(frozen=True)
class StyleParams:
    """Style extractor and threshold calibration settings.

    Calibration batches are smaller than test batches on purpose: the
    threshold must dominate the style noise of a large pooled test batch,
    so it is measured on noisier small-batch source styles.
    """

    channels: tuple[int, ...] = (8, 16, 16)
    seed: int = 11
    nonlinearity: str = "tanh"
    calibration_styles: int = 2000
    calibration_batch_size: int = 32
    fisher_batches: int = 10


@dataclass(frozen=True)
class ScenarioParams:
    kind: str = "csc"
    domains: int = 8
    visits: int = 20
    batches_per_domain: int = 25
    batch_size: int = 64
    severity: float = 1.0
    domain_seed: int = 23
    min_separation_factor: float = 1.3


@dataclass(frozen=True)
class MethodSpec:
    """One method to run; None fields fall back to regime defaults."""

    name: str
    kind: str = "entropy"
    reservoir: bool = False
    lr: float = tta.DEFAULT_TTA_LR
    entropy_margin: float | None = None
    fisher_lambda: float | None = None
    alpha: float | None = None


@dataclass(frozen=True)
class TheoryParams:
    eta: float = 0.1
    noise_std: float = 1.0
    dim: int = 1
    steps: int = 100
    trials: int = 10_000
    ensemble_trials: int = 100_000
    ensemble_alphas: tuple[float, ...] = (0.9, 0.99)
    recursion_steps: int = 1000
    recursion_dim: int = 8
    recursion_alpha: float = 0.97
    fisher_cases: tuple[tuple[float, float, float], ...] = (
        (0.5, 1.0, 0.1),
        (1.0, 0.5, 0.2),
        (0.25, 2.0, 0.05),
    )
    fisher_steps: int = 100
    fisher_dim: int = 4
    chebyshev_steps: int = 200
    chebyshev_trials: int = 10_000
    chebyshev_dim: int = 4
    chebyshev_curvature: float = 0.5
    chebyshev_beta_factor: float = 5.0
    seed: int = 101


@dataclass(frozen=True)
class RunConfig:
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    output_dir: str = "out"
    emit_trace: bool = False
    source: SourceParams = field(default_factory=SourceParams)
    style: StyleParams = field(default_factory=StyleParams)
    scenario: ScenarioParams = field(default_factory=ScenarioParams)
    clustering: stream.ClusterParams = field(default_factory=stream.ClusterParams)
    methods: tuple[MethodSpec, ...] = (
        MethodSpec(name="reservoir_eata", kind="filtered_fisher", reservoir=True),
    )
    theory: TheoryParams = field(default_factory=TheoryParams)


def default_config() -> RunConfig:
    return RunConfig()


_SECTIONS = {
    "source": SourceParams,
    "style": StyleParams,
    "scenario": ScenarioParams,
    "clustering": stream.ClusterParams,
    "theory": TheoryParams,
}


def _tuples(value):
    """YAML lists as tuples, recursively: every sequence field is a tuple."""
    if isinstance(value, list):
        return tuple(_tuples(v) for v in value)
    return value


def _conforms(value, hint) -> bool:
    """Whether ``value`` has a field's annotated type (an int passes as float)."""
    args = typing.get_args(hint)
    if isinstance(hint, types.UnionType):
        return any(_conforms(value, arg) for arg in args)
    if typing.get_origin(hint) is tuple:
        if not isinstance(value, tuple):
            return False
        if len(args) == 2 and args[1] is Ellipsis:
            return all(_conforms(v, args[0]) for v in value)
        return len(value) == len(args) and all(map(_conforms, value, args))
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float:
        return isinstance(value, (int, float))
    return isinstance(value, hint)


def _fields(cls, data: dict, where: str, problems: list[str]) -> dict[str, Any]:
    """Keyword arguments for ``cls``: known fields of the annotated type only."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            problems.append(f"{where}{key}: unknown field")
            continue
        value = _tuples(value)
        hint = hints[key]
        if not _conforms(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            problems.append(f"{where}{key}: expected {expected}, got {value!r}")
            continue
        kwargs[key] = value
    return kwargs


def _build(cls, data, where: str, problems: list[str]):
    """One config dataclass from a mapping; None (with problems noted) if invalid."""
    if not isinstance(data, dict):
        problems.append(f"{where.rstrip('.')}: must be a mapping")
        return None
    kwargs = _fields(cls, data, where, problems)
    try:
        return cls(**kwargs)
    except (TypeError, ConfigurationError) as exc:
        problems.append(f"{where.rstrip('.')}: {exc}")
        return None


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    """Build and validate a RunConfig; raises listing every offending field."""
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    problems: list[str] = []
    top = {k: v for k, v in data.items() if k not in _SECTIONS and k != "methods"}
    kwargs = _fields(RunConfig, top, "", problems)
    for section, cls in _SECTIONS.items():
        if section in data:
            built = _build(cls, data[section], f"{section}.", problems)
            if built is not None:
                kwargs[section] = built
    if "methods" in data:
        if not isinstance(data["methods"], list):
            problems.append("methods: must be a list")
        else:
            specs = [
                _build(MethodSpec, m, f"methods[{i}].", problems)
                for i, m in enumerate(data["methods"])
            ]
            kwargs["methods"] = tuple(spec for spec in specs if spec is not None)
    cfg = RunConfig(**kwargs)
    problems.extend(validate_config(cfg))
    if problems:
        raise ConfigurationError("invalid config: " + "; ".join(problems))
    return cfg


def validate_config(cfg: RunConfig) -> list[str]:
    """Collect every constraint violation (empty list = valid)."""
    problems = []
    if not cfg.seeds:
        problems.append("seeds: must be nonempty")
    if any(s < 0 for s in cfg.seeds):
        problems.append("seeds: must be nonnegative")
    s = cfg.scenario
    if s.kind not in stream.SCENARIO_KINDS:
        problems.append(f"scenario.kind: unknown kind {s.kind!r}")
    if s.domains < 1:
        problems.append("scenario.domains: must be >= 1")
    if s.visits < 0:
        problems.append("scenario.visits: must be >= 0")
    if s.batch_size < 2:
        problems.append("scenario.batch_size: must be >= 2")
    if s.batches_per_domain < 1:
        problems.append("scenario.batches_per_domain: must be >= 1")
    if s.severity < 0:
        problems.append("scenario.severity: must be >= 0")
    c = cfg.clustering
    if c.reservoir_size < 1:
        problems.append("clustering.reservoir_size: must be >= 1")
    if c.k_max < 1:
        problems.append("clustering.k_max: must be >= 1")
    if not 0 < c.quantile <= 1:
        problems.append("clustering.quantile: must be in (0, 1]")
    if c.centroid_lr < 0:
        problems.append("clustering.centroid_lr: must be >= 0")
    if c.centroid_steps < 1:
        problems.append("clustering.centroid_steps: must be >= 1")
    src = cfg.source
    if src.classes < 2:
        problems.append("source.classes: must be >= 2")
    if src.samples_per_class < 1:
        problems.append("source.samples_per_class: must be >= 1")
    st = cfg.style
    if st.calibration_styles < 2:
        problems.append("style.calibration_styles: must be >= 2")
    if st.calibration_batch_size < 2:
        problems.append("style.calibration_batch_size: must be >= 2")
    if st.nonlinearity not in ("tanh", "identity"):
        problems.append(f"style.nonlinearity: unknown kind {st.nonlinearity!r}")
    if not cfg.methods:
        problems.append("methods: must list at least one method")
    names = [m.name for m in cfg.methods]
    if len(set(names)) != len(names):
        problems.append("methods: names must be unique")
    for m in cfg.methods:
        if m.kind not in tta.OBJECTIVE_KINDS:
            problems.append(f"methods[{m.name}].kind: unknown objective {m.kind!r}")
        if m.lr < 0:
            problems.append(f"methods[{m.name}].lr: must be >= 0")
        if m.alpha is not None and not 0 <= m.alpha <= 1:
            problems.append(f"methods[{m.name}].alpha: must be in [0, 1]")
        if m.fisher_lambda is not None and m.fisher_lambda < 0:
            problems.append(f"methods[{m.name}].fisher_lambda: must be >= 0")
    t = cfg.theory
    if t.trials < 100 or t.ensemble_trials < 100 or t.chebyshev_trials < 100:
        problems.append("theory: trial counts must be >= 100")
    for lam, omega, eta in t.fisher_cases:
        alpha = 1 - 2 * lam * omega * eta
        if not 0 < alpha <= 1:
            problems.append(
                f"theory.fisher_cases: (lam={lam}, omega={omega}, eta={eta}) "
                f"gives alpha={alpha} outside (0, 1]"
            )
    return problems


def load_config(path: str | Path) -> RunConfig:
    """Parse a YAML config file into a validated RunConfig."""
    with open(path, "r", encoding="utf-8") as fh:
        data = yaml.safe_load(fh)
    return config_from_dict(data or {})


def resolve_method(spec: MethodSpec) -> stream.MethodConfig:
    """Fill regime defaults (anchoring strength depends on the reservoir switch)."""
    base = tta.default_objective(spec.kind, reservoir=spec.reservoir, lr=spec.lr)
    lam = spec.fisher_lambda if spec.fisher_lambda is not None else base.fisher_lambda
    alpha = spec.alpha if spec.alpha is not None else base.alpha
    objective = tta.TTAObjectiveConfig(
        kind=spec.kind,
        lr=spec.lr,
        entropy_margin=spec.entropy_margin,
        fisher_lambda=lam,
        alpha=alpha,
    )
    return stream.MethodConfig(name=spec.name, objective=objective, reservoir=spec.reservoir)


def calibration_styles(cfg: RunConfig, blob: stream.BlobSpec, extractor: FeatureExtractor):
    """Seeded source style sample used for threshold calibration."""
    st = cfg.style
    styles = []
    for i in range(st.calibration_styles):
        rng = np.random.default_rng((st.seed, _TAG_CALIBRATION, i))
        x, _ = blob.sample(rng, st.calibration_batch_size)
        styles.append(extract_style(x, extractor))
    return styles


def build_source(cfg: RunConfig) -> tuple[stream.LabeledDataset, FeatureExtractor]:
    """The labeled source sample (with its class blobs) and the style extractor."""
    src = cfg.source
    dataset = stream.make_source_dataset(
        classes=src.classes,
        samples_per_class=src.samples_per_class,
        input_dim=src.input_dim,
        seed=src.seed,
        separation=src.separation,
    )
    extractor = FeatureExtractor(
        src.input_dim,
        layer_channels=cfg.style.channels,
        seed=cfg.style.seed,
        nonlinearity=cfg.style.nonlinearity,
    )
    return dataset, extractor


def build_context(cfg: RunConfig) -> stream.EpisodeContext:
    """Prepare everything an episode needs: source model, threshold, domains."""
    src = cfg.source
    dataset, extractor = build_source(cfg)
    model, source_params = tta.train_source(
        src.seed,
        (dataset.inputs, dataset.labels),
        epochs=src.epochs,
        lr=src.lr,
        hidden=src.hidden,
        batch_size=src.batch_size,
    )
    styles = calibration_styles(cfg, dataset.blob, extractor)
    calibration = calibrate_threshold(styles, cfg.clustering.quantile)
    source_mean = mean_style(styles)

    sc = cfg.scenario
    domains = stream.make_domains(
        sc.domains,
        sc.severity,
        sc.domain_seed,
        blob=dataset.blob,
        extractor=extractor,
        tau=calibration.tau,
        source_style_mean=source_mean,
        batch_size=sc.batch_size,
        min_separation_factor=sc.min_separation_factor,
    )
    fisher_batches = []
    for i in range(cfg.style.fisher_batches):
        rng = np.random.default_rng((cfg.style.seed, _TAG_FISHER, i))
        x, _ = dataset.blob.sample(rng, sc.batch_size)
        fisher_batches.append(x)
    omega = tta.estimate_fisher(model, fisher_batches)

    plan = stream.ScenarioPlan(
        kind=sc.kind,
        domain_count=sc.domains,
        visits=sc.visits,
        batches_per_domain=sc.batches_per_domain,
        batch_size=sc.batch_size,
    )
    return stream.EpisodeContext(
        blob=dataset.blob,
        model=model,
        source_params=source_params,
        extractor=extractor,
        calibration=calibration,
        source_style_mean=source_mean,
        domains=domains,
        plan=plan,
        cluster=cfg.clustering,
        fisher_omega=omega,
    )
