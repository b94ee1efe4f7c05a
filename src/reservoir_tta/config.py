"""Run configuration: defaults, YAML loading, context building.

One config file drives everything. Paper-derived defaults are pinned here:
style reservoir size 1024, domain cap 16, threshold quantile 0.99 over 2000
source style vectors, centroid learning rate 1e-4. Harness-level knobs
(synthetic data shapes, severities, learning rates) were tuned once on the
synthetic benchmark and frozen.

Each YAML section builds one type that checks its own values when it is
constructed (``scenario`` a ``stream.ScenarioPlan``, ``clustering`` a
``stream.ClusterParams``, each ``methods`` entry a ``stream.MethodConfig``);
the engine consumes those types directly. ``config_from_dict`` raises one
``ConfigurationError`` listing every ``<section>.<field>: <rule>`` broken.
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
from .errors import ConfigurationError, check_fields
from .style import NONLINEARITIES, FeatureExtractor, calibrate_threshold, extract_style, mean_style

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

    def __post_init__(self):
        check_fields(
            ("classes", self.classes >= 2, "must be >= 2"),
            ("input_dim", self.input_dim >= 1, "must be >= 1"),
            ("samples_per_class", self.samples_per_class >= 1, "must be >= 1"),
            ("hidden", self.hidden >= 1, "must be >= 1"),
            ("batch_size", self.batch_size >= 1, "must be >= 1"),
        )


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

    def __post_init__(self):
        check_fields(
            ("channels", min(self.channels, default=0) >= 1, "must be nonempty and positive"),
            ("calibration_styles", self.calibration_styles >= 2, "must be >= 2"),
            ("calibration_batch_size", self.calibration_batch_size >= 2, "must be >= 2"),
            ("nonlinearity", self.nonlinearity in NONLINEARITIES,
             f"unknown kind {self.nonlinearity!r}"),
            ("fisher_batches", self.fisher_batches >= 1, "must be >= 1"),
        )


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

    def __post_init__(self):
        rules = [
            (name, getattr(self, name) >= 100, "must be >= 100")
            for name in ("trials", "ensemble_trials", "chebyshev_trials")
        ]
        for lam, omega, eta in self.fisher_cases:
            alpha = 1 - 2 * lam * omega * eta
            case = f"(lam={lam}, omega={omega}, eta={eta}) gives alpha={alpha} outside (0, 1]"
            rules.append(("fisher_cases", 0 < alpha <= 1, case))
        alphas_ok = all(0 <= a < 1 for a in self.ensemble_alphas)
        rules.append(("ensemble_alphas", alphas_ok, "entries must be in [0, 1)"))
        # The Chebyshev start point sits at distance 1 from the optimum.
        rules.append(("chebyshev_beta_factor", self.chebyshev_beta_factor > 1, "must be > 1"))
        check_fields(*rules)


@dataclass(frozen=True)
class RunConfig:
    seeds: tuple[int, ...] = DEFAULT_SEEDS
    output_dir: str = "out"
    emit_trace: bool = False
    source: SourceParams = field(default_factory=SourceParams)
    style: StyleParams = field(default_factory=StyleParams)
    scenario: stream.ScenarioPlan = field(default_factory=stream.ScenarioPlan)
    clustering: stream.ClusterParams = field(default_factory=stream.ClusterParams)
    methods: tuple[stream.MethodConfig, ...] = (
        stream.MethodConfig(name="reservoir_eata", kind="filtered_fisher", reservoir=True),
    )
    theory: TheoryParams = field(default_factory=TheoryParams)

    def __post_init__(self):
        names = [m.name for m in self.methods]
        check_fields(
            ("seeds", len(self.seeds) > 0, "must be nonempty"),
            ("seeds", all(s >= 0 for s in self.seeds), "must be nonnegative"),
            ("methods", len(self.methods) > 0, "must list at least one method"),
            ("methods", len(set(names)) == len(names), "names must be unique"),
        )


def default_config() -> RunConfig:
    return RunConfig()


_SECTIONS = {
    "source": SourceParams,
    "style": StyleParams,
    "scenario": stream.ScenarioPlan,
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
    except TypeError as exc:
        problems.append(f"{where.rstrip('.')}: {exc}")
    except ConfigurationError as exc:
        problems.extend(where + problem for problem in exc.problems)
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
            methods = [
                _build(stream.MethodConfig, m, f"methods[{i}].", problems)
                for i, m in enumerate(data["methods"])
            ]
            if None not in methods:
                kwargs["methods"] = tuple(methods)
    try:
        cfg = RunConfig(**kwargs)
    except ConfigurationError as exc:
        problems.extend(exc.problems)
    if problems:
        raise ConfigurationError("invalid config: " + "; ".join(problems))
    return cfg


def load_config(path: str | Path) -> RunConfig:
    """Parse a YAML config file into a validated RunConfig.

    An empty file gives the defaults. A file that is not UTF-8 YAML raises
    ``ConfigurationError`` naming it; a file that cannot be opened raises
    ``OSError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.safe_load(fh)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: not a UTF-8 YAML file ({exc})") from exc
    return config_from_dict({} if data is None else data)


def calibration_styles(
    cfg: RunConfig, blob: stream.BlobSpec, extractor: FeatureExtractor, count: int | None = None
) -> np.ndarray:
    """Seeded source style sample used for threshold calibration: a
    ``(count, style_dim)`` array, ``style.calibration_styles`` rows by default.

    Batch ``i`` is drawn from its own ``(seed, tag, i)`` rng; the batches are
    stacked and extracted in one call.
    """
    st = cfg.style
    count = st.calibration_styles if count is None else count
    batches = np.empty((count, st.calibration_batch_size, blob.input_dim))
    for i in range(count):
        rng = np.random.default_rng((st.seed, _TAG_CALIBRATION, i))
        batches[i], _ = blob.sample(rng, st.calibration_batch_size)
    return extract_style(batches, extractor)


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
    model = tta.train_source(
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

    plan = cfg.scenario
    domains = stream.make_domains(
        plan.domains,
        plan.severity,
        plan.domain_seed,
        blob=dataset.blob,
        extractor=extractor,
        tau=calibration.tau,
        source_style_mean=source_mean,
        batch_size=plan.batch_size,
        min_separation_factor=plan.min_separation_factor,
    )
    fisher_batches = []
    for i in range(cfg.style.fisher_batches):
        rng = np.random.default_rng((cfg.style.seed, _TAG_FISHER, i))
        x, _ = dataset.blob.sample(rng, plan.batch_size)
        fisher_batches.append(x)
    omega = tta.estimate_fisher(model, fisher_batches)
    return stream.EpisodeContext(
        blob=dataset.blob,
        model=model,
        extractor=extractor,
        calibration=calibration,
        source_style_mean=source_mean,
        domains=domains,
        plan=plan,
        cluster=cfg.clustering,
        fisher_omega=omega,
    )
