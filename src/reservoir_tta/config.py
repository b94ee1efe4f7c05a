"""Run configuration: defaults, YAML loading, context building.

A config file sets only what a study varies; every other value is pinned in
one place. The paper's threshold quantile is ``THRESHOLD_QUANTILE``; the
domain cap and the centroid step are given in ``stream.ClusterParams``, the
style extractor in ``StyleParams`` and the anchor strengths and ensembling
rates of the update rules in ``tta.MethodConfig``. The synthetic source
task (5 classes in 16 dimensions, separation 8, training rate 0.03, seed
``SOURCE_SEED``) is fixed in ``build_context``, which also builds the style
extractor and calibrates the threshold tau; the task's hidden width is the
default of ``tta.train_source`` and its batch size ``tta.SOURCE_BATCH_SIZE``.
Domains are drawn at ``DOMAIN_SEED`` with ``stream.MIN_SEPARATION_FACTOR``. The
theory suite's step size and seed are ``cli.THEORY_ETA`` and
``cli.THEORY_SEED``, its task shapes literals in ``cli._run_check``.

Each YAML section builds one type that checks its own values when it is
constructed (``scenario`` a ``stream.ScenarioPlan``, ``clustering`` a
``stream.ClusterParams``, each ``methods`` entry a ``tta.MethodConfig``);
the engine consumes those types directly. ``config_from_dict`` raises one
``ConfigurationError`` listing every ``<section>.<field>: <rule>`` broken.
"""

from __future__ import annotations

import re
import typing
from dataclasses import MISSING, dataclass, field, fields
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from . import stream, tta
from .errors import ConfigurationError, check_fields
from .seeding import KEY_BOUND, keyed_rngs
from .style import FeatureExtractor, calibrate_threshold, extract_style

_TAG_CALIBRATION = 10
_TAG_FISHER = 11

DEFAULT_SEEDS = (1, 2, 3, 4, 5)
SOURCE_SEED = 7
STYLE_SEED = 11
DOMAIN_SEED = 23
THRESHOLD_QUANTILE = 0.99
# Calibration batches are smaller than test batches on purpose: the
# threshold must dominate the style noise of a large pooled test batch, so
# it is measured on noisier small-batch source styles.
CALIBRATION_BATCH_SIZE = 32


@dataclass(frozen=True)
class SourceParams:
    """Size and training length of the synthetic source sample."""

    samples_per_class: int = 400
    epochs: int = 12

    def __post_init__(self):
        check_fields(
            ("samples_per_class", self.samples_per_class >= 1, "must be >= 1"),
            ("epochs", self.epochs >= 0, "must be >= 0"),
        )


@dataclass(frozen=True)
class StyleParams:
    """Sample sizes of the threshold calibration and the Fisher estimate.

    The extractor's channels ``(8, 16, 16)`` and tanh are the defaults of
    ``style.FeatureExtractor``. Its seed, which also seeds the calibration
    and Fisher batches, is ``STYLE_SEED``; a calibration batch holds
    ``CALIBRATION_BATCH_SIZE`` samples.
    """

    calibration_styles: int = 2000
    fisher_batches: int = 10

    def __post_init__(self):
        check_fields(
            ("calibration_styles", self.calibration_styles >= 2, "must be >= 2"),
            ("fisher_batches", self.fisher_batches >= 1, "must be >= 1"),
        )


@dataclass(frozen=True)
class TheoryParams:
    """Step and trial counts of the theory suite's checks."""

    steps: int = 100
    trials: int = 10_000
    ensemble_trials: int = 100_000
    ensemble_alphas: tuple[float, ...] = (0.9, 0.99)
    recursion_steps: int = 1000
    fisher_steps: int = 100
    chebyshev_steps: int = 200
    chebyshev_trials: int = 10_000

    def __post_init__(self):
        rules = [
            (name, getattr(self, name) >= 100, "must be >= 100")
            for name in ("trials", "ensemble_trials", "chebyshev_trials")
        ] + [
            (name, getattr(self, name) >= 1, "must be >= 1")
            for name in ("steps", "recursion_steps", "fisher_steps", "chebyshev_steps")
        ]
        alphas_ok = all(0 < a < 1 for a in self.ensemble_alphas)
        rules.append(("ensemble_alphas", alphas_ok, "entries must be in (0, 1)"))
        rules.append(("ensemble_alphas", len(self.ensemble_alphas) > 0, "must be nonempty"))
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
    methods: tuple[tta.MethodConfig, ...] = (
        tta.MethodConfig(name="reservoir_eata", kind="filtered_fisher", reservoir=True),
    )
    theory: TheoryParams = field(default_factory=TheoryParams)

    def __post_init__(self):
        names = [m.name for m in self.methods]
        check_fields(
            ("seeds", len(self.seeds) > 0, "must be nonempty"),
            ("seeds", all(s >= 0 for s in self.seeds), "must be nonnegative"),
            # A stream seed is an entry of keyed_rng's keys.
            ("seeds", all(s < KEY_BOUND for s in self.seeds), "must be < 2**32"),
            ("seeds", len(set(self.seeds)) == len(self.seeds), "must be unique"),
            # The output directory is a path.
            ("output_dir", "\0" not in self.output_dir, "must not contain a NUL character"),
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


def _conforms(value, hint) -> bool:
    """Whether ``value`` has a field's annotated type (an int passes as float
    if a float can hold it)."""
    if typing.get_origin(hint) is tuple:  # tuple[X, ...], the only sequence type
        item = typing.get_args(hint)[0]
        return isinstance(value, tuple) and all(_conforms(v, item) for v in value)
    if isinstance(value, bool) and hint is not bool:
        return False
    if hint is float and isinstance(value, int):
        try:
            float(value)
        except OverflowError:
            return False
        return True
    return isinstance(value, hint)


@dataclass(frozen=True, repr=False)
class _YamlBool:
    """A plain YAML 1.1 boolean word (``yes``, ``off``, ``true`` ...) with
    its text, until the field it sets says which of the two it means."""

    text: str
    value: bool

    def __repr__(self) -> str:  # messages show the word as YAML reads it
        return repr(self.value)


def _resolve_yaml_bools(value, hint):
    """``value`` with each YAML boolean word as the field's type wants it: a
    str field takes the word's text (``name: no`` is ``"no"``), any other
    field its bool (``emit_trace: yes`` is ``True``)."""
    if isinstance(value, tuple):
        item = typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else None
        return tuple(_resolve_yaml_bools(v, item) for v in value)
    if isinstance(value, _YamlBool):
        return value.text if hint is str else value.value
    return value


def _fields(cls, data: dict, where: str, problems: list[str]) -> dict[str, Any]:
    """Keyword arguments for ``cls``: known fields of the annotated type only."""
    hints = typing.get_type_hints(cls)
    kwargs = {}
    for key, value in data.items():
        if key not in hints:
            problems.append(f"{where}{key}: unknown field")
            continue
        if isinstance(value, list):  # every sequence field is a tuple
            value = tuple(value)
        hint = hints[key]
        value = _resolve_yaml_bools(value, hint)
        if not _conforms(value, hint):
            expected = hint.__name__ if isinstance(hint, type) else str(hint)
            problems.append(f"{where}{key}: expected {expected}, got {value!r}")
            continue
        kwargs[key] = value
    return kwargs


def _build(cls, data, where: str, problems: list[str]):
    """One config dataclass from a mapping; None (with problems noted) if invalid.

    A required field absent from the mapping is noted as required; while a
    required field is absent or rejected, ``cls`` is not constructed.
    """
    if not isinstance(data, dict):
        problems.append(f"{where.rstrip('.')}: must be a mapping")
        return None
    kwargs = _fields(cls, data, where, problems)
    required = [f.name for f in fields(cls)
                if f.default is MISSING and f.default_factory is MISSING]
    problems.extend(f"{where}{name}: required" for name in required if name not in data)
    if any(name not in kwargs for name in required):
        return None
    try:
        return cls(**kwargs)
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
                _build(tta.MethodConfig, m, f"methods[{i}].", problems)
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


_MERGE_TAG = "tag:yaml.org,2002:merge"  # ``<<``, merged before construction


class _Loader(yaml.SafeLoader):
    """The safe YAML loader, plus floats with an exponent but no dot or no
    exponent sign (``1e-3``, ``1.0e3``), which YAML 1.1 reads as strings.
    A boolean word loads as a ``_YamlBool`` that ``config_from_dict``
    resolves by the type of the field it sets. A mapping that repeats a key
    raises ``ConfigurationError`` instead of keeping the last value."""

    def construct_mapping(self, node, deep=False):
        first: dict[Any, int] = {}
        for key_node, _ in node.value:
            if not isinstance(key_node, yaml.ScalarNode) or key_node.tag == _MERGE_TAG:
                continue
            key, mark = self.construct_object(key_node), key_node.start_mark
            if key in first:
                raise ConfigurationError(
                    f"{mark.name}: repeated key {key!r} at line {mark.line + 1} "
                    f"(first at line {first[key]})"
                )
            first[key] = mark.line + 1
        return super().construct_mapping(node, deep=deep)


_Loader.add_implicit_resolver(
    "tag:yaml.org,2002:float",
    re.compile(r"^[-+]?[0-9]+(?:\.[0-9]*)?[eE][-+]?[0-9]+$"),
    list("-+0123456789"),
)
_Loader.add_constructor(
    "tag:yaml.org,2002:bool",
    lambda loader, node: _YamlBool(node.value, loader.construct_yaml_bool(node)),
)


def load_config(path: str | Path) -> RunConfig:
    """Parse a YAML config file into a validated RunConfig.

    An empty file gives the defaults. A file that is not UTF-8 YAML, or
    that repeats a key in a mapping, raises ``ConfigurationError`` naming
    it; a file that cannot be opened raises ``OSError``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            data = yaml.load(fh, Loader=_Loader)
    except (yaml.YAMLError, UnicodeDecodeError) as exc:
        raise ConfigurationError(f"{path}: not a UTF-8 YAML file ({exc})") from exc
    return config_from_dict({} if data is None else data)


def calibration_styles(
    cfg: RunConfig, blob: stream.BlobSpec, extractor: FeatureExtractor
) -> np.ndarray:
    """Seeded source style sample used for threshold calibration: a
    ``(style.calibration_styles, style_dim)`` array.

    Batch ``i`` is drawn from its own ``(STYLE_SEED, tag, i)`` rng, one
    ``np.random.default_rng`` call per batch (``seeding.keyed_rngs``); the
    batches are stacked and extracted in one call.
    """
    count = cfg.style.calibration_styles
    batches = np.empty((count, CALIBRATION_BATCH_SIZE, blob.input_dim))
    for i, rng in enumerate(keyed_rngs((STYLE_SEED, _TAG_CALIBRATION), range(count))):
        batches[i], _ = blob.sample(rng, CALIBRATION_BATCH_SIZE)
    return extract_style(batches, extractor)


def build_context(cfg: RunConfig) -> stream.EpisodeContext:
    """Prepare everything an episode needs: the labeled source sample, the
    style extractor, the source model, the threshold tau and the domains."""
    dataset = stream.make_source_dataset(
        classes=5,
        samples_per_class=cfg.source.samples_per_class,
        input_dim=16,
        seed=SOURCE_SEED,
        separation=8.0,
    )
    extractor = FeatureExtractor(dataset.blob.input_dim, seed=STYLE_SEED)
    model = tta.train_source(
        SOURCE_SEED, (dataset.inputs, dataset.labels), epochs=cfg.source.epochs, lr=0.03
    )
    styles = calibration_styles(cfg, dataset.blob, extractor)
    tau = calibrate_threshold(styles, THRESHOLD_QUANTILE)
    source_mean = styles.mean(axis=0)

    plan = cfg.scenario
    domains = stream.make_domains(
        plan.domains,
        plan.severity,
        DOMAIN_SEED,
        blob=dataset.blob,
        extractor=extractor,
        tau=tau,
        source_style_mean=source_mean,
        batch_size=plan.batch_size,
    )
    fisher_batches = [
        dataset.blob.sample(rng, plan.batch_size)[0]
        for rng in keyed_rngs((STYLE_SEED, _TAG_FISHER), range(cfg.style.fisher_batches))
    ]
    omega = tta.estimate_fisher(model, fisher_batches)
    return stream.EpisodeContext(
        blob=dataset.blob,
        model=model,
        extractor=extractor,
        tau=tau,
        source_style_mean=source_mean,
        domains=domains,
        plan=plan,
        cluster=cfg.clustering,
        fisher_omega=omega,
    )
