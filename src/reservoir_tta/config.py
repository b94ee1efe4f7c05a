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

``RunConfig``'s type hints are the config's only schema. One recursive
builder reads every value by the type its field is annotated with: a
section builds its config type (``scenario`` a ``stream.ScenarioPlan``,
``clustering`` a ``stream.ClusterParams``), ``methods`` one
``tta.MethodConfig`` per list entry, and each type checks its own values
when it is constructed; the engine consumes those types directly.
``config_from_dict`` raises one ``ConfigurationError`` listing every
``<path>: <rule>`` broken, in the file's key order, depth first, each
type's own rules after its fields.
"""

from __future__ import annotations

import re
import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any

import numpy as np
import yaml

from . import stream, tta
from .errors import ConfigurationError, check_fields, encodes_as_utf8
from .seeding import KEY_BOUND, keyed_rng
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
# Calibration batches drawn and extracted at once (bounds transient memory).
_STYLE_STACK = 128


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
    """Step and trial counts of the theory suite's checks.

    The weight-ensemble check steps one walk per entry of ``ensemble_alphas``,
    and every walk shares the same ``ensemble_trials`` noise draws: its
    trials are drawn once, not once per weight. The weights are distinct,
    since ``ensemble_var.csv`` tells its per-weight blocks apart by order
    alone.
    """

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
        alphas_unique = len(set(self.ensemble_alphas)) == len(self.ensemble_alphas)
        rules.append(("ensemble_alphas", alphas_unique, "entries must be unique"))
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
            # The output directory is a path, and "" would be the current one.
            ("output_dir", self.output_dir != "", "must be nonempty"),
            ("output_dir", "\0" not in self.output_dir, "must not contain a NUL character"),
            ("output_dir", encodes_as_utf8(self.output_dir), "must be encodable as UTF-8"),
            ("methods", len(self.methods) > 0, "must list at least one method"),
            ("methods", len(set(names)) == len(names), "names must be unique"),
        )


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


def _build(hint, data, where: str, problems: list[str]):
    """``data`` read as the annotated type ``hint`` at path ``where``; None
    (with problems noted) if invalid.

    A config dataclass is built from a mapping, field by field in the
    mapping's key order, each by its own hint; a required field absent from
    the mapping is noted after them, and the type's own rules, checked when
    it is constructed, last. While a required field is absent or rejected
    the type is not constructed. A ``tuple[<config type>, ...]`` is built
    from a list, entry ``i`` at ``<where>[i]``. Any other value is checked
    against its hint, a list read as a tuple.
    """
    if is_dataclass(hint):
        if not isinstance(data, dict):
            problems.append(f"{where}: must be a mapping")
            return None
        prefix = f"{where}." if where else ""
        hints = typing.get_type_hints(hint)
        kwargs = {}
        for key, value in data.items():
            if key not in hints:
                problems.append(f"{prefix}{key}: unknown field")
            elif (built := _build(hints[key], value, prefix + key, problems)) is not None:
                kwargs[key] = built
        required = [f.name for f in fields(hint)
                    if f.default is MISSING and f.default_factory is MISSING]
        problems.extend(f"{prefix}{name}: required" for name in required if name not in data)
        if any(name not in kwargs for name in required):
            return None
        try:
            return hint(**kwargs)
        except ConfigurationError as exc:
            problems.extend(prefix + problem for problem in exc.problems)
        return None
    item = typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else None
    if is_dataclass(item):
        if not isinstance(data, list):
            problems.append(f"{where}: must be a list")
            return None
        built = [_build(item, entry, f"{where}[{i}]", problems) for i, entry in enumerate(data)]
        return None if None in built else tuple(built)
    if isinstance(data, list):
        data = tuple(data)
    # A str field takes a YAML boolean word's text, any other its bool.
    if isinstance(data, _YamlBool):
        data = data.text if hint is str else data.value
    if not _conforms(data, hint):
        expected = hint.__name__ if isinstance(hint, type) else str(hint)
        problems.append(f"{where}: expected {expected}, got {data!r}")
        return None
    return data


def config_from_dict(data: dict[str, Any]) -> RunConfig:
    """Build and validate a RunConfig; raises listing every offending field."""
    if not isinstance(data, dict):
        raise ConfigurationError("config root must be a mapping")
    problems: list[str] = []
    cfg = _build(RunConfig, data, "", problems)
    if problems:
        raise ConfigurationError("invalid config: " + "; ".join(problems))
    return cfg


_MERGE_TAG = "tag:yaml.org,2002:merge"  # ``<<``, merged before construction


class _Loader(yaml.SafeLoader):
    """The safe YAML loader, plus floats with an exponent but no dot or no
    exponent sign (``1e-3``, ``1.0e3``, ``.5e3``), which YAML 1.1 reads as
    strings.
    A boolean word loads as a ``_YamlBool`` that ``_build`` resolves by
    the type of the field it sets. A mapping that repeats a key
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
    re.compile(r"^[-+]?(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)[eE][-+]?[0-9]+$"),
    list("-+.0123456789"),
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
    ``np.random.default_rng`` call per batch; stacks of ``_STYLE_STACK``
    batches are drawn (``stream.BlobSpec.sample_batches``) and extracted at once.
    """
    count = cfg.style.calibration_styles
    styles = np.empty((count, extractor.style_dim))
    rngs = (keyed_rng(STYLE_SEED, _TAG_CALIBRATION, i) for i in range(count))
    for s0 in range(0, count, _STYLE_STACK):
        size = min(_STYLE_STACK, count - s0)
        stack, _, _ = blob.sample_batches(rngs, size, CALIBRATION_BATCH_SIZE)
        styles[s0 : s0 + size] = extract_style(stack, extractor)
    return styles


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
    count = cfg.style.fisher_batches
    fisher_rngs = (keyed_rng(STYLE_SEED, _TAG_FISHER, i) for i in range(count))
    fisher_batches, _, _ = dataset.blob.sample_batches(fisher_rngs, count, plan.batch_size)
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
