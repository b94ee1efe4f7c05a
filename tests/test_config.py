"""The config surface: the values a YAML config can set, pinned by name, and
how their YAML is read."""

import typing
from dataclasses import dataclass, field, is_dataclass

import pytest
import yaml

from reservoir_tta import cli, config
from reservoir_tta.errors import ConfigurationError

# Every settable value, section by section. A new knob must be added here.
SETTABLE = (
    "seeds",
    "output_dir",
    "emit_trace",
    "source.samples_per_class",
    "source.epochs",
    "style.calibration_styles",
    "style.fisher_batches",
    "scenario.kind",
    "scenario.domains",
    "scenario.visits",
    "scenario.batches_per_domain",
    "scenario.batch_size",
    "scenario.severity",
    "clustering.reservoir_size",
    "methods[].name",
    "methods[].kind",
    "methods[].reservoir",
    "methods[].lr",
    "theory.steps",
    "theory.trials",
    "theory.ensemble_trials",
    "theory.ensemble_alphas",
    "theory.recursion_steps",
    "theory.fisher_steps",
    "theory.chebyshev_steps",
    "theory.chebyshev_trials",
)

# Values that were settable once and are now pinned in the code.
PINNED = {
    "source": ("classes", "input_dim", "separation", "hidden", "lr", "batch_size", "seed"),
    "style": ("channels", "seed", "nonlinearity", "calibration_batch_size"),
    "scenario": ("domain_seed", "min_separation_factor"),
    "clustering": ("k_max", "quantile", "centroid_lr", "centroid_steps"),
    "theory": (
        "eta", "noise_std", "dim", "recursion_dim", "recursion_alpha", "fisher_cases",
        "fisher_dim", "chebyshev_dim", "chebyshev_curvature", "chebyshev_beta_factor", "seed",
    ),
    "methods": ("entropy_margin", "fisher_lambda", "alpha"),
}


def _leaves(cls, prefix=""):
    """``(path, hint)`` of every value a ``cls`` config sets, walking config
    types through their type hints as the builder does."""
    for name, hint in typing.get_type_hints(cls).items():
        item = typing.get_args(hint)[0] if typing.get_origin(hint) is tuple else None
        if is_dataclass(hint):
            yield from _leaves(hint, f"{prefix}{name}.")
        elif is_dataclass(item):
            yield from _leaves(item, f"{prefix}{name}[].")
        else:
            yield prefix + name, hint


def settable_names() -> list[str]:
    return [path for path, _ in _leaves(config.RunConfig)]


def test_settable_values_are_pinned():
    assert settable_names() == list(SETTABLE)


def test_pinned_values_are_unknown_fields():
    data = {section: dict.fromkeys(names, 1) for section, names in PINNED.items()}
    data["methods"] = [{"name": "m", **data["methods"]}]
    with pytest.raises(ConfigurationError) as info:
        config.config_from_dict(data)
    problems = str(info.value).removeprefix("invalid config: ").split("; ")
    expected = [
        f"{'methods[0]' if section == 'methods' else section}.{name}: unknown field"
        for section, names in PINNED.items()
        for name in names
    ]
    assert problems == expected
    assert len(expected) == 31


def _unreadable(cls) -> list[str]:
    """Paths of the values whose hint the builder cannot check: a list of
    one probe reaches the entry type of a tuple hint too."""
    paths = []
    for path, hint in _leaves(cls):
        try:
            config._build(hint, [object()], path, [])
        except TypeError:  # isinstance cannot test a hint such as list[int]
            paths.append(path)
    return paths


def test_every_config_hint_is_readable():
    assert _unreadable(config.RunConfig) == []


@dataclass(frozen=True)
class _ListEntry:
    counts: list[int] = field(default_factory=list)


@dataclass(frozen=True)
class _ListConfig:
    seed: int = 0
    entries: tuple[_ListEntry, ...] = ()
    tables: tuple[dict[str, int], ...] = ()


def test_unreadable_hint_is_caught():
    assert _unreadable(_ListConfig) == ["entries[].counts", "tables"]
    # What the guard prevents: the load itself raises, not a config error.
    with pytest.raises(TypeError):
        config._build(_ListConfig, {"entries": [{"counts": [1]}]}, "", [])


def _load(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return config.load_config(path)


def _problems(tmp_path, text) -> list[str]:
    with pytest.raises(ConfigurationError) as info:
        _load(tmp_path, text)
    return str(info.value).removeprefix("invalid config: ").split("; ")


def test_problems_follow_the_file_key_order(tmp_path):
    # An unknown field is a problem of its field; a type's own rules come
    # after its fields, so RunConfig's come after every section.
    sections = {
        "scenario": ("scenario: {domains: 0}", ["scenario.domains: must be >= 1"]),
        "methods": ("methods: [{name: m, lr: x}]", ["methods[0].lr: expected float, got 'x'"]),
        "seeds": ("seeds: x", ["seeds: expected tuple[int, ...], got 'x'"]),
        "clustering": (
            "clustering: {k_max: 2, reservoir_size: 0}",
            ["clustering.k_max: unknown field", "clustering.reservoir_size: must be >= 1"],
        ),
    }
    for order in (list(sections), list(reversed(sections))):
        text = "\n".join(["output_dir: ''"] + [sections[key][0] for key in order])
        expected = [problem for key in order for problem in sections[key][1]]
        assert _problems(tmp_path, text) == expected + ["output_dir: must be nonempty"]


def test_every_bad_method_entry_is_reported(tmp_path):
    text = "methods: [{name: a, lr: x}, {name: b, kind: nope}, {lr: 1}]\n"
    assert _problems(tmp_path, text) == [
        "methods[0].lr: expected float, got 'x'",
        "methods[1].kind: unknown objective 'nope'",
        "methods[2].name: required",
    ]


@pytest.mark.parametrize(
    "text, problem",
    [
        ("scenario: [1]\n", "scenario: must be a mapping"),
        ("methods: [3]\n", "methods[0]: must be a mapping"),
        ("methods: {name: m}\n", "methods: must be a list"),
        ("[1]\n", "config root must be a mapping"),
    ],
)
def test_shape_problems_name_their_path(tmp_path, text, problem):
    assert _problems(tmp_path, text) == [problem]


def test_exponent_floats_load_as_floats(tmp_path):
    cfg = _load(tmp_path, "methods: [{name: m, lr: 1e-3}]\nscenario: {severity: 1.0e3}\n")
    assert cfg.methods[0].lr == 0.001
    assert type(cfg.scenario.severity) is float and cfg.scenario.severity == 1000.0
    # A mantissa may start with its dot, with or without an exponent sign.
    values = yaml.load("[.5e3, -.5E3, +.25e2, .5e-3, .inf]", Loader=config._Loader)
    assert values == [500.0, -500.0, 25.0, 0.0005, float("inf")]
    assert _load(tmp_path, "methods: [{name: m, lr: .5e3}]\n").methods[0].lr == 500.0
    # Neither a digitless mantissa nor a missing exponent makes a float.
    assert yaml.load("[e5, 1e, ., '1e-3']", Loader=config._Loader) == ["e5", "1e", ".", "1e-3"]


def test_exponent_int_is_still_rejected(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    path = tmp_path / "config.yaml"
    path.write_text("theory: {trials: 1e4}\n", encoding="utf-8")
    assert cli.main(["theory", "--config", str(path)]) == 1
    assert "theory.trials: expected int, got 10000.0" in capsys.readouterr().err


def test_quoted_and_digitless_exponents_stay_strings(tmp_path):
    assert _load(tmp_path, "methods: [{name: e5}]\n").methods[0].name == "e5"
    with pytest.raises(ConfigurationError, match="methods\\[0\\].lr: expected float, got '1e-3'"):
        _load(tmp_path, 'methods: [{name: m, lr: "1e-3"}]\n')


def test_safe_load_is_unchanged():
    assert yaml.safe_load("[1e-3, 1.0e3, 2e0]") == ["1e-3", "1.0e3", "2e0"]


def test_yaml_boolean_word_names_a_method(tmp_path):
    cfg = _load(tmp_path, "methods: [{name: no}, {name: On}]\n")
    assert [m.name for m in cfg.methods] == ["no", "On"]


def test_yaml_boolean_word_is_an_output_dir_and_still_a_flag(tmp_path):
    cfg = _load(tmp_path, "output_dir: off\nemit_trace: yes\n")
    assert cfg.output_dir == "off"
    assert cfg.emit_trace is True


def test_yaml_boolean_word_keeps_its_bool_in_other_fields(tmp_path):
    seeds = r"seeds: expected tuple\[int, \.\.\.\], got \(True,\)"
    with pytest.raises(ConfigurationError, match=seeds):
        _load(tmp_path, "seeds: [yes]\n")
    with pytest.raises(ConfigurationError, match="emit_trace: expected bool, got 'yes'"):
        _load(tmp_path, 'emit_trace: "yes"\n')


@pytest.mark.parametrize(
    "text, key, line",
    [
        pytest.param("seeds: [1]\nseeds: [2]\n", "seeds", 2, id="top-level"),
        pytest.param(
            "scenario: {domains: 3}\nseeds: [1]\nscenario: {domains: 4}\n", "scenario", 3,
            id="top-level-section",
        ),
        pytest.param(
            "scenario:\n  domains: 3\n  visits: 1\n  domains: 4\n", "domains", 4,
            id="in-section",
        ),
        pytest.param(
            "methods:\n  - name: m\n    lr: 0.1\n    lr: 0.2\n", "lr", 4, id="in-method",
        ),
    ],
)
def test_repeated_key_exits_1_before_output(tmp_path, monkeypatch, capsys, text, key, line):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert f"{path}: repeated key {key!r} at line {line}" in err
    assert not (tmp_path / "out").exists()


def test_merge_key_is_not_a_repeat():
    # A key that overrides a merged one is written once.
    assert yaml.load("a: &x {p: 1}\nb: {<<: *x, p: 2}\n", Loader=config._Loader) == {
        "a": {"p": 1},
        "b": {"p": 2},
    }
