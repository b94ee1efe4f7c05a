"""The config surface: the values a YAML config can set, pinned by name, and
how their YAML is read."""

from dataclasses import fields

import pytest
import yaml

from reservoir_tta import cli, config, tta
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


def settable_names() -> list[str]:
    names = []
    for f in fields(config.RunConfig):
        if f.name in config._SECTIONS:
            names += [f"{f.name}.{g.name}" for g in fields(config._SECTIONS[f.name])]
        elif f.name == "methods":
            names += [f"methods[].{g.name}" for g in fields(tta.MethodConfig)]
        else:
            names.append(f.name)
    return names


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


def _load(tmp_path, text):
    path = tmp_path / "config.yaml"
    path.write_text(text, encoding="utf-8")
    return config.load_config(path)


def test_exponent_floats_load_as_floats(tmp_path):
    cfg = _load(tmp_path, "methods: [{name: m, lr: 1e-3}]\nscenario: {severity: 1.0e3}\n")
    assert cfg.methods[0].lr == 0.001
    assert type(cfg.scenario.severity) is float and cfg.scenario.severity == 1000.0


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
