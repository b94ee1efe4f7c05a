"""The config surface: the values a YAML config can set, pinned by name."""

from dataclasses import fields

import pytest

from reservoir_tta import config, tta
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
