"""The ``rtta`` command line: exit codes and byte-reproducible outputs."""

import csv
import hashlib
import json

import pytest
import yaml

from reservoir_tta import cli, seeding

# Small enough to run in a few seconds: 3 domains x 2 visits x 3 batches,
# with an 8-entry style reservoir so the stream reaches its replace phase.
SMALL = {
    "seeds": [1, 2],
    "emit_trace": True,
    "source": {"samples_per_class": 100, "epochs": 3},
    "style": {"calibration_styles": 200, "fisher_batches": 3},
    "scenario": {"domains": 3, "visits": 2, "batches_per_domain": 3},
    "clustering": {"reservoir_size": 8},
    "methods": [
        {"name": "reservoir_eata", "kind": "filtered_fisher", "reservoir": True},
        {"name": "tent", "kind": "entropy"},
    ],
}


def _write_config(tmp_path, data, name="config.yaml"):
    path = tmp_path / name
    path.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize(
    ("data", "message"),
    [
        pytest.param({"seeds": 3}, "seeds: expected", id="seeds-int"),
        pytest.param({"seeds": ["a"]}, "seeds: expected", id="seeds-str"),
        pytest.param({"methods": 5}, "methods: must be a list", id="methods-int"),
        pytest.param(
            {"clustering": {"reservoir_size": None}},
            "clustering.reservoir_size: expected int",
            id="reservoir_size-null",
        ),
        pytest.param(
            {"scenario": {"domains": 2.5}}, "scenario.domains: expected int",
            id="domains-float",
        ),
        pytest.param(
            {"source": {"epochs": "x"}}, "source.epochs: expected int", id="epochs-str",
        ),
        pytest.param(
            {"methods": [{"name": "m", "lr": "x"}]}, "methods[0].lr: expected float",
            id="lr-str",
        ),
        pytest.param({"emit_trace": "no"}, "emit_trace: expected bool", id="emit_trace-str"),
        pytest.param({"nonsense": 1}, "nonsense: unknown field", id="unknown"),
        pytest.param([], "config root must be a mapping", id="root-empty-list"),
        pytest.param(0, "config root must be a mapping", id="root-zero"),
        # One case per value rule.
        pytest.param({"seeds": []}, "seeds: must be nonempty", id="seeds-empty"),
        pytest.param({"seeds": [1, -1]}, "seeds: must be nonnegative", id="seeds-negative"),
        pytest.param({"seeds": [1, 1]}, "seeds: must be unique", id="seeds-duplicate"),
        pytest.param({"seeds": [1, 2**32]}, "seeds: must be < 2**32", id="seeds-beyond-uint32"),
        pytest.param(
            {"output_dir": "o\0x"}, "output_dir: must not contain a NUL character",
            id="output_dir-nul",
        ),
        pytest.param(
            {"source": {"epochs": -5}}, "source.epochs: must be >= 0", id="epochs-negative",
        ),
        pytest.param(
            {"scenario": {"kind": "abc"}}, "scenario.kind: unknown kind 'abc'",
            id="scenario-kind",
        ),
        pytest.param(
            {"scenario": {"domains": 0}}, "scenario.domains: must be >= 1",
            id="domains-zero",
        ),
        pytest.param(
            {"scenario": {"visits": -1}}, "scenario.visits: must be >= 0",
            id="visits-negative",
        ),
        pytest.param(
            {"scenario": {"batch_size": 1}}, "scenario.batch_size: must be >= 2",
            id="scenario-batch_size",
        ),
        pytest.param(
            {"scenario": {"batches_per_domain": 0}},
            "scenario.batches_per_domain: must be >= 1",
            id="batches_per_domain-zero",
        ),
        pytest.param(
            {"scenario": {"severity": -0.5}}, "scenario.severity: must be finite and >= 0",
            id="severity-negative",
        ),
        pytest.param(
            {"scenario": {"severity": float("inf")}},
            "scenario.severity: must be finite and >= 0",
            id="severity-inf",
        ),
        pytest.param(
            {"scenario": {"severity": 10**400}}, "scenario.severity: expected float",
            id="severity-int-beyond-float",
        ),
        pytest.param(
            {"clustering": {"reservoir_size": 0}},
            "clustering.reservoir_size: must be >= 1",
            id="reservoir_size-zero",
        ),
        pytest.param(
            {"source": {"samples_per_class": 0}},
            "source.samples_per_class: must be >= 1",
            id="samples_per_class-zero",
        ),
        pytest.param(
            {"style": {"calibration_styles": 1}},
            "style.calibration_styles: must be >= 2",
            id="calibration_styles-one",
        ),
        pytest.param({"methods": []}, "methods: must list at least one method", id="methods-empty"),
        pytest.param(
            {"methods": [{"name": "a"}, {"name": "a"}]}, "methods: names must be unique",
            id="methods-duplicate",
        ),
        pytest.param(
            {"methods": [{"name": "m", "kind": "mystery"}]},
            "methods[0].kind: unknown objective 'mystery'",
            id="method-kind",
        ),
        pytest.param(
            {"methods": [{"name": "m", "lr": -0.1}]}, "methods[0].lr: must be finite and >= 0",
            id="method-lr",
        ),
        pytest.param(
            {"methods": [{"name": "m", "lr": float("inf")}]},
            "methods[0].lr: must be finite and >= 0",
            id="method-lr-inf",
        ),
        pytest.param(
            {"methods": [{"name": "m", "lr": -(10**400)}]}, "methods[0].lr: expected float",
            id="method-lr-int-beyond-float",
        ),
        pytest.param(
            {"theory": {"trials": 99}}, "theory.trials: must be >= 100",
            id="theory-trials",
        ),
        pytest.param(
            {"theory": {"ensemble_trials": 99}}, "theory.ensemble_trials: must be >= 100",
            id="theory-ensemble_trials",
        ),
        pytest.param(
            {"theory": {"chebyshev_trials": 99}}, "theory.chebyshev_trials: must be >= 100",
            id="theory-chebyshev_trials",
        ),
        pytest.param(
            {"style": {"fisher_batches": 0}}, "style.fisher_batches: must be >= 1",
            id="fisher_batches-zero",
        ),
        pytest.param(
            {"theory": {"ensemble_alphas": [0.9, 1.0]}},
            "theory.ensemble_alphas: entries must be in (0, 1)",
            id="ensemble_alphas-one",
        ),
        # alpha = 0 keeps every trial at the start: a zero closed form that
        # the relative deviation would divide by.
        pytest.param(
            {"theory": {"ensemble_alphas": [0.0]}},
            "theory.ensemble_alphas: entries must be in (0, 1)",
            id="ensemble_alphas-zero",
        ),
        # Every broken rule of every section is listed in one error.
        pytest.param(
            {
                "scenario": {"domains": 0, "severity": -1},
                "clustering": {"reservoir_size": 0},
            },
            "scenario.domains: must be >= 1; scenario.severity: must be finite and >= 0; "
            "clustering.reservoir_size: must be >= 1",
            id="three-rules",
        ),
        # Options that no longer exist: one recipe per pipeline stage.
        pytest.param(
            {"clustering": {"optimizer": "adam"}}, "clustering.optimizer: unknown field",
            id="optimizer-removed",
        ),
        pytest.param(
            {"clustering": {"squared_assignment": True}},
            "clustering.squared_assignment: unknown field",
            id="squared_assignment-removed",
        ),
        pytest.param(
            {"methods": [{"name": "m", "init_policy": "source"}]},
            "methods[0].init_policy: unknown field",
            id="init_policy-removed",
        ),
        # Values pinned in the code, no longer settable. These cases keep the
        # inputs and ids they had when each field was checked by a value
        # rule (or, for k_max-null and classes-str, by its type).
        pytest.param(
            {"source": {"classes": "x"}}, "source.classes: unknown field", id="classes-str",
        ),
        pytest.param(
            {"source": {"classes": 1}}, "source.classes: unknown field", id="classes-one",
        ),
        pytest.param(
            {"source": {"input_dim": 0}}, "source.input_dim: unknown field",
            id="input_dim-zero",
        ),
        pytest.param(
            {"source": {"hidden": 0}}, "source.hidden: unknown field", id="hidden-zero",
        ),
        pytest.param(
            {"source": {"batch_size": 0}}, "source.batch_size: unknown field",
            id="source-batch_size",
        ),
        pytest.param(
            {"style": {"calibration_batch_size": 1}},
            "style.calibration_batch_size: unknown field",
            id="calibration_batch_size-one",
        ),
        pytest.param(
            {"style": {"nonlinearity": "relu"}}, "style.nonlinearity: unknown field",
            id="nonlinearity-unknown",
        ),
        pytest.param(
            {"style": {"channels": []}}, "style.channels: unknown field", id="channels-empty",
        ),
        pytest.param(
            {"style": {"channels": [8, 0]}}, "style.channels: unknown field",
            id="channels-zero",
        ),
        pytest.param(
            {"scenario": {"domain_seed": 5}}, "scenario.domain_seed: unknown field",
            id="domain_seed-removed",
        ),
        pytest.param(
            {"clustering": {"k_max": None}}, "clustering.k_max: unknown field",
            id="k_max-null",
        ),
        pytest.param(
            {"clustering": {"k_max": 0}}, "clustering.k_max: unknown field", id="k_max-zero",
        ),
        pytest.param(
            {"clustering": {"quantile": 0}}, "clustering.quantile: unknown field",
            id="quantile-zero",
        ),
        pytest.param(
            {"clustering": {"centroid_lr": -1e-4}}, "clustering.centroid_lr: unknown field",
            id="centroid_lr-negative",
        ),
        pytest.param(
            {"clustering": {"centroid_steps": 0}}, "clustering.centroid_steps: unknown field",
            id="centroid_steps-zero",
        ),
        pytest.param(
            {"methods": [{"name": "m", "kind": "filtered_ensemble", "alpha": 1.5}]},
            "methods[0].alpha: unknown field",
            id="method-alpha",
        ),
        pytest.param(
            {"methods": [{"name": "m", "kind": "fisher_entropy", "fisher_lambda": -1}]},
            "methods[0].fisher_lambda: unknown field",
            id="method-fisher_lambda",
        ),
        pytest.param(
            {"methods": [{"name": "m", "kind": "filtered_entropy", "entropy_margin": 0}]},
            "methods[0].entropy_margin: unknown field",
            id="method-entropy_margin",
        ),
        pytest.param(
            {"theory": {"fisher_cases": [[1.0, 1.0, 1.0]]}}, "theory.fisher_cases: unknown field",
            id="fisher_cases-alpha",
        ),
        pytest.param(
            {"theory": {"chebyshev_beta_factor": 1.0}},
            "theory.chebyshev_beta_factor: unknown field",
            id="chebyshev_beta_factor-one",
        ),
        pytest.param({"theory": {"steps": 0}}, "theory.steps: must be >= 1", id="steps-zero"),
        pytest.param(
            {"theory": {"recursion_steps": 0}}, "theory.recursion_steps: must be >= 1",
            id="recursion_steps-zero",
        ),
        pytest.param(
            {"theory": {"fisher_steps": -1}}, "theory.fisher_steps: must be >= 1",
            id="fisher_steps-negative",
        ),
        pytest.param(
            {"theory": {"chebyshev_steps": 0}}, "theory.chebyshev_steps: must be >= 1",
            id="chebyshev_steps-zero",
        ),
        pytest.param(
            {"theory": {"ensemble_alphas": []}}, "theory.ensemble_alphas: must be nonempty",
            id="ensemble_alphas-empty",
        ),
    ],
)
def test_bad_config_exits_1(tmp_path, monkeypatch, capsys, data, message):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    assert cli.main(["run", "--config", _write_config(tmp_path, data)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert message in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    ("entry", "message"),
    [
        pytest.param({"kind": "entropy"}, "methods[0].name: required", id="nameless"),
        pytest.param({"name": 5}, "methods[0].name: expected str, got 5", id="name-int"),
        pytest.param({"name": "m", "kind": "mystery"}, "methods[0].kind: unknown objective",
                     id="bad-kind"),
        pytest.param({"name": "a/b"}, "methods[0].name: must be nonempty and contain no '/'",
                     id="name-slash"),
        pytest.param({"name": ""}, "methods[0].name: must be nonempty and contain no '/'",
                     id="name-empty"),
        pytest.param({"name": "a\0b"}, "methods[0].name: must not contain a NUL character",
                     id="name-nul"),
    ],
)
def test_bad_method_entry_reports_only_itself(tmp_path, monkeypatch, capsys, entry, message):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    assert cli.main(["run", "--config", _write_config(tmp_path, {"methods": [entry]})]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert message in err
    assert "methods: must list at least one method" not in err
    assert "positional argument" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "seeds", ["1,x", ",", "", "-1", "2,-3", "1,1", "1,,2", "3,", " ,1", "4294967296"]
)
def test_bad_seed_override_exits_1(tmp_path, monkeypatch, capsys, seeds):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    path = _write_config(tmp_path, SMALL)
    assert cli.main(["run", "--config", path, f"--seeds={seeds}"]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param(["theory", "--checks", "recursion,bogus"], id="checks"),
        pytest.param(["theory", "--checks", "recursion,recursion"], id="checks-repeated"),
        pytest.param(["theory", "--checks", "recursion, recursion "], id="checks-repeated-spaced"),
        pytest.param(["theory", "--checks", "recursion,,sgd_var"], id="checks-empty-entry"),
        pytest.param(["theory", "--checks", "recursion,"], id="checks-trailing-comma"),
    ],
)
def test_bad_argument_exits_1_before_output(tmp_path, monkeypatch, capsys, args):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    assert cli.main(args) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "content",
    [
        pytest.param(b"seeds: [1", id="yaml-syntax"),
        pytest.param(b"seeds: [1]\n# \xff\n", id="not-utf8"),
    ],
)
def test_malformed_config_file_exits_1(tmp_path, monkeypatch, capsys, content):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    path = tmp_path / "config.yaml"
    path.write_bytes(content)
    assert cli.main(["run", "--config", str(path)]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert str(path) in err
    assert not (tmp_path / "out").exists()


def test_missing_config_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    assert cli.main(["run", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "I/O error" in capsys.readouterr().err
    # An empty path names no file; it does not mean the defaults.
    assert cli.main(["theory", "--config", "", "--checks", ""]) == 2
    assert "I/O error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize(
    "args",
    [
        pytest.param([], id="no-command"),
        pytest.param(["run", "--bogus"], id="unknown-option"),
        pytest.param(["frobnicate"], id="unknown-command"),
        pytest.param(["calibrate"], id="calibrate-deleted"),
        pytest.param(["theory", "--checks"], id="option-without-value"),
    ],
)
def test_usage_error_exits_1_before_output(tmp_path, monkeypatch, capsys, args):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    assert cli.main(args) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["--help"])
    assert exc.value.code == 0
    assert "usage: rtta" in capsys.readouterr().out


def test_failing_theory_check_exits_3(tmp_path, monkeypatch, capsys):
    # 100 ensemble trials over 20 steps miss the closed form by ~32 %,
    # far outside the 5 % tolerance; the trials are seeded, so this fails
    # the same way on every run.
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    path = _write_config(tmp_path, {"theory": {"ensemble_trials": 100, "steps": 20}})
    assert cli.main(["theory", "--config", path, "--checks", "ensemble_var"]) == 3
    captured = capsys.readouterr()
    assert "[FAIL] ensemble_var" in captured.out
    assert "verification failure in ensemble_var" in captured.err
    assert (tmp_path / "out" / "ensemble_var.csv").exists()


def test_run_trace_has_one_line_per_step(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    assert cli.main(["run", "--config", _write_config(tmp_path, SMALL), "--seeds", "1"]) == 0
    spawned = {}
    for method in ("reservoir_eata", "tent"):
        lines = (out / f"trace_{method}_seed1.jsonl").read_text().splitlines()
        with open(out / f"metrics_{method}_seed1.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        summary = json.loads((out / f"summary_{method}_seed1.json").read_text())
        assert len(lines) == len(rows) == 3 * 2 * 3
        kinds = []
        for step, (line, row) in enumerate(zip(lines, rows)):
            record = json.loads(line)
            kinds.append(record["decision_kind"])
            assert set(record) == {
                "step", "decision_kind", "chosen_index", "min_distance",
                "centroid_count", "soft_assignment",
            }
            assert record["step"] == step
            assert record["chosen_index"] == int(row["assigned_model"])
            assert record["centroid_count"] == int(row["detected_domains"]) + 1
            assert len(record["soft_assignment"]) == record["centroid_count"]
            assert sum(record["soft_assignment"]) == pytest.approx(1.0)
        assert kinds.count("new_domain") == summary["final_detected_domains"]
        spawned[method] = summary["final_detected_domains"]
    assert spawned["reservoir_eata"] > 0 and spawned["tent"] == 0


def test_run_outputs_are_byte_reproducible(tmp_path, monkeypatch):
    path = _write_config(tmp_path, SMALL)
    outputs = []
    for name in ("a", "b"):
        out = tmp_path / name
        monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
        assert cli.main(["run", "--config", path]) == 0
        outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
    first, second = outputs
    assert sorted(first) == [
        "aggregate.json",
        "metrics_reservoir_eata_seed1.csv",
        "metrics_reservoir_eata_seed2.csv",
        "metrics_tent_seed1.csv",
        "metrics_tent_seed2.csv",
        "summary_reservoir_eata_seed1.json",
        "summary_reservoir_eata_seed2.json",
        "summary_tent_seed1.json",
        "summary_tent_seed2.json",
        "trace_reservoir_eata_seed1.jsonl",
        "trace_reservoir_eata_seed2.jsonl",
        "trace_tent_seed1.jsonl",
        "trace_tent_seed2.jsonl",
    ]
    assert first == second


# sha256 of every file ``rtta run`` writes for SMALL. A change that alters
# any output byte must update these and say why.
GOLDEN_RUN = {
    "aggregate.json": "2a125f8a566129c92c7b927f9484323ff6eb07e810dc41b8f29d63c460655a3f",
    "metrics_reservoir_eata_seed1.csv": "f887516c1b4ff7dea81ddc3c8f883bda9cf1f37f7d691c1a4bfa4a8fa53977f3",
    "metrics_reservoir_eata_seed2.csv": "705b933d11ff9cf91ce7a5958ef763399138394b6a40774ae190122665c323ba",
    "metrics_tent_seed1.csv": "7657403e745ef48c919825d5ef284f7d66259f606867b669929c2e287138d816",
    "metrics_tent_seed2.csv": "98ef68709382d961ca545d6852d353a25bac37b71ba4216ff4187ed790922aa9",
    "summary_reservoir_eata_seed1.json": "049c8fe5445816c077fc77401cf6769ee787193ea974137a90821fcb8ac7dbc8",
    "summary_reservoir_eata_seed2.json": "f6bff64936b68d35e97b42124bdf9a7cd6a296f5f2785150772012cb0afcc4be",
    "summary_tent_seed1.json": "592fdc01675aa101c1be2c4f47652826a71661a0b4ad7a5cba652978c8f267a6",
    "summary_tent_seed2.json": "eb73fc13a3651d44858f11fbe4215a10a8eb324d3910776fecd51707e396040d",
    "trace_reservoir_eata_seed1.jsonl": "b05b9241fd338fb1a5cb7bcc57b331eb48077d390b1bc042ded31649461c38ec",
    "trace_reservoir_eata_seed2.jsonl": "62e9bee9b1ee212ff605be968a9dabf60b4c4b9fb32640b7f4ad390c00ea5111",
    "trace_tent_seed1.jsonl": "23351a391641598587ee35809658d3b95a0d5c8847ab2143857b71255607e73b",
    "trace_tent_seed2.jsonl": "f11bd0fcf5a706e283b315baeb37d4e00880e089bd809e0c7b9911c4a0301be1",
}
# The same for SMALL as a CCC stream with the single-model ``tent`` method
# only: the path a ``reservoir: false`` method takes through the engine.
SMALL_CCC_TENT = {
    **SMALL,
    "scenario": {**SMALL["scenario"], "kind": "ccc"},
    "methods": [m for m in SMALL["methods"] if m["name"] == "tent"],
}
GOLDEN_RUN_CCC_TENT = {
    "aggregate.json": "43b5bfa238724484b7fbe93d5253d56ac3cc800338d0644da6d7bd50733ef896",
    "metrics_tent_seed1.csv": "b534ef71226323f85d80553e565cff4b77e51abab447a8647ba4512c2a947ce8",
    "metrics_tent_seed2.csv": "12aae6d39baf0efbb46a6e209d9c2ba6a090a1a3b05ff5511b2f7b4037d99dcd",
    "summary_tent_seed1.json": "790145dd79fb20534230ba648c7165937a79f74a3af4e22eb5ffc4954c073cb1",
    "summary_tent_seed2.json": "684fdddb8fe6caa34280cd1306bcc7871c686b370aadceef9f0a098a16f3607b",
    "trace_tent_seed1.jsonl": "f90d5c5d69907eb206be12a5f54635145ad8ca13d4994651371b4f01db26f4a7",
    "trace_tent_seed2.jsonl": "bd5d07d20430331d3ce4c1c92401a1c0f480eaf33fa0d946c2e07462226f7f5f",
}
# The same for SMALL as a CDC stream with the objective kinds the two runs
# above leave out: the margin filter, the anchor and the ensembling, alone
# and (filtered_ensemble) with the reservoir.
SMALL_CDC_KINDS = {
    **SMALL,
    "scenario": {**SMALL["scenario"], "kind": "cdc"},
    "methods": [
        {"name": "eata", "kind": "filtered_entropy"},
        {"name": "fisher", "kind": "fisher_entropy"},
        {"name": "ensemble", "kind": "weight_ensemble_entropy"},
        {"name": "reservoir_ensemble", "kind": "filtered_ensemble", "reservoir": True},
    ],
}
GOLDEN_RUN_CDC_KINDS = {
    "aggregate.json": "76afba5b1c70a57c72351fb379378ea67d62d419fbab73be1106f37adce0c47a",
    "metrics_eata_seed1.csv": "d18b6a007ae5f7d5fd52603c1b71c6ede9d510ea0d86359ce9e8a3bb3b3662aa",
    "metrics_eata_seed2.csv": "30877fd3dc4ea51175bf901470fb6973a6111d061bc84c987b2d5426eac8148e",
    "metrics_ensemble_seed1.csv": "065884bc533ddd488a8ec9f8b9b04be90273dda7350a2382a4b904b9302bfa71",
    "metrics_ensemble_seed2.csv": "0121b70a51f177abea41777d4ae600394e0dee4ed74b82788e3c64208219f2f9",
    "metrics_fisher_seed1.csv": "d2bb1ba2ad2804ea3fef5dd7f8520fe45e0e693669874dc5d4a363c18e4f2817",
    "metrics_fisher_seed2.csv": "53076ffa0f57d1e5d02229af5e09179669eb4a37c433d6410c36eb5bdd99866b",
    "metrics_reservoir_ensemble_seed1.csv": "04f02f98bbc5dd6b1f85eab11c6e6cb89d47146684676f888680099c97883813",
    "metrics_reservoir_ensemble_seed2.csv": "5bad90d826b1256ee4865144e45f5e4cb543187fa19f4b7d123a7ff9dbab8e4b",
    "summary_eata_seed1.json": "52cb623810ae4c5370dbd64e883848751f92c37b0d6556511ebedae60145872c",
    "summary_eata_seed2.json": "474b3dfccc88e11124cb1e7f360c0e5208b444b6d3398528be81946833b6b10d",
    "summary_ensemble_seed1.json": "69bcbd02e940baf58c547b95702a85603aa8b99634bf1c438033d47637793c4d",
    "summary_ensemble_seed2.json": "9f93460f888fc3f90c1a2824667242ddc135d7c7369b9d524db3fe8eed2a98b5",
    "summary_fisher_seed1.json": "9c0a4d537d3ed9170c70c63f989e5a67cf9f3adc72d27d33b8eb72ced2b24158",
    "summary_fisher_seed2.json": "2b97a7fbbda7af6f1966a01e39ec1a321ac7745c0875ee6794ed95b8fcd07392",
    "summary_reservoir_ensemble_seed1.json": "5da2ba75506e7e1df410d88fef0cdfeee3969372809510b3396d44c2bb1e0824",
    "summary_reservoir_ensemble_seed2.json": "2f87b23e82ae88e01d6c7bf1c6f2aeaa74a7ddb6da130c1d7bbe802c9a22a24c",
    "trace_eata_seed1.jsonl": "6f3bd5ce8bb9488e7186430ddb17c92a27c7dbac2112610d13c32551b2b298c9",
    "trace_eata_seed2.jsonl": "e5bb96d7f5a045e5053898b437f610ce33dd6ae91a19677c636470f8efd44a6c",
    "trace_ensemble_seed1.jsonl": "6f3bd5ce8bb9488e7186430ddb17c92a27c7dbac2112610d13c32551b2b298c9",
    "trace_ensemble_seed2.jsonl": "e5bb96d7f5a045e5053898b437f610ce33dd6ae91a19677c636470f8efd44a6c",
    "trace_fisher_seed1.jsonl": "6f3bd5ce8bb9488e7186430ddb17c92a27c7dbac2112610d13c32551b2b298c9",
    "trace_fisher_seed2.jsonl": "e5bb96d7f5a045e5053898b437f610ce33dd6ae91a19677c636470f8efd44a6c",
    "trace_reservoir_ensemble_seed1.jsonl": "273e69997c75e04ae291bbc73006f8ed7abf051379e995bc973b231e19c93df7",
    "trace_reservoir_ensemble_seed2.jsonl": "7a556a01768a19e1c716baa48f6e94488f8b37337c90b83196beb1a5f36682c9",
}
GOLDEN_THEORY = {
    "fisher_equiv.csv": "b3ef21fcf23f3208bc64a48d2c91e65841fced5b25d27abef2a24123c94eba8c",
    "recursion.csv": "fbf2f031716cd647a5792d1c1c8c8d783739e3afac386eecba1a7accdb36d239",
}
GOLDEN_THEORY_STDOUT = (
    "[PASS] recursion: max discrepancy 5.773e-15 (< 1e-10 required)\n"
    "[PASS] fisher_equiv: max trajectory discrepancy 4.441e-16 (< 1e-10 required)\n"
)


# sha256 of ``rtta theory`` with all five checks at SMALL_THEORY. Its trial
# counts are too small for the tolerances of sgd_var and ensemble_var, so it
# exits 3; the digests pin the Monte-Carlo bits, not the verdicts.
SMALL_THEORY = {
    "theory": {
        "steps": 20,
        "trials": 300,
        "ensemble_trials": 200,
        "recursion_steps": 50,
        "fisher_steps": 20,
        "chebyshev_steps": 30,
        "chebyshev_trials": 300,
    }
}
GOLDEN_SMALL_THEORY = {
    "chebyshev.csv": "04abca204dd2d50236b1f65089edff49e589666f5478edff4146a75563b3f1cf",
    "ensemble_var.csv": "7c3f34055d4ceb49e3e60fa6af418f7206cc74e67ed0599a82c273baec2e202f",
    "fisher_equiv.csv": "4dbfdcb2b3e6b12a94db2c55519c22acda5b4f1ec97eb3038850d6f29b69f482",
    "recursion.csv": "32ac126efa76c136f4edbdb2a3a18e7a3301e2ce6a9adce9ab8ec073d1271524",
    "sgd_var.csv": "8916a17b4e31224ce743e4c895cc8e9658968a291527410b90e5121bd75dacb5",
}


# sha256 of ``rtta calibrate`` at the default config: the full set-up, 2000
# calibration styles of 32 samples.
def _digests(out):
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.iterdir())}


def test_run_outputs_match_golden_hashes(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    assert cli.main(["run", "--config", _write_config(tmp_path, SMALL)]) == 0
    assert _digests(out) == GOLDEN_RUN


def test_ccc_single_model_run_matches_golden_hashes(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    assert cli.main(["run", "--config", _write_config(tmp_path, SMALL_CCC_TENT)]) == 0
    assert _digests(out) == GOLDEN_RUN_CCC_TENT


def test_cdc_objective_kinds_run_matches_golden_hashes(tmp_path, monkeypatch):
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    assert cli.main(["run", "--config", _write_config(tmp_path, SMALL_CDC_KINDS)]) == 0
    assert _digests(out) == GOLDEN_RUN_CDC_KINDS


@pytest.mark.parametrize(
    ("config", "golden"),
    [(SMALL, GOLDEN_RUN), (SMALL_CCC_TENT, GOLDEN_RUN_CCC_TENT)],
    ids=["small", "ccc_tent"],
)
def test_untraced_run_matches_golden_hashes(tmp_path, monkeypatch, config, golden):
    """Without a trace the engine may skip work that only the trace reads;
    every file it still writes keeps the traced run's bytes."""
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    path = _write_config(tmp_path, {**config, "emit_trace": False})
    assert cli.main(["run", "--config", path]) == 0
    assert _digests(out) == {k: v for k, v in golden.items() if not k.startswith("trace_")}


def test_theory_outputs_match_golden_hashes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    argv = ["theory", "--config", _write_config(tmp_path, SMALL)]
    assert cli.main(argv + ["--checks", "recursion,fisher_equiv"]) == 0
    assert capsys.readouterr().out == GOLDEN_THEORY_STDOUT
    assert _digests(out) == GOLDEN_THEORY


def test_theory_makes_one_generator_per_trial(tmp_path, monkeypatch, default_rng_calls):
    # Several hash chunks per Monte-Carlo chunk.
    monkeypatch.setattr(seeding, "_CHUNK", 64)
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    assert cli.main(["theory", "--config", _write_config(tmp_path, SMALL_THEORY)]) == 3
    t = SMALL_THEORY["theory"]
    trials = t["trials"] + 2 * t["ensemble_trials"] + t["chebyshev_trials"]
    # One trial per Fisher case, and the recursion check's gradients and start.
    assert len(default_rng_calls) == trials + 3 + 2 == 1005
    assert _digests(out) == GOLDEN_SMALL_THEORY


def test_default_tau_matches_golden_bits(context):
    # The default config's threshold, 3.2386990788423393, to the bit.
    assert context.tau.hex() == "0x1.9e8db1009b494p+1"
