"""The ``rtta`` command line: exit codes and byte-reproducible outputs."""

import csv
import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml

import reservoir_tta
from reservoir_tta import cli, theory

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
        pytest.param({"output_dir": ""}, "output_dir: must be nonempty", id="output_dir-empty"),
        # A lone surrogate cannot be encoded into a path: os.mkdir would raise.
        pytest.param(
            {"output_dir": "o\ud800"}, "output_dir: must be encodable as UTF-8",
            id="output_dir-lone-surrogate",
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
            {"scenario": {"visits": 0}}, "scenario.visits: must be >= 1", id="visits-zero",
        ),
        pytest.param(
            {"scenario": {"visits": -1}}, "scenario.visits: must be >= 1",
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
        # Every broken rule of every section is listed in one error, in the
        # file's key order (safe_dump sorts the keys: clustering first).
        pytest.param(
            {
                "scenario": {"domains": 0, "severity": -1},
                "clustering": {"reservoir_size": 0},
            },
            "clustering.reservoir_size: must be >= 1; "
            "scenario.domains: must be >= 1; scenario.severity: must be finite and >= 0",
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
        # ensemble_var.csv has no alpha column: two walks of one alpha would
        # write two blocks that cannot be told apart.
        pytest.param(
            {"theory": {"ensemble_alphas": [0.9, 0.99, 0.9]}},
            "theory.ensemble_alphas: entries must be unique",
            id="ensemble_alphas-repeated",
        ),
        # A method name is part of every output file name, which must fit in
        # 255 bytes: it would fail only after the first episode.
        pytest.param(
            {"methods": [{"name": "a" * 228}]},
            "methods[0].name: must be at most 227 bytes in UTF-8",
            id="name-228-bytes",
        ),
        pytest.param(
            {"methods": [{"name": "\u00e9" * 114}]},
            "methods[0].name: must be at most 227 bytes in UTF-8",
            id="name-114-two-byte-chars",
        ),
        pytest.param(
            {"methods": [{"name": "a\ud800"}]}, "methods[0].name: must be encodable as UTF-8",
            id="name-lone-surrogate",
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


@pytest.mark.parametrize("command", [["run"], ["theory", "--checks", "recursion"]])
def test_empty_output_dir_variable_exits_1(tmp_path, monkeypatch, capsys, command):
    # An empty directory would be the current one: nothing may be written.
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("RTTA_OUTPUT_DIR", "")
    path = _write_config(tmp_path, SMALL)
    assert cli.main([*command, "--config", path]) == 1
    err = capsys.readouterr().err
    assert "configuration error" in err
    assert "RTTA_OUTPUT_DIR: must be nonempty" in err
    assert [p.name for p in tmp_path.iterdir()] == ["config.yaml"]


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
    # 100 ensemble trials over 20 steps miss the closed form by ~22 %,
    # far outside the 5 % tolerance; the trials are seeded, so this fails
    # the same way on every run.
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    path = _write_config(tmp_path, {"theory": {"ensemble_trials": 100, "steps": 20}})
    assert cli.main(["theory", "--config", path, "--checks", "ensemble_var"]) == 3
    captured = capsys.readouterr()
    assert "[FAIL] ensemble_var" in captured.out
    assert "verification failure in ensemble_var" in captured.err
    assert (tmp_path / "out" / "ensemble_var.csv").exists()


def test_out_of_memory_exits_1(tmp_path, monkeypatch, capsys):
    # A config whose arrays cannot be allocated, such as 10**9 Chebyshev
    # steps, ends in numpy's MemoryError; none is allocated here.
    def too_large(*args):
        raise MemoryError("Unable to allocate 29.8 GiB for an array")

    monkeypatch.setattr(theory, "check_chebyshev", too_large)
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    path = _write_config(tmp_path, {"theory": {"chebyshev_steps": 10**9}})
    assert cli.main(["theory", "--config", path, "--checks", "chebyshev"]) == 1
    err = capsys.readouterr().err
    assert err == "error: out of memory: Unable to allocate 29.8 GiB for an array\n"


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


def test_longest_method_name_writes_every_file(tmp_path, monkeypatch):
    # 227 bytes is the longest name whose summary file name, with the
    # longest seed, fits in 255 bytes.
    name = "a" * 227
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    data = {**SMALL, "methods": [{"name": name}]}
    path = _write_config(tmp_path, data)
    assert cli.main(["run", "--config", path, "--seeds", "4294967295"]) == 0
    files = sorted(p.name for p in out.iterdir())
    assert files == [
        "aggregate.json",
        f"metrics_{name}_seed4294967295.csv",
        f"summary_{name}_seed4294967295.json",
        f"trace_{name}_seed4294967295.jsonl",
    ]
    assert max(len(f) for f in files) == 255


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
    "metrics_reservoir_eata_seed1.csv": "82c2c2afecb93198b4ef474003756699118d19f3b2753de245a8fd2b1bb05e17",
    "metrics_reservoir_eata_seed2.csv": "f500e067838e293a990716a3f9fd31412eecab1510eaf4830eafe1c6ddc5989e",
    "metrics_tent_seed1.csv": "9ef84068d1d2498a7afc43638a20d308c4d7ffd7a442c167447e475391ba542c",
    "metrics_tent_seed2.csv": "75ec1bfdd5c1bdb153b55efbe522043b7707be15956779ba8010a41053fe5d7d",
    "summary_reservoir_eata_seed1.json": "049c8fe5445816c077fc77401cf6769ee787193ea974137a90821fcb8ac7dbc8",
    "summary_reservoir_eata_seed2.json": "f6bff64936b68d35e97b42124bdf9a7cd6a296f5f2785150772012cb0afcc4be",
    "summary_tent_seed1.json": "592fdc01675aa101c1be2c4f47652826a71661a0b4ad7a5cba652978c8f267a6",
    "summary_tent_seed2.json": "eb73fc13a3651d44858f11fbe4215a10a8eb324d3910776fecd51707e396040d",
    "trace_reservoir_eata_seed1.jsonl": "c437cfd92063380bc04060363c03786e5f0062e8c938e9e444dc9ab293ec2e3a",
    "trace_reservoir_eata_seed2.jsonl": "f28e940234a4f9fbe231d138f45153118cb3ee7f615fe04499883b9d655394e2",
    "trace_tent_seed1.jsonl": "3c295dd4cb44f3cd090a683a90a8edf61c1bc4ed4509ad9946ae353446002cc0",
    "trace_tent_seed2.jsonl": "49a822520a32a036f59026804851d24708faa09515a25fc959e177f5cbea7dcb",
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
    "metrics_tent_seed1.csv": "27146025af1780c1a39d1b04cfd6bdaceb49e4a57c50af6bba518c67140330fa",
    "metrics_tent_seed2.csv": "fcbb92c2e03bc0bf2fe517511b3df0d21744cf0f1b641aeaded298d9d695f26e",
    "summary_tent_seed1.json": "790145dd79fb20534230ba648c7165937a79f74a3af4e22eb5ffc4954c073cb1",
    "summary_tent_seed2.json": "684fdddb8fe6caa34280cd1306bcc7871c686b370aadceef9f0a098a16f3607b",
    "trace_tent_seed1.jsonl": "7cb753657f17bb84f2956761aef20d7e5f236e97b026a0e97cd0f492434bed5f",
    "trace_tent_seed2.jsonl": "0bff974bd9c4cc89f71adf1279b372a075651140efa68c57784f02f7d6fbeb3a",
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
    "metrics_eata_seed1.csv": "a0405348d437371d482fba27c1b483d47813492aec50843acc7a0db52a7dd9a3",
    "metrics_eata_seed2.csv": "f0f9475ae2b0944e9268fa74604a4c51cb4636cc50a4d621dca7dc7c9fe9e09a",
    "metrics_ensemble_seed1.csv": "c7de8980f66e4b896344f2deea967767a065f1a13f021ad7373d6e8b4d148e90",
    "metrics_ensemble_seed2.csv": "9c130bf8598a50e2b3857ae3b83dfeb160a74176d09266511dbbbe58f0e6dc0d",
    "metrics_fisher_seed1.csv": "da9f87d506f45d756347541b94e50390793d17a93417f5eda5ee76a6e96aa115",
    "metrics_fisher_seed2.csv": "b545a4882fa30173fa1d9efca634dd915770b75752481e53fe39f3a38da7054c",
    "metrics_reservoir_ensemble_seed1.csv": "28a97de877a0bcb164738dc7b7d6d935efd4f749c40085811135a4d5019be98e",
    "metrics_reservoir_ensemble_seed2.csv": "70cd9b5e3304840b52703e081444fa2bd19e31e0b5d1a8dd24af8a57f4fa8d89",
    "summary_eata_seed1.json": "52cb623810ae4c5370dbd64e883848751f92c37b0d6556511ebedae60145872c",
    "summary_eata_seed2.json": "474b3dfccc88e11124cb1e7f360c0e5208b444b6d3398528be81946833b6b10d",
    "summary_ensemble_seed1.json": "69bcbd02e940baf58c547b95702a85603aa8b99634bf1c438033d47637793c4d",
    "summary_ensemble_seed2.json": "9f93460f888fc3f90c1a2824667242ddc135d7c7369b9d524db3fe8eed2a98b5",
    "summary_fisher_seed1.json": "9c0a4d537d3ed9170c70c63f989e5a67cf9f3adc72d27d33b8eb72ced2b24158",
    "summary_fisher_seed2.json": "2b97a7fbbda7af6f1966a01e39ec1a321ac7745c0875ee6794ed95b8fcd07392",
    "summary_reservoir_ensemble_seed1.json": "5da2ba75506e7e1df410d88fef0cdfeee3969372809510b3396d44c2bb1e0824",
    "summary_reservoir_ensemble_seed2.json": "2f87b23e82ae88e01d6c7bf1c6f2aeaa74a7ddb6da130c1d7bbe802c9a22a24c",
    "trace_eata_seed1.jsonl": "b08147db78561ef9c6cfcaa71eaf62567951a76cb686981bd118d8b21ec6c979",
    "trace_eata_seed2.jsonl": "9ae1f10eb2e5f4c7f29eb8dc6b9f4d7fa49e813712ad52c5743b0d2fafb2cd2c",
    "trace_ensemble_seed1.jsonl": "b08147db78561ef9c6cfcaa71eaf62567951a76cb686981bd118d8b21ec6c979",
    "trace_ensemble_seed2.jsonl": "9ae1f10eb2e5f4c7f29eb8dc6b9f4d7fa49e813712ad52c5743b0d2fafb2cd2c",
    "trace_fisher_seed1.jsonl": "b08147db78561ef9c6cfcaa71eaf62567951a76cb686981bd118d8b21ec6c979",
    "trace_fisher_seed2.jsonl": "9ae1f10eb2e5f4c7f29eb8dc6b9f4d7fa49e813712ad52c5743b0d2fafb2cd2c",
    "trace_reservoir_ensemble_seed1.jsonl": "1e15d6d697cca4fc928f82ca88d713a7bcfc2228fddce6afef7890d163363ea1",
    "trace_reservoir_ensemble_seed2.jsonl": "7acb89e333b6b0efcd4cf7b1cb7d4a2e0c9ea0aaeb9611ef8f94c634da70e8b3",
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
# counts are too small for ensemble_var's tolerance, so it exits 3; the
# digests pin the Monte-Carlo bits, not the verdicts. The Monte-Carlo files
# and verdicts (sgd_var, ensemble_var, chebyshev) changed when each chunk of
# trials came to draw from one generator keyed (seed, chunk, tag); recursion
# and fisher_equiv kept their bits.
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
    "chebyshev.csv": "87638481a3a83208a5fee65fcd76e59b747b4a6a293e85eb4a76d7570ae62410",
    "ensemble_var.csv": "6440b036b06761d7b59933758087ef1746ee721cdef6a4500ec03ef3ab9082a6",
    "fisher_equiv.csv": "4dbfdcb2b3e6b12a94db2c55519c22acda5b4f1ec97eb3038850d6f29b69f482",
    "recursion.csv": "32ac126efa76c136f4edbdb2a3a18e7a3301e2ce6a9adce9ab8ec073d1271524",
    "sgd_var.csv": "21d565616ced01e046ff6481d0b7d937ca7c9ea7f534dd89fcb6b5eafb9399b2",
}
GOLDEN_SMALL_THEORY_STDOUT = (
    "[PASS] sgd_var: slope 0.0104272 vs eta^2*vbar 0.01 (tolerance 10%), "
    "R^2 0.996312 (> 0.99 required)\n"
    "[FAIL] ensemble_var: max relative deviation 18.5956% (<= 5% required), "
    "asymptotic bound respected\n"
    "[PASS] recursion: max discrepancy 1.554e-15 (< 1e-10 required)\n"
    "[PASS] fisher_equiv: max trajectory discrepancy 2.220e-16 (< 1e-10 required)\n"
    "[PASS] chebyshev: max (rate - bound - slack) 0.000e+00 (<= 0 required at 3-sigma slack)\n"
)


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


def test_run_loads_no_scipy(tmp_path):
    """scipy is the tests' oracle only: a fresh interpreter that imports the
    CLI and runs a CCC episode, whose every blend builds a rotation, has
    loaded no scipy module."""
    path = _write_config(tmp_path, SMALL_CCC_TENT)
    code = (
        "import sys\n"
        "import reservoir_tta.cli\n"
        f"assert reservoir_tta.cli.main(['run', '--config', {path!r}]) == 0\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
    )
    src = str(Path(reservoir_tta.__file__).parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "RTTA_OUTPUT_DIR": str(tmp_path / "out"),
    }
    result = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.splitlines()[-1] == "[]"
    assert (tmp_path / "out" / "metrics_tent_seed1.csv").is_file()


def test_theory_outputs_match_golden_hashes(tmp_path, monkeypatch, capsys):
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    argv = ["theory", "--config", _write_config(tmp_path, SMALL)]
    assert cli.main(argv + ["--checks", "recursion,fisher_equiv"]) == 0
    assert capsys.readouterr().out == GOLDEN_THEORY_STDOUT
    assert _digests(out) == GOLDEN_THEORY


def test_theory_makes_one_generator_per_chunk(
    tmp_path, monkeypatch, capsys, default_rng_calls
):
    out = tmp_path / "out"
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(out))
    assert cli.main(["theory", "--config", _write_config(tmp_path, SMALL_THEORY)]) == 3
    # SMALL_THEORY's trials fit one chunk per Monte-Carlo check (both
    # ensemble alphas step on one draw); then one trial per Fisher case, and
    # the recursion check's gradients and start.
    assert len(default_rng_calls) == 3 + 3 + 2
    assert _digests(out) == GOLDEN_SMALL_THEORY
    assert capsys.readouterr().out == GOLDEN_SMALL_THEORY_STDOUT


def test_theory_checks_share_no_key(tmp_path, monkeypatch, default_rng_calls):
    """No two checks of ``rtta theory`` draw from one key, and no two keys
    give one stream. ``SeedSequence`` pads a key with zero words, so keys
    are compared without their trailing zeros. A key may repeat within a
    check: the Fisher cases step on one trajectory's noise."""
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    path = _write_config(tmp_path, SMALL_THEORY)
    streams = []
    for name in cli.THEORY_CHECKS:
        cli.main(["theory", "--config", path, "--checks", name])
        keys = set()
        for args in default_rng_calls:
            (key,) = args
            assert isinstance(key, np.ndarray) and key.dtype == np.uint32
            keys.add(tuple(np.trim_zeros(key, "b").tolist()))
        default_rng_calls.clear()
        streams += keys
    # One chunk each for sgd_var, ensemble_var and chebyshev, two for
    # recursion and one for fisher_equiv.
    assert len(streams) == 3 + 2 + 1
    assert len(set(streams)) == len(streams)


# The draw sites of ``rtta run`` that share a key, as ``module.function``.
_BLOB, _SAMPLE = "stream.make_blob", "stream.make_source_dataset"
_EXTRACTOR, _CLASSIFIER = "style.FeatureExtractor.__init__", "tta.AdaptableClassifier.__init__"
_CALIBRATION, _FISHER = "config.calibration_styles", "config.build_context"
_POOL, _CANDIDATES = "stream.make_domains", "stream.domain_style_mean"
_ORDER, _STREAM = "stream.ScenarioPlan.visit_order", "stream.DomainStream.__init__"
_RESERVOIR = "stream.run_episode"
# Every key (trailing zeros trimmed) that two draw sites share in a run at
# seeds 1, 2, 7, 11 and 23, with its sites. ROADMAP item 16 names each group;
# its re-key empties these tables. SOURCE_SEED seeds both the source blob
# and the classifier as the key (7,). A run seed equal to a set-up seed (7,
# 11, 23) draws the stream batch (domain 0, slot 0), key (seed, 0, 0, 0),
# from that seed's one-word or attempt-0 key, and at seed 7 the style
# reservoir, key (7, 1), from the source sample's.
_SHARED_CSC_KEYS = {
    (7,): {_BLOB, _CLASSIFIER, _STREAM},
    (7, 1): {_SAMPLE, _RESERVOIR},
    (11,): {_EXTRACTOR, _STREAM},
    (23,): {_POOL, _STREAM},
}
# CDC and CCC also draw visit v's order from (seed, v): visit 0 shares the
# stream batch (0, 0), visit 1 the style reservoir, and at seed 11 and 23
# visits 10, 11 and 2 share the first calibration, Fisher and candidate batch.
_SHARED_ORDER_KEYS = {
    (1,): {_ORDER, _STREAM},
    (1, 1): {_ORDER, _RESERVOIR},
    (2,): {_ORDER, _STREAM},
    (2, 1): {_ORDER, _RESERVOIR},
    (7,): {_BLOB, _CLASSIFIER, _ORDER, _STREAM},
    (7, 1): {_SAMPLE, _ORDER, _RESERVOIR},
    (11,): {_EXTRACTOR, _ORDER, _STREAM},
    (11, 1): {_ORDER, _RESERVOIR},
    (11, 10): {_CALIBRATION, _ORDER},
    (11, 11): {_FISHER, _ORDER},
    (23,): {_POOL, _ORDER, _STREAM},
    (23, 1): {_ORDER, _RESERVOIR},
    (23, 2): {_CANDIDATES, _ORDER},
}


@pytest.mark.skipif(sys.version_info < (3, 11), reason="a site's name is its co_qualname")
@pytest.mark.parametrize(
    "kind, shared",
    [("csc", _SHARED_CSC_KEYS), ("cdc", _SHARED_ORDER_KEYS), ("ccc", _SHARED_ORDER_KEYS)],
    ids=["csc", "cdc", "ccc"],
)
def test_run_key_collisions_are_the_known_ones(tmp_path, monkeypatch, kind, shared):
    """The keys that two draw sites of ``rtta run`` share, compared as in
    ``test_theory_checks_share_no_key``, are the known ones. A site is the
    function that calls ``keyed_rng``; a key may repeat within a site."""
    sites = {}
    default_rng = np.random.default_rng

    def recording(key):
        assert sys._getframe(1).f_globals["__name__"] == "reservoir_tta.seeding"
        caller = sys._getframe(2)
        module = caller.f_globals["__name__"].rsplit(".", 1)[-1]
        site = f"{module}.{caller.f_code.co_qualname.split('.<locals>')[0]}"
        trimmed = tuple(np.trim_zeros(key, "b").tolist())
        sites.setdefault(trimmed, set()).add(site)
        return default_rng(key)

    monkeypatch.setattr(np.random, "default_rng", recording)
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    data = {
        "seeds": [1, 2, 7, 11, 23],
        "source": {"samples_per_class": 20, "epochs": 1},
        "style": {"calibration_styles": 20, "fisher_batches": 2},
        "scenario": {
            "kind": kind, "domains": 2, "visits": 12, "batches_per_domain": 1, "batch_size": 8
        },
        "methods": [{"name": "tent", "kind": "entropy"}],
    }
    assert cli.main(["run", "--config", _write_config(tmp_path, data)]) == 0
    assert {key: s for key, s in sites.items() if len(s) > 1} == shared


def test_default_tau_matches_golden_bits(context):
    # The default config's threshold, 3.2386990788423393, to the bit.
    assert context.tau.hex() == "0x1.9e8db1009b494p+1"
