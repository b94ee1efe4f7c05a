"""The ``rtta`` command line: exit codes and byte-reproducible outputs."""

import pytest
import yaml

from reservoir_tta import cli

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
    "data",
    [
        {"seeds": 3},
        {"seeds": ["a"]},
        {"methods": 5},
        {"clustering": {"k_max": None}},
        {"scenario": {"domains": 2.5}},
        {"source": {"classes": "x"}},
        {"methods": [{"name": "m", "lr": "x"}]},
        {"emit_trace": "no"},
        {"scenario": {"visits": -1}},
        {"nonsense": 1},
    ],
    ids=[
        "seeds-int", "seeds-str", "methods-int", "k_max-null", "domains-float",
        "classes-str", "lr-str", "emit_trace-str", "visits-negative", "unknown",
    ],
)
def test_bad_config_exits_1(tmp_path, monkeypatch, capsys, data):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    assert cli.main(["run", "--config", _write_config(tmp_path, data)]) == 1
    assert "configuration error" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("seeds", ["1,x", ",", "-1", "2,-3"])
def test_bad_seed_override_exits_1(tmp_path, monkeypatch, seeds):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    path = _write_config(tmp_path, SMALL)
    assert cli.main(["run", "--config", path, f"--seeds={seeds}"]) == 1


def test_missing_config_exits_2(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    assert cli.main(["run", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert "I/O error" in capsys.readouterr().err


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
