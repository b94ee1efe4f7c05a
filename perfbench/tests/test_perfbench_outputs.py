"""Output checks, domain purity and the digest check of the benchmark."""

import csv
import json

import pytest

import outputs
import run
from reservoir_tta import cli

PURITY_CSV = """\
step,visit,true_domain,assigned_model,error,detected_domains,drift_norm
0,0,0,1,0.1,1,0.0
1,0,0,1,0.2,1,0.0
2,0,0,1,0.1,1,0.0
3,0,0,0,0.3,1,0.0
4,0,1,2,0.1,2,0.0
5,0,1,2,0.1,2,0.0
6,1,2,3,0.1,3,0.0
7,1,2,0,0.1,3,0.0
8,1,0,1,0.1,3,0.0
9,1,1,0,0.1,3,0.0
"""


def read_rows(text):
    return list(csv.DictReader(text.splitlines()))


def test_domain_purity_from_hand_written_csv():
    # Majorities: domain 0 -> model 1 (4 of 5), domain 1 -> model 2 (2 of 3),
    # domain 2 -> tie between 3 and 0, won by the lower index 0.
    assert outputs.domain_purity(read_rows(PURITY_CSV)) == pytest.approx(7 / 10)


def test_domain_purity_of_a_single_model_is_one():
    rows = [{"true_domain": str(d), "assigned_model": "0"} for d in (0, 1, 1, 2)]
    assert outputs.domain_purity(rows) == 1.0


def write_run_outputs(directory, error="0.25"):
    directory.mkdir()
    header = PURITY_CSV.splitlines()[0]
    text = f"{header}\n0,0,0,1,0.1,1,0.0\n1,0,0,1,{error},1,0.0\n"
    (directory / "metrics_m_seed4.csv").write_text(text, encoding="utf-8")
    mean = (0.1 + float(error)) / 2
    summary = {"method": "m", "seed": 4, "mean_error": mean}
    (directory / "summary_m_seed4.json").write_text(json.dumps(summary), encoding="utf-8")
    aggregate = {"seeds": [4], "methods": {"m": {"per_seed_mean_error": [mean]}}}
    (directory / "aggregate.json").write_text(json.dumps(aggregate), encoding="utf-8")


def test_check_run_reads_mean_error_and_purity(tmp_path):
    write_run_outputs(tmp_path / "out")
    figures = outputs.check_run(tmp_path / "out", "m", 4, total_steps=2)
    assert figures == {"mean_error": pytest.approx(0.175), "domain_purity": 1.0}


def test_check_run_rejects_bad_outputs(tmp_path):
    write_run_outputs(tmp_path / "short")
    with pytest.raises(outputs.OutputError, match="steps"):
        outputs.check_run(tmp_path / "short", "m", 4, total_steps=3)
    write_run_outputs(tmp_path / "extra")
    (tmp_path / "extra" / "stray.txt").write_text("x", encoding="utf-8")
    with pytest.raises(outputs.OutputError, match="emitted files"):
        outputs.check_run(tmp_path / "extra", "m", 4, total_steps=2)
    write_run_outputs(tmp_path / "nan", error="nan")
    with pytest.raises(outputs.OutputError, match="non-finite"):
        outputs.check_run(tmp_path / "nan", "m", 4, total_steps=2)


def test_check_theory_on_a_small_suite(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "small.yaml"
    cfg.write_text(
        "theory: {steps: 10, trials: 200, ensemble_trials: 400, recursion_steps: 20,"
        " fisher_steps: 10, chebyshev_steps: 10, chebyshev_trials: 200}\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    cli.main(["theory", "--config", str(cfg)])
    figures = outputs.check_theory(tmp_path / "out", capsys.readouterr().out)
    assert 0.0 < figures["mean_error"] < 1.0
    assert 0.0 <= figures["domain_purity"] <= 1.0


def test_digest_flags_a_changed_file(tmp_path):
    (tmp_path / "a.csv").write_text("1,2\n", encoding="utf-8")
    (tmp_path / "b.json").write_text("{}\n", encoding="utf-8")
    before = outputs.digest(tmp_path)
    assert outputs.digest(tmp_path) == before
    (tmp_path / "a.csv").write_text("1,3\n", encoding="utf-8")
    assert outputs.digest(tmp_path) != before


def test_digest_check_fails_the_differing_invocation(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORK", tmp_path)
    config = tmp_path / "w.yaml"
    config.write_text("seeds: [1]\n", encoding="utf-8")
    wl = run.Workload("w", "run", config, [])
    first = [run.Invocation(mode="plain", digest="aa"), run.Invocation(mode="plain", digest="bb")]
    run._check_digests(wl, 1, first)
    assert first[0].error is None
    assert "digest" in first[1].error
    # A later run of the same (workload, seed, source, config) is held to the record.
    later = [run.Invocation(mode="traced", digest="bb")]
    run._check_digests(wl, 1, later)
    assert "digest" in later[0].error
    other_seed = [run.Invocation(mode="traced", digest="bb")]
    run._check_digests(wl, 2, other_seed)
    assert other_seed[0].error is None
    # A changed workload config starts a new record.
    config.write_text("seeds: [2]\n", encoding="utf-8")
    changed = [run.Invocation(mode="plain", digest="bb")]
    run._check_digests(wl, 1, changed)
    assert changed[0].error is None


def test_workload_configs_load_through_the_package_loader():
    csc = run.load_workload("csc_reservoir", 5)
    assert csc.rtta_args[-2:] == ["--seeds", "5"]
    assert (csc.method, csc.total_steps) == ("reservoir_eata", 1200)
    ccc = run.load_workload("ccc_tent", 5)
    assert (ccc.method, ccc.total_steps) == ("tent", 1200)
    assert run.load_workload("theory", 5).rtta_args[0] == "theory"
