"""Checks of the files one ``rtta`` invocation emits, and the figures read from them.

``check_run`` and ``check_theory`` raise ``OutputError`` on the first
problem: a missing or extra file, a file that does not parse, a non-finite
number, or numbers that disagree with each other.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
from collections import Counter
from pathlib import Path

RUN_COLUMNS = ["step", "visit", "true_domain", "assigned_model", "error",
               "detected_domains", "drift_norm"]
THEORY_COLUMNS = ["t", "empirical_var", "closed_form_var", "bound", "empirical_rate",
                  "discrepancy"]
THEORY_CHECKS = ("sgd_var", "ensemble_var", "recursion", "fisher_equiv", "chebyshev")


class OutputError(ValueError):
    """An emitted file is missing, malformed or inconsistent."""


def digest(directory: Path) -> str:
    """sha256 over the sorted relative names and bytes of every file."""
    h = hashlib.sha256()
    for path in sorted(p for p in directory.rglob("*") if p.is_file()):
        h.update(path.relative_to(directory).as_posix().encode() + b"\0")
        h.update(path.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def _finite(value: float, where: str) -> float:
    if not math.isfinite(value):
        raise OutputError(f"{where}: non-finite value {value!r}")
    return value


def _read_csv(path: Path, columns: list[str]) -> list[dict]:
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.DictReader(fh)
            rows = list(reader)
    except (OSError, csv.Error, UnicodeDecodeError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc
    if reader.fieldnames != columns:
        raise OutputError(f"{path.name}: header {reader.fieldnames} != {columns}")
    return rows


def _read_json(path: Path):
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise OutputError(f"{path.name}: {exc}") from exc


def _expect_files(directory: Path, names: set[str]) -> None:
    present = {p.name for p in directory.iterdir()} if directory.is_dir() else set()
    if present != names:
        raise OutputError(f"emitted files {sorted(present)} != expected {sorted(names)}")


def domain_purity(rows: list[dict]) -> float:
    """Share of steps whose model is the majority model of their true domain.

    Ties for the majority go to the lowest model index.
    """
    if not rows:
        raise OutputError("no steps to score")
    by_domain: dict[int, Counter] = {}
    for row in rows:
        by_domain.setdefault(int(row["true_domain"]), Counter())[int(row["assigned_model"])] += 1
    majority = {d: min(c, key=lambda m: (-c[m], m)) for d, c in by_domain.items()}
    hits = sum(int(row["assigned_model"]) == majority[int(row["true_domain"])] for row in rows)
    return hits / len(rows)


def check_run(directory: Path, method: str, seed: int, total_steps: int) -> dict[str, float]:
    """Validate one ``rtta run`` output directory; returns mean_error and domain_purity."""
    csv_name = f"metrics_{method}_seed{seed}.csv"
    summary_name = f"summary_{method}_seed{seed}.json"
    _expect_files(directory, {csv_name, summary_name, "aggregate.json"})

    rows = _read_csv(directory / csv_name, RUN_COLUMNS)
    if [int(r["step"]) for r in rows] != list(range(total_steps)):
        raise OutputError(f"{csv_name}: steps are not 0..{total_steps - 1}")
    errors = []
    for r in rows:
        where = f"{csv_name} step {r['step']}"
        errors.append(_finite(float(r["error"]), where))
        _finite(float(r["drift_norm"]), where)
    csv_mean = math.fsum(errors) / len(errors)

    summary = _read_json(directory / summary_name)
    if summary.get("method") != method or summary.get("seed") != seed:
        raise OutputError(f"{summary_name}: method/seed mismatch")
    mean_error = summary.get("mean_error")
    if not isinstance(mean_error, float) or not math.isfinite(mean_error):
        raise OutputError(f"{summary_name}: mean_error {mean_error!r} is not a finite number")
    if abs(mean_error - csv_mean) > 1e-12:
        raise OutputError(f"{summary_name}: mean_error {mean_error} != CSV mean {csv_mean}")

    aggregate = _read_json(directory / "aggregate.json")
    per_seed = aggregate.get("methods", {}).get(method, {}).get("per_seed_mean_error")
    if aggregate.get("seeds") != [seed] or per_seed != [mean_error]:
        raise OutputError("aggregate.json disagrees with the summary")
    return {"mean_error": mean_error, "domain_purity": domain_purity(rows)}


def check_theory(directory: Path, stdout: str) -> dict[str, float]:
    """Validate one ``rtta theory`` output directory.

    Returns ``mean_error``, the mean relative deviation of the empirical
    variance curves from their closed forms (sgd_var and ensemble_var rows
    with t >= 1), and ``domain_purity``, the share of checks that passed.
    """
    _expect_files(directory, {f"{name}.csv" for name in THEORY_CHECKS})
    deviations = []
    for name in THEORY_CHECKS:
        rows = _read_csv(directory / f"{name}.csv", THEORY_COLUMNS)
        if not rows:
            raise OutputError(f"{name}.csv has no rows")
        for i, row in enumerate(rows):
            for key, text in row.items():
                if text != "":
                    _finite(float(text), f"{name}.csv row {i} {key}")
            if name in ("sgd_var", "ensemble_var") and int(row["t"]) >= 1:
                closed = float(row["closed_form_var"])
                deviations.append(abs(float(row["empirical_var"]) - closed) / closed)
    passed = sum(line.startswith("[PASS]") for line in stdout.splitlines())
    return {
        "mean_error": math.fsum(deviations) / len(deviations),
        "domain_purity": passed / len(THEORY_CHECKS),
    }
