"""Command-line front end.

Subcommands: ``run`` (episodes over seeds, metrics CSV + summary JSON per
seed plus a cross-seed aggregate; with ``emit_trace`` also a per-step JSONL
trace, written from the episode's metrics after the episode, so a failed
episode leaves no trace file) and ``theory`` (the verification suite with
per-check CSVs). ``run`` calibrates the new-domain threshold itself.

Exit codes: 0 success, 1 configuration error (a bad value or argument, a
usage error such as an unknown subcommand or option, or a config file that
is not UTF-8 YAML or repeats a key), 2 I/O error (a file that cannot be
opened or written), 3 verification failure. Every argument is checked before
the output directory is created. All emitted files are byte-reproducible for
a fixed config.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from . import stream, theory
from .config import RunConfig, build_context, default_config, load_config
from .errors import ConfigurationError, ReservoirTTAError
from .seeding import keyed_rng

THEORY_CHECKS = ("sgd_var", "ensemble_var", "recursion", "fisher_equiv", "chebyshev")
_CSV_COLUMNS = ("t", "empirical_var", "closed_form_var", "bound", "empirical_rate", "discrepancy")
# Step size and seed of every theory check.
THEORY_ETA = 0.1
THEORY_SEED = 101


def main(argv: list[str] | None = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        cfg = load_config(args.config) if args.config is not None else default_config()
        # Every argument is checked before the output directory is created.
        if args.command == "run":
            if args.seeds is not None:
                cfg = replace(cfg, seeds=_parse_seeds(args.seeds))
            return cmd_run(cfg, _output_dir(cfg))
        checks = _parse_checks(args.checks)
        return cmd_theory(cfg, _output_dir(cfg), checks)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return 2
    except ReservoirTTAError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors raise ``ConfigurationError``, so
    they exit 1 like every other bad argument. ``--help`` still exits 0."""

    def error(self, message: str):
        raise ConfigurationError(f"{self.prog}: {message}")


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="rtta",
        description="Domain-aware test-time adaptation simulator and theory checks",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run adaptation episodes over seeds")
    p_run.add_argument("--config", help="YAML config path (defaults if omitted)")
    p_run.add_argument("--seeds", help="comma-separated seed list override")

    p_th = sub.add_parser("theory", help="run the theory verification suite")
    p_th.add_argument("--config")
    p_th.add_argument(
        "--checks",
        default="all",
        help=f"'all', '', or comma-separated subset of {','.join(THEORY_CHECKS)}",
    )
    return parser


def _output_dir(cfg: RunConfig) -> Path:
    out = os.environ.get("RTTA_OUTPUT_DIR", cfg.output_dir)
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _split_list(text: str, what: str) -> tuple[str, ...]:
    """The stripped tokens of a comma list; an empty token is an error."""
    tokens = tuple(tok.strip() for tok in text.split(","))
    if "" in tokens:
        raise ConfigurationError(f"{what}: empty entry in {text!r}")
    return tokens


def _parse_seeds(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(tok) for tok in _split_list(text, "seeds"))
    except ValueError:
        raise ConfigurationError(f"unparseable seed list {text!r}")


def _parse_checks(text: str) -> tuple[str, ...]:
    if text.strip() == "":
        return ()
    if text.strip() == "all":
        return THEORY_CHECKS
    names = _split_list(text, "checks")
    for name in names:
        if name not in THEORY_CHECKS:
            raise ConfigurationError(
                f"unknown theory check {name!r} (choose from {THEORY_CHECKS})"
            )
    if len(set(names)) != len(names):
        raise ConfigurationError(f"checks: repeated name in {text!r}")
    return names


def _write_json(path: Path, payload) -> None:
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n", encoding="utf-8")


# ---------------------------------------------------------------------------
# run


def cmd_run(cfg: RunConfig, out_dir: Path) -> int:
    context = build_context(cfg)
    # Per method, one entry per seed: only what aggregate.json needs is kept.
    visit_errors: dict[str, list[np.ndarray]] = {m.name: [] for m in cfg.methods}
    mean_errors: dict[str, list[float | None]] = {m.name: [] for m in cfg.methods}
    for seed in cfg.seeds:
        for method in cfg.methods:
            metrics = stream.run_episode(context, method, seed, trace=cfg.emit_trace)
            if cfg.emit_trace:
                _write_trace(out_dir / f"trace_{method.name}_seed{seed}.jsonl", metrics)
            _write_metrics_csv(out_dir / f"metrics_{method.name}_seed{seed}.csv", metrics)
            visit_error = metrics.per_visit_error()
            summary = {
                "method": method.name,
                "seed": seed,
                "mean_error": _clean(metrics.per_batch_error.mean()) if metrics.step_count else None,
                "per_visit_error": [_clean(v) for v in visit_error],
                "per_visit_domain_error": _nested(metrics.per_visit_domain_error()),
                "final_detected_domains": int(metrics.detected_domains[-1]) if metrics.step_count else 0,
            }
            _write_json(out_dir / f"summary_{method.name}_seed{seed}.json", summary)
            visit_errors[method.name].append(visit_error)
            mean_errors[method.name].append(summary["mean_error"])

    aggregate = {"seeds": list(cfg.seeds), "methods": {}}
    for name, tables in visit_errors.items():
        stacked = np.stack(tables) if tables[0].size else np.empty((len(tables), 0))
        aggregate["methods"][name] = {
            "per_visit_mean": [_clean(v) for v in stacked.mean(axis=0)] if stacked.size else [],
            "per_visit_std": [_clean(v) for v in stacked.std(axis=0)] if stacked.size else [],
            "per_seed_mean_error": mean_errors[name],
        }
    _write_json(out_dir / "aggregate.json", aggregate)
    print(f"wrote {len(cfg.seeds)} seed(s) x {len(cfg.methods)} method(s) to {out_dir}")
    return 0


def _write_trace(path: Path, metrics: stream.EpisodeMetrics) -> None:
    """One JSON line per step of a traced episode. A step's decision is
    ``new_domain`` when its centroid count grew; the count is 1 before step 0."""
    counts = metrics.detected_domains + 1
    grew = np.diff(counts, prepend=1) > 0
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(metrics.step_count):
            count = int(counts[i])
            line = {
                "step": i,
                "decision_kind": "new_domain" if grew[i] else "existing",
                "chosen_index": int(metrics.assigned_models[i]),
                "min_distance": float(metrics.min_distance[i]),
                "centroid_count": count,
                "soft_assignment": [float(v) for v in metrics.soft_assignment[i, :count]],
            }
            fh.write(json.dumps(line, sort_keys=True) + "\n")


def _write_metrics_csv(path: Path, metrics: stream.EpisodeMetrics) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["step", "visit", "true_domain", "assigned_model", "error",
             "detected_domains", "drift_norm"]
        )
        for i in range(metrics.step_count):
            writer.writerow(
                [
                    i,
                    int(metrics.visits[i]),
                    int(metrics.true_domains[i]),
                    int(metrics.assigned_models[i]),
                    f"{metrics.per_batch_error[i]:.17g}",
                    int(metrics.detected_domains[i]),
                    f"{metrics.drift_norm[i]:.17g}",
                ]
            )


def _clean(value) -> float | None:
    v = float(value)
    return None if math.isnan(v) else v


def _nested(table: np.ndarray) -> list:
    return [[_clean(v) for v in row] for row in table]


# ---------------------------------------------------------------------------
# theory


def cmd_theory(cfg: RunConfig, out_dir: Path, checks: tuple[str, ...]) -> int:
    failures = []
    for name in checks:
        passed, detail, rows = _run_check(name, cfg)
        _write_theory_csv(out_dir / f"{name}.csv", rows)
        print(f"[{'PASS' if passed else 'FAIL'}] {name}: {detail}")
        if not passed:
            failures.append((name, detail))
    if failures:
        for name, detail in failures:
            print(f"verification failure in {name}: {detail}", file=sys.stderr)
        return 3
    return 0


def _write_theory_csv(path: Path, rows: list[dict]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=_CSV_COLUMNS)
        writer.writeheader()
        for row in rows:
            writer.writerow({k: _fmt(row.get(k)) for k in _CSV_COLUMNS})


def _fmt(value) -> str:
    if value is None:
        return ""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return f"{float(value):.17g}"


def _run_check(name: str, cfg: RunConfig):
    t = cfg.theory
    eta, seed = THEORY_ETA, THEORY_SEED
    if name == "sgd_var":
        task = theory.pure_noise_task()
        curve = theory.simulate_sgd(task, eta, t.steps, t.trials, seed)
        slope, r2 = theory.fit_slope(curve)
        target = eta**2 * task.total_noise_variance
        closed = theory.linear_variance_closed_form(eta, task.total_noise_variance, curve.steps)
        passed = abs(slope - target) <= 0.1 * target and r2 > 0.99
        detail = (
            f"slope {slope:.6g} vs eta^2*vbar {target:.6g} "
            f"(tolerance 10%), R^2 {r2:.6f} (> 0.99 required)"
        )
        rows = [
            {"t": int(ti), "empirical_var": curve.variance[i], "closed_form_var": closed[i]}
            for i, ti in enumerate(curve.steps)
        ]
        return passed, detail, rows

    if name == "ensemble_var":
        task = theory.pure_noise_task()
        vbar = task.total_noise_variance
        rows: list[dict] = []
        worst_rel = 0.0
        bound_ok = True
        for alpha in t.ensemble_alphas:
            curve = theory.simulate_weight_ensemble(
                task, eta, alpha, t.steps, t.ensemble_trials, seed
            )
            closed = theory.ensemble_variance_closed_form(eta, alpha, vbar, curve.steps)
            bound = eta**2 * vbar * alpha**2 / (1.0 - alpha**2)
            rel = np.abs(curve.variance[1:] - closed[1:]) / closed[1:]
            worst_rel = max(worst_rel, float(rel.max()))
            # The true curve sits strictly below the asymptote; the empirical
            # one gets 3-sigma sampling slack on the variance estimate.
            slack = 3.0 * curve.variance * np.sqrt(2.0 / (t.ensemble_trials - 1))
            if np.any(closed[1:] >= bound) or np.any(curve.variance > bound + slack):
                bound_ok = False
            rows.extend(
                {
                    "t": int(ti),
                    "empirical_var": curve.variance[i],
                    "closed_form_var": closed[i],
                    "bound": bound,
                }
                for i, ti in enumerate(curve.steps)
            )
        passed = worst_rel <= 0.05 and bound_ok
        detail = (
            f"max relative deviation {worst_rel:.4%} (<= 5% required), "
            f"asymptotic bound {'respected' if bound_ok else 'violated'}"
        )
        return passed, detail, rows

    if name == "recursion":
        grads = keyed_rng(seed, 3).standard_normal((t.recursion_steps, 8))
        theta0 = keyed_rng(seed, 4).standard_normal(8)
        disc = theory.check_recursion(grads, eta, 0.97, theta0)
        passed = disc < 1e-10
        detail = f"max discrepancy {disc:.3e} (< 1e-10 required)"
        rows = [{"t": t.recursion_steps, "discrepancy": disc}]
        return passed, detail, rows

    if name == "fisher_equiv":
        rows = []
        worst = 0.0
        task = theory.NoisyQuadraticTask(
            optimum=np.zeros(4), curvature=np.full(4, 0.3), noise_std=np.ones(4)
        )
        # (lambda, omega, eta) cases, each with alpha = 1 - 2 lambda omega eta in (0, 1].
        for lam, omega, case_eta in ((0.5, 1.0, 0.1), (1.0, 0.5, 0.2), (0.25, 2.0, 0.05)):
            disc = theory.check_fisher_trajectory(
                task, lam, omega, case_eta, t.fisher_steps, seed
            )
            worst = max(worst, disc)
            rows.append({"t": t.fisher_steps, "discrepancy": disc})
        passed = worst < 1e-10
        detail = f"max trajectory discrepancy {worst:.3e} (< 1e-10 required)"
        return passed, detail, rows

    if name == "chebyshev":
        task = theory.NoisyQuadraticTask(
            optimum=np.zeros(4), curvature=np.full(4, 0.5), noise_std=np.ones(4)
        )
        # The start point sits at distance 1 from the optimum, inside beta.
        spec = theory.StabilitySpec(beta=5.0, theta0=np.full(4, 0.5))
        report = theory.check_chebyshev(
            task, spec, eta, t.chebyshev_steps, t.chebyshev_trials, seed
        )
        closed = theory.contractive_variance_closed_form(task, eta, report.steps)
        passed = report.holds
        detail = (
            f"max (rate - bound - slack) {report.max_violation:.3e} "
            f"(<= 0 required at 3-sigma slack)"
        )
        rows = [
            {
                "t": int(ti),
                "empirical_var": report.empirical_var[i],
                "closed_form_var": closed[i],
                "bound": report.bound[i],
                "empirical_rate": report.empirical_rate[i],
            }
            for i, ti in enumerate(report.steps)
        ]
        return passed, detail, rows

    raise ConfigurationError(f"unknown theory check {name!r}")


if __name__ == "__main__":
    sys.exit(main())
