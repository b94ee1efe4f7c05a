"""Transient memory of the set-up, stream and theory stages that scale with
the whole calibration sample, candidate pool, stream or trial count, and of
one routed episode, whose step keeps buffers of its own.

Each stage works in fixed chunks (calibration stacks, candidate stacks,
screen blocks, table chunks, Monte-Carlo chunks of trials drawn a block of
steps at a time), so its traced peak stays within a bound; the figure of the
former code is quoted in each docstring (``tracemalloc``, numpy 2.4, Python
3.11).
"""

from dataclasses import replace
from pathlib import Path

import numpy as np

from reservoir_tta import cli, config, stream, theory
from reservoir_tta.style import calibrate_threshold


def test_calibration_styles_peak(context, traced_peak_mb):
    """The default 2000 calibration styles: at most 6 MB (36.0 MB when
    every batch was drawn into one stack)."""
    cfg = config.RunConfig()
    assert cfg.style.calibration_styles == 2000
    peak = traced_peak_mb(config.calibration_styles, cfg, context.blob, context.extractor)
    assert peak <= 6.0


def test_calibrate_threshold_peak(traced_peak_mb):
    """2000 styles of 40 entries at ``THRESHOLD_QUANTILE``: at most 12 MB
    (31.8 MB when every pair's screen value was held)."""
    styles = np.random.default_rng(2000).standard_normal((2000, 40)) + 5.0
    peak = traced_peak_mb(calibrate_threshold, styles, config.THRESHOLD_QUANTILE)
    assert peak <= 12.0


def test_domain_stream_peak(context, traced_peak_mb):
    """The ``ccc_tent`` benchmark plan (CCC, 6 visits) at seed 1, whose
    table has 776 rows: at most 10 MB (16.7 MB when the table was blended in
    one stacked pass)."""
    ctx = replace(context, plan=replace(context.plan, kind="ccc", visits=6))
    assert stream.DomainStream(ctx, 1)._table[0].shape[0] == 776
    assert traced_peak_mb(stream.DomainStream, ctx, 1) <= 10.0


def test_make_domains_peak(context, traced_peak_mb):
    """The default 8 domains from a pool of 64 candidates, drawn and
    extracted 4 candidates (64 batches) at a time: at most 5 MB (3.0 MB when
    each candidate's 16 batches were drawn and extracted alone)."""
    plan = context.plan
    peak = traced_peak_mb(
        lambda: stream.make_domains(
            plan.domains, plan.severity, config.DOMAIN_SEED, blob=context.blob,
            extractor=context.extractor, tau=context.tau,
            source_style_mean=context.source_style_mean, batch_size=plan.batch_size,
        )
    )
    assert peak <= 5.0


def test_routed_episode_peak(context, traced_peak_mb):
    """One Reservoir-EATA episode of ``perfbench/workloads/csc_reservoir.yaml``
    (CSC, 6 visits = 1200 steps, K = 9 centroids) at seed 1, whose routed
    step keeps a squared norm per reservoir row and writes into buffers of
    its own: at most 10 MB (7.53 MB; the same when each pass built a
    temporary and no norm was kept)."""
    workload = Path(__file__).parents[1] / "perfbench" / "workloads" / "csc_reservoir.yaml"
    cfg = config.load_config(workload)
    default = config.RunConfig()
    assert (cfg.source, cfg.style, cfg.clustering) == (
        default.source, default.style, default.clustering,
    )
    assert cfg.scenario == replace(context.plan, kind="csc", visits=6)
    ctx = replace(context, plan=cfg.scenario)
    (method,) = cfg.methods
    assert method.reservoir and ctx.plan.total_steps == 1200
    assert traced_peak_mb(stream.run_episode, ctx, method, 1) <= 10.0


def _chebyshev_peak_mb(traced_peak_mb, steps, trials):
    task = theory.NoisyQuadraticTask(
        optimum=np.zeros(4), curvature=np.full(4, 0.5), noise_std=np.ones(4)
    )
    return traced_peak_mb(
        theory.check_chebyshev, task, 5.0, np.full(4, 0.5), cli.THEORY_ETA,
        steps, trials, cli.THEORY_SEED,
    )


def test_check_chebyshev_peak(traced_peak_mb):
    """The theory suite's Chebyshev check at its default 10000 trials of 200
    steps: at most 4 MB (15.0 MB when each chunk's trials were drawn whole
    into a trial-major buffer)."""
    t = config.TheoryParams()
    assert _chebyshev_peak_mb(traced_peak_mb, t.chebyshev_steps, t.chebyshev_trials) <= 4.0


def test_check_chebyshev_peak_at_20000_steps(traced_peak_mb):
    """100 trials of 20000 steps: at most 5 MB, most of it the per-step
    moment sums and results (63.4 MB when each chunk's whole trajectories
    were drawn up front)."""
    assert _chebyshev_peak_mb(traced_peak_mb, 20_000, 100) <= 5.0


def test_weight_ensemble_peak(traced_peak_mb):
    """The theory suite's weight-ensemble check at its default 100000 trials
    of 100 steps and two weights: at most 1 MB (2.33 MB when each chunk's
    trials were drawn whole into a trial-major buffer)."""
    t = config.TheoryParams()
    assert (t.ensemble_trials, len(t.ensemble_alphas), t.steps) == (100_000, 2, 100)
    peak = traced_peak_mb(
        theory.simulate_weight_ensemble, theory.pure_noise_task(), cli.THEORY_ETA,
        t.ensemble_alphas, t.steps, t.ensemble_trials, cli.THEORY_SEED,
    )
    assert peak <= 1.0
