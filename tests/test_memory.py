"""Transient memory of the set-up and stream stages that scale with the
whole calibration sample or the whole stream.

Each stage works in fixed chunks (calibration stacks, screen blocks, table
chunks), so its traced peak stays within a bound well below the figure of
the former one-pass code, quoted in each docstring (``tracemalloc``, numpy
2.4, Python 3.11).
"""

from dataclasses import replace

import numpy as np

from reservoir_tta import config, stream
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
