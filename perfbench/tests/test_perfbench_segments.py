"""Work segments of an untraced invocation, their fastest-repeat floor and
the host-speed correction."""

import math

import pytest

import child
import reference
import run


def test_work_segments_leave_out_the_cuts():
    spans = [(1.0, 2.0, (), None), (5.0, 5.5, (), None)]
    # The first and the fifth cut fall outside both spans.
    cuts = [(0.5, 0.6), (1.0, 1.0), (1.25, 1.5), (1.75, 1.8), (3.0, 3.1), (5.2, 5.25)]
    segments = child.work_segments(spans, cuts)
    assert segments == pytest.approx([0.0, 0.25, 0.25, 0.2, 0.2, 0.25])
    assert sum(segments) == pytest.approx(1.5 - 0.35)


def test_cuts_run_the_kernel_every_nth_cut_inside_the_work_phase():
    cuts = child.Cuts(lambda: 1.0)
    step = cuts.wrap(lambda i: i, reference_every=3)
    episode = cuts.work([], lambda n: [step(i) for i in range(n)])
    assert step(-1) == -1  # outside the work phase: no cut, no kernel
    assert episode(7) == list(range(7))
    assert len(cuts.cuts) == 7
    assert cuts.reference_s == [1.0, 1.0, 1.0]  # cuts 0, 3 and 6


def test_cuts_every_nth_call():
    cuts = child.Cuts(lambda: 1.0)
    draw = cuts.wrap(lambda i: i, cut_every=4, reference_every=2)
    cuts.work([], lambda n: [draw(i) for i in range(n)])(10)
    assert len(cuts.cuts) == 3  # calls 0, 4 and 8
    assert cuts.reference_s == [1.0, 1.0]  # cuts 0 and 2


def test_floor_takes_every_position_at_its_fastest_repeat():
    # Repeat 0 is slow in its second half, repeat 1 in its first.
    segments = [[1.0, 1.0, 3.0, 3.0], [2.0, 2.0, 1.0, 1.0], [1.5, 1.5, 1.5, 1.5]]
    assert run.floor_s(segments) == pytest.approx(4.0)
    assert run.floor_s(segments[:1]) == pytest.approx(8.0)
    assert math.isnan(run.floor_s([]))


def test_floor_refuses_segments_that_do_not_line_up():
    with pytest.raises(ValueError, match="line up"):
        run.floor_s([[1.0, 2.0], [1.0, 2.0, 3.0]])


def test_time_metrics_use_the_floor_and_the_host_factor():
    ref = reference.REFERENCE_HOST_S
    plain = [
        run.Invocation(mode="plain", result={
            "run_s": 5.0, "work_s": 4.0, "work": 4, "setup_s": 0.5, "peak_rss_mb": 1.0,
            "segments": [1.0, 1.0, 1.0, 1.0], "reference_s": [2 * ref, 3 * ref]},
            figures={"mean_error": 0.1, "domain_purity": 1.0}),
        run.Invocation(mode="plain", result={
            "run_s": 6.5, "work_s": 6.0, "work": 4, "setup_s": 0.4, "peak_rss_mb": 1.0,
            "segments": [2.0, 2.0, 1.0, 0.5], "reference_s": [3 * ref, 2 * ref]},
            figures={"mean_error": 0.1, "domain_purity": 1.0}),
    ]
    wl = run.Workload("w", "run", run.HERE / "workloads" / "csc_reservoir.yaml", [])
    summary = run._summarise(wl, 1, False, plain, 12.0)
    assert summary["host_factor"] == pytest.approx(2.0)
    assert summary["uncorrected_metrics"]["run_s"] == pytest.approx(0.5 + 3.5)
    metrics = summary["metrics"]
    assert metrics["run_s"] == pytest.approx((0.5 + 3.5) / 2)
    assert metrics["steps_per_s"] == pytest.approx(4 / 3.5 * 2)
    assert metrics["setup_s"] == pytest.approx(0.45 / 2)
