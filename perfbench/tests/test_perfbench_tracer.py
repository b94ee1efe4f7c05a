"""Self-time arithmetic, per-layer metrics and hooking of the benchmark tracer."""

import threading

import pytest

import tracer
from reservoir_tta import cli, config, stream, style
from tracer import Span


def make_spans(*rows):
    """Spans from (name, start, end, parent, episode) rows; ids are positions."""
    return [Span(i, *row) for i, row in enumerate(rows)]


# One cmd_run: a set-up, then a two-step episode whose first step spawns
# (init_new_model calls tta.predict inside it).
RUN = make_spans(
    ("cli.cmd_run", 0.0, 20.0, None, None),  # 0
    ("config.build_context", 0.5, 4.5, 0, None),  # 1
    ("config.calibration_styles", 1.0, 2.0, 1, None),  # 2
    ("style.extract_style", 1.2, 1.5, 2, None),  # 3
    ("tta.train_source", 2.0, 3.0, 1, None),  # 4
    ("stream.run_episode", 5.0, 15.0, 0, 0),  # 5
    ("stream.next_batch", 5.0, 6.0, 5, 0),  # 6
    ("clustering.update_centroids", 6.0, 9.0, 5, 0),  # 7
    ("model_reservoir.init_new_model", 9.0, 10.0, 5, 0),  # 8
    ("tta.predict", 9.2, 9.6, 8, 0),  # 9
    ("stream.next_batch", 10.0, 11.0, 5, 0),  # 10
    ("clustering.update_centroids", 11.0, 13.0, 5, 0),  # 11
    ("tta.predict", 13.0, 14.0, 5, 0),  # 12
)
COUNTERS = dict.fromkeys(tracer.COUNTERS, 0)


def test_self_time_subtracts_direct_children_only():
    spans = make_spans(
        ("root", 0.0, 10.0, None, None),
        ("a", 1.0, 4.0, 0, None),
        ("a.child", 2.0, 3.0, 1, None),
        ("b", 5.0, 9.0, 0, None),
    )
    assert tracer.self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_episode_metrics_use_self_time_per_call():
    m = tracer.analyse(RUN, COUNTERS)
    assert m["clustering.update_centroids.ms"] == pytest.approx(2500.0)
    assert m["clustering.update_centroids.calls"] == 2
    # predict inside init_new_model is its child: it leaves init_new_model's
    # self time and counts as a predict call.
    assert m["model_reservoir.init_new_model.ms"] == pytest.approx(600.0)
    assert m["tta.predict.ms"] == pytest.approx(700.0)
    assert m["tta.predict.calls"] == 2
    # Engine self time: 10 s minus 9 s of children, over 2 steps.
    assert m["stream.run_episode.self_ms"] == pytest.approx(500.0)
    assert m["stream.step_ms.p50"] == pytest.approx(5000.0)
    assert m["stream.step_ms.p99"] == pytest.approx(5000.0)
    # Set-up spans never count as episode calls.
    assert m["style.extract_style.calls"] == 0


def test_layer_shares_account_for_the_whole_episode():
    m = tracer.analyse(RUN, COUNTERS)
    assert sum(m[f"{layer}.share"] for layer in tracer.LAYERS) == pytest.approx(1.0)
    assert m["clustering.update_centroids.share"] == pytest.approx(0.5)
    assert m["stream.next_batch.share"] == pytest.approx(0.2)
    assert m["stream.share"] == pytest.approx(0.3)
    assert tracer.unaccounted(RUN) == pytest.approx(0.0)


def test_setup_children_and_output_time():
    m = tracer.analyse(RUN, COUNTERS)
    assert m["config.calibration_styles.s"] == pytest.approx(1.0)
    assert m["tta.train_source.s"] == pytest.approx(1.0)
    assert m["config.build_context.self_s"] == pytest.approx(2.0)
    # cmd_run minus set-up and episode.
    assert m["cli.output_ms"] == pytest.approx(6000.0)


def test_escaped_span_shows_as_unaccounted():
    spans = make_spans(
        ("stream.run_episode", 0.0, 10.0, None, 0),
        ("stream.next_batch", 1.0, 2.0, 0, 0),
        ("tta.predict", 3.0, 5.0, None, 0),  # lost its parent
    )
    assert tracer.unaccounted(spans) == pytest.approx(-2.0)


def test_percentile_is_nearest_rank():
    values = [float(v) for v in range(1, 101)]
    assert tracer.percentile(values, 50) == 50.0
    assert tracer.percentile(values, 99) == 99.0
    assert tracer.percentile([], 99) == 0.0


def test_worker_thread_span_hangs_under_the_blocked_main_span():
    t = tracer.Tracer()
    inner = t.wrap("inner", lambda: None)

    def outer():
        worker = threading.Thread(target=inner)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    t.wrap("outer", outer)()
    assert [(s.name, s.parent) for s in t.spans] == [("outer", None), ("inner", 0)]


def test_install_rebinds_every_module_and_uninstall_restores():
    original = style.extract_style
    t = tracer.Tracer()
    t.install()
    try:
        assert stream.extract_style is style.extract_style is config.extract_style
        assert style.extract_style.__wrapped__ is original
        assert cli.build_context is config.build_context
    finally:
        t.uninstall()
    assert style.extract_style is original
    assert stream.extract_style is original


def test_missing_hook_fails_loudly(monkeypatch):
    monkeypatch.setattr(tracer, "HOOKS", tracer.HOOKS + (("stream", "no_such_function"),))
    t = tracer.Tracer()
    with pytest.raises(tracer.HookError, match="no_such_function"):
        t.install()
    t.uninstall()


def test_traced_small_run(tmp_path, monkeypatch):
    cfg = tmp_path / "small.yaml"
    cfg.write_text(
        "source: {samples_per_class: 40, epochs: 2}\n"
        "style: {calibration_styles: 60, fisher_batches: 2}\n"
        "scenario: {domains: 2, visits: 2, batches_per_domain: 3, batch_size: 16}\n"
        "clustering: {reservoir_size: 8}\n"
        "methods: [{name: r, kind: filtered_fisher, reservoir: true}]\n",
        encoding="utf-8",
    )
    monkeypatch.setenv("RTTA_OUTPUT_DIR", str(tmp_path / "out"))
    t = tracer.Tracer()
    t.install()
    try:
        assert cli.main(["run", "--config", str(cfg), "--seeds", "3"]) == 0
    finally:
        t.uninstall()
    m = tracer.analyse(t.spans, t.counters)
    assert m["stream.next_batch.calls"] == 12
    assert m["clustering.detect.calls"] == 12
    assert m["clustering.centroids"] == 1 + m["clustering.spawns"]
    assert m["model_reservoir.models"] == m["clustering.centroids"]
    assert tracer.unaccounted(t.spans) == pytest.approx(0.0, abs=1e-9)
    assert m["cli.output_ms"] > 0.0
