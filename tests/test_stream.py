"""Scenario schedules, domain generation, streams, and the episode engine."""

import collections
from dataclasses import fields, replace

import numpy as np
import pytest

from reservoir_tta import config, stream, tta
from reservoir_tta.clustering import DEFAULT_K_MAX
from reservoir_tta.errors import (
    ConfigurationError,
    EndOfStream,
    GenerationError,
    InputDomainError,
    InsufficientDataError,
)
from reservoir_tta.model_reservoir import ModelReservoir
from reservoir_tta.style import extract_style


def _small_plan(**kw):
    base = dict(kind="csc", domains=3, visits=2, batches_per_domain=2, batch_size=8)
    base.update(kw)
    return stream.ScenarioPlan(**base)


class TestSourceDataset:
    def test_separable_blobs_train_well(self):
        ds = stream.make_source_dataset(2, 200, 8, seed=1, separation=10.0)
        model = tta.train_source(1, (ds.inputs, ds.labels), epochs=8, lr=0.05)
        held_x, held_y = ds.blob.sample(np.random.default_rng(5), 1000)
        probs = tta.predict(model, model.source_params, model.features(held_x))
        acc = (probs.argmax(axis=1) == held_y).mean()
        assert acc >= 0.99

    def test_seeded_determinism(self):
        a = stream.make_source_dataset(3, 50, 6, seed=9)
        b = stream.make_source_dataset(3, 50, 6, seed=9)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        np.testing.assert_array_equal(a.labels, b.labels)

    def test_empty_dataset_rejected(self):
        with pytest.raises(InsufficientDataError):
            stream.make_source_dataset(3, 0, 6, seed=0)
        with pytest.raises(InputDomainError):
            stream.make_source_dataset(1, 10, 6, seed=0)


class TestMakeDomains:
    def test_identity_at_zero_severity(self, context):
        rng = np.random.default_rng(3)
        dom = stream._draw_domain(0.0, rng, context.blob.input_dim, tier=np.zeros(3))
        np.testing.assert_allclose(dom.transform, np.eye(context.blob.input_dim), atol=1e-12)
        np.testing.assert_array_equal(dom.offset, 0.0)
        np.testing.assert_array_equal(dom.noise_std, 0.0)
        # Style of the identity domain sits below tau from the source mean.
        m = stream.domain_style_mean(
            dom, context.blob, context.extractor, 64, 16, seed_key=(10,)
        )
        assert np.linalg.norm(m - context.source_style_mean) < context.tau

    def test_transforms_invertible(self, context):
        for d in context.domains:
            s = np.linalg.svd(d.transform, compute_uv=False)
            assert s.min() > 1e-4  # well away from singular

    def test_separation_exceeds_tau(self, context, default_config, monkeypatch):
        # 15 domains: all pairwise style-mean distances above the threshold.
        monkeypatch.setattr(stream, "MIN_SEPARATION_FACTOR", 1.0)
        domains = stream.make_domains(
            15,
            default_config.scenario.severity,
            seed=4242,
            blob=context.blob,
            extractor=context.extractor,
            tau=context.tau,
            source_style_mean=context.source_style_mean,
        )
        means = np.stack(
            [
                stream.domain_style_mean(
                    d, context.blob, context.extractor, 64, 16, seed_key=(11, i)
                )
                for i, d in enumerate(domains)
            ]
        )
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        iu = np.triu_indices(15, k=1)
        assert dists[iu].size == 105
        assert np.all(dists[iu] > context.tau)

    def test_same_seed_identical_specs(self, context):
        checked = dict(
            blob=context.blob,
            extractor=context.extractor,
            tau=context.tau,
            source_style_mean=context.source_style_mean,
        )
        a = stream.make_domains(4, 0.8, seed=77, **checked)
        b = stream.make_domains(4, 0.8, seed=77, **checked)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.transform, db.transform)
            np.testing.assert_array_equal(da.noise_std, db.noise_std)

    def test_unreachable_separation_raises(self, context, monkeypatch):
        monkeypatch.setattr(stream, "DOMAIN_MAX_RETRIES", 2)
        with pytest.raises(GenerationError):
            stream.make_domains(
                8,
                0.01,  # severity too small for any separation
                seed=5,
                blob=context.blob,
                extractor=context.extractor,
                tau=context.tau,
                source_style_mean=context.source_style_mean,
            )


def _fixed_orders(monkeypatch, orders):
    """Make every visit's domain order the given literal one."""
    monkeypatch.setattr(
        stream.ScenarioPlan, "visit_order", lambda self, visit, seed: np.array(orders[visit])
    )


def _rows(schedule):
    """A schedule's (visit, primary, next, weight) rows as Python tuples."""
    return [tuple(col[i].item() for col in schedule) for i in range(schedule[0].size)]


def _context_with(context, **plan_fields):
    plan = replace(context.plan, **plan_fields)
    return replace(context, plan=plan, domains=context.domains[: plan.domains])


class TestScenarioPlan:
    def test_csc_fixed_cycle(self):
        plan = _small_plan()
        rows = [(v, d, d, 0.0) for v in (0, 1) for d in (0, 1, 2) for _ in (0, 1)]
        assert _rows(plan.schedule(0)) == rows
        assert _rows(plan.schedule(5)) == rows

    def test_cdc_shuffles_per_visit_same_multiset(self):
        plan = _small_plan(kind="cdc", domains=5, visits=4)
        orders = [tuple(plan.visit_order(v, 1)) for v in range(4)]
        assert len(set(orders)) > 1  # orders differ across visits
        for order in orders:
            assert sorted(order) == [0, 1, 2, 3, 4]

    def test_cdc_seeds_differ(self):
        plan = _small_plan(kind="cdc", domains=6)
        assert any(
            tuple(plan.visit_order(v, 1)) != tuple(plan.visit_order(v, 2)) for v in range(2)
        )

    def test_ccc_blend_ramps_within_segment(self, monkeypatch):
        _fixed_orders(monkeypatch, [[2, 0, 1], [1, 2, 0]])
        plan = _small_plan(kind="ccc", batches_per_domain=3)
        ramp = (0.0, 1 / 3, 2 / 3)
        # Visit 0 ends on domain 1 and visit 1 starts on it; the stream's last
        # segment has no next domain and stays pure.
        segments = [(0, 2, 0), (0, 0, 1), (0, 1, 1), (1, 1, 2), (1, 2, 0)]
        rows = [(v, p, n, w) for v, p, n in segments for w in ramp] + [(1, 0, 0, 0.0)] * 3
        assert _rows(plan.schedule(0)) == rows

    def test_empty_plan_has_empty_schedule(self):
        for kind in stream.SCENARIO_KINDS:
            assert _rows(_small_plan(kind=kind, visits=0).schedule(1)) == []

    def test_out_of_range_step(self, context):
        ds = stream.DomainStream(_context_with(context, visits=1, batches_per_domain=2), 0)
        ds.next_batch(ds.context.plan.total_steps - 1)
        # A numpy index of -1 would quietly serve the last step.
        for step in (-1, ds.context.plan.total_steps):
            with pytest.raises(EndOfStream):
                ds.next_batch(step)

    def test_invalid_plan(self):
        with pytest.raises(ConfigurationError):
            _small_plan(kind="abc")
        with pytest.raises(ConfigurationError):
            _small_plan(batch_size=1)


def _apply_with_rng(domain, inputs, rng):
    """A domain's distortion with its noise drawn by ``rng.normal``: the
    reference for ``DomainSpec.apply`` with a caller's standard-normal draw."""
    out = inputs @ domain.transform.T + domain.offset
    if np.any(domain.noise_std > 0):
        out = out + rng.normal(0.0, domain.noise_std, size=out.shape)
    return out


def _prepared_batch(context, seed, step, styles=True):
    """A step's batch built from its schedule row alone: its own draw,
    distortion, feature pass and style pass."""
    plan = context.plan
    _, primary, nxt, w = _rows(plan.schedule(seed))[step]
    slot = step % plan.batches_per_domain
    rng = np.random.default_rng((seed, stream._TAG_STREAM, primary, slot))
    inputs, labels = context.blob.sample(rng, plan.batch_size)
    if w == 0.0 or primary == nxt:
        domain = context.domains[primary]
    else:
        domain = stream.blend_domains(context.domains[primary], context.domains[nxt], w)
    inputs = _apply_with_rng(domain, inputs, rng)
    return stream.StreamBatch(
        labels,
        context.model.features(inputs),
        extract_style(inputs, context.extractor) if styles else None,
    )


def _bits(value):
    """A value's dtype, shape and bytes, for bit-for-bit comparison."""
    a = np.asarray(value)
    return a.dtype.str, a.shape, a.tobytes()


def _assert_same_batch(a, b):
    for f in fields(stream.StreamBatch):
        assert _bits(getattr(a, f.name)) == _bits(getattr(b, f.name)), f.name


class TestDomainStream:
    def test_recurrences_replay_identical_data(self, context):
        ctx = _context_with(context, visits=2, batches_per_domain=3)
        ds = stream.DomainStream(ctx, seed=3)
        again = ctx.plan.steps_per_visit  # same domain slot, visit 2
        visits = ds.schedule[0]
        assert visits[0] == 0 and visits[again] == 1
        _assert_same_batch(ds.next_batch(0), ds.next_batch(again))

    def test_hidden_id_matches_schedule(self, context):
        ctx = _context_with(context, visits=1, batches_per_domain=3)
        method = tta.MethodConfig(name="m", kind="entropy")
        met = stream.run_episode(ctx, method, seed=4)
        steps = np.arange(ctx.plan.total_steps)
        # CSC: fixed order, one visit.
        assert _bits(met.true_domains) == _bits(steps // 3)
        assert _bits(met.visits) == _bits(np.zeros_like(steps))

    def test_ccc_endpoints_match_pure_domains(self, context):
        # Style means of segment-start CCC batches sit within tau/10 of the
        # pure domain's style mean, over 100 batches each.
        plan = replace(context.plan, kind="ccc", visits=2)
        start = plan.batches_per_domain  # second segment start, w = 0
        _, primary, _, weight = plan.schedule(6)
        assert weight[start] == 0.0
        dom = context.domains[primary[start]]
        styles = []
        for i in range(100):
            r = np.random.default_rng((61, i))
            x, _ = context.blob.sample(r, plan.batch_size)
            noise = r.standard_normal(x.shape)
            styles.append(extract_style(dom.apply(x, noise), context.extractor))
        pure_mean = np.mean(styles, axis=0)
        ccc_styles = []
        for i in range(100):
            r = np.random.default_rng((62, i))
            x, _ = context.blob.sample(r, plan.batch_size)
            blended = stream.blend_domains(dom, dom, 0.0)
            noise = r.standard_normal(x.shape)
            ccc_styles.append(extract_style(blended.apply(x, noise), context.extractor))
        dist = np.linalg.norm(np.mean(ccc_styles, axis=0) - pure_mean)
        assert dist < context.tau / 10

    def test_blend_weight_zero_is_pure_a(self, context):
        a, b = context.domains[0], context.domains[1]
        blended = stream.blend_domains(a, b, 0.0)
        np.testing.assert_allclose(blended.transform, a.transform, atol=1e-12)
        np.testing.assert_array_equal(blended.offset, a.offset)

    def test_apply_with_a_callers_draw_matches_rng_normal(self, context):
        a, b = context.domains[:2]
        clean = replace(a, severity=0.0)
        assert not np.any(clean.noise_std > 0)
        for i, domain in enumerate([a, stream.blend_domains(a, b, 0.4), clean]):
            outs = []
            for with_draw in (False, True):
                rng = np.random.default_rng((30, i))
                x, _ = context.blob.sample(rng, 64)
                if with_draw:
                    outs.append(domain.apply(x, rng.standard_normal(x.shape)))
                else:
                    outs.append(_apply_with_rng(domain, x, rng))
            assert _bits(outs[0]) == _bits(outs[1]), i

    @pytest.mark.parametrize("styles", [True, False])
    def test_ccc_raw_table_matches_fresh_draws(self, context, styles):
        ctx = _context_with(context, kind="ccc", visits=3, batches_per_domain=4)
        ds = stream.DomainStream(ctx, seed=9, styles=styles)
        for step in range(ctx.plan.total_steps):
            _assert_same_batch(ds.next_batch(step), _prepared_batch(ctx, 9, step, styles))
        # Every blended slot recurs on a later visit; weight-0 slots are
        # replayed whole instead.
        assert sorted(ds._raw) == [(d, s) for d in range(8) for s in (1, 2, 3)]

    def test_replay_table_keeps_pure_batches_a_later_visit_draws(self, context, monkeypatch):
        _fixed_orders(monkeypatch, [[2, 0, 1], [1, 2, 0]])
        ctx = _context_with(context, kind="ccc", domains=3, visits=2, batches_per_domain=3)
        ds = stream.DomainStream(ctx, seed=8)
        batches = [ds.next_batch(step) for step in range(ctx.plan.total_steps)]
        # The weight-0 slots of visit 0 (steps 0, 3, 6) recur on visit 1
        # (steps 12, 15, 9). Domain 1's pure segment at steps 6-8 and domain
        # 0's last segment (steps 15-17) have no later visit: of those only
        # step 15, a replay, comes from the table.
        replays = {12: 0, 15: 3, 9: 6}
        tabled = {0, 3, 6, *replays}
        # Domains 2 and 1 blend slots 1 and 2 on visit 1 (steps 13-14 and
        # 10-11): the raw table keeps their visit-0 draws, so those labels
        # are shared, read-only, as well. Domain 0's blended slots (steps
        # 4-5) recur only in the stream's last, pure segment, drawn afresh.
        raw_shares = {13: 1, 14: 2, 10: 7, 11: 8}
        frozen_labels = tabled | set(raw_shares) | set(raw_shares.values())
        for step, batch in enumerate(batches):
            _assert_same_batch(batch, _prepared_batch(ctx, 8, step))
            for name in ("features", "style"):
                array = getattr(batch, name)
                assert array.flags.writeable == (step not in tabled), (step, name)
                if step in replays:
                    assert array is getattr(batches[replays[step]], name)
            assert batch.labels.flags.writeable == (step not in frozen_labels), step
        for step, first in {**replays, **raw_shares}.items():
            assert batches[step].labels is batches[first].labels, step
        assert sorted(ds._raw) == [(1, 1), (1, 2), (2, 1), (2, 2)]


class TestStepWork:
    """Each step's batch work is done once: one batch per step, one style
    and feature pass per distinct replayed batch, and every visit's order
    drawn once per stream."""

    def test_reservoir_episode_counts(self, context, monkeypatch):
        ctx = replace(context, plan=replace(context.plan, visits=2, batches_per_domain=2))
        made = {"features": [], "style": []}
        served = []
        steps = []
        features = tta.AdaptableClassifier.features
        next_batch = stream.DomainStream.next_batch
        extract = stream.extract_style

        def kept_features(self, batch):
            made["features"].append(features(self, batch))
            return made["features"][-1]

        def kept_style(batch, extractor):
            made["style"].append(extract(batch, extractor))
            return made["style"][-1]

        def kept_next_batch(self, step):
            steps.append(step)
            batch = next_batch(self, step)
            served.extend((batch.labels, batch.features, batch.style))
            return batch

        monkeypatch.setattr(tta.AdaptableClassifier, "features", kept_features)
        monkeypatch.setattr(stream, "extract_style", kept_style)
        monkeypatch.setattr(stream.DomainStream, "next_batch", kept_next_batch)
        method = tta.MethodConfig(name="m", kind="filtered_fisher", reservoir=True)
        met = stream.run_episode(ctx, method, seed=11)
        n = ctx.plan.total_steps
        assert met.detected_domains[-1] > 0
        assert steps == list(range(n))
        # A CSC visit draws every (domain, slot) batch once; later visits
        # replay them.
        assert len(made["features"]) == len(made["style"]) == ctx.plan.steps_per_visit
        # Every array the replay table hands out is read-only.
        for a in served:
            with pytest.raises(ValueError):
                a[0] = 0

    @pytest.mark.parametrize("kind", ["csc", "ccc", "cdc"])
    def test_orders_drawn_once_and_batches_follow_schedule(self, context, monkeypatch, kind):
        ctx = replace(
            context,
            plan=replace(context.plan, kind=kind, visits=3, batches_per_domain=3, batch_size=8),
        )
        drawn = []
        visit_order = stream.ScenarioPlan.visit_order

        def counted(self, visit, seed):
            drawn.append(visit)
            return visit_order(self, visit, seed)

        monkeypatch.setattr(stream.ScenarioPlan, "visit_order", counted)
        # At seed 21 the last CCC segment of visit 0 and the first of visit 1
        # are the same domain, so that segment is pure throughout.
        ds = stream.DomainStream(ctx, seed=21)
        batches = [ds.next_batch(step) for step in range(ctx.plan.total_steps)]
        assert sorted(drawn) == list(range(ctx.plan.visits))
        first_of = {}
        primary = ds.schedule[1]
        for step, batch in enumerate(batches):
            _assert_same_batch(batch, _prepared_batch(ctx, 21, step))
            if not batch.features.flags.writeable:
                key = (primary[step], step % ctx.plan.batches_per_domain)
                first = first_of.setdefault(key, batch)
                assert batch.features is first.features and batch.style is first.style
        # Every CSC and CDC batch recurs on a later visit; CCC blends most of
        # its batches, which are served once.
        tabled = [not batch.features.flags.writeable for batch in batches]
        assert all(tabled) if kind != "ccc" else any(tabled) and not all(tabled)

    def test_batches_without_a_later_visit_are_not_kept(self, context):
        ctx = replace(
            context, plan=replace(context.plan, visits=1, batches_per_domain=3, batch_size=8)
        )
        ds = stream.DomainStream(ctx, seed=12)
        batches = [ds.next_batch(step) for step in range(ctx.plan.total_steps)]
        assert ds._replay == {}
        assert all(batch.features.flags.writeable for batch in batches)


class TestReplayOracle:
    """The replay table changes no bit of an episode: the same traced
    episodes run on freshly prepared batches give identical metrics, the
    trace columns included."""

    @pytest.mark.parametrize("kind", ["csc", "cdc", "ccc"])
    def test_tabled_episode_equals_fresh_batches(self, context, monkeypatch, kind):
        ctx = replace(
            context, plan=replace(context.plan, kind=kind, visits=3, batches_per_domain=3)
        )
        method = tta.MethodConfig(name="m", kind="filtered_fisher", reservoir=True)
        served = []
        next_batch = stream.DomainStream.next_batch

        def kept(self, step):
            batch = next_batch(self, step)
            served.append(batch.features)
            return batch

        monkeypatch.setattr(stream.DomainStream, "next_batch", kept)
        tabled = stream.run_episode(ctx, method, seed=14, trace=True)
        assert len({id(f) for f in served}) < len(served)

        monkeypatch.setattr(
            stream.DomainStream,
            "next_batch",
            lambda self, step: _prepared_batch(self.context, self.seed, step),
        )
        untabled = stream.run_episode(ctx, method, seed=14, trace=True)

        assert tabled.detected_domains[-1] > 0
        assert tabled.soft_assignment.shape == (ctx.plan.total_steps, DEFAULT_K_MAX)
        for f in fields(stream.EpisodeMetrics):
            assert _bits(getattr(tabled, f.name)) == _bits(getattr(untabled, f.name)), f.name


class TestRunEpisode:
    def _method(self, reservoir=True, kind="filtered_fisher"):
        return tta.MethodConfig(name="m", kind=kind, reservoir=reservoir)

    def test_zero_visits_empty_metrics(self, context):
        ctx = replace(context, plan=replace(context.plan, visits=0))
        met = stream.run_episode(ctx, self._method(), seed=1)
        assert met.step_count == 0
        assert met.per_visit_error().size == 0

    def test_episode_determinism(self, context):
        ctx = replace(context, plan=replace(context.plan, visits=1, batches_per_domain=3))
        a = stream.run_episode(ctx, self._method(), seed=5)
        b = stream.run_episode(ctx, self._method(), seed=5)
        np.testing.assert_array_equal(a.per_batch_error, b.per_batch_error)
        np.testing.assert_array_equal(a.assigned_models, b.assigned_models)
        np.testing.assert_array_equal(a.drift_norm, b.drift_norm)

    def test_reservoir_centroid_alignment_every_step(self, context, monkeypatch):
        ctx = replace(context, plan=replace(context.plan, visits=2, batches_per_domain=2))
        original = ModelReservoir.write_active
        models = []

        def counted(self, index, new_params):
            models.append(self.count)
            original(self, index, new_params)

        monkeypatch.setattr(ModelReservoir, "write_active", counted)
        met = stream.run_episode(ctx, self._method(), seed=6)
        assert models == list(met.detected_domains + 1)
        assert max(models) > 1

    def test_isolation_of_inactive_entries(self, context, monkeypatch):
        ctx = replace(context, plan=replace(context.plan, visits=1, batches_per_domain=2))
        original = ModelReservoir.write_active
        written = []

        def checked(self, index, new_params):
            inactive = np.arange(self.count) != index
            before = [self.entry(i).tobytes() for i in np.flatnonzero(inactive)]
            original(self, index, new_params)
            assert [self.entry(i).tobytes() for i in np.flatnonzero(inactive)] == before
            written.append(index)

        monkeypatch.setattr(ModelReservoir, "write_active", checked)
        met = stream.run_episode(ctx, self._method(), seed=7)
        assert written == list(met.assigned_models)
        assert len(set(written)) > 1

    def test_hidden_ids_influence_only_metrics(self, context):
        # A batch carries no visit or domain id; the metrics read them from
        # the schedule. A CCC segment of 4 batches ramps its weight 0, 1/4,
        # 1/2, 3/4 toward the next segment's domain, so slots 0-1 are the
        # segment's own domain and slots 2-3 the next one; the stream's last
        # segment stays pure.
        assert [f.name for f in fields(stream.StreamBatch)] == ["labels", "features", "style"]
        ctx = _context_with(context, kind="ccc", visits=2, batches_per_domain=4)
        met = stream.run_episode(ctx, self._method(), seed=8)
        visit, primary, _, _ = ctx.plan.schedule(8)
        assert _bits(met.visits) == _bits(visit)
        segments = [int(d) for d in primary[::4]]
        assert len(segments) == 2 * ctx.plan.domains
        assert any(a != b for a, b in zip(segments, segments[1:]))
        expected = [d for a, b in zip(segments, segments[1:]) for d in (a, a, b, b)]
        expected += [segments[-1]] * 4
        assert [int(d) for d in met.true_domains] == expected

    def test_baseline_runs_single_model(self, context):
        ctx = replace(context, plan=replace(context.plan, visits=1, batches_per_domain=2))
        met = stream.run_episode(
            ctx, self._method(reservoir=False, kind="entropy"), seed=9
        )
        assert met.detected_domains.max() == 0
        assert set(met.assigned_models) == {0}

    def test_single_domain_entropy_nonincreasing_over_three_visits(self, default_config):
        # Stationary stream: per-visit error must not regress while adapting.
        cfg = replace(
            default_config,
            scenario=replace(default_config.scenario, domains=1, visits=3),
        )
        ctx = config.build_context(cfg)
        method = tta.MethodConfig(name="tent", kind="entropy", reservoir=False)
        met = stream.run_episode(ctx, method, seed=1)
        pv = met.per_visit_error()
        assert pv.size == 3
        assert pv[0] >= pv[1] >= pv[2]

    @pytest.mark.parametrize("reservoir", [False, True], ids=["single", "reservoir"])
    @pytest.mark.parametrize("kind", ["csc", "cdc", "ccc"])
    def test_metrics_do_not_depend_on_the_trace(self, context, kind, reservoir):
        ctx = _context_with(context, kind=kind, visits=3, batches_per_domain=3)
        method = self._method(reservoir=reservoir, kind="entropy")
        traced = stream.run_episode(ctx, method, seed=15, trace=True)
        untraced = stream.run_episode(ctx, method, seed=15)
        trace_columns = ("min_distance", "soft_assignment")
        for name in trace_columns:
            assert getattr(untraced, name) is None, name
        n, k_max = ctx.plan.total_steps, DEFAULT_K_MAX if reservoir else 1
        assert traced.min_distance.shape == (n,)
        assert traced.soft_assignment.shape == (n, k_max)
        np.testing.assert_allclose(traced.soft_assignment.sum(axis=1), 1.0)
        for f in fields(stream.EpisodeMetrics):
            if f.name not in trace_columns:
                assert _bits(getattr(traced, f.name)) == _bits(getattr(untraced, f.name)), f.name

    def test_unobserved_single_model_episode_skips_routing(self, context, monkeypatch):
        ctx = _context_with(context, kind="ccc", visits=2, batches_per_domain=3)
        calls = collections.Counter()

        def count(owner, name):
            original = getattr(owner, name)

            def counted(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, counted)

        count(stream, "extract_style")
        count(stream.StyleReservoir, "offer")
        count(stream.CentroidSet, "detect")
        count(stream, "update_centroids")
        count(stream, "soft_assign_vector")
        method = self._method(reservoir=False, kind="entropy")
        stream.run_episode(ctx, method, seed=16)
        assert calls == {}
        stream.run_episode(ctx, method, seed=16, trace=True)
        n = ctx.plan.total_steps
        routed = ("offer", "detect", "update_centroids", "soft_assign_vector")
        assert [calls[name] for name in routed] == [n] * 4
        assert 0 < calls["extract_style"] <= n

    def test_per_visit_domain_table_shape(self, context):
        ctx = replace(context, plan=replace(context.plan, visits=2, batches_per_domain=2))
        met = stream.run_episode(ctx, self._method(), seed=10)
        table = met.per_visit_domain_error()
        assert table.shape == (2, 8)
        assert np.isfinite(table).all()
