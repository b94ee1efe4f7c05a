"""Scenario schedules, domain generation, streams, and the episode engine."""

from dataclasses import replace

import numpy as np
import pytest

from reservoir_tta import config, stream, tta
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
        model, params = tta.train_source(1, (ds.inputs, ds.labels), epochs=8, lr=0.05)
        held_x, held_y = ds.blob.sample(np.random.default_rng(5), 1000)
        acc = (tta.predict(model, params, held_x).argmax(axis=1) == held_y).mean()
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
        (dom,) = stream.make_domains(1, 0.0, seed=3, blob=context.blob)
        np.testing.assert_allclose(dom.transform, np.eye(context.blob.input_dim), atol=1e-12)
        np.testing.assert_array_equal(dom.offset, 0.0)
        np.testing.assert_array_equal(dom.noise_std, 0.0)
        # Style of the identity domain sits below tau from the source mean.
        m = stream.domain_style_mean(
            dom, context.blob, context.extractor, 64, 16, seed_key=(10,)
        )
        assert np.linalg.norm(m - context.source_style_mean) < context.calibration.tau

    def test_transforms_invertible(self, context):
        for d in context.domains:
            s = np.linalg.svd(d.transform, compute_uv=False)
            assert s.min() > 1e-4  # well away from singular

    def test_separation_exceeds_tau(self, context, default_config):
        # 15 domains: all pairwise style-mean distances above the threshold.
        domains = stream.make_domains(
            15,
            default_config.scenario.severity,
            seed=4242,
            blob=context.blob,
            extractor=context.extractor,
            tau=context.calibration.tau,
            source_style_mean=context.source_style_mean,
            min_separation_factor=1.0,
        )
        means = np.stack(
            [
                stream.domain_style_mean(
                    d, context.blob, context.extractor, 64, 16, seed_key=(11, d.id)
                )
                for d in domains
            ]
        )
        dists = np.linalg.norm(means[:, None] - means[None, :], axis=2)
        iu = np.triu_indices(15, k=1)
        assert dists[iu].size == 105
        assert np.all(dists[iu] > context.calibration.tau)

    def test_same_seed_identical_specs(self, context):
        a = stream.make_domains(4, 0.8, seed=77, blob=context.blob)
        b = stream.make_domains(4, 0.8, seed=77, blob=context.blob)
        for da, db in zip(a, b):
            np.testing.assert_array_equal(da.transform, db.transform)
            np.testing.assert_array_equal(da.noise_std, db.noise_std)

    def test_unreachable_separation_raises(self, context):
        with pytest.raises(GenerationError):
            stream.make_domains(
                8,
                0.01,  # severity too small for any separation
                seed=5,
                blob=context.blob,
                extractor=context.extractor,
                tau=context.calibration.tau,
                source_style_mean=context.source_style_mean,
                max_retries=2,
            )


class TestScenarioPlan:
    def test_csc_fixed_cycle(self):
        plan = _small_plan()
        seq = [plan.segment_at(s, 0)[1] for s in range(plan.total_steps)]
        assert seq == [0, 0, 1, 1, 2, 2, 0, 0, 1, 1, 2, 2]

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

    def test_ccc_blend_ramps_within_segment(self):
        plan = _small_plan(kind="ccc", batches_per_domain=4)
        _, p0, n0, w0 = plan.segment_at(0, 0)
        assert w0 == 0.0
        _, p1, n1, w1 = plan.segment_at(1, 0)
        assert w1 == pytest.approx(0.25)
        assert n1 != p1 or plan.domains == 1

    def test_out_of_range_step(self):
        plan = _small_plan()
        with pytest.raises(EndOfStream):
            plan.segment_at(plan.total_steps, 0)
        with pytest.raises(EndOfStream):
            plan.segment_at(-1, 0)

    def test_invalid_plan(self):
        with pytest.raises(ConfigurationError):
            _small_plan(kind="abc")
        with pytest.raises(ConfigurationError):
            _small_plan(batch_size=1)


class TestDomainStream:
    def test_recurrences_replay_identical_data(self, context):
        plan = replace(context.plan, visits=2, batches_per_domain=3)
        ds = stream.DomainStream(plan, context.domains, context.blob, seed=3)
        first = ds.next_batch(0)
        again = ds.next_batch(plan.steps_per_visit)  # same domain slot, visit 2
        np.testing.assert_array_equal(first.inputs, again.inputs)
        np.testing.assert_array_equal(first.labels, again.labels)
        assert first.visit == 0 and again.visit == 1

    def test_hidden_id_matches_schedule(self, context):
        plan = replace(context.plan, visits=1)
        ds = stream.DomainStream(plan, context.domains, context.blob, seed=4)
        for step in (0, plan.batches_per_domain, 3 * plan.batches_per_domain):
            batch = ds.next_batch(step)
            assert batch.domain_id == plan.segment_at(step, 4)[1]

    def test_ccc_endpoints_match_pure_domains(self, context):
        # Style means of segment-start CCC batches sit within tau/10 of the
        # pure domain's style mean, over 100 batches each.
        plan = replace(context.plan, kind="ccc", visits=2)
        ds = stream.DomainStream(plan, context.domains, context.blob, seed=6)
        start = plan.batches_per_domain  # second segment start, w = 0
        _, dom_idx, _, w = plan.segment_at(start, 6)
        assert w == 0.0
        dom = context.domains[dom_idx]
        styles = []
        for i in range(100):
            r = np.random.default_rng((61, i))
            x, _ = context.blob.sample(r, plan.batch_size)
            styles.append(extract_style(dom.apply(x, r), context.extractor))
        pure_mean = np.mean(styles, axis=0)
        ccc_styles = []
        for i in range(100):
            r = np.random.default_rng((62, i))
            x, _ = context.blob.sample(r, plan.batch_size)
            blended = stream.blend_domains(dom, dom, 0.0)
            ccc_styles.append(extract_style(blended.apply(x, r), context.extractor))
        dist = np.linalg.norm(np.mean(ccc_styles, axis=0) - pure_mean)
        assert dist < context.calibration.tau / 10

    def test_blend_weight_zero_is_pure_a(self, context):
        a, b = context.domains[0], context.domains[1]
        blended = stream.blend_domains(a, b, 0.0)
        np.testing.assert_allclose(blended.transform, a.transform, atol=1e-12)
        np.testing.assert_array_equal(blended.offset, a.offset)


class TestRunEpisode:
    def _method(self, reservoir=True, kind="filtered_fisher"):
        return stream.MethodConfig(name="m", kind=kind, reservoir=reservoir)

    def test_zero_visits_empty_metrics(self, context):
        plan = replace(context.plan, visits=0)
        met = stream.run_episode(context, self._method(), seed=1, plan=plan)
        assert met.step_count == 0
        assert met.per_visit_error().size == 0

    def test_episode_determinism(self, context):
        plan = replace(context.plan, visits=1, batches_per_domain=3)
        a = stream.run_episode(context, self._method(), seed=5, plan=plan)
        b = stream.run_episode(context, self._method(), seed=5, plan=plan)
        np.testing.assert_array_equal(a.per_batch_error, b.per_batch_error)
        np.testing.assert_array_equal(a.predictions, b.predictions)
        np.testing.assert_array_equal(a.drift_norm, b.drift_norm)

    def test_reservoir_centroid_alignment_every_step(self, context):
        plan = replace(context.plan, visits=2, batches_per_domain=2)
        seen = []

        def watch(rec):
            seen.append((rec.centroid_count, rec.model_count))

        stream.run_episode(context, self._method(), seed=6, plan=plan, step_callback=watch)
        assert len(seen) == plan.total_steps
        assert all(c == m for c, m in seen)

    def test_isolation_of_inactive_entries(self, context, monkeypatch):
        plan = replace(context.plan, visits=1, batches_per_domain=2)
        original = ModelReservoir.write_active
        written = []

        def checked(self, index, new_params):
            inactive = np.arange(self.count) != index
            before = self.entries_matrix()[inactive].tobytes()
            original(self, index, new_params)
            assert self.entries_matrix()[inactive].tobytes() == before
            written.append(index)

        monkeypatch.setattr(ModelReservoir, "write_active", checked)
        active = []
        stream.run_episode(
            context, self._method(), seed=7, plan=plan,
            step_callback=lambda rec: active.append(rec.active_index),
        )
        assert written == active
        assert len(set(active)) > 1

    def test_hidden_ids_influence_only_metrics(self, context, monkeypatch):
        plan = replace(context.plan, visits=1, batches_per_domain=2)
        base = stream.run_episode(context, self._method(), seed=8, plan=plan)

        original = stream.DomainStream.next_batch

        def zeroed(self, step):
            batch = original(self, step)
            return stream.StreamBatch(
                inputs=batch.inputs, labels=batch.labels, domain_id=0, visit=batch.visit
            )

        monkeypatch.setattr(stream.DomainStream, "next_batch", zeroed)
        masked = stream.run_episode(context, self._method(), seed=8, plan=plan)
        np.testing.assert_array_equal(base.predictions, masked.predictions)
        np.testing.assert_array_equal(base.per_batch_error, masked.per_batch_error)
        assert set(masked.true_domains) == {0}

    def test_baseline_runs_single_model(self, context):
        plan = replace(context.plan, visits=1, batches_per_domain=2)
        met = stream.run_episode(
            context, self._method(reservoir=False, kind="entropy"), seed=9, plan=plan
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
        method = stream.MethodConfig(name="tent", kind="entropy", reservoir=False)
        met = stream.run_episode(ctx, method, seed=1)
        pv = met.per_visit_error()
        assert pv.size == 3
        assert pv[0] >= pv[1] >= pv[2]

    def test_per_visit_domain_table_shape(self, context):
        plan = replace(context.plan, visits=2, batches_per_domain=2)
        met = stream.run_episode(context, self._method(), seed=10, plan=plan)
        table = met.per_visit_domain_error()
        assert table.shape == (2, 8)
        assert np.isfinite(table).all()
