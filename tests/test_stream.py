"""Scenario schedules, domain generation, streams, and the episode engine."""

import collections
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from reservoir_tta import config, stream, tta
from reservoir_tta.clustering import DEFAULT_K_MAX
from reservoir_tta.errors import (
    ConfigurationError,
    EndOfStream,
    GenerationError,
    InputDomainError,
    InsufficientDataError,
    NumericalError,
)
from reservoir_tta.model_reservoir import ModelReservoir
from reservoir_tta.seeding import keyed_rng
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
            [dom], context.blob, context.extractor, 64, 16, seed_key=(10,)
        )[0]
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
        means = stream.domain_style_mean(
            domains, context.blob, context.extractor, 64, 16, seed_key=(11,)
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


class TestRotations:
    """``stream._rotations`` against ``scipy.linalg.expm``, the exponential
    the domains were defined with."""

    WEIGHTS = np.arange(25) / 25  # 0, 0.04, ..., 0.96: a CCC segment's ramp

    @staticmethod
    def _generator(domain):
        return domain.severity * domain.rotation_angle * domain.rotation_gen

    @staticmethod
    def _assert_orthogonal_times_scale(domain):
        scale = np.exp(domain.severity * domain.log_scale)
        rotation = domain.transform / scale
        np.testing.assert_allclose(rotation @ rotation.T, np.eye(scale.size), atol=1e-12)

    def test_candidate_pool_matches_expm(self, context, default_config, monkeypatch):
        # Every candidate make_domains draws for the default config.
        pool = []
        draw = stream._draw_domain

        def kept(*args, **kwargs):
            pool.append(draw(*args, **kwargs))
            return pool[-1]

        monkeypatch.setattr(stream, "_draw_domain", kept)
        plan = default_config.scenario
        stream.make_domains(
            plan.domains, plan.severity, config.DOMAIN_SEED, blob=context.blob,
            extractor=context.extractor, tau=context.tau,
            source_style_mean=context.source_style_mean,
        )
        assert len(pool) >= 8 * plan.domains
        for i, domain in enumerate(pool):
            gen = self._generator(domain)
            np.testing.assert_allclose(
                stream._rotations(gen), expm(gen), rtol=0, atol=1e-12, err_msg=str(i)
            )
            self._assert_orthogonal_times_scale(domain)

    def test_blends_match_expm(self, context):
        for a, b in zip(context.domains, context.domains[1:]):
            for w in self.WEIGHTS:
                blend = stream.blend_domains(a, b, w)
                scale = np.exp(blend.severity * blend.log_scale)
                np.testing.assert_allclose(
                    blend.transform, expm(self._generator(blend)) * scale, rtol=0, atol=1e-12
                )
                self._assert_orthogonal_times_scale(blend)

    def test_stacked_rows_equal_single_calls(self, context):
        a, b = context.domains[:2]
        gens = np.stack([self._generator(stream.blend_domains(a, b, w)) for w in self.WEIGHTS])
        stacked = stream._rotations(gens)
        for i, gen in enumerate(gens):
            assert _bits(stacked[i]) == _bits(stream._rotations(gen)), i

    def test_stacked_blend_rows_equal_single_blends(self, context):
        a, b = context.domains[:2]
        n = self.WEIGHTS.size
        stacks = [
            stream.DomainSpec(*(np.stack([getattr(d, f.name)] * n) for f in fields(d)))
            for d in (a, b)
        ]
        stacked = stream.blend_domains(*stacks, self.WEIGHTS)
        for i, w in enumerate(self.WEIGHTS):
            single = stream.blend_domains(a, b, w)
            for name in ("transform", "offset", "noise_std"):
                assert _bits(getattr(stacked, name)[i]) == _bits(getattr(single, name)), (i, name)


def _fixed_orders(monkeypatch, orders):
    """Make every visit's domain order the given literal one."""
    monkeypatch.setattr(
        stream.ScenarioPlan, "visit_order", lambda self, visit, seed: np.array(orders[visit])
    )


def _rows(schedule):
    """A schedule's (visit, primary, next, weight) rows as Python tuples."""
    return [tuple(col[i].item() for col in schedule) for i in range(schedule[0].size)]


def _replay_keys(schedule, per):
    """Each step's pure-normalised (primary, next, weight, slot): a pure step
    (weight 0, or the same domain at both segment ends) is (primary,
    primary, 0.0, slot)."""
    keys = []
    for step, (_, primary, nxt, w) in enumerate(_rows(schedule)):
        pure, slot = w == 0.0 or primary == nxt, step % per
        keys.append((primary, primary, 0.0, slot) if pure else (primary, nxt, w, slot))
    return keys


# The per-step stages of the engine, in their order within a step.
_ROUTING = ("offer", "detect", "update_centroids", "soft_assign_vector")
_ADAPTATION = ("tta_step", "write_active", "ensemble_params")


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

    def test_out_of_range_step(self, context):
        ds = stream.DomainStream(_context_with(context, visits=1, batches_per_domain=2), 0)
        n = ds.context.plan.total_steps
        for step in range(n):
            ds.next_batch(step)
        # A numpy index of -1 would quietly serve the last step.
        for step in (-1, n):
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
        batches = [ds.next_batch(step) for step in range(again + 1)]
        _assert_same_batch(batches[0], batches[again])

    def test_only_the_next_step_is_served(self, context):
        ctx = _context_with(context, visits=2, batches_per_domain=2)
        ds = stream.DomainStream(ctx, seed=2)
        n = ctx.plan.total_steps
        for step in range(n):
            # A step ahead of or behind the next one raises, and so does a
            # repeat; the stream still serves its next step afterwards.
            for wrong in (step + 1, step - 1):
                with pytest.raises(EndOfStream):
                    ds.next_batch(wrong)
            _assert_same_batch(ds.next_batch(step), _prepared_batch(ctx, 2, step))
            with pytest.raises(EndOfStream):
                ds.next_batch(step)

    @given(
        kind=st.sampled_from(stream.SCENARIO_KINDS),
        domains=st.integers(1, 3),
        visits=st.integers(1, 3),
        batches_per_domain=st.integers(1, 4),
        seed=st.integers(0, 2**32 - 1),
        styles=st.booleans(),
    )
    @settings(max_examples=30, deadline=None)
    def test_every_served_batch_is_its_fresh_draw_and_read_only(
        self, context, kind, domains, visits, batches_per_domain, seed, styles
    ):
        ctx = _context_with(
            context, kind=kind, domains=domains, visits=visits,
            batches_per_domain=batches_per_domain, batch_size=8,
        )
        ds = stream.DomainStream(ctx, seed, styles=styles)
        for step in range(ctx.plan.total_steps):
            batch = ds.next_batch(step)
            _assert_same_batch(batch, _prepared_batch(ctx, seed, step, styles))
            for f in fields(stream.StreamBatch):
                array = getattr(batch, f.name)
                assert array is None or not array.flags.writeable, (step, f.name)

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

    def test_stacked_distortion_rows_equal_single_calls(self, context):
        # A stack of noisy and noise-free domains: each slice has the bits of
        # its own domain's distortion, noise only where the domain has some
        # positive noise scale. The last domain has none, only negative ones,
        # so that adding its noise would show.
        a, b = context.domains[:2]
        domains = [a, replace(a, severity=0.0), stream.blend_domains(a, b, 0.5),
                   replace(b, noise_base=-b.noise_base)]
        rng = np.random.default_rng(31)
        inputs, noise = rng.standard_normal((2, len(domains), 16, a.offset.size))
        stacked = stream._distort(
            inputs, noise, *(np.stack([getattr(d, name) for d in domains])
                             for name in ("transform", "offset", "noise_std"))
        )
        for i, domain in enumerate(domains):
            want = inputs[i] @ domain.transform.T + domain.offset
            if np.any(domain.noise_std > 0):
                want = want + (0.0 + domain.noise_std * noise[i])
            assert (i % 2 == 0) == np.any(domain.noise_std > 0), i
            assert _bits(stacked[i]) == _bits(want), i

    @pytest.mark.parametrize("styles", [True, False])
    def test_ccc_batches_match_fresh_draws(self, context, styles):
        ctx = _context_with(context, kind="ccc", visits=3, batches_per_domain=4)
        ds = stream.DomainStream(ctx, seed=9, styles=styles)
        keys = _replay_keys(ds.schedule, 4)
        served, first = [], {}
        for step in range(ctx.plan.total_steps):
            batch = ds.next_batch(step)
            _assert_same_batch(batch, _prepared_batch(ctx, 9, step, styles))
            # A step is served the batch of the first step with its key,
            # pure or blended; a new key's batch is prepared afresh.
            assert batch is first.setdefault(keys[step], batch), step
            served.append(batch)
        assert len({id(b) for b in served}) == len(first)
        # Pure: slot 0 of each domain, plus slots 1-3 of the stream's last
        # segment.
        assert sum(key[2] == 0.0 for key in first) == 8 + 3

    def test_replay_table_keeps_pure_batches_a_later_visit_draws(self, context, monkeypatch):
        _fixed_orders(monkeypatch, [[2, 0, 1], [1, 2, 0]])
        ctx = _context_with(context, kind="ccc", domains=3, visits=2, batches_per_domain=3)
        ds = stream.DomainStream(ctx, seed=8)
        batches = [ds.next_batch(step) for step in range(ctx.plan.total_steps)]
        # The weight-0 slots of visit 0 (steps 0, 3, 6) recur on visit 1
        # (steps 12, 15, 9), and so does the 2 -> 0 blend of steps 1-2
        # (steps 13-14): they are served the same batch objects. Every
        # other step is prepared afresh, among them steps 16-17: the
        # stream's last segment is pure, but visit 0 blended those slots.
        replays = {9: 6, 12: 0, 13: 1, 14: 2, 15: 3}
        for step, batch in enumerate(batches):
            _assert_same_batch(batch, _prepared_batch(ctx, 8, step))
            if step in replays:
                assert batch is batches[replays[step]], step
            else:
                assert not any(batch is b for b in batches[:step]), step

    @pytest.mark.parametrize("visits", [2, 8])
    def test_ccc_table_has_a_row_per_domain_and_distinct_blend(self, context, visits):
        ctx = _context_with(context, kind="ccc", visits=visits, batches_per_domain=4)
        ds = stream.DomainStream(ctx, seed=5)
        blends = {key[:3] for key in _replay_keys(ds.schedule, 4) if key[2] != 0.0}
        rows = ds._table[0].shape[0]
        d, per = ctx.plan.domains, ctx.plan.batches_per_domain
        assert rows == d + len(blends)
        # The bound depends on the domain set, not on the number of visits.
        assert rows <= d + d * (d - 1) * (per - 1)

    @pytest.mark.parametrize("table_rows", [None, 7])
    def test_chunked_table_equals_one_blend(self, context, monkeypatch, table_rows):
        # Blended in chunks of the default size, or of 7 rows, the table has
        # the bits of one blend over all its distinct (primary, next, weight).
        if table_rows:
            monkeypatch.setattr(stream, "_TABLE_ROWS", table_rows)
        ctx = _context_with(context, kind="ccc", visits=2)
        ds = stream.DomainStream(ctx, seed=1, styles=False)
        rows = sorted({key[:3] for key in _replay_keys(ds.schedule, ctx.plan.batches_per_domain)})
        assert len(rows) > stream._TABLE_ROWS
        a, b = (
            stream.DomainSpec(
                *(np.stack([getattr(ctx.domains[r[end]], f.name) for r in rows])
                  for f in fields(stream.DomainSpec))
            )
            for end in (0, 1)
        )
        want = stream.blend_domains(a, b, np.array([r[2] for r in rows]))
        for got, name in zip(ds._table, ("transform", "offset", "noise_std")):
            assert _bits(got) == _bits(getattr(want, name)), name

    @pytest.mark.parametrize("visits", [1, 4])
    def test_replay_table_keeps_only_recurring_keys(self, context, visits):
        ctx = _context_with(context, kind="ccc", visits=visits, batches_per_domain=4)
        ds = stream.DomainStream(ctx, seed=7)
        first, last = {}, {}
        for step, key in enumerate(_replay_keys(ds.schedule, 4)):
            first.setdefault(key, step)
            last[key] = step
        table_key = {k: (ds._rows[first[k]].item(), k[3]) for k in first}
        n = ctx.plan.total_steps
        for step in range(n):
            ds.next_batch(step)
            # Held after this step: every key first seen at or before the end
            # of the current block, until its last step is done.
            block_end = min(step - step % stream._BLOCK_STEPS + stream._BLOCK_STEPS, n) - 1
            held = {table_key[k] for k in first if first[k] <= block_end and step < last[k]}
            assert set(ds._replay) == held, step
        assert ds._replay == {}


class TestStepWork:
    """Each step's batch work is done once: one batch per step, one style
    and feature pass per distinct replayed batch, and every visit's order
    drawn once per stream."""

    def test_reservoir_episode_counts(self, context, monkeypatch):
        ctx = replace(context, plan=replace(context.plan, visits=2, batches_per_domain=2))
        rows = {"features": 0, "style": 0}
        prepared = collections.Counter()
        served = []
        steps = []
        features = tta.AdaptableClassifier.features
        next_batch = stream.DomainStream.next_batch
        prepare = stream.DomainStream._prepare
        extract = stream.extract_style

        def counted_features(self, batch):
            rows["features"] += len(batch)
            return features(self, batch)

        def counted_style(batch, extractor):
            rows["style"] += len(batch)
            return extract(batch, extractor)

        def counted_prepare(self, fresh):
            prepared.update(_replay_keys(self.schedule, self.context.plan.batches_per_domain)[s]
                            for s in fresh)
            prepare(self, fresh)

        def kept_next_batch(self, step):
            steps.append(step)
            batch = next_batch(self, step)
            served.extend((batch.labels, batch.features, batch.style))
            return batch

        monkeypatch.setattr(tta.AdaptableClassifier, "features", counted_features)
        monkeypatch.setattr(stream, "extract_style", counted_style)
        monkeypatch.setattr(stream.DomainStream, "_prepare", counted_prepare)
        monkeypatch.setattr(stream.DomainStream, "next_batch", kept_next_batch)
        method = tta.MethodConfig(name="m", kind="filtered_fisher", reservoir=True)
        met = stream.run_episode(ctx, method, seed=11)
        n = ctx.plan.total_steps
        assert met.detected_domains[-1] > 0
        assert steps == list(range(n))
        # A CSC visit draws every (domain, slot) batch once, in stacks of
        # at most a block; later visits replay them.
        keys = set(_replay_keys(ctx.plan.schedule(11), ctx.plan.batches_per_domain))
        assert set(prepared) == keys and set(prepared.values()) == {1}
        assert rows["features"] == rows["style"] == ctx.plan.steps_per_visit
        # Every array the stream serves is read-only.
        for a in served:
            with pytest.raises(ValueError):
                a[0] = 0

    def test_ccc_episode_prepares_each_distinct_key_once(self, context, monkeypatch):
        ctx = _context_with(context, kind="ccc", visits=4, batches_per_domain=3)
        rows, calls = collections.Counter(), collections.Counter()
        prepared = collections.Counter()
        features = tta.AdaptableClassifier.features
        prepare = stream.DomainStream._prepare
        extract = stream.extract_style

        def counted_features(self, batch):
            rows["features"] += len(batch)
            calls["features"] += 1
            return features(self, batch)

        def counted_style(batch, extractor):
            rows["style"] += len(batch)
            calls["style"] += 1
            return extract(batch, extractor)

        def counted_prepare(self, fresh):
            prepared.update(_replay_keys(self.schedule, 3)[s] for s in fresh)
            prepare(self, fresh)

        monkeypatch.setattr(tta.AdaptableClassifier, "features", counted_features)
        monkeypatch.setattr(stream, "extract_style", counted_style)
        monkeypatch.setattr(stream.DomainStream, "_prepare", counted_prepare)
        method = tta.MethodConfig(name="m", kind="filtered_fisher", reservoir=True)
        stream.run_episode(ctx, method, seed=11)
        keys = set(_replay_keys(ctx.plan.schedule(11), 3))
        assert len(keys) < ctx.plan.total_steps
        assert set(prepared) == keys and set(prepared.values()) == {1}
        assert rows["features"] == rows["style"] == len(keys)
        # One stacked pass per block of steps at most.
        blocks = -(-ctx.plan.total_steps // stream._BLOCK_STEPS)
        assert calls["features"] == calls["style"] <= blocks

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
        _, primary, nxt, weight = ds.schedule
        for step, batch in enumerate(batches):
            _assert_same_batch(batch, _prepared_batch(ctx, 21, step))
            if weight[step] == 0.0 or primary[step] == nxt[step]:
                key = (primary[step], step % ctx.plan.batches_per_domain)
                assert batch is first_of.setdefault(key, batch), step
        # Every CSC and CDC batch recurs on a later visit; CCC blends most of
        # its batches, which are served once.
        distinct = len({id(batch) for batch in batches})
        if kind != "ccc":
            assert distinct == ctx.plan.steps_per_visit
        else:
            assert ctx.plan.steps_per_visit < distinct < ctx.plan.total_steps

    @pytest.mark.parametrize("kind", ["csc", "cdc", "ccc"])
    def test_construction_draws_every_key_and_serving_draws_none(
        self, context, default_rng_calls, kind
    ):
        ctx = _context_with(
            context, kind=kind, domains=3, visits=2, batches_per_domain=4, batch_size=8
        )
        ds = stream.DomainStream(ctx, seed=13)
        # One generator per visit's order when the order is reshuffled, then
        # one per (domain, slot) key.
        orders = [] if kind == "csc" else [(13, v) for v in range(ctx.plan.visits)]
        batches = [(13, stream._TAG_STREAM, d, s) for d in range(3) for s in range(4)]
        keys = [tuple(key.tolist()) for (key,) in default_rng_calls]
        assert keys == orders + batches
        default_rng_calls.clear()
        for step in range(ctx.plan.total_steps):
            ds.next_batch(step)
        assert default_rng_calls == []


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


def _per_step_episode(context, method, seed, trace=False):
    """The episode engine one step at a time: each step's batch distorted,
    featurized and styled alone (``_prepared_batch``) and predicted alone,
    the reference for ``run_episode``'s stacked passes."""
    plan = context.plan
    k_max = DEFAULT_K_MAX if method.reservoir else 1
    route = k_max > 1 or trace
    n = plan.total_steps
    reservoir = stream.StyleReservoir(
        min(context.cluster.reservoir_size, n),
        context.extractor.style_dim,
        keyed_rng(seed, stream._TAG_RESERVOIR),
    )
    centroids = stream.CentroidSet(context.source_style_mean, k_max=k_max)
    model = context.model
    models = ModelReservoir(model.source_params)
    visits, primary, nxt, weight = plan.schedule(seed)
    assigned = np.zeros(n, dtype=np.int64)
    errors = np.zeros(n)
    detected = np.zeros(n, dtype=np.int64)
    drift = np.zeros(n)
    min_distance = np.zeros(n) if route else None
    soft = np.zeros((n, k_max)) if route else None
    q, k_star = np.ones(1), 0
    for step in range(n):
        batch = _prepared_batch(context, seed, step, styles=route)
        feats, s = batch.features, batch.style
        if route:
            reservoir.offer(s)
            decision = centroids.detect(s, context.tau)
            if decision.kind == "new_domain":
                models.init_new_model(lambda p: tta.predict(model, p, feats))
            stream.update_centroids(centroids, reservoir)
            q = stream.soft_assign_vector(s, centroids)
            k_star = int(np.argmax(q))
            min_distance[step] = decision.distance
            soft[step, : q.size] = q
        new_params = tta.tta_step(
            model, models.entry(k_star), feats, method, context.fisher_omega
        )
        models.write_active(k_star, new_params)
        theta = models.ensemble_params(q)
        predicted = tta.predict(model, theta, feats).argmax(axis=1)
        assigned[step] = k_star
        errors[step] = float((predicted != batch.labels).mean())
        detected[step] = centroids.count - 1
        drift[step] = float(np.linalg.norm(theta - model.source_params))
    return stream.EpisodeMetrics(
        visits, np.where(weight < 0.5, primary, nxt), assigned, errors, detected, drift,
        min_distance, soft,
    )


class TestStackedEngineOracle:
    """Preparing batches a block ahead and predicting a block behind changes
    no bit of an episode: every column equals the per-step engine's."""

    @pytest.mark.parametrize("steps", ["one", "block-1", "block+1", "default"])
    @pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("reservoir", [False, True], ids=["single", "reservoir"])
    @pytest.mark.parametrize("kind", ["csc", "cdc", "ccc"])
    def test_episode_equals_per_step_engine(
        self, context, monkeypatch, kind, reservoir, trace, steps
    ):
        # 27 steps of 3 domains: at the default block size, a full block and
        # an 11-step last one; else a block sized so that the episode is one
        # step short of a block or one step past it.
        shape = (1, 1, 1) if steps == "one" else (3, 3, 3)
        ctx = _context_with(
            context, kind=kind, domains=shape[0], visits=shape[1], batches_per_domain=shape[2]
        )
        n = ctx.plan.total_steps
        if steps in ("block-1", "block+1"):
            block = n + 1 if steps == "block-1" else n - 1
            monkeypatch.setattr(stream, "_BLOCK_STEPS", block)
        method = tta.MethodConfig(name="m", kind="filtered_fisher", reservoir=reservoir, lr=0.05)
        got = stream.run_episode(ctx, method, seed=17, trace=trace)
        want = _per_step_episode(ctx, method, seed=17, trace=trace)
        if reservoir and steps != "one":
            assert got.detected_domains[-1] > 0
        for f in fields(stream.EpisodeMetrics):
            assert _bits(getattr(got, f.name)) == _bits(getattr(want, f.name)), f.name

    @pytest.mark.parametrize("later_failure", [False, True, MemoryError])
    def test_deferred_prediction_keeps_its_error(self, context, monkeypatch, later_failure):
        # Step 3's ensembled parameters overflow the logits. Its prediction
        # waits for the end of its block, yet the episode still fails with
        # its error, also when a later step of the block fails first, with a
        # library error (True) or any other exception.
        ctx = _context_with(context, visits=1, batches_per_domain=3)
        assert 3 < 5 < stream._BLOCK_STEPS < ctx.plan.total_steps
        ensemble, tta_step = ModelReservoir.ensemble_params, tta.tta_step
        steps = []

        def overflowing(self, q):
            theta = ensemble(self, q)
            return np.full_like(theta, 1e308) if len(steps) == 4 else theta

        def failing(*args):
            steps.append(None)
            if later_failure is True and len(steps) == 6:
                raise NumericalError("TTA gradient is non-finite")
            if later_failure and len(steps) == 6:
                raise later_failure()
            return tta_step(*args)

        monkeypatch.setattr(ModelReservoir, "ensemble_params", overflowing)
        monkeypatch.setattr(tta, "tta_step", failing)
        method = tta.MethodConfig(name="m", kind="entropy")
        with np.errstate(over="ignore", invalid="ignore"):
            with pytest.raises(NumericalError, match="non-finite logits"):
                stream.run_episode(ctx, method, seed=18)
        assert len(steps) == (6 if later_failure else stream._BLOCK_STEPS)


class TestRunEpisode:
    def _method(self, reservoir=True, kind="filtered_fisher"):
        return tta.MethodConfig(name="m", kind=kind, reservoir=reservoir)

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
        # The trace routes a single-model episode; a reservoir episode routes
        # anyway, and only an unrouted episode leaves the trace columns None.
        ctx = _context_with(context, kind=kind, visits=3, batches_per_domain=3)
        method = self._method(reservoir=reservoir, kind="entropy")
        traced = stream.run_episode(ctx, method, seed=15, trace=True)
        untraced = stream.run_episode(ctx, method, seed=15)
        trace_columns = ("min_distance", "soft_assignment")
        n, k_max = ctx.plan.total_steps, DEFAULT_K_MAX if reservoir else 1
        assert traced.min_distance.shape == (n,)
        assert traced.soft_assignment.shape == (n, k_max)
        np.testing.assert_allclose(traced.soft_assignment.sum(axis=1), 1.0)
        for f in fields(stream.EpisodeMetrics):
            if f.name in trace_columns:
                assert (getattr(untraced, f.name) is None) == (not reservoir), f.name
            else:
                assert _bits(getattr(traced, f.name)) == _bits(getattr(untraced, f.name)), f.name

    @pytest.mark.parametrize("kind", ["csc", "cdc", "ccc"])
    def test_untraced_routed_episode_keeps_its_routing_columns(self, context, kind):
        ctx = _context_with(context, kind=kind, visits=2, batches_per_domain=3)
        method = self._method(reservoir=True, kind="entropy")
        traced = stream.run_episode(ctx, method, seed=19, trace=True)
        untraced = stream.run_episode(ctx, method, seed=19)
        assert untraced.detected_domains[-1] > 0
        for name in ("assigned_models", "detected_domains", "min_distance", "soft_assignment"):
            assert _bits(getattr(untraced, name)) == _bits(getattr(traced, name)), name

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

    @pytest.mark.parametrize(
        "kind, reservoir, trace, stages",
        [
            ("csc", True, False, _ROUTING + _ADAPTATION),
            ("ccc", False, True, _ROUTING + _ADAPTATION),
            ("ccc", False, False, _ADAPTATION),
        ],
        ids=["routed-csc", "traced-ccc", "unrouted-ccc"],
    )
    def test_each_step_calls_each_stage_once(
        self, context, monkeypatch, kind, reservoir, trace, stages
    ):
        # A step runs from one next_batch call to the next; a benchmark cuts
        # its per-step segments there and times the stages inside them.
        ctx = _context_with(context, kind=kind, visits=2, batches_per_domain=3)
        log = []

        def record(owner, name):
            original = getattr(owner, name)

            def recorded(*args, **kwargs):
                log.append(name)
                return original(*args, **kwargs)

            monkeypatch.setattr(owner, name, recorded)

        record(stream.DomainStream, "next_batch")
        record(stream.StyleReservoir, "offer")
        record(stream.CentroidSet, "detect")
        record(stream, "update_centroids")
        record(stream, "soft_assign_vector")
        record(tta, "tta_step")
        record(ModelReservoir, "write_active")
        record(ModelReservoir, "ensemble_params")
        met = stream.run_episode(ctx, self._method(reservoir=reservoir), seed=17, trace=trace)
        per_step = []
        for name in log:
            if name == "next_batch":
                per_step.append([])
            else:
                per_step[-1].append(name)
        assert per_step == [list(stages)] * ctx.plan.total_steps
        assert (met.detected_domains[-1] > 0) == reservoir

    def test_per_visit_domain_table_shape(self, context):
        ctx = replace(context, plan=replace(context.plan, visits=2, batches_per_domain=2))
        met = stream.run_episode(ctx, self._method(), seed=10)
        table = met.per_visit_domain_error()
        assert table.shape == (2, 8)
        assert np.isfinite(table).all()
