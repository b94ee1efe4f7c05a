"""Parameter pool: MI-based init, selection, ensembling, per-entry writes."""

import numpy as np
import pytest

from reservoir_tta.errors import InputDomainError, NumericalError
from reservoir_tta.model_reservoir import ModelReservoir, select_active


def _entries(res):
    """Every entry's parameters as a ``(count, dim)`` matrix, read through
    the public per-entry copy."""
    return np.stack([res.entry(i) for i in range(res.count)])


def _uniform_predictor(classes):
    return lambda params: np.full((4, classes), 1.0 / classes)


class TestSelectActive:
    def test_plain_argmax(self):
        assert select_active(np.array([0.1, 0.7, 0.2])) == 1

    def test_tie_goes_to_lowest_index(self):
        assert select_active(np.array([0.5, 0.5])) == 0

    def test_matches_linear_scan_on_random_simplex(self):
        rng = np.random.default_rng(17)
        for _ in range(1000):
            raw = rng.random(16)
            q = raw / raw.sum()
            best, best_idx = -1.0, -1
            for i, v in enumerate(q):
                if v > best:
                    best, best_idx = v, i
            assert select_active(q) == best_idx

    def test_rejects_empty(self):
        with pytest.raises(InputDomainError):
            select_active(np.array([]))


class TestInitNewModel:
    def test_singleton_clones_source(self):
        res = ModelReservoir(np.array([1.0, 2.0, 3.0]))
        out = res.init_new_model(_uniform_predictor(3))
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])
        assert res.count == 2

    def test_prefers_confident_and_diverse_predictions(self):
        # Model A: uniform rows (MI loss 0); model B: one-hot balanced rows
        # (MI loss -ln C, the minimum) -> B is cloned.
        res = ModelReservoir(np.zeros(2))
        res.write_active(0, np.array([10.0, 0.0]))  # entry 0 = "A"
        res.init_new_model(_uniform_predictor(4))  # appends A copy
        res.write_active(1, np.array([0.0, 20.0]))  # entry 1 = "B"

        def predictor(params):
            if params[0] > params[1]:  # A
                return np.full((4, 4), 0.25)
            return np.eye(4)  # B: one-hot, balanced

        cloned = res.init_new_model(predictor)
        np.testing.assert_array_equal(cloned, [0.0, 20.0])

    def test_matches_exhaustive_oracle(self):
        from reservoir_tta.clustering import mi_loss

        rng = np.random.default_rng(23)
        res = ModelReservoir(rng.standard_normal(6))
        res.init_new_model(_uniform_predictor(3))
        res.write_active(1, rng.standard_normal(6))
        res.init_new_model(_uniform_predictor(3))
        res.write_active(2, rng.standard_normal(6))

        tables = {}
        for idx in range(3):
            raw = rng.random((5, 3)) + 0.05
            tables[idx] = raw / raw.sum(axis=1, keepdims=True)
        entries = _entries(res)

        def predictor(params):
            for idx in range(3):
                if np.array_equal(params, entries[idx]):
                    return tables[idx]
            raise AssertionError("unknown entry")

        cloned = res.init_new_model(predictor)
        oracle = min(range(3), key=lambda i: mi_loss(tables[i]))
        np.testing.assert_array_equal(cloned, entries[oracle])

    def test_nonfinite_prediction_names_entry(self):
        res = ModelReservoir(np.zeros(2))
        with pytest.raises(NumericalError, match="entry 0"):
            res.init_new_model(lambda p: np.full((2, 2), np.nan))


class TestEnsembleParams:
    def test_one_hot_returns_exact_entry(self):
        rng = np.random.default_rng(3)
        res = ModelReservoir(rng.standard_normal(5))
        res.init_new_model(_uniform_predictor(2))
        res.write_active(1, rng.standard_normal(5))
        q = np.array([0.0, 1.0])
        np.testing.assert_array_equal(res.ensemble_params(q), res.entry(1))

    def test_opposite_entries_cancel(self):
        theta = np.array([1.0, -2.0, 3.0])
        res = ModelReservoir(theta)
        res.init_new_model(_uniform_predictor(2))
        res.write_active(1, -theta)
        np.testing.assert_allclose(
            res.ensemble_params(np.array([0.5, 0.5])), np.zeros(3), atol=1e-16
        )

    def test_matches_accumulation_oracle(self):
        rng = np.random.default_rng(4)
        res = ModelReservoir(rng.standard_normal(7))
        for _ in range(3):
            res.init_new_model(_uniform_predictor(2))
        for i in range(4):
            res.write_active(i, rng.standard_normal(7))
        raw = rng.random(4)
        q = raw / raw.sum()
        acc = np.zeros(7)
        for i in range(4):
            acc += q[i] * res.entry(i)
        np.testing.assert_allclose(res.ensemble_params(q), acc, rtol=1e-12)

    def test_length_mismatch(self):
        res = ModelReservoir(np.zeros(3))
        with pytest.raises(InputDomainError):
            res.ensemble_params(np.array([0.5, 0.5]))

    def test_prediction_path_leaves_entries_untouched(self):
        rng = np.random.default_rng(5)
        res = ModelReservoir(rng.standard_normal(4))
        res.init_new_model(_uniform_predictor(2))
        before = _entries(res)
        theta = res.ensemble_params(np.array([0.3, 0.7]))
        theta += 100.0  # mutating the result must not touch the pool
        np.testing.assert_array_equal(_entries(res), before)


class TestWriteActive:
    def test_write_then_read(self):
        res = ModelReservoir(np.zeros(3))
        for _ in range(2):
            res.init_new_model(_uniform_predictor(2))
        new = np.array([9.0, 9.0, 9.0])
        res.write_active(2, new)
        np.testing.assert_array_equal(res.entry(2), new)

    def test_other_entries_bitwise_unchanged(self):
        rng = np.random.default_rng(6)
        res = ModelReservoir(rng.standard_normal(4))
        for _ in range(2):
            res.init_new_model(_uniform_predictor(2))
        before = _entries(res)
        res.write_active(1, rng.standard_normal(4))
        after = _entries(res)
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[2], before[2])

    def test_replay_oracle(self):
        rng = np.random.default_rng(7)
        source = rng.standard_normal(3)
        res = ModelReservoir(source)
        for _ in range(3):
            res.init_new_model(_uniform_predictor(2))
        writes = [(int(rng.integers(0, 4)), rng.standard_normal(3)) for _ in range(40)]
        for idx, params in writes:
            res.write_active(idx, params)
        # Replay oracle: last write per index wins, source entry otherwise.
        expect = {i: source for i in range(4)}
        for idx, params in writes:
            expect[idx] = params
        for i in range(4):
            np.testing.assert_array_equal(res.entry(i), expect[i])

    def test_out_of_range(self):
        res = ModelReservoir(np.zeros(2))
        with pytest.raises(InputDomainError):
            res.write_active(1, np.zeros(2))
        with pytest.raises(InputDomainError):
            res.write_active(-1, np.zeros(2))

    def test_dimension_mismatch(self):
        res = ModelReservoir(np.zeros(2))
        with pytest.raises(InputDomainError):
            res.write_active(0, np.zeros(3))

