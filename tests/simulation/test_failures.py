"""Unit tests for failure models."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import repro.simulation.failures as failures_module
from repro.simulation.failures import (
    CrashTiming,
    FailureModel,
    FailurePattern,
    FailurePatternBatch,
    TargetedCrashModel,
    UniformCrashModel,
)


class TestUniformCrashModel:
    def test_source_never_fails(self, rng):
        model = UniformCrashModel(q=0.0)
        pattern = model.draw(50, rng, source=3)
        assert pattern.alive[3]
        assert pattern.n_alive() == 1

    def test_alive_fraction_close_to_q(self, rng):
        model = UniformCrashModel(q=0.7)
        pattern = model.draw(20_000, rng)
        assert pattern.n_alive() / 20_000 == pytest.approx(0.7, abs=0.02)

    def test_q_one_all_alive(self, rng):
        pattern = UniformCrashModel(q=1.0).draw(100, rng)
        assert pattern.n_alive() == 100

    def test_timing_assigned_to_every_member(self, rng):
        pattern = UniformCrashModel(q=0.5, after_receive_fraction=1.0).draw(30, rng)
        assert all(t is CrashTiming.AFTER_RECEIVE for t in pattern.timing)

    def test_timing_fraction_zero(self, rng):
        pattern = UniformCrashModel(q=0.5, after_receive_fraction=0.0).draw(30, rng)
        assert all(t is CrashTiming.BEFORE_RECEIVE for t in pattern.timing)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            UniformCrashModel(q=-0.1)
        with pytest.raises(ValueError):
            UniformCrashModel(q=0.5, after_receive_fraction=2.0)

    def test_invalid_group_and_source(self, rng):
        model = UniformCrashModel(q=0.5)
        with pytest.raises(ValueError):
            model.draw(0, rng)
        with pytest.raises(ValueError):
            model.draw(10, rng, source=10)


class TestDrawBatch:
    def test_uniform_batch_shapes_and_source(self, rng):
        batch = UniformCrashModel(q=0.8).draw_batch(100, 12, rng, source=4)
        assert isinstance(batch, FailurePatternBatch)
        assert batch.alive.shape == batch.after_receive.shape == (12, 100)
        assert batch.repetitions == 12 and batch.n == 100
        assert np.all(batch.alive[:, 4])
        # Timing is only recorded for failed members.
        assert not np.any(batch.after_receive & batch.alive)

    def test_uniform_batch_alive_fraction(self, rng):
        batch = UniformCrashModel(q=0.7).draw_batch(2000, 40, rng)
        assert batch.n_alive().mean() / 2000 == pytest.approx(0.7, abs=0.02)

    def test_uniform_batch_timing_fractions(self, rng):
        all_after = UniformCrashModel(q=0.5, after_receive_fraction=1.0).draw_batch(
            200, 6, rng
        )
        assert np.all(all_after.after_receive[~all_after.alive])
        none_after = UniformCrashModel(q=0.5, after_receive_fraction=0.0).draw_batch(
            200, 6, rng
        )
        assert not np.any(none_after.after_receive)

    def test_targeted_batch_is_deterministic_rows(self, rng):
        batch = TargetedCrashModel(failed=(1, 3)).draw_batch(10, 5, rng, source=0)
        expected = np.ones(10, dtype=bool)
        expected[[1, 3]] = False
        np.testing.assert_array_equal(batch.alive, np.tile(expected, (5, 1)))
        assert not np.any(batch.after_receive)

    def test_after_receive_fraction_one_marks_every_failure(self, rng):
        batch = UniformCrashModel(q=0.5, after_receive_fraction=1.0).draw_batch(50, 4, rng)
        np.testing.assert_array_equal(batch.after_receive, ~batch.alive)

    def test_default_draw_batch_stacks_scalar_draws(self, rng):
        # A custom model without an override goes through the generic path.
        class EvenMembersFail(FailureModel):
            def draw(self, n, rng, *, source=0):
                alive = np.ones(n, dtype=bool)
                alive[::2] = False
                alive[source] = True
                timing = np.full(n, CrashTiming.AFTER_RECEIVE, dtype=object)
                return FailurePattern(alive=alive, timing=timing)

        batch = EvenMembersFail().draw_batch(10, 3, rng, source=0)
        assert batch.alive.shape == (3, 10)
        assert np.all(batch.alive[:, 0])
        assert not np.any(batch.alive[:, 2::2])
        # Timing plane restricted to failed members, as in the overrides.
        assert not np.any(batch.after_receive & batch.alive)
        assert np.all(batch.after_receive[~batch.alive])

    def test_invalid_batch_arguments(self, rng):
        with pytest.raises(ValueError):
            UniformCrashModel(q=0.5).draw_batch(0, 3, rng)
        with pytest.raises(ValueError):
            UniformCrashModel(q=0.5).draw_batch(10, 0, rng)
        with pytest.raises(ValueError):
            TargetedCrashModel(failed=()).draw_batch(10, 3, rng, source=10)


class TestValidationAndAllocationRegression:
    """Model parameters are validated once, and draws stay allocation-lean."""

    def test_uniform_validates_only_at_construction(self, rng, monkeypatch):
        calls = []
        original = failures_module.check_probability

        def spy(name, value, **kwargs):
            calls.append(name)
            return original(name, value, **kwargs)

        monkeypatch.setattr(failures_module, "check_probability", spy)
        model = UniformCrashModel(q=0.6, after_receive_fraction=0.3)
        construction_calls = len(calls)
        assert construction_calls == 2  # q and after_receive_fraction
        for _ in range(10):
            model.draw(50, rng)
        model.draw_batch(50, 8, rng)
        assert len(calls) == construction_calls, "draw re-validated model parameters"

    def test_draw_still_guards_call_arguments(self, rng):
        model = UniformCrashModel(q=0.5)
        with pytest.raises(ValueError):
            model.draw(0, rng)
        with pytest.raises(ValueError):
            model.draw(10, rng, source=10)
        with pytest.raises(ValueError):
            model.draw(10, rng, source=-1)

    def test_targeted_caches_failed_indices(self):
        model = TargetedCrashModel(failed=(7, 3, 3, 9))
        cached = model._failed_array
        assert isinstance(cached, np.ndarray)
        np.testing.assert_array_equal(cached, [3, 7, 9])
        rng = np.random.default_rng(0)
        model.draw(20, rng)
        assert model._failed_array is cached  # no per-draw rebuild

    def test_targeted_draw_is_allocation_lean(self):
        # A large failed set must not be re-materialised per draw: beyond
        # the returned masks (~n bool + n object cells) the draw allocates
        # O(len(failed)) ndarray scratch, never a Python list of boxed ints.
        n, n_failed = 50_000, 20_000
        model = TargetedCrashModel(failed=tuple(range(n_failed)))
        rng = np.random.default_rng(1)
        model.draw(n, rng)  # warm-up (numpy internals, caches)
        tracemalloc.start()
        pattern = model.draw(n, rng)
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
        assert pattern.n_alive() == n - n_failed + 1  # source survives
        # Returned arrays: alive (n bytes) + timing (8n bytes on 64-bit);
        # scratch: one n_failed-sized mask/index pair.  A boxed-int loop
        # would allocate ~28 bytes per failed member on top and blow this.
        budget = 9 * n + 16 * n_failed + 200_000
        assert peak < budget, f"draw allocated {peak} bytes (budget {budget})"

    def test_targeted_batch_reuses_single_row(self):
        model = TargetedCrashModel(failed=(1, 2, 3))
        rng = np.random.default_rng(2)
        batch = model.draw_batch(100, 6, rng)
        # All rows identical (deterministic model) and boolean-typed.
        assert batch.alive.dtype == np.bool_
        assert np.all(batch.alive == batch.alive[0])


class TestTargetedCrashModel:
    def test_exact_members_fail(self, rng):
        model = TargetedCrashModel(failed=(2, 5, 7))
        pattern = model.draw(10, rng)
        assert set(np.flatnonzero(~pattern.alive).tolist()) == {2, 5, 7}

    def test_source_protected(self, rng):
        model = TargetedCrashModel(failed=(0, 1))
        pattern = model.draw(10, rng, source=0)
        assert pattern.alive[0]
        assert not pattern.alive[1]

    def test_out_of_range_ignored(self, rng):
        model = TargetedCrashModel(failed=(50,))
        pattern = model.draw(10, rng)
        assert pattern.n_alive() == 10

    def test_empty_failure_set(self, rng):
        pattern = TargetedCrashModel(failed=()).draw(5, rng)
        assert pattern.n_alive() == 5


class TestTargetedBatchSweep:
    """Batched targeted draws must equal stacked scalar draws exactly.

    ``TargetedCrashModel`` is deterministic (no randomness in either path),
    so the batch rows and the scalar pattern must agree bit-for-bit across a
    sweep of engineered failed-block sizes — the contract the
    ``recovery_resilience`` targeted-crash rows rely on.
    """

    @pytest.mark.parametrize("n", [40, 200])
    @pytest.mark.parametrize("fraction", [0.0, 0.1, 0.3, 0.5])
    def test_batch_rows_match_scalar_draw(self, rng, n, fraction):
        k = int(round(fraction * n))
        model = TargetedCrashModel(failed=tuple(range(1, 1 + k)))
        scalar = model.draw(n, rng, source=0)
        batch = model.draw_batch(n, 7, rng, source=0)
        assert scalar.n_alive() == n - k
        for replica in range(7):
            np.testing.assert_array_equal(batch.alive[replica], scalar.alive)
        assert np.all(batch.alive[:, 0])
        assert not np.any(batch.after_receive)

    def test_batch_consumes_no_randomness(self, rng):
        model = TargetedCrashModel(failed=(1, 2, 3))
        state_before = rng.bit_generator.state
        model.draw_batch(50, 5, rng, source=0)
        assert rng.bit_generator.state == state_before
