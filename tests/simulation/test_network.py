"""Unit tests for the network transport model."""

from __future__ import annotations

import numpy as np
import pytest

from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_constant,
    latency_exponential,
    latency_uniform,
)


class TestLatencySamplers:
    def test_constant(self, rng):
        sampler = latency_constant(2.5)
        assert sampler(rng) == 2.5

    def test_constant_rejects_negative(self):
        with pytest.raises(ValueError):
            latency_constant(-1.0)

    def test_uniform_range(self, rng):
        sampler = latency_uniform(1.0, 2.0)
        values = [sampler(rng) for _ in range(200)]
        assert all(1.0 <= v <= 2.0 for v in values)

    def test_uniform_invalid_range(self):
        with pytest.raises(ValueError):
            latency_uniform(2.0, 1.0)
        with pytest.raises(ValueError):
            latency_uniform(-1.0, 1.0)

    def test_exponential_mean(self, rng):
        sampler = latency_exponential(3.0)
        values = np.array([sampler(rng) for _ in range(5000)])
        assert values.mean() == pytest.approx(3.0, rel=0.1)
        assert np.all(values >= 0)

    def test_exponential_invalid_mean(self):
        with pytest.raises(ValueError):
            latency_exponential(0.0)


class TestNetworkModel:
    def test_default_delivers_everything(self, rng):
        net = NetworkModel()
        delivered = []
        for _ in range(20):
            net.transmit(rng, lambda latency: delivered.append(latency))
        assert len(delivered) == 20
        assert net.messages_sent == 20
        assert net.messages_dropped == 0

    def test_full_loss_drops_everything(self, rng):
        net = NetworkModel(loss_probability=1.0)
        delivered = []
        for _ in range(10):
            assert not net.transmit(rng, lambda latency: delivered.append(latency))
        assert delivered == []
        assert net.messages_dropped == 10

    def test_partial_loss_rate(self, rng):
        net = NetworkModel(loss_probability=0.3)
        outcomes = [net.transmit(rng, lambda latency: None) for _ in range(10_000)]
        assert np.mean(outcomes) == pytest.approx(0.7, abs=0.03)

    def test_invalid_loss_probability(self):
        with pytest.raises(ValueError):
            NetworkModel(loss_probability=1.5)

    def test_latency_passed_to_deliver(self, rng):
        net = NetworkModel(latency=latency_constant(4.0))
        seen = []
        net.transmit(rng, seen.append)
        assert seen == [4.0]


class TestLatencyBookkeeping:
    def test_transmit_accumulates_total_latency(self, rng):
        net = NetworkModel(latency=latency_constant(2.0))
        for _ in range(5):
            net.transmit(rng, lambda latency: None)
        assert net.total_latency == pytest.approx(10.0)

    def test_dropped_messages_add_no_latency(self, rng):
        net = NetworkModel(latency=latency_constant(2.0), loss_probability=1.0)
        for _ in range(5):
            net.transmit(rng, lambda latency: None)
        assert net.total_latency == 0.0

    def test_reset_clears_counters_and_latency(self, rng):
        net = NetworkModel(latency=latency_constant(3.0), loss_probability=0.5)
        for _ in range(50):
            net.transmit(rng, lambda latency: None)
        assert net.messages_sent == 50
        assert net.total_latency > 0.0
        net.reset()
        assert net.messages_sent == 0
        assert net.messages_dropped == 0
        assert net.total_latency == 0.0


class TestDrawLoss:
    def test_zero_loss_keeps_everything_without_randomness(self, rng):
        net = NetworkModel(loss_probability=0.0)
        state_before = rng.bit_generator.state
        keep = net.draw_loss(rng, 100)
        assert keep.all() and keep.shape == (100,)
        assert rng.bit_generator.state == state_before  # no stream consumption
        assert net.messages_sent == 100
        assert net.messages_dropped == 0

    def test_full_loss_drops_everything(self, rng):
        net = NetworkModel(loss_probability=1.0)
        keep = net.draw_loss(rng, 40)
        assert not keep.any()
        assert net.messages_dropped == 40

    def test_partial_loss_rate(self, rng):
        net = NetworkModel(loss_probability=0.3)
        keep = net.draw_loss(rng, 20_000)
        assert keep.mean() == pytest.approx(0.7, abs=0.02)
        assert net.messages_dropped == 20_000 - keep.sum()

    def test_negative_count_raises(self, rng):
        with pytest.raises(ValueError):
            NetworkModel().draw_loss(rng, -1)

    def test_empty_draw(self, rng):
        net = NetworkModel(loss_probability=0.5)
        keep = net.draw_loss(rng, 0)
        assert keep.shape == (0,)
        assert net.messages_sent == 0


class TestDrawLossBatch:
    def test_zero_loss_short_circuits(self, rng):
        net = NetworkModel(loss_probability=0.0)
        replicas = np.array([0, 0, 1, 2, 2, 2])
        state_before = rng.bit_generator.state
        keep, dropped = net.draw_loss_batch(rng, replicas, 3)
        assert keep.all()
        np.testing.assert_array_equal(dropped, np.zeros(3, dtype=np.int64))
        assert rng.bit_generator.state == state_before
        assert net.messages_sent == 6

    def test_drops_book_back_to_their_replicas(self, rng):
        net = NetworkModel(loss_probability=1.0)
        replicas = np.array([0, 0, 1, 2, 2, 2])
        keep, dropped = net.draw_loss_batch(rng, replicas, 4)
        assert not keep.any()
        np.testing.assert_array_equal(dropped, np.array([2, 1, 3, 0]))
        assert net.messages_dropped == 6

    def test_partial_loss_consistency(self, rng):
        net = NetworkModel(loss_probability=0.4)
        replicas = np.repeat(np.arange(5), 2000)
        keep, dropped = net.draw_loss_batch(rng, replicas, 5)
        assert dropped.sum() == (~keep).sum() == net.messages_dropped
        assert dropped.sum() / replicas.size == pytest.approx(0.4, abs=0.02)

    def test_empty_batch(self, rng):
        net = NetworkModel(loss_probability=0.5)
        keep, dropped = net.draw_loss_batch(rng, np.empty(0, dtype=np.int64), 3)
        assert keep.shape == (0,)
        np.testing.assert_array_equal(dropped, np.zeros(3, dtype=np.int64))


class TestGilbertElliott:
    """The two-state bursty channel: collapse, burstiness, calibration."""

    def make(self, **overrides):
        params = dict(
            loss_probability=0.05,
            bad_loss_probability=0.8,
            p_good_to_bad=0.1,
            p_bad_to_good=0.3,
        )
        params.update(overrides)
        return GilbertElliottNetworkModel(**params)

    def test_stationary_statistics(self):
        net = self.make()
        assert net.stationary_bad_fraction() == pytest.approx(0.25)
        assert net.mean_loss_probability() == pytest.approx(0.2375)
        frozen = self.make(p_good_to_bad=0.0, p_bad_to_good=0.0)
        assert frozen.stationary_bad_fraction() == 0.0
        assert frozen.mean_loss_probability() == frozen.loss_probability

    def test_equal_rates_collapse_to_iid_bit_for_bit(self):
        # When both states share one drop rate the state cannot matter, so
        # every draw must defer to the base class verbatim (same stream).
        ge = self.make(loss_probability=0.3, bad_loss_probability=0.3)
        iid = NetworkModel(loss_probability=0.3)
        rng_a = np.random.default_rng(101)
        rng_b = np.random.default_rng(101)
        for count in (7, 50, 0, 200):
            np.testing.assert_array_equal(
                ge.draw_loss(rng_a, count), iid.draw_loss(rng_b, count)
            )
        replicas = np.repeat(np.arange(4), 30)
        keep_a, dropped_a = ge.draw_loss_batch(rng_a, replicas, 4)
        keep_b, dropped_b = iid.draw_loss_batch(rng_b, replicas, 4)
        np.testing.assert_array_equal(keep_a, keep_b)
        np.testing.assert_array_equal(dropped_a, dropped_b)
        assert rng_a.bit_generator.state == rng_b.bit_generator.state

    def test_zero_rates_consume_no_randomness(self, rng):
        net = self.make(loss_probability=0.0, bad_loss_probability=0.0)
        state_before = rng.bit_generator.state
        keep = net.draw_loss(rng, 80)
        assert keep.all()
        keep, dropped = net.draw_loss_batch(rng, np.repeat(np.arange(3), 10), 3)
        assert keep.all() and dropped.sum() == 0
        assert rng.bit_generator.state == state_before
        assert net.messages_dropped == 0

    def test_scalar_drops_are_bursty(self, rng):
        # Sequential single-message draws: one chain step per call, so a
        # drop signals the bad state and the next draw must be far likelier
        # to drop than the marginal rate.
        net = self.make()
        drops = np.array(
            [not net.draw_loss(rng, 1)[0] for _ in range(8000)], dtype=bool
        )
        marginal = drops.mean()
        conditional = drops[1:][drops[:-1]].mean()
        assert marginal == pytest.approx(net.mean_loss_probability(), abs=0.03)
        assert conditional > marginal + 0.1

    def test_batch_block_fading_and_stationary_start(self, rng):
        # One draw_loss_batch call is one coherence interval per replica:
        # each replica's realised drop rate sits near one state's rate, and
        # the bad fraction across replicas matches the stationary start.
        net = self.make()
        replicas = np.repeat(np.arange(400), 500)
        keep, dropped = net.draw_loss_batch(rng, replicas, 400)
        rates = dropped / 500.0
        near_good = np.abs(rates - net.loss_probability) < 0.07
        near_bad = np.abs(rates - net.bad_loss_probability) < 0.07
        assert np.all(near_good | near_bad)
        assert near_bad.mean() == pytest.approx(net.stationary_bad_fraction(), abs=0.06)

    def test_batch_long_run_drop_rate_matches_stationary_mean(self, rng):
        net = self.make()
        replicas = np.repeat(np.arange(8), 25)
        total = 0
        for _ in range(2000):  # 2000 chain steps per replica
            _, dropped = net.draw_loss_batch(rng, replicas, 8)
            total += int(dropped.sum())
        realised = total / (2000 * replicas.size)
        assert realised == pytest.approx(net.mean_loss_probability(), abs=0.02)

    def test_reset_clears_chain_state(self):
        net = self.make()
        first = [net.draw_loss(np.random.default_rng(77), 20) for _ in range(5)]
        net.reset()
        assert net.messages_sent == 0
        second = [net.draw_loss(np.random.default_rng(77), 20) for _ in range(5)]
        for a, b in zip(first, second, strict=True):
            np.testing.assert_array_equal(a, b)

    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            self.make(bad_loss_probability=1.5)
        with pytest.raises(ValueError):
            self.make(p_good_to_bad=-0.1)
        with pytest.raises(ValueError):
            self.make(p_bad_to_good=2.0)


class TestGilbertElliottIdleLegs:
    """Regression pins: the chain is block fading in *time*, so a leg with no
    traffic must still advance the Markov state (the old code returned before
    the transition, freezing bursts across idle legs)."""

    def make_period2(self):
        # Deterministic period-2 chain: the state flips every leg, and the
        # extreme drop rates (0 in good, 1 in bad) make each leg's outcome a
        # pure function of the state, whatever the RNG does.
        return GilbertElliottNetworkModel(
            loss_probability=0.0,
            bad_loss_probability=1.0,
            p_good_to_bad=1.0,
            p_bad_to_good=1.0,
        )

    def test_scalar_empty_leg_advances_the_chain(self):
        # An idle leg between two one-message legs flips the state twice, so
        # legs 1 and 3 must agree; if the idle leg froze the chain, leg 3
        # would observe the opposite state.
        net = self.make_period2()
        rng = np.random.default_rng(20080149)
        leg1 = net.draw_loss(rng, 1)[0]
        assert net.draw_loss(rng, 0).size == 0
        leg3 = net.draw_loss(rng, 1)[0]
        assert leg3 == leg1
        # Control: without the idle leg, consecutive legs alternate.
        contiguous = self.make_period2()
        rng = np.random.default_rng(20080149)
        first = contiguous.draw_loss(rng, 1)[0]
        second = contiguous.draw_loss(rng, 1)[0]
        assert second != first

    def test_batch_empty_leg_advances_the_chain(self):
        net = self.make_period2()
        rng = np.random.default_rng(20080149)
        replicas = np.arange(5, dtype=np.int64)
        leg1, _ = net.draw_loss_batch(rng, replicas, 5)
        empty, empty_dropped = net.draw_loss_batch(rng, np.empty(0, dtype=np.int64), 5)
        assert empty.size == 0 and empty_dropped.sum() == 0
        leg3, _ = net.draw_loss_batch(rng, replicas, 5)
        np.testing.assert_array_equal(leg3, leg1)
        contiguous = self.make_period2()
        rng = np.random.default_rng(20080149)
        first, _ = contiguous.draw_loss_batch(rng, replicas, 5)
        second, _ = contiguous.draw_loss_batch(rng, replicas, 5)
        np.testing.assert_array_equal(second, ~first)

    def test_burst_statistics_with_interleaved_empty_legs(self, rng):
        # With random transitions, one idle leg between observations means
        # exactly TWO chain steps between consecutive non-empty legs.  The
        # conditional drop-after-drop rate must match the two-step closed
        # form: a frozen chain (zero steps) or a single step would both land
        # well outside the tolerance.
        net = GilbertElliottNetworkModel(
            loss_probability=0.05,
            bad_loss_probability=0.8,
            p_good_to_bad=0.1,
            p_bad_to_good=0.3,
        )
        drops = np.empty(6000, dtype=bool)
        for i in range(drops.size):
            drops[i] = not net.draw_loss(rng, 1)[0]
            net.draw_loss(rng, 0)  # idle leg: one extra chain step
        assert drops.mean() == pytest.approx(net.mean_loss_probability(), abs=0.03)
        p_bad_given_drop = (
            net.bad_loss_probability * net.stationary_bad_fraction()
        ) / net.mean_loss_probability()
        two_step_bb = 0.7 * 0.7 + 0.3 * 0.1
        two_step_gb = 0.1 * 0.7 + 0.9 * 0.1
        p_bad_next = p_bad_given_drop * two_step_bb + (1 - p_bad_given_drop) * two_step_gb
        expected = (
            p_bad_next * net.bad_loss_probability
            + (1 - p_bad_next) * net.loss_probability
        )
        conditional = drops[1:][drops[:-1]].mean()
        assert conditional == pytest.approx(expected, abs=0.045)


class TestGilbertElliottBatchResize:
    """Regression pin: silently re-dimensioning the per-replica chain mid-run
    used to discard all burst state; now it is an explicit error."""

    def make(self):
        return GilbertElliottNetworkModel(
            loss_probability=0.05,
            bad_loss_probability=0.8,
            p_good_to_bad=0.1,
            p_bad_to_good=0.3,
        )

    def test_width_change_raises(self, rng):
        net = self.make()
        net.draw_loss_batch(rng, np.repeat(np.arange(4), 5), 4)
        with pytest.raises(ValueError, match="reset"):
            net.draw_loss_batch(rng, np.repeat(np.arange(8), 5), 8)

    def test_reset_allows_new_width(self, rng):
        net = self.make()
        net.draw_loss_batch(rng, np.repeat(np.arange(4), 5), 4)
        net.reset()
        keep, dropped = net.draw_loss_batch(rng, np.repeat(np.arange(8), 5), 8)
        assert keep.size == 40
        assert dropped.size == 8
