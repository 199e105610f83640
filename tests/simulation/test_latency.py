"""Tests of the discretised latency plane and its event-driven calibration."""

from __future__ import annotations

import pickle
from dataclasses import dataclass
from typing import ClassVar

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.core.distributions import FixedFanout
from repro.protocols import FixedFanoutGossip
from repro.simulation.gossip import simulate_gossip_batch, simulate_gossip_event_driven
from repro.simulation.latency import (
    DeliveryTimePlane,
    delivery_percentiles,
    percentile_label,
)
from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_constant,
    latency_exponential,
    latency_uniform,
)
from tests.reference import latency_plane, scalar_protocols


class TestPercentileHelpers:
    def test_percentile_label(self):
        assert percentile_label(50) == "p50"
        assert percentile_label(99.0) == "p99"
        assert percentile_label(99.9) == "p999"

    def test_delivery_percentiles_ignore_undelivered(self):
        times = np.array([[0.0, 1.0, np.inf], [2.0, 3.0, 4.0]])
        out = delivery_percentiles(times)
        assert set(out) == {"p50", "p99", "p999"}
        assert out["p50"] == pytest.approx(np.percentile([0.0, 1.0, 2.0, 3.0, 4.0], 50))
        assert out["p50"] <= out["p99"] <= out["p999"]

    def test_delivery_percentiles_all_undelivered_is_nan(self):
        out = delivery_percentiles(np.full((2, 3), np.inf))
        assert all(np.isnan(v) for v in out.values())


class TestDeliveryTimePlane:
    def make_plane(self, sampler=None, repetitions=2, n=4, round_period=1.0):
        network = NetworkModel(latency=sampler or latency_constant(1.0))
        plane = DeliveryTimePlane(network, repetitions, n, round_period=round_period)
        return plane, network

    def test_round_period_must_be_positive(self):
        with pytest.raises(ValueError):
            self.make_plane(round_period=0.0)

    def test_constant_fast_path_passes_through_in_order(self, rng):
        plane, _ = self.make_plane()
        assert plane.constant_fast_path
        cells = np.array([1, 5, 6], dtype=np.int64)
        due, times, aux = plane.schedule(3, cells, rng)
        np.testing.assert_array_equal(due, cells)
        np.testing.assert_allclose(times, 4.0)  # send at 3*T, arrive one unit later
        assert aux is None
        assert not plane.pending_mask().any()

    def test_constant_latency_consumes_no_randomness(self, rng):
        plane, _ = self.make_plane()
        state = rng.bit_generator.state
        plane.schedule(0, np.array([0, 1], dtype=np.int64), rng)
        assert rng.bit_generator.state == state

    def test_slow_messages_bucket_and_mature(self, rng):
        plane, _ = self.make_plane(latency_constant(2.5))
        assert not plane.constant_fast_path
        cells = np.array([1, 5], dtype=np.int64)  # one per replica (n=4)
        due, _, _ = plane.schedule(0, cells, rng)
        assert due.size == 0
        np.testing.assert_array_equal(plane.pending_mask(), [True, True])
        due, _, _ = plane.schedule(1, np.empty(0, dtype=np.int64), rng)
        assert due.size == 0  # d = ceil(2.5) = 3: processable at round 2
        due, times, _ = plane.schedule(2, np.empty(0, dtype=np.int64), rng)
        np.testing.assert_array_equal(np.sort(due), [1, 5])
        np.testing.assert_allclose(times, 2.5)
        assert not plane.pending_mask().any()

    def test_channels_are_independent_and_carry_aux(self, rng):
        plane, _ = self.make_plane(latency_constant(1.5))  # d=2: due next round
        plane.schedule(0, np.array([0], dtype=np.int64), rng, channel="payload")
        plane.schedule(
            0,
            np.array([5], dtype=np.int64),
            rng,
            channel="digest",
            aux=np.array([3], dtype=np.int64),
        )
        due, _, _ = plane.schedule(1, np.empty(0, dtype=np.int64), rng, channel="payload")
        np.testing.assert_array_equal(due, [0])
        due, _, aux = plane.schedule(
            1,
            np.empty(0, dtype=np.int64),
            rng,
            channel="digest",
            aux=np.empty(0, dtype=np.int64),
        )
        np.testing.assert_array_equal(due, [5])
        np.testing.assert_array_equal(aux, [3])
        assert not plane.pending_mask().any()

    def test_drain_pops_everything_left(self, rng):
        plane, _ = self.make_plane(latency_constant(3.5))
        plane.schedule(0, np.array([1], dtype=np.int64), rng)
        plane.schedule(1, np.array([6], dtype=np.int64), rng)
        assert plane.pending_mask().any()
        cells, times, aux = plane.drain()
        np.testing.assert_array_equal(cells, [1, 6])  # bucket-round order
        np.testing.assert_allclose(times, [3.5, 4.5])
        assert aux is None
        assert not plane.pending_mask().any()
        cells, times, _ = plane.drain()
        assert cells.size == 0 and times.size == 0

    def test_record_min_merges_and_finalize_scrubs(self):
        plane, _ = self.make_plane()
        plane.record(np.array([1, 1, 5]), np.array([3.0, 2.0, 4.0]))
        delivered = np.zeros((2, 4), dtype=bool)
        delivered[0, 1] = True  # flat cell 1; flat cell 5 NOT delivered
        out = plane.finalize(delivered)
        assert out[0, 1] == 2.0
        assert np.isinf(out[1, 1])  # recorded but scrubbed: not delivered
        assert np.isinf(out[0, 0])

    def test_draw_books_total_latency(self, rng):
        plane, network = self.make_plane(latency_constant(0.25))
        delays = plane.draw(rng, 8)
        np.testing.assert_allclose(delays, 0.25)
        assert network.total_latency == pytest.approx(2.0)


@dataclass(frozen=True)
class GridLatency:
    """Delays drawn uniformly from a few values; puts delays of exactly T among shorter ones."""

    values: tuple[float, ...]
    is_constant: ClassVar[bool] = False

    def __call__(self, rng: np.random.Generator) -> float:
        return float(rng.choice(self.values))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.choice(np.asarray(self.values), count)


def parity_sampler(kind: str, round_period: float):
    """A latency law scaled to the round period: all due, mixed, or all late."""
    if kind == "exact":  # every delay is exactly T: due in the round it is sent
        return latency_uniform(round_period, round_period)
    if kind == "grid":  # due and late mixed, with delays of exactly T among the due
        return GridLatency(tuple(k * round_period for k in (0.0, 0.5, 1.0, 1.0, 2.0, 3.5)))
    if kind == "uniform":
        return latency_uniform(0.0, 3.5 * round_period)
    if kind == "exponential":
        return latency_exponential(1.2 * round_period)
    return latency_constant(2.0 * round_period)  # a constant above T: all late


def assert_same_leg(got, want):
    """Equal cells, float.hex-equal times and equal aux (``None`` where ``None``)."""
    (cells, times, aux), (ref_cells, ref_times, ref_aux) = got, want
    assert cells.dtype == ref_cells.dtype
    np.testing.assert_array_equal(cells, ref_cells)
    assert [t.hex() for t in times.tolist()] == [t.hex() for t in ref_times.tolist()]
    assert (aux is None) == (ref_aux is None)
    if aux is not None:
        assert aux.dtype == ref_aux.dtype
        np.testing.assert_array_equal(aux, ref_aux)


class TestPlaneParity:
    """The one-pass plane lands exactly what the two-pass reference lands."""

    @settings(max_examples=150, deadline=None)
    @given(
        round_period=st.sampled_from((0.3, 1.0, 2.5)),
        kind=st.sampled_from(("exact", "grid", "uniform", "exponential", "constant")),
        churn=st.booleans(),
        repetitions=st.integers(1, 4),
        n=st.integers(2, 30),
        rounds=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_schedule_equals_reference(
        self, round_period, kind, churn, repetitions, n, rounds, seed
    ):
        sampler = parity_sampler(kind, round_period)
        plane = DeliveryTimePlane(
            NetworkModel(latency=sampler), repetitions, n, round_period=round_period
        )
        reference = latency_plane.ReferenceDeliveryTimePlane(
            NetworkModel(latency=sampler), repetitions, n, round_period=round_period
        )
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        legs = np.random.default_rng(seed + 1)  # the test's own draws
        cells_total = repetitions * n
        next_id = 0
        for round_index in range(rounds):
            present = legs.random(cells_total) < 0.7 if churn else None
            for channel in ("payload", "digest"):
                size = int(legs.choice([0, 1, int(legs.integers(2, 80))]))
                cells = legs.integers(0, cells_total, size=size)
                if present is not None:
                    cells = cells[present[cells]]  # what Transport.send lets through
                aux = None
                if legs.random() < 0.5:
                    aux = np.arange(next_id, next_id + cells.size, dtype=np.int64)
                    next_id += cells.size
                got = plane.schedule(
                    round_index, cells, rng, channel=channel, aux=aux, present=present
                )
                want = latency_plane.arrive(
                    reference,
                    round_index,
                    cells,
                    ref_rng,
                    present=present,
                    channel=channel,
                    aux=aux,
                )
                assert_same_leg(got, want)
                np.testing.assert_array_equal(plane.pending_mask(), reference.pending_mask())
                assert rng.bit_generator.state == ref_rng.bit_generator.state
        for channel in ("payload", "digest"):
            assert_same_leg(plane.drain(channel), reference.drain(channel))
        assert not plane.pending_mask().any()
        assert plane.network.total_latency == reference.network.total_latency


class TestTotalLatencyAccounting:
    """Scalar and batched engines book the same latency law (satellite fix:
    ``total_latency`` used to accumulate only through scalar ``transmit``)."""

    def test_constant_latency_law_agrees_scalar_vs_batch(self):
        c = 0.7
        protocol = FixedFanoutGossip(4)
        scalar_net = NetworkModel(latency=latency_constant(c), loss_probability=0.1)
        scalar_protocols.run(protocol, 300, 0.9, seed=11, network=scalar_net)
        kept = scalar_net.messages_sent - scalar_net.messages_dropped
        assert kept > 0
        assert scalar_net.total_latency == pytest.approx(c * kept)

        batch_net = NetworkModel(latency=latency_constant(c), loss_probability=0.1)
        protocol.run_batch(300, 0.9, repetitions=10, seed=11, network=batch_net)
        kept = batch_net.messages_sent - batch_net.messages_dropped
        assert kept > 0
        assert batch_net.total_latency == pytest.approx(c * kept)

    def test_batch_accumulates_total_latency_at_random_latency(self):
        net = NetworkModel(latency=latency_exponential(2.0))
        FixedFanoutGossip(4).run_batch(200, 1.0, repetitions=5, seed=3, network=net)
        kept = net.messages_sent - net.messages_dropped
        # One draw per arrived message (mean 2.0), within wide MC slack.
        assert net.total_latency == pytest.approx(2.0 * kept, rel=0.25)


class TestSamplerPicklability:
    """Satellite fix: latency samplers are frozen dataclasses, not closures."""

    @pytest.mark.parametrize(
        "sampler",
        [latency_constant(1.5), latency_uniform(0.5, 1.5), latency_exponential(2.0)],
        ids=["constant", "uniform", "exponential"],
    )
    def test_sampler_pickles_and_draws_identically(self, sampler):
        clone = pickle.loads(pickle.dumps(sampler))
        a = sampler.draw(np.random.default_rng(3), 64)
        b = clone.draw(np.random.default_rng(3), 64)
        np.testing.assert_array_equal(a, b)
        assert clone(np.random.default_rng(5)) == sampler(np.random.default_rng(5))

    def test_network_models_pickle_whole(self):
        for net in (
            NetworkModel(latency=latency_exponential(2.0), loss_probability=0.3),
            GilbertElliottNetworkModel(
                loss_probability=0.05,
                bad_loss_probability=0.8,
                p_good_to_bad=0.1,
                p_bad_to_good=0.3,
                latency=latency_uniform(0.5, 1.5),
            ),
        ):
            clone = pickle.loads(pickle.dumps(net))
            keep_a = net.draw_loss(np.random.default_rng(9), 50)
            keep_b = clone.draw_loss(np.random.default_rng(9), 50)
            np.testing.assert_array_equal(keep_a, keep_b)
            assert clone.total_latency == pytest.approx(net.total_latency)


class TestBatchedVsEventDrivenDeliveryTimes:
    """KS pins: with a small round period the discretised plane converges to
    the continuous-time event-driven reference's delivery-time law."""

    @pytest.mark.parametrize(
        "make_latency",
        [lambda: latency_exponential(2.0), lambda: latency_uniform(0.5, 1.5)],
        ids=["exponential", "uniform"],
    )
    @pytest.mark.parametrize(
        "n,batch_reps,event_runs", [(50, 40, 40), (500, 8, 6)], ids=["n50", "n500"]
    )
    def test_delivery_time_distribution_matches(self, n, batch_reps, event_runs, make_latency):
        batch = simulate_gossip_batch(
            n,
            FixedFanout(4),
            1.0,
            repetitions=batch_reps,
            seed=2024,
            network=NetworkModel(latency=make_latency()),
            round_period=0.02,
        )
        assert batch.delivered.mean() > 0.9
        batched_times = batch.delivery_times[np.isfinite(batch.delivery_times)]

        seed_rng = np.random.default_rng(2025)
        event_times = []
        for _ in range(event_runs):
            execution = simulate_gossip_event_driven(
                n,
                FixedFanout(4),
                1.0,
                seed=seed_rng,
                network=NetworkModel(latency=make_latency()),
            )
            event_times.append(execution.delivery_times[np.isfinite(execution.delivery_times)])
        event_times = np.concatenate(event_times)

        # Subsample so the fixed-seed KS statistic sits well below its
        # rejection region (~0.071 at alpha 1e-3 for 1500 vs 1500).
        sub = np.random.default_rng(7)
        batched_times = sub.choice(batched_times, size=min(batched_times.size, 1500), replace=False)
        event_times = sub.choice(event_times, size=min(event_times.size, 1500), replace=False)
        result = stats.ks_2samp(batched_times, event_times)
        assert result.statistic < 0.085, (
            f"batched vs event-driven delivery times diverge: "
            f"KS={result.statistic:.4f}, p={result.pvalue:.5f}, "
            f"medians {np.median(batched_times):.3f} vs {np.median(event_times):.3f}"
        )
