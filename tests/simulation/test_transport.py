"""The leg law of :class:`repro.simulation.transport.Transport`, as a property.

A transport is driven directly through random rounds of ``send`` then
``arrive`` on two channels, every message carrying a unique id in ``aux``, and
the law is checked message by message: sends are booked in full, only present
addressees receive, nothing lands twice, and a message that survives ``send``
is lost afterwards only to an addressee that left.  The segment counts of
replica-major legs (:meth:`~repro.simulation.transport.Transport.replica_counts`)
are checked against ``np.bincount``.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.simulation.churn import PoissonChurnModel
from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_constant,
    latency_exponential,
    latency_uniform,
)
from repro.simulation.transport import Transport

LATENCIES = {
    "constant": latency_constant(1.5),
    "uniform": latency_uniform(0.0, 2.5),
    "exponential": latency_exponential(0.8),
}


def make_network(kind: str, latency: str) -> NetworkModel | None:
    if kind == "none":
        return None
    if kind == "iid":
        return NetworkModel(latency=LATENCIES[latency], loss_probability=0.2)
    return GilbertElliottNetworkModel(
        latency=LATENCIES[latency],
        loss_probability=0.05,
        bad_loss_probability=0.6,
        p_good_to_bad=0.3,
        p_bad_to_good=0.4,
    )


class TestLegLaw:
    @settings(max_examples=150, deadline=None)
    @given(
        n=st.integers(2, 40),
        repetitions=st.integers(1, 5),
        network=st.sampled_from(("none", "iid", "bursty")),
        latency=st.sampled_from(tuple(LATENCIES)),
        churn=st.booleans(),
        early_leg=st.booleans(),
        rounds=st.integers(1, 8),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_every_message_is_booked_lands_once_or_is_lost_to_an_absent_member(
        self, n, repetitions, network, latency, churn, early_leg, rounds, seed
    ):
        rng = np.random.default_rng(seed)
        schedule = None
        if churn:
            model = PoissonChurnModel(leave_rate=0.2, join_rate=0.3, initially_absent=0.3)
            schedule = model.draw_batch(n, repetitions, rng, source=0)
        transport = Transport(
            n, repetitions, 0, rng, network=make_network(network, latency), churn=schedule
        )
        legs = np.random.default_rng(seed + 1)  # the test's own draws
        cells_total = repetitions * n
        addressee: dict[int, int] = {}  # id -> cell, for every id sent
        sent_round: dict[int, int] = {}  # id -> round, for every id that survived send
        landed: set[int] = set()
        presence: dict[int, np.ndarray | None] = {}  # round -> flat presence mask

        def leg(channel: str) -> None:
            first = len(addressee)
            cells = legs.integers(0, cells_total, size=int(legs.integers(0, 3 * n)))
            ids = np.arange(first, first + cells.size, dtype=np.int64)
            addressee.update(zip(ids.tolist(), cells.tolist()))
            before = transport.sent.copy()
            kept, kept_ids = transport.send(cells, cells // n, control=channel == "digest", aux=ids)
            np.testing.assert_array_equal(
                transport.sent - before, np.bincount(cells // n, minlength=repetitions)
            )
            assert (transport.dropped <= transport.sent).all()
            np.testing.assert_array_equal(kept, cells[kept_ids - first])
            here = presence[transport.round_index]
            assert here is None or here[kept].all()
            sent_round.update(dict.fromkeys(kept_ids.tolist(), transport.round_index))
            arrived, times, arrived_ids = transport.arrive(kept, channel=channel, aux=kept_ids)
            assert here is None or here[arrived].all()
            assert (times is None) == (transport.plane is None)
            land(arrived, arrived_ids)

        def land(cells: np.ndarray, ids: np.ndarray) -> None:
            ids = ids.tolist()
            assert landed.isdisjoint(ids) and len(set(ids)) == len(ids)
            assert cells.tolist() == [addressee[i] for i in ids]
            landed.update(ids)

        def remember_presence() -> None:
            present = transport.present
            presence[transport.round_index] = None if present is None else present.ravel()

        remember_presence()
        if early_leg:  # a leg before round 1, like pbcast's broadcast
            leg("payload")
        for _ in range(rounds):
            transport.next_round()
            remember_presence()
            leg("payload")
            leg("digest")

        in_flight: set[int] = set()
        if transport.plane is not None:
            cells, _, ids = transport.plane.drain("payload")
            if ids is not None:
                land(cells, ids)
            _, _, ids = transport.plane.drain("digest")
            in_flight = set() if ids is None else set(ids.tolist())
        assert landed.isdisjoint(in_flight)
        assert landed | in_flight <= set(sent_round)
        lost = set(sent_round) - landed - in_flight
        if transport.churn is None:
            assert not lost
        for i in lost:
            later = range(sent_round[i] + 1, transport.round_index + 1)
            assert any(not presence[r][addressee[i]] for r in later), i


@st.composite
def replica_major_legs(draw) -> tuple[int, list[list[int]]]:
    """A group size and, per replica, the members its messages address (maybe none)."""
    n = draw(st.integers(1, 50))
    legs = draw(st.lists(st.lists(st.integers(0, n - 1), max_size=6), min_size=1, max_size=405))
    return n, legs


def flat_leg(n: int, legs: list[list[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The replica-major flat cells of ``legs`` and the replica of each."""
    replica = np.repeat(np.arange(len(legs), dtype=np.int64), [len(leg) for leg in legs])
    members = np.array([m for leg in legs for m in leg], dtype=np.int64)
    return replica * n + members, replica


class TestReplicaCounts:
    @settings(max_examples=300, deadline=None)
    @given(leg=replica_major_legs())
    def test_equals_bincount_on_replica_major_legs(self, leg):
        n, legs = leg
        cells, replica = flat_leg(n, legs)
        transport = Transport(n, len(legs), 0, np.random.default_rng(0))
        np.testing.assert_array_equal(
            transport.replica_counts(cells), np.bincount(replica, minlength=len(legs))
        )

    @settings(max_examples=100, deadline=None)
    @given(leg=replica_major_legs(), seed=st.integers(0, 2**32 - 1))
    def test_replica_major_send_books_what_bincount_books(self, leg, seed):
        n, legs = leg
        cells, replica = flat_leg(n, legs)
        network = NetworkModel(loss_probability=0.3)
        segments = Transport(n, len(legs), 0, np.random.default_rng(seed), network=network)
        counted = Transport(n, len(legs), 0, np.random.default_rng(seed), network=network)
        kept, _ = segments.send(cells)
        want, _ = counted.send(cells, replica)
        np.testing.assert_array_equal(kept, want)
        np.testing.assert_array_equal(segments.sent, counted.sent)
        np.testing.assert_array_equal(segments.dropped, counted.dropped)
