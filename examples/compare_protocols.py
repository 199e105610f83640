#!/usr/bin/env python
"""Protocol bake-off — the paper's algorithm against related-work baselines.

Runs every protocol in :mod:`repro.protocols` under the identical fail-stop
fault model (1000 members, 30% crashed) and prints reliability, atomicity
rate, message cost and rounds, i.e. the comparison the paper's related-work
section implies but never measures.

Run with::

    python examples/compare_protocols.py
"""

from __future__ import annotations

import numpy as np

from repro.core.distributions import PoissonFanout
from repro.protocols import (
    FixedFanoutGossip,
    FloodingProtocol,
    LpbcastProtocol,
    PbcastProtocol,
    RandomFanoutGossip,
    RouteDrivenGossip,
)
from repro.utils.tables import format_table

GROUP_SIZE = 1000
NONFAILED_RATIO = 0.7
REPETITIONS = 10


def main() -> None:
    protocols = [
        ("paper's random-fanout gossip", RandomFanoutGossip(PoissonFanout(4.0))),
        ("traditional fixed-fanout gossip", FixedFanoutGossip(4)),
        ("pbcast (broadcast + anti-entropy)", PbcastProtocol(fanout=2, rounds=6)),
        ("lpbcast (partial views)", LpbcastProtocol(fanout=3, rounds=8, view_size=30)),
        ("route driven gossip (push/pull)", RouteDrivenGossip(fanout=2, rounds=6, pull_fanout=1)),
        ("flooding (upper bound)", FloodingProtocol(degree=4)),
    ]

    rows = []
    for label, protocol in protocols:
        # All runs of one protocol advance together as one replica batch.
        batch = protocol.run_batch(
            GROUP_SIZE, NONFAILED_RATIO, repetitions=REPETITIONS, seed=1000
        )
        rows.append(
            (
                label,
                float(np.mean(batch.reliability())),
                float(np.mean(batch.is_atomic())),
                float(np.mean(batch.messages_per_member())),
                float(np.mean(batch.rounds)),
            )
        )

    print(
        f"Protocol comparison — n={GROUP_SIZE}, q={NONFAILED_RATIO}, "
        f"{REPETITIONS} runs per protocol\n"
    )
    print(
        format_table(
            ["protocol", "reliability", "atomic_rate", "msgs_per_member", "rounds"],
            rows,
            precision=3,
        )
    )
    print(
        "\nReading: flooding shows the reliability ceiling and its message cost;"
        "\ngossip variants trade a small reliability gap for a much smaller and"
        "\nevenly distributed per-member load; pull/anti-entropy phases (pbcast,"
        "\nRDG) close most of the gap at moderate extra cost."
    )


if __name__ == "__main__":
    main()
