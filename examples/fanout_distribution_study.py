#!/usr/bin/env python
"""Fanout-distribution study — what the shape of the fanout really buys you.

The paper's model accepts arbitrary fanout distributions; this example uses
that freedom to answer a practical question: *at the same average cost (mean
fanout 4), does it matter whether every member forwards to exactly 4 peers,
to Poisson(4) peers, or to a heavy-at-zero Geometric(mean 4) number of
peers?*

Two different quantities respond very differently:

* the probability that the gossip takes off at all (the fanout shape matters
  a lot — any mass at fanout 0 risks immediate die-out near the source), and
* the fraction of live members reached once it has taken off (essentially
  shape-independent, because targets are chosen uniformly so in-degrees are
  Poisson regardless).

Run with::

    python examples/fanout_distribution_study.py
"""

from __future__ import annotations

from repro.core.distributions import FixedFanout, GeometricFanout, PoissonFanout, UniformFanout
from repro.core.percolation import critical_ratio, giant_component_size
from repro.simulation.runner import estimate_reliability
from repro.utils.tables import format_table

GROUP_SIZE = 2000
NONFAILED_RATIO = 0.9
REPETITIONS = 15


def main() -> None:
    families = {
        "fixed(4)": FixedFanout(4),
        "uniform(2..6)": UniformFanout(2, 6),
        "poisson(4)": PoissonFanout(4.0),
        "geometric(mean 4)": GeometricFanout.from_mean(4.0),
    }

    rows = []
    for label, dist in families.items():
        estimate = estimate_reliability(
            GROUP_SIZE,
            dist,
            NONFAILED_RATIO,
            repetitions=REPETITIONS,
            seed=42,
            conditional_on_spread=True,
        )
        rows.append(
            (
                label,
                dist.mean(),
                critical_ratio(dist),
                giant_component_size(dist, NONFAILED_RATIO),
                estimate.spread_rate,
                estimate.mean_reliability,
            )
        )

    print(
        f"Fanout-distribution study — n={GROUP_SIZE}, q={NONFAILED_RATIO}, "
        f"{REPETITIONS} runs per family\n"
    )
    print(
        format_table(
            [
                "fanout family",
                "mean",
                "q_c (Eq. 3)",
                "model S=1-G0(u)",
                "take-off rate",
                "reached | take-off",
            ],
            rows,
            precision=3,
        )
    )
    print(
        "\nReading: the 'reached | take-off' column is nearly identical across"
        "\nfamilies (uniform target choice makes in-degrees Poisson), while the"
        "\ntake-off rate tracks the probability of drawing fanout 0 near the"
        "\nsource — the practical reason to avoid heavy-at-zero fanouts even"
        "\nwhen the mean is generous.  The model column S = 1 - G0(u) describes"
        "\nthe undirected configuration-model ensemble the paper analyses."
    )


if __name__ == "__main__":
    main()
