"""Reproduce Figs. 5a/5b — reliability of gossiping in a 5000-member group.

Same protocol as Fig. 4 at group size 5000.  Besides the per-figure checks,
this bench verifies the paper's observation that the larger group tracks the
analytical curve at least as well as the 1000-member group (finite-size
effects shrink with n).
"""

from __future__ import annotations

from _bench_utils import bench_scale, print_banner, scaled

from repro.experiments.fig4_reliability_1000 import Fig4Config, run_fig4
from repro.experiments.fig5_reliability_5000 import Fig5Config, run_fig5


def test_fig5_reliability_5000_nodes(benchmark):
    scale = bench_scale()
    config = Fig5Config().scaled(
        n=scaled(5000, 300, scale), repetitions=scaled(20, 4, scale)
    )
    result = benchmark.pedantic(run_fig5, args=(config,), rounds=1, iterations=1)

    print_banner(
        f"Figs. 5a/5b — Reliability vs mean fanout, n={config.n}, "
        f"{config.repetitions} runs per point"
    )
    print(result.to_table())
    print()
    print("Per-q analysis-vs-simulation agreement:")
    print(result.comparison_table())

    if scale >= 0.99:
        problems = result.check_shape(tolerance=0.1)
        assert problems == [], f"Fig. 5 shape violations: {problems}"
    else:
        # Scaled smoke runs keep only the coarse agreement checks.
        for q, comparison in result.comparisons.items():
            if q >= 0.4:
                assert comparison.mean_absolute_error < 0.25, f"q={q}"

    # Paper's observation: the 5000-node simulation tallies with the analysis
    # better than (or at least as well as) the 1000-node one.  Compare the
    # worst per-q mean absolute error against a small 1000-node rerun.
    small = run_fig4(
        Fig4Config().scaled(n=scaled(1000, 100, scale), repetitions=scaled(20, 4, scale))
    )
    worst_5000 = max(c.mean_absolute_error for c in result.comparisons.values())
    worst_1000 = max(c.mean_absolute_error for c in small.comparisons.values())
    print(f"worst per-q MAE: n={config.n} -> {worst_5000:.4f}, smaller group -> {worst_1000:.4f}")
    if scale >= 0.99:
        assert worst_5000 <= worst_1000 + 0.05
