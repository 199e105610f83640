"""Reproduce Fig. 7 — distribution of gossiping success with {f=6.0, q=0.6}.

Same protocol as Fig. 6 with the second parameter pair.  Additionally checks
the paper's closing observation: {4.0, 0.9} and {6.0, 0.6} share the same
analytical reliability (equal f·q) yet their realised success-count
distributions are not exactly identical.
"""

from __future__ import annotations

import numpy as np
from _bench_utils import bench_scale, print_banner, scaled

from repro.experiments.fig6_success_f4_q09 import Fig6Config, run_fig6
from repro.experiments.fig7_success_f6_q06 import Fig7Config, run_fig7


def test_fig7_success_distribution_f6_q06(benchmark):
    scale = bench_scale()
    config = Fig7Config().scaled(
        n=scaled(2000, 200, scale), simulations=scaled(100, 20, scale)
    )
    result = benchmark.pedantic(run_fig7, args=(config,), rounds=1, iterations=1)

    print_banner(
        f"Fig. 7 — Distribution of gossiping success, f=6.0, q=0.6, n={config.n}, "
        f"{config.simulations} simulations x {config.executions} executions"
    )
    print(result.to_table())
    print()
    print(
        f"analytical reliability p_r = {result.counts.analytical_reliability:.4f}; "
        f"empirical MLE = {result.fit.estimated_probability:.4f}; "
        f"TV distance = {result.counts.total_variation_distance():.4f}"
    )

    problems = result.check_shape()
    assert problems == [], f"Fig. 7 shape violations: {problems}"

    # Cross-figure comparison (the paper's final observation in Section 5.2).
    fig6 = run_fig6(
        Fig6Config().scaled(n=scaled(2000, 200, scale), simulations=scaled(100, 20, scale))
    )
    assert abs(fig6.counts.analytical_reliability - result.counts.analytical_reliability) < 1e-9
    same_mean_within_noise = abs(fig6.counts.mean_count() - result.counts.mean_count()) < 2.0
    identical_distributions = np.allclose(
        fig6.counts.empirical_pmf, result.counts.empirical_pmf
    )
    print(
        f"Fig. 6 mean X = {fig6.counts.mean_count():.2f}, "
        f"Fig. 7 mean X = {result.counts.mean_count():.2f}, "
        f"identical distributions: {identical_distributions}"
    )
    assert same_mean_within_noise
    if scale >= 0.99:
        assert not identical_distributions
