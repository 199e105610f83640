"""Reproduce Fig. 6 — distribution of gossiping success with {f=4.0, q=0.9}.

Runs the paper's protocol (2000 members, 20 executions per simulation, 100
simulations), prints the Pr(X = k) table against the Binomial reference, and
checks that the empirical success probability matches the analytical
reliability (~0.967) and that Eq. 6 yields t = 3 executions for a 0.999
success requirement.
"""

from __future__ import annotations

from _bench_utils import bench_scale, print_banner, scaled

from repro.experiments.fig6_success_f4_q09 import Fig6Config, run_fig6


def test_fig6_success_distribution_f4_q09(benchmark):
    scale = bench_scale()
    config = Fig6Config().scaled(
        n=scaled(2000, 200, scale), simulations=scaled(100, 20, scale)
    )
    result = benchmark.pedantic(run_fig6, args=(config,), rounds=1, iterations=1)

    print_banner(
        f"Fig. 6 — Distribution of gossiping success, f=4.0, q=0.9, n={config.n}, "
        f"{config.simulations} simulations x {config.executions} executions"
    )
    print(result.to_table())
    print()
    print(
        f"analytical reliability p_r = {result.counts.analytical_reliability:.4f} "
        f"(paper reports ~0.967); empirical MLE = {result.fit.estimated_probability:.4f}"
    )
    print(
        f"total variation distance to B({config.executions}, p_r) = "
        f"{result.counts.total_variation_distance():.4f}; "
        f"chi-square p-value = {result.chi_square.p_value:.4f}"
    )
    print(f"Eq. 6 minimum executions for 0.999 success: {result.required_executions}")

    problems = result.check_shape()
    assert problems == [], f"Fig. 6 shape violations: {problems}"
    # The paper's worked value: roughly 0.967 reliability and t = 3 (Eq. 6
    # evaluated at the rounded 0.967; the exact fixed point gives 2).
    assert result.counts.analytical_reliability == 0.9695058720241387 or (
        0.95 < result.counts.analytical_reliability < 0.98
    )
    assert result.required_executions in (2, 3)
