"""Unit tests for the distribution ablation sweep."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import (
    DistributionSweep,
    default_distribution_families,
    distribution_ablation,
)
from repro.core.distributions import FixedFanout, PoissonFanout


class TestDefaultFamilies:
    def test_families_present(self):
        families = default_distribution_families(4.0)
        assert set(families) == {"poisson", "fixed", "geometric", "uniform"}

    def test_means_close_to_target(self):
        families = default_distribution_families(4.0)
        for dist in families.values():
            assert dist.mean() == pytest.approx(4.0, abs=0.6)

    def test_uniform_mean_unbiased_at_small_means(self):
        # Regression: U(max(0, rounded-2), rounded+2) was asymmetric below
        # rounded=2 — a requested mean of 1 became U(0, 3), realised mean
        # 1.5.  The symmetric clip keeps the realised mean exactly at the
        # rounded target for every mean.
        for target in (1.0, 2.0, 3.0, 4.0, 7.0):
            families = default_distribution_families(target)
            assert families["uniform"].mean() == pytest.approx(round(target)), target
            assert families["fixed"].mean() == pytest.approx(round(target)), target

    def test_realised_mean_surfaced_in_rows(self):
        sweep = distribution_ablation(200, 1.0, qs=[0.9], repetitions=2, seed=5)
        for row in sweep.rows:
            assert row.mean_fanout == pytest.approx(1.0)  # the requested mean
            assert row.mean_bias() == pytest.approx(row.realised_mean - row.mean_fanout)
            if row.family == "uniform":
                assert row.realised_mean == pytest.approx(1.0)


class TestDistributionAblation:
    def test_rows_cover_grid(self):
        sweep = distribution_ablation(
            300,
            4.0,
            qs=[0.5, 0.9],
            families={"poisson": PoissonFanout(4.0), "fixed": FixedFanout(4)},
            repetitions=3,
            seed=1,
        )
        assert len(sweep.rows) == 4
        assert sweep.families() == ["poisson", "fixed"]
        assert len(sweep.rows_for_family("poisson")) == 2

    def test_rows_for_family_sorted_by_q(self):
        sweep = distribution_ablation(
            200,
            3.0,
            qs=[0.9, 0.5],
            families={"poisson": PoissonFanout(3.0)},
            repetitions=2,
            seed=2,
        )
        qs = [row.q for row in sweep.rows_for_family("poisson")]
        assert qs == sorted(qs)

    def test_analytical_column_is_consistent(self):
        from repro.core.reliability import reliability

        sweep = distribution_ablation(
            200,
            4.0,
            qs=[0.8],
            families={"fixed": FixedFanout(4)},
            repetitions=2,
            seed=3,
        )
        row = sweep.rows[0]
        assert row.analytical == pytest.approx(reliability(FixedFanout(4), 0.8))
        assert row.critical_ratio == pytest.approx(1.0 / 3.0)

    def test_error_helpers(self):
        sweep = distribution_ablation(
            400,
            4.0,
            qs=[0.9],
            families={"poisson": PoissonFanout(4.0)},
            repetitions=5,
            seed=4,
        )
        assert sweep.max_absolute_error() <= 1.0
        for row in sweep.rows:
            assert row.absolute_error() >= 0.0

    def test_empty_sweep(self):
        sweep = DistributionSweep(n=100, qs=())
        assert sweep.max_absolute_error() == 0.0
        assert sweep.families() == []

    def test_invalid_q(self):
        with pytest.raises(ValueError):
            distribution_ablation(100, 3.0, qs=[1.5], repetitions=2)

    @pytest.mark.parametrize("mean_fanout", [99.5, 500.0, 1e18])
    def test_mean_fanout_above_group_rejected(self, mean_fanout):
        with pytest.raises(ValueError, match="mean_fanout"):
            distribution_ablation(100, mean_fanout, qs=[0.9], repetitions=2)
