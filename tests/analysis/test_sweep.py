"""Unit tests for the CLI's fanout-distribution families."""

from __future__ import annotations

import pytest

from repro.analysis.sweep import default_distribution_families


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
