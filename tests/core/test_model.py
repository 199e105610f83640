"""Unit tests for the GossipModel façade."""

from __future__ import annotations

import pytest

from repro.core.distributions import FixedFanout, PoissonFanout
from repro.core.model import GossipModel
from repro.core.poisson_case import poisson_reliability


class TestConstruction:
    def test_poisson_convenience_constructor(self):
        model = GossipModel.poisson(1000, 4.0, 0.9)
        assert isinstance(model.distribution, PoissonFanout)
        assert model.n == 1000
        assert model.q == 0.9

    def test_rejects_small_group(self):
        with pytest.raises(ValueError):
            GossipModel(n=1, distribution=PoissonFanout(2.0), q=0.5)

    def test_rejects_bad_distribution_type(self):
        with pytest.raises(TypeError):
            GossipModel(n=10, distribution="poisson", q=0.5)  # type: ignore[arg-type]

    def test_rejects_bad_q(self):
        with pytest.raises(ValueError):
            GossipModel(n=10, distribution=PoissonFanout(2.0), q=1.5)


class TestAnalyticalInterface:
    def test_reliability_matches_closed_form(self):
        model = GossipModel.poisson(2000, 4.0, 0.9)
        assert model.reliability() == pytest.approx(poisson_reliability(4.0, 0.9))

    def test_critical_ratio_and_supercritical_flag(self):
        model = GossipModel.poisson(500, 4.0, 0.9)
        assert model.critical_ratio() == pytest.approx(0.25)
        assert model.is_supercritical()
        sub = GossipModel.poisson(500, 2.0, 0.3)
        assert not sub.is_supercritical()

    def test_success_probability_and_min_executions(self):
        model = GossipModel.poisson(1000, 4.0, 0.9)
        p1 = model.reliability()
        assert model.success_probability(1) == pytest.approx(p1)
        assert model.success_probability(3) == pytest.approx(1 - (1 - p1) ** 3)
        t = model.min_executions(0.999)
        assert model.success_probability(t) >= 0.999
        assert model.success_probability(t - 1) < 0.999

    def test_max_tolerable_failure_ratio(self):
        model = GossipModel(n=1000, distribution=FixedFanout(6), q=0.9)
        ratio = model.max_tolerable_failure_ratio(0.9)
        assert 0.0 < ratio < 1.0

    def test_describe_contents(self):
        model = GossipModel.poisson(1000, 4.0, 0.9)
        info = model.describe()
        assert info["n"] == 1000
        assert info["q"] == 0.9
        assert info["mean_fanout"] == pytest.approx(4.0)
        assert info["critical_ratio"] == pytest.approx(0.25)
        assert info["analytical_reliability"] == pytest.approx(model.reliability())

    def test_analysis_is_cached(self):
        model = GossipModel.poisson(1000, 4.0, 0.9)
        assert model.analysis() is model.analysis()


class TestSimulationInterface:
    def test_simulate_reliability_matches_analysis(self):
        # R(q, P) is the reach of a gossip that took off.  About 3% of
        # replicas die out near the source, so the unconditional mean of 10
        # misses R whenever one does: compare the replicas that spread.
        model = GossipModel.poisson(800, 4.0, 0.9)
        estimate = model.simulate_reliability(repetitions=10, seed=1)
        spread = estimate.samples[estimate.samples > 0.5]
        assert spread.size >= 7
        assert spread.mean() == pytest.approx(model.reliability(), abs=0.05)
        assert estimate.repetitions == 10
