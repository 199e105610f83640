"""Unit tests for the Monte-Carlo runner and sweeps."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.distributions import PoissonFanout
from repro.core.poisson_case import poisson_reliability
from repro.simulation import runner
from repro.simulation.membership import UniformPartialView
from repro.simulation.runner import estimate_reliability, reliability_sweep


class TestEstimateReliability:
    def test_mean_matches_analysis(self):
        estimate = estimate_reliability(1500, PoissonFanout(4.0), 0.9, repetitions=10, seed=1)
        assert estimate.mean_reliability == pytest.approx(poisson_reliability(4.0, 0.9), abs=0.03)

    def test_record_fields(self):
        estimate = estimate_reliability(300, PoissonFanout(3.0), 0.8, repetitions=6, seed=2)
        assert estimate.n == 300
        assert estimate.q == 0.8
        assert estimate.mean_fanout == pytest.approx(3.0)
        assert estimate.repetitions == 6
        assert estimate.samples.shape == (6,)
        assert estimate.mean_rounds > 0
        assert estimate.mean_messages > 0

    def test_reproducible_serial(self):
        a = estimate_reliability(200, PoissonFanout(3.0), 0.8, repetitions=5, seed=3)
        b = estimate_reliability(200, PoissonFanout(3.0), 0.8, repetitions=5, seed=3)
        np.testing.assert_allclose(a.samples, b.samples)

    def test_partial_view_supported_serially(self):
        view = UniformPartialView(300, 8, seed=4)
        estimate = estimate_reliability(
            300, PoissonFanout(4.0), 0.9, repetitions=4, seed=5, membership=view
        )
        assert 0.0 <= estimate.mean_reliability <= 1.0

    def test_parallel_path_gives_sensible_result(self):
        # A chunk holds at most 327 replicas at n=400, so 400 replicas run as
        # two chunks of 200, which processes=2 hands to worker processes.
        kwargs = dict(repetitions=400, seed=6, conditional_on_spread=True)
        serial = estimate_reliability(400, PoissonFanout(4.0), 0.9, processes=1, **kwargs)
        estimate = estimate_reliability(400, PoissonFanout(4.0), 0.9, processes=2, **kwargs)
        np.testing.assert_array_equal(estimate.samples, serial.samples)
        assert (estimate.repetitions, estimate.mean_reliability) == (
            serial.repetitions,
            serial.mean_reliability,
        )
        assert estimate.repetitions <= 400
        assert estimate.mean_reliability == pytest.approx(poisson_reliability(4.0, 0.9), abs=0.05)

    def test_conditional_on_spread_matches_analysis_near_threshold(self):
        # Near the threshold the unconditional average undershoots the
        # analytical giant-component size, while the conditional one matches.
        unconditional = estimate_reliability(
            2000, PoissonFanout(3.0), 0.5, repetitions=20, seed=77
        )
        conditional = estimate_reliability(
            2000, PoissonFanout(3.0), 0.5, repetitions=20, seed=77, conditional_on_spread=True
        )
        analytic = poisson_reliability(3.0, 0.5)
        assert conditional.mean_reliability == pytest.approx(analytic, abs=0.06)
        assert unconditional.mean_reliability < conditional.mean_reliability
        assert 0.0 < conditional.spread_rate <= 1.0
        assert conditional.conditional_on_spread

    def test_spread_rate_reported(self):
        estimate = estimate_reliability(500, PoissonFanout(4.0), 0.9, repetitions=10, seed=8)
        assert 0.0 <= estimate.spread_rate <= 1.0
        assert not estimate.conditional_on_spread

    def test_invalid_arguments(self):
        with pytest.raises(ValueError):
            estimate_reliability(1, PoissonFanout(3.0), 0.5)
        with pytest.raises(ValueError):
            estimate_reliability(100, PoissonFanout(3.0), 0.5, repetitions=0)


class TestSeedPathDeterminism:
    """Regression: the two serial spellings of the same run must agree.

    ``reliability_sweep`` used to seed ``estimate_reliability`` with the live
    generator when ``processes=1`` but with a spawned child seed when
    ``processes=None`` — so the same sweep at the same seed produced
    different numbers depending on which way "serial" was spelled.  The seed
    path is now unified (always spawn; chunk layout a function of
    ``repetitions`` alone), making every ``processes`` spelling
    bit-identical.
    """

    def test_estimate_processes_none_equals_one(self):
        kwargs = dict(repetitions=20, seed=31)
        one = estimate_reliability(300, PoissonFanout(4.0), 0.9, processes=1, **kwargs)
        auto = estimate_reliability(300, PoissonFanout(4.0), 0.9, processes=None, **kwargs)
        np.testing.assert_array_equal(one.samples, auto.samples)
        assert one.mean_rounds == auto.mean_rounds
        assert one.mean_messages == auto.mean_messages

    def test_estimate_explicit_pool_matches_serial(self):
        # At n=20,000 the 20 replicas run as three chunks, so the pool runs
        # them in worker processes.
        kwargs = dict(repetitions=20, seed=32)
        one = estimate_reliability(20_000, PoissonFanout(2.0), 0.9, processes=1, **kwargs)
        pooled = estimate_reliability(20_000, PoissonFanout(2.0), 0.9, processes=3, **kwargs)
        assert np.unique(one.samples).size > 1
        np.testing.assert_array_equal(one.samples, pooled.samples)

    def test_scalar_engine_processes_none_equals_one(self):
        kwargs = dict(repetitions=6, seed=33, engine="scalar")
        one = estimate_reliability(200, PoissonFanout(3.0), 0.8, processes=1, **kwargs)
        auto = estimate_reliability(200, PoissonFanout(3.0), 0.8, processes=None, **kwargs)
        np.testing.assert_array_equal(one.samples, auto.samples)

    def test_sweep_processes_none_equals_one(self):
        kwargs = dict(fanouts=[3.0, 5.0], qs=[0.8, 1.0], repetitions=10, seed=34)
        one = reliability_sweep(250, processes=1, **kwargs)
        auto = reliability_sweep(250, processes=None, **kwargs)
        assert [(p.simulated, p.simulated_std, p.mean_fanout, p.q) for p in one.points] == [
            (p.simulated, p.simulated_std, p.mean_fanout, p.q) for p in auto.points
        ]

    def test_sweep_explicit_pool_matches_serial(self):
        # Six cells: parallel_map runs 4 or fewer items in-process.
        kwargs = dict(fanouts=[1.0, 3.0, 5.0], qs=[0.8, 1.0], repetitions=10, seed=35)
        one = reliability_sweep(250, processes=1, **kwargs)
        pooled = reliability_sweep(250, processes=2, **kwargs)
        assert len({p.simulated for p in one.points}) > 1
        assert one.points == pooled.points


class TestChunkLayout:
    """One estimate's replica chunks depend on ``n`` and ``repetitions`` alone."""

    @pytest.mark.parametrize(("n", "chunks"), [(5000, [20]), (20_000, [7, 7, 6])])
    def test_chunk_sizes(self, monkeypatch, n, chunks):
        sizes = []
        batch = runner.simulate_gossip_batch

        def recording(*args, **kwargs):
            sizes.append(kwargs["repetitions"])
            return batch(*args, **kwargs)

        monkeypatch.setattr(runner, "simulate_gossip_batch", recording)
        # Subcritical (mean fanout 0.45 among survivors): every replica dies out fast.
        estimate = estimate_reliability(n, PoissonFanout(0.5), 0.9, repetitions=20, seed=36)
        assert sizes == chunks
        assert estimate.repetitions == 20


class TestReliabilitySweep:
    def test_grid_coverage(self):
        sweep = reliability_sweep(
            200, fanouts=[1.0, 3.0, 5.0], qs=[0.5, 1.0], repetitions=3, seed=7
        )
        assert len(sweep.points) == 6
        assert sweep.fanouts == (1.0, 3.0, 5.0)
        assert sweep.qs == (0.5, 1.0)

    def test_series_extraction_sorted(self):
        sweep = reliability_sweep(
            150, fanouts=[5.0, 1.0, 3.0], qs=[0.8], repetitions=2, seed=8
        )
        series = sweep.series_for_q(0.8)
        assert [p.mean_fanout for p in series] == [1.0, 3.0, 5.0]

    def test_analytical_column_matches_closed_form(self):
        sweep = reliability_sweep(100, fanouts=[2.0, 4.0], qs=[0.9], repetitions=2, seed=9)
        for point in sweep.points:
            assert point.analytical == pytest.approx(
                poisson_reliability(point.mean_fanout, point.q), abs=1e-9
            )

    def test_error_metrics(self):
        # Conditioning on spread matches the analytical giant-component size
        # and keeps the check robust to the occasional die-out replica.
        sweep = reliability_sweep(
            600, fanouts=[4.0], qs=[0.9], repetitions=8, seed=10,
            conditional_on_spread=True,
        )
        assert sweep.max_absolute_error() < 0.1
        assert sweep.mean_absolute_error() <= sweep.max_absolute_error()

    def test_to_rows_format(self):
        sweep = reliability_sweep(100, fanouts=[2.0], qs=[0.7], repetitions=2, seed=11)
        rows = sweep.to_rows()
        assert len(rows) == 1
        assert len(rows[0]) == 5

    def test_alternative_distribution_factory(self):
        from repro.core.distributions import GeometricFanout

        sweep = reliability_sweep(
            200,
            fanouts=[3.0],
            qs=[0.9],
            repetitions=3,
            seed=12,
            distribution_factory=GeometricFanout.from_mean,
        )
        point = sweep.points[0]
        assert point.analytical != pytest.approx(poisson_reliability(3.0, 0.9), abs=1e-3)

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            reliability_sweep(100, fanouts=[2.0], qs=[1.5], repetitions=2)

    def test_empty_grid(self):
        sweep = reliability_sweep(100, fanouts=[], qs=[], repetitions=2, seed=13)
        assert sweep.points == []
        assert sweep.max_absolute_error() == 0.0
