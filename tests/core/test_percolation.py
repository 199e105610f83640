"""Unit tests for the percolation analysis (Eqs. 2-4 of the paper)."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.sweep import default_distribution_families
from repro.core.distributions import (
    FixedFanout,
    GeometricFanout,
    MixtureFanout,
    PoissonFanout,
    UniformFanout,
)
from repro.core.percolation import (
    critical_ratio,
    giant_component_size,
    mean_component_size,
    percolation_analysis,
    self_consistent_u,
)


class TestCriticalRatio:
    def test_poisson_critical_ratio_is_reciprocal_of_mean(self):
        # Eq. 10: q_c = 1/z for Poisson fanout.
        for z in (1.5, 2.0, 4.0, 6.0):
            assert critical_ratio(PoissonFanout(z)) == pytest.approx(1.0 / z, rel=1e-9)

    def test_fixed_fanout_critical_ratio(self):
        # G1'(1) = k - 1 for a fixed fanout k, so q_c = 1/(k-1).
        assert critical_ratio(FixedFanout(4)) == pytest.approx(1.0 / 3.0)

    def test_degenerate_distributions_have_infinite_threshold(self):
        assert critical_ratio(FixedFanout(0)) == math.inf
        assert critical_ratio(FixedFanout(1)) == math.inf
        zero_or_one = MixtureFanout([FixedFanout(0), FixedFanout(1)], [0.5, 0.5])
        assert critical_ratio(zero_or_one) == math.inf

    def test_heavier_tail_lowers_threshold_at_equal_mean(self):
        # At equal mean, a heavier-tailed fanout has a larger excess degree
        # and therefore a smaller critical ratio.
        poisson = PoissonFanout(3.0)
        geometric = GeometricFanout.from_mean(3.0)
        assert critical_ratio(geometric) < critical_ratio(poisson)


class TestMeanComponentSize:
    def test_subcritical_value_matches_formula(self):
        dist = PoissonFanout(2.0)
        q = 0.3  # q z = 0.6 < 1: subcritical
        expected = q * (1.0 + q * dist.g0_prime(1.0) / (1.0 - q * dist.g1_prime(1.0)))
        assert mean_component_size(dist, q) == pytest.approx(expected)

    def test_diverges_at_critical_point(self):
        dist = PoissonFanout(2.0)
        assert mean_component_size(dist, 0.5) == math.inf
        assert mean_component_size(dist, 0.9) == math.inf

    def test_grows_towards_threshold(self):
        dist = PoissonFanout(2.0)
        values = [mean_component_size(dist, q) for q in (0.1, 0.2, 0.3, 0.4, 0.45)]
        assert all(b > a for a, b in zip(values, values[1:], strict=False))

    def test_q_zero(self):
        assert mean_component_size(PoissonFanout(3.0), 0.0) == 0.0


class TestGiantComponentSize:
    def test_zero_below_threshold(self):
        assert giant_component_size(PoissonFanout(2.0), 0.4) == pytest.approx(0.0, abs=1e-6)

    def test_positive_above_threshold(self):
        assert giant_component_size(PoissonFanout(2.0), 0.7) > 0.2

    def test_matches_poisson_closed_form(self):
        from repro.core.poisson_case import poisson_reliability

        for z, q in [(4.0, 0.9), (6.0, 0.6), (2.0, 0.8), (3.0, 1.0)]:
            assert giant_component_size(PoissonFanout(z), q) == pytest.approx(
                poisson_reliability(z, q), abs=1e-6
            )

    def test_monotone_in_q(self):
        dist = PoissonFanout(3.0)
        sizes = [giant_component_size(dist, q) for q in (0.4, 0.5, 0.7, 0.9, 1.0)]
        assert all(b >= a - 1e-9 for a, b in zip(sizes, sizes[1:], strict=False))

    def test_monotone_in_mean_fanout(self):
        sizes = [giant_component_size(PoissonFanout(z), 0.8) for z in (1.5, 2.0, 3.0, 5.0, 8.0)]
        assert all(b >= a - 1e-9 for a, b in zip(sizes, sizes[1:], strict=False))

    def test_zero_mean_distribution(self):
        assert giant_component_size(FixedFanout(0), 0.9) == 0.0

    @pytest.mark.parametrize(
        ("dist", "q"),
        [
            (UniformFanout(0, 2), 0.9),  # q_c = 1.5
            (GeometricFanout.from_mean(0.4), 0.9),  # q_c = 1.25
            (GeometricFanout.from_mean(1.0), 0.5),  # exactly at q_c = 0.5
        ],
        ids=["uniform-0-2", "geometric-0.4", "geometric-1-at-q_c"],
    )
    def test_exactly_zero_at_or_below_threshold(self, dist, q):
        """The solver stops just short of u = 1 there; Eq. 3 decides, as ``supercritical`` does."""
        assert q <= critical_ratio(dist)
        assert giant_component_size(dist, q) == 0.0
        result = percolation_analysis(dist, q)
        assert not result.supercritical
        assert result.giant_component_size == result.giant_component_size_all == 0.0
        assert result.u == 1.0

    def test_q_zero_gives_zero(self):
        assert giant_component_size(PoissonFanout(5.0), 0.0) == 0.0

    def test_all_nodes_normalisation(self):
        dist = PoissonFanout(4.0)
        q = 0.75
        result = percolation_analysis(dist, q)
        assert result.giant_component_size_all == pytest.approx(
            q * giant_component_size(dist, q)
        )
        assert percolation_analysis(dist, 0.2).giant_component_size_all == 0.0

    def test_fixed_fanout_reliability_higher_than_poisson_at_same_mean(self):
        # Lower fanout variance concentrates the degree at the mean, which for
        # supercritical settings yields a slightly larger giant component.
        q = 0.9
        assert giant_component_size(FixedFanout(4), q) > giant_component_size(
            PoissonFanout(4.0), q
        )

    @given(
        z=st.floats(min_value=0.3, max_value=12.0),
        q=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_size_in_unit_interval(self, z, q):
        size = giant_component_size(PoissonFanout(z), q)
        assert 0.0 <= size <= 1.0

    @given(
        alpha=st.floats(min_value=1.2, max_value=3.5),
        q=st.floats(min_value=0.1, max_value=1.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_zipf_size_in_unit_interval(self, alpha, q):
        # Zipf(alpha) truncated at 30, as a mixture of fixed fanouts.
        support = range(1, 31)
        dist = MixtureFanout([FixedFanout(k) for k in support], [k**-alpha for k in support])
        size = giant_component_size(dist, q)
        assert 0.0 <= size <= 1.0


class TestPercolationAnalysis:
    def test_record_is_consistent(self):
        dist = PoissonFanout(4.0)
        result = percolation_analysis(dist, 0.9)
        assert result.q == 0.9
        assert result.mean_fanout == pytest.approx(4.0)
        assert result.critical_ratio == pytest.approx(0.25)
        assert result.supercritical
        assert result.giant_component_size == pytest.approx(
            giant_component_size(dist, 0.9), abs=1e-9
        )
        assert result.giant_component_size_all == pytest.approx(
            0.9 * result.giant_component_size
        )
        assert 0.0 <= result.u < 1.0

    def test_subcritical_record(self):
        result = percolation_analysis(PoissonFanout(2.0), 0.3)
        assert not result.supercritical
        assert result.giant_component_size == pytest.approx(0.0, abs=1e-6)
        assert result.u == pytest.approx(1.0, abs=1e-6)
        assert math.isfinite(result.mean_component_size)

    def test_q_zero_record(self):
        result = percolation_analysis(PoissonFanout(3.0), 0.0)
        assert result.giant_component_size == 0.0
        assert not result.supercritical

    def test_supercritical_flag_switches_at_threshold(self):
        # Poisson(4): q_c = 1/4, and exactly at q_c there is no giant component.
        dist = PoissonFanout(4.0)
        assert percolation_analysis(dist, 0.3).supercritical
        assert not percolation_analysis(dist, 0.25).supercritical
        assert not percolation_analysis(dist, 0.2).supercritical
        assert not percolation_analysis(FixedFanout(0), 0.9).supercritical

    def test_zero_mean_record(self):
        result = percolation_analysis(FixedFanout(0), 0.8)
        assert result.giant_component_size == 0.0
        assert result.critical_ratio == math.inf


#: ``(family, q, u, giant_component_size)`` for the four CLI families at mean
#: fanout 4: one q below, one just above and one well above each critical
#: ratio (poisson 0.25, fixed 1/3, geometric 0.125, uniform 2/7), the
#: half-failed group q = 0.5, and the failure-free q = 1 where its root is
#: not the trivial u = 0 of a fanout that is never 0 or 1.
EQ4_EXACT = [
    ("poisson", 0.2, 1.0, 0.0),
    ("poisson", 0.26, 0.9802597577839217, 0.0759240085233781),
    ("poisson", 0.5, 0.6015939349899899, 0.7968121300200202),
    ("poisson", 0.9, 0.12744471517824, 0.9695058720241778),
    ("poisson", 1.0, 0.019827401281779143, 0.9801725987182215),
    ("fixed", 0.3, 1.0, 0.0),
    ("fixed", 0.34, 0.980262297901363, 0.0766439527295264),
    ("fixed", 0.5, 0.6180339887498949, 0.8541019662496845),
    ("fixed", 0.9, 0.10092521257733165, 0.9998962474710595),
    ("geometric", 0.1, 1.0, 0.0),
    ("geometric", 0.13, 0.9933623210326317, 0.025864007943324108),
    ("geometric", 0.5, 0.5669872981077806, 0.6339745962155614),
    ("geometric", 0.9, 0.1461651584688989, 0.7735168427432211),
    ("geometric", 1.0, 0.04289321881345284, 0.7928932188134524),
    ("uniform", 0.25, 1.0, 0.0),
    ("uniform", 0.29, 0.9900692127266135, 0.03903962028518604),
    ("uniform", 0.5, 0.6120499881969843, 0.8234664567179524),
    ("uniform", 0.9, 0.11207629385101932, 0.9971707313518124),
]


class TestEq4Exact:
    """The Eq. 4 root and giant component, bit for bit.

    The golden tables print four decimals, so only this test holds the
    solver's doubles: a change to the fixed-point iteration, its Brent
    polish or the G1 arithmetic fails it.
    """

    @pytest.mark.parametrize(("family", "q", "u", "size"), EQ4_EXACT)
    def test_root_and_size_are_exact(self, family, q, u, size):
        dist = default_distribution_families(4.0)[family]
        result = percolation_analysis(dist, q)
        assert result.u == u
        assert result.giant_component_size == size


class TestSelfConsistentU:
    def test_subcritical_returns_one(self):
        # z*q = 0.5 < 1: no giant component, u = 1.
        assert self_consistent_u(PoissonFanout(1.0), 0.5) == pytest.approx(1.0, abs=1e-6)

    def test_supercritical_u_below_one(self):
        u = self_consistent_u(PoissonFanout(4.0), 0.9)
        assert 0.0 <= u < 1.0

    def test_u_satisfies_fixed_point_equation(self):
        dist = PoissonFanout(3.0)
        q = 0.8
        u = self_consistent_u(dist, q)
        assert u == pytest.approx(1.0 - q + q * dist.g1(u), abs=1e-8)

    def test_q_zero_returns_one(self):
        assert self_consistent_u(PoissonFanout(3.0), 0.0) == 1.0

    def test_invalid_q_rejected(self):
        with pytest.raises(ValueError):
            self_consistent_u(PoissonFanout(2.0), 1.5)

    def test_fixed_fanout_u(self):
        dist = FixedFanout(3)
        q = 0.9
        u = self_consistent_u(dist, q)
        assert u == pytest.approx(1.0 - q + q * dist.g1(u), abs=1e-8)
        assert u < 1.0

    @given(
        z=st.floats(min_value=0.2, max_value=10.0),
        q=st.floats(min_value=0.05, max_value=1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_u_always_in_unit_interval_and_consistent(self, z, q):
        dist = PoissonFanout(z)
        u = self_consistent_u(dist, q)
        assert 0.0 <= u <= 1.0
        assert u == pytest.approx(1.0 - q + q * dist.g1(u), abs=1e-6)

    @given(
        q=st.floats(min_value=0.05, max_value=1.0),
        prob=st.floats(min_value=0.1, max_value=0.9),
    )
    @settings(max_examples=40, deadline=None)
    def test_geometric_u_consistent(self, q, prob):
        dist = GeometricFanout(prob)
        u = self_consistent_u(dist, q)
        assert 0.0 <= u <= 1.0
        assert u == pytest.approx(1.0 - q + q * float(dist.g1(u)), abs=1e-5)

    @pytest.mark.parametrize("q", [0.2, 0.45, 0.7, 0.95])
    def test_every_fanout_shape_solves_eq4(self, any_distribution, q):
        dist = any_distribution
        u = self_consistent_u(dist, q)
        assert 0.0 <= u <= 1.0
        assert u == pytest.approx(1.0 - q + q * float(dist.g1(u)), abs=1e-9)
        size = giant_component_size(dist, q)
        if q < critical_ratio(dist):
            # Below the threshold (Eq. 3) only the trivial root u = 1 exists.
            assert u == pytest.approx(1.0, abs=1e-6)
            assert size == 0.0
        else:
            assert u < 1.0 - 1e-6
            assert size > 0.0
            assert size == pytest.approx(1.0 - float(dist.g0(u)), abs=1e-12)
