"""Unit tests for the fanout distributions."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.distributions import (
    FixedFanout,
    GeometricFanout,
    MixtureFanout,
    PoissonFanout,
    UniformFanout,
)
from repro.core.percolation import critical_ratio


class TestCommonProperties:
    """Properties every distribution family must satisfy."""

    def test_pmf_sums_to_one(self, any_distribution):
        pmf = any_distribution.pmf_array()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)

    def test_pmf_non_negative(self, any_distribution):
        assert np.all(any_distribution.pmf_array() >= 0)

    def test_mean_matches_pmf(self, any_distribution):
        pmf = any_distribution.pmf_array()
        k = np.arange(len(pmf))
        assert any_distribution.mean() == pytest.approx(float(np.sum(k * pmf)), abs=1e-6)

    def test_variance_matches_pmf(self, any_distribution):
        pmf = any_distribution.pmf_array()
        k = np.arange(len(pmf))
        mean = float(np.sum(k * pmf))
        var = float(np.sum((k - mean) ** 2 * pmf))
        assert any_distribution.variance() == pytest.approx(var, abs=1e-6)

    def test_second_factorial_moment_matches_pmf(self, any_distribution):
        pmf = any_distribution.pmf_array()
        k = np.arange(len(pmf))
        expected = float(np.sum(k * (k - 1) * pmf))
        assert any_distribution.second_factorial_moment() == pytest.approx(expected, abs=1e-6)

    def test_truncated_pmf_is_a_prefix(self, any_distribution):
        # pmf(k) and cdf(k) truncate at k; every truncation must agree with
        # the full array.
        pmf = any_distribution.pmf_array()
        for k_max in (0, 1, 3, pmf.size - 1, pmf.size + 4):
            head = any_distribution.pmf_array(k_max=k_max)
            assert head.shape == (k_max + 1,)
            common = min(head.size, pmf.size)
            np.testing.assert_allclose(head[:common], pmf[:common], rtol=1e-12, atol=1e-15)
            assert np.all(head[common:] <= 1e-12)
        for k in range(min(pmf.size, 8)):
            assert any_distribution.pmf(k) == pytest.approx(pmf[k], rel=1e-12, abs=1e-15)

    def test_g0_at_one_is_one(self, any_distribution):
        assert any_distribution.g0(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_g0_prime_at_one_is_mean(self, any_distribution):
        assert any_distribution.g0_prime(1.0) == pytest.approx(any_distribution.mean(), rel=1e-6)

    def test_g0_at_zero_is_p0(self, any_distribution):
        assert any_distribution.g0(0.0) == pytest.approx(any_distribution.pmf(0), abs=1e-9)

    def test_g1_at_one_is_one(self, any_distribution):
        assert any_distribution.g1(1.0) == pytest.approx(1.0, abs=1e-9)

    def test_g0_monotone_on_unit_interval(self, any_distribution):
        xs = np.linspace(0.0, 1.0, 11)
        values = np.asarray(any_distribution.g0(xs))
        assert np.all(np.diff(values) >= -1e-12)

    def test_g0_and_derivatives_equal_the_pmf_series(self, any_distribution):
        pmf = any_distribution.pmf_array()
        k = np.arange(pmf.size)
        xs = np.linspace(0.0, 1.0, 11)
        series = {
            "g0": pmf,
            "g0_prime": (k * pmf)[1:],
            "g0_double_prime": (k * (k - 1) * pmf)[2:],
        }
        for name, coeffs in series.items():
            expected = np.polynomial.polynomial.polyval(xs, coeffs)
            np.testing.assert_allclose(
                getattr(any_distribution, name)(xs), expected, rtol=1e-9, atol=1e-12
            )

    def test_g0_double_prime_at_one_is_second_factorial_moment(self, any_distribution):
        assert any_distribution.g0_double_prime(1.0) == pytest.approx(
            any_distribution.second_factorial_moment(), rel=1e-9, abs=1e-12
        )

    def test_g1_is_normalised_g0_prime(self, any_distribution):
        # G1(x) = G0'(x) / G0'(1): the excess-degree GF that Eq. 4 iterates.
        xs = np.linspace(0.0, 1.0, 11)
        np.testing.assert_allclose(
            any_distribution.g1(xs),
            any_distribution.g0_prime(xs) / any_distribution.mean(),
            rtol=1e-9,
            atol=1e-12,
        )

    def test_g1_prime_at_one_is_inverse_critical_ratio(self, any_distribution):
        # G1'(1) = E[F(F-1)] / E[F], the mean excess degree of Eq. 3.
        assert any_distribution.g1_prime(1.0) == pytest.approx(
            1.0 / critical_ratio(any_distribution), rel=1e-9
        )

    def test_g1_monotone_and_convex_on_unit_interval(self, any_distribution):
        xs = np.linspace(0.0, 1.0, 21)
        values = np.asarray(any_distribution.g1(xs))
        slopes = np.asarray(any_distribution.g1_prime(xs))
        assert np.all((values >= -1e-12) & (values <= 1.0 + 1e-12))
        assert np.all(np.diff(values) >= -1e-12)
        assert np.all(np.diff(slopes) >= -1e-9)

    def test_generating_functions_accept_scalars_and_arrays(self, any_distribution):
        xs = np.array([[0.0, 0.25], [0.5, 1.0]])
        for name in ("g0", "g0_prime", "g0_double_prime", "g1", "g1_prime"):
            func = getattr(any_distribution, name)
            values = np.asarray(func(xs))
            assert values.shape == xs.shape, name
            for x, value in zip(xs.ravel(), values.ravel(), strict=True):
                scalar = func(float(x))
                assert isinstance(scalar, float), name
                assert scalar == pytest.approx(value, rel=1e-12, abs=1e-15), name

    def test_sample_dtype_and_range(self, any_distribution):
        samples = any_distribution.sample(500, seed=123)
        assert samples.dtype == np.int64
        assert samples.shape == (500,)
        assert np.all(samples >= 0)

    def test_sample_mean_close_to_mean(self, any_distribution):
        samples = any_distribution.sample(20_000, seed=42)
        assert samples.mean() == pytest.approx(any_distribution.mean(), rel=0.08, abs=0.1)

    def test_sample_reproducible_with_same_seed(self, any_distribution):
        a = any_distribution.sample(100, seed=7)
        b = any_distribution.sample(100, seed=7)
        np.testing.assert_array_equal(a, b)

    def test_sample_zero_size(self, any_distribution):
        assert any_distribution.sample(0, seed=1).shape == (0,)

    def test_sample_shape_tuple(self, any_distribution):
        samples = any_distribution.sample((6, 40), seed=9)
        assert samples.shape == (6, 40)
        assert samples.dtype == np.int64
        assert np.all(samples >= 0)
        # The matrix draw is the same distribution as the flat draw.
        flat = any_distribution.sample(6 * 40, seed=9)
        assert samples.mean() == pytest.approx(
            flat.mean(), abs=4.0 * (flat.std() + 0.1) / np.sqrt(flat.size)
        )

    def test_sample_empty_shape_tuple(self, any_distribution):
        assert any_distribution.sample((0, 5), seed=2).shape == (0, 5)

    def test_sample_invalid_shape_rejected(self, any_distribution):
        with pytest.raises(ValueError):
            any_distribution.sample((3, -1), seed=3)
        with pytest.raises(TypeError):
            any_distribution.sample((3, 2.5), seed=4)

    def test_cdf_is_monotone_and_bounded(self, any_distribution):
        values = [any_distribution.cdf(k) for k in range(10)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:], strict=False))
        assert all(0.0 <= v <= 1.0 + 1e-12 for v in values)

    def test_describe_contains_name_and_mean(self, any_distribution):
        info = any_distribution.describe()
        assert info["name"] == any_distribution.name
        assert info["mean"] == pytest.approx(any_distribution.mean())

    def test_repr_mentions_class_name(self, any_distribution):
        assert type(any_distribution).__name__ in repr(any_distribution)


class TestPoissonFanout:
    def test_closed_form_g0_matches_series(self):
        dist = PoissonFanout(3.0)
        x = 0.7
        series = sum(dist.pmf(k) * x**k for k in range(80))
        assert dist.g0(x) == pytest.approx(series, abs=1e-10)

    def test_g1_equals_g0(self):
        dist = PoissonFanout(2.5)
        xs = np.linspace(0, 1, 7)
        np.testing.assert_allclose(dist.g1(xs), dist.g0(xs), rtol=1e-12)

    def test_mean_and_variance_equal_z(self):
        dist = PoissonFanout(4.2)
        assert dist.mean() == pytest.approx(4.2)
        assert dist.variance() == pytest.approx(4.2)

    def test_second_factorial_moment_is_z_squared(self):
        assert PoissonFanout(3.0).second_factorial_moment() == pytest.approx(9.0)

    def test_invalid_mean_raises(self):
        with pytest.raises(ValueError):
            PoissonFanout(0.0)
        with pytest.raises(ValueError):
            PoissonFanout(-1.0)

    def test_array_evaluation_matches_scalar(self):
        dist = PoissonFanout(1.7)
        xs = np.array([0.0, 0.3, 1.0])
        arr = dist.g0(xs)
        for x, v in zip(xs, arr, strict=True):
            assert dist.g0(float(x)) == pytest.approx(v)


class TestFixedFanout:
    def test_pmf_is_point_mass(self):
        dist = FixedFanout(4)
        pmf = dist.pmf_array()
        assert pmf[4] == pytest.approx(1.0)
        assert pmf[:4].sum() == pytest.approx(0.0)

    def test_samples_are_constant(self):
        assert np.all(FixedFanout(3).sample(50, seed=1) == 3)

    def test_zero_fanout_allowed(self):
        dist = FixedFanout(0)
        assert dist.mean() == 0.0
        assert np.all(dist.sample(10, seed=1) == 0)

    def test_g1_requires_positive_mean(self):
        with pytest.raises(ValueError):
            FixedFanout(0).g1(0.5)

    def test_negative_fanout_rejected(self):
        with pytest.raises(ValueError):
            FixedFanout(-1)

    def test_non_integer_rejected(self):
        with pytest.raises(TypeError):
            FixedFanout(2.5)


class TestGeometricFanout:
    def test_from_mean_round_trip(self):
        dist = GeometricFanout.from_mean(4.0)
        assert dist.mean() == pytest.approx(4.0, rel=1e-9)

    def test_support_starts_at_zero(self):
        dist = GeometricFanout(0.5)
        assert dist.pmf(0) == pytest.approx(0.5)

    def test_samples_shifted_support(self):
        samples = GeometricFanout(0.9).sample(1000, seed=3)
        assert samples.min() == 0

    def test_prob_one_is_degenerate_at_zero(self):
        dist = GeometricFanout(1.0)
        assert dist.mean() == pytest.approx(0.0)
        assert dist.pmf(0) == pytest.approx(1.0)

    def test_prob_zero_rejected(self):
        with pytest.raises(ValueError):
            GeometricFanout(0.0)


class TestUniformFanout:
    def test_mean_of_range(self):
        assert UniformFanout(2, 6).mean() == pytest.approx(4.0)

    def test_pmf_uniform_on_support(self):
        pmf = UniformFanout(1, 4).pmf_array()
        np.testing.assert_allclose(pmf[1:5], 0.25)
        assert pmf[0] == 0.0

    def test_singleton_range(self):
        dist = UniformFanout(3, 3)
        assert dist.mean() == 3.0
        assert dist.variance() == pytest.approx(0.0)

    def test_samples_within_range(self):
        samples = UniformFanout(2, 5).sample(1000, seed=11)
        assert samples.min() >= 2 and samples.max() <= 5

    def test_inverted_range_rejected(self):
        with pytest.raises(ValueError):
            UniformFanout(5, 2)


class TestClosedFormGeneratingFunctions:
    """The geometric, fixed and uniform closed forms equal the PMF series."""

    @pytest.mark.parametrize(
        "dist",
        [
            GeometricFanout.from_mean(0.4),
            GeometricFanout.from_mean(1.0),
            GeometricFanout.from_mean(4.0),
            GeometricFanout(1.0),
            FixedFanout(0),
            FixedFanout(1),
            FixedFanout(2),
            FixedFanout(7),
            UniformFanout(0, 0),
            UniformFanout(1, 1),
            UniformFanout(0, 2),
            UniformFanout(3, 9),
        ],
        ids=repr,
    )
    def test_equal_to_the_series(self, dist):
        # 800 terms leave less than 1e-40 of the geometric mass (mean 4) out.
        pmf = dist.pmf_array(k_max=800)
        k = np.arange(pmf.size)
        xs = np.linspace(0.0, 1.0, 21)
        series = {
            "g0": pmf,
            "g0_prime": (k * pmf)[1:],
            "g0_double_prime": (k * (k - 1) * pmf)[2:],
        }
        for name, coeffs in series.items():
            closed = getattr(dist, name)
            expected = np.polynomial.polynomial.polyval(xs, coeffs)
            np.testing.assert_allclose(closed(xs), expected, rtol=1e-12, atol=1e-12)
            assert closed(0.5) == pytest.approx(expected[10], rel=1e-12, abs=1e-12)
            assert isinstance(closed(0.5), float)
        assert dist.second_factorial_moment() == pytest.approx(
            float(np.sum(k * (k - 1) * pmf)), rel=1e-12
        )


class TestMixtureFanout:
    def test_mean_is_weighted_average(self):
        mix = MixtureFanout([FixedFanout(2), FixedFanout(6)], [0.5, 0.5])
        assert mix.mean() == pytest.approx(4.0)

    def test_weights_normalised(self):
        mix = MixtureFanout([FixedFanout(1), FixedFanout(3)], [2.0, 2.0])
        assert mix.mean() == pytest.approx(2.0)

    def test_pmf_combines_components(self):
        mix = MixtureFanout([FixedFanout(1), FixedFanout(3)], [0.3, 0.7])
        assert mix.pmf(1) == pytest.approx(0.3)
        assert mix.pmf(3) == pytest.approx(0.7)

    def test_mismatched_lengths_rejected(self):
        with pytest.raises(ValueError):
            MixtureFanout([FixedFanout(1)], [0.5, 0.5])

    def test_zero_weights_rejected(self):
        with pytest.raises(ValueError):
            MixtureFanout([FixedFanout(1), FixedFanout(2)], [0.0, 0.0])

    def test_empty_components_rejected(self):
        with pytest.raises(ValueError):
            MixtureFanout([], [])

    def test_sampling_uses_both_components(self):
        mix = MixtureFanout([FixedFanout(1), FixedFanout(9)], [0.5, 0.5])
        samples = mix.sample(2000, seed=13)
        assert set(np.unique(samples)) == {1, 9}
        assert samples.mean() == pytest.approx(5.0, abs=0.5)


class TestPropertyBased:
    """Hypothesis property tests on the distribution machinery."""

    @given(z=st.floats(min_value=0.1, max_value=15.0))
    @settings(max_examples=40, deadline=None)
    def test_poisson_generating_function_identity(self, z):
        dist = PoissonFanout(z)
        assert dist.g0(1.0) == pytest.approx(1.0, abs=1e-9)
        assert dist.g0_prime(1.0) == pytest.approx(z, rel=1e-9)
        assert dist.g0(0.0) == pytest.approx(math.exp(-z), rel=1e-9)

    @given(
        weights=st.lists(st.floats(min_value=0.01, max_value=1.0), min_size=2, max_size=6)
    )
    @settings(max_examples=30, deadline=None)
    def test_empirical_pmf_normalisation(self, weights):
        # A mixture of fixed fanouts is the distribution with PMF ``weights``.
        dist = MixtureFanout([FixedFanout(k) for k in range(len(weights))], weights)
        assert dist.pmf_array().sum() == pytest.approx(1.0, abs=1e-9)
        assert dist.g0(1.0) == pytest.approx(1.0, abs=1e-9)

    @given(
        low=st.integers(min_value=0, max_value=5),
        width=st.integers(min_value=0, max_value=6),
    )
    @settings(max_examples=30, deadline=None)
    def test_uniform_mean_formula(self, low, width):
        dist = UniformFanout(low, low + width)
        assert dist.mean() == pytest.approx((2 * low + width) / 2.0)
