"""Parity tests of the ``brentq`` and ``ndtri`` ports against scipy.

The ports claim to return scipy's doubles, not close ones, so every
comparison here is ``==``.  scipy is the oracle.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import optimize, special, stats

from repro.core.distributions import FixedFanout, GeometricFanout, MixtureFanout, UniformFanout
from repro.utils import numerics
from repro.utils.numerics import brentq, ndtri

_EPS = 2.0**-52


def _solve_both(f, a, b, xtol):
    """Each solver's root, or the type of the exception it raised."""
    out = []
    for solve in (brentq, optimize.brentq):
        try:
            out.append(solve(f(), a, b, xtol=xtol))
        except (ValueError, RuntimeError) as exc:
            out.append(type(exc))
    return out


class TestBrentq:
    @settings(max_examples=300, deadline=None)
    @given(st.floats(1.0, 60.0, exclude_min=True), st.sampled_from([1e-12, 2e-12, 1e-6]))
    def test_eq11_brackets(self, zq, tol):
        """The bracket ``poisson_reliability`` hands the solver for Eq. 11."""

        def h(s):
            return s - (1.0 - math.exp(-zq * s))

        lo = 1e-12
        while h(lo) > 0 and lo < 0.5:
            lo *= 10.0
        if h(lo) <= 0:
            assert brentq(h, lo, 1.0, xtol=tol) == optimize.brentq(h, lo, 1.0, xtol=tol)

    @settings(max_examples=200, deadline=None)
    @given(
        st.sampled_from(["geometric", "uniform", "fixed", "mixture"]),
        st.floats(1.2, 12.0),
        st.floats(0.05, 1.0),
    )
    def test_self_consistency_brackets(self, family, mean, q):
        """The bracket ``self_consistent_u`` polishes Eq. 4's fixed point in."""
        dist = {
            "geometric": lambda: GeometricFanout.from_mean(mean),
            "uniform": lambda: UniformFanout(0, int(round(2 * mean))),
            "fixed": lambda: FixedFanout(int(round(mean))),
            "mixture": lambda: MixtureFanout(
                [FixedFanout(1), FixedFanout(int(round(2 * mean)))], [0.5, 0.5]
            ),
        }[family]()

        def h(v):
            return v - (1.0 - q + q * float(dist.g1(v)))

        lo, hi = 0.0, 1.0 - 1e-12
        if h(lo) * h(hi) < 0:
            assert brentq(h, lo, hi, xtol=1e-14) == optimize.brentq(h, lo, hi, xtol=1e-14)

    @settings(max_examples=300, deadline=None)
    @given(
        st.lists(
            st.sampled_from([1.0, 2.0, 3.0, 0.5, 1 + _EPS, 1 - _EPS / 2, 2 + 2 * _EPS])
            .flatmap(lambda v: st.sampled_from([v, -v])),
            min_size=2, max_size=10,
        ),
        st.sampled_from([(0.0, 1.0), (0.0, 2.0), (0.0, 4.0), (-1.0, 2.0), (0.5, 1.0)]),
        st.sampled_from([2e-12, 2.0**-20, 0.25, 2.0]),
    )
    # Exact ties: the step test (2|s| against the bound) and the convergence
    # test (|sbis| against delta) each hold with equality on one of these.
    @example([-(2 + 2 * _EPS), 2.0, 1.0], (0.0, 4.0), 2e-12)
    @example([-2.0, 3.0, 2.0, -3.0, -3.0, 0.5, 3.0, 2.0], (0.0, 2.0), 2.0)
    def test_scripted_values(self, values, bracket, xtol):
        """``f`` returns a script of values, steering both solvers through the same branches.

        Small dyadic values make the arithmetic exact, so the comparisons of
        the method meet the ties that smooth functions reach only by chance.
        """

        def script():
            calls = iter(values)
            last = [values[-1]]

            def f(_x):
                last[0] = next(calls, last[0])
                return last[0]

            return f

        a, b = bracket
        mine, ref = _solve_both(script, a, b, xtol)
        assert mine == ref

    @pytest.mark.parametrize(
        "f, a, b, xtol",
        [
            (lambda: lambda x: x * x + 1.0, -1.0, 1.0, 2e-12),  # same sign at both ends
            (lambda: lambda x: math.nan if 0.3 < x < 0.9 else x - 0.5, 0.0, 1.0, 2e-12),  # NaN inside
            (lambda: lambda x: x - 0.5, 0.0, 1.0, 0.0),
            (lambda: lambda x: x, 0.0, 1.0, 2e-12),  # root at an end
            (lambda: lambda x: x - 1.0, 0.0, 1.0, 2e-12),
        ],
    )
    def test_edges(self, f, a, b, xtol):
        mine, ref = _solve_both(f, a, b, xtol)
        assert mine == ref

    def test_iteration_cap(self, monkeypatch):
        """Under every cap the port converges, or runs out, exactly where scipy does."""

        def f(x):
            return math.atan(x - 0.3)

        outcomes = set()
        for cap in range(12):
            monkeypatch.setattr(numerics, "_MAXITER", cap)
            mine, ref = [], []
            for solve, out, kwargs in ((brentq, mine, {}), (optimize.brentq, ref, {"maxiter": cap})):
                try:
                    out.append(solve(f, -50.0, 50.0, xtol=2e-12, **kwargs))
                except RuntimeError as exc:
                    out.append(type(exc))
            assert mine == ref
            outcomes.add(mine[0] is RuntimeError)
        assert outcomes == {True, False}


class TestNdtri:
    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 1.0))
    def test_unit_interval(self, y):
        assert ndtri(y) == special.ndtri(y)

    @settings(max_examples=500, deadline=None)
    @given(st.floats(0.0, 745.0))
    def test_tails(self, t):
        """``exp(-t)`` and ``1 - exp(-t)``: both tail branches, below and above ``exp(-32)``."""
        for y in (math.exp(-t), 1.0 - math.exp(-t)):
            assert ndtri(y) == special.ndtri(y)

    @pytest.mark.parametrize(
        "y",
        [
            0.0, -0.0, 1.0, 0.5, 5e-324, 1 - _EPS / 2,
            *(np.nextafter(edge, side) for edge in (math.exp(-2), 1 - math.exp(-2), math.exp(-32))
              for side in (0.0, 1.0)),
            math.exp(-2), 1 - math.exp(-2), math.exp(-32),
            -1e-300, 1 + _EPS, -math.inf, math.inf, math.nan,
        ],
    )
    def test_branch_edges_and_domain(self, y):
        got, want = ndtri(float(y)), float(special.ndtri(y))
        assert got == want or (math.isnan(got) and math.isnan(want))

    @settings(max_examples=300, deadline=None)
    @given(st.floats(0.0, 1.0, exclude_min=True, exclude_max=True))
    def test_wilson_quantile_is_norm_ppf(self, confidence):
        y = 0.5 + confidence / 2.0
        assert ndtri(y) == float(stats.norm.ppf(y))
