"""Experiment-support analysis: sweeps, comparisons, goodness of fit, dimensioning."""

from repro.analysis.compare import SeriesComparison, compare_series, compare_sweep
from repro.analysis.dimensioning import (
    DimensioningResult,
    analytic_required_fanout,
    dimension_fanout,
    wilson_interval,
)
from repro.analysis.binomial_fit import BinomialFit, fit_binomial, chi_square_binomial_test
from repro.analysis.tables import (
    dimensioning_to_table,
    pmf_to_table,
    sweep_to_table,
)

__all__ = [
    "SeriesComparison",
    "compare_series",
    "compare_sweep",
    "DimensioningResult",
    "analytic_required_fanout",
    "dimension_fanout",
    "wilson_interval",
    "BinomialFit",
    "fit_binomial",
    "chi_square_binomial_test",
    "sweep_to_table",
    "pmf_to_table",
    "dimensioning_to_table",
]
