"""Goodness of fit of success counts against the Binomial model (Figs. 6-7).

The paper validates Eq. 6 by checking that the simulated success counts
"approximately follow a binomial distribution B(20, R(q, Po(z)))".  These
helpers make that check quantitative:

* :func:`fit_binomial` — the maximum-likelihood estimate of the success
  probability from observed counts, with comparison against the analytical
  reliability,
* :func:`chi_square_binomial_test` — Pearson chi-square test of the observed
  count histogram against the Binomial PMF (with low-expectation bins pooled,
  the standard remedy for sparse tails), and
* total-variation distance via
  :meth:`repro.simulation.metrics.SuccessCountResult.total_variation_distance`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import numpy.typing as npt

from repro.core.success import success_count_pmf
from repro.utils.validation import check_integer, check_probability

__all__ = ["BinomialFit", "fit_binomial", "chi_square_binomial_test", "ChiSquareResult"]


@dataclass(frozen=True)
class BinomialFit:
    """Maximum-likelihood Binomial fit of observed success counts.

    Attributes
    ----------
    executions:
        The number of trials ``t`` per observation.
    estimated_probability:
        MLE ``p̂ = mean(counts) / t``.
    reference_probability:
        The analytical reliability the counts are expected to follow.
    absolute_difference:
        ``|p̂ − reference|``.
    """

    executions: int
    estimated_probability: float
    reference_probability: float
    absolute_difference: float


def fit_binomial(
    counts: npt.ArrayLike, executions: int, reference_probability: float
) -> BinomialFit:
    """Fit a Binomial success probability to observed counts and compare to a reference."""
    executions = check_integer("executions", executions, minimum=1)
    reference_probability = check_probability("reference_probability", reference_probability)
    counts = np.asarray(counts, dtype=float)
    if counts.size == 0:
        raise ValueError("counts must be non-empty")
    if np.any((counts < 0) | (counts > executions)):
        raise ValueError("counts must lie in [0, executions]")
    p_hat = float(counts.mean() / executions)
    return BinomialFit(
        executions=executions,
        estimated_probability=p_hat,
        reference_probability=reference_probability,
        absolute_difference=abs(p_hat - reference_probability),
    )


@dataclass(frozen=True)
class ChiSquareResult:
    """Result of the pooled Pearson chi-square test.

    ``pooled_bins`` is the number of bins actually used after pooling the
    low-expectation tail; ``degrees_of_freedom = pooled_bins − 1``.
    """

    statistic: float
    p_value: float
    pooled_bins: int
    degrees_of_freedom: int


def chi_square_binomial_test(
    counts: npt.ArrayLike,
    executions: int,
    probability: float,
    *,
    min_expected: float = 5.0,
) -> ChiSquareResult:
    """Pearson chi-square test of observed success counts against ``B(t, p)``.

    Bins (count values ``0..t``) whose expected frequency is below
    ``min_expected`` are pooled together from both tails inward, which keeps
    the chi-square approximation valid for the small sample sizes the paper
    uses (100 simulations).
    """
    executions = check_integer("executions", executions, minimum=1)
    probability = check_probability("probability", probability)
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("counts must be non-empty")
    if np.any((counts < 0) | (counts > executions)):
        raise ValueError("counts must lie in [0, executions]")

    observed = np.bincount(counts, minlength=executions + 1).astype(float)
    expected = success_count_pmf(executions, probability) * counts.size

    obs_pooled, exp_pooled = _pool_bins(observed, expected, min_expected)
    if len(obs_pooled) < 2:
        # Everything pooled into one bin: the test is degenerate; report a
        # perfect fit (statistic 0) rather than dividing by zero dof.
        return ChiSquareResult(statistic=0.0, p_value=1.0, pooled_bins=1, degrees_of_freedom=0)
    # Renormalise the expected bins to the observed total to guard against
    # the tiny mass lost to pooling round-off.
    exp_pooled = exp_pooled * (obs_pooled.sum() / exp_pooled.sum())
    statistic = float(np.sum((obs_pooled - exp_pooled) ** 2 / exp_pooled))
    dof = len(obs_pooled) - 1
    from scipy import stats

    p_value = float(stats.chi2.sf(statistic, dof))
    return ChiSquareResult(
        statistic=statistic, p_value=p_value, pooled_bins=len(obs_pooled), degrees_of_freedom=dof
    )


def _pool_bins(
    observed: np.ndarray, expected: np.ndarray, min_expected: float
) -> tuple[np.ndarray, np.ndarray]:
    """Pool adjacent low-expectation bins from the left tail into their right neighbour."""
    obs: list[float] = []
    exp: list[float] = []
    acc_obs = 0.0
    acc_exp = 0.0
    for o, e in zip(observed, expected, strict=True):
        acc_obs += float(o)
        acc_exp += float(e)
        if acc_exp >= min_expected:
            obs.append(acc_obs)
            exp.append(acc_exp)
            acc_obs = 0.0
            acc_exp = 0.0
    if acc_exp > 0 or acc_obs > 0:
        if exp:
            obs[-1] += acc_obs
            exp[-1] += acc_exp
        else:
            obs.append(acc_obs)
            exp.append(acc_exp)
    return np.asarray(obs), np.asarray(exp)
