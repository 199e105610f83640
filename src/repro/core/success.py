"""Success of gossiping over repeated executions (Section 4.2, case (2)).

The paper defines the *success of gossiping* ``S(q, P, t)`` as the event that
every nonfailed member has received the message at least once after ``t``
executions of the gossip algorithm.  Each execution is treated as an
independent Bernoulli trial whose success probability is the reliability
``p_r = R(q, P)`` of a single execution, giving

* ``Pr(S(q, P, t)) = 1 − (1 − p_r)^t`` (Eq. 5), and
* the minimum number of executions for a required success probability
  ``p_s``: ``t ≥ lg(1 − p_s) / lg(1 − p_r)`` (Eq. 6).

The number of successes ``X`` among ``t`` executions follows a Binomial
``B(t, p_r)`` distribution; the paper's Figs. 6-7 compare this analytical
distribution with simulation for two parameter pairs.
"""

from __future__ import annotations

import math

import numpy as np

from repro.utils.validation import check_integer, check_probability

__all__ = [
    "success_probability",
    "min_executions",
    "success_count_pmf",
    "success_count_cdf",
]


def success_probability(per_execution_reliability: float, executions: int) -> float:
    """Return ``Pr(S(q, P, t)) = 1 − (1 − p_r)^t`` (Eq. 5).

    Parameters
    ----------
    per_execution_reliability:
        ``p_r`` — the probability that a given nonfailed member receives the
        message in a single execution (the reliability of gossiping).
    executions:
        ``t`` — the number of independent executions.
    """
    p_r = check_probability("per_execution_reliability", per_execution_reliability)
    t = check_integer("executions", executions, minimum=0)
    return 1.0 - (1.0 - p_r) ** t


def min_executions(required_success: float, per_execution_reliability: float) -> int:
    """Return the minimum ``t`` with ``1 − (1 − p_r)^t ≥ p_s`` (Eq. 6).

    ``t = ⌈ log(1 − p_s) / log(1 − p_r) ⌉``.  Edge cases: a reliability of 1
    needs a single execution; a reliability of 0 can never satisfy a positive
    requirement and raises ``ValueError``.
    """
    p_s = check_probability("required_success", required_success, allow_one=False)
    p_r = check_probability("per_execution_reliability", per_execution_reliability)
    if p_s == 0.0:
        return 0
    if p_r == 0.0:
        raise ValueError(
            "per-execution reliability is 0; no number of executions can reach the target"
        )
    if p_r == 1.0:
        return 1
    raw = math.log(1.0 - p_s) / math.log(1.0 - p_r)
    t = int(math.ceil(raw - 1e-12))
    return max(t, 1)


def success_count_pmf(executions: int, per_execution_reliability: float) -> np.ndarray:
    """Return the Binomial ``B(t, p_r)`` PMF of the success count ``X``.

    ``X`` is the number of executions (out of ``t``) in which a given
    nonfailed member receives the message — or, in the Figs. 6-7 experiment,
    the number of executions in which gossip succeeds.  Index ``k`` of the
    returned array is ``P(X = k)``.
    """
    t = check_integer("executions", executions, minimum=0)
    p_r = check_probability("per_execution_reliability", per_execution_reliability)
    from scipy import stats

    k = np.arange(t + 1)
    return stats.binom.pmf(k, t, p_r)


def success_count_cdf(executions: int, per_execution_reliability: float) -> np.ndarray:
    """Return the Binomial ``B(t, p_r)`` CDF evaluated at ``0..t``."""
    t = check_integer("executions", executions, minimum=0)
    p_r = check_probability("per_execution_reliability", per_execution_reliability)
    from scipy import stats

    k = np.arange(t + 1)
    return stats.binom.cdf(k, t, p_r)
