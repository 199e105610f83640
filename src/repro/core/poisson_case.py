"""Closed-form Poisson fanout case study (Section 4.3, Eqs. 7-12).

For a Poisson fanout ``Po(z)`` the generating functions collapse to
``G0(x) = G1(x) = e^{z(x-1)}`` and the model has closed forms:

* critical nonfailed-member ratio ``q_c = 1/z`` (Eq. 10),
* reliability of gossiping ``S`` solving ``S = 1 − e^{−zqS}`` (Eq. 11), and
* the mean fanout required for a target reliability
  ``z = −ln(1 − S) / (qS)`` (Eq. 12).

These functions are the analytical series plotted in the paper's Figs. 2, 4
and 5, and they are cross-validated against the generic percolation solver in
the test suite.
"""

from __future__ import annotations

import math

import numpy as np
import numpy.typing as npt

from repro.utils.numerics import brentq
from repro.utils.validation import check_positive, check_probability

__all__ = [
    "poisson_critical_ratio",
    "poisson_critical_fanout",
    "poisson_reliability",
    "poisson_reliability_curve",
    "mean_fanout_for_reliability",
    "nonfailed_ratio_for_reliability",
]


def poisson_critical_ratio(mean_fanout: float) -> float:
    """Return ``q_c = 1/z`` (Eq. 10): the smallest useful nonfailed ratio.

    Below this ratio a Poisson-``z`` gossip execution has no giant
    component and its reliability is exactly 0; the general-distribution
    twin is :func:`repro.core.percolation.critical_ratio` (Eq. 3).
    """
    mean_fanout = check_positive("mean_fanout", mean_fanout)
    return 1.0 / mean_fanout


def poisson_critical_fanout(q: float) -> float:
    """Return the smallest mean fanout ``z_c = 1/q`` giving non-zero reliability.

    The contrapositive reading of Eq. 10: at nonfailed ratio ``q`` (a
    probability in ``(0, 1]``), any Poisson mean fanout at or below
    ``1/q`` leaves the execution subcritical.
    """
    q = check_probability("q", q, allow_zero=False)
    return 1.0 / q


def poisson_reliability(mean_fanout: float, q: float, *, tol: float = 1e-12) -> float:
    """Solve Eq. 11, ``S = 1 − exp(−z q S)``, for the reliability ``S``.

    Returns the non-trivial root when ``z q > 1`` and 0 otherwise (the giant
    component does not exist at or below the critical point).

    Parameters
    ----------
    mean_fanout:
        Mean fanout ``z`` of the Poisson distribution.
    q:
        Nonfailed-member ratio.
    tol:
        Absolute tolerance of the root find.
    """
    mean_fanout = check_positive("mean_fanout", mean_fanout)
    q = check_probability("q", q)
    zq = mean_fanout * q
    if zq <= 1.0:
        return 0.0

    def h(s: float) -> float:
        return s - (1.0 - math.exp(-zq * s))

    # The non-trivial root lies in (0, 1]; h(1) > 0 for finite zq and
    # h(s) < 0 for small positive s in the supercritical regime, so bisection
    # is safe once we find a negative left bracket.
    lo = 1e-12
    while h(lo) > 0 and lo < 0.5:
        lo *= 10.0
    if h(lo) > 0:
        return 0.0
    s = brentq(h, lo, 1.0, xtol=tol)
    return float(min(max(s, 0.0), 1.0))


def poisson_reliability_curve(mean_fanouts: npt.ArrayLike, q: float) -> np.ndarray:
    """Vectorised Eq. 11: reliability for each mean fanout in ``mean_fanouts``."""
    q = check_probability("q", q)
    fanouts = np.asarray(mean_fanouts, dtype=float)
    return np.array([poisson_reliability(float(z), q) if z > 0 else 0.0 for z in fanouts])


def mean_fanout_for_reliability(reliability: float, q: float) -> float:
    """Return the mean fanout needed for a target reliability (Eq. 12).

    .. math::

        z = \\frac{-\\ln(1 - S)}{q S}

    The paper plots this relationship in Fig. 2 for ``S`` from 0.1111 to
    0.9999 and ``q`` in {0.2, 0.4, 0.6, 0.8, 1.0}.
    """
    reliability = check_probability(
        "reliability", reliability, allow_zero=False, allow_one=False
    )
    q = check_probability("q", q, allow_zero=False)
    return -math.log(1.0 - reliability) / (q * reliability)


def nonfailed_ratio_for_reliability(reliability: float, mean_fanout: float) -> float:
    """Return the nonfailed ratio ``q`` needed for a target reliability.

    Inverse reading of Eq. 12: ``q = −ln(1 − S) / (z S)``.  Values above 1
    mean the target is unreachable at that fanout no matter how few members
    fail; ``math.inf`` is never returned, the raw ratio is, so callers can
    compare it against 1 themselves.
    """
    reliability = check_probability(
        "reliability", reliability, allow_zero=False, allow_one=False
    )
    mean_fanout = check_positive("mean_fanout", mean_fanout)
    return -math.log(1.0 - reliability) / (mean_fanout * reliability)
