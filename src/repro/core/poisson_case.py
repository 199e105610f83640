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

from repro.utils.numerics import brentq
from repro.utils.validation import check_positive, check_probability

__all__ = [
    "poisson_critical_fanout",
    "poisson_reliability",
    "mean_fanout_for_reliability",
]


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
