"""Site percolation on generalized random graphs (Section 4.2 of the paper).

The gossip graph of one execution is a generalized random graph whose degree
distribution is the fanout distribution ``P``; node failures remove a uniform
fraction ``1 - q`` of members (site percolation with uniform occupation
probability ``q``).  The quantities of interest are:

* the **mean component size** ``<s>`` (Eq. 2), which diverges at the
  percolation threshold,
* the **critical nonfailed-member ratio** ``q_c = 1 / G1'(1)`` (Eq. 3), the
  smallest ``q`` for which a giant component — and hence non-vanishing
  reliability — exists, and
* the **giant-component size** (Eq. 4), which the paper uses as the
  reliability of gossiping ``R(q, P)``.

Two normalisations of the giant-component size appear in the literature.  In
Callaway et al. the size is measured as a fraction of *all* nodes,
``S_all = F0(1) − F0(u) = q (1 − G0(u))``.  The paper's reliability is the
fraction of *nonfailed* nodes reached, ``R = S_all / q = 1 − G0(u)``, which
for the Poisson case reduces to the paper's Eq. 11 ``S = 1 − e^{−zqS}``.
:class:`PercolationResult` carries both; :func:`giant_component_size` returns
the paper's (nonfailed-relative) definition.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.core.distributions import FanoutDistribution
from repro.utils.numerics import brentq
from repro.utils.validation import check_probability

__all__ = [
    "PercolationResult",
    "critical_ratio",
    "mean_component_size",
    "self_consistent_u",
    "giant_component_size",
    "percolation_analysis",
]


@dataclass(frozen=True)
class PercolationResult:
    """Complete percolation analysis of a ``Gossip(n, P, q)`` model.

    Attributes
    ----------
    q:
        Nonfailed-member ratio used in the analysis.
    mean_fanout:
        Mean of the fanout distribution (``G0'(1)``).
    critical_ratio:
        ``q_c = 1 / G1'(1)`` (Eq. 3); reliability vanishes for ``q < q_c``.
    supercritical:
        ``True`` iff ``q > critical_ratio`` (a giant component exists).
    u:
        Solution of the self-consistency condition (Eq. 4).
    giant_component_size:
        The paper's reliability ``R(q, P) = 1 − G0(u)`` — the expected
        fraction of nonfailed members in the giant component.
    giant_component_size_all:
        Callaway normalisation ``q (1 − G0(u))`` — fraction of all members.
    mean_component_size:
        ``<s>`` from Eq. 2 (``math.inf`` at or above the transition point
        where the formula diverges).
    """

    q: float
    mean_fanout: float
    critical_ratio: float
    supercritical: bool
    u: float
    giant_component_size: float
    giant_component_size_all: float
    mean_component_size: float


def critical_ratio(dist: FanoutDistribution) -> float:
    """Return the critical nonfailed-member ratio ``q_c = 1 / G1'(1)`` (Eq. 3).

    ``G1'(1) = G0''(1) / G0'(1) = E[F(F−1)] / E[F]`` is the mean excess
    degree.  For a Poisson fanout with mean ``z`` this gives ``q_c = 1/z``
    (Eq. 10).  Values larger than 1 mean no amount of non-failure can produce
    a giant component (the fanout distribution itself is subcritical);
    ``math.inf`` is returned when ``G1'(1) = 0``.
    """
    mean = dist.mean()
    if mean <= 0:
        return math.inf
    excess = dist.second_factorial_moment() / mean
    if excess <= 0:
        return math.inf
    return 1.0 / excess


def mean_component_size(dist: FanoutDistribution, q: float) -> float:
    """Return the mean component size ``<s>`` (Eq. 2).

    .. math::

        \\langle s \\rangle = q \\left[ 1 + \\frac{q G_0'(1)}{1 - q G_1'(1)} \\right]

    The formula is only meaningful in the subcritical regime; at or above the
    critical point it diverges and ``math.inf`` is returned.
    """
    q = check_probability("q", q)
    if q == 0.0:
        return 0.0
    g0_prime_1 = dist.g0_prime(1.0)
    if g0_prime_1 <= 0:
        return q
    g1_prime_1 = dist.g1_prime(1.0)
    denom = 1.0 - q * g1_prime_1
    if denom <= 0:
        return math.inf
    return q * (1.0 + q * g0_prime_1 / denom)


def self_consistent_u(dist: FanoutDistribution, q: float) -> float:
    """Solve the self-consistency condition of Eq. 4 for ``u``.

    ``u`` is the probability that a member reached by following a random
    gossip edge does *not* belong to the giant component.  With uniform
    failures the failure-weighted excess function is ``F1 = q G1``
    (Callaway et al.), so ``u`` satisfies::

        u = 1 - F1(1) + F1(u) = 1 - q + q * G1(u)

    The trivial solution ``u = 1`` always exists; below the percolation
    threshold it is the only one.  Fixed-point iteration from ``u = 0``
    converges to the smallest root, and Brent's method polishes the result
    when a bracket exists.
    """
    q = check_probability("q", q)
    if q == 0.0:
        return 1.0

    def step(u: float) -> float:
        return 1.0 - q + q * float(dist.g1(u))

    u = 0.0
    for _ in range(10_000):
        u_next = step(u)
        if not math.isfinite(u_next):
            raise ArithmeticError("fixed-point iteration diverged")
        u_next = min(max(u_next, 0.0), 1.0)
        if abs(u_next - u) < 1e-12:
            u = u_next
            break
        u = u_next

    # Polish with a bracketed root find on h(u) = u - step(u) when the
    # non-trivial root is separated from u = 1.
    def h(v: float) -> float:
        return v - step(v)

    if u < 1.0 - 1e-9:
        lo, hi = 0.0, 1.0 - 1e-12
        try:
            if h(lo) * h(hi) < 0:
                u = brentq(h, lo, hi, xtol=1e-14)
        except ValueError:
            pass
    return float(min(max(u, 0.0), 1.0))


def giant_component_size(dist: FanoutDistribution, q: float) -> float:
    """Return the paper's reliability ``R(q, P) = 1 − G0(u)`` (Eq. 4 normalised).

    ``u`` solves ``u = 1 − q + q G1(u)``.  At or below the critical point
    (``q <= critical_ratio(dist)``, Eq. 3) the only solution is ``u = 1`` and
    the size is exactly 0; the numerical solver would stop just short of
    ``u = 1`` there and report a spurious size of about 1e-12.
    """
    q = check_probability("q", q)
    if q == 0.0 or dist.mean() <= 0 or not q > critical_ratio(dist):
        return 0.0
    u = self_consistent_u(dist, q)
    size = 1.0 - float(dist.g0(u))
    return float(min(max(size, 0.0), 1.0))


def percolation_analysis(dist: FanoutDistribution, q: float) -> PercolationResult:
    """Run the full percolation analysis for ``Gossip(n, P, q)``.

    Bundles every Sec. 4 quantity into one :class:`PercolationResult`:
    the critical ratio (Eq. 3), whether ``(dist, q)`` is supercritical,
    the self-consistent root ``u`` of ``u = 1 − q + q G1(u)``, the giant
    component under both normalisations (Eq. 4: among nonfailed members
    and among all members), and the subcritical mean component size
    (Eq. 2, ``inf`` at or above the critical point).

    Parameters
    ----------
    dist:
        The fanout distribution ``P``.
    q:
        Nonfailed-member ratio, a probability in ``[0, 1]``.
    """
    q = check_probability("q", q)
    qc = critical_ratio(dist)
    mean_fanout = dist.mean()
    if q == 0.0 or mean_fanout <= 0:
        return PercolationResult(
            q=q,
            mean_fanout=mean_fanout,
            critical_ratio=qc,
            supercritical=False,
            u=1.0,
            giant_component_size=0.0,
            giant_component_size_all=0.0,
            mean_component_size=0.0 if q == 0.0 else q,
        )
    supercritical = bool(q > qc)
    # At or below the critical point (Eq. 3) the only root is u = 1.
    u, size = 1.0, 0.0
    if supercritical:
        u = self_consistent_u(dist, q)
        size = float(min(max(1.0 - float(dist.g0(u)), 0.0), 1.0))
    return PercolationResult(
        q=q,
        mean_fanout=mean_fanout,
        critical_ratio=qc,
        supercritical=supercritical,
        u=u,
        giant_component_size=size,
        giant_component_size_all=q * size,
        mean_component_size=mean_component_size(dist, q),
    )
