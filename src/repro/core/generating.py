"""Probability generating functions for the gossip random-graph model.

The analytical machinery of the paper (Section 4) is expressed through four
generating functions:

* ``G0(x) = Σ p_k x^k`` — fanout (degree) distribution of members,
* ``G1(x) = G0'(x) / G0'(1)`` — outgoing-edge distribution of a member
  reached by following a random gossip edge,
* ``F0(x) = Σ p_k q_k x^k`` — degree distribution weighted by the probability
  ``q_k`` that a degree-``k`` member has *not* failed (Eq. 1), and
* ``F1(x) = F0'(x) / G0'(1)`` — the failure-weighted excess distribution.

The paper (like Callaway et al., Phys. Rev. Lett. 85, 2000) specialises to a
uniform non-failure probability ``q_k = q``, giving ``F0 = q G0`` and
``F1 = q G1``.  :class:`GeneratingFunction` is a small numerical wrapper that
keeps evaluation, differentiation, and fixed-point solving in one place; the
uniform-``q`` specialisation used everywhere else in the library is produced
by :func:`build_generating_functions`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np
import numpy.typing as npt

from repro.core.distributions import FanoutDistribution
from repro.utils.numerics import brentq
from repro.utils.validation import check_probability

__all__ = ["GeneratingFunction", "GossipGeneratingFunctions", "build_generating_functions"]


class GeneratingFunction:
    """A probability generating function ``G(x) = Σ_k c_k x^k``.

    The function may be backed either by an explicit (possibly truncated)
    coefficient vector or by closed-form callables for the function and its
    first two derivatives.  Instances are immutable.
    """

    def __init__(
        self,
        *,
        coefficients: np.ndarray | None = None,
        func: Callable[[np.ndarray], np.ndarray] | None = None,
        derivative: Callable[[np.ndarray], np.ndarray] | None = None,
        second_derivative: Callable[[np.ndarray], np.ndarray] | None = None,
        name: str = "G",
    ) -> None:
        if coefficients is None and func is None:
            raise ValueError("either coefficients or func must be given")
        self.name = name
        self._coeffs = None if coefficients is None else np.asarray(coefficients, dtype=float)
        self._func = func
        self._derivative = derivative
        self._second_derivative = second_derivative

    # ---------------------------------------------------------------- API
    @classmethod
    def from_pmf(cls, pmf: npt.ArrayLike, name: str = "G") -> "GeneratingFunction":
        """Build a generating function from an explicit PMF vector."""
        pmf = np.asarray(pmf, dtype=float)
        if pmf.ndim != 1 or pmf.size == 0:
            raise ValueError("pmf must be a non-empty 1-D array")
        if np.any(pmf < 0):
            raise ValueError("pmf entries must be non-negative")
        return cls(coefficients=pmf, name=name)

    @classmethod
    def from_distribution(cls, dist: FanoutDistribution, name: str = "G0") -> "GeneratingFunction":
        """Build ``G0`` for a fanout distribution, using its closed forms."""
        return cls(
            func=dist.g0,
            derivative=dist.g0_prime,
            second_derivative=dist.g0_double_prime,
            name=name,
        )

    def __call__(self, x: float | np.ndarray) -> np.ndarray | float:
        """Evaluate ``G(x)`` for scalar or array ``x``."""
        if self._func is not None:
            return self._func(x)
        assert self._coeffs is not None  # constructor invariant: coeffs or func
        return _poly(self._coeffs, x)

    def prime(self, x: float | np.ndarray) -> np.ndarray | float:
        """Evaluate ``G'(x)``."""
        if self._derivative is not None:
            return self._derivative(x)
        if self._func is not None:
            return _numeric_derivative(self._func, x)
        assert self._coeffs is not None  # constructor invariant: coeffs or func
        k = np.arange(len(self._coeffs))
        return _poly((k * self._coeffs)[1:], x)

    def double_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        """Evaluate ``G''(x)``."""
        if self._second_derivative is not None:
            return self._second_derivative(x)
        if self._func is not None:
            return _numeric_derivative(self.prime, x)
        assert self._coeffs is not None  # constructor invariant: coeffs or func
        k = np.arange(len(self._coeffs))
        return _poly((k * (k - 1) * self._coeffs)[2:], x)

    def mean(self) -> float:
        """Return ``G'(1)`` — the mean of the encoded distribution."""
        return float(self.prime(1.0))

    def normalisation(self) -> float:
        """Return ``G(1)`` — the total probability mass encoded."""
        return float(self(1.0))

    def scaled(self, factor: float, name: str | None = None) -> "GeneratingFunction":
        """Return ``factor * G`` (used to form ``F0 = q G0`` / ``F1 = q G1``)."""
        factor = float(factor)
        if self._coeffs is not None and self._func is None:
            return GeneratingFunction(
                coefficients=factor * self._coeffs, name=name or f"{factor}*{self.name}"
            )
        return GeneratingFunction(
            func=lambda x, f=self._func: factor * f(x),
            derivative=None if self._derivative is None else (
                lambda x, d=self._derivative: factor * d(x)
            ),
            second_derivative=None if self._second_derivative is None else (
                lambda x, d2=self._second_derivative: factor * d2(x)
            ),
            name=name or f"{factor}*{self.name}",
        )

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        backing = "coeffs" if self._coeffs is not None and self._func is None else "callable"
        return f"GeneratingFunction(name={self.name!r}, backing={backing})"


def _poly(coeffs: np.ndarray, x: float | np.ndarray) -> np.ndarray | float:
    coeffs = np.asarray(coeffs, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if coeffs.size == 0:
        result = np.zeros_like(x_arr)
    else:
        result = np.polynomial.polynomial.polyval(x_arr, coeffs)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(result)
    return result


def _numeric_derivative(
    func: Callable[[np.ndarray], np.ndarray | float],
    x: float | np.ndarray,
    h: float = 1e-6,
) -> np.ndarray | float:
    """Central-difference derivative; only used when no closed form exists."""
    x_arr = np.asarray(x, dtype=float)
    result = (np.asarray(func(x_arr + h)) - np.asarray(func(x_arr - h))) / (2.0 * h)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(result)
    return result


@dataclass(frozen=True)
class GossipGeneratingFunctions:
    """The four generating functions of the fault-tolerant gossip model.

    Attributes
    ----------
    g0, g1:
        Fanout and excess-fanout generating functions of the *ideal*
        (failure-free) gossip graph.
    f0, f1:
        The failure-weighted functions ``F0 = q G0`` and ``F1 = q G1`` for a
        uniform non-failure probability ``q`` (Eq. 1 with ``q_k = q``).
    q:
        The nonfailed-member ratio.
    mean_fanout:
        ``G0'(1)`` — the mean fanout of the underlying distribution.
    """

    g0: GeneratingFunction
    g1: GeneratingFunction
    f0: GeneratingFunction
    f1: GeneratingFunction
    q: float
    mean_fanout: float

    def self_consistent_u(self, *, tol: float = 1e-12, max_iter: int = 10_000) -> float:
        """Solve the self-consistency condition for ``u``.

        ``u`` is the probability that a member reached by following a random
        gossip edge does *not* belong to the giant component.  With uniform
        failures it satisfies (Callaway et al., Eq. 4 of the paper)::

            u = 1 - F1(1) + F1(u) = 1 - q + q * G1(u)

        The trivial solution ``u = 1`` always exists; below the percolation
        threshold it is the only one.  We use damped fixed-point iteration
        from ``u = 0`` (which converges to the smallest root) and polish the
        result with Brent's method when a bracket exists.
        """
        q = self.q
        if q == 0.0:
            return 1.0

        def step(u: float) -> float:
            return 1.0 - q + q * float(self.g1(u))

        u = 0.0
        for _ in range(max_iter):
            u_next = step(u)
            if not np.isfinite(u_next):
                raise ArithmeticError("fixed-point iteration diverged")
            u_next = min(max(u_next, 0.0), 1.0)
            if abs(u_next - u) < tol:
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


def build_generating_functions(
    dist: FanoutDistribution, q: float
) -> GossipGeneratingFunctions:
    """Construct the G0/G1/F0/F1 quadruple for a fanout distribution and ratio ``q``.

    Parameters
    ----------
    dist:
        The fanout distribution ``P`` of the gossip algorithm.
    q:
        The nonfailed-member ratio (uniform across degrees, per Section 4.1).
    """
    q = check_probability("q", q)
    mean_fanout = dist.mean()
    g0 = GeneratingFunction(
        func=dist.g0,
        derivative=dist.g0_prime,
        second_derivative=dist.g0_double_prime,
        name="G0",
    )
    g1 = GeneratingFunction(
        func=dist.g1,
        derivative=dist.g1_prime,
        name="G1",
    )
    f0 = g0.scaled(q, name="F0")
    f1 = g1.scaled(q, name="F1")
    return GossipGeneratingFunctions(
        g0=g0, g1=g1, f0=f0, f1=f1, q=q, mean_fanout=mean_fanout
    )
