"""Fanout distributions for the general gossiping algorithm.

The paper's algorithm (its Figure 1) lets every member draw a *random* fanout
``f_i`` from a probability distribution ``P`` when it first receives the
message.  The analytical model (Section 4) is built directly on top of that
distribution through its probability generating function

.. math::

    G_0(x) = \\sum_{k \\ge 0} p_k x^k .

Each distribution class therefore exposes three views of the same object:

* a probability mass function (:meth:`FanoutDistribution.pmf` /
  :meth:`FanoutDistribution.pmf_array`),
* a sampler used by the simulator (:meth:`FanoutDistribution.sample`), and
* the generating function and its derivatives used by the percolation
  analysis (:meth:`FanoutDistribution.g0`, :meth:`FanoutDistribution.g0_prime`,
  :meth:`FanoutDistribution.g1`, ...).

The Poisson distribution is the paper's case study (Section 4.3); the other
distributions exercise the paper's claim that the model applies to *arbitrary*
fanout distributions and are used by the ablation benchmarks.
"""

from __future__ import annotations

import math
from abc import ABC, abstractmethod
from typing import Callable, Sequence

import numpy as np
from scipy import stats

from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import (
    check_integer,
    check_non_negative,
    check_positive,
    check_probability,
    check_sample_shape,
)

__all__ = [
    "FanoutDistribution",
    "PoissonFanout",
    "FixedFanout",
    "BinomialFanout",
    "GeometricFanout",
    "UniformFanout",
    "ZipfFanout",
    "EmpiricalFanout",
    "MixtureFanout",
]

#: Probability mass below which the numerical truncation of an infinite
#: support is considered negligible.
_TRUNCATION_TOL = 1e-12


class FanoutDistribution(ABC):
    """Abstract base class for fanout distributions.

    Subclasses must implement :meth:`pmf_array`, :meth:`mean`, and
    :meth:`sample`; the generating-function machinery is provided generically
    on top of the truncated PMF but may be overridden with closed forms
    (as :class:`PoissonFanout` does).
    """

    #: short machine-readable identifier used in tables and experiment output
    name: str = "fanout"

    # ------------------------------------------------------------------ PMF
    @abstractmethod
    def pmf_array(self, k_max: int | None = None) -> np.ndarray:
        """Return ``[P(F=0), P(F=1), ..., P(F=k_max)]``.

        When ``k_max`` is ``None`` the distribution chooses a truncation point
        that captures all but ``~1e-12`` of the probability mass.
        """

    def pmf(self, k: int) -> float:
        """Return ``P(F = k)``."""
        k = check_integer("k", k, minimum=0)
        arr = self.pmf_array(k_max=k)
        return float(arr[k]) if k < len(arr) else 0.0

    def cdf(self, k: int) -> float:
        """Return ``P(F <= k)``."""
        k = check_integer("k", k, minimum=0)
        arr = self.pmf_array(k_max=k)
        return float(np.sum(arr[: k + 1]))

    def support_upper(self) -> int:
        """Return the truncation point used for numerical summations."""
        return len(self.pmf_array()) - 1

    # ------------------------------------------------------------- moments
    @abstractmethod
    def mean(self) -> float:
        """Return ``E[F]`` — the mean fanout (the paper's ``f`` / ``z``)."""

    def variance(self) -> float:
        """Return ``Var[F]``; generic implementation via the truncated PMF."""
        pmf = self.pmf_array()
        k = np.arange(len(pmf))
        mean = float(np.sum(k * pmf))
        return float(np.sum((k - mean) ** 2 * pmf))

    def second_factorial_moment(self) -> float:
        """Return ``E[F(F-1)] = G0''(1)``, used by the critical-point formula."""
        pmf = self.pmf_array()
        k = np.arange(len(pmf))
        return float(np.sum(k * (k - 1) * pmf))

    # ----------------------------------------------------------- sampling
    @abstractmethod
    def sample(self, size: int | tuple[int, ...], seed: SeedLike = None) -> np.ndarray:
        """Draw fanout values as an ``int64`` array of shape ``size``.

        ``size`` may be a scalar count (the batched engine draws one flat
        vector per gossip round, covering every active replica member) or a
        shape tuple for ensemble workloads that want e.g. a
        ``(replicas, members)`` matrix in one call.
        """

    # ----------------------------------------------- generating functions
    def g0(self, x: float | np.ndarray) -> np.ndarray | float:
        """Evaluate the degree generating function ``G0(x) = Σ p_k x^k``."""
        pmf = self.pmf_array()
        return _poly_eval(pmf, x)

    def g0_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        """Evaluate ``G0'(x) = Σ k p_k x^{k-1}``."""
        pmf = self.pmf_array()
        k = np.arange(len(pmf))
        coeffs = (k * pmf)[1:]  # coefficient of x^{k-1}
        return _poly_eval(coeffs, x)

    def g0_double_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        """Evaluate ``G0''(x) = Σ k(k-1) p_k x^{k-2}``."""
        pmf = self.pmf_array()
        k = np.arange(len(pmf))
        coeffs = (k * (k - 1) * pmf)[2:]
        return _poly_eval(coeffs, x)

    def g1(self, x: float | np.ndarray) -> np.ndarray | float:
        """Evaluate ``G1(x) = G0'(x) / G0'(1)`` (excess-degree GF).

        ``G1`` is the generating function of the number of outgoing edges of
        a node reached by following a random edge, central to Eqs. 2-4.
        """
        norm = self.g0_prime(1.0)
        if norm <= 0:
            raise ValueError(
                f"{self.name}: G1 undefined because the mean fanout is zero"
            )
        return self.g0_prime(x) / norm

    def g1_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        """Evaluate ``G1'(x) = G0''(x) / G0'(1)``."""
        norm = self.g0_prime(1.0)
        if norm <= 0:
            raise ValueError(
                f"{self.name}: G1 undefined because the mean fanout is zero"
            )
        return self.g0_double_prime(x) / norm

    # -------------------------------------------------------------- misc
    def describe(self) -> dict:
        """Return a plain-dict description used in experiment metadata."""
        return {
            "name": self.name,
            "mean": self.mean(),
            "variance": self.variance(),
        }

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        params = ", ".join(
            f"{key}={value!r}" for key, value in self.describe().items() if key != "name"
        )
        return f"{type(self).__name__}({params})"


def _closed_form(
    func: Callable[[np.ndarray], np.ndarray], x: float | np.ndarray
) -> np.ndarray | float:
    """Evaluate a closed-form generating function at scalar or array ``x``."""
    x_arr = np.asarray(x, dtype=float)
    result = func(x_arr)
    return float(result) if np.isscalar(x) or x_arr.ndim == 0 else result


def _poly_eval(coeffs: np.ndarray, x: float | np.ndarray) -> np.ndarray | float:
    """Evaluate ``Σ coeffs[k] x^k`` for scalar or array ``x`` (ascending order)."""
    coeffs = np.asarray(coeffs, dtype=float)
    x_arr = np.asarray(x, dtype=float)
    if coeffs.size == 0:
        result = np.zeros_like(x_arr, dtype=float)
    else:
        # polynomial.polyval expects ascending coefficients.
        result = np.polynomial.polynomial.polyval(x_arr, coeffs)
    if np.isscalar(x) or x_arr.ndim == 0:
        return float(result)
    return result


class PoissonFanout(FanoutDistribution):
    """Poisson fanout ``Po(z)`` — the paper's case-study distribution.

    Parameters
    ----------
    mean_fanout:
        The Poisson mean ``z``; also the average fanout (paper notation ``f``).

    Notes
    -----
    The generating functions have closed forms (Eqs. 8-9)::

        G0(x) = G1(x) = exp(z (x - 1))
    """

    name = "poisson"

    def __init__(self, mean_fanout: float) -> None:
        self.mean_fanout = check_positive("mean_fanout", mean_fanout)

    def pmf_array(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            k_max = _poisson_truncation(self.mean_fanout)
        k = np.arange(k_max + 1)
        return stats.poisson.pmf(k, self.mean_fanout)

    def mean(self) -> float:
        return self.mean_fanout

    def variance(self) -> float:
        return self.mean_fanout

    def second_factorial_moment(self) -> float:
        return self.mean_fanout**2

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        size = check_sample_shape("size", size)
        rng = as_generator(seed)
        return rng.poisson(self.mean_fanout, size=size).astype(np.int64)

    # Closed forms (Eqs. 8-9 of the paper).
    def g0(self, x: float | np.ndarray) -> np.ndarray | float:
        z = self.mean_fanout
        return _closed_form(lambda v: np.exp(z * (v - 1.0)), x)

    def g0_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        z = self.mean_fanout
        return _closed_form(lambda v: z * np.exp(z * (v - 1.0)), x)

    def g0_double_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        z = self.mean_fanout
        return _closed_form(lambda v: z**2 * np.exp(z * (v - 1.0)), x)

    def g1(self, x: float | np.ndarray) -> np.ndarray | float:
        return self.g0(x)

    def g1_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        return self.g0_prime(x)

    def describe(self) -> dict:
        d = super().describe()
        d["mean_fanout"] = self.mean_fanout
        return d


def _poisson_truncation(z: float) -> int:
    """Truncation point capturing all but ``_TRUNCATION_TOL`` of Po(z) mass."""
    k = int(math.ceil(z + 12.0 * math.sqrt(z) + 12.0))
    while stats.poisson.sf(k, z) > _TRUNCATION_TOL:
        k *= 2
    return k


class FixedFanout(FanoutDistribution):
    """Degenerate distribution: every member gossips to exactly ``fanout`` targets.

    This is the traditional gossip setting the paper contrasts against; it is
    also the configuration used by the :mod:`repro.protocols.fixed_fanout`
    baseline.
    """

    name = "fixed"

    def __init__(self, fanout: int) -> None:
        self.fanout = check_integer("fanout", fanout, minimum=0)

    def pmf_array(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            k_max = self.fanout
        arr = np.zeros(max(k_max, self.fanout) + 1)
        arr[self.fanout] = 1.0
        return arr[: k_max + 1] if k_max >= self.fanout else arr[: k_max + 1]

    def mean(self) -> float:
        return float(self.fanout)

    def variance(self) -> float:
        return 0.0

    def second_factorial_moment(self) -> float:
        return float(self.fanout * (self.fanout - 1))

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        size = check_sample_shape("size", size)
        return np.full(size, self.fanout, dtype=np.int64)

    # Closed forms of G0(x) = x^k and its derivatives; a term whose falling
    # factorial is 0 is 0 (no negative power of x = 0 is formed).
    def g0(self, x: float | np.ndarray) -> np.ndarray | float:
        return _closed_form(lambda v: v**self.fanout, x)

    def g0_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        k = self.fanout
        return _closed_form(lambda v: k * v ** (k - 1) if k >= 1 else 0.0 * v, x)

    def g0_double_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        k = self.fanout
        return _closed_form(lambda v: k * (k - 1) * v ** (k - 2) if k >= 2 else 0.0 * v, x)

    def describe(self) -> dict:
        d = super().describe()
        d["fanout"] = self.fanout
        return d


class BinomialFanout(FanoutDistribution):
    """Binomial fanout ``B(n, p)``.

    Models a member that considers ``n`` candidate targets and forwards to
    each independently with probability ``p`` (the classical "infect-and-die"
    epidemic setting).
    """

    name = "binomial"

    def __init__(self, trials: int, prob: float) -> None:
        self.trials = check_integer("trials", trials, minimum=0)
        self.prob = check_probability("prob", prob)

    def pmf_array(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            k_max = self.trials
        k = np.arange(k_max + 1)
        return stats.binom.pmf(k, self.trials, self.prob)

    def mean(self) -> float:
        return self.trials * self.prob

    def variance(self) -> float:
        return self.trials * self.prob * (1.0 - self.prob)

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        size = check_sample_shape("size", size)
        rng = as_generator(seed)
        return rng.binomial(self.trials, self.prob, size=size).astype(np.int64)

    def describe(self) -> dict:
        d = super().describe()
        d["trials"] = self.trials
        d["prob"] = self.prob
        return d


class GeometricFanout(FanoutDistribution):
    """Geometric fanout supported on ``{0, 1, 2, ...}`` with success probability ``p``.

    ``P(F = k) = p (1-p)^k`` and ``E[F] = (1-p)/p``.  A heavy-tailed-ish
    alternative to Poisson at equal mean, used in the distribution ablation.
    """

    name = "geometric"

    def __init__(self, prob: float) -> None:
        self.prob = check_probability("prob", prob, allow_zero=False)

    @classmethod
    def from_mean(cls, mean_fanout: float) -> "GeometricFanout":
        """Construct the geometric distribution with ``E[F] = mean_fanout``."""
        mean_fanout = check_non_negative("mean_fanout", mean_fanout)
        return cls(1.0 / (1.0 + mean_fanout))

    def pmf_array(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            if self.prob >= 1.0:
                k_max = 0
            else:
                k_max = int(math.ceil(math.log(_TRUNCATION_TOL) / math.log(1.0 - self.prob))) + 1
        k = np.arange(k_max + 1)
        return self.prob * (1.0 - self.prob) ** k

    def mean(self) -> float:
        return (1.0 - self.prob) / self.prob

    def variance(self) -> float:
        return (1.0 - self.prob) / self.prob**2

    def second_factorial_moment(self) -> float:
        return 2.0 * (1.0 - self.prob) ** 2 / self.prob**2

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        size = check_sample_shape("size", size)
        rng = as_generator(seed)
        # numpy's geometric counts trials until first success (support >= 1);
        # shift to the number of failures to get support {0, 1, ...}.
        return (rng.geometric(self.prob, size=size) - 1).astype(np.int64)

    # Closed forms of G0(x) = p / (1 - (1-p) x): the truncated series would
    # run to about 27.6 times the mean.
    def g0(self, x: float | np.ndarray) -> np.ndarray | float:
        p = self.prob
        return _closed_form(lambda v: p / (1.0 - (1.0 - p) * v), x)

    def g0_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        p = self.prob
        return _closed_form(lambda v: p * (1.0 - p) / (1.0 - (1.0 - p) * v) ** 2, x)

    def g0_double_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        p = self.prob
        return _closed_form(lambda v: 2.0 * p * (1.0 - p) ** 2 / (1.0 - (1.0 - p) * v) ** 3, x)

    def describe(self) -> dict:
        d = super().describe()
        d["prob"] = self.prob
        return d


class UniformFanout(FanoutDistribution):
    """Discrete uniform fanout on the integer range ``[low, high]`` inclusive.

    Each member gossips to ``k`` targets with ``k`` drawn uniformly from
    ``{low, ..., high}`` (``0 <= low <= high``); mean ``(low + high) / 2``.
    The bounded-variance counterpoint to the heavy-tailed families in the
    distribution ablations.
    """

    name = "uniform"

    def __init__(self, low: int, high: int) -> None:
        self.low = check_integer("low", low, minimum=0)
        self.high = check_integer("high", high, minimum=self.low)

    def pmf_array(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            k_max = self.high
        arr = np.zeros(k_max + 1)
        hi = min(k_max, self.high)
        if hi >= self.low:
            arr[self.low : hi + 1] = 1.0 / (self.high - self.low + 1)
        return arr

    def mean(self) -> float:
        return (self.low + self.high) / 2.0

    def variance(self) -> float:
        width = self.high - self.low + 1
        return (width**2 - 1) / 12.0

    def second_factorial_moment(self) -> float:
        k = np.arange(self.low, self.high + 1, dtype=float)
        return float(np.mean(k * (k - 1)))

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        size = check_sample_shape("size", size)
        rng = as_generator(seed)
        return rng.integers(self.low, self.high + 1, size=size, dtype=np.int64)

    # The generating functions sum over the support [low, high] only, not over
    # the zero mass below ``low`` that the PMF array carries.
    def _support_series(self, x: float | np.ndarray, order: int) -> np.ndarray | float:
        """``Σ_{k=low}^{high} k(k-1)…(k-order+1) x^(k-order) / (high - low + 1)``."""
        k = np.arange(max(self.low, order), self.high + 1, dtype=float)
        weight = np.ones_like(k)
        for i in range(order):
            weight *= k - i
        width = self.high - self.low + 1
        return _closed_form(
            lambda v: (weight * v[..., None] ** (k - order)).sum(axis=-1) / width, x
        )

    def g0(self, x: float | np.ndarray) -> np.ndarray | float:
        return self._support_series(x, 0)

    def g0_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        return self._support_series(x, 1)

    def g0_double_prime(self, x: float | np.ndarray) -> np.ndarray | float:
        return self._support_series(x, 2)

    def describe(self) -> dict:
        d = super().describe()
        d["low"] = self.low
        d["high"] = self.high
        return d


class ZipfFanout(FanoutDistribution):
    """Truncated power-law (Zipf) fanout on ``{1, ..., k_max}``.

    ``P(F = k) ∝ k^{-alpha}``.  Heavy-tailed fanouts arise when gossip targets
    are drawn from skewed overlay views (hub-like members forward to many
    peers while most members forward to few).
    """

    name = "zipf"

    def __init__(self, alpha: float, k_max: int) -> None:
        self.alpha = check_positive("alpha", alpha)
        self.k_max = check_integer("k_max", k_max, minimum=1)
        k = np.arange(1, self.k_max + 1, dtype=float)
        weights = k**-self.alpha
        self._pmf_tail = weights / weights.sum()

    def pmf_array(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            k_max = self.k_max
        arr = np.zeros(k_max + 1)
        hi = min(k_max, self.k_max)
        arr[1 : hi + 1] = self._pmf_tail[:hi]
        return arr

    def mean(self) -> float:
        k = np.arange(1, self.k_max + 1, dtype=float)
        return float(np.sum(k * self._pmf_tail))

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        size = check_sample_shape("size", size)
        rng = as_generator(seed)
        return rng.choice(
            np.arange(1, self.k_max + 1, dtype=np.int64), size=size, p=self._pmf_tail
        )

    def describe(self) -> dict:
        d = super().describe()
        d["alpha"] = self.alpha
        d["k_max"] = self.k_max
        return d


class EmpiricalFanout(FanoutDistribution):
    """Fanout distribution given explicitly as a PMF vector.

    Useful for plugging in measured fanout histograms (e.g. from a deployed
    overlay) or for property-based testing with arbitrary distributions.
    """

    name = "empirical"

    def __init__(self, pmf: Sequence[float]) -> None:
        arr = np.asarray(pmf, dtype=float)
        if arr.ndim != 1 or arr.size == 0:
            raise ValueError("pmf must be a non-empty 1-D sequence")
        if np.any(arr < 0):
            raise ValueError("pmf entries must be non-negative")
        total = arr.sum()
        if not math.isclose(total, 1.0, rel_tol=0, abs_tol=1e-6):
            raise ValueError(f"pmf must sum to 1 (got {total!r})")
        self._pmf = arr / total

    @classmethod
    def from_samples(cls, samples: Sequence[int]) -> "EmpiricalFanout":
        """Build the empirical PMF of observed integer fanout samples."""
        samples = np.asarray(samples, dtype=np.int64)
        if samples.size == 0:
            raise ValueError("samples must be non-empty")
        if np.any(samples < 0):
            raise ValueError("samples must be non-negative")
        counts = np.bincount(samples)
        return cls(counts / counts.sum())

    def pmf_array(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            k_max = len(self._pmf) - 1
        arr = np.zeros(k_max + 1)
        hi = min(k_max + 1, len(self._pmf))
        arr[:hi] = self._pmf[:hi]
        return arr

    def mean(self) -> float:
        k = np.arange(len(self._pmf))
        return float(np.sum(k * self._pmf))

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        size = check_sample_shape("size", size)
        rng = as_generator(seed)
        return rng.choice(np.arange(len(self._pmf), dtype=np.int64), size=size, p=self._pmf)

    def describe(self) -> dict:
        d = super().describe()
        d["support"] = len(self._pmf) - 1
        return d


class MixtureFanout(FanoutDistribution):
    """Finite mixture of fanout distributions.

    Models heterogeneous populations, e.g. a fraction of well-connected
    members with a large fanout and a fraction of constrained members with a
    small fanout.
    """

    name = "mixture"

    def __init__(self, components: Sequence[FanoutDistribution], weights: Sequence[float]) -> None:
        if len(components) == 0:
            raise ValueError("mixture needs at least one component")
        if len(components) != len(weights):
            raise ValueError("components and weights must have the same length")
        weights_arr = np.asarray(weights, dtype=float)
        if np.any(weights_arr < 0):
            raise ValueError("weights must be non-negative")
        total = weights_arr.sum()
        if total <= 0:
            raise ValueError("weights must not all be zero")
        self.components = list(components)
        self.weights = weights_arr / total

    def pmf_array(self, k_max: int | None = None) -> np.ndarray:
        if k_max is None:
            k_max = max(c.support_upper() for c in self.components)
        out = np.zeros(k_max + 1)
        for weight, comp in zip(self.weights, self.components, strict=True):
            out += weight * comp.pmf_array(k_max=k_max)
        return out

    def mean(self) -> float:
        return float(sum(w * c.mean() for w, c in zip(self.weights, self.components, strict=True)))

    def sample(self, size: int, seed: SeedLike = None) -> np.ndarray:
        size = check_sample_shape("size", size)
        rng = as_generator(seed)
        choices = rng.choice(len(self.components), size=size, p=self.weights)
        out = np.zeros(size, dtype=np.int64)
        for idx, comp in enumerate(self.components):
            mask = choices == idx
            count = int(mask.sum())
            if count:
                out[mask] = comp.sample(count, seed=rng)
        return out

    def describe(self) -> dict:
        d = super().describe()
        d["components"] = [c.describe() for c in self.components]
        d["weights"] = self.weights.tolist()
        return d
