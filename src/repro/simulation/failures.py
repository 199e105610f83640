"""Fail-stop failure injection (Section 3 / Section 4.1 failure model).

The paper assumes a fail-stop model: failed members never gossip messages
they receive, they fail only by crashing, and the source node never fails.
Two crash timings are distinguished but "treated the same" analytically:
crash *before* receiving the message, or crash *after* receiving it but
*before* forwarding.  The simulator honours that distinction so the
equivalence can actually be demonstrated:

* ``CrashTiming.BEFORE_RECEIVE`` — the member is dead from the start; it is
  not counted as having received the message.
* ``CrashTiming.AFTER_RECEIVE`` — the member receives (the message reaches
  its host) but crashes mid-execution, before forwarding; it still does not
  count towards the reliability because reliability is defined over
  *nonfailed* members.

Either way the member contributes nothing to further dissemination, which is
why the analysis can lump both cases into a single nonfailed ratio ``q``.

Failure models expose two draw granularities:

* :meth:`FailureModel.draw` — one scalar :class:`FailurePattern` (used by the
  per-execution reference simulators).
* :meth:`FailureModel.draw_batch` — ``R`` independent patterns as one
  :class:`FailurePatternBatch` of ``(R, n)`` masks, the input of the batched
  engines (:func:`repro.simulation.gossip.simulate_gossip_batch` and
  :func:`repro.simulation.protocol_batch.simulate_protocol_batch`).  The base
  implementation stacks scalar draws (correct for any model); the bundled
  models override it with fully vectorised draws.

Model parameters are validated **once**, in ``__post_init__``; the draw
methods themselves are allocation-lean hot paths (no per-call parameter
re-validation, no Python-level list materialisation) and only guard the
per-call ``n``/``source`` arguments with two comparisons.
"""

from __future__ import annotations

import enum
from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

__all__ = [
    "CrashTiming",
    "FailurePattern",
    "FailurePatternBatch",
    "FailureModel",
    "UniformCrashModel",
    "TargetedCrashModel",
]


class CrashTiming(enum.Enum):
    """When a failed member crashes relative to message receipt."""

    BEFORE_RECEIVE = "before_receive"
    AFTER_RECEIVE = "after_receive"


def _check_draw_args(n: int, source: int) -> None:
    """Cheap per-draw argument guard (two comparisons, no helper chain)."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if not 0 <= source < n:
        raise ValueError(f"source must be in [0, {n}), got {source}")


@dataclass(frozen=True)
class FailurePattern:
    """A realised failure pattern for one execution.

    Attributes
    ----------
    alive:
        Boolean mask over members; ``True`` means the member never crashes.
    timing:
        For failed members, whether the crash happens before or after receipt
        (irrelevant to reliability, modelled for completeness).  Entries for
        alive members are ``CrashTiming.BEFORE_RECEIVE`` by convention and
        ignored.
    """

    alive: np.ndarray
    timing: np.ndarray

    def n_alive(self) -> int:
        """Return the number of nonfailed members."""
        return int(self.alive.sum())


@dataclass(frozen=True)
class FailurePatternBatch:
    """``R`` realised failure patterns as ``(R, n)`` masks.

    Attributes
    ----------
    alive:
        ``(R, n)`` boolean masks; ``True`` means the member never crashes.
    after_receive:
        ``(R, n)`` boolean masks; ``True`` marks a *failed* member whose
        crash happens mid-execution (after receipt, before forwarding).
        Entries for alive members are ``False`` by convention and ignored.
        Stored as a compact boolean plane instead of per-cell enum objects so
        a batch draw costs two array fills, not ``R·n`` boxed values.
    """

    alive: np.ndarray
    after_receive: np.ndarray

    @property
    def repetitions(self) -> int:
        """Return the number of replicas ``R``."""
        return int(self.alive.shape[0])

    @property
    def n(self) -> int:
        """Return the group size ``n``."""
        return int(self.alive.shape[1])

    def n_alive(self) -> np.ndarray:
        """Return the per-replica number of nonfailed members, shape ``(R,)``."""
        return self.alive.sum(axis=1)


class FailureModel(ABC):
    """Abstract generator of failure patterns."""

    @abstractmethod
    def draw(self, n: int, rng: np.random.Generator, *, source: int = 0) -> FailurePattern:
        """Draw a failure pattern for a group of ``n`` members.

        Implementations must keep the source alive (the paper assumes the
        source never fails).
        """

    def draw_batch(
        self, n: int, repetitions: int, rng: np.random.Generator, *, source: int = 0
    ) -> FailurePatternBatch:
        """Draw ``repetitions`` independent failure patterns as ``(R, n)`` masks.

        The base implementation stacks scalar :meth:`draw` calls — correct
        for any model; the bundled models override it with one vectorised
        draw so the batched engines never enter a Python-level replica loop.
        """
        _check_draw_args(n, source)
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        rng = as_generator(rng)
        patterns = [self.draw(n, rng, source=source) for _ in range(repetitions)]
        alive = np.stack([p.alive for p in patterns])
        after = np.stack(
            [np.asarray(p.timing == CrashTiming.AFTER_RECEIVE, dtype=bool) for p in patterns]
        )
        after &= ~alive
        return FailurePatternBatch(alive=alive, after_receive=after)


@dataclass(frozen=True)
class UniformCrashModel(FailureModel):
    """Every member (except the source) fails independently with probability ``1 - q``.

    This is the paper's uniform-``q_k`` specialisation (Section 4.1): the
    non-failure probability does not depend on the member's fanout.  Frozen
    (like every failure/churn/latency model, enforced by repro-lint RL003):
    model instances cross ``utils.parallel`` pools inside pickled work tuples
    and are shared across experiment cells, so they must stay immutable.
    """

    q: float
    after_receive_fraction: float = 0.5

    def __post_init__(self) -> None:
        object.__setattr__(self, "q", check_probability("q", self.q))
        object.__setattr__(
            self,
            "after_receive_fraction",
            check_probability("after_receive_fraction", self.after_receive_fraction),
        )

    def draw(self, n: int, rng: np.random.Generator, *, source: int = 0) -> FailurePattern:
        _check_draw_args(n, source)
        rng = as_generator(rng)
        alive = rng.random(n) < self.q
        alive[source] = True
        timing_draw = rng.random(n) < self.after_receive_fraction
        timing = np.where(
            timing_draw, CrashTiming.AFTER_RECEIVE, CrashTiming.BEFORE_RECEIVE
        )
        return FailurePattern(alive=alive, timing=timing)

    def draw_batch(
        self, n: int, repetitions: int, rng: np.random.Generator, *, source: int = 0
    ) -> FailurePatternBatch:
        _check_draw_args(n, source)
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        rng = as_generator(rng)
        alive = rng.random((repetitions, n)) < self.q
        alive[:, source] = True
        after = rng.random((repetitions, n)) < self.after_receive_fraction
        after &= ~alive
        return FailurePatternBatch(alive=alive, after_receive=after)


@dataclass(frozen=True)
class TargetedCrashModel(FailureModel):
    """Fail exactly the given members (deterministic failure injection).

    Useful in tests and in worst-case ablations (e.g. failing the highest
    fanout members first to probe the uniform-failure assumption).  Frozen
    so instances pickle cleanly into worker pools (repro-lint RL003).
    """

    failed: tuple[int, ...]
    #: Deduplicated failed identifiers cached at construction so every draw
    #: is one fancy-indexed mask write instead of a Python loop.
    _failed_array: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "failed", tuple(int(f) for f in self.failed))
        object.__setattr__(
            self, "_failed_array", np.unique(np.asarray(self.failed, dtype=np.int64))
        )

    def draw(self, n: int, rng: np.random.Generator, *, source: int = 0) -> FailurePattern:
        _check_draw_args(n, source)
        alive = np.ones(n, dtype=bool)
        failed = self._failed_array
        alive[failed[(failed >= 0) & (failed < n)]] = False
        alive[source] = True
        timing = np.full(n, CrashTiming.BEFORE_RECEIVE, dtype=object)
        return FailurePattern(alive=alive, timing=timing)

    def draw_batch(
        self, n: int, repetitions: int, rng: np.random.Generator, *, source: int = 0
    ) -> FailurePatternBatch:
        _check_draw_args(n, source)
        if repetitions < 1:
            raise ValueError(f"repetitions must be >= 1, got {repetitions}")
        row = np.ones(n, dtype=bool)
        failed = self._failed_array
        row[failed[(failed >= 0) & (failed < n)]] = False
        row[source] = True
        alive = np.tile(row, (repetitions, 1))
        after = np.zeros((repetitions, n), dtype=bool)
        return FailurePatternBatch(alive=alive, after_receive=after)
