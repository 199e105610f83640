"""Message-transport model for the event-driven and batched simulators.

The analytical model abstracts the network away entirely (a gossip arc either
exists or it does not), but the event-driven reference simulator and the
baseline protocols benefit from an explicit transport with per-message
latency and optional loss.  Keeping it in one small class also documents the
substitution: the paper's MATLAB simulation had no network model either, so
the default configuration (zero loss, unit latency) adds nothing beyond
ordering events in time.

The same model drives the vectorised loss plane of the batched engines:
:meth:`NetworkModel.draw_loss` thins one scalar engine's per-round send list
and :meth:`NetworkModel.draw_loss_batch` thins a whole ``(R, n, fanout)``
round of the batched engines with one Bernoulli draw, so the fast paths model
exactly the independent-loss law the event-driven reference implements one
:meth:`NetworkModel.transmit` call at a time.  Both hooks short-circuit at
``loss_probability == 0`` **without consuming randomness**, which is what
makes the lossy engines bit-for-bit identical to the loss-free ones at
``loss_probability = 0``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, ClassVar

import numpy as np

from repro.utils.rng import as_generator
from repro.utils.validation import check_probability

__all__ = [
    "NetworkModel",
    "GilbertElliottNetworkModel",
    "ConstantLatency",
    "UniformLatency",
    "ExponentialLatency",
    "latency_constant",
    "latency_uniform",
    "latency_exponential",
]


@dataclass(frozen=True)
class ConstantLatency:
    """Degenerate latency law: every message takes exactly ``value``.

    The latency samplers are small frozen dataclasses (not closures) so a
    :class:`NetworkModel` can cross a process boundary — latency-plane
    experiments fan their cells out through ``parallel_map``, which pickles
    the work tuples.  Each sampler supports both the scalar protocol
    (``sampler(rng) -> float``, used per message by the event-driven engine)
    and the vectorised one (``sampler.draw(rng, count) -> (count,)``, used by
    the batched latency plane).  The constant law is the only one whose
    ``draw`` consumes **no randomness** — that is what keeps the latency
    plane bit-identical to the latency-free engines at the default
    configuration.
    """

    value: float = 1.0
    #: degenerate laws let the latency plane skip its time-bucket machinery
    is_constant: ClassVar[bool] = True

    def __post_init__(self) -> None:
        if self.value < 0:
            raise ValueError(f"latency must be >= 0, got {self.value!r}")

    # repro: zero-draw
    def __call__(self, rng: np.random.Generator) -> float:
        return self.value

    # repro: zero-draw
    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return np.full(count, self.value)

    def mean(self) -> float:
        return self.value


@dataclass(frozen=True)
class UniformLatency:
    """Latency uniform on ``[low, high]``."""

    low: float
    high: float
    is_constant: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.low < 0 or self.high < self.low:
            raise ValueError(f"invalid latency range [{self.low}, {self.high}]")

    def __call__(self, rng: np.random.Generator) -> float:
        return float(rng.uniform(self.low, self.high))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.uniform(self.low, self.high, count)

    def mean(self) -> float:
        return 0.5 * (self.low + self.high)


@dataclass(frozen=True)
class ExponentialLatency:
    """Exponentially distributed latency with the given mean."""

    mean_latency: float
    is_constant: ClassVar[bool] = False

    def __post_init__(self) -> None:
        if self.mean_latency <= 0:
            raise ValueError(f"mean latency must be > 0, got {self.mean_latency!r}")

    def __call__(self, rng: np.random.Generator) -> float:
        return float(rng.exponential(self.mean_latency))

    def draw(self, rng: np.random.Generator, count: int) -> np.ndarray:
        return rng.exponential(self.mean_latency, count)

    def mean(self) -> float:
        return self.mean_latency


def latency_constant(value: float = 1.0) -> ConstantLatency:
    """Return a latency sampler that always returns ``value``."""
    return ConstantLatency(value)


def latency_uniform(low: float, high: float) -> UniformLatency:
    """Return a latency sampler uniform on ``[low, high]``."""
    return UniformLatency(low, high)


def latency_exponential(mean: float) -> ExponentialLatency:
    """Return an exponentially distributed latency sampler with the given mean."""
    return ExponentialLatency(mean)


@dataclass
class NetworkModel:
    """Point-to-point transport with latency and independent message loss.

    Attributes
    ----------
    latency:
        Callable drawing a delivery latency from an RNG.
    loss_probability:
        Probability that any given message is silently dropped.
    messages_sent, messages_dropped:
        Counters accumulated across :meth:`transmit` / :meth:`draw_loss` /
        :meth:`draw_loss_batch` calls (zeroed with :meth:`reset`).
    total_latency:
        Sum of the latencies of every delivered message (the latency
        bookkeeping side of the counters; zeroed with :meth:`reset`).
    """

    latency: Callable[[np.random.Generator], float] = field(default_factory=latency_constant)
    loss_probability: float = 0.0
    messages_sent: int = 0
    messages_dropped: int = 0
    total_latency: float = 0.0

    def __post_init__(self) -> None:
        self.loss_probability = check_probability("loss_probability", self.loss_probability)

    def draw_latency_batch(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Draw ``count`` delivery latencies at once; book them into ``total_latency``.

        The vectorised latency leg of the batched engines: one call per round
        leg covers every message that actually arrived (survived loss and
        membership filtering).  A :class:`ConstantLatency` sampler (the
        default) consumes **no randomness**, so enabling the latency plane at
        constant latency leaves every per-seed result bit-identical to the
        latency-free engines; ``count == 0`` never touches the sampler at
        all.  Legacy closure samplers (no vectorised ``draw``) fall back to a
        per-message Python loop.
        """
        count = int(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        if count == 0:
            return np.empty(0, dtype=float)
        rng = as_generator(rng)
        draw = getattr(self.latency, "draw", None)
        if draw is not None:
            delays = np.asarray(draw(rng, count), dtype=float)
        else:
            delays = np.array([float(self.latency(rng)) for _ in range(count)])
        self.total_latency += float(delays.sum())
        return delays

    def transmit(self, rng: np.random.Generator, deliver: Callable[[float], None]) -> bool:
        """Transmit one message: maybe drop it, otherwise call ``deliver(latency)``.

        Returns ``True`` if the message was delivered (scheduled), ``False``
        if it was lost.
        """
        rng = as_generator(rng)
        self.messages_sent += 1
        if self.loss_probability > 0.0 and rng.random() < self.loss_probability:
            self.messages_dropped += 1
            return False
        delay = self.latency(rng)
        self.total_latency += delay
        deliver(delay)
        return True

    # repro: zero-draw(loss_probability)
    def draw_loss(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """Thin ``count`` messages at once; return the boolean keep mask.

        The vectorised equivalent of ``count`` :meth:`transmit` calls:
        counters are updated, ``mask[i]`` is ``True`` iff message ``i``
        survives, and — like :meth:`transmit` — every surviving message books
        one latency draw into ``total_latency``, so the scalar engines'
        counters describe exactly one execution whether messages go through
        :meth:`transmit` or through per-round ``draw_loss`` bursts.  At
        ``loss_probability == 0`` (or ``count == 0``) the mask is all-``True``
        and — with the default constant-latency sampler — **no randomness is
        consumed**, so a loss-free network leaves the caller's RNG stream —
        and therefore its per-seed results — untouched.
        """
        count = int(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.messages_sent += count
        if count == 0 or self.loss_probability <= 0.0:
            self.draw_latency_batch(rng, count)
            return np.ones(count, dtype=bool)
        keep = as_generator(rng).random(count) >= self.loss_probability
        self.messages_dropped += count - int(keep.sum())
        self.draw_latency_batch(rng, int(keep.sum()))
        return keep

    # repro: zero-draw(loss_probability)
    def draw_loss_batch(
        self,
        rng: np.random.Generator,
        target_replica: np.ndarray,
        repetitions: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Thin one batched round's flat send list with independent drops.

        Parameters
        ----------
        target_replica:
            Replica identifier of every in-flight message, shape ``(M,)``
            (the batched engines already carry this for message accounting).
        repetitions:
            Number of replicas ``R`` in the batch.

        Returns
        -------
        (keep, dropped_per_replica):
            ``keep`` is the ``(M,)`` boolean survival mask;
            ``dropped_per_replica`` books the losses back to their replicas,
            shape ``(R,)``.  Counters accumulate the batch totals.  Like
            :meth:`draw_loss`, the zero-loss path consumes no randomness.
            Latency bookkeeping is **not** done here: the batched engines
            own the per-message latency draws through their
            :class:`~repro.simulation.latency.DeliveryTimePlane`, which calls
            :meth:`draw_latency_batch` for every arrived message — doing it
            in both places would double-count ``total_latency``.
        """
        target_replica = np.asarray(target_replica, dtype=np.int64)
        count = int(target_replica.size)
        self.messages_sent += count
        if count == 0 or self.loss_probability <= 0.0:
            return np.ones(count, dtype=bool), np.zeros(repetitions, dtype=np.int64)
        keep = as_generator(rng).random(count) >= self.loss_probability
        dropped = np.bincount(target_replica[~keep], minlength=repetitions)
        self.messages_dropped += count - int(keep.sum())
        return keep, dropped.astype(np.int64, copy=False)

    def reset(self) -> None:
        """Zero the message counters and the latency bookkeeping.

        Called on entry by
        :func:`~repro.simulation.protocol_batch.simulate_protocol_batch` (and
        so by every :meth:`repro.protocols.base.Protocol.run`) so counters
        always describe exactly one batch and never leak across runs.
        """
        self.messages_sent = 0
        self.messages_dropped = 0
        self.total_latency = 0.0


@dataclass
class GilbertElliottNetworkModel(NetworkModel):
    """Two-state Markov (Gilbert–Elliott) bursty-loss channel.

    The channel alternates between a *good* state dropping messages with the
    inherited ``loss_probability`` and a *bad* state dropping them with
    ``bad_loss_probability``; state transitions follow a two-state Markov
    chain (``p_good_to_bad``, ``p_bad_to_good``).  Consecutive draws are
    therefore **correlated**: a round that lands in the bad state loses a
    burst of messages at once — exactly the regime where recovery protocols
    (IHAVE/IWANT, anti-entropy) should dominate pure push.

    Granularity: the chain advances **once per draw call** — per
    :meth:`transmit` on the event-driven path, per :meth:`draw_loss` call
    (one sender's burst) on the scalar engines, and once per replica per
    :meth:`draw_loss_batch` call (one round leg) on the batched engines.  A
    round leg is thus one coherence interval (block fading), so the scalar
    and batched paths share the loss *law per leg* but not a per-message
    chain; cross-path pins for this channel are distributional only.
    Crucially the chain advances even on **empty legs** (``count == 0``):
    fading is a property of the channel's clock, not of offered traffic, so
    a quiet round must not freeze the burst state.

    Determinism contracts preserved from the base class:

    * both rates 0 → every path short-circuits all-``True`` and consumes
      **no randomness** (p=0 stays bit-identical to loss-free);
    * both rates equal → the state cannot matter, so every draw defers to
      the base class verbatim and the channel **collapses to the i.i.d.
      Bernoulli model bit-for-bit**.

    The chain starts from its stationary distribution (one extra uniform on
    first use), so the realised long-run drop rate matches
    :meth:`mean_loss_probability` without a warm-up transient.
    """

    bad_loss_probability: float = 0.0
    p_good_to_bad: float = 0.0
    p_bad_to_good: float = 1.0
    #: per-chain state: ``None`` until first lossy draw (lazily initialised
    #: from the stationary distribution), then a bool / ``(R,)`` bool array.
    _scalar_bad: bool | None = field(default=None, init=False, repr=False, compare=False)
    _batch_bad: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        super().__post_init__()
        self.bad_loss_probability = check_probability(
            "bad_loss_probability", self.bad_loss_probability
        )
        self.p_good_to_bad = check_probability("p_good_to_bad", self.p_good_to_bad)
        self.p_bad_to_good = check_probability("p_bad_to_good", self.p_bad_to_good)

    def _is_iid(self) -> bool:
        """True when the state cannot matter (both states share one drop rate)."""
        return self.bad_loss_probability == self.loss_probability

    def stationary_bad_fraction(self) -> float:
        """Return the stationary probability of the bad state."""
        denominator = self.p_good_to_bad + self.p_bad_to_good
        if denominator <= 0.0:
            return 0.0  # frozen chain; it starts (and stays) good
        return self.p_good_to_bad / denominator

    def mean_loss_probability(self) -> float:
        """Return the long-run (stationary) per-message drop probability."""
        bad = self.stationary_bad_fraction()
        return (1.0 - bad) * self.loss_probability + bad * self.bad_loss_probability

    def _advance_scalar(self, rng: np.random.Generator) -> float:
        """Advance the scalar chain one step; return the current drop rate."""
        if self._scalar_bad is None:
            self._scalar_bad = bool(rng.random() < self.stationary_bad_fraction())
        elif self._scalar_bad:
            self._scalar_bad = not (rng.random() < self.p_bad_to_good)
        else:
            self._scalar_bad = bool(rng.random() < self.p_good_to_bad)
        return self.bad_loss_probability if self._scalar_bad else self.loss_probability

    def _advance_batch(self, rng: np.random.Generator, repetitions: int) -> np.ndarray:
        """Advance every replica's chain one step; return ``(R,)`` bad-state mask.

        The chain is sized at first use (lazily, from the stationary
        distribution).  Changing ``repetitions`` mid-run would have to throw
        the accumulated burst state away, so it is an error: call
        :meth:`reset` between batches of different widths instead of relying
        on a silent stationary re-draw.
        """
        if self._batch_bad is not None and self._batch_bad.size != repetitions:
            raise ValueError(
                f"Gilbert-Elliott batch chain tracks {self._batch_bad.size} "
                f"replicas but this draw asked for {repetitions}; call reset() "
                "before reusing the model with a different batch width"
            )
        if self._batch_bad is None:
            self._batch_bad = rng.random(repetitions) < self.stationary_bad_fraction()
        else:
            uniforms = rng.random(repetitions)
            self._batch_bad = np.where(
                self._batch_bad,
                uniforms >= self.p_bad_to_good,
                uniforms < self.p_good_to_bad,
            )
        return self._batch_bad

    def transmit(self, rng: np.random.Generator, deliver: Callable[[float], None]) -> bool:
        if self._is_iid():
            return super().transmit(rng, deliver)
        rng = as_generator(rng)
        self.messages_sent += 1
        rate = self._advance_scalar(rng)
        if rate > 0.0 and rng.random() < rate:
            self.messages_dropped += 1
            return False
        delay = self.latency(rng)
        self.total_latency += delay
        deliver(delay)
        return True

    # repro: zero-draw(_is_iid)
    def draw_loss(self, rng: np.random.Generator, count: int) -> np.ndarray:
        if self._is_iid():
            return super().draw_loss(rng, count)
        count = int(count)
        if count < 0:
            raise ValueError(f"count must be >= 0, got {count}")
        self.messages_sent += count
        rng = as_generator(rng)
        # Block fading: advance the chain once per leg even when the leg is
        # empty, so the burst state tracks channel time rather than traffic.
        rate = self._advance_scalar(rng)
        if count == 0:
            return np.ones(0, dtype=bool)
        if rate <= 0.0:
            self.draw_latency_batch(rng, count)
            return np.ones(count, dtype=bool)
        keep = rng.random(count) >= rate
        self.messages_dropped += count - int(keep.sum())
        self.draw_latency_batch(rng, int(keep.sum()))
        return keep

    # repro: zero-draw(_is_iid)
    def draw_loss_batch(
        self,
        rng: np.random.Generator,
        target_replica: np.ndarray,
        repetitions: int,
    ) -> tuple[np.ndarray, np.ndarray]:
        if self._is_iid():
            return super().draw_loss_batch(rng, target_replica, repetitions)
        target_replica = np.asarray(target_replica, dtype=np.int64)
        count = int(target_replica.size)
        self.messages_sent += count
        rng = as_generator(rng)
        # Empty legs still advance every replica's chain (see draw_loss).
        bad = self._advance_batch(rng, repetitions)
        if count == 0:
            return np.ones(0, dtype=bool), np.zeros(repetitions, dtype=np.int64)
        rates = np.where(bad, self.bad_loss_probability, self.loss_probability)
        keep = rng.random(count) >= rates[target_replica]
        dropped = np.bincount(target_replica[~keep], minlength=repetitions)
        self.messages_dropped += count - int(keep.sum())
        return keep, dropped.astype(np.int64, copy=False)

    def reset(self) -> None:
        super().reset()
        self._scalar_bad = None
        self._batch_bad = None
