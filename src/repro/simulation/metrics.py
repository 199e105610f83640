"""Result records and aggregation for simulation experiments.

Three levels of results exist:

* :class:`ExecutionMetrics` — what one execution of the gossip algorithm
  produced (reached members, message counts, rounds).
* :class:`ReliabilityEstimate` — aggregation of many independent executions
  of the same configuration (the paper's "run 20 times and average").
* :class:`SuccessCountResult` — the Figs. 6-7 object: the empirical
  distribution of the number of successful executions out of ``t``, together
  with the Binomial reference.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.success import success_count_pmf

__all__ = [
    "ExecutionMetrics",
    "ReliabilityEstimate",
    "SuccessCountResult",
    "summarize_executions",
]


@dataclass(frozen=True)
class ExecutionMetrics:
    """Metrics of a single execution of the gossip algorithm.

    Attributes
    ----------
    n:
        Group size.
    n_alive:
        Number of nonfailed members in this execution.
    n_reached_alive:
        Number of nonfailed members that received the message (including the
        source).
    reliability:
        ``n_reached_alive / n_alive`` — the paper's reliability of gossiping.
    rounds:
        Number of BFS levels (gossip hops) until dissemination died out.
    messages_sent:
        Total gossip messages sent by nonfailed members.
    duplicates:
        Messages received by members that already had the message.
    success:
        ``True`` iff every nonfailed member received the message.
    spread:
        ``True`` iff the dissemination "took off" (delivered more than
        ``max(10, sqrt(n))`` members) rather than dying out immediately —
        the epidemic-occurred indicator used for conditional averages.
    """

    n: int
    n_alive: int
    n_reached_alive: int
    reliability: float
    rounds: int
    messages_sent: int
    duplicates: int
    success: bool
    spread: bool = True


@dataclass(frozen=True)
class ReliabilityEstimate:
    """Monte-Carlo estimate of ``R(q, P)`` from repeated executions.

    ``samples`` keeps the per-execution reliabilities so downstream analysis
    (confidence intervals, comparison plots) does not need to re-simulate.
    """

    n: int
    q: float
    mean_fanout: float
    repetitions: int
    mean_reliability: float
    std_reliability: float
    mean_rounds: float
    mean_messages: float
    success_rate: float
    spread_rate: float
    conditional_on_spread: bool
    samples: np.ndarray = field(repr=False)

    def stderr(self) -> float:
        """Return the standard error of the mean reliability."""
        if self.repetitions <= 1:
            return 0.0
        return float(self.std_reliability / np.sqrt(self.repetitions))

    def confidence_interval(self, z: float = 1.96) -> tuple[float, float]:
        """Return a normal-approximation confidence interval for the mean."""
        half = z * self.stderr()
        return (max(0.0, self.mean_reliability - half), min(1.0, self.mean_reliability + half))


def summarize_executions(
    executions: list[ExecutionMetrics],
    *,
    n: int,
    q: float,
    mean_fanout: float,
    conditional_on_spread: bool = False,
) -> ReliabilityEstimate:
    """Aggregate per-execution metrics into a :class:`ReliabilityEstimate`.

    When ``conditional_on_spread`` is True the reliability statistics are
    computed only over executions whose dissemination took off (the
    epidemic-occurred convention that matches the analytical giant-component
    size); if no execution spread, the unconditional statistics are reported.
    The ``spread_rate`` is always computed over all executions.
    """
    if not executions:
        raise ValueError("cannot summarize an empty list of executions")
    spread_flags = np.array([e.spread for e in executions], dtype=bool)
    selected = executions
    if conditional_on_spread and spread_flags.any():
        selected = [e for e, s in zip(executions, spread_flags, strict=True) if s]
    samples = np.array([e.reliability for e in selected], dtype=float)
    rounds = np.array([e.rounds for e in selected], dtype=float)
    messages = np.array([e.messages_sent for e in selected], dtype=float)
    successes = np.array([e.success for e in executions], dtype=float)
    return ReliabilityEstimate(
        n=n,
        q=q,
        mean_fanout=mean_fanout,
        repetitions=len(selected),
        mean_reliability=float(samples.mean()),
        std_reliability=float(samples.std(ddof=1)) if len(selected) > 1 else 0.0,
        mean_rounds=float(rounds.mean()),
        mean_messages=float(messages.mean()),
        success_rate=float(successes.mean()),
        spread_rate=float(spread_flags.mean()),
        conditional_on_spread=bool(conditional_on_spread),
        samples=samples,
    )


@dataclass(frozen=True)
class SuccessCountResult:
    """Empirical distribution of the success count ``X`` (Figs. 6-7).

    Attributes
    ----------
    executions:
        ``t`` — executions per simulation (the paper uses 20).
    simulations:
        Number of independent simulations (the paper uses 100).
    counts:
        ``X`` for each simulation (length ``simulations``).
    empirical_pmf:
        ``P(X = k)`` estimated from ``counts`` for ``k = 0..executions``.
    analytical_reliability:
        The ``p_r`` used for the Binomial reference.
    analytical_pmf:
        The ``B(t, p_r)`` PMF (Eq. 5's underlying distribution).
    """

    executions: int
    simulations: int
    counts: np.ndarray
    empirical_pmf: np.ndarray
    analytical_reliability: float
    analytical_pmf: np.ndarray

    def total_variation_distance(self) -> float:
        """Return the TV distance between the empirical and Binomial PMFs."""
        return 0.5 * float(np.abs(self.empirical_pmf - self.analytical_pmf).sum())


def build_success_count_result(
    counts: np.ndarray, executions: int, analytical_reliability: float
) -> SuccessCountResult:
    """Construct a :class:`SuccessCountResult` from raw success counts."""
    counts = np.asarray(counts, dtype=np.int64)
    if counts.size == 0:
        raise ValueError("counts must be non-empty")
    if np.any((counts < 0) | (counts > executions)):
        raise ValueError("counts must lie in [0, executions]")
    hist = np.bincount(counts, minlength=executions + 1).astype(float)
    empirical_pmf = hist / counts.size
    analytical_pmf = success_count_pmf(executions, analytical_reliability)
    return SuccessCountResult(
        executions=executions,
        simulations=int(counts.size),
        counts=counts,
        empirical_pmf=empirical_pmf,
        analytical_reliability=analytical_reliability,
        analytical_pmf=analytical_pmf,
    )
