"""Recovery resilience — two-phase recovery vs pure push under loss and churn.

The zoo is push-dominated, so every protocol degrades the same way under
adversity: a dropped payload is gone forever, and the paper's only remedy
is "push harder" (a bigger fanout).  The two-phase recovery protocols —
:class:`~repro.protocols.lazy_push.LazyPushProtocol` (eager push, then
IHAVE/IWANT repair) and
:class:`~repro.protocols.anti_entropy.AntiEntropyProtocol` (push-pull
reconciliation) — detect gaps and repair them instead.  This experiment
makes the headline claim measurable: it sweeps the zoo **plus** both
recovery protocols over a grid of loss channels × per-round churn rates
through the batched engines, and reports per cell:

* mean/std **reliability among survivors** (the churn-safe denominator;
  identical to plain reliability for churn-free cells),
* the **payload / control message split** per member — the accounting that
  makes the cost comparison honest: digests, IHAVEs, IWANTs and pull
  requests are control traffic, and only ``messages - control`` carried
  the payload,
* the realised drop rate and the atomic-among-survivors rate.

The loss axis mixes two channels: i.i.d. Bernoulli columns
(:class:`~repro.simulation.network.NetworkModel`) and one **bursty**
Gilbert–Elliott column
(:class:`~repro.simulation.network.GilbertElliottNetworkModel`, a two-state
good/bad Markov chain) whose stationary mean drop rate sits between the
i.i.d. columns — correlated bursts are the regime where recovery should
shine hardest, because a burst wipes out whole push waves while a later
digest still finds the gap.  One extra **targeted-crash** row per protocol
runs the highest i.i.d. loss column under
:class:`~repro.simulation.failures.TargetedCrashModel` (an engineered
block of crashed members instead of uniform draws), exercising the batched
targeted-failure path end-to-end.

:meth:`RecoveryResilienceResult.check_shape` pins the claims: at the
highest i.i.d. loss column, **both recovery protocols are at least as
reliable as every pure-push protocol while sending fewer payload messages
per member**; drop rates are calibrated (the bursty column against its
stationary mean); and reliability never improves with churn.  The cells
run through :func:`repro.experiments.grid.run_grid`.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.experiments.grid import Cell, GridResult, drop_rate, mean_std, run_grid
from repro.experiments.protocol_comparison import protocol_zoo
from repro.protocols.base import Protocol
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.failures import TargetedCrashModel
from repro.simulation.network import GilbertElliottNetworkModel, NetworkModel
from repro.simulation.protocol_batch import BatchProtocolResult
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "RecoveryResilienceConfig",
    "RecoveryPoint",
    "RecoveryResilienceResult",
    "run_recovery_resilience",
    "PURE_PUSH_PROTOCOLS",
    "RECOVERY_PROTOCOLS",
]

EXPERIMENT_ID = "recovery_resilience"
PAPER_REFERENCE = (
    "Sec. 2/3 beyond the paper — two-phase recovery (lazy-push IHAVE/IWANT, "
    "anti-entropy) vs the pure-push zoo under i.i.d. + bursty loss, churn and "
    "targeted crashes, with payload/control cost accounting"
)

#: Protocols with no repair leg whatsoever: every payload transmission is a
#: blind push, so a dropped message is lost for good.  The headline claim is
#: checked against exactly this set.
PURE_PUSH_PROTOCOLS = ("flooding", "lpbcast", "fixed-fanout", "random-fanout")

#: The two-phase recovery rows under test.
RECOVERY_PROTOCOLS = ("lazy-push", "anti-entropy")


@dataclass(frozen=True)
class RecoveryResilienceConfig:
    """Configuration of the recovery-resilience sweep.

    Attributes
    ----------
    n:
        Group size.
    q:
        Nonfailed ratio of the uniform-crash rows (single value — loss and
        churn are the axes under study).
    loss_probabilities:
        I.i.d. per-message drop probabilities to sweep (the ``"iid"``
        channel columns).  The headline comparison is pinned at the highest.
    burst_loss_good, burst_loss_bad, burst_good_to_bad, burst_bad_to_good:
        Parameters of the single ``"burst"`` Gilbert–Elliott column: drop
        rates of the good/bad states and the Markov transition
        probabilities.  The defaults give a stationary mean drop rate of
        0.2375 with pronounced bursts (bad state loses 80% of messages).
    churn_rates:
        Per-round leave hazards to sweep; each nonzero rate builds a
        :class:`~repro.simulation.churn.PoissonChurnModel` with
        ``leave_rate = join_rate = rate``.
    initially_absent:
        Join-pool fraction of the nonzero-churn models.
    targeted_fraction:
        Fraction of the group crashed as one engineered block (members
        ``1..k``, ``k = round(targeted_fraction * n) >= 1``) in the
        targeted-crash rows, which run the highest i.i.d. loss column at
        churn 0.
    mean_fanout:
        Per-member effort budget (push fanout / overlay degree / lazy-push
        eager+IHAVE fanout; anti-entropy reconciles with half of it).
    rounds:
        Round horizon of the periodic protocols.  Recovery needs rounds to
        act in, so this sweep defaults higher than the push-only sweeps.
    repetitions:
        Independent executions per grid cell.
    seed:
        Base seed; every cell derives an independent stream.
    processes:
        Worker processes (``None``: all cores but one).  Each cell runs as
        one seeded batch, so the pool size never changes the numbers.
    """

    n: int = 1000
    q: float = 0.9
    loss_probabilities: tuple = (0.0, 0.15, 0.4)
    burst_loss_good: float = 0.05
    burst_loss_bad: float = 0.8
    burst_good_to_bad: float = 0.1
    burst_bad_to_good: float = 0.3
    churn_rates: tuple = (0.0, 0.05)
    initially_absent: float = 0.1
    targeted_fraction: float = 0.1
    mean_fanout: int = 4
    rounds: int = 16
    repetitions: int = 48
    seed: int = 20082011
    processes: int | None = 1

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        check_probability("q", self.q)
        if not self.loss_probabilities:
            raise ValueError("loss_probabilities must be non-empty")
        for loss in self.loss_probabilities:
            check_probability("loss_probability", loss)
        check_probability("burst_loss_good", self.burst_loss_good)
        check_probability("burst_loss_bad", self.burst_loss_bad)
        check_probability("burst_good_to_bad", self.burst_good_to_bad)
        check_probability("burst_bad_to_good", self.burst_bad_to_good)
        if not self.churn_rates:
            raise ValueError("churn_rates must be non-empty")
        for rate in self.churn_rates:
            check_probability("churn_rate", rate, allow_one=False)
        check_probability("initially_absent", self.initially_absent)
        check_probability("targeted_fraction", self.targeted_fraction, allow_one=False)
        if round(self.targeted_fraction * self.n) < 1:
            raise ValueError(
                f"targeted_fraction={self.targeted_fraction} crashes no member of "
                f"n={self.n}; the targeted-crash rows need at least one"
            )
        check_integer("mean_fanout", self.mean_fanout, minimum=1)
        check_integer("rounds", self.rounds, minimum=1)
        check_integer("repetitions", self.repetitions, minimum=1)

    def protocols(self) -> tuple:
        """Return the zoo plus the two recovery rows at equal fanout budget."""
        return protocol_zoo(self.mean_fanout, self.rounds, include_recovery=True)

    def channels(self) -> tuple:
        """Return the loss-channel columns as plain-value specs.

        Each spec is ``("iid", p)`` or
        ``("burst", good, bad, good_to_bad, bad_to_good)``; every cell
        builds its own network model from its spec.
        """
        columns = tuple(("iid", float(p)) for p in self.loss_probabilities)
        columns += (
            (
                "burst",
                float(self.burst_loss_good),
                float(self.burst_loss_bad),
                float(self.burst_good_to_bad),
                float(self.burst_bad_to_good),
            ),
        )
        return columns

    def burst_mean_loss(self) -> float:
        """Return the stationary mean drop rate of the bursty column."""
        return GilbertElliottNetworkModel(
            loss_probability=self.burst_loss_good,
            bad_loss_probability=self.burst_loss_bad,
            p_good_to_bad=self.burst_good_to_bad,
            p_bad_to_good=self.burst_bad_to_good,
        ).mean_loss_probability()

    def with_scale(self, factor: float) -> "RecoveryResilienceConfig":
        """Return a shrunken copy for quick runs (CLI ``--scale``)."""
        if not 0.0 < factor <= 1.0:
            raise ValueError(f"scale factor must be in (0, 1], got {factor}")
        if factor >= 0.999:
            return self
        return replace(
            self,
            n=max(200, int(self.n * factor)),
            repetitions=max(24, int(self.repetitions * factor)),
        )


def _build_network(channel: tuple) -> NetworkModel:
    """Instantiate the network model of one channel spec."""
    if channel[0] == "iid":
        return NetworkModel(loss_probability=channel[1])
    _, good, bad, good_to_bad, bad_to_good = channel
    return GilbertElliottNetworkModel(
        loss_probability=good,
        bad_loss_probability=bad,
        p_good_to_bad=good_to_bad,
        p_bad_to_good=bad_to_good,
    )


@dataclass(frozen=True)
class RecoveryPoint:
    """Measurements of one ``(protocol, channel, churn_rate, failure)`` cell."""

    protocol: str
    channel: str
    loss: float
    churn_rate: float
    failure: str
    repetitions: int
    reliability: float
    reliability_std: float
    survivor_fraction: float
    messages_per_member: float
    payload_per_member: float
    control_per_member: float
    drop_rate: float
    atomic_rate: float


@dataclass(frozen=True)
class RecoveryResilienceResult(GridResult[RecoveryResilienceConfig, RecoveryPoint]):
    """Result of the recovery-resilience sweep."""

    COLUMNS = (
        ("protocol", "protocol"),
        ("channel", "channel"),
        ("loss", "loss"),
        ("churn", "churn_rate"),
        ("failure", "failure"),
        ("reps", "repetitions"),
        ("reliability", "reliability"),
        ("std", "reliability_std"),
        ("survivors", "survivor_fraction"),
        ("payload/member", "payload_per_member"),
        ("control/member", "control_per_member"),
        ("drop rate", "drop_rate"),
        ("atomic", "atomic_rate"),
    )

    def point(
        self,
        protocol: str,
        channel: str,
        loss: float,
        churn_rate: float,
        failure: str = "uniform",
    ) -> RecoveryPoint:
        """Return one cell; raise ``KeyError`` if absent."""
        return self._point(
            protocol=protocol, channel=channel, loss=loss, churn_rate=churn_rate, failure=failure
        )

    def series_for(self, protocol: str, channel: str, loss: float) -> list[RecoveryPoint]:
        """Return one uniform-failure churn series of a column, ordered by rate."""
        return self._series(
            "churn_rate", protocol=protocol, channel=channel, loss=loss, failure="uniform"
        )

    def check_shape(
        self, *, tolerance: float = 0.03, payload_slack: float = 1.05
    ) -> list[str]:
        """Check the qualitative recovery-resilience claims.

        1. **The headline**: at the highest i.i.d. loss column (churn-free
           and targeted-crash rows), every recovery protocol is at least as
           reliable (within Monte-Carlo ``tolerance``) as every pure-push
           protocol while sending no more payload messages per member
           (within ``payload_slack``).  Churned cells are excluded: a
           subcritical push protocol that dies early *appears* cheap, so the
           payload comparison only means something between runs that
           actually disseminated.
        2. Drop rates are calibrated: i.i.d. columns track their requested
           probability exactly; the bursty column is only bounded by its
           good/bad state rates — the realised average is legitimately
           state-weighted (replicas whose chain lingers in the good state
           deliver, and therefore send, more messages).
        3. Reliability never *increases* with churn beyond slack, on the
           i.i.d. columns (the bursty column is bimodal and too noisy for a
           monotonicity pin at experiment scale).
        4. On the bursty column both recovery protocols stay supercritical.
        """
        problems: list[str] = []
        top_loss = max(self.config.loss_probabilities)

        def compare(recovery: RecoveryPoint, push: RecoveryPoint, label: str) -> None:
            if recovery.reliability < push.reliability - tolerance:
                problems.append(
                    f"{label}: {recovery.protocol} reliability "
                    f"{recovery.reliability:.4f} below pure-push {push.protocol} "
                    f"{push.reliability:.4f}"
                )
            if recovery.payload_per_member > push.payload_per_member * payload_slack:
                problems.append(
                    f"{label}: {recovery.protocol} payload cost "
                    f"{recovery.payload_per_member:.2f}/member exceeds pure-push "
                    f"{push.protocol} {push.payload_per_member:.2f}/member"
                )

        for recovery_id in RECOVERY_PROTOCOLS:
            for push_id in PURE_PUSH_PROTOCOLS:
                for failure in ("uniform", "targeted"):
                    try:
                        recovery = self.point(recovery_id, "iid", top_loss, 0.0, failure)
                        push = self.point(push_id, "iid", top_loss, 0.0, failure)
                    except KeyError:
                        continue
                    compare(recovery, push, f"loss={top_loss} {failure}")

        burst_mean = self.config.burst_mean_loss()
        for p in self.points:
            if p.channel == "burst":
                lo = min(self.config.burst_loss_good, self.config.burst_loss_bad)
                hi = max(self.config.burst_loss_good, self.config.burst_loss_bad)
                if not lo - 0.03 <= p.drop_rate <= hi + 0.03:
                    problems.append(
                        f"{p.protocol} burst churn={p.churn_rate}: realised drop "
                        f"rate {p.drop_rate:.4f} outside the state rates "
                        f"[{lo:.2f}, {hi:.2f}]"
                    )
                continue
            if p.loss == 0.0:
                if p.drop_rate != 0.0:
                    problems.append(
                        f"{p.protocol} churn={p.churn_rate}: drops at loss 0 "
                        f"(drop rate {p.drop_rate:.4f})"
                    )
                continue
            slack = max(0.03, 0.25 * p.loss)
            if abs(p.drop_rate - p.loss) > slack:
                problems.append(
                    f"{p.protocol} iid loss={p.loss} churn={p.churn_rate} "
                    f"failure={p.failure}: realised drop rate {p.drop_rate:.4f} "
                    f"off the nominal {p.loss:.4f}"
                )

        for protocol in self.protocols():
            for loss in self.config.loss_probabilities:
                series = self.series_for(protocol, "iid", loss)
                for lo, hi in zip(series, series[1:], strict=False):
                    if hi.reliability > lo.reliability + 2 * tolerance:
                        problems.append(
                            f"{protocol} iid loss={loss:.4f}: reliability rises "
                            f"from {lo.reliability:.4f} (rate={lo.churn_rate}) "
                            f"to {hi.reliability:.4f} (rate={hi.churn_rate})"
                        )

        for recovery_id in RECOVERY_PROTOCOLS:
            for churn_rate in self.config.churn_rates:
                try:
                    p = self.point(recovery_id, "burst", burst_mean, churn_rate)
                except KeyError:
                    continue
                if p.reliability < 0.9:
                    problems.append(
                        f"{recovery_id} burst churn={churn_rate}: reliability "
                        f"{p.reliability:.4f} not supercritical on the bursty column"
                    )
        return problems


def _cell(
    config: RecoveryResilienceConfig,
    protocol_id: str,
    protocol: Protocol,
    channel: tuple,
    churn_rate: float,
    targeted: float = 0.0,
) -> Cell:
    """Build one cell; ``targeted > 0`` crashes members ``1..k`` as one block."""
    churn = (
        PoissonChurnModel(
            leave_rate=churn_rate, join_rate=churn_rate, initially_absent=config.initially_absent
        )
        if churn_rate > 0.0
        else PoissonChurnModel()
    )
    failure_model: TargetedCrashModel | None = None
    failure = "uniform"
    if targeted > 0.0:
        # The source (member 0) never fails.
        failure_model = TargetedCrashModel(
            failed=tuple(range(1, 1 + int(round(targeted * config.n))))
        )
        failure = "targeted"
    loss = config.burst_mean_loss() if channel[0] == "burst" else float(channel[1])
    return Cell(
        protocol_id,
        protocol,
        float(config.q),
        key=(channel[0], loss, float(churn_rate), failure),
        network=_build_network(channel),
        churn=churn,
        failure_model=failure_model,
    )


def _point(
    config: RecoveryResilienceConfig, cell: Cell, result: BatchProtocolResult
) -> RecoveryPoint:
    channel, loss, churn_rate, failure = cell.key
    reliability = result.reliability_among_survivors()
    mean, std = mean_std(reliability)
    return RecoveryPoint(
        protocol=cell.protocol_id,
        channel=channel,
        loss=loss,
        churn_rate=churn_rate,
        failure=failure,
        repetitions=config.repetitions,
        reliability=mean,
        reliability_std=std,
        survivor_fraction=float(result.survivor_fraction().mean()),
        messages_per_member=float(result.messages_per_member().mean()),
        payload_per_member=float(result.payload_messages_per_member().mean()),
        control_per_member=float(result.control_messages_per_member().mean()),
        drop_rate=drop_rate(result),
        atomic_rate=float((reliability >= 1.0 - 1e-12).mean()),
    )


def run_recovery_resilience(
    config: RecoveryResilienceConfig | None = None,
) -> RecoveryResilienceResult:
    """Run the sweep over the ``(protocol, channel, churn_rate [, targeted])`` grid."""
    config = config or RecoveryResilienceConfig()
    top_loss = max(config.loss_probabilities)
    # Uniform crashes over every (channel, churn_rate) cell, plus one
    # targeted-crash row per protocol at the highest i.i.d. loss column.
    cells = []
    for protocol_id, protocol in config.protocols():
        for channel in config.channels():
            for rate in config.churn_rates:
                cells.append(_cell(config, protocol_id, protocol, channel, rate))
        cells.append(
            _cell(config, protocol_id, protocol, ("iid", top_loss), 0.0, config.targeted_fraction)
        )
    return RecoveryResilienceResult(config, run_grid(config, cells, _point))
