"""Loss-aware auto-dimensioning: invert the reliability surface.

The paper's forward direction is well covered by this repository: given a
group size ``n``, a fanout distribution ``P`` and a nonfailed ratio ``q``,
Eqs. 3-4 (and Eq. 11 for the Poisson case) predict the reliability of
gossiping, and the batched Monte-Carlo engines measure it.  The *practical*
question a deployment asks runs the other way: **given a crash budget and a
message-loss budget, how small can the mean fanout (and, for round-based
protocols, the round horizon) be while still hitting a target reliability?**

:func:`dimension_fanout` answers that question by wrapping the fast batched
estimators inside an outer monotone search (the cluster-method Monte-Carlo
precedent: a cheap ensemble estimator inside a parameter scan):

1. **Analytic bracket seeding.**  The generating-function curve is monotone
   in the mean fanout, so :func:`analytic_required_fanout` inverts it by
   bisection (closed form Eq. 12 for Poisson).  Message loss is folded in as
   *effective-fanout thinning*: a fanout-``f`` member whose messages are
   each dropped independently with probability ``p`` contributes like a
   fanout-``f(1-p)`` member, exactly for Poisson (a thinned Poisson is
   Poisson) and as a bracket-quality approximation otherwise.
2. **Confidence-aware Monte-Carlo bisection.**  Each candidate fanout is
   judged by an adaptive feasibility oracle over the batched engines
   (:func:`~repro.simulation.gossip.simulate_gossip_batch` for a fanout
   distribution, :func:`~repro.simulation.protocol_batch.simulate_protocol_batch`
   for a protocol): replicas are added in doubling blocks until a Wilson
   score interval on the mean replica reliability clears the target on
   either side — so the replica budget concentrates near the decision
   boundary instead of being burnt on clear-cut candidates.  *Feasible
   means certifiable*: a candidate passes only when the Wilson lower bound
   reaches the target, so the fanout the bisection converges to carries its
   confidence certificate by construction.  The Wilson interval is
   *conservative* here: each replica reliability lives in ``[0, 1]``, and
   among ``[0, 1]`` random variables with a given mean the Bernoulli
   maximises the variance, so a binomial interval on the replica means can
   only over-cover.
3. **Minimal rounds (protocol mode).**  Round-based protocols (pbcast,
   lpbcast, RDG) are monotone in their round horizon, so once the minimal
   fanout is known an integer bisection over rounds finds the smallest
   horizon that still meets the target.

:func:`dimension_pareto` generalises the lexicographic protocol-mode answer
(minimal fanout, then minimal rounds at that fanout) to the **joint**
``(fanout, rounds)`` trade-off: it returns the full Pareto frontier of
non-dominated feasible pairs plus the cost-aware pick (minimal measured
payload messages per member subject to ``ci_low >= target``), so a deployment
that cares about latency (rounds) and one that cares about bandwidth
(messages) read their answer off the same solve.

.. _loss-semantics:

Loss semantics (the contract)
-----------------------------
``loss`` means the same thing everywhere in this module: an **independent
per-message (per-leg) Bernoulli drop probability**, applied by the engines'
:class:`~repro.simulation.network.NetworkModel` plane to every point-to-point
send.  :func:`dimension_fanout` and :func:`dimension_pareto` measure every
candidate with those per-message semantics (cross-checked at ``p = 0.25`` in
``tests/analysis/test_dimensioning.py``, which also holds the solver to a
dense-grid walk over the same evaluator, ``tests/reference/dimensioning_grid.py``).

*Effective-fanout thinning* — treating a fanout-``f`` member under loss ``p``
like a fanout-``f(1-p)`` member on a loss-free network — appears **only** in
the analytic bracket seed (:func:`analytic_required_fanout`).  For a Poisson
fanout the two views coincide exactly (an independently thinned Poisson is
Poisson); for every other family thinning is a bracket-quality approximation
that the Monte-Carlo refinement then corrects under the true per-message
semantics.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence, TypeAlias, TypeVar

import numpy as np

from repro.core.distributions import FanoutDistribution, PoissonFanout
from repro.core.poisson_case import mean_fanout_for_reliability
from repro.core.reliability import reliability as analytical_reliability
from repro.protocols.base import Protocol
from repro.simulation.failures import FailureModel
from repro.simulation.gossip import simulate_gossip_batch
from repro.simulation.network import NetworkModel
from repro.simulation.protocol_batch import simulate_protocol_batch
from repro.utils.numerics import ndtri
from repro.utils.rng import SeedLike, as_generator, spawn_seeds
from repro.utils.validation import check_integer, check_probability

_T = TypeVar("_T")

#: Oracle sampler: ``(fanout, rounds, repetitions, seed)`` to per-replica
#: reliabilities and per-replica messages per member.
_EvaluateBatch: TypeAlias = (
    "Callable[[float, int | None, int, SeedLike], tuple[np.ndarray, np.ndarray]]"
)

#: Protocol-mode candidate builder: ``(fanout, rounds)`` to a protocol.
_ProtocolFactory: TypeAlias = "Callable[[int, int], Protocol]"

__all__ = [
    "wilson_z",
    "wilson_floor",
    "wilson_interval",
    "analytic_required_fanout",
    "DimensioningResult",
    "dimension_fanout",
    "pareto_frontier",
    "ParetoCandidate",
    "ParetoDimensioningResult",
    "dimension_pareto",
]


def wilson_z(confidence: float) -> float:
    """Return the normal quantile ``z`` of a two-sided ``confidence`` Wilson interval.

    Raises ``ValueError`` for a confidence outside ``(0, 1)``, and for one so
    close to 1 that ``0.5 + confidence / 2`` rounds to 1: there ``z`` is
    infinite, so every interval is ``[0, 1]`` and nothing can be certified.

    >>> round(wilson_z(0.95), 6)
    1.959964
    """
    confidence = check_probability("confidence", confidence, allow_zero=False, allow_one=False)
    z = ndtri(0.5 + confidence / 2.0)
    if math.isinf(z):
        raise ValueError(f"confidence {confidence!r} has an infinite normal quantile")
    return z


def wilson_floor(target: float, confidence: float) -> int:
    """Return the Wilson feasibility floor ``ceil(z² · target / (1 - target))``.

    Below that many replicas even a perfect sample cannot certify ``target``
    (the Wilson lower bound of an all-ones sample of ``R`` is
    ``1 / (1 + z²/R)``).
    """
    z = wilson_z(confidence)
    return int(math.ceil(z * z * target / (1.0 - target)))


def wilson_interval(successes: float, trials: int, confidence: float) -> tuple[float, float]:
    """Return the Wilson score interval for a proportion.

    Parameters
    ----------
    successes:
        Number of successes.  Fractional values are accepted: the solver
        feeds the *sum of replica reliabilities* (each in ``[0, 1]``), for
        which the binomial interval is conservative because the Bernoulli
        maximises the variance of a ``[0, 1]`` variable at fixed mean.
    trials:
        Number of independent observations.
    confidence:
        Two-sided coverage, e.g. ``0.95``.
    """
    trials = check_integer("trials", trials, minimum=1)
    z = wilson_z(confidence)
    if not 0.0 <= successes <= trials:
        raise ValueError(f"successes must be in [0, {trials}], got {successes!r}")
    p_hat = successes / trials
    denom = 1.0 + z * z / trials
    centre = (p_hat + z * z / (2.0 * trials)) / denom
    half = (z / denom) * math.sqrt(p_hat * (1.0 - p_hat) / trials + z * z / (4.0 * trials * trials))
    return (max(0.0, centre - half), min(1.0, centre + half))


def analytic_required_fanout(
    target_reliability: float,
    q: float,
    *,
    loss: float = 0.0,
    distribution_factory: Callable[[float], FanoutDistribution] = PoissonFanout,
    tol: float = 1e-6,
    max_fanout: float = 512.0,
) -> float:
    """Invert the analytical reliability curve: minimal mean fanout for a target.

    Message loss is folded in as effective-fanout thinning: the returned
    fanout ``f`` satisfies ``R(q, P(f · (1 - loss))) >= target_reliability``
    on the Eqs. 3-4 curve.  For :class:`~repro.core.distributions.PoissonFanout`
    this is Eq. 12 divided by ``(1 - loss)`` (thinning a Poisson is exact);
    for any other family the monotone curve is bisected numerically.  This is
    the *only* place loss enters as thinning — the Monte-Carlo solvers measure
    candidates under true per-message Bernoulli drops (see :ref:`the loss
    contract <loss-semantics>` in the module docstring).

    Raises ``ValueError`` when the target is unreachable below ``max_fanout``
    (e.g. ``q = 0`` or ``loss = 1``).
    """
    target_reliability = check_probability(
        "target_reliability", target_reliability, allow_zero=False, allow_one=False
    )
    q = check_probability("q", q)
    loss = check_probability("loss", loss)
    if q <= 0.0 or loss >= 1.0:
        raise ValueError(
            f"target reliability {target_reliability} is unreachable at q={q}, loss={loss}"
        )
    keep = 1.0 - loss
    if distribution_factory is PoissonFanout:
        return mean_fanout_for_reliability(target_reliability, q) / keep

    def achieved(f: float) -> float:
        return analytical_reliability(distribution_factory(f * keep), q)

    lo, hi = 1e-9, max(2.0 / (q * keep), 2.0)
    while achieved(hi) < target_reliability:
        hi *= 2.0
        if hi > max_fanout:
            raise ValueError(
                f"target reliability {target_reliability} not reachable below "
                f"mean fanout {max_fanout} at q={q}, loss={loss}"
            )
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if achieved(mid) >= target_reliability:
            hi = mid
        else:
            lo = mid
    return hi


@dataclass(frozen=True)
class DimensioningResult:
    """Output of one auto-dimensioning solve.

    Attributes
    ----------
    n, q, target_reliability, loss, confidence:
        The problem as posed.
    fanout:
        Minimal mean fanout meeting the target (the smallest candidate the
        oracle judged feasible; an upper bracket endpoint within
        ``fanout_tol`` of the true boundary).  Integer-valued in protocol
        mode.
    rounds:
        Minimal round horizon at ``fanout`` (protocol mode with
        ``solve_rounds=True``), else ``None``.
    analytical_fanout:
        The loss-thinned Eqs. 3-4 seed the Monte-Carlo search started from.
    achieved_reliability:
        Mean replica reliability measured at ``fanout`` (the accepted
        decision's estimate).
    ci_low, ci_high:
        Wilson interval of ``achieved_reliability`` at the stated confidence.
    replicas_used:
        Total Monte-Carlo replicas consumed across the whole solve: the
        solve's statistical cost, which unlike its run time does not depend
        on the machine.
    evaluations:
        Number of candidate ``(fanout, rounds)`` points simulated.
    feasible:
        False when even the largest allowed fanout missed the target; then
        ``fanout`` is that cap and the achieved fields describe it.
    certified:
        True when the final decision at ``fanout`` was settled by the Wilson
        interval itself.  Feasible results are certified by construction
        (feasibility *means* ``ci_low >= target``); an infeasible result is
        certified when the last probe's upper bound fell below the target,
        and uncertified when it merely failed to demonstrate the target
        within the replica budget.
    """

    n: int
    q: float
    target_reliability: float
    loss: float
    confidence: float
    fanout: float
    rounds: int | None
    analytical_fanout: float
    achieved_reliability: float
    ci_low: float
    ci_high: float
    replicas_used: int
    evaluations: int
    feasible: bool
    certified: bool = True


class _FeasibilityOracle:
    """Adaptive Monte-Carlo feasibility decisions with Wilson-interval stopping.

    One oracle instance serves a whole solve: it owns the replica budget
    accounting (``replicas_used`` / ``evaluations``) and a base generator
    from which every evaluation draws an independent child seed, so the
    solve is reproducible regardless of the order candidates are probed in.
    """

    def __init__(
        self,
        evaluate_batch: _EvaluateBatch,
        *,
        target: float,
        confidence: float,
        initial_replicas: int,
        max_replicas: int,
        rng: np.random.Generator,
    ) -> None:
        self._evaluate_batch = evaluate_batch
        self.target = target
        self.confidence = confidence
        self.initial_replicas = initial_replicas
        self.max_replicas = max_replicas
        self._rng = rng
        self.replicas_used = 0
        self.evaluations = 0
        #: Mean messages per member over the replicas of the most recent
        #: decision (NaN before the first).
        self.last_cost = math.nan

    def decide(self, fanout: float, rounds: int | None) -> tuple[bool, float, float, float, bool]:
        """Judge one candidate: returns ``(feasible, mean, ci_low, ci_high, decisive)``.

        Replicas are drawn in doubling blocks until the Wilson interval of
        the mean replica reliability clears the target on either side, or
        the per-candidate budget ``max_replicas`` is exhausted.  *Feasible
        means certifiable*: the candidate passes only when the Wilson lower
        bound reaches the target — so the answer the outer bisection
        converges to carries its confidence certificate by construction.  A
        candidate that exhausts the budget without certifying is judged
        infeasible with ``decisive=False`` (its true reliability may sit
        just above the target, but not far enough above to *demonstrate* at
        this confidence and budget; the solver then correctly moves to a
        larger fanout, where the margin widens and certification is cheap).

        Far-from-boundary candidates exit on the first block or two; only
        the certifiability twilight burns the full budget.
        """
        self.evaluations += 1
        samples = np.empty(0, dtype=float)
        costs = np.empty(0, dtype=float)
        block = self.initial_replicas
        while True:
            block = min(block, self.max_replicas - samples.size)
            seed = spawn_seeds(1, self._rng)[0]
            new, cost_block = self._evaluate_batch(fanout, rounds, block, seed)
            costs = np.concatenate([costs, np.asarray(cost_block, dtype=float)])
            self.last_cost = float(costs.mean())
            self.replicas_used += block
            samples = np.concatenate([samples, np.asarray(new, dtype=float)])
            mean = float(samples.mean())
            lo, hi = wilson_interval(float(samples.sum()), samples.size, self.confidence)
            if lo >= self.target:
                return True, mean, lo, hi, True
            if hi < self.target:
                return False, mean, lo, hi, True
            if samples.size >= self.max_replicas:
                return False, mean, lo, hi, False
            block = samples.size  # double the sample on the next pass


def _gossip_evaluator(
    n: int,
    q: float,
    loss: float,
    distribution_factory: Callable[[float], FanoutDistribution],
    conditional_on_spread: bool,
) -> _EvaluateBatch:
    """Return the batched-gossip-engine sampler for the oracle.

    Its costs are messages sent per member, the cost a surface cell reports.
    """

    def evaluate(
        fanout: float, rounds: int | None, repetitions: int, seed: SeedLike
    ) -> tuple[np.ndarray, np.ndarray]:
        network = NetworkModel(loss_probability=loss) if loss > 0.0 else None
        result = simulate_gossip_batch(
            n,
            distribution_factory(float(fanout)),
            q,
            repetitions=repetitions,
            seed=seed,
            network=network,
        )
        reliability = result.reliability()
        if conditional_on_spread:
            spread = result.spread_occurred()
            # A replica that never took off counts as reliability 0: the
            # conditional mean would reward die-outs by dropping them, but a
            # *dimensioned* deployment must also take off reliably, so the
            # oracle charges failures-to-spread against the target.
            reliability = np.where(spread, reliability, 0.0)
        return reliability, result.messages_sent / n

    return evaluate


def _protocol_evaluator(
    n: int,
    q: float,
    loss: float,
    protocol_factory: _ProtocolFactory,
    failure_model: FailureModel | None,
) -> _EvaluateBatch:
    """Return the batched-protocol-engine sampler for the oracle.

    Its costs are payload messages per member, so the oracle's ``last_cost``
    after a decision is the measured bandwidth price of the candidate: the
    objective :func:`dimension_pareto` minimises.
    """

    def evaluate(
        fanout: float, rounds: int | None, repetitions: int, seed: SeedLike
    ) -> tuple[np.ndarray, np.ndarray]:
        assert rounds is not None  # protocol mode always carries a horizon
        protocol = protocol_factory(int(round(fanout)), int(rounds))
        network = NetworkModel(loss_probability=loss) if loss > 0.0 else None
        result = simulate_protocol_batch(
            protocol,
            n,
            q,
            repetitions=repetitions,
            seed=seed,
            failure_model=failure_model,
            network=network,
        )
        return result.reliability(), result.payload_messages_per_member()

    return evaluate


def dimension_fanout(
    n: int,
    q: float,
    target_reliability: float,
    *,
    loss: float = 0.0,
    distribution_factory: Callable[[float], FanoutDistribution] = PoissonFanout,
    protocol_factory: _ProtocolFactory | None = None,
    rounds: int = 8,
    solve_rounds: bool = False,
    failure_model: FailureModel | None = None,
    confidence: float = 0.95,
    fanout_tol: float = 0.25,
    initial_replicas: int = 24,
    max_replicas: int = 96,
    max_fanout: float = 64.0,
    conditional_on_spread: bool = False,
    seed: SeedLike = None,
) -> DimensioningResult:
    """Return the minimal mean fanout meeting a reliability target.

    Two modes share one search:

    * **Distribution mode** (default): candidates are real-valued mean
      fanouts of ``distribution_factory`` and the oracle samples the batched
      gossip engine.  The answer is located to within ``fanout_tol``.
    * **Protocol mode** (``protocol_factory`` given): candidates are integer
      fanouts; ``protocol_factory(fanout, rounds)`` must build the protocol
      instance and the oracle samples the batched multi-protocol engine.
      With ``solve_rounds=True`` the minimal round horizon at the solved
      fanout is found afterwards by integer bisection (round-based protocols
      are monotone in their horizon).

    Parameters
    ----------
    n, q:
        Group size and nonfailed ratio of the deployment.
    target_reliability:
        Required expected fraction of nonfailed members reached, in (0, 1).
    loss:
        Independent per-message (per-leg) Bernoulli drop probability — the
        loss budget, with the semantics fixed by :ref:`the loss contract
        <loss-semantics>`: the Monte-Carlo refinement applies it to every
        send through the engines' vectorised
        :class:`~repro.simulation.network.NetworkModel` plane, while the
        analytic seed folds it in as effective-fanout thinning ``f(1-loss)``.
    failure_model:
        Optional :class:`~repro.simulation.failures.FailureModel` overriding
        the uniform-``q`` crash draw (protocol mode only).
    confidence:
        Coverage of the Wilson feasibility decisions; the returned
        ``ci_low`` at the accepted fanout is a one-sided certificate that
        the target holds at (at least) this confidence.
    fanout_tol:
        Bracket width at which the continuous bisection stops (distribution
        mode; protocol mode always resolves to an exact integer).
    initial_replicas, max_replicas:
        Replica budget per feasibility decision: the first block and the
        adaptive cap (doubling blocks in between).  The cap is raised
        automatically to the Wilson feasibility floor
        ``z² · target / (1 - target)`` — below that many replicas even a
        perfect sample cannot certify the target, so a smaller cap would
        make every candidate "infeasible".
    max_fanout:
        Search cap; if even this fanout misses the target the result is
        returned with ``feasible=False``.
    conditional_on_spread:
        When True, a gossip replica that never took off is charged as
        reliability 0 instead of its raw (tiny) delivered fraction — the
        bimodality convention of the Figs. 4-5 reproduction, recast
        conservatively for dimensioning.
    seed:
        Seed or generator for the whole solve.
    """
    n = check_integer("n", n, minimum=2)
    q = check_probability("q", q)
    target_reliability = check_probability(
        "target_reliability", target_reliability, allow_zero=False, allow_one=False
    )
    loss = check_probability("loss", loss)
    check_integer("rounds", rounds, minimum=1)
    check_integer("initial_replicas", initial_replicas, minimum=2)
    check_integer("max_replicas", max_replicas, minimum=initial_replicas)
    if fanout_tol <= 0:
        raise ValueError(f"fanout_tol must be positive, got {fanout_tol}")
    rng = as_generator(seed)

    # Below the Wilson floor even a perfect sample cannot certify the target,
    # so the per-decision cap is raised to it.
    floor = wilson_floor(target_reliability, confidence)
    max_replicas = max(max_replicas, floor + initial_replicas)

    seed_fanout = analytic_required_fanout(
        target_reliability,
        q,
        loss=loss,
        distribution_factory=(
            distribution_factory if protocol_factory is None else PoissonFanout
        ),
        max_fanout=max(max_fanout * 8.0, 512.0),
    )

    if protocol_factory is None:
        evaluate = _gossip_evaluator(n, q, loss, distribution_factory, conditional_on_spread)
    else:
        evaluate = _protocol_evaluator(n, q, loss, protocol_factory, failure_model)
    oracle = _FeasibilityOracle(
        evaluate,
        target=target_reliability,
        confidence=confidence,
        initial_replicas=initial_replicas,
        max_replicas=max_replicas,
        rng=rng,
    )

    integer_mode = protocol_factory is not None
    min_fanout = 1.0 if integer_mode else max(1e-3, 1.0 / max(q * (1.0 - loss), 1e-9) * 0.5)

    def as_candidate(f: float) -> float:
        return float(max(1, int(math.ceil(f - 1e-9)))) if integer_mode else float(f)

    def next_down(f: float) -> float | None:
        """Return the next smaller probe below ``f``, or None at the floor."""
        if f <= min_fanout + 1e-12:
            return None
        if integer_mode:
            candidate = max(1.0, float(int(f / 1.5)))
            return candidate if candidate < f else f - 1.0
        return max(f / 1.5, min_fanout)

    # --- bracket: find a verified-feasible hi and a verified-infeasible lo.
    hi = as_candidate(min(max(seed_fanout, min_fanout), max_fanout))
    lo: float | None = None  # largest fanout verified infeasible (if any)
    hi_stats = oracle.decide(hi, rounds)
    while not hi_stats[0]:
        if hi >= max_fanout:
            return DimensioningResult(
                n=n,
                q=q,
                target_reliability=target_reliability,
                loss=loss,
                confidence=confidence,
                fanout=hi,
                rounds=rounds if (integer_mode and solve_rounds) else None,
                analytical_fanout=seed_fanout,
                achieved_reliability=hi_stats[1],
                ci_low=hi_stats[2],
                ci_high=hi_stats[3],
                replicas_used=oracle.replicas_used,
                evaluations=oracle.evaluations,
                feasible=False,
                certified=hi_stats[4],
            )
        lo = hi
        hi = as_candidate(min(max(hi * 1.5, hi + 1.0), max_fanout))
        hi_stats = oracle.decide(hi, rounds)

    if lo is None:
        # The analytic seed itself is feasible: walk down geometrically
        # towards the (sub)critical floor until an infeasible lower bracket
        # appears (or the floor is reached, which needs no verification —
        # the answer is simply the smallest feasible candidate found).
        lo = min_fanout
        probe = next_down(hi)
        while probe is not None:
            probe_stats = oracle.decide(probe, rounds)
            if probe_stats[0]:
                hi, hi_stats = probe, probe_stats
                probe = next_down(probe)
            else:
                lo = probe
                break

    # --- bisection on the verified bracket (lo infeasible or floor, hi feasible).
    while (hi - lo) > (1.0 if integer_mode else fanout_tol) + 1e-12:
        mid = as_candidate(0.5 * (lo + hi))
        if mid >= hi or mid <= lo:
            break
        mid_stats = oracle.decide(mid, rounds)
        if mid_stats[0]:
            hi, hi_stats = mid, mid_stats
        else:
            lo = mid

    solved_rounds: int | None = None
    if integer_mode and solve_rounds:
        solved_rounds = rounds
        r_lo, r_hi = 1, rounds
        if r_hi > 1:
            one_stats = oracle.decide(hi, 1)
            if one_stats[0]:
                solved_rounds, hi_stats = 1, one_stats
            else:
                while r_hi - r_lo > 1:
                    r_mid = (r_lo + r_hi) // 2
                    mid_stats = oracle.decide(hi, r_mid)
                    if mid_stats[0]:
                        r_hi, hi_stats = r_mid, mid_stats
                    else:
                        r_lo = r_mid
                solved_rounds = r_hi
        else:
            solved_rounds = 1

    return DimensioningResult(
        n=n,
        q=q,
        target_reliability=target_reliability,
        loss=loss,
        confidence=confidence,
        fanout=hi,
        rounds=solved_rounds,
        analytical_fanout=seed_fanout,
        achieved_reliability=hi_stats[1],
        ci_low=hi_stats[2],
        ci_high=hi_stats[3],
        replicas_used=oracle.replicas_used,
        evaluations=oracle.evaluations,
        feasible=True,
        certified=True,
    )


def pareto_frontier(items: Iterable[_T], *, keys: Callable[[_T], Sequence[float]]) -> list[_T]:
    """Return the non-dominated subset of ``items``, minimising every key.

    Parameters
    ----------
    items:
        Any iterable of candidates.
    keys:
        Callable mapping a candidate to a tuple of objectives, **all to be
        minimised**.  A candidate is dominated when some other candidate is
        no worse on every objective and strictly better on at least one.

    Returns
    -------
    list
        The non-dominated candidates, sorted by their objective tuples (so
        the output order is deterministic regardless of input order).
        Duplicate objective tuples are kept once (first occurrence wins).

    Examples
    --------
    >>> pareto_frontier([(4, 8), (5, 6), (5, 8), (6, 5)], keys=lambda p: p)
    [(4, 8), (5, 6), (6, 5)]
    """
    items = list(items)
    scored = [(tuple(keys(item)), item) for item in items]
    frontier: list[_T] = []
    seen: set[tuple[float, ...]] = set()
    for score, item in sorted(scored, key=lambda pair: pair[0]):
        if score in seen:
            continue
        dominated = any(
            all(o <= s for o, s in zip(other, score, strict=True)) and other != score
            for other, _ in scored
        )
        if not dominated:
            frontier.append(item)
            seen.add(score)
    return frontier


@dataclass(frozen=True)
class ParetoCandidate:
    """One evaluated ``(fanout, rounds)`` candidate of a Pareto solve.

    Attributes
    ----------
    fanout:
        Integer per-member fanout of the candidate (stored as float for
        uniformity with :class:`DimensioningResult`).
    rounds:
        Round horizon of the candidate.
    feasible:
        Whether the Wilson lower bound cleared the target (*feasible means
        certifiable*, exactly as in :func:`dimension_fanout`).
    certified:
        Whether the decision was settled by the interval itself rather than
        by budget exhaustion.
    achieved_reliability, ci_low, ci_high:
        Mean replica reliability at the decision and its Wilson interval.
    messages_per_member:
        Measured mean payload messages per member — the bandwidth cost the
        cost-aware objective minimises.
    """

    fanout: float
    rounds: int
    feasible: bool
    certified: bool
    achieved_reliability: float
    ci_low: float
    ci_high: float
    messages_per_member: float


@dataclass(frozen=True)
class ParetoDimensioningResult:
    """Joint ``(fanout, rounds)`` dimensioning: frontier + cost-aware pick.

    Attributes
    ----------
    n, q, target_reliability, loss, confidence:
        The problem as posed (``loss`` under :ref:`the loss contract
        <loss-semantics>`).
    frontier:
        Feasible candidates non-dominated in ``(fanout, rounds)``, sorted by
        rising fanout (hence falling rounds).  Every entry carries its
        Wilson certificate (``ci_low >= target_reliability``).
    best_cost:
        The frontier candidate with the smallest measured payload messages
        per member — the *cost-aware objective* (minimise bandwidth subject
        to ``ci_low >= target``); ``None`` when nothing was feasible.
    candidates:
        Every candidate evaluated during the solve, in evaluation order
        (the frontier is a subset of these).
    replicas_used, evaluations:
        Total Monte-Carlo cost of the whole solve.
    feasible:
        False when no ``(fanout, rounds)`` pair under the caps met the
        target; then ``frontier`` is empty.
    """

    n: int
    q: float
    target_reliability: float
    loss: float
    confidence: float
    frontier: tuple
    best_cost: ParetoCandidate | None
    candidates: tuple
    replicas_used: int
    evaluations: int
    feasible: bool


def dimension_pareto(
    n: int,
    q: float,
    target_reliability: float,
    *,
    protocol_factory: _ProtocolFactory,
    max_rounds: int = 8,
    loss: float = 0.0,
    failure_model: FailureModel | None = None,
    confidence: float = 0.95,
    initial_replicas: int = 24,
    max_replicas: int = 96,
    max_fanout: float = 64.0,
    seed: SeedLike = None,
) -> ParetoDimensioningResult:
    """Solve the joint ``(fanout, rounds)`` dimensioning problem for a protocol.

    The lexicographic answer of :func:`dimension_fanout` (minimal fanout,
    then minimal rounds at that fanout) hides a real trade-off: a deployment
    may prefer one extra unit of fanout to two extra rounds of latency.
    This solver sweeps the horizon from ``max_rounds`` down to 1, finds the
    minimal certifiable integer fanout at each horizon by bisection, and
    returns the Pareto frontier of non-dominated feasible pairs together
    with the cost-aware pick (minimal measured payload messages per member).

    The sweep exploits two monotonicities to stay cheap:

    * at a fixed horizon, reliability is monotone in fanout (bisection);
    * the minimal fanout ``f*(r)`` is non-increasing in the horizon ``r``,
      so ``f*(r+1) - 1`` is a *verified-infeasible* lower bracket for the
      next horizon down, and the first horizon with no feasible fanout at
      all ends the sweep.

    Parameters
    ----------
    n, q, target_reliability, loss, confidence:
        As for :func:`dimension_fanout` (``loss`` is per-message Bernoulli,
        see :ref:`the loss contract <loss-semantics>`).
    protocol_factory:
        ``(fanout, rounds) -> Protocol`` builder, as in protocol mode of
        :func:`dimension_fanout`.
    max_rounds:
        Largest round horizon considered (the latency cap).
    failure_model:
        Optional :class:`~repro.simulation.failures.FailureModel` overriding
        the uniform-``q`` crash draw — e.g.
        :class:`~repro.simulation.failures.TargetedCrashModel` for
        worst-case targeted-crash dimensioning.
    initial_replicas, max_replicas:
        Per-decision replica budget (the cap is lifted to the Wilson
        feasibility floor automatically, as in :func:`dimension_fanout`).
    max_fanout:
        Fanout cap per horizon.
    seed:
        Seed or generator for the whole solve.
    """
    n = check_integer("n", n, minimum=2)
    q = check_probability("q", q)
    target_reliability = check_probability(
        "target_reliability", target_reliability, allow_zero=False, allow_one=False
    )
    loss = check_probability("loss", loss)
    check_integer("max_rounds", max_rounds, minimum=1)
    check_integer("initial_replicas", initial_replicas, minimum=2)
    check_integer("max_replicas", max_replicas, minimum=initial_replicas)
    rng = as_generator(seed)

    floor = wilson_floor(target_reliability, confidence)
    max_replicas = max(max_replicas, floor + initial_replicas)

    oracle = _FeasibilityOracle(
        _protocol_evaluator(n, q, loss, protocol_factory, failure_model),
        target=target_reliability,
        confidence=confidence,
        initial_replicas=initial_replicas,
        max_replicas=max_replicas,
        rng=rng,
    )

    candidates: list[ParetoCandidate] = []
    minimal: list[ParetoCandidate] = []  # minimal feasible fanout per horizon

    def probe(fanout: int, rounds: int) -> ParetoCandidate:
        feasible, mean, lo, hi, decisive = oracle.decide(float(fanout), rounds)
        candidate = ParetoCandidate(
            fanout=float(fanout),
            rounds=int(rounds),
            feasible=feasible,
            certified=bool(decisive or feasible),
            achieved_reliability=mean,
            ci_low=lo,
            ci_high=hi,
            messages_per_member=oracle.last_cost,
        )
        candidates.append(candidate)
        return candidate

    cap = max(1, int(max_fanout))
    lower = 0  # largest fanout verified (or implied) infeasible at the previous horizon
    for rounds in range(max_rounds, 0, -1):
        # Find a feasible upper bracket at this horizon, starting from the
        # previous horizon's answer (fanouts below it stay infeasible here).
        hi_fanout = max(lower + 1, 1)
        best = probe(hi_fanout, rounds)
        while not best.feasible:
            if hi_fanout >= cap:
                best = None
                break
            lower = hi_fanout
            hi_fanout = min(cap, max(hi_fanout + 1, int(hi_fanout * 1.5)))
            best = probe(hi_fanout, rounds)
        if best is None:
            break  # shorter horizons can only need more fanout than the cap
        lo_fanout = lower
        while hi_fanout - lo_fanout > 1:
            mid = (lo_fanout + hi_fanout) // 2
            candidate = probe(mid, rounds)
            if candidate.feasible:
                hi_fanout, best = mid, candidate
            else:
                lo_fanout = mid
        minimal.append(best)
        lower = hi_fanout - 1  # f*(r) is non-increasing in r: carry the bracket down

    frontier = tuple(
        pareto_frontier(minimal, keys=lambda c: (c.fanout, c.rounds))
    )
    best_cost = None
    if frontier:
        best_cost = min(frontier, key=lambda c: (c.messages_per_member, c.fanout, c.rounds))
    return ParetoDimensioningResult(
        n=n,
        q=q,
        target_reliability=target_reliability,
        loss=loss,
        confidence=confidence,
        frontier=frontier,
        best_cost=best_cost,
        candidates=tuple(candidates),
        replicas_used=oracle.replicas_used,
        evaluations=oracle.evaluations,
        feasible=bool(frontier),
    )
