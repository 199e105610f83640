"""Repeated executions and the success-of-gossiping experiments (Figs. 6-7).

The paper increases the probability of the *success of gossiping* by
repeating the whole gossip execution ``t`` times and argues that each
execution is an independent Bernoulli trial with success probability equal to
the single-execution reliability ``p_r``, so the number of "successes" ``X``
among ``t`` executions follows ``B(t, p_r)`` (Section 4.2, case 2).

In the evaluation (Figs. 6-7) the measured ``X`` is compared against
``B(20, 0.967)``.  Two readings of "success of one execution" are possible
and both are implemented here:

* ``mode="per_member"`` (default, reproduces the paper's figures): ``X`` is
  the number of executions in which a designated nonfailed *observer* member
  received the message.  This is exactly the Bernoulli variable whose success
  probability is the reliability, so ``X ~ B(t, p_r)`` holds by construction
  and simulation verifies the independence assumption.
* ``mode="all_members"``: ``X`` counts executions in which **all** (or a
  fraction ``success_threshold`` of) nonfailed members received the message —
  the strict definition of ``S(q, P, t)``.  For large groups the all-members
  probability is far below ``p_r``; exposing it lets users see the gap the
  paper's Bernoulli approximation glosses over.
"""

from __future__ import annotations

import numpy as np

from repro.core.distributions import FanoutDistribution
from repro.core.reliability import reliability as analytical_reliability
from repro.simulation.gossip import simulate_gossip_batch
from repro.simulation.metrics import SuccessCountResult, build_success_count_result
from repro.utils.rng import SeedLike, as_generator
from repro.utils.validation import check_choice, check_integer, check_probability

__all__ = ["simulate_success_counts"]


def simulate_success_counts(
    n: int,
    distribution: FanoutDistribution,
    q: float,
    *,
    executions: int = 20,
    simulations: int = 100,
    mode: str = "per_member",
    success_threshold: float = 1.0,
    condition_on_spread: bool = False,
    max_redraws: int = 50,
    source: int = 0,
    seed: SeedLike = None,
) -> SuccessCountResult:
    """Estimate the distribution of the success count ``X`` (Figs. 6-7 protocol).

    All ``simulations × executions`` trials run through the batched engine
    as one replica batch; conditioning redraws re-run only the still-dead
    trials, as one batch per retry round.

    Parameters
    ----------
    n, distribution, q:
        The ``Gossip(n, P, q)`` configuration.
    executions:
        ``t`` — executions per simulation (paper: 20).
    simulations:
        Number of independent simulations, i.e. samples of ``X`` (paper: 100).
    mode:
        ``"per_member"`` — count executions in which a randomly chosen
        nonfailed observer received the message (the Binomial reference of
        the paper's figures).  ``"all_members"`` — count executions reaching
        at least ``success_threshold`` of nonfailed members.
    success_threshold:
        Reliability threshold defining success in ``"all_members"`` mode.
    condition_on_spread:
        When True, each of the ``executions`` trials is conditioned on the
        gossip taking off: an execution that dies out within a few hops is
        redrawn (up to ``max_redraws`` times).  The paper's Binomial reference
        ``B(t, R(q, P))`` uses the analytical reliability, which corresponds
        to this conditional reading (see ``conditional_on_spread`` of
        :func:`repro.simulation.runner.estimate_reliability`); the Figs. 6-7
        experiment configs therefore enable it, while the plain default
        reports the unconditional trials.
    max_redraws:
        Retry budget per trial when ``condition_on_spread`` is True.
    """
    n = check_integer("n", n, minimum=2)
    q = check_probability("q", q)
    executions = check_integer("executions", executions, minimum=1)
    simulations = check_integer("simulations", simulations, minimum=1)
    success_threshold = check_probability("success_threshold", success_threshold)
    max_redraws = check_integer("max_redraws", max_redraws, minimum=0)
    mode = check_choice("mode", mode, ("per_member", "all_members"))
    rng = as_generator(seed)

    # Trial ``t`` belongs to simulation ``t // executions``.  The retry cost
    # of conditioning scales with the (small) die-out fraction instead of
    # the trial count.
    trials = simulations * executions
    result = simulate_gossip_batch(
        n,
        distribution,
        q,
        repetitions=trials,
        source=source,
        seed=rng,
    )
    alive = result.alive
    delivered = result.delivered
    if condition_on_spread:
        pending = ~result.spread_occurred()
        redraws = 0
        while pending.any() and redraws < max_redraws:
            retry = simulate_gossip_batch(
                n,
                distribution,
                q,
                repetitions=int(pending.sum()),
                source=source,
                seed=rng,
            )
            rows = np.flatnonzero(pending)
            alive[rows] = retry.alive
            delivered[rows] = retry.delivered
            pending[rows] = ~retry.spread_occurred()
            redraws += 1

    if mode == "all_members":
        n_alive = alive.sum(axis=1)
        reliability = delivered.sum(axis=1) / n_alive
        successes = reliability >= success_threshold - 1e-12
    else:
        # One observer per simulation (a member other than the source),
        # shared by that simulation's trials; draws from the n-1 virtual
        # slots with the source removed, shifting to real identifiers.
        observers = rng.integers(0, n - 1, size=simulations)
        observers += observers >= source
        per_trial_observer = np.repeat(observers, executions)
        trial_rows = np.arange(trials)
        successes = delivered[trial_rows, per_trial_observer].copy()
        # Trials whose observer failed draw a uniformly random alive stand-in
        # (excluding the source); random keys make the per-row argmax a
        # uniform choice over each row's alive set.
        need_stand_in = np.flatnonzero(~alive[trial_rows, per_trial_observer])
        if need_stand_in.size:
            candidates = alive[need_stand_in].copy()
            candidates[:, source] = False
            keys = rng.random(candidates.shape)
            keys[~candidates] = -1.0
            stand_ins = np.argmax(keys, axis=1)
            has_candidate = candidates.any(axis=1)
            successes[need_stand_in] = np.where(
                has_candidate, delivered[need_stand_in, stand_ins], False
            )
    counts = successes.reshape(simulations, executions).sum(axis=1).astype(np.int64)
    p_r = analytical_reliability(distribution, q)
    return build_success_count_result(counts, executions, p_r)
