"""The full membership view the gossip engines draw targets from.

Section 3 of the paper assumes "a scalable membership protocol is available"
(e.g. SCAMP) and deliberately scopes membership out of the analysis: every
member selects its gossip targets "uniformly at random from its membership
view", and the analytical model takes that view to be the whole group.
:class:`FullView` is that view.  Protocols whose behaviour depends on a
partial view (lpbcast, HyParView) keep their views inside their own hooks.

:class:`FullView` exposes two sampling operations:

* :meth:`FullView.sample_targets` — draw ``k`` distinct gossip targets for
  one member (never the member itself) through
  :func:`repro.utils.sampling.sample_distinct`; the event-driven reference
  calls it once per forwarding member.
* :meth:`FullView.sample_targets_batch` — draw distinct targets for a whole
  *batch* of (member, fanout) pairs with one call of the padding-free kernel
  :func:`repro.utils.sampling.sample_distinct_flat`.  This is the hot path of
  the batched Monte-Carlo engine
  (:func:`repro.simulation.gossip.simulate_gossip_batch`).  Each sender
  draws exactly its own fanout (a sender with fanout zero owns nothing), the
  kernel's row ids are the returned senders, and no ``(senders, largest
  fanout)`` matrix is built.

:class:`MembershipView` is the base class the benchmark tracer's
``membership`` site wraps, overrides included, and
``sample_distinct_rows_excluding`` stays bound here for the same tracer.
"""

from __future__ import annotations

import numpy as np
import numpy.typing as npt

from repro.utils.sampling import (
    sample_distinct,
    sample_distinct_flat,
    sample_distinct_rows_excluding,
)
from repro.utils.validation import check_integer

__all__ = ["MembershipView", "FullView", "sample_distinct_rows_excluding"]


def _check_batch_args(
    members: npt.ArrayLike, fanouts: npt.ArrayLike, n: int
) -> tuple[np.ndarray, np.ndarray]:
    """Cast and validate the (members, fanouts) pair of a batched draw.

    Mirrors the scalar path's member validation: out-of-range identifiers
    raise instead of silently wrapping through numpy negative indexing.
    """
    members = np.asarray(members, dtype=np.int64)
    fanouts = np.asarray(fanouts, dtype=np.int64)
    if members.shape != fanouts.shape:
        raise ValueError("members and fanouts must have the same shape")
    if members.size and (members.min() < 0 or members.max() >= n):
        raise ValueError(f"members must be identifiers in [0, {n}), got values outside")
    return members, fanouts


class MembershipView:
    """Base class of the membership views; :class:`FullView` is the only one."""


class FullView(MembershipView):
    """Every member sees the entire group (the analytical model's assumption)."""

    def __init__(self, n: int) -> None:
        self.n = check_integer("n", n, minimum=1)

    def sample_targets(self, member: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``k`` distinct gossip targets for ``member``, never itself."""
        member = check_integer("member", member, minimum=0, maximum=self.n - 1)
        return sample_distinct(rng, self.n, k, exclude=member)

    def sample_targets_batch(
        self, members: np.ndarray, fanouts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Draw distinct targets for a whole batch of (member, fanout) pairs.

        Parameters
        ----------
        members:
            Sender identifiers, shape ``(M,)`` (duplicates allowed — the
            batched engine sends the same member id from different replicas).
        fanouts:
            Requested fanout per sender, shape ``(M,)``; clipped per row to
            the ``n - 1`` other members.
        rng:
            Generator supplying all randomness of the draw.

        Returns
        -------
        (targets, senders):
            Flat arrays of equal length: ``targets[i]`` is one gossip target
            drawn for the sender at index ``senders[i]`` of ``members``.
            Row ``j``'s targets are distinct and never include
            ``members[j]``.
        """
        members, fanouts = _check_batch_args(members, fanouts, self.n)
        # Each row samples from the n-1 virtual slots with its own id removed;
        # slots at or above the sender's id shift up by one to restore real
        # identifiers (int64, the view API's identifier type).
        slots, senders = sample_distinct_flat(rng, self.n - 1, fanouts)
        targets = slots.astype(np.int64)
        targets += targets >= members[senders]
        return targets, senders
