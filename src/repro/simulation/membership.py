"""Membership views for gossip target selection.

Section 3 of the paper assumes "a scalable membership protocol is available"
(e.g. SCAMP) and deliberately scopes membership out of the analysis: every
member selects its gossip targets "uniformly at random from its membership
view".  The analytical model implicitly assumes that view is the whole group.

Two view providers are implemented:

* :class:`FullView` — every member knows every other member (the paper's
  implicit assumption and the default everywhere).
* :class:`UniformPartialView` — every member knows a fixed-size uniformly
  random subset of the group, refreshed once per execution (a SCAMP-like
  partial view).  Used by the membership ablation benchmark to show how the
  reliability degrades when the view is much smaller than the group.

Views expose two sampling operations:

* :meth:`MembershipView.sample_targets` — draw ``k`` distinct gossip targets
  for one member (never including the member itself).  Small draws use
  Floyd's algorithm (O(k) expected work); draws that are a large fraction of
  the view switch to a numpy partial permutation.
* :meth:`MembershipView.sample_targets_batch` — draw distinct targets for a
  whole *batch* of (member, fanout) pairs in a handful of array operations.
  This is the hot path of the batched Monte-Carlo engine
  (:func:`repro.simulation.gossip.simulate_gossip_batch`): per gossip round
  it replaces thousands of Python-level Floyd loops with one call of the
  padding-free kernel :func:`repro.utils.sampling.sample_distinct_flat`.
  Each sender draws exactly its own fanout (a sender with fanout zero owns
  nothing), the kernel's row ids are the returned senders, and no
  ``(senders, largest fanout)`` matrix is built.  Fixed-fanout batches read
  the generator exactly as the earlier padded sampler did, so their
  fixed-seed outputs are unchanged; variable-fanout batches (Poisson gossip,
  the Fig. 4/5 tables, dimensioning answers) draw a different stream from
  the same law.

The distinct-sampling kernels themselves live in
:mod:`repro.utils.sampling` so the graph-percolation ensemble
(:mod:`repro.graphs.ensemble`) and the simulator share one implementation;
``sample_distinct``, ``sample_distinct_rows`` and
``sample_distinct_rows_excluding`` are re-exported here for backwards
compatibility.

Time-varying membership
-----------------------

Views additionally carry an optional **presence mask** — the dynamic-membership
contract used by the churn plane (:mod:`repro.simulation.churn`):

* :meth:`MembershipView.apply_events` applies join/leave events, updating the
  mask of members currently in the group;
* :meth:`MembershipView.alive_mask` / :meth:`MembershipView.alive_mask_batch`
  expose the current mask (scalar and replica-broadcast forms);
* both sampling operations silently drop absent targets — a member whose view
  still names a departed peer wastes that send, exactly as a real system
  would until its peer-sampling service repairs the view.

The mask is lazily allocated: while no events have been applied (or all
members rejoined) it stays ``None`` and every sampling path is *bit-identical*
to the static implementation — zero churn costs nothing and changes nothing.
"""

from __future__ import annotations

from abc import ABC, abstractmethod

from typing import Iterable

import numpy as np
import numpy.typing as npt

from repro.utils.rng import SeedLike, as_generator
from repro.utils.sampling import (
    sample_distinct,
    sample_distinct_flat,
    sample_distinct_rows,
    sample_distinct_rows_excluding,
)
from repro.utils.validation import check_integer

__all__ = [
    "MembershipView",
    "FullView",
    "UniformPartialView",
    "sample_distinct",
    "sample_distinct_rows",
    "sample_distinct_rows_excluding",
]


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


class MembershipView(ABC):
    """Abstract membership-view provider for a group of ``n`` members.

    Views are *time-varying*: :meth:`apply_events` feeds join/leave events
    into a lazily-allocated presence mask, and both sampling operations drop
    targets that are currently absent.  With no events applied the mask stays
    ``None`` and every code path is bit-identical to a static view.
    """

    def __init__(self, n: int) -> None:
        self.n = check_integer("n", n, minimum=1)
        self._present: np.ndarray | None = None

    @abstractmethod
    def view_of(self, member: int) -> np.ndarray:
        """Return the member identifiers visible to ``member`` (excluding itself)."""

    @abstractmethod
    def sample_targets(self, member: int, k: int, rng: np.random.Generator) -> np.ndarray:
        """Draw ``k`` distinct gossip targets for ``member`` from its view.

        Targets absent from the group (after :meth:`apply_events`) are
        dropped, so fewer than ``k`` targets may come back under churn.
        """

    def alive_mask(self, round_index: int = 0) -> np.ndarray:
        """Return the ``(n,)`` mask of members currently in the group.

        ``round_index`` is accepted for symmetry with the churn schedules'
        :meth:`~repro.simulation.churn.ChurnScheduleBatch.present_at`; a
        plain view has no event clock of its own, so the mask reflects
        whatever events have been applied so far.
        """
        if self._present is None:
            return np.ones(self.n, dtype=bool)
        return self._present.copy()

    def alive_mask_batch(self, repetitions: int, round_index: int = 0) -> np.ndarray:
        """Return the presence mask broadcast over replicas, shape ``(R, n)``.

        The vectorised variant the batched engines consume; each replica row
        is the same mask because events applied through the view API are
        global (per-replica schedules live in
        :class:`~repro.simulation.churn.ChurnScheduleBatch` instead).
        """
        repetitions = check_integer("repetitions", repetitions, minimum=1)
        return np.broadcast_to(
            self.alive_mask(round_index)[None, :], (repetitions, self.n)
        ).copy()

    def apply_events(
        self, round_index: int, joins: Iterable[int] = (), leaves: Iterable[int] = ()
    ) -> None:
        """Apply join/leave events effective from round ``round_index`` on.

        ``joins`` mark members (re-)entering the group, ``leaves`` mark
        members departing; subsequent sampling drops absent targets.  When
        every member ends up present again the mask deallocates back to
        ``None``, restoring the bit-identical static path.
        """
        check_integer("round_index", round_index, minimum=0)
        joins = np.asarray(list(joins), dtype=np.int64)
        leaves = np.asarray(list(leaves), dtype=np.int64)
        for name, events in (("joins", joins), ("leaves", leaves)):
            if events.size and (events.min() < 0 or events.max() >= self.n):
                raise ValueError(f"{name} must be identifiers in [0, {self.n})")
        if self._present is None:
            if not leaves.size:
                return  # joins of already-present members change nothing
            self._present = np.ones(self.n, dtype=bool)
        self._present[joins] = True
        self._present[leaves] = False
        if self._present.all():
            self._present = None

    def _drop_absent(
        self, targets: np.ndarray, senders: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Filter a (targets, senders) pair down to currently-present targets."""
        if self._present is None or not targets.size:
            return targets, senders
        keep = self._present[targets]
        return targets[keep], senders[keep]

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
            the sender's view size.
        rng:
            Generator supplying all randomness of the draw.

        Returns
        -------
        (targets, senders):
            Flat arrays of equal length: ``targets[i]`` is one gossip target
            drawn for the sender at index ``senders[i]`` of ``members``.
            Row ``j``'s targets are distinct and never include
            ``members[j]``.

        The base implementation loops over :meth:`sample_targets` (correct
        for any view); :class:`FullView` and :class:`UniformPartialView`
        override it with fully vectorised paths.
        """
        members, fanouts = _check_batch_args(members, fanouts, self.n)
        batches = [
            self.sample_targets(int(member), int(k), rng)
            for member, k in zip(members, fanouts, strict=True)
        ]
        senders = np.repeat(
            np.arange(members.size, dtype=np.int64),
            [len(b) for b in batches],
        )
        if not batches:
            return np.empty(0, dtype=np.int64), senders
        return np.concatenate(batches).astype(np.int64, copy=False), senders

    def view_size(self, member: int) -> int:
        """Return the number of members visible to ``member``."""
        return int(len(self.view_of(member)))

    def reset(self, seed: SeedLike = None) -> None:
        """Re-randomise the view (no-op for deterministic views)."""


class FullView(MembershipView):
    """Every member sees the entire group (the analytical model's assumption)."""

    def __init__(self, n: int) -> None:
        super().__init__(n)
        self._all_members = np.arange(self.n, dtype=np.int64)
        self._all_members.setflags(write=False)
        self._cached_member: int | None = None
        self._cached_view: np.ndarray | None = None

    def view_of(self, member: int) -> np.ndarray:
        """Return the read-only view of ``member`` (everyone but itself).

        The last requested view is cached, so the common access pattern —
        metric/ablation code hitting the same member repeatedly — stops
        reallocating O(n) per lookup; a different member costs one slice
        concatenation of the shared cached arange.  Memory stays O(n).
        """
        member = check_integer("member", member, minimum=0, maximum=self.n - 1)
        if member != self._cached_member:
            view = np.concatenate(
                (self._all_members[:member], self._all_members[member + 1 :])
            )
            view.setflags(write=False)
            self._cached_member = member
            self._cached_view = view
        return self._cached_view

    def sample_targets(self, member: int, k: int, rng: np.random.Generator) -> np.ndarray:
        member = check_integer("member", member, minimum=0, maximum=self.n - 1)
        targets = sample_distinct(rng, self.n, k, exclude=member)
        if self._present is not None and targets.size:
            targets = targets[self._present[targets]]
        return targets

    def sample_targets_batch(
        self, members: np.ndarray, fanouts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        members, fanouts = _check_batch_args(members, fanouts, self.n)
        # Each row samples from the n-1 virtual slots with its own id removed;
        # slots at or above the sender's id shift up by one to restore real
        # identifiers (int64, the view API's identifier type).
        slots, senders = sample_distinct_flat(rng, self.n - 1, fanouts)
        targets = slots.astype(np.int64)
        targets += targets >= members[senders]
        return self._drop_absent(targets, senders)


class UniformPartialView(MembershipView):
    """Every member sees a fixed-size uniformly random subset of the group.

    Parameters
    ----------
    n:
        Group size.
    view_size:
        Number of other members each member knows.  Values >= n - 1 degrade
        to a full view.
    seed:
        Seed for the view assignment (views are re-drawn by :meth:`reset`).
    """

    def __init__(self, n: int, view_size: int, *, seed: SeedLike = None) -> None:
        super().__init__(n)
        self._view_size = check_integer("view_size", view_size, minimum=1)
        self._view_matrix = np.zeros((0, 0), dtype=np.int64)
        self.reset(seed)

    def reset(self, seed: SeedLike = None) -> None:
        rng = as_generator(seed)
        size = min(self._view_size, self.n - 1)
        # All views share one size, so they pack into an (n, size) matrix the
        # batched sampler can gather from without Python-level lookups.
        matrix = np.empty((self.n, size), dtype=np.int64)
        for member in range(self.n):
            matrix[member] = np.sort(sample_distinct(rng, self.n, size, exclude=member))
        self._view_matrix = matrix

    def view_of(self, member: int) -> np.ndarray:
        member = check_integer("member", member, minimum=0, maximum=self.n - 1)
        return self._view_matrix[member]

    def sample_targets(self, member: int, k: int, rng: np.random.Generator) -> np.ndarray:
        member = check_integer("member", member, minimum=0, maximum=self.n - 1)
        view = self._view_matrix[member]
        if len(view) == 0:
            return np.empty(0, dtype=np.int64)
        k = min(int(k), len(view))
        if k <= 0:
            return np.empty(0, dtype=np.int64)
        idx = sample_distinct(rng, len(view), k)
        targets = view[idx]
        if self._present is not None and targets.size:
            targets = targets[self._present[targets]]
        return targets

    def sample_targets_batch(
        self, members: np.ndarray, fanouts: np.ndarray, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        members, fanouts = _check_batch_args(members, fanouts, self.n)
        slots, senders = sample_distinct_flat(rng, self._view_matrix.shape[1], fanouts)
        return self._drop_absent(self._view_matrix[members[senders], slots], senders)
