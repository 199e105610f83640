"""The linear-scan surface interpolation, kept as a test oracle.

This is the multilinear interpolation that
:meth:`repro.serving.query.SurfaceQueryEngine.query` ran on a cache miss
before the engine copied the surface's cells into flat lists: each axis is
located by a linear ``math.isclose`` scan over its knots, and every corner of
the enclosing cell is read from the surface's numpy arrays, on all five axes
(an exact axis contributes one corner and a factor of 1.0).  The tests pin
the engine to it bit for bit, error messages included.
"""

from __future__ import annotations

import math
from itertools import product

from repro.serving.query import ServedReliability, SurfaceCoverageError
from repro.serving.surface import ReliabilitySurface

#: Relative tolerance for treating a query coordinate as an exact axis hit.
_AXIS_RTOL = 1e-9


def _bracket(axis: tuple, value: float) -> tuple:
    """Locate ``value`` on a strictly increasing axis.

    Returns ``(lo_index, hi_index, weight)`` with
    ``value = (1 - weight) * axis[lo] + weight * axis[hi]``; an exact hit
    (within relative tolerance) collapses to ``(i, i, 0.0)``.  Raises
    :class:`SurfaceCoverageError` outside ``[axis[0], axis[-1]]``, NaN
    included (it compares False with every knot).
    """
    for i, knot in enumerate(axis):
        if math.isclose(value, knot, rel_tol=_AXIS_RTOL, abs_tol=1e-12):
            return i, i, 0.0
    if not axis[0] <= value <= axis[-1]:
        raise SurfaceCoverageError(
            f"value {value} outside the grid axis [{axis[0]}, {axis[-1]}]"
        )
    lo = 0
    while axis[lo + 1] < value:
        lo += 1
    weight = (value - axis[lo]) / (axis[lo + 1] - axis[lo])
    return lo, lo + 1, weight


def _default_rounds(surface: ReliabilitySurface, rounds: int | None) -> int:
    """Resolve a missing rounds coordinate: horizon-free surfaces pin it
    to the sentinel, protocol surfaces default to their largest horizon."""
    if rounds is None:
        return 0 if surface.grid.rounds == (0,) else surface.grid.rounds[-1]
    return int(rounds)


def _locate(
    surface: ReliabilitySurface, n: int, q: float, loss: float, fanout: float, rounds: int | None
) -> tuple:
    grid = surface.grid
    rounds = _default_rounds(surface, rounds)
    return (
        _bracket(grid.ns, float(n)),
        _bracket(grid.qs, float(q)),
        _bracket(grid.losses, float(loss)),
        _bracket(grid.fanouts, float(fanout)),
        _bracket(grid.rounds, float(rounds)),
    )


def interpolate(surface: ReliabilitySurface, *, n: int, q: float, loss: float,
                fanout: float, rounds: int | None = None) -> ServedReliability:
    """Serve one reliability query from ``surface`` the linear-scan way (no cache)."""
    rounds = _default_rounds(surface, rounds)
    brackets = _locate(surface, n, q, loss, fanout, rounds)
    corner_axes = []
    for lo, hi, weight in brackets:
        if lo == hi:
            corner_axes.append(((lo, 1.0),))
        else:
            corner_axes.append(((lo, 1.0 - weight), (hi, weight)))
    mean = 0.0
    cost = 0.0
    ci_low = 1.0
    ci_high = 0.0
    for corner in product(*corner_axes):
        index = tuple(i for i, _ in corner)
        weight = 1.0
        for _, w in corner:
            weight *= w
        if weight <= 0.0:
            continue
        mean += weight * float(surface.mean[index])
        cost += weight * float(surface.cost[index])
        ci_low = min(ci_low, float(surface.ci_low[index]))
        ci_high = max(ci_high, float(surface.ci_high[index]))
    return ServedReliability(
        n=int(n),
        q=float(q),
        loss=float(loss),
        fanout=float(fanout),
        rounds=int(rounds),
        reliability=mean,
        ci_low=ci_low,
        ci_high=ci_high,
        cost=cost,
        exact=all(lo == hi for lo, hi, _ in brackets),
    )
