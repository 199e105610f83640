"""repro.serving — dimensioning as a service.

The serving subsystem turns the repository's slow-but-certified
dimensioning answers into a fast query service, in three layers:

* :mod:`repro.serving.surface` — **precompute**:
  :func:`~repro.serving.surface.build_surface` fills a rectilinear
  ``(n, q, loss, fanout, rounds)`` grid with batched Monte-Carlo
  reliability estimates, one Wilson interval per cell, and persists the
  result (``.npz`` arrays + JSON manifest keyed by engine version,
  protocol, seed, and grid spec).  :func:`~repro.serving.surface.load_surface`
  refuses any artifact whose manifest disagrees with its arrays.
* :mod:`repro.serving.query` — **serve**:
  :class:`~repro.serving.query.SurfaceQueryEngine` interpolates answers in
  microseconds behind a deterministic LRU cache, keeping every answer
  certifiable (served ``ci_low`` = the minimum over the enclosing cell
  corners).  :func:`~repro.serving.query.dimension_from_surface` answers
  the inverse question with a bounded live-solver fallback off-grid, and
  :func:`~repro.serving.query.pareto_from_surface` serves the joint
  ``(fanout, rounds)`` frontier.
* :mod:`repro.serving.serve` — **speak**: a JSON-lines request loop
  (``repro serve`` / ``repro query`` in the CLI).

See ``docs/ARCHITECTURE.md`` for how this layer sits on top of the
simulation engines, and the ``surface_dimensioning`` experiment for the
served-vs-live agreement and speedup evidence.
"""

from repro.serving.query import (
    LIVE_FALLBACK_MAX_TARGET,
    LiveFallbackRefused,
    LRUCache,
    ServedDimensioning,
    ServedReliability,
    SurfaceCoverageError,
    SurfaceQueryEngine,
    dimension_from_surface,
    pareto_from_surface,
)
from repro.serving.serve import handle_request, serve_loop
from repro.serving.surface import (
    GOSSIP_PROTOCOLS,
    SURFACE_FORMAT_VERSION,
    ReliabilitySurface,
    SurfaceGrid,
    SurfaceValidationError,
    build_surface,
    load_surface,
)

__all__ = [
    "SURFACE_FORMAT_VERSION",
    "GOSSIP_PROTOCOLS",
    "SurfaceGrid",
    "ReliabilitySurface",
    "SurfaceValidationError",
    "build_surface",
    "load_surface",
    "SurfaceCoverageError",
    "LiveFallbackRefused",
    "LIVE_FALLBACK_MAX_TARGET",
    "ServedReliability",
    "ServedDimensioning",
    "LRUCache",
    "SurfaceQueryEngine",
    "dimension_from_surface",
    "pareto_from_surface",
    "handle_request",
    "serve_loop",
]
