"""Certified reliability surfaces — precompute once, serve forever.

:func:`repro.analysis.dimensioning.dimension_fanout` re-simulates per query
(seconds per answer), which is the right tool for a one-off design study and
the wrong tool for a service answering millions of "what fanout do I need?"
queries.  The paper's reliability model ``R(q, P)`` is a smooth surface over
a small parameter space, so this module precomputes it once on a rectilinear
``(n, q, loss, fanout, rounds)`` grid with a **Wilson confidence interval
per cell**, and persists the result as a versioned artifact that the query
layer (:mod:`repro.serving.query`) interpolates in microseconds.

Three public entry points:

* :class:`SurfaceGrid` — the rectilinear grid specification (strictly
  increasing axes; a ``rounds`` axis of ``(0,)`` marks a horizon-free
  gossip surface).
* :func:`build_surface` — fill the grid by chunked calls into the batched
  Monte-Carlo engines (:func:`~repro.simulation.gossip.simulate_gossip_batch`
  or :func:`~repro.simulation.protocol_batch.simulate_protocol_batch`),
  one independent pre-spawned seed per cell so any process-pool layout
  reproduces bit-identically.
* :meth:`ReliabilitySurface.save` / :func:`load_surface` — persistence as a
  ``.npz`` array file plus a JSON manifest keyed by engine version,
  protocol, seed, and grid spec.  Loading validates *strictly*: a manifest
  whose format version, engine version, seed, checksum, or grid disagrees
  with the arrays is refused with :class:`SurfaceValidationError` rather
  than served from.

Units: ``q`` and ``loss`` are probabilities in ``[0, 1]``; ``fanout`` is a
mean fanout (messages per infected member per activation); ``rounds`` is a
protocol round horizon (dimensionless count); reliability cells are expected
fractions of nonfailed members reached, in ``[0, 1]``; ``cost`` cells are
payload messages per member (messages, dimensionless).

Example
-------
>>> grid = SurfaceGrid(ns=(64,), qs=(0.8, 1.0), losses=(0.0,),
...                    fanouts=(2.0, 6.0))
>>> surface = build_surface(grid, repetitions=16, seed=7)
>>> surface.mean.shape  # (n, q, loss, fanout, rounds)
(1, 2, 1, 2, 1)
>>> bool(surface.ci_low[0, 1, 0, 1, 0] > surface.ci_low[0, 1, 0, 0, 0])
True
"""

from __future__ import annotations

import hashlib
import json
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterable, Iterator

import numpy as np

import repro
from repro.analysis.dimensioning import wilson_interval
from repro.core.distributions import FanoutDistribution, PoissonFanout
from repro.simulation.gossip import simulate_gossip_batch
from repro.simulation.network import NetworkModel
from repro.simulation.protocol_batch import simulate_protocol_batch
from repro.utils.parallel import parallel_map
from repro.utils.rng import spawn_seeds
from repro.utils.validation import check_integer, check_probability

__all__ = [
    "SURFACE_FORMAT_VERSION",
    "GOSSIP_PROTOCOLS",
    "SurfaceValidationError",
    "SurfaceGrid",
    "ReliabilitySurface",
    "build_surface",
    "load_surface",
]

#: On-disk format version; bumped whenever the artifact layout changes.
SURFACE_FORMAT_VERSION = 1

#: Horizon-free surface ids: ``gossip-<family>`` runs the batched gossip
#: engine with the named fanout-distribution family (the paper's general
#: gossip algorithm, no round horizon).  Any other protocol id is resolved
#: through :func:`repro.experiments.protocol_comparison.protocol_zoo`.
GOSSIP_PROTOCOLS = ("gossip-poisson", "gossip-fixed", "gossip-geometric", "gossip-uniform")


class SurfaceValidationError(ValueError):
    """A surface artifact failed strict load-time validation (refuse to serve)."""


def _check_axis(name: str, values: Iterable[float], *, integral: bool = False) -> tuple:
    """Validate one grid axis: non-empty, finite, strictly increasing."""
    values = tuple(float(v) for v in values)
    if not values:
        raise ValueError(f"{name} axis must be non-empty")
    if not all(np.isfinite(values)):
        raise ValueError(f"{name} axis must be finite, got {values}")
    if any(b <= a for a, b in zip(values, values[1:], strict=False)):
        raise ValueError(f"{name} axis must be strictly increasing, got {values}")
    if integral:
        if any(v != int(v) for v in values):
            raise ValueError(f"{name} axis must be integer-valued, got {values}")
        return tuple(int(v) for v in values)
    return values


@dataclass(frozen=True)
class SurfaceGrid:
    """Rectilinear grid specification of a reliability surface.

    Parameters
    ----------
    ns:
        Group sizes (strictly increasing integers, each >= 2).
    qs:
        Nonfailed-ratio axis, probabilities in ``(0, 1]``.
    losses:
        Per-message loss-probability axis, in ``[0, 1)``.
    fanouts:
        Mean-fanout axis (positive reals; integer-valued for protocol
        surfaces, which dimension an integer per-member fanout).
    rounds:
        Round-horizon axis.  ``(0,)`` (the default) marks a horizon-free
        gossip surface: the engine runs every replica to quiescence and the
        axis is degenerate.  Protocol surfaces use horizons >= 1.

    Example
    -------
    >>> grid = SurfaceGrid(ns=(100,), qs=(0.9, 1.0), losses=(0.0, 0.2),
    ...                    fanouts=(2.0, 4.0, 8.0))
    >>> grid.shape
    (1, 2, 2, 3, 1)
    >>> len(list(grid.cells()))
    12
    """

    ns: tuple
    qs: tuple
    losses: tuple
    fanouts: tuple
    rounds: tuple = (0,)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ns", _check_axis("ns", self.ns, integral=True))
        object.__setattr__(self, "qs", _check_axis("qs", self.qs))
        object.__setattr__(self, "losses", _check_axis("losses", self.losses))
        object.__setattr__(self, "fanouts", _check_axis("fanouts", self.fanouts))
        object.__setattr__(self, "rounds", _check_axis("rounds", self.rounds, integral=True))
        for n in self.ns:
            check_integer("n", n, minimum=2)
        for q in self.qs:
            check_probability("q", q, allow_zero=False)
        for loss in self.losses:
            check_probability("loss", loss, allow_one=False)
        if any(f <= 0 for f in self.fanouts):
            raise ValueError(f"fanouts must be positive, got {self.fanouts}")
        if any(r < 0 for r in self.rounds):
            raise ValueError(f"rounds must be >= 0, got {self.rounds}")
        if 0 in self.rounds and len(self.rounds) > 1:
            raise ValueError("a horizon-free rounds axis must be exactly (0,)")

    @property
    def shape(self) -> tuple:
        """Array shape of the surface: ``(len(ns), len(qs), len(losses), len(fanouts), len(rounds))``."""
        return (len(self.ns), len(self.qs), len(self.losses), len(self.fanouts), len(self.rounds))

    @property
    def axes(self) -> tuple:
        """The five axes in array order: ``(ns, qs, losses, fanouts, rounds)``."""
        return (self.ns, self.qs, self.losses, self.fanouts, self.rounds)

    def cells(self) -> Iterator[tuple]:
        """Yield ``(index_tuple, n, q, loss, fanout, rounds)`` in C (row-major) order."""
        for index in np.ndindex(self.shape):
            i, j, k, m, r = index
            yield (index, self.ns[i], self.qs[j], self.losses[k], self.fanouts[m], self.rounds[r])

    def to_manifest(self) -> dict:
        """Return the JSON-serialisable grid spec for the artifact manifest."""
        return {
            "ns": list(self.ns),
            "qs": list(self.qs),
            "losses": list(self.losses),
            "fanouts": list(self.fanouts),
            "rounds": list(self.rounds),
        }

    @classmethod
    def from_manifest(cls, spec: dict) -> "SurfaceGrid":
        """Rebuild a grid from its manifest spec (inverse of :meth:`to_manifest`)."""
        try:
            return cls(
                ns=tuple(spec["ns"]),
                qs=tuple(spec["qs"]),
                losses=tuple(spec["losses"]),
                fanouts=tuple(spec["fanouts"]),
                rounds=tuple(spec["rounds"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SurfaceValidationError(f"invalid grid spec in manifest: {exc}") from exc


@dataclass(frozen=True)
class ReliabilitySurface:
    """A precomputed, certified reliability grid plus its provenance.

    All cell arrays share :attr:`SurfaceGrid.shape`; per cell they hold the
    Monte-Carlo mean replica reliability, its two-sided Wilson interval at
    :attr:`confidence`, and the mean payload cost in messages per member.

    Attributes
    ----------
    grid:
        The :class:`SurfaceGrid` the cells were evaluated on.
    protocol:
        Engine id: ``gossip-<family>`` (horizon-free batched gossip engine)
        or a protocol-zoo id (``pbcast``, ``flooding``, ...).
    mean, ci_low, ci_high:
        Reliability estimate and Wilson bounds per cell, each in ``[0, 1]``.
    cost:
        Mean payload messages per member per cell (dimensionless count).
    repetitions:
        Monte-Carlo replicas behind every cell.
    confidence:
        Two-sided coverage of the Wilson bounds, e.g. ``0.95``.
    seed:
        Base seed of the build; each cell used an independent spawned child.
    engine_version:
        ``repro.__version__`` the surface was built with.  Load-time
        validation refuses to serve across engine versions by default.
    conditional_on_spread:
        Whether replicas that never took off were charged as reliability 0
        (the dimensioning convention) instead of their raw tiny fraction.
    """

    grid: SurfaceGrid
    protocol: str
    mean: np.ndarray
    ci_low: np.ndarray
    ci_high: np.ndarray
    cost: np.ndarray
    repetitions: int
    confidence: float
    seed: int
    engine_version: str = field(default=repro.__version__)
    conditional_on_spread: bool = True

    def __post_init__(self) -> None:
        shape = self.grid.shape
        for name in ("mean", "ci_low", "ci_high", "cost"):
            array = np.asarray(getattr(self, name), dtype=float)
            object.__setattr__(self, name, array)
            if array.shape != shape:
                raise SurfaceValidationError(
                    f"{name} array shape {array.shape} does not match grid shape {shape}"
                )
        if not (
            np.all(self.ci_low >= -1e-12)
            and np.all(self.ci_low <= self.mean + 1e-12)
            and np.all(self.mean <= self.ci_high + 1e-12)
            and np.all(self.ci_high <= 1.0 + 1e-12)
        ):
            raise SurfaceValidationError(
                "cell bounds must satisfy 0 <= ci_low <= mean <= ci_high <= 1"
            )
        if np.any(self.cost < 0):
            raise SurfaceValidationError("cost cells must be non-negative")

    @property
    def cells(self) -> int:
        """Total number of grid cells."""
        return int(np.prod(self.grid.shape))

    def manifest(self) -> dict:
        """Return the JSON manifest describing this surface (sans checksum)."""
        return {
            "format_version": SURFACE_FORMAT_VERSION,
            "engine_version": self.engine_version,
            "protocol": self.protocol,
            "seed": int(self.seed),
            "repetitions": int(self.repetitions),
            "confidence": float(self.confidence),
            "conditional_on_spread": bool(self.conditional_on_spread),
            "grid": self.grid.to_manifest(),
        }

    def save(self, path: str | Path) -> tuple:
        """Persist as ``<path>`` (``.npz`` arrays) + ``<path stem>.manifest.json``.

        The manifest stores a SHA-256 checksum of the array file, so a
        mismatched or corrupted pair is refused at load time.  Returns the
        ``(npz_path, manifest_path)`` pair actually written.
        """
        npz_path = _npz_path(path)
        manifest_path = _manifest_path(npz_path)
        npz_path.parent.mkdir(parents=True, exist_ok=True)
        with open(npz_path, "wb") as fh:
            np.savez_compressed(
                fh,
                mean=self.mean,
                ci_low=self.ci_low,
                ci_high=self.ci_high,
                cost=self.cost,
                axis_ns=np.asarray(self.grid.ns, dtype=np.int64),
                axis_qs=np.asarray(self.grid.qs, dtype=float),
                axis_losses=np.asarray(self.grid.losses, dtype=float),
                axis_fanouts=np.asarray(self.grid.fanouts, dtype=float),
                axis_rounds=np.asarray(self.grid.rounds, dtype=np.int64),
                seed=np.asarray(self.seed, dtype=np.int64),
            )
        manifest = self.manifest()
        manifest["arrays_sha256"] = _sha256(npz_path)
        with open(manifest_path, "w") as fh:
            json.dump(manifest, fh, indent=2, sort_keys=True)
            fh.write("\n")
        return npz_path, manifest_path


def _npz_path(path: str | Path) -> Path:
    """Return the array file of an artifact path: the path, suffixed ``.npz``."""
    npz_path = Path(path)
    return npz_path if npz_path.suffix == ".npz" else npz_path.with_suffix(".npz")


def _manifest_path(npz_path: Path) -> Path:
    """Return the manifest path paired with an ``.npz`` artifact path."""
    return npz_path.with_suffix("").with_suffix(".manifest.json")


#: JSON type of each scalar manifest field, and its name in an error message.
_MANIFEST_FIELDS: dict[str, tuple[type | tuple[type, ...], str]] = {
    "protocol": (str, "a string"),
    "seed": (int, "an integer"),
    "repetitions": (int, "an integer"),
    "confidence": ((int, float), "a number"),
    "conditional_on_spread": (bool, "a JSON boolean"),
}


def _manifest_field(manifest: dict, name: str) -> Any:
    """Read one scalar manifest field; refuse it when missing or wrong-typed."""
    kinds, spelled = _MANIFEST_FIELDS[name]
    if name not in manifest:
        raise SurfaceValidationError(f"manifest missing field {name!r}")
    value = manifest[name]
    # A JSON boolean decodes to a bool, which Python also counts as an int.
    if not isinstance(value, kinds) or (isinstance(value, bool) and kinds is not bool):
        raise SurfaceValidationError(f"manifest field {name!r} must be {spelled}, got {value!r}")
    return value


def _sha256(path: Path) -> str:
    """Return the hex SHA-256 of a file's bytes."""
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def cell_distribution(protocol: str, fanout: float) -> FanoutDistribution:
    """Build the fanout distribution of a ``gossip-<family>`` surface cell."""
    family = protocol.removeprefix("gossip-")
    if family == "poisson":
        return PoissonFanout(float(fanout))
    from repro.analysis.sweep import default_distribution_families

    return default_distribution_families(float(fanout))[family]


def _build_cell(args: tuple) -> tuple:
    """Process-pool worker: evaluate one grid cell.

    Returns ``(mean, ci_low, ci_high, cost)`` for the cell; only plain
    scalars cross the process boundary (the protocol instance is rebuilt
    inside the worker from its id).
    """
    (protocol, n, q, loss, fanout, rounds, repetitions, confidence, conditional, seed) = args
    network = NetworkModel(loss_probability=loss) if loss > 0.0 else None
    if protocol in GOSSIP_PROTOCOLS:
        result = simulate_gossip_batch(
            n,
            cell_distribution(protocol, fanout),
            q,
            repetitions=repetitions,
            seed=seed,
            network=network,
        )
        reliability = result.reliability()
        if conditional:
            reliability = np.where(result.spread_occurred(), reliability, 0.0)
        cost = float(np.mean(result.messages_sent / n))
    else:
        from repro.experiments.protocol_comparison import zoo_protocol

        result = simulate_protocol_batch(
            zoo_protocol(protocol, int(round(fanout)), int(rounds)),
            n,
            q,
            repetitions=repetitions,
            seed=seed,
            network=network,
        )
        reliability = result.reliability()
        cost = float(np.mean(result.payload_messages_per_member()))
    lo, hi = wilson_interval(float(np.sum(reliability)), len(reliability), confidence)
    return float(np.mean(reliability)), lo, hi, cost


def build_surface(
    grid: SurfaceGrid,
    *,
    protocol: str = "gossip-poisson",
    repetitions: int = 96,
    confidence: float = 0.95,
    conditional_on_spread: bool = True,
    seed: int = 0,
    processes: int | None = 1,
) -> ReliabilitySurface:
    """Fill a :class:`SurfaceGrid` with certified Monte-Carlo reliability cells.

    Parameters
    ----------
    grid:
        The rectilinear grid to evaluate.
    protocol:
        ``gossip-<family>`` (horizon-free batched gossip engine; the grid's
        rounds axis must be the ``(0,)`` sentinel) or a protocol-zoo id
        (``flooding``, ``pbcast``, ``lpbcast``, ``rdg``, ``fixed-fanout``,
        ``random-fanout``, ``hyparview``, ``lazy-push``, ``anti-entropy``;
        requires round horizons >= 1 and integer fanouts).
    repetitions:
        Monte-Carlo replicas per cell (the certificate width shrinks like
        ``1/sqrt(repetitions)``).
    confidence:
        Two-sided Wilson coverage per cell, e.g. ``0.95``.
    conditional_on_spread:
        Charge gossip replicas that never took off as reliability 0 (the
        dimensioning convention; ignored for protocol surfaces).
    seed:
        Base seed; every cell draws an independent spawned child seed, so
        the surface is bit-identical for any ``processes`` value.
    processes:
        Worker processes for fanning cells out (``1`` = serial, ``None`` =
        one per core).

    Returns
    -------
    ReliabilitySurface
        The filled surface, ready to :meth:`~ReliabilitySurface.save` or to
        wrap in a :class:`~repro.serving.query.SurfaceQueryEngine`.
    """
    check_integer("repetitions", repetitions, minimum=2)
    confidence = check_probability("confidence", confidence, allow_zero=False, allow_one=False)
    seed = check_integer("seed", seed, minimum=0)
    if protocol in GOSSIP_PROTOCOLS:
        if grid.rounds != (0,):
            raise SurfaceValidationError(
                f"gossip surfaces are horizon-free: rounds axis must be (0,), got {grid.rounds}"
            )
    else:
        if any(r < 1 for r in grid.rounds):
            raise SurfaceValidationError(
                f"protocol {protocol!r} needs round horizons >= 1, got {grid.rounds}"
            )
        if any(f != int(f) for f in grid.fanouts):
            raise SurfaceValidationError(
                f"protocol {protocol!r} dimensions integer fanouts, got {grid.fanouts}"
            )
        from repro.experiments.protocol_comparison import protocol_zoo

        known = dict(protocol_zoo(2, 2, include_peer_sampling=True, include_recovery=True))
        if protocol not in known:
            raise SurfaceValidationError(
                f"unknown protocol {protocol!r}; choose a gossip family "
                f"{GOSSIP_PROTOCOLS} or one of {sorted(known)}"
            )

    cells = list(grid.cells())
    seeds = spawn_seeds(len(cells), seed)
    work = [
        (protocol, n, q, loss, fanout, rounds, repetitions, confidence,
         conditional_on_spread, cell_seed)
        for (_, n, q, loss, fanout, rounds), cell_seed in zip(cells, seeds, strict=True)
    ]
    rows = parallel_map(_build_cell, work, processes=processes, serial_threshold=1)

    shape = grid.shape
    mean = np.empty(shape, dtype=float)
    ci_low = np.empty(shape, dtype=float)
    ci_high = np.empty(shape, dtype=float)
    cost = np.empty(shape, dtype=float)
    for (index, *_), row in zip(cells, rows, strict=True):
        mean[index], ci_low[index], ci_high[index], cost[index] = row
    return ReliabilitySurface(
        grid=grid,
        protocol=protocol,
        mean=mean,
        ci_low=ci_low,
        ci_high=ci_high,
        cost=cost,
        repetitions=repetitions,
        confidence=confidence,
        seed=seed,
        conditional_on_spread=conditional_on_spread,
    )


def load_surface(path: str | Path, *, allow_version_mismatch: bool = False) -> ReliabilitySurface:
    """Load a persisted surface with strict artifact validation.

    Every served answer inherits this surface's certificates, so loading is
    deliberately paranoid.  The following are all refused with
    :class:`SurfaceValidationError`:

    * missing array or manifest file;
    * unknown manifest ``format_version``;
    * manifest ``engine_version`` different from the running
      ``repro.__version__`` (unless ``allow_version_mismatch=True`` —
      engine behaviour changes would silently invalidate every cell);
    * SHA-256 mismatch between the manifest and the ``.npz`` bytes
      (corruption, or a manifest paired with the wrong arrays);
    * arrays that do not read back (a truncated or otherwise broken
      ``.npz`` whose manifest checksum was recomputed to match it);
    * seed recorded in the arrays different from the manifest seed;
    * axes recorded in the arrays different from the manifest grid;
    * a manifest that is not a JSON object, or a scalar field that is
      missing or of the wrong JSON type;
    * malformed cell bounds (checked by :class:`ReliabilitySurface`).

    Parameters
    ----------
    path:
        The artifact path as given to :meth:`ReliabilitySurface.save`: the
        ``.npz`` suffix is added when missing, and the manifest is looked up
        next to the arrays.
    allow_version_mismatch:
        Serve a surface built by a different engine version anyway (for
        offline inspection, never for production serving).
    """
    npz_path = _npz_path(path)
    manifest_path = _manifest_path(npz_path)
    if not npz_path.exists():
        raise SurfaceValidationError(f"surface arrays not found: {npz_path}")
    if not manifest_path.exists():
        raise SurfaceValidationError(f"surface manifest not found: {manifest_path}")
    try:
        with open(manifest_path) as fh:
            manifest = json.load(fh)
    except (ValueError, RecursionError) as exc:  # not JSON, not text, or nested too deep
        raise SurfaceValidationError(f"unreadable manifest {manifest_path}: {exc}") from exc
    if not isinstance(manifest, dict):
        raise SurfaceValidationError(f"manifest {manifest_path} is not a JSON object")

    format_version = manifest.get("format_version")
    if format_version != SURFACE_FORMAT_VERSION:
        raise SurfaceValidationError(
            f"unsupported surface format_version {format_version!r} "
            f"(this engine reads {SURFACE_FORMAT_VERSION})"
        )
    engine_version = manifest.get("engine_version")
    if engine_version != repro.__version__ and not allow_version_mismatch:
        raise SurfaceValidationError(
            f"surface was built by engine {engine_version!r} but this is "
            f"{repro.__version__!r}; rebuild it (or pass allow_version_mismatch=True "
            "for offline inspection)"
        )
    expected_sha = manifest.get("arrays_sha256")
    if expected_sha != _sha256(npz_path):
        raise SurfaceValidationError(
            f"checksum mismatch for {npz_path}: the arrays do not match the manifest "
            "(corrupted file or mismatched artifact pair)"
        )

    grid = SurfaceGrid.from_manifest(manifest.get("grid", {}))
    try:
        # Decode every member here: NpzFile reads a member lazily, on access.
        with np.load(npz_path) as npz:
            arrays = {name: npz[name] for name in npz.files}
    except (zipfile.BadZipFile, zlib.error, OSError, ValueError, EOFError,
            NotImplementedError) as exc:  # NotImplementedError: unknown compression
        raise SurfaceValidationError(f"unreadable surface arrays {npz_path}: {exc}") from exc
    required = {"mean", "ci_low", "ci_high", "cost", "axis_ns", "axis_qs",
                "axis_losses", "axis_fanouts", "axis_rounds", "seed"}
    missing = required - set(arrays)
    if missing:
        raise SurfaceValidationError(f"surface arrays missing keys {sorted(missing)}")
    stored_axes = (
        tuple(int(v) for v in arrays["axis_ns"]),
        tuple(float(v) for v in arrays["axis_qs"]),
        tuple(float(v) for v in arrays["axis_losses"]),
        tuple(float(v) for v in arrays["axis_fanouts"]),
        tuple(int(v) for v in arrays["axis_rounds"]),
    )
    if stored_axes != grid.axes:
        raise SurfaceValidationError(
            "grid axes recorded in the arrays disagree with the manifest grid spec"
        )
    stored_seed = int(arrays["seed"])
    manifest_seed = _manifest_field(manifest, "seed")
    if stored_seed != manifest_seed:
        raise SurfaceValidationError(
            f"seed recorded in the arrays ({stored_seed}) disagrees with the "
            f"manifest seed ({manifest_seed!r})"
        )
    return ReliabilitySurface(
        grid=grid,
        protocol=_manifest_field(manifest, "protocol"),
        mean=arrays["mean"],
        ci_low=arrays["ci_low"],
        ci_high=arrays["ci_high"],
        cost=arrays["cost"],
        repetitions=_manifest_field(manifest, "repetitions"),
        confidence=float(_manifest_field(manifest, "confidence")),
        seed=stored_seed,
        engine_version=str(engine_version),
        conditional_on_spread=_manifest_field(manifest, "conditional_on_spread"),
    )
