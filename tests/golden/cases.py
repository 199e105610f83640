"""Fixed-seed golden runs of the batched engines, one SHA-256 per run.

Each case runs one batched engine at small scale (n=300, R=6, one fixed seed)
and hashes what a refactor must preserve: the ``(R, n)`` delivered masks and
the per-replica integer counters (``messages_sent``, ``messages_dropped``,
``duplicates`` or ``control_messages_sent``, ``rounds``).  The cases are

* :func:`~repro.simulation.gossip.simulate_gossip_batch` under no plane,
  i.i.d. loss, exponential latency and Poisson churn;
* the nine protocols of ``protocol_zoo(4, 8, include_peer_sampling=True,
  include_recovery=True)`` through
  :func:`~repro.simulation.protocol_batch.simulate_protocol_batch` under no
  plane, i.i.d. loss, Gilbert–Elliott loss, Poisson churn and exponential
  latency;
* the gossip engine and all nine protocols with every plane on at once:
  i.i.d. (``all-iid``) or Gilbert–Elliott (``all-ge``) loss together with
  exponential latency and Poisson churn, where latency and churn interact
  (matured messages are re-checked against membership, and empty legs still
  advance a bursty channel).

Every case that runs with a network also hashes the ``(R, n)``
``delivery_times``: a network turns the latency plane on, and its times are
an output as much as the masks are, on the constant-latency plane of the
loss-only cases as on the exponential one.

The ``serve/stream`` case hashes the lines :func:`~repro.serving.serve.serve_loop`
writes for :data:`SERVE_LINES` on a small seeded surface: a reliability key
missed, hit and hit with an ``id``, ids of every JSON scalar kind, each kind
of ``dimension`` and ``pareto`` answer, ``info``, each error kind, and a
``shutdown`` after which the last line goes unanswered.  It pins the wire
byte for byte: key order, separators, ASCII escapes and ``null`` for the
non-finite floats.

Each ``experiment/<id>`` case hashes the stdout of ``repro run <id> --scale
small``, run in-process through :func:`repro.cli.main`: the printed table of
every registered experiment whose table is deterministic.  Two registered
experiments are left out, each for the reason given in
:data:`UNDIGESTED_EXPERIMENTS`.

The recorded digests live in ``digests.json`` next to this file, together
with the numpy version they were taken under.  A change that is meant to
alter a fixed-seed output regenerates them and says why::

    PYTHONPATH=src python -m tests.golden.cases
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
from collections.abc import Callable
from pathlib import Path
from typing import Any

import numpy as np

from repro.cli import main as cli_main
from repro.core.distributions import PoissonFanout
from repro.experiments.protocol_comparison import protocol_zoo
from repro.serving.serve import serve_loop
from repro.serving.surface import SurfaceGrid, build_surface
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.gossip import simulate_gossip_batch
from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_exponential,
)
from repro.simulation.protocol_batch import simulate_protocol_batch

DIGESTS_PATH = Path(__file__).with_name("digests.json")
REGENERATE = "PYTHONPATH=src python -m tests.golden.cases"

N, REPETITIONS, Q, SEED = 300, 6, 0.9, 20080149
FANOUT, ROUNDS = 4, 8

GOSSIP_COUNTERS = ("messages_sent", "messages_dropped", "duplicates", "rounds")
PROTOCOL_COUNTERS = ("messages_sent", "messages_dropped", "control_messages", "rounds")


#: One fresh channel per run: network models carry counters and burst state.
NETWORKS: dict[str, Callable[[], NetworkModel]] = {
    "iid-loss": lambda: NetworkModel(loss_probability=0.1),
    "gilbert-elliott": lambda: GilbertElliottNetworkModel(
        loss_probability=0.02, bad_loss_probability=0.5, p_good_to_bad=0.1, p_bad_to_good=0.4
    ),
    # Mean 1.5 rounds: a good share of messages matures in a later round.
    "latency": lambda: NetworkModel(latency=latency_exponential(1.5)),
    # Combined planes: the same losses with that latency (and churn, below).
    "all-iid": lambda: NetworkModel(latency=latency_exponential(1.5), loss_probability=0.1),
    "all-ge": lambda: GilbertElliottNetworkModel(
        latency=latency_exponential(1.5),
        loss_probability=0.02,
        bad_loss_probability=0.5,
        p_good_to_bad=0.1,
        p_bad_to_good=0.4,
    ),
}
CHURN = PoissonChurnModel(leave_rate=0.02, join_rate=0.2, initially_absent=0.05)
#: Planes that run with every plane on.
COMBINED = ("all-iid", "all-ge")


#: Registered experiments whose ``--scale small`` table is hashed.
EXPERIMENTS = (
    "fig2",
    "fig3",
    "fig4",
    "fig5",
    "fig6",
    "fig7",
    "sec4_percolation_validation",
    "protocol_comparison",
    "loss_resilience",
    "churn_resilience",
    "recovery_resilience",
    "latency_profile",
)
#: Registered experiments left out of the digests, and why.
UNDIGESTED_EXPERIMENTS = {
    "dimensioning": "takes about 28 s at small scale, too slow for tier-1",
    "surface_dimensioning": "prints its build time and wall-clock speedups",
}

#: The request lines of the ``serve/stream`` case, in the order they are sent.
SERVE_LINES = (
    # One key as a miss, as a hit, and as a hit with an id.
    '{"op": "reliability", "q": 0.9, "loss": 0.1, "fanout": 4}',
    '{"op": "reliability", "q": 0.9, "loss": 0.1, "fanout": 4}',
    '{"op": "reliability", "q": 0.9, "loss": 0.1, "fanout": 4, "id": "hit"}',
    # A grid point: the cell itself, no interpolation.
    '{"op": "reliability", "q": 0.8, "loss": 0.2, "fanout": 5}',
    # Ids of every JSON scalar kind; a list id is refused.
    '{"op": "reliability", "q": 0.9, "loss": 0.1, "fanout": 4, "id": "\u00f1-\u03b2"}',
    '{"op": "info", "id": 12345678901234567890}',
    '{"op": "pareto", "q": 0.9, "target": 0.6, "id": -2.5}',
    '{"op": "dimension", "q": 0.9, "target": 0.6, "id": true}',
    '{"op": "reliability", "q": 1.0, "loss": 0.0, "fanout": 9, "id": null}',
    '{"op": "info", "id": [1]}',
    # Infeasible (NaN achieved reliability and cost), min_cost, and off-grid live.
    '{"op": "dimension", "q": 0.8, "loss": 0.2, "target": 0.99999}',
    '{"op": "dimension", "q": 0.9, "target": 0.6, "objective": "min_cost"}',
    '{"op": "dimension", "q": 0.5, "target": 0.3, "live_fallback": true}',
    '{"op": "pareto", "q": 0.9, "target": 0.99}',
    '{"op": "pareto", "q": 1.0, "loss": 0.2, "target": 0.6}',
    '{"op": "info"}',
    # Bad JSON, a non-object, an unknown op, a missing field, a string
    # coordinate, an off-grid point and a target outside (0, 1).
    '{"op": "reliability", "q": ',
    "[1, 2]",
    '{"op": "teleport", "id": 7}',
    '{"op": "reliability", "q": 0.9}',
    '{"op": "reliability", "q": "0.9", "fanout": 4}',
    '{"op": "reliability", "q": 0.5, "fanout": 4}',
    '{"op": "dimension", "q": 0.9, "target": 1.5}',
    '{"op": "shutdown"}',
    '{"op": "info"}',
)


def _has_churn(plane: str) -> bool:
    return plane == "churn" or plane in COMBINED


def digest(result: Any, counters: tuple[str, ...], *, times: bool = False) -> str:
    """SHA-256 over a batched result's delivered masks and integer counters.

    With ``times`` the ``(R, n)`` float delivery times are hashed too.
    """
    h = hashlib.sha256()
    fields = [("delivered", np.asarray(result.delivered, dtype=np.uint8))]
    for name in counters:
        value = getattr(result, name)
        value = value() if callable(value) else value
        fields.append((name, np.asarray(value, dtype="<i8")))
    if times:
        fields.append(("delivery_times", np.asarray(result.delivery_times, dtype="<f8")))
    for name, array in fields:
        h.update(f"{name}:{array.shape}:".encode())
        h.update(np.ascontiguousarray(array).tobytes())
    return h.hexdigest()


def _gossip_case(plane: str) -> Callable[[], str]:
    def run() -> str:
        rng = np.random.default_rng(SEED)
        result = simulate_gossip_batch(
            N,
            PoissonFanout(float(FANOUT)),
            Q,
            repetitions=REPETITIONS,
            seed=rng,
            network=NETWORKS[plane]() if plane in NETWORKS else None,
            churn=CHURN.draw_batch(N, REPETITIONS, rng) if _has_churn(plane) else None,
        )
        return digest(result, GOSSIP_COUNTERS, times=plane in NETWORKS)

    return run


def _protocol_case(protocol: Any, plane: str) -> Callable[[], str]:
    def run() -> str:
        result = simulate_protocol_batch(
            protocol,
            N,
            Q,
            repetitions=REPETITIONS,
            seed=SEED,
            network=NETWORKS[plane]() if plane in NETWORKS else None,
            churn=CHURN if _has_churn(plane) else None,
        )
        return digest(result, PROTOCOL_COUNTERS, times=plane in NETWORKS)

    return run


def _experiment_case(experiment_id: str) -> Callable[[], str]:
    def run() -> str:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            cli_main(["run", experiment_id, "--scale", "small"])
        return hashlib.sha256(out.getvalue().encode()).hexdigest()

    return run


def _serve_stream() -> str:
    surface = build_surface(
        SurfaceGrid(ns=(64,), qs=(0.8, 1.0), losses=(0.0, 0.2), fanouts=(2.0, 5.0, 9.0)),
        repetitions=24,
        seed=SEED,
    )
    out = io.StringIO()
    serve_loop(surface, io.StringIO("\n".join(SERVE_LINES) + "\n"), out)
    return hashlib.sha256(out.getvalue().encode()).hexdigest()


def cases() -> dict[str, Callable[[], str]]:
    """Every golden case by id (``<engine or protocol id>/<plane>``, ``serve/stream``,
    ``experiment/<id>``)."""
    out = {
        f"gossip/{plane}": _gossip_case(plane)
        for plane in ("plain", "iid-loss", "latency", "churn", *COMBINED)
    }
    zoo = protocol_zoo(FANOUT, ROUNDS, include_peer_sampling=True, include_recovery=True)
    for protocol_id, protocol in zoo:
        for plane in ("plain", "iid-loss", "gilbert-elliott", "churn", "latency", *COMBINED):
            out[f"{protocol_id}/{plane}"] = _protocol_case(protocol, plane)
    out["serve/stream"] = _serve_stream
    for experiment_id in EXPERIMENTS:
        out[f"experiment/{experiment_id}"] = _experiment_case(experiment_id)
    return out


def main() -> None:
    """Run every case and rewrite ``digests.json``."""
    digests = {case_id: run() for case_id, run in cases().items()}
    record = {
        "numpy": np.__version__,
        "command": REGENERATE,
        "scale": {"n": N, "repetitions": REPETITIONS, "q": Q, "seed": SEED},
        "digests": digests,
    }
    DIGESTS_PATH.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {len(digests)} digests to {DIGESTS_PATH}")


if __name__ == "__main__":
    main()
