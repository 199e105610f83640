"""The benchmark's workloads: set-up, one timed pass, and the output checks.

Each workload object is built once per process.  :meth:`setup` does the
one-off work a user pays before the first answer (construction, warm-up and,
for the service, the surface build/save/load); :meth:`run_pass` performs one
fixed-seed unit of work and returns a :class:`PassResult` with its timings,
its checked operations and the digest of its outputs.

The benchmark calls into ``repro`` through module attributes
(``protocol_batch.simulate_protocol_batch``, ...), never through names bound
here, so the tracer's wrappers see every call the benchmark makes.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, field, replace
from pathlib import Path
from time import process_time
from types import ModuleType
from typing import Any, Callable, Iterator

import numpy as np

import repro.analysis.dimensioning as dimensioning
import repro.experiments.reliability_figures as reliability_figures
import repro.serving.serve as serve
import repro.serving.surface as surface
import repro.simulation.protocol_batch as protocol_batch
import repro.simulation.runner as runner
from repro.analysis.compare import compare_sweep
from repro.experiments.fig5_reliability_5000 import Fig5Config
from repro.experiments.protocol_comparison import protocol_zoo
from repro.protocols import PbcastProtocol
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.network import (
    GilbertElliottNetworkModel,
    NetworkModel,
    latency_exponential,
)

__all__ = ["CACHE_COUNTERS", "PassResult", "WORKLOADS", "Workload", "clock", "derive_seed"]

#: The benchmark's timings read the process CPU clock.  Every workload runs
#: serially in one thread, so CPU seconds are the time the work itself took;
#: wall time on a shared machine adds however long other tenants kept the
#: process off a core, which varied a same-seed Fig. 5 sweep by +-10% where
#: CPU time varied by +-3%.
clock = process_time

#: Streams of :func:`derive_seed`: timed passes and set-up (warm-up, surface).
PASS, SETUP = 0, 1

#: The query cache's counters, read off the stream's final ``info`` response.
CACHE_COUNTERS = ("hits", "misses", "evictions")


def derive_seed(seed: int, stream: int, index: int) -> int:
    """Return the integer seed of item ``index`` of ``stream`` in a run seeded ``seed``."""
    return int(np.random.SeedSequence([seed, stream, index]).generate_state(1)[0])


@dataclass
class PassResult:
    """Timings, checked operations and output digest of one workload pass.

    Attributes
    ----------
    replicas:
        Monte-Carlo replica executions the pass completed.
    solve_s:
        Seconds for the pass's fixed task: the Fig. 5 sweep, the zoo's legs,
        or the service's list of live solves.
    requests, request_s, p50_s, p99_s:
        Requests the pass answered, the sum of their latencies, and the
        latencies' median and 99th percentile.  A request is the unit a
        caller submits and waits on: one Fig. 5 cell (an
        ``estimate_reliability`` call), one zoo leg (a
        ``simulate_protocol_batch`` call), or one served JSON line.  Only
        these summaries are kept, so a run's memory does not grow with the
        number of passes it fits in.
    attempted, failures:
        Operations checked, and a message per failed check.
    digest, outputs:
        SHA-256 over the pass's fixed-seed output lines, and their number.
    figure, estimates:
        The Fig. 5 result of a ``fig5_sweep`` pass and the
        ``ReliabilityEstimate`` behind each of its cells.
    stats:
        Exact counters of the pass: the query cache's (``hits``, ``misses``,
        ``evictions``) and the served requests of each kind (``kind.<kind>``).
    """

    replicas: int = 0
    solve_s: float = 0.0
    requests: int = 0
    request_s: float = 0.0
    p50_s: float = 0.0
    p99_s: float = 0.0
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    digest: Any = field(default_factory=hashlib.sha256)
    outputs: int = 0
    figure: Any = None
    estimates: list[Any] = field(default_factory=list)
    stats: dict[str, int] = field(default_factory=dict)

    def check(self, ok: bool, message: str) -> None:
        """Book one checked operation; record ``message`` when it failed."""
        self.attempted += 1
        if not ok:
            self.failures.append(message)

    def output(self, line: str) -> None:
        """Fold one fixed-seed output line into the digest."""
        self.digest.update(line.encode() + b"\n")
        self.outputs += 1

    def latencies(self, values: np.ndarray) -> None:
        """Book the pass's request latencies as their number, sum and percentiles."""
        self.requests = int(values.size)
        self.request_s = float(values.sum())
        if values.size:
            self.p50_s, self.p99_s = (float(v) for v in np.percentile(values, [50, 99]))


def _fmt(*values: Any) -> str:
    """Render values exactly (floats by ``repr``) for the output digest."""
    return " ".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v)
                    for v in values)


class CallTimer:
    """Time every call of a function through one module's binding of it, keeping its results."""

    def __init__(self, module: ModuleType, name: str) -> None:
        self._module = module
        self._name = name
        self.durations: list[float] = []
        self.results: list[Any] = []

    def __enter__(self) -> CallTimer:
        original: Callable[..., Any] = getattr(self._module, self._name)
        self._original = original

        def timed(*args: Any, **kwargs: Any) -> Any:
            start = clock()
            result = original(*args, **kwargs)
            self.durations.append(clock() - start)
            self.results.append(result)
            return result

        setattr(self._module, self._name, timed)
        return self

    def __exit__(self, *exc: object) -> None:
        setattr(self._module, self._name, self._original)


class Workload:
    """Interface of a workload; :meth:`finish` adds checks over a whole run."""

    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def finish(self, passes: list[PassResult]) -> PassResult:
        """Checks that need every pass of the run (none by default)."""
        return PassResult()


class Fig5Sweep(Workload):
    """The paper's Fig. 5 at paper scale: 15 fanouts x 7 q x 20 replicas, n=5000."""

    name = "fig5_sweep"

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        # Warm-up: the same sweep at n=500 with two replicas per cell.
        warm = Fig5Config(seed=derive_seed(seed, SETUP, 0)).scaled(n=500, repetitions=2)
        reliability_figures.run_reliability_figure(warm)

    def run_pass(self, index: int) -> PassResult:
        out = PassResult()
        config = Fig5Config(seed=derive_seed(self.seed, PASS, index))
        with CallTimer(runner, "estimate_reliability") as cells:
            start = clock()
            out.figure = reliability_figures.run_reliability_figure(config)
            out.solve_s = clock() - start
        out.latencies(np.array(cells.durations))
        out.estimates = cells.results
        out.replicas = len(cells.results) * config.repetitions
        for fanout, q, simulated, analytical, _ in out.figure.sweep.to_rows():
            out.output(_fmt(fanout, q, simulated, analytical))
        return out

    def finish(self, passes: list[PassResult]) -> PassResult:
        """Run ``check_shape`` on the Fig. 5 of the whole run.

        The run's figure pools every pass's replicas per cell, as one sweep
        with that many replicas would (see :func:`_pooled`).  A single
        20-replica sweep trips the check's fanout-monotonicity clause on about
        1 sweep in 90 (near the critical fanout few replicas spread, so their
        conditional mean is noisy), which is a statistical false alarm, not a
        wrong result.
        """
        out = PassResult()
        first = passes[0].figure
        points = []
        for i, point in enumerate(first.sweep.points):
            samples = _pooled([p.estimates[i] for p in passes])
            points.append(replace(
                point, simulated=float(samples.mean()),
                simulated_std=float(samples.std(ddof=1)) if samples.size > 1 else 0.0,
                repetitions=point.repetitions * len(passes),
            ))
        sweep = replace(first.sweep, points=points)
        pooled = reliability_figures.ReliabilityFigureResult(
            config=first.config, sweep=sweep, comparisons=compare_sweep(sweep))
        problems = pooled.check_shape()
        out.check(not problems, f"check_shape over {len(passes)} sweeps: {problems}")
        return out


def _pooled(estimates: list[Any]) -> np.ndarray:
    """The replica reliabilities one estimate over the pooled replicas would average.

    Under ``conditional_on_spread`` an estimate's ``samples`` are its replicas
    that spread, or all of them when none did.  Pooled, the same rule holds:
    only replicas that spread count, unless no replica of any estimate did.
    """
    chosen = estimates
    if estimates[0].conditional_on_spread:
        chosen = [e for e in estimates if e.spread_rate > 0] or estimates
    return np.concatenate([e.samples for e in chosen])


class ZooPlanes(Workload):
    """All nine zoo protocols with loss, churn and latency on, n=5000, R=20."""

    name = "zoo_planes"
    n, q, repetitions = 5000, 0.9, 20

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        self.zoo = protocol_zoo(4, 8, include_peer_sampling=True, include_recovery=True)
        self.churn = PoissonChurnModel(leave_rate=0.01, join_rate=0.2, initially_absent=0.05)
        rng = np.random.default_rng(derive_seed(seed, SETUP, 0))
        for _, protocol in self.zoo:
            for _, network in self._channels():
                protocol_batch.simulate_protocol_batch(
                    protocol, 200, self.q, repetitions=2, seed=int(rng.integers(2**63)),
                    network=network, churn=self.churn,
                )

    @staticmethod
    def _channels() -> tuple[tuple[str, NetworkModel], ...]:
        """Fresh i.i.d. and Gilbert-Elliott channels (stateful, so one per leg)."""
        latency = latency_exponential(0.5)
        return (
            ("iid", NetworkModel(latency=latency, loss_probability=0.1)),
            ("bursty", GilbertElliottNetworkModel(
                latency=latency, loss_probability=0.02, bad_loss_probability=0.5,
                p_good_to_bad=0.1, p_bad_to_good=0.4,
            )),
        )

    def run_pass(self, index: int) -> PassResult:
        out = PassResult()
        rng = np.random.default_rng(derive_seed(self.seed, PASS, index))
        durations = []
        for protocol_id, protocol in self.zoo:
            for channel, network in self._channels():
                leg_seed = int(rng.integers(2**63))
                start = clock()
                result = protocol_batch.simulate_protocol_batch(
                    protocol, self.n, self.q, repetitions=self.repetitions, seed=leg_seed,
                    network=network, churn=self.churn,
                )
                durations.append(clock() - start)
                out.replicas += self.repetitions
                self._check(out, f"{protocol_id}/{channel}", result)
                out.output(_fmt(
                    protocol_id, channel, int(result.delivered.sum()),
                    int(result.messages_sent.sum()), int(result.messages_dropped.sum()),
                    int(result.control_messages().sum()),
                ))
        out.latencies(np.array(durations))
        out.solve_s = out.request_s
        return out

    @staticmethod
    def _check(out: PassResult, leg: str, result: Any) -> None:
        delivered, sent = result.delivered, result.messages_sent
        times = result.delivery_times
        out.check(not (delivered & ~result.alive).any(), f"{leg}: delivered outside alive")
        out.check(bool(delivered[:, result.source].all()), f"{leg}: source not delivered")
        out.check(bool((result.messages_dropped <= sent).all()), f"{leg}: dropped > sent")
        out.check(bool((result.control_messages() <= sent).all()), f"{leg}: control > sent")
        out.check(
            times is not None and np.array_equal(np.isfinite(times), delivered),
            f"{leg}: delivery_times not finite exactly on delivered cells",
        )


def _pbcast(fanout: int, rounds: int) -> PbcastProtocol:
    """Protocol factory of the service's protocol-mode solve."""
    return PbcastProtocol(fanout=fanout, rounds=rounds, broadcast_reach=0.8)


class ClosedLoopClient:
    """One client in a closed loop over :func:`repro.serving.serve.serve_loop`.

    The loop reads this object as its input stream and writes responses back
    to it, so the next request line is handed over only after the response
    to the previous one was written.  A request's latency runs from hand-over
    to response; the latencies go into an array sized for ``count`` requests
    up front.  The client's own work, making the next request
    (:meth:`request`) and checking a response (:meth:`answer`), lies outside
    every latency; they are methods so that a traced run can book them to a
    span of their own.  Nothing of a request is kept once it is answered.
    ``think`` maps a request index to work the client does before sending
    that request (a live solve); it is timed by the action itself and is not
    part of any request's latency.
    """

    def __init__(self, requests: Iterator[tuple[str, str]], count: int,
                 check: Callable[[str, str, str], None],
                 think: dict[int, Callable[[], None]] | None = None) -> None:
        self._requests = requests
        self._check = check
        self._think = think or {}
        self._pending = ("", "")
        self._sent_at = 0.0
        self.latencies_s = np.empty(count)
        self.answered = 0

    def request(self) -> str:
        """Make the next request; return its line."""
        self._pending = next(self._requests)
        return self._pending[1]

    def answer(self, text: str) -> None:
        """Check the response to the pending request."""
        self._check(*self._pending, text)

    def __iter__(self) -> Iterator[str]:
        for index in range(self.latencies_s.size):
            if index in self._think:
                self._think[index]()
            line = self.request()
            self._sent_at = clock()
            yield line

    def write(self, text: str) -> int:
        self.latencies_s[self.answered] = clock() - self._sent_at
        self.answered += 1
        self.answer(text)
        return len(text)

    def flush(self) -> None:
        """Responses are checked as they are written; nothing to flush."""


class DimensioningService(Workload):
    """A deployment designer's loop: a served request stream with live solves between.

    One pass streams :attr:`stream_requests` JSON lines through one
    ``serve_loop`` call and, at evenly spaced points of the stream, runs the
    fixed list of seeded live solves as the client's think time.  Spreading
    the solves through the stream spreads the stream's timing samples over
    the whole pass, so a slow spell of the machine cannot land on all of
    them.
    """

    name = "dimensioning_service"
    grid = surface.SurfaceGrid(
        ns=(1000,), qs=(0.7, 0.8, 0.9, 1.0), losses=(0.0, 0.1, 0.2),
        fanouts=(2.0, 3.0, 4.0, 5.0, 6.0, 8.0, 10.0),
    )
    surface_replicas = 32
    stream_requests = 45000
    #: Share of each kind of request in the stream.  The mix is an assumption,
    #: not measured traffic: nothing in the repository records how the server
    #: is used.  perfbench/README.md gives the reason for each share.
    mix = (("hot", 0.60), ("cold", 0.35), ("dimension", 0.02), ("pareto", 0.02), ("bad", 0.01))
    #: Distinct hot reliability keys, an eighth of the 4096-entry query cache.
    hot_keys = 512
    #: Range of the scans' targets, below the best certificate the surface
    #: gives (the Wilson lower bound of 32 replicas out of 32, about 0.89).
    scan_targets = (0.5, 0.85)
    #: (n, loss) of the distribution-mode solves, all at q=0.9, target 0.95.
    solves = ((1000, 0.0), (1000, 0.1), (1000, 0.2), (2000, 0.0), (2000, 0.1), (2000, 0.2))

    def setup(self, seed: int, workdir: Path) -> None:
        self.seed = seed
        built = surface.build_surface(
            self.grid, repetitions=self.surface_replicas, seed=derive_seed(seed, SETUP, 0),
        )
        path = workdir / "surface.npz"
        built.save(path)
        self.surface = surface.load_surface(path)
        # Warm-up: a short stream and a small solve.
        rng = np.random.default_rng(derive_seed(seed, SETUP, 1))
        warm = (("cold", json.dumps(self._reliability(rng))) for _ in range(64))
        client = ClosedLoopClient(warm, 64, functools.partial(self._answer, PassResult()))
        serve.serve_loop(self.surface, client, client)
        dimensioning.dimension_fanout(200, 0.9, 0.9, seed=int(rng.integers(2**63)))

    # ------------------------------------------------------------ requests

    def _reliability(self, rng: np.random.Generator) -> dict:
        """A reliability query at a random point inside the grid."""
        grid = self.grid
        return {
            "op": "reliability", "n": 1000,
            "q": round(float(rng.uniform(grid.qs[0], grid.qs[-1])), 9),
            "loss": round(float(rng.uniform(grid.losses[0], grid.losses[-1])), 9),
            "fanout": round(float(rng.uniform(grid.fanouts[0], grid.fanouts[-1])), 9),
        }

    def _on_grid(self, rng: np.random.Generator) -> dict:
        """A reliability query exactly on a grid point (no interpolation)."""
        grid = self.grid
        return {
            "op": "reliability", "n": 1000, "q": float(rng.choice(grid.qs)),
            "loss": float(rng.choice(grid.losses)), "fanout": float(rng.choice(grid.fanouts)),
        }

    def _scan(self, rng: np.random.Generator, op: str) -> dict:
        """A ``dimension`` or ``pareto`` scan at a grid (q, loss)."""
        request = {
            "op": op, "n": 1000, "q": float(rng.choice(self.grid.qs)),
            "loss": float(rng.choice(self.grid.losses)),
            "target": round(float(rng.uniform(*self.scan_targets)), 6),
        }
        if op == "dimension":
            request["objective"] = str(rng.choice(["min_fanout", "min_cost"]))
        return request

    @staticmethod
    def _bad(rng: np.random.Generator) -> str:
        """A malformed or off-grid request line; each must be answered ``ok: false``."""
        kind = int(rng.integers(5))
        if kind == 0:
            return '{"op": "reliability", "q": '  # truncated JSON
        bad = (
            {"op": "reliability", "n": 1000, "q": 0.5, "loss": 0.0, "fanout": 4.0},  # off-grid q
            {"op": "reliability", "n": 1000, "q": 0.9, "loss": 0.0, "fanout": 12.5},  # off-grid f
            {"op": "reliability", "n": 1000, "loss": 0.0, "fanout": 4.0},  # missing q
            {"op": "resolve", "n": 1000},  # unknown op
        )[kind - 1]
        return json.dumps(bad)

    def _stream(self, rng: np.random.Generator) -> Iterator[tuple[str, str]]:
        """Yield the kind and line of each request of one pass, as it is sent.

        A quarter of the hot keys lie on grid points, so the exact-cell path
        is served too; cold keys are drawn from a continuum and never repeat.
        The stream ends with one ``info`` request, which reports the cache.
        """
        hot = [json.dumps(self._on_grid(rng) if i % 4 == 0 else self._reliability(rng))
               for i in range(self.hot_keys)]
        kinds = [kind for kind, _ in self.mix]
        bounds = np.cumsum([share for _, share in self.mix])[:-1]
        for _ in range(self.stream_requests - 1):
            kind = kinds[int(np.searchsorted(bounds, rng.random(), side="right"))]
            if kind == "hot":
                yield kind, hot[int(rng.integers(self.hot_keys))]
            elif kind == "cold":
                yield kind, json.dumps(self._reliability(rng))
            elif kind == "bad":
                yield kind, self._bad(rng)
            else:
                yield kind, json.dumps(self._scan(rng, kind))
        yield "info", json.dumps({"op": "info"})

    # --------------------------------------------------------------- checks

    def _check_served(self, answer: dict) -> bool:
        """A served answer lies inside its certificate; an exact one is the surface cell."""
        if not answer["ci_low"] - 1e-12 <= answer["reliability"] <= answer["ci_high"] + 1e-12:
            return False
        if not answer["exact"]:
            return True
        grid = self.grid
        index = (0, grid.qs.index(answer["q"]), grid.losses.index(answer["loss"]),
                 grid.fanouts.index(answer["fanout"]), 0)
        return bool(answer["reliability"] == self.surface.mean[index])

    def _check_response(self, kind: str, line: str, response: dict) -> bool:
        if kind == "bad":
            return response.get("ok") is False
        if response.get("ok") is not True:
            return False
        request = json.loads(line)
        if kind in ("hot", "cold"):
            return self._check_served(response) and all(
                response[key] == request[key] for key in ("q", "loss", "fanout"))
        if kind == "dimension":
            return response["source"] == "surface" and (
                not response["feasible"]
                or request["target"] <= response["ci_low"] <= response["achieved_reliability"]
                <= response["ci_high"]
            )
        if kind == "pareto":
            return all(
                c["ci_low"] >= request["target"] and self._check_served(c)
                for c in response["frontier"]
            )
        return all(isinstance(response["cache"][key], int) for key in CACHE_COUNTERS)

    def _answer(self, out: PassResult, kind: str, line: str, text: str) -> None:
        """Check one response, fold it into the digest and count it by kind.

        A response the checks cannot read (bad JSON, a missing field, a value
        of the wrong type) is a failed check, not a crash of the benchmark.
        """
        try:
            response = json.loads(text)
            ok = self._check_response(kind, line, response)
        except (AttributeError, KeyError, TypeError, ValueError):
            ok = False
        out.check(ok, f"{kind}: {line} -> {text.rstrip()}")
        out.output(text.rstrip("\n"))
        out.stats[f"kind.{kind}"] = out.stats.get(f"kind.{kind}", 0) + 1
        if kind == "info" and ok:
            out.stats.update({key: response["cache"][key] for key in CACHE_COUNTERS})

    # ------------------------------------------------------------------ pass

    def run_pass(self, index: int) -> PassResult:
        out = PassResult()
        rng = np.random.default_rng(derive_seed(self.seed, PASS, index))
        specs: list[tuple[int, float, dict]] = [(n, loss, {}) for n, loss in self.solves]
        specs.append((1000, 0.1, {"protocol_factory": _pbcast, "solve_rounds": True}))
        seeds = [int(s) for s in rng.integers(2**63, size=len(specs))]
        answers: list[Any] = []

        def solve(n: int, loss: float, extra: dict, seed: int) -> None:
            start = clock()
            answers.append(dimensioning.dimension_fanout(n, 0.9, 0.95, loss=loss, seed=seed,
                                                         **extra))
            out.solve_s += clock() - start

        count = self.stream_requests
        think = {
            (k + 1) * count // (len(specs) + 1): functools.partial(solve, *spec, seed)
            for k, (spec, seed) in enumerate(zip(specs, seeds, strict=True))
        }
        client = ClosedLoopClient(self._stream(rng), count,
                                  functools.partial(self._answer, out), think)
        serve.serve_loop(self.surface, client, client)
        out.check(client.answered == count, f"{client.answered} responses to {count} requests")
        out.latencies(client.latencies_s[:client.answered])
        for (n, loss, _), answer in zip(specs, answers, strict=True):
            out.replicas += answer.replicas_used
            out.check(
                answer.feasible and answer.ci_low >= 0.95 and math.isfinite(answer.fanout),
                f"solve n={n} loss={loss}: {answer}",
            )
            out.output(_fmt(
                n, loss, answer.fanout, answer.rounds, answer.ci_low, answer.replicas_used,
                answer.evaluations,
            ))
        return out


#: Workload name -> factory, in the order ``--workload all`` runs them.
WORKLOADS: dict[str, Callable[[], Workload]] = {
    Fig5Sweep.name: Fig5Sweep,
    ZooPlanes.name: ZooPlanes,
    DimensioningService.name: DimensioningService,
}
