"""Cold-start guard: importing ``repro`` and running the benchmarked paths loads no scipy.

scipy's import costs about a second of CPU, which every ``repro`` command and
every benchmark run would pay before its first answer.  The two scipy numerics
these paths need are ported in :mod:`repro.utils.numerics`, and every other
scipy use imports it inside the function that needs it.  This test runs a
tiny version of each ``BENCHMARK.json`` workload in a fresh interpreter and
fails if any ``scipy`` module was loaded.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"

SCRIPT = r"""
import io
import json
import sys
import tempfile
from pathlib import Path

import repro, repro.cli, repro.analysis, repro.serving, repro.simulation
import repro.protocols, repro.experiments, repro.graphs
from repro.analysis.dimensioning import dimension_fanout
from repro.experiments.fig5_reliability_5000 import Fig5Config
from repro.experiments.protocol_comparison import protocol_zoo
from repro.experiments.reliability_figures import run_reliability_figure
from repro.serving.serve import serve_loop
from repro.serving.surface import SurfaceGrid, build_surface, load_surface
from repro.simulation.churn import PoissonChurnModel
from repro.simulation.network import NetworkModel, latency_exponential
from repro.simulation.protocol_batch import simulate_protocol_batch

# fig5_sweep: the Fig. 5 sweep (Eq. 11 curve and the batched engine).
run_reliability_figure(Fig5Config(seed=1).scaled(n=300, repetitions=2))

# zoo_planes: every zoo protocol with loss, churn and latency on.
churn = PoissonChurnModel(leave_rate=0.01, join_rate=0.2, initially_absent=0.05)
for _, protocol in protocol_zoo(4, 8, include_peer_sampling=True, include_recovery=True):
    network = NetworkModel(latency=latency_exponential(0.5), loss_probability=0.1)
    simulate_protocol_batch(protocol, 200, 0.9, repetitions=2, seed=2, network=network,
                            churn=churn)

# dimensioning_service: a lossy solve, a surface round trip and a served stream.
dimension_fanout(200, 0.9, 0.9, loss=0.1, seed=3)
grid = SurfaceGrid(ns=(100,), qs=(0.9,), losses=(0.0,), fanouts=(2.0, 4.0))
with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "surface.npz"
    build_surface(grid, repetitions=8, seed=4).save(path)
    surface = load_surface(path)
requests = [
    {"op": "reliability", "n": 100, "q": 0.9, "loss": 0.0, "fanout": 3.0},
    {"op": "dimension", "n": 100, "q": 0.9, "loss": 0.0, "target": 0.5},
    {"op": "pareto", "n": 100, "q": 0.9, "loss": 0.0, "target": 0.5},
]
stdin = io.StringIO("".join(json.dumps(r) + "\n" for r in requests) + '{"op": \n')
stdout = io.StringIO()
serve_loop(surface, stdin, stdout)
print(json.dumps({
    "ok": [json.loads(line)["ok"] for line in stdout.getvalue().splitlines()],
    "scipy": sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy.")),
}))
"""


def test_benchmarked_paths_load_no_scipy():
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT], env=env, capture_output=True, text=True, timeout=120,
        check=False,
    )
    assert done.returncode == 0, done.stderr
    report = json.loads(done.stdout.splitlines()[-1])
    assert report["ok"] == [True, True, True, False]
    assert report["scipy"] == []
