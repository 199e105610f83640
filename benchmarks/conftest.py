"""Pytest configuration for the benchmark/reproduction harness.

Every ``bench_fig*.py`` module regenerates one table or figure of the paper:
it runs the corresponding experiment driver, prints the same rows/series the
paper reports, and asserts the qualitative shape (threshold location,
monotonicity, analysis-vs-simulation agreement, who wins and by roughly what
factor).  Timings are collected with pytest-benchmark so the harness doubles
as a performance regression suite.

Scaling
-------
The default configurations are the paper's (n = 1000/5000/2000, 20
repetitions, 100 simulations).  Set the environment variable
``REPRO_BENCH_SCALE`` to a value in (0, 1] to shrink group sizes and
repetition counts proportionally for quick smoke runs, e.g.::

    REPRO_BENCH_SCALE=0.2 pytest benchmarks/ --benchmark-only
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

# Make `from _bench_utils import ...` and the scalar oracles in
# `tests.reference` importable regardless of how pytest was invoked.
sys.path.insert(0, str(Path(__file__).resolve().parent))
sys.path.insert(1, str(Path(__file__).resolve().parent.parent))

from _bench_utils import bench_scale  # noqa: E402


@pytest.fixture(scope="session")
def scale() -> float:
    """The session-wide benchmark scale factor."""
    return bench_scale()
