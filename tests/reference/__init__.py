"""Independent implementations kept only to pin statistics and streams in tests.

The ratio benches in ``benchmarks/`` also time the scalar oracles of
:mod:`tests.reference.scalar_protocols` against the batched engines.
"""
