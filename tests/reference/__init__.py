"""Independent implementations kept only to pin statistics and streams in tests.

``sampling_keysort`` holds the key-sort collision flags that the distinct
sampler's per-shape checks must equal, and ``sampling_padded`` the padded
sampler whose stream the one-``k`` draws must read.  The ratio benches in
``benchmarks/`` also time the scalar oracles of
:mod:`tests.reference.scalar_protocols` against the batched engines.
"""
