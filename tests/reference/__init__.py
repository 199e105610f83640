"""Independent implementations kept only to pin statistics and streams in tests.

``sampling_keysort`` holds the key-sort collision flags that the distinct
sampler's per-shape checks must equal, and ``sampling_padded`` the padded
sampler whose stream the one-``k`` draws must read.  ``scalar_protocols``
holds the scalar dissemination engines the batched ones are pinned to,
``latency_plane`` and ``surface_interpolation`` the kernels their faster
replacements must match, and ``dimensioning_grid`` the dense-grid walk,
``dense_grid_dimension``, that the dimensioning solver is held to.
"""
