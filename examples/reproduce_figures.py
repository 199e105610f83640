#!/usr/bin/env python
"""Regenerate any of the paper's figures from the command line.

A thin front-end over :mod:`repro.experiments`: pick a figure id, optionally
shrink the configuration for a quick look, and the script prints the same
series the paper plots plus the qualitative-shape check.

Examples::

    python examples/reproduce_figures.py fig2
    python examples/reproduce_figures.py fig4 --scale 0.3
    python examples/reproduce_figures.py all --scale 0.2
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.experiments.registry import get_experiment, list_experiments


def scale_config(spec, config, scale: float):
    """Shrink a simulation-backed configuration by ``scale`` (no-op for analytical)."""
    if spec.analytical_only or scale >= 0.999:
        return config
    if hasattr(config, "repetitions"):
        return config.scaled(
            n=max(100, int(config.n * scale)),
            repetitions=max(4, int(config.repetitions * scale)),
        )
    return config.scaled(
        n=max(200, int(config.n * scale)),
        simulations=max(15, int(config.simulations * scale)),
    )


def run_one(experiment_id: str, scale: float) -> bool:
    spec = get_experiment(experiment_id)
    config = scale_config(spec, spec.config_factory(), scale)
    print(f"\n=== {spec.experiment_id}: {spec.paper_reference} ===")
    started = time.perf_counter()
    result = spec.runner(config)
    elapsed = time.perf_counter() - started
    print(result.to_table())
    problems = result.check_shape() if scale >= 0.999 or spec.analytical_only else []
    status = "OK" if not problems else f"SHAPE VIOLATIONS: {problems}"
    print(f"\n[{spec.experiment_id}] {status}  ({elapsed:.1f}s)")
    return not problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument(
        "figure",
        choices=[spec.experiment_id for spec in list_experiments()] + ["all"],
        help="which figure to regenerate",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="shrink group sizes / repetitions by this factor (default 1.0 = paper scale)",
    )
    args = parser.parse_args(argv)

    targets = (
        [spec.experiment_id for spec in list_experiments()]
        if args.figure == "all"
        else [args.figure]
    )
    ok = all([run_one(target, args.scale) for target in targets])
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
