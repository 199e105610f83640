"""Command-line interface for the gossip fault-tolerance toolkit.

Seven sub-commands cover the workflows the library supports:

* ``repro analyze``    — analytical model of one ``Gossip(n, P, q)`` configuration
  (reliability, critical point, success of gossiping, Eq. 12 inverse).
* ``repro simulate``   — Monte-Carlo estimate of the same configuration.
* ``repro design``     — dimension a deployment: given a reliability target and
  a failure budget, compute the required mean fanout and repeat count.
* ``repro run``        — run any registered experiment, one of the paper's
  figures (fig2 … fig7) or an extension workload, with a named scale preset
  (``--scale small|medium|full``) or a float factor, e.g.
  ``repro run protocol_comparison --scale small``.  ``repro experiment`` is
  an alias of it.
* ``repro build-surface`` — precompute a certified reliability surface
  artifact (``.npz`` + manifest) for the serving layer.
* ``repro query``      — answer one reliability or dimensioning question from
  a surface artifact (microseconds instead of a fresh simulation).
* ``repro serve``      — long-running JSON-lines loop over stdin/stdout
  answering queries from a surface artifact.

The CLI is intentionally a thin shell over the public API; every number it
prints can be obtained programmatically from :mod:`repro`.
"""

from __future__ import annotations

import argparse
import io
import math
import sys
from typing import Callable, Sequence, TypeVar

_T = TypeVar("_T")

from repro.core.distributions import FanoutDistribution, PoissonFanout
from repro.core.model import GossipModel
from repro.core.poisson_case import mean_fanout_for_reliability
from repro.core.success import min_executions
from repro.experiments.registry import get_experiment, list_experiments

__all__ = ["main", "build_parser"]

#: Named ``--scale`` presets of the ``run`` sub-command.
_SCALE_PRESETS = {"small": 0.1, "medium": 0.5, "full": 1.0}

#: The largest group size a simulating sub-command accepts: the largest n the
#: repository validates (Sec. 4, n = 10**6).  A simulation allocates ``(R, n)``
#: masks, so a larger ``-n`` is refused before anything is allocated.
_MAX_SIMULATED_MEMBERS = 10**6


def _parse_scale(raw: str) -> float:
    """Parse a ``--scale`` value: a named preset or a float factor in (0, 1]."""
    try:
        scale = _SCALE_PRESETS.get(raw.lower()) if isinstance(raw, str) else None
        if scale is None:
            scale = float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"scale must be one of {sorted(_SCALE_PRESETS)} or a float, got {raw!r}"
        ) from None
    if not 0.0 < scale <= 1.0:
        raise argparse.ArgumentTypeError(f"scale must be in (0, 1], got {scale}")
    return scale


def _integer(minimum: int, maximum: int | None = None) -> Callable[[str], int]:
    """An argparse type: an integer >= ``minimum`` (and <= ``maximum``, if given)."""

    def parse(raw: str) -> int:
        try:
            value = int(raw)
        except ValueError:
            raise argparse.ArgumentTypeError(f"must be an integer, got {raw!r}") from None
        if value < minimum:
            raise argparse.ArgumentTypeError(f"must be an integer >= {minimum}, got {value}")
        if maximum is not None and value > maximum:
            raise argparse.ArgumentTypeError(f"must be an integer <= {maximum}, got {value}")
        return value

    return parse


def _number(raw: str) -> float:
    """Parse a float, refusing text that is not one as an argparse type error."""
    try:
        return float(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be a number, got {raw!r}") from None


def _positive(raw: str) -> float:
    """An argparse type: a finite number > 0."""
    value = _number(raw)
    if not (math.isfinite(value) and value > 0.0):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {raw!r}")
    return value


def _probability(*, zero: bool = True, one: bool = True) -> Callable[[str], float]:
    """An argparse type: a probability, with each end of [0, 1] closed or open."""
    interval = ("[0, " if zero else "(0, ") + ("1]" if one else "1)")

    def parse(raw: str) -> float:
        value = _number(raw)
        lo_ok = value > 0.0 or (zero and value == 0.0)
        hi_ok = value < 1.0 or (one and value == 1.0)
        if not (lo_ok and hi_ok):  # NaN fails both
            raise argparse.ArgumentTypeError(f"must be a probability in {interval}, got {raw!r}")
        return value

    return parse


def _confidence(raw: str) -> float:
    """An argparse type: a Wilson confidence in (0, 1) whose normal quantile is finite."""
    from repro.analysis.dimensioning import wilson_z

    value = _probability(zero=False, one=False)(raw)
    try:
        wilson_z(value)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return value


def _refused(exc: Exception) -> int:
    """Report a refused input on one stderr line; return the usage-error status."""
    print(f"error: {exc}", file=sys.stderr)
    return 2


def _make_distribution(name: str, mean_fanout: float) -> FanoutDistribution:
    """Build a fanout distribution of the requested family at the given mean.

    Delegates to :func:`repro.analysis.sweep.default_distribution_families`
    (one clip rule, one rounding rule) at a requested mean.
    """
    from repro.analysis.sweep import default_distribution_families

    try:
        return default_distribution_families(mean_fanout)[name.lower()]
    except KeyError:
        raise ValueError(f"unknown fanout family {name!r}") from None


def build_parser() -> argparse.ArgumentParser:
    """Build the top-level argument parser (exposed for testing)."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fault-tolerance analysis of gossip-based reliable multicast (Fan et al., ICPP 2008).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_model_arguments(p: argparse.ArgumentParser, max_members: int | None = None) -> None:
        p.add_argument(
            "--members", "-n", type=_integer(2, max_members), default=1000, help="group size n"
        )
        p.add_argument("--fanout", "-f", type=_positive, default=4.0, help="mean fanout")
        p.add_argument(
            "--family",
            choices=["poisson", "fixed", "geometric", "uniform"],
            default="poisson",
            help="fanout distribution family",
        )
        p.add_argument(
            "--alive-ratio", "-q", type=_probability(), default=0.9, help="nonfailed member ratio q"
        )

    analyze = sub.add_parser("analyze", help="analytical model of one configuration")
    add_model_arguments(analyze)
    analyze.add_argument(
        "--success-target", type=_probability(one=False), default=0.999,
        help="required success probability (Eq. 6)",
    )

    simulate = sub.add_parser("simulate", help="Monte-Carlo estimate of one configuration")
    add_model_arguments(simulate, _MAX_SIMULATED_MEMBERS)
    simulate.add_argument(
        "--repetitions", type=_integer(1), default=20, help="independent executions"
    )
    simulate.add_argument("--seed", type=_integer(0), default=None, help="RNG seed")
    simulate.add_argument(
        "--conditional",
        action="store_true",
        help="average only over executions whose dissemination took off",
    )

    design = sub.add_parser("design", help="dimension fanout and repeats for a target")
    design.add_argument("--members", "-n", type=_integer(2), default=1000, help="group size n")
    design.add_argument(
        "--reliability", type=_probability(zero=False, one=False), default=0.99,
        help="per-execution reliability target",
    )
    design.add_argument(
        "--max-failed", type=_probability(one=False), default=0.2,
        help="worst-case failed fraction to tolerate",
    )
    design.add_argument(
        "--success-target", type=_probability(one=False), default=0.999,
        help="per-member delivery target after repeats",
    )

    run = sub.add_parser(
        "run",
        aliases=["experiment"],
        help="run a registered experiment: a paper figure or an extension workload",
    )
    run.add_argument(
        "experiment",
        choices=[spec.experiment_id for spec in list_experiments()],
        help=(
            "experiment id (fig2 .. fig7, sec4_percolation_validation, "
            "protocol_comparison, loss_resilience, dimensioning, "
            "churn_resilience, recovery_resilience, latency_profile, "
            "surface_dimensioning)"
        ),
    )
    run.add_argument(
        "--scale",
        type=_parse_scale,
        default="full",
        help="small (0.1), medium (0.5), full (1.0), or a float factor in (0, 1]",
    )

    def _csv(cast: Callable[[str], _T]) -> Callable[[str], tuple[_T, ...]]:
        def parse(raw: str) -> tuple[_T, ...]:
            return tuple(cast(item) for item in raw.split(",") if item.strip())

        return parse

    build_surface = sub.add_parser(
        "build-surface", help="precompute a certified reliability surface artifact"
    )
    build_surface.add_argument("output", help="artifact path (writes <output>.npz + manifest)")
    build_surface.add_argument(
        "--protocol",
        default="gossip-poisson",
        help="surface protocol: gossip-<family> (horizon-free) or a protocol-zoo id",
    )
    build_surface.add_argument(
        "--members", "-n", type=_csv(_integer(2, _MAX_SIMULATED_MEMBERS)), default=(1000,),
        help="group sizes, comma-separated",
    )
    build_surface.add_argument(
        "--alive-ratios", "-q", type=_csv(_probability(zero=False)), default=(0.7, 0.8, 0.9, 1.0),
        help="nonfailed ratios q, comma-separated",
    )
    build_surface.add_argument(
        "--losses", type=_csv(_probability(one=False)), default=(0.0, 0.1, 0.2),
        help="per-message loss probabilities, comma-separated",
    )
    build_surface.add_argument(
        "--fanouts", type=_csv(_positive), default=(1.5, 2.5, 4.0, 6.0, 9.0),
        help="mean fanouts, comma-separated",
    )
    build_surface.add_argument(
        "--rounds", type=_csv(_integer(0)), default=None,
        help="round horizons for protocol surfaces (omit for horizon-free gossip)",
    )
    build_surface.add_argument(
        "--repetitions", type=_integer(2), default=96, help="Monte-Carlo replicas per cell"
    )
    build_surface.add_argument(
        "--confidence", type=_confidence, default=0.95,
        help="per-cell Wilson coverage",
    )
    build_surface.add_argument("--seed", type=_integer(0), default=0, help="RNG seed")
    build_surface.add_argument(
        "--processes", type=_integer(0), default=1, help="worker processes (0 = all cores)"
    )

    query = sub.add_parser(
        "query", help="answer one question from a surface artifact (one-shot)"
    )
    query.add_argument("surface", help="surface artifact path (as given to build-surface)")
    query.add_argument(
        "--op", choices=["reliability", "dimension", "pareto", "info"],
        default="reliability", help="question to ask",
    )
    query.add_argument("--members", "-n", type=int, default=None, help="group size n")
    query.add_argument("--alive-ratio", "-q", type=float, default=None, help="nonfailed ratio q")
    query.add_argument("--loss", type=float, default=0.0, help="per-message loss probability")
    query.add_argument(
        "--fanout", "-f", type=float, default=None, help="mean fanout (reliability op)"
    )
    query.add_argument("--rounds", type=int, default=None, help="round horizon (protocol surfaces)")
    query.add_argument(
        "--target", type=float, default=None, help="reliability target (dimension / pareto ops)"
    )
    query.add_argument(
        "--objective", choices=["min_fanout", "min_cost"], default="min_fanout",
        help="dimension objective",
    )
    query.add_argument(
        "--live-fallback", action="store_true",
        help="fall back to a live solve when the query is off-grid (dimension op)",
    )

    serve = sub.add_parser(
        "serve", help="JSON-lines query loop over stdin/stdout (see repro.serving.serve)"
    )
    serve.add_argument("surface", help="surface artifact path (as given to build-surface)")
    serve.add_argument(
        "--cache-size", type=_integer(1), default=4096,
        help="LRU query-cache capacity (>= 1)",
    )

    return parser


def _cmd_analyze(args: argparse.Namespace) -> int:
    dist = _make_distribution(args.family, args.fanout)
    model = GossipModel(n=args.members, distribution=dist, q=args.alive_ratio)
    reliability = model.reliability()
    print(f"configuration            : Gossip(n={args.members}, {args.family}({args.fanout}), q={args.alive_ratio})")
    print(f"critical nonfailed ratio : {model.critical_ratio():.4f}")
    print(f"supercritical            : {model.is_supercritical()}")
    print(f"reliability R(q, P)      : {reliability:.4f}")
    if reliability > 0:
        print(f"executions for {args.success_target}: {model.min_executions(args.success_target)}")
    else:
        print("executions for target    : unreachable (reliability is 0 below the critical point)")
    return 0


def _cmd_simulate(args: argparse.Namespace) -> int:
    dist = _make_distribution(args.family, args.fanout)
    model = GossipModel(n=args.members, distribution=dist, q=args.alive_ratio)
    from repro.simulation.runner import estimate_reliability

    estimate = estimate_reliability(
        args.members,
        dist,
        args.alive_ratio,
        repetitions=args.repetitions,
        seed=args.seed,
        conditional_on_spread=args.conditional,
    )
    print(f"analytical reliability  : {model.reliability():.4f}")
    print(f"simulated reliability   : {estimate.mean_reliability:.4f}  (std {estimate.std_reliability:.4f})")
    print(f"take-off rate           : {estimate.spread_rate:.2f}")
    print(f"mean gossip hops        : {estimate.mean_rounds:.1f}")
    print(f"mean messages           : {estimate.mean_messages:.0f}")
    return 0


def _cmd_design(args: argparse.Namespace) -> int:
    q = 1.0 - args.max_failed
    fanout = mean_fanout_for_reliability(args.reliability, q)
    repeats = min_executions(args.success_target, args.reliability)
    model = GossipModel(n=args.members, distribution=PoissonFanout(fanout), q=q)
    print(f"failure budget           : {args.max_failed:.0%} failed (q = {q})")
    print(f"required mean fanout (Eq. 12) : {fanout:.2f}")
    print(f"required executions (Eq. 6)   : {repeats}")
    print(f"resulting reliability         : {model.reliability():.4f}")
    print(
        "max tolerable failed fraction : "
        f"{model.max_tolerable_failure_ratio(args.reliability):.1%}"
    )
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    """Run one registered experiment at ``--scale`` (``repro run`` or ``repro experiment``)."""
    spec = get_experiment(args.experiment)
    scale = args.scale
    config = spec.config_factory()
    if not spec.analytical_only and scale < 0.999:
        if hasattr(config, "with_scale"):
            config = config.with_scale(scale)
        elif hasattr(config, "repetitions"):
            config = config.scaled(
                n=max(100, int(config.n * scale)),
                repetitions=max(4, int(config.repetitions * scale)),
            )
        else:
            config = config.scaled(
                n=max(200, int(config.n * scale)),
                simulations=max(15, int(config.simulations * scale)),
            )
    print(f"{spec.experiment_id}: {spec.paper_reference}")
    result = spec.runner(config)
    print(result.to_table())
    problems = result.check_shape() if (spec.analytical_only or scale >= 0.999) else []
    if problems:
        print("\nSHAPE VIOLATIONS:")
        for problem in problems:
            print(f"  - {problem}")
        return 1
    print("\nqualitative shape: OK")
    return 0


def _cmd_build_surface(args: argparse.Namespace) -> int:
    from repro.serving.surface import SurfaceGrid, build_surface

    grid = SurfaceGrid(
        ns=args.members,
        qs=args.alive_ratios,
        losses=args.losses,
        fanouts=args.fanouts,
        rounds=args.rounds if args.rounds else (0,),
    )
    surface = build_surface(
        grid,
        protocol=args.protocol,
        repetitions=args.repetitions,
        confidence=args.confidence,
        seed=args.seed,
        processes=args.processes or None,
    )
    npz_path, manifest_path = surface.save(args.output)
    print(f"surface  : {surface.cells} cells x {args.repetitions} replicas ({args.protocol})")
    print(f"arrays   : {npz_path}")
    print(f"manifest : {manifest_path}")
    return 0


def _cmd_query(args: argparse.Namespace) -> int:
    import json

    from repro.serving.query import SurfaceQueryEngine
    from repro.serving.serve import handle_request
    from repro.serving.surface import SurfaceValidationError, load_surface

    try:
        engine = SurfaceQueryEngine(load_surface(args.surface))
    except SurfaceValidationError as exc:
        return _refused(exc)
    request: dict = {"op": args.op, "loss": args.loss}
    if args.members is not None:
        request["n"] = args.members
    if args.alive_ratio is not None:
        request["q"] = args.alive_ratio
    if args.fanout is not None:
        request["fanout"] = args.fanout
    if args.rounds is not None:
        request["rounds"] = args.rounds
    if args.target is not None:
        request["target"] = args.target
    if args.op == "dimension":
        request["objective"] = args.objective
        request["live_fallback"] = args.live_fallback
    response = handle_request(engine, request)
    print(json.dumps(response, indent=2, sort_keys=True))
    return 0 if response.get("ok") else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from repro.serving.serve import serve_loop
    from repro.serving.surface import SurfaceValidationError, load_surface

    try:
        surface = load_surface(args.surface)
    except SurfaceValidationError as exc:
        return _refused(exc)
    # A byte that is not valid in the stream's encoding must reach the decoder
    # as text, to be answered "invalid JSON" like any other malformed line.
    if isinstance(sys.stdin, io.TextIOWrapper):
        sys.stdin.reconfigure(errors="replace")
    served = serve_loop(surface, sys.stdin, sys.stdout, cache_size=args.cache_size)
    print(f"served {served} requests", file=sys.stderr)
    return 0


def main(argv: Sequence[str] | None = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command in ("analyze", "simulate") and args.fanout > args.members - 1:
        # No member can address more peers than the group holds.
        parser.error(
            f"argument --fanout/-f: mean fanout {args.fanout:g} exceeds "
            f"--members/-n {args.members} minus 1 ({args.members - 1})"
        )
    handlers = {
        "analyze": _cmd_analyze,
        "simulate": _cmd_simulate,
        "design": _cmd_design,
        "run": _cmd_run,
        "experiment": _cmd_run,
        "build-surface": _cmd_build_surface,
        "query": _cmd_query,
        "serve": _cmd_serve,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
