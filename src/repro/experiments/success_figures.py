"""Shared machinery for the success-of-gossiping figures (Figs. 6 and 7).

Protocol (Section 5.2): group of 2000 members, the gossip algorithm is run 20
times per simulation, each simulation is repeated 100 times, and the
distribution of the success count ``X`` is compared with the Binomial
``B(20, R(q, Po(z)))``.  The two figures differ only in the parameter pair:
{f = 4.0, q = 0.9} for Fig. 6 and {f = 6.0, q = 0.6} for Fig. 7 — both have
``f·q = 3.6`` and therefore the same analytical reliability (≈ 0.967 in the
paper's rounding), which is precisely the point the paper makes.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.binomial_fit import BinomialFit, ChiSquareResult, chi_square_binomial_test, fit_binomial
from repro.analysis.tables import pmf_to_table
from repro.core.distributions import PoissonFanout
from repro.core.success import min_executions
from repro.simulation.metrics import SuccessCountResult
from repro.simulation.rounds import simulate_success_counts
from repro.utils.validation import check_integer, check_probability

__all__ = ["SuccessFigureConfig", "SuccessFigureResult", "run_success_figure"]


@dataclass(frozen=True)
class SuccessFigureConfig:
    """Configuration of a success-count figure.

    Attributes
    ----------
    n:
        Group size (paper: 2000).
    mean_fanout, q:
        The {f, q} parameter pair of the figure.
    executions:
        Executions per simulation (paper: 20).
    simulations:
        Number of simulations, i.e. samples of ``X`` (paper: 100).
    required_success:
        The success requirement used for the "minimum executions" side
        calculation (paper: 0.999).
    mode:
        Success-count mode; ``"per_member"`` reproduces the paper's Binomial
        comparison (see :mod:`repro.simulation.rounds`).
    condition_on_spread:
        Condition each trial on the gossip taking off, matching the paper's
        use of the analytical reliability as the Bernoulli success
        probability (see ``conditional_on_spread`` of
        :func:`repro.simulation.runner.estimate_reliability`).
    """

    n: int = 2000
    mean_fanout: float = 4.0
    q: float = 0.9
    executions: int = 20
    simulations: int = 100
    required_success: float = 0.999
    mode: str = "per_member"
    condition_on_spread: bool = True
    seed: int = 20080156

    def __post_init__(self) -> None:
        check_integer("n", self.n, minimum=2)
        check_integer("executions", self.executions, minimum=1)
        check_integer("simulations", self.simulations, minimum=1)
        check_probability("q", self.q)
        check_probability("required_success", self.required_success, allow_one=False)

    def scaled(self, *, n: int | None = None, simulations: int | None = None) -> "SuccessFigureConfig":
        """Return a copy with a smaller group / fewer simulations (for quick runs)."""
        return SuccessFigureConfig(
            n=n if n is not None else self.n,
            mean_fanout=self.mean_fanout,
            q=self.q,
            executions=self.executions,
            simulations=simulations if simulations is not None else self.simulations,
            required_success=self.required_success,
            mode=self.mode,
            condition_on_spread=self.condition_on_spread,
            seed=self.seed,
        )


@dataclass(frozen=True)
class SuccessFigureResult:
    """Result of a success-count figure.

    Bundles the empirical/Binomial PMFs, the MLE fit of the success
    probability, the chi-square goodness of fit, and the Eq. 6 minimum
    executions derived from the analytical reliability.
    """

    config: SuccessFigureConfig
    counts: SuccessCountResult
    fit: BinomialFit
    chi_square: ChiSquareResult
    required_executions: int

    def to_table(self, *, precision: int = 4) -> str:
        """Render the Pr(X = k) table (the figure's bars and line)."""
        return pmf_to_table(self.counts, precision=precision)

    def check_shape(self, *, probability_tolerance: float = 0.05, tv_tolerance: float = 0.35) -> list[str]:
        """Check the qualitative Figs. 6-7 claims.

        * The empirical success probability matches the analytical
          reliability within ``probability_tolerance``.
        * The empirical PMF is close to the Binomial reference in total
          variation distance.
        * The distribution concentrates near ``X = t`` (its mode is in the
          top quarter of the support), as both figures show.
        """
        problems: list[str] = []
        if self.fit.absolute_difference > probability_tolerance:
            problems.append(
                "empirical success probability "
                f"{self.fit.estimated_probability:.3f} differs from analytical "
                f"{self.fit.reference_probability:.3f} by more than {probability_tolerance}"
            )
        tv = self.counts.total_variation_distance()
        if tv > tv_tolerance:
            problems.append(f"total variation distance {tv:.3f} exceeds {tv_tolerance}")
        mode = int(np.argmax(self.counts.empirical_pmf))
        if mode < int(0.75 * self.config.executions):
            problems.append(
                f"empirical mode {mode} is not concentrated near t={self.config.executions}"
            )
        return problems


def run_success_figure(config: SuccessFigureConfig) -> SuccessFigureResult:
    """Run one success-count experiment and its goodness-of-fit analysis."""
    counts = simulate_success_counts(
        config.n,
        PoissonFanout(config.mean_fanout),
        config.q,
        executions=config.executions,
        simulations=config.simulations,
        mode=config.mode,
        condition_on_spread=config.condition_on_spread,
        seed=config.seed,
    )
    fit = fit_binomial(counts.counts, config.executions, counts.analytical_reliability)
    chi_square = chi_square_binomial_test(
        counts.counts, config.executions, counts.analytical_reliability
    )
    required = min_executions(config.required_success, counts.analytical_reliability)
    return SuccessFigureResult(
        config=config,
        counts=counts,
        fit=fit,
        chi_square=chi_square,
        required_executions=required,
    )
