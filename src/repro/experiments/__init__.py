"""Experiment drivers — one module per figure of the paper's evaluation.

Each driver exposes a ``*Config`` dataclass whose defaults match the paper's
parameters, a ``run(config)`` function returning a structured result, and the
result object knows how to render itself as the table/series the paper
reports (``to_table()``) and how to check the qualitative shape the paper
claims (``check_shape()``).  The CLI's ``repro run`` and perfbench's
``fig5_sweep`` workload are thin wrappers around these drivers.

Use :func:`repro.experiments.registry.get_experiment` to look drivers up by
their experiment id (``"fig2"`` … ``"fig7"``, plus the graph-side
``"sec4_percolation_validation"``).
"""

from repro.experiments.churn_resilience import (
    ChurnPoint,
    ChurnResilienceConfig,
    ChurnResilienceResult,
    run_churn_resilience,
)
from repro.experiments.dimensioning import (
    DimensioningConfig,
    DimensioningExperimentResult,
    DimensioningPoint,
    run_dimensioning,
)
from repro.experiments.fig2_mean_fanout import Fig2Config, Fig2Result, run_fig2
from repro.experiments.fig3_min_executions import Fig3Config, Fig3Result, run_fig3
from repro.experiments.fig4_reliability_1000 import Fig4Config, Fig4Result, run_fig4
from repro.experiments.fig5_reliability_5000 import Fig5Config, Fig5Result, run_fig5
from repro.experiments.fig6_success_f4_q09 import Fig6Config, Fig6Result, run_fig6
from repro.experiments.fig7_success_f6_q06 import Fig7Config, Fig7Result, run_fig7
from repro.experiments.latency_profile import (
    LatencyPoint,
    LatencyProfileConfig,
    LatencyProfileResult,
    run_latency_profile,
)
from repro.experiments.loss_resilience import (
    LossPoint,
    LossResilienceConfig,
    LossResilienceResult,
    run_loss_resilience,
)
from repro.experiments.recovery_resilience import (
    RecoveryPoint,
    RecoveryResilienceConfig,
    RecoveryResilienceResult,
    run_recovery_resilience,
)
from repro.experiments.sec4_percolation_validation import Sec4Config, Sec4Result, run_sec4
from repro.experiments.surface_dimensioning import (
    ServingComparisonPoint,
    SurfaceDimensioningConfig,
    SurfaceDimensioningResult,
    run_surface_dimensioning,
)
from repro.experiments.registry import get_experiment, list_experiments

__all__ = [
    "Fig2Config",
    "Fig2Result",
    "run_fig2",
    "Fig3Config",
    "Fig3Result",
    "run_fig3",
    "Fig4Config",
    "Fig4Result",
    "run_fig4",
    "Fig5Config",
    "Fig5Result",
    "run_fig5",
    "Fig6Config",
    "Fig6Result",
    "run_fig6",
    "Fig7Config",
    "Fig7Result",
    "run_fig7",
    "Sec4Config",
    "Sec4Result",
    "run_sec4",
    "LatencyPoint",
    "LatencyProfileConfig",
    "LatencyProfileResult",
    "run_latency_profile",
    "LossPoint",
    "LossResilienceConfig",
    "LossResilienceResult",
    "run_loss_resilience",
    "DimensioningConfig",
    "DimensioningExperimentResult",
    "DimensioningPoint",
    "run_dimensioning",
    "ChurnPoint",
    "ChurnResilienceConfig",
    "ChurnResilienceResult",
    "run_churn_resilience",
    "RecoveryPoint",
    "RecoveryResilienceConfig",
    "RecoveryResilienceResult",
    "run_recovery_resilience",
    "ServingComparisonPoint",
    "SurfaceDimensioningConfig",
    "SurfaceDimensioningResult",
    "run_surface_dimensioning",
    "get_experiment",
    "list_experiments",
]
