"""Paired statistical comparison of two mechanisms.

"Offline offers a larger social welfare than online" is a *paired*
claim: both mechanisms run on the same scenarios (same seeds), so the
right statistic is the per-scenario difference, not two independent
means.  :func:`paired_comparison` computes the difference series, its
mean and confidence interval, a paired t statistic, and the win/tie/loss
record — the standard evidence for mechanism-vs-mechanism claims.
"""

from __future__ import annotations

import dataclasses
import math
from typing import List, Optional, Sequence

from repro.errors import ValidationError
from repro.mechanisms.base import Mechanism
from repro.metrics.summary import Summary, summarize
from repro.simulation.engine import SimulationEngine
from repro.simulation.workload import WorkloadConfig

#: Two-sided 97.5% normal quantile (large-sample t approximation).
_Z_95 = 1.959963984540054


@dataclasses.dataclass(frozen=True)
class PairedComparison:
    """Result of comparing mechanism A against mechanism B, paired.

    Attributes
    ----------
    metric:
        Which metric was compared (``"welfare"`` or ``"total_payment"``).
    differences:
        Per-scenario ``A − B`` values, in seed order.
    diff:
        Summary of the differences (mean > 0 ⇒ A ahead on average).
    t_statistic:
        Paired t statistic of the mean difference (``None`` when the
        differences are constant or there is a single pair).
    wins, ties, losses:
        Scenario counts where A beat / tied / trailed B (1e-9 tolerance).
    """

    metric: str
    differences: Sequence[float]
    diff: Summary
    t_statistic: Optional[float]
    wins: int
    ties: int
    losses: int

    @property
    def significant_at_95(self) -> bool:
        """Whether the mean difference is nonzero at ~95% confidence."""
        if self.t_statistic is None:
            return False
        return abs(self.t_statistic) > _Z_95

    def describe(self, label_a: str = "A", label_b: str = "B") -> str:
        """One-line human-readable summary."""
        verdict = (
            "significant" if self.significant_at_95 else "not significant"
        )
        return (
            f"{label_a} − {label_b} ({self.metric}): "
            f"{self.diff.mean:+.3f} ± {self.diff.ci95:.3f} "
            f"(w/t/l {self.wins}/{self.ties}/{self.losses}, {verdict})"
        )


_METRICS = ("welfare", "total_payment", "tasks_served")


def paired_comparison(
    mechanism_a: Mechanism,
    mechanism_b: Mechanism,
    workload: WorkloadConfig,
    seeds: Sequence[int],
    metric: str = "welfare",
) -> PairedComparison:
    """Run both mechanisms on the same seeded scenarios and compare.

    ``metric`` is ``"welfare"`` (true social welfare),
    ``"total_payment"``, or ``"tasks_served"``.
    """
    if metric not in _METRICS:
        raise ValidationError(
            f"unknown metric {metric!r}; expected one of {_METRICS}"
        )
    if not seeds:
        raise ValidationError("seeds must not be empty")

    differences: List[float] = []
    wins = ties = losses = 0
    for seed in seeds:
        columns = workload.generate_columns(seed=seed)
        result_a = SimulationEngine.run_columns(mechanism_a, columns)
        result_b = SimulationEngine.run_columns(mechanism_b, columns)
        if metric == "welfare":
            value_a, value_b = result_a.true_welfare, result_b.true_welfare
        elif metric == "total_payment":
            value_a, value_b = (
                result_a.total_payment,
                result_b.total_payment,
            )
        else:
            value_a, value_b = (
                float(result_a.tasks_served),
                float(result_b.tasks_served),
            )
        delta = value_a - value_b
        differences.append(delta)
        if delta > 1e-9:
            wins += 1
        elif delta < -1e-9:
            losses += 1
        else:
            ties += 1

    diff = summarize(differences)
    if diff.count > 1 and diff.std > 0.0:
        t_statistic = diff.mean / (diff.std / math.sqrt(diff.count))
    else:
        t_statistic = None
    return PairedComparison(
        metric=metric,
        differences=tuple(differences),
        diff=diff,
        t_statistic=t_statistic,
        wins=wins,
        ties=ties,
        losses=losses,
    )
