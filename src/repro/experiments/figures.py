"""The paper's six evaluation figures as sweep specifications.

Each ``figN`` function returns the :class:`~repro.experiments.SweepSpec`
that regenerates the corresponding figure of Section VI.  The sweep axes
come straight from the paper:

* Fig. 6 / Fig. 9 — number of slots ``m ∈ {30, 40, 50, 60, 70, 80}``,
* Fig. 7 / Fig. 10 — smartphone arrival rate ``λ ∈ {4, 5, 6, 7, 8}``,
* Fig. 8 / Fig. 11 — average real cost ``c̄ ∈ {10, 20, 30, 40, 50}``,

with welfare on the y-axis for Figs. 6–8 and overpayment ratio for
Figs. 9–11 (the same sweep measures both, so e.g. ``fig6`` and ``fig9``
share a spec and differ only in which metric a report reads).
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Tuple

from repro.errors import ExperimentError
from repro.experiments.config import ExperimentConfig
from repro.experiments.sweeps import SweepSpec

#: Sweep axes from the paper's x-axis ticks.
SLOT_VALUES: Tuple[int, ...] = (30, 40, 50, 60, 70, 80)
PHONE_RATE_VALUES: Tuple[float, ...] = (4.0, 5.0, 6.0, 7.0, 8.0)
MEAN_COST_VALUES: Tuple[float, ...] = (10.0, 20.0, 30.0, 40.0, 50.0)


def _config(repetitions: int, base_seed: int) -> ExperimentConfig:
    return ExperimentConfig(repetitions=repetitions, base_seed=base_seed)


def fig6(repetitions: int = 10, base_seed: int = 2014) -> SweepSpec:
    """Fig. 6: social welfare ω vs. number of slots m."""
    return SweepSpec(
        name="fig6",
        title="Social welfare vs. number of slots m (Fig. 6)",
        param="num_slots",
        values=SLOT_VALUES,
        config=_config(repetitions, base_seed),
    )


def fig7(repetitions: int = 10, base_seed: int = 2014) -> SweepSpec:
    """Fig. 7: social welfare ω vs. smartphone arrival rate λ."""
    return SweepSpec(
        name="fig7",
        title="Social welfare vs. smartphone arrival rate λ (Fig. 7)",
        param="phone_rate",
        values=PHONE_RATE_VALUES,
        config=_config(repetitions, base_seed),
    )


def fig8(repetitions: int = 10, base_seed: int = 2014) -> SweepSpec:
    """Fig. 8: social welfare ω vs. average of real costs c̄."""
    return SweepSpec(
        name="fig8",
        title="Social welfare vs. average of real costs (Fig. 8)",
        param="mean_cost",
        values=MEAN_COST_VALUES,
        config=_config(repetitions, base_seed),
    )


def fig9(repetitions: int = 10, base_seed: int = 2014) -> SweepSpec:
    """Fig. 9: overpayment ratio σ vs. number of slots m."""
    spec = fig6(repetitions, base_seed)
    return SweepSpec(
        name="fig9",
        title="Overpayment ratio vs. number of slots m (Fig. 9)",
        param=spec.param,
        values=spec.values,
        config=spec.config,
    )


def fig10(repetitions: int = 10, base_seed: int = 2014) -> SweepSpec:
    """Fig. 10: overpayment ratio σ vs. smartphone arrival rate λ."""
    spec = fig7(repetitions, base_seed)
    return SweepSpec(
        name="fig10",
        title="Overpayment ratio vs. smartphone arrival rate λ (Fig. 10)",
        param=spec.param,
        values=spec.values,
        config=spec.config,
    )


def fig11(repetitions: int = 10, base_seed: int = 2014) -> SweepSpec:
    """Fig. 11: overpayment ratio σ vs. average of real costs c̄."""
    spec = fig8(repetitions, base_seed)
    return SweepSpec(
        name="fig11",
        title="Overpayment ratio vs. average of real costs (Fig. 11)",
        param=spec.param,
        values=spec.values,
        config=spec.config,
    )


#: Figure name -> spec builder.
FIGURES: Dict[str, Callable[..., SweepSpec]] = {
    "fig6": fig6,
    "fig7": fig7,
    "fig8": fig8,
    "fig9": fig9,
    "fig10": fig10,
    "fig11": fig11,
}

#: Which metric each figure plots.
FIGURE_METRIC: Dict[str, str] = {
    "fig6": "welfare",
    "fig7": "welfare",
    "fig8": "welfare",
    "fig9": "overpayment_ratio",
    "fig10": "overpayment_ratio",
    "fig11": "overpayment_ratio",
}


def list_figures() -> Tuple[str, ...]:
    """All figure names, in paper order."""
    return tuple(FIGURES)


def figure_spec(
    name: str,
    repetitions: int = 10,
    base_seed: Optional[int] = None,
) -> SweepSpec:
    """Build the spec of one figure by name."""
    try:
        builder = FIGURES[name]
    except KeyError:
        raise ExperimentError(
            f"unknown figure {name!r}; available: {sorted(FIGURES)}"
        ) from None
    if base_seed is None:
        return builder(repetitions=repetitions)
    return builder(repetitions=repetitions, base_seed=base_seed)
