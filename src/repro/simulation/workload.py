"""Workload generation matching Table I of the paper.

Table I — summary of default settings:

===============================  =============
Parameter                        Default value
===============================  =============
Arrival rate λ of smartphones    6 (per slot)
Arrival rate λ_t of tasks        3 (per slot)
Average of real costs c̄          25
Number of slots m                50
Average length of active time    5 (10% of m)
===============================  =============

Arrivals are Poisson; active-time lengths are "uniformly selected" with
the configured average (we use the discrete uniform on
``[1, 2*avg − 1]``, which has that mean); costs default to
:class:`~repro.simulation.costs.UniformCosts` with the configured mean.

The paper never states the task value ``ν``; it is exposed here as
``task_value`` (default 30, slightly above the mean cost so that roughly
the cheaper half of phones are profitable to hire — see DESIGN.md §2).
"""

from __future__ import annotations

import dataclasses
from typing import Any, Dict, List, Optional

import numpy as np

from repro.errors import ValidationError
from repro.model.columnar import RoundColumns
from repro.simulation.arrivals import ArrivalProcess, PoissonArrivals
from repro.simulation.costs import CostDistribution, UniformCosts
from repro.simulation.scenario import Scenario
from repro.utils.rng import RngStreams
from repro.utils.validation import (
    check_non_negative,
    check_positive,
    check_type,
)


@dataclasses.dataclass(frozen=True)
class WorkloadConfig:
    """Parameters of the random workload of Section VI.

    Attributes
    ----------
    num_slots:
        Round length ``m`` (Table I default: 50).
    phone_rate:
        Smartphone arrival rate ``λ`` per slot (default 6).
    task_rate:
        Task arrival rate ``λ_t`` per slot (default 3).
    mean_cost:
        Average real cost ``c̄`` (default 25).
    mean_active_length:
        Average active-time length in slots (default 5).
    task_value:
        The platform's per-task value ``ν`` (default 30; not in Table I —
        see the module docstring).
    """

    num_slots: int = 50
    phone_rate: float = 6.0
    task_rate: float = 3.0
    mean_cost: float = 25.0
    mean_active_length: int = 5
    task_value: float = 30.0

    def __post_init__(self) -> None:
        check_type("num_slots", self.num_slots, int)
        check_positive("num_slots", self.num_slots)
        check_non_negative("phone_rate", self.phone_rate)
        check_non_negative("task_rate", self.task_rate)
        check_positive("mean_cost", self.mean_cost)
        check_type("mean_active_length", self.mean_active_length, int)
        check_positive("mean_active_length", self.mean_active_length)
        check_non_negative("task_value", self.task_value)

    @classmethod
    def paper_default(cls) -> "WorkloadConfig":
        """The Table I defaults."""
        return cls()

    def replace(self, **changes: Any) -> "WorkloadConfig":
        """A copy with the given fields overridden (sweep helper)."""
        return dataclasses.replace(self, **changes)

    def to_dict(self) -> Dict[str, Any]:
        """Serialise for scenario metadata and trace headers."""
        return dataclasses.asdict(self)

    # ------------------------------------------------------------------
    # Generation
    # ------------------------------------------------------------------
    def generate(
        self,
        seed: int,
        phone_arrivals: Optional[ArrivalProcess] = None,
        task_arrivals: Optional[ArrivalProcess] = None,
        cost_distribution: Optional[CostDistribution] = None,
    ) -> Scenario:
        """Materialise one random round.

        Randomness comes from three independent named streams derived
        from ``seed`` (phone arrivals, task arrivals, costs/lengths), so
        e.g. sweeping the task rate does not perturb the generated phone
        population for a fixed seed.  The round is drawn as validated
        :meth:`generate_columns` and decoded from them.
        """
        costs = cost_distribution or UniformCosts.with_mean(self.mean_cost)
        columns = self._columns(
            seed,
            phone_arrivals or PoissonArrivals(self.phone_rate),
            task_arrivals or PoissonArrivals(self.task_rate),
            costs,
        )
        metadata = self.to_dict()
        metadata["seed"] = seed
        metadata["cost_distribution"] = repr(costs)
        return Scenario(
            profiles=columns.decode_profiles(),
            schedule=columns.decode_schedule(),
            metadata=metadata,
        )

    def generate_columns(
        self,
        seed: int,
        phone_arrivals: Optional[ArrivalProcess] = None,
        task_arrivals: Optional[ArrivalProcess] = None,
        cost_distribution: Optional[CostDistribution] = None,
    ) -> RoundColumns:
        """The columnar form of :meth:`generate`, without materialisation.

        Draws the identical population (same streams, same draw order —
        the batched length draw consumes the generator exactly like the
        former per-phone loop) but returns flat
        :class:`~repro.model.columnar.RoundColumns` ready to pack into a
        shared-memory segment.  :meth:`generate` is these columns,
        decoded.
        """
        return self._columns(
            seed,
            phone_arrivals or PoissonArrivals(self.phone_rate),
            task_arrivals or PoissonArrivals(self.task_rate),
            cost_distribution or UniformCosts.with_mean(self.mean_cost),
        )

    def _columns(
        self,
        seed: int,
        phones: ArrivalProcess,
        tasks: ArrivalProcess,
        costs: CostDistribution,
    ) -> RoundColumns:
        """Vectorised generation core (shared by both public entry points)."""
        streams = RngStreams(seed)
        phone_counts = phones.counts(
            self.num_slots, streams.get("phone-arrivals")
        )
        task_counts = tasks.counts(
            self.num_slots, streams.get("task-arrivals")
        )

        attribute_rng = streams.get("phone-attributes")
        total_phones = sum(phone_counts)
        sampled_costs = costs.sample(total_phones, attribute_rng)

        arrival = np.repeat(
            np.arange(1, self.num_slots + 1, dtype=np.int64),
            phone_counts,
        )
        lengths = self._draw_active_lengths(attribute_rng, total_phones)
        departure = np.minimum(arrival + lengths - 1, self.num_slots)
        return RoundColumns(
            num_slots=self.num_slots,
            task_value=self.task_value,
            phone_id=np.arange(total_phones, dtype=np.int64),
            arrival=arrival,
            departure=departure,
            cost=np.asarray(sampled_costs, dtype=np.float64),
            task_counts=np.asarray(task_counts, dtype=np.int64),
        )

    def _draw_active_lengths(self, rng, count: int) -> np.ndarray:
        """Uniform integer lengths on ``[1, 2*avg − 1]`` (mean = avg).

        One batched draw; a size-``n`` batch of ``Generator.integers``
        consumes the bit stream exactly like ``n`` scalar draws, so this
        reproduces the historical per-phone loop bit-for-bit.  Lengths are
        clamped to the round horizon by the caller via the departure
        computation; profiles near the round end therefore have slightly
        shorter effective windows, matching a finite round.
        """
        upper = 2 * self.mean_active_length - 1
        if upper <= 1:
            return np.ones(count, dtype=np.int64)
        return rng.integers(1, upper + 1, size=count, dtype=np.int64)


def generate_many(
    config: WorkloadConfig, seeds: List[int]
) -> List[Scenario]:
    """Generate one scenario per seed (sweep repetition helper)."""
    if not seeds:
        raise ValidationError("seeds must not be empty")
    return [config.generate(seed) for seed in seeds]
