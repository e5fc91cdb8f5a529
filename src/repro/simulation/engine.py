"""The simulation engine: run mechanisms over rounds, collect metrics.

:class:`SimulationEngine` is the one-stop entry point the examples and
the experiment harness use: give it a round and a mechanism, get back a
:class:`SimulationResult` with the outcome and every paper metric
already computed.  A round is either a materialised
:class:`~repro.simulation.scenario.Scenario` (:meth:`SimulationEngine.run`,
which also takes bidding strategies) or the validated
:class:`~repro.model.columnar.RoundColumns` the workload generator draws
(:meth:`SimulationEngine.run_columns`, the truthful round function of
sweep repetitions and shard workers).
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Mapping, Optional

import numpy as np

from repro import obs
from repro.agents.base import BiddingStrategy
from repro.mechanisms.base import Mechanism
from repro.mechanisms.online_greedy import OnlineGreedyMechanism
from repro.metrics.overpayment import overpayment_and_ratio
from repro.metrics.welfare import (
    RoundCosts,
    phone_utilities,
    true_social_welfare,
)
from repro.model.columnar import RoundColumns
from repro.model.outcome import AuctionOutcome
from repro.simulation.scenario import Scenario


@dataclasses.dataclass(frozen=True)
class SimulationResult:
    """One round's outcome plus the metrics of Section VI.

    Attributes
    ----------
    mechanism_name:
        Name of the mechanism that produced the outcome.
    outcome:
        The raw allocation/payment record.
    true_welfare:
        Social welfare on real costs (Definition 3).
    claimed_welfare:
        Social welfare on claimed costs (equal to ``true_welfare`` under
        truthful bidding).
    overpayment:
        Total payments minus total real winner costs.
    overpayment_ratio:
        Definition 11's ``σ``; ``None`` if nothing was allocated.
    utilities:
        True utility per phone (Definition 1).
    tasks_served:
        Number of allocated tasks.
    """

    mechanism_name: str
    outcome: AuctionOutcome
    true_welfare: float
    claimed_welfare: float
    overpayment: float
    overpayment_ratio: Optional[float]
    utilities: Dict[int, float]
    tasks_served: int

    @property
    def total_payment(self) -> float:
        """Total money the platform paid out."""
        return self.outcome.total_payment

    @property
    def service_rate(self) -> float:
        """Fraction of tasks served (1.0 for an empty schedule)."""
        total = len(self.outcome.schedule)
        return 1.0 if total == 0 else self.tasks_served / total


class SimulationEngine:
    """Runs mechanisms over scenarios and packages the metrics."""

    def run(
        self,
        mechanism: Mechanism,
        scenario: Scenario,
        strategies: Optional[Mapping[int, BiddingStrategy]] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> SimulationResult:
        """Execute one round.

        Parameters
        ----------
        mechanism:
            The auction mechanism to run.
        scenario:
            The round's profiles and task schedule.
        strategies:
            Optional per-phone bidding strategies (default: everyone
            truthful).
        rng:
            Random source for stochastic strategies.
        """
        if strategies:
            bids = scenario.bids_from_strategies(strategies, rng)
        else:
            bids = scenario.truthful_bids()
        with obs.span(
            "mechanism.run", mechanism=mechanism.name, bids=len(bids)
        ):
            outcome = mechanism.run(bids, scenario.schedule)
        return self.package(mechanism.name, outcome, scenario)

    @staticmethod
    def run_columns(
        mechanism: Mechanism, columns: RoundColumns
    ) -> SimulationResult:
        """Execute one truthful round straight from its columns.

        Equals :meth:`run` over the scenario ``WorkloadConfig.generate``
        builds for the same seed, without building it: the online
        mechanism reads the columns directly, any other mechanism gets
        :meth:`~repro.model.columnar.RoundColumns.decode_bids` (the
        scenario's truthful bids verbatim), and :meth:`package` reads
        real costs from the columns.  The result therefore pickles
        byte-identically to the scenario path's.
        """
        with obs.span(
            "mechanism.run", mechanism=mechanism.name, bids=columns.num_phones
        ):
            if isinstance(mechanism, OnlineGreedyMechanism):
                outcome = mechanism.run(columns, columns.schedule)
            else:
                outcome = mechanism.run(columns.decode_bids(), columns.schedule)
        return SimulationEngine.package(mechanism.name, outcome, columns)

    @staticmethod
    def package(
        mechanism_name: str,
        outcome: AuctionOutcome,
        round_costs: RoundCosts,
    ) -> SimulationResult:
        """Compute the metric bundle for an already-produced outcome.

        ``round_costs`` is the round the outcome was produced for: a
        :class:`~repro.simulation.scenario.Scenario`, or the
        :class:`~repro.model.columnar.RoundColumns` a shard worker ran.
        """
        overpayment, ratio = overpayment_and_ratio(outcome, round_costs)
        return SimulationResult(
            mechanism_name=mechanism_name,
            outcome=outcome,
            true_welfare=true_social_welfare(outcome, round_costs),
            claimed_welfare=outcome.claimed_welfare,
            overpayment=overpayment,
            overpayment_ratio=ratio,
            utilities=phone_utilities(outcome, round_costs),
            tasks_served=len(outcome.allocation),
        )
