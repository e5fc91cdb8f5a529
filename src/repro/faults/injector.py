"""Seeded, deterministic fault scheduling.

:class:`FaultInjector` turns a :class:`~repro.faults.plan.FaultConfig`
plus a master seed into a :class:`~repro.faults.plan.FaultPlan` for a
concrete scenario.  Determinism rules:

* every fault category draws from its own named
  :class:`~repro.utils.rng.RngStreams` stream, so changing one
  probability never perturbs another category's schedule;
* every category draws exactly once per phone (in phone-id order)
  whether or not the fault fires, so changing a probability only flips
  individual phones rather than shifting the whole sequence.
"""

from __future__ import annotations

from typing import Dict, Union

from repro.errors import FaultError
from repro.faults.plan import FaultConfig, FaultPlan, PhoneFaults
from repro.simulation.scenario import Scenario
from repro.utils.rng import RngStreams


class FaultInjector:
    """Draws reproducible fault plans for scenarios.

    Example
    -------
    >>> from repro.simulation import WorkloadConfig
    >>> scenario = WorkloadConfig(num_slots=10).generate(seed=1)
    >>> injector = FaultInjector(FaultConfig(dropout_prob=0.3))
    >>> plan_a = injector.plan(scenario, seed=7)
    >>> plan_b = injector.plan(scenario, seed=7)
    >>> plan_a.to_dict() == plan_b.to_dict()
    True
    """

    def __init__(self, config: FaultConfig) -> None:
        if not isinstance(config, FaultConfig):
            raise FaultError(
                f"config must be a FaultConfig, got "
                f"{type(config).__name__}"
            )
        self._config = config

    @property
    def config(self) -> FaultConfig:
        """The unreliability knobs this injector draws under."""
        return self._config

    def plan(
        self, scenario: Scenario, seed: Union[int, RngStreams] = 0
    ) -> FaultPlan:
        """Draw the fault schedule for ``scenario``.

        ``seed`` is a master seed (or an existing
        :class:`~repro.utils.rng.RngStreams` to derive the category
        streams from, e.g. one repetition's child factory).
        """
        streams = (
            seed if isinstance(seed, RngStreams) else RngStreams(seed)
        )
        cfg = self._config
        dropout_rng = streams.get("faults.dropout")
        dropout_slot_rng = streams.get("faults.dropout-slot")
        failure_rng = streams.get("faults.task-failure")
        delay_rng = streams.get("faults.bid-delay")
        delay_len_rng = streams.get("faults.bid-delay-length")
        loss_rng = streams.get("faults.bid-loss")

        faults: Dict[int, PhoneFaults] = {}
        for profile in scenario.profiles:
            # Always draw once per phone per category (see module doc).
            drops = dropout_rng.random() < cfg.dropout_prob
            drop_slot = int(
                dropout_slot_rng.integers(
                    profile.arrival, profile.departure + 1
                )
            )
            fails = failure_rng.random() < cfg.task_failure_prob
            delayed = delay_rng.random() < cfg.bid_delay_prob
            delay = int(delay_len_rng.integers(1, cfg.max_bid_delay + 1))
            lost = loss_rng.random() < cfg.bid_loss_prob

            if drops or fails or delayed or lost:
                faults[profile.phone_id] = PhoneFaults(
                    phone_id=profile.phone_id,
                    dropout_slot=drop_slot if drops else None,
                    fails_task=fails,
                    bid_delay=delay if delayed else 0,
                    bid_lost=lost,
                )
        return FaultPlan(faults=faults, config=cfg, seed=streams.seed)
