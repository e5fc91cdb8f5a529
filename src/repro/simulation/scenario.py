"""A fully materialised simulation instance.

A :class:`Scenario` is one concrete round: the private profiles of every
smartphone that will appear, the task arrival schedule, and descriptive
metadata.  It is what workload generation produces, what traces persist,
and what the engine feeds to mechanisms (after strategies turn profiles
into bids).
"""

from __future__ import annotations

from types import MappingProxyType
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro.agents.base import BiddingStrategy
from repro.agents.truthful import TruthfulStrategy
from repro.errors import SimulationError, ValidationError
from repro.model.bid import Bid
from repro.model.smartphone import SmartphoneProfile
from repro.model.task import TaskSchedule

_TRUTHFUL = TruthfulStrategy()


class Scenario:
    """One concrete round: profiles + task schedule + metadata."""

    def __init__(
        self,
        profiles: Sequence[SmartphoneProfile],
        schedule: TaskSchedule,
        metadata: Optional[Mapping[str, object]] = None,
    ) -> None:
        by_id: Dict[int, SmartphoneProfile] = {}
        for profile in profiles:
            if not isinstance(profile, SmartphoneProfile):
                raise ValidationError(
                    f"profiles must be SmartphoneProfile, got "
                    f"{type(profile).__name__}"
                )
            if profile.phone_id in by_id:
                raise SimulationError(
                    f"duplicate profile for phone {profile.phone_id}"
                )
            if profile.departure > schedule.num_slots:
                raise SimulationError(
                    f"phone {profile.phone_id} departs at slot "
                    f"{profile.departure}, beyond the round horizon of "
                    f"{schedule.num_slots}"
                )
            by_id[profile.phone_id] = profile
        self._profiles: Tuple[SmartphoneProfile, ...] = tuple(
            by_id[pid] for pid in sorted(by_id)
        )
        self._by_id = by_id
        self._real_costs: Mapping[int, float] = MappingProxyType(
            {profile.phone_id: profile.cost for profile in self._profiles}
        )
        self._schedule = schedule
        self._metadata: Dict[str, object] = dict(metadata or {})

    @property
    def profiles(self) -> Tuple[SmartphoneProfile, ...]:
        """All private profiles, ordered by phone id."""
        return self._profiles

    @property
    def schedule(self) -> TaskSchedule:
        """The round's task arrivals."""
        return self._schedule

    @property
    def real_costs(self) -> Mapping[int, float]:
        """``phone_id -> real cost``, in ascending phone id (read-only).

        What the round metrics read (:class:`repro.metrics.welfare
        .RoundCosts`).
        """
        return self._real_costs

    @property
    def metadata(self) -> Dict[str, object]:
        """Copy of the descriptive metadata (workload parameters etc.)."""
        return dict(self._metadata)

    @property
    def num_phones(self) -> int:
        """Number of smartphones in the round (the paper's ``n``)."""
        return len(self._profiles)

    @property
    def num_tasks(self) -> int:
        """Number of sensing tasks in the round (the paper's ``γ``)."""
        return len(self._schedule)

    @property
    def num_slots(self) -> int:
        """The round horizon ``m``."""
        return self._schedule.num_slots

    def profile(self, phone_id: int) -> SmartphoneProfile:
        """Look a profile up by phone id."""
        try:
            return self._by_id[phone_id]
        except KeyError as exc:
            raise SimulationError(f"unknown phone_id {phone_id}") from exc

    def truthful_bids(self) -> List[Bid]:
        """The bid vector when every phone reports truthfully."""
        return [profile.truthful_bid() for profile in self._profiles]

    def bids_from_strategies(
        self,
        strategies: Optional[Mapping[int, BiddingStrategy]] = None,
        rng: Optional[np.random.Generator] = None,
        default: Optional[BiddingStrategy] = None,
    ) -> List[Bid]:
        """Bid vector under a per-phone strategy assignment.

        Phones absent from ``strategies`` use ``default`` (truthful when
        not given).  Strategies returning ``None`` abstain — their phones
        submit no bid at all.
        """
        assignment = dict(strategies or {})
        for phone_id in assignment:
            if phone_id not in self._by_id:
                raise SimulationError(
                    f"strategy assigned to unknown phone_id {phone_id}"
                )
        fallback = default if default is not None else _TRUTHFUL
        bids: List[Bid] = []
        for profile in self._profiles:
            strategy = assignment.get(profile.phone_id, fallback)
            bid = strategy.make_bid(profile, rng)
            if bid is not None:
                bids.append(bid)
        return bids

    def active_profiles(self, slot: int) -> Tuple[SmartphoneProfile, ...]:
        """Profiles really active in ``slot`` (1-based)."""
        return tuple(p for p in self._profiles if p.is_active(slot))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Scenario(phones={self.num_phones}, tasks={self.num_tasks}, "
            f"slots={self.num_slots})"
        )
