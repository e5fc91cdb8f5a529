"""Multi-round operation of the crowdsourcing market.

Section III-B: "the reverse auction is executed round by round", with
the paper analysing a single round and noting the same design applies to
the rest.  This module supplies the round-by-round layer: a campaign of
``R`` consecutive rounds, each a fresh workload draw, with losers of one
round optionally re-entering the next (a phone whose active time ended
unallocated plausibly tries again later — the "retry" policy), and
per-round plus cumulative accounting.
"""

from __future__ import annotations

import dataclasses
import os
import pathlib
import pickle
from typing import TYPE_CHECKING, Any, Dict, FrozenSet, List, Optional, Tuple

from repro import obs
from repro.errors import SimulationError
from repro.mechanisms.base import Mechanism
from repro.metrics.summary import Summary, summarize
from repro.model.smartphone import SmartphoneProfile
from repro.obs.live import Heartbeat, HeartbeatConfig, append_worker_beats
from repro.simulation.engine import SimulationEngine, SimulationResult
from repro.simulation.scenario import Scenario
from repro.simulation.workload import WorkloadConfig
from repro.utils.pool import WorkerPool
from repro.utils.rng import RngStreams
from repro.utils.validation import check_in_range, check_positive, check_type

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.faults.plan import FaultConfig

#: Retry policies for phones that ended a round unallocated.
RETRY_NONE = "none"       # every round draws a fresh population
RETRY_LOSERS = "losers"   # losers re-enter the next round
_POLICIES = (RETRY_NONE, RETRY_LOSERS)


@dataclasses.dataclass(frozen=True)
class CampaignResult:
    """Outcome of a multi-round campaign.

    Attributes
    ----------
    rounds:
        The per-round :class:`~repro.simulation.SimulationResult` list.
    total_welfare / total_payment:
        Sums over rounds.
    welfare_per_round / overpayment_per_round:
        :class:`~repro.metrics.Summary` across rounds (overpayment is
        ``None`` when no round had a defined ratio).
    returning_phones:
        How many phones re-entered later rounds under the retry policy.
    dropped_phones / delivery_failures / recovered_tasks:
        Cumulative fault accounting across rounds (all zero unless the
        campaign ran with ``fault_config``).
    """

    rounds: Tuple[SimulationResult, ...]
    total_welfare: float
    total_payment: float
    welfare_per_round: Summary
    overpayment_per_round: Optional[Summary]
    returning_phones: int
    dropped_phones: int = 0
    delivery_failures: int = 0
    recovered_tasks: int = 0

    @property
    def num_rounds(self) -> int:
        """Number of rounds executed."""
        return len(self.rounds)


def _reentry_profile(
    profile: SmartphoneProfile,
    next_id: int,
    num_slots: int,
    rng,
) -> SmartphoneProfile:
    """A loser re-enters the next round: same cost, fresh window.

    The new window has the same length as the old one (the phone's idle
    pattern), starting at a uniformly random slot.
    """
    length = min(profile.active_length, num_slots)
    arrival = int(rng.integers(1, num_slots - length + 2))
    return SmartphoneProfile(
        phone_id=next_id,
        arrival=arrival,
        departure=arrival + length - 1,
        cost=profile.cost,
    )


@dataclasses.dataclass(frozen=True)
class _PlayedRound:
    """One round's result plus the winners and fault accounting.

    ``winners`` are the phones that delivered (every winner when the
    round ran without faults); the rest re-enter under ``"losers"``.
    """

    result: SimulationResult
    winners: FrozenSet[int]
    dropped: int = 0
    failures: int = 0
    recovered: int = 0


def _play_round(
    mechanism: Mechanism,
    scenario: Scenario,
    fault_config: Optional["FaultConfig"],
    fault_seed: int,
    round_dir: Optional[pathlib.Path],
) -> _PlayedRound:
    """Run one round's scenario: fault-aware, journaled, or plain."""
    if fault_config is not None:
        from repro.faults.recovery import run_with_faults

        faulty = run_with_faults(
            scenario, fault_config, seed=fault_seed, journal_dir=round_dir
        )
        return _PlayedRound(
            faulty.result,
            frozenset(faulty.report.delivered),
            dropped=len(faulty.report.dropped),
            failures=len(faulty.report.failed_deliverers),
            recovered=len(faulty.report.recovered_tasks),
        )
    if round_dir is not None:
        result = _run_journaled_round(scenario, round_dir)
    else:
        result = SimulationEngine().run(mechanism, scenario)
    return _PlayedRound(result, frozenset(result.outcome.winners))


def _round_scenario(
    base: Scenario,
    round_index: int,
    profiles: Optional[List[SmartphoneProfile]] = None,
) -> Scenario:
    """Tag a round's workload draw with its index (and re-entrants)."""
    return Scenario(
        profiles if profiles is not None else list(base.profiles),
        base.schedule,
        metadata={**base.metadata, "round": round_index},
    )


def _run_round(
    mechanism: Mechanism,
    workload: WorkloadConfig,
    round_index: int,
    round_seed: int,
    fault_config: Optional["FaultConfig"],
    fault_seed: int,
    round_dir: Optional[pathlib.Path],
) -> bytes:
    """One independent round (the ``retry_policy="none"`` pool unit).

    Returns the :class:`_PlayedRound` as its own pickle blob; the seeds
    come from the parent, so the result does not depend on which worker
    runs the round.
    """
    with obs.span("campaign.round", round=round_index):
        scenario = _round_scenario(
            workload.generate(seed=round_seed), round_index
        )
        played = _play_round(
            mechanism, scenario, fault_config, fault_seed, round_dir
        )
    return pickle.dumps(played, protocol=4)


def _round_units(
    mechanism: Mechanism,
    workload: WorkloadConfig,
    num_rounds: int,
    seed: int,
    fault_config: Optional["FaultConfig"],
    fault_seed: int,
    journal_dir: Optional[os.PathLike],
) -> List[Tuple[Any, ...]]:
    """The :func:`_run_round` argument tuples of a ``"none"`` campaign."""
    streams = RngStreams(seed)
    fault_streams = RngStreams(fault_seed)
    return [
        (
            mechanism,
            workload,
            round_index,
            streams.child(round_index).seed,
            fault_config,
            fault_streams.child(round_index).seed,
            _round_dir(journal_dir, round_index),
        )
        for round_index in range(num_rounds)
    ]


def _round_dir(
    journal_dir: Optional[os.PathLike], round_index: int
) -> Optional[pathlib.Path]:
    if journal_dir is None:
        return None
    return pathlib.Path(os.fspath(journal_dir)) / f"round-{round_index:04d}"


def _run_journaled_round(
    scenario: Scenario, round_dir: pathlib.Path
) -> SimulationResult:
    """Run one fault-free round through a journaling platform.

    Drives the scenario's truthful bids slot by slot through a
    :class:`~repro.durability.JournaledPlatform` (write-ahead journal in
    ``round_dir``).  The outcome equals the plain online-greedy engine
    run's value-for-value; payments are settled at departure slots, so
    their dict insertion order follows settlement, not allocation.
    """
    # Lazy import: the driver and durability import this package.
    from repro.auction.round_driver import round_commands
    from repro.durability import Journal
    from repro.durability.replay import start_round

    commands = round_commands(scenario.truthful_bids(), scenario)
    with Journal(round_dir) as journal:
        outcome = start_round(journal, commands, scenario.num_slots).outcome
    return SimulationEngine.package("online-greedy", outcome, scenario)


def run_campaign(
    mechanism: Mechanism,
    workload: WorkloadConfig,
    num_rounds: int,
    seed: int = 0,
    retry_policy: str = RETRY_NONE,
    max_retries_per_round: int = 1000,
    fault_config: Optional["FaultConfig"] = None,
    fault_seed: Optional[int] = None,
    workers: int = 1,
    journal_dir: Optional[os.PathLike] = None,
    heartbeat: Optional[HeartbeatConfig] = None,
) -> CampaignResult:
    """Run ``num_rounds`` consecutive rounds of ``workload``.

    Parameters
    ----------
    mechanism:
        The auction mechanism operating the market (same in each round).
    workload:
        Per-round workload; each round is an independent seeded draw.
    num_rounds:
        Number of rounds (>= 1).
    seed:
        Master seed; round ``k`` uses an independent child stream.
    retry_policy:
        ``"none"`` (default) or ``"losers"`` — whether phones that ended
        a round unallocated re-enter the next round with a fresh window
        (and a fresh id, since ids are per-round).
    max_retries_per_round:
        Safety cap on carried-over phones per round.
    fault_config:
        Optional :class:`~repro.faults.FaultConfig`; when given, every
        round runs through the fault-aware platform driver
        (:func:`~repro.faults.run_with_faults`) instead of the plain
        mechanism, and only *delivering* winners count as winners — a
        phone that dropped out or failed its task re-enters the next
        round under the ``"losers"`` policy.  Requires the
        ``online-greedy`` mechanism (faults are a platform-level
        phenomenon; batch mechanisms have no slot to drop out of).
    fault_seed:
        Master seed of the per-round fault draws (default: ``seed``).
    workers:
        Size of the :class:`~repro.utils.pool.WorkerPool` the rounds
        run on.  ``workers > 1`` is only valid with
        ``retry_policy="none"``, where rounds are mutually independent
        (each draws its own seeded population and fault plan); results
        are collected in round order and pickle to the same bytes as a
        ``workers=1`` run.  Under ``"losers"``, round ``k+1``'s
        population depends on round ``k``'s outcome, so the campaign is
        inherently sequential.
    journal_dir:
        When given, every round is driven slot by slot through a
        :class:`~repro.durability.JournaledPlatform` writing a
        write-ahead journal into ``journal_dir/round-NNNN`` — outcomes
        equal the unjournaled campaign's (winners, allocation, and
        payments value-for-value; payment *insertion order* follows the
        platform's slot-by-slot settlement rather than the batch
        mechanism's allocation order), and a killed campaign's rounds
        can be inspected or replayed with ``repro-crowd replay``.
        Requires the ``online-greedy`` mechanism (journaling is a
        platform-level concern) and ``workers=1`` (one journal writer
        per directory).
    heartbeat:
        Optional :class:`~repro.obs.live.HeartbeatConfig`; when given,
        the campaign emits periodic progress pulses (rounds/second,
        ETA, journal fsync latency, reassignment counts) to the
        configured JSONL file and/or console; a ``"none"`` campaign
        then appends one worker-beat record per round.  Heartbeats
        observe the run without participating in it — outcomes are
        bit-identical to an unmonitored campaign.
    """
    check_type("num_rounds", num_rounds, int)
    check_positive("num_rounds", num_rounds)
    check_in_range("max_retries_per_round", max_retries_per_round, low=0)
    if retry_policy not in _POLICIES:
        raise SimulationError(
            f"unknown retry_policy {retry_policy!r}; expected one of "
            f"{_POLICIES}"
        )
    if workers < 1:
        raise SimulationError(f"workers must be >= 1, got {workers}")
    if workers > 1 and retry_policy != RETRY_NONE:
        raise SimulationError(
            "workers > 1 requires retry_policy='none': under 'losers' "
            "each round's population depends on the previous round"
        )
    if fault_config is not None and mechanism.name != "online-greedy":
        raise SimulationError(
            f"fault injection requires the 'online-greedy' mechanism "
            f"(faults unfold slot by slot on the platform), got "
            f"{mechanism.name!r}"
        )
    if journal_dir is not None:
        if mechanism.name != "online-greedy":
            raise SimulationError(
                f"journaling requires the 'online-greedy' mechanism "
                f"(the journal records slot-by-slot platform commands), "
                f"got {mechanism.name!r}"
            )
        if workers > 1:
            raise SimulationError(
                "journaling requires workers=1: each round journal has "
                "exactly one writer"
            )

    if fault_seed is None:
        fault_seed = seed
    pulse = (
        Heartbeat(heartbeat, total=num_rounds)
        if heartbeat is not None
        else None
    )
    played: List[_PlayedRound] = []
    returning = 0

    with obs.span(
        "campaign.run",
        mechanism=mechanism.name,
        rounds=num_rounds,
        workers=workers,
    ) as tel:
        if retry_policy == RETRY_LOSERS:
            streams = RngStreams(seed)
            fault_streams = RngStreams(fault_seed)
            carried: List[SmartphoneProfile] = []
            for round_index in range(num_rounds):
                with obs.span("campaign.round", round=round_index):
                    base = workload.generate(
                        seed=streams.child(round_index).seed
                    )
                    profiles = list(base.profiles)
                    if carried:
                        reentry_rng = streams.get(f"reentry-{round_index}")
                        next_id = (
                            max((p.phone_id for p in profiles), default=-1) + 1
                        )
                        for loser in carried[:max_retries_per_round]:
                            profiles.append(
                                _reentry_profile(
                                    loser,
                                    next_id,
                                    workload.num_slots,
                                    reentry_rng,
                                )
                            )
                            next_id += 1
                        returning += min(len(carried), max_retries_per_round)
                    scenario = _round_scenario(base, round_index, profiles)
                    round_played = _play_round(
                        mechanism,
                        scenario,
                        fault_config,
                        fault_streams.child(round_index).seed,
                        _round_dir(journal_dir, round_index),
                    )
                    carried = [
                        profile
                        for profile in scenario.profiles
                        if profile.phone_id not in round_played.winners
                    ]
                played.append(round_played)
                if pulse is not None:
                    pulse.beat(
                        round_index, welfare=round_played.result.true_welfare
                    )
        else:
            # Every round crosses as its own pickle blob, at every worker
            # count, so no object is shared across rounds and the result
            # pickles to the same bytes whoever ran each round.
            units = _round_units(
                mechanism,
                workload,
                num_rounds,
                seed,
                fault_config,
                fault_seed,
                journal_dir,
            )
            beats: List[Dict[str, Any]] = []
            with WorkerPool(workers) as pool:
                for round_index, envelope in enumerate(
                    pool.run(_run_round, units)
                ):
                    round_played = pickle.loads(envelope.result)
                    played.append(round_played)
                    obs.observe(
                        "campaign.worker.seconds", envelope.elapsed_seconds
                    )
                    beats.append(
                        {
                            "unit_index": round_index,
                            "elapsed_seconds": envelope.elapsed_seconds,
                            "worker_pid": envelope.worker_pid,
                        }
                    )
                    if pulse is not None:
                        pulse.beat(
                            round_index,
                            welfare=round_played.result.true_welfare,
                        )
            if heartbeat is not None and heartbeat.path is not None:
                append_worker_beats(heartbeat.path, "round", beats)
        recovered = sum(round_played.recovered for round_played in played)
        tel.set_attribute("returning_phones", returning)
        tel.set_attribute("recovered_tasks", recovered)

    return aggregate_rounds(
        [round_played.result for round_played in played],
        returning=returning,
        dropped=sum(round_played.dropped for round_played in played),
        failures=sum(round_played.failures for round_played in played),
        recovered=recovered,
    )


def aggregate_rounds(
    results: List[SimulationResult],
    returning: int = 0,
    dropped: int = 0,
    failures: int = 0,
    recovered: int = 0,
) -> CampaignResult:
    """Fold per-round results into a :class:`CampaignResult`.

    Shared by the serial/parallel campaign loop above and the sharded
    runner (:mod:`repro.experiments.sharding`), which assembles rounds
    from shard workers and checkpoints — both paths must aggregate in the
    identical float-summation order for byte-identical campaign results.
    """
    ratios = [r.overpayment_ratio for r in results]
    defined = [r for r in ratios if r is not None]
    return CampaignResult(
        rounds=tuple(results),
        total_welfare=sum(r.true_welfare for r in results),
        total_payment=sum(r.total_payment for r in results),
        welfare_per_round=summarize([r.true_welfare for r in results]),
        overpayment_per_round=summarize(defined) if defined else None,
        returning_phones=returning,
        dropped_phones=dropped,
        delivery_failures=failures,
        recovered_tasks=recovered,
    )
