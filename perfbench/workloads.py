"""The benchmark's workloads: inputs, the timed job, and output checks.

Each workload drives one CLI command's public entry point with inputs
derived only from the workload seed:

* ``paper-figures``  -> ``repro.experiments.runner.run_sweep``
* ``city-campaign`` / ``city-campaign-2w``
                     -> ``repro.experiments.sharding.run_sharded_campaign``
* ``durable-campaign`` -> ``repro.auction.multi_round.run_campaign``

Entry points are looked up on their modules at call time, so the layer
tracer's wrappers (``layers.py``) see the calls.  Checks run after the timed
region and return one pass/fail flag per unit (sweep point or round).
"""

from __future__ import annotations

import dataclasses
import hashlib
import pathlib
import pickle
from typing import Any, Callable, Dict, List, Tuple

#: Repetitions per sweep point, as in the paper's figure specs.  Instance
#: cost is heavy-tailed (per-winner VCG repairs), so fewer repetitions let
#: the job's length swing by a fifth from one seed to the next.
FIGURE_REPETITIONS = 10
#: The three distinct sweeps behind Figs. 6-11 (figs 9-11 reuse them).
FIGURE_SWEEPS = ("fig6", "fig7", "fig8")
#: City campaign: 8 cities x ~2*10^4 phones per round (BENCH_0008 instance).
CITY_COUNT = 8
CITY_ROUNDS = 2
CITY_SLOTS = 50
CITY_PHONE_RATE = 400.0
#: Durable campaign rounds at Table I scale with light churn.
DURABLE_ROUNDS = 10
DURABLE_DROPOUT = 0.05
DURABLE_FAILURE = 0.05
#: Float slack for the welfare-ordering invariants.
_TOLERANCE = 1e-9


@dataclasses.dataclass(frozen=True)
class Checked:
    """What the checks found for one job."""

    units: List[bool]
    bids: int
    digest: str


@dataclasses.dataclass(frozen=True)
class Workload:
    """One benchmark workload (why each was chosen: ``BENCHMARK.json``).

    ``run(seed, workdir, workers)`` is the timed job; ``check(result, seed,
    workdir)`` validates its output afterwards.  ``command`` is the
    equivalent ``repro-crowd`` command line and ``layers`` the ``src/repro``
    layers it loads.  ``reference`` names the digest table entry shared by
    workloads whose outputs must be identical.
    """

    name: str
    command: str
    layers: Tuple[str, ...]
    workers: int
    reference: str
    run: Callable[[int, pathlib.Path, int], Any]
    check: Callable[[Any, int, pathlib.Path], Checked]


def digest(result: Any) -> str:
    """sha256 of the result's pickle (the repo's byte-identity currency)."""
    return hashlib.sha256(pickle.dumps(result, protocol=4)).hexdigest()


def tree_digest(directory: pathlib.Path) -> str:
    """sha256 over every file (relative path and bytes) a job wrote."""
    hasher = hashlib.sha256()
    for path in sorted(directory.rglob("*")):
        if path.is_file():
            hasher.update(str(path.relative_to(directory)).encode() + b"\0")
            hasher.update(path.read_bytes())
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# paper-figures
# ----------------------------------------------------------------------
def _run_figures(seed: int, workdir: pathlib.Path, workers: int) -> Any:
    from repro.experiments import runner
    from repro.experiments.checkpoint import CheckpointStore
    from repro.experiments.figures import figure_spec

    store = CheckpointStore(workdir / "checkpoints")
    return tuple(
        runner.run_sweep(
            figure_spec(name, repetitions=FIGURE_REPETITIONS, base_seed=seed),
            checkpoint=store,
            workers=workers,
        )
        for name in FIGURE_SWEEPS
    )


def _check_figures(result: Any, seed: int, workdir: pathlib.Path) -> Checked:
    from repro.experiments.checkpoint import CheckpointStore
    from repro.experiments.config import apply_workload_override

    store = CheckpointStore(workdir / "checkpoints")
    units: List[bool] = []
    bids = 0
    for sweep in result:
        for point in sweep.points:
            offline = point.of("offline").welfare.mean
            online = point.of("online").welfare.mean
            units.append(
                point.status == "complete"
                and point.completed_repetitions == FIGURE_REPETITIONS
                # Same bids per repetition: the offline optimum bounds the
                # online greedy's welfare from above.
                and offline + _TOLERANCE >= online
                and store.load_point(
                    sweep.name, sweep.param, point.value, strict=True
                )
                == point
            )
            workload = apply_workload_override(
                sweep.config.workload, sweep.param, point.value
            )
            for round_seed in sweep.config.seeds():
                bids += workload.generate_columns(round_seed).num_phones
    return Checked(units, bids, digest(result))


# ----------------------------------------------------------------------
# city-campaign
# ----------------------------------------------------------------------
def _city_inputs() -> Tuple[Any, List[Any]]:
    from repro.experiments.config import MechanismSpec
    from repro.experiments.sharding import CityConfig
    from repro.simulation.workload import WorkloadConfig

    workload = WorkloadConfig.paper_default().replace(
        num_slots=CITY_SLOTS, phone_rate=CITY_PHONE_RATE
    )
    cities = [
        CityConfig(f"city-{index}", workload, num_rounds=CITY_ROUNDS)
        for index in range(CITY_COUNT)
    ]
    spec = MechanismSpec.of(
        "online-greedy",
        reserve_price=False,
        payment_rule="paper",
        engine="streaming",
    )
    return spec, cities


def _run_city(seed: int, workdir: pathlib.Path, workers: int) -> Any:
    from repro import obs
    from repro.experiments import sharding

    spec, cities = _city_inputs()
    # As the ``campaign`` command does: give the shard counters a registry.
    with obs.activate(obs.Tracer()):
        return sharding.run_sharded_campaign(
            spec,
            cities,
            seed=seed,
            workers=workers,
            shards_per_city=1,
            checkpoint_dir=workdir / "shards",
        )


def _check_city(result: Any, seed: int, workdir: pathlib.Path) -> Checked:
    from repro.analysis.sanitizer import sanitize_outcome
    from repro.experiments import sharding

    spec, cities = _city_inputs()
    mechanism = spec.build()
    units: List[bool] = []
    bids = 0
    for plan in sharding.plan_shards(cities, shards_per_city=1, seed=seed):
        stored = sharding.load_shard_checkpoint(
            sharding.shard_checkpoint_path(workdir / "shards", plan)
        )
        city = result.city(plan.city_name)
        for round_index in plan.round_indices:
            round_result = city.rounds[round_index]
            bids += len(round_result.utilities)
            units.append(
                stored.get(round_index)
                == pickle.dumps(round_result, protocol=4)
                and not sanitize_outcome(round_result.outcome, mechanism)
            )
    return Checked(units, bids, digest(result))


# ----------------------------------------------------------------------
# durable-campaign
# ----------------------------------------------------------------------
def _run_durable(seed: int, workdir: pathlib.Path, workers: int) -> Any:
    from repro.auction import multi_round
    from repro.faults import FaultConfig
    from repro.mechanisms import create_mechanism
    from repro.simulation.workload import WorkloadConfig

    mechanism = create_mechanism(
        "online-greedy", reserve_price=False, payment_rule="paper", engine="batch"
    )
    faults = FaultConfig(
        dropout_prob=DURABLE_DROPOUT, task_failure_prob=DURABLE_FAILURE
    )
    return multi_round.run_campaign(
        mechanism,
        WorkloadConfig.paper_default(),
        num_rounds=DURABLE_ROUNDS,
        seed=seed,
        retry_policy=multi_round.RETRY_LOSERS,
        fault_config=faults,
        workers=workers,
        journal_dir=workdir / "journal",
    )


def _check_durable(result: Any, seed: int, workdir: pathlib.Path) -> Checked:
    from repro.analysis.sanitizer import sanitize_outcome
    from repro.durability import replay_journal

    units: List[bool] = []
    bids = 0
    for round_index, round_result in enumerate(result.rounds):
        bids += len(round_result.utilities)
        replay = replay_journal(workdir / "journal" / f"round-{round_index:04d}")
        units.append(
            replay.finalized
            and replay.outcome == round_result.outcome
            and not sanitize_outcome(
                round_result.outcome,
                non_deliverers=replay.platform.failed_deliverers,
                require_ir=True,
            )
        )
    return Checked(units, bids, digest(result))


# ----------------------------------------------------------------------
_CITY_COMMAND = (
    "repro-crowd campaign --cities 8 --rounds 2 --slots 50 --phone-rate 400 "
    "--engine streaming --shards 1 --workers {workers} --seed SEED "
    "--checkpoint-dir DIR"
)
_CITY_LAYERS = (
    "simulation", "model", "mechanisms", "metrics", "experiments",
)

WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            name="paper-figures",
            command=(
                "repro-crowd figures fig6 fig7 fig8 --repetitions 10 "
                "--seed SEED --checkpoint-dir DIR"
            ),
            layers=(
                "simulation", "matching", "mechanisms", "metrics",
                "experiments",
            ),
            workers=1,
            reference="paper-figures",
            run=_run_figures,
            check=_check_figures,
        ),
        Workload(
            name="city-campaign",
            command=_CITY_COMMAND.format(workers=1),
            layers=_CITY_LAYERS,
            workers=1,
            reference="city-campaign",
            run=_run_city,
            check=_check_city,
        ),
        Workload(
            name="durable-campaign",
            command=(
                "repro-crowd campaign --rounds 10 --retry-losers "
                "--dropout-prob 0.05 --failure-prob 0.05 --seed SEED "
                "--journal-dir DIR"
            ),
            layers=(
                "simulation", "auction", "faults", "durability", "metrics",
            ),
            workers=1,
            reference="durable-campaign",
            run=_run_durable,
            check=_check_durable,
        ),
        Workload(
            name="city-campaign-2w",
            command=_CITY_COMMAND.format(workers=2),
            layers=_CITY_LAYERS,
            workers=2,
            reference="city-campaign",
            run=_run_city,
            check=_check_city,
        ),
    )
}
