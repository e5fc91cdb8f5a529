"""Runtime outcome sanitizer: every run checked against the paper.

The randomized auditors in :mod:`repro.metrics.properties` spot-check
truthfulness and individual rationality on sampled deviations.  The
sanitizer is the complementary *exhaustive-per-run* layer: it validates
every :class:`~repro.model.AuctionOutcome` a mechanism produces against
invariants that must hold on **all** runs:

``feasibility.phone-overload`` / ``feasibility.unknown-task`` /
``feasibility.inactive-winner``
    Structural feasibility of the allocation ``π`` — at most one task
    per phone per round, allocated tasks exist, and every winner's
    claimed window covers its task's slot (constraints (4)-(6) of the
    paper; the same per-slot feasibility obligations as Han et al.,
    arXiv:1308.4501).

``payments.loser-paid``
    The payment rule ``p`` pays winners only (Definition 1's utility
    model has no transfer to losers).

``ir.underpaid-winner``
    Individual rationality under truthful bidding for mechanisms that
    declare ``is_truthful``: each winner's payment covers its claimed
    cost (Definition 5; Theorems 2 and 5 — the same critical-payment IR
    obligation as OMG, arXiv:1306.5677).

``welfare.accounting-mismatch``
    The outcome's reported claimed welfare equals ``Σ (ν − b_i)``
    recomputed independently over the allocation (Definition 3).

``faults.nondeliverer-paid`` / ``faults.nondeliverer-allocated``
    Fault-aware outcomes only (``non_deliverers`` given): a winner whose
    delivery failed — it dropped out or never handed in results — must
    receive zero payment and must not appear in the final allocation
    (the recovery layer reassigns or abandons its task).

:func:`sanitize_outcome` returns structured :class:`Violation` records;
:class:`SanitizedMechanism` wraps any mechanism and either raises
:class:`~repro.errors.SanitizationError` or collects.  The registry can
wrap every product (``repro.mechanisms.registry.set_sanitize_outcomes``),
which the test suite switches on globally in ``tests/conftest.py``.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, Iterable, List, Optional, Sequence, Tuple

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    import os

    from repro.faults.plan import FaultPlan
    from repro.simulation.scenario import Scenario

from repro.errors import SanitizationError
from repro.mechanisms.base import Mechanism
from repro.model.bid import Bid
from repro.model.outcome import AuctionOutcome
from repro.model.round_config import RoundConfig
from repro.model.task import TaskSchedule
from repro.utils.numeric import DEFAULT_TOLERANCE, float_eq

#: Payment slack: a winner may be paid its cost exactly; anything more
#: than this much *below* cost is an IR violation.
_MONEY_TOLERANCE = 1e-6


@dataclasses.dataclass(frozen=True)
class Violation:
    """One invariant violation found in one outcome.

    Attributes
    ----------
    check:
        Dotted check identifier, e.g. ``"ir.underpaid-winner"``.
    message:
        Human-readable description with the offending numbers.
    phone_id / task_id:
        The entities involved, when the check is entity-specific.
    """

    check: str
    message: str
    phone_id: Optional[int] = None
    task_id: Optional[int] = None

    def __str__(self) -> str:
        return f"[{self.check}] {self.message}"


def sanitize_outcome(
    outcome: AuctionOutcome,
    mechanism: Optional[Mechanism] = None,
    tolerance: float = _MONEY_TOLERANCE,
    non_deliverers: Optional[Iterable[int]] = None,
    require_ir: Optional[bool] = None,
) -> List[Violation]:
    """Check ``outcome`` against every per-run invariant.

    ``mechanism`` enables the mechanism-aware checks (IR is only an
    obligation for mechanisms declaring ``is_truthful``); without it the
    structural and accounting checks still run.

    ``non_deliverers`` switches on the fault-aware checks for recovered
    outcomes: phones listed there failed to deliver, so they must be
    paid nothing and hold no final allocation.  ``require_ir`` forces
    the individual-rationality check on (or off) regardless of the
    mechanism's declaration — the fault-recovery layer passes ``True``
    because IR for paying winners must survive reallocation.
    """
    violations: List[Violation] = []
    schedule = outcome.schedule
    bids_by_phone = {bid.phone_id: bid for bid in outcome.bids}

    # -- Structural feasibility (constraints (4)-(6)) -------------------
    allocation = outcome.allocation
    phones_seen: dict = {}
    for task_id, phone_id in allocation.items():
        if task_id not in schedule:
            violations.append(
                Violation(
                    check="feasibility.unknown-task",
                    message=(
                        f"allocation references task {task_id} that is "
                        f"not in the round's schedule"
                    ),
                    task_id=task_id,
                    phone_id=phone_id,
                )
            )
            continue
        if phone_id in phones_seen:
            violations.append(
                Violation(
                    check="feasibility.phone-overload",
                    message=(
                        f"phone {phone_id} serves tasks "
                        f"{phones_seen[phone_id]} and {task_id}; the "
                        f"model allows at most one task per phone per "
                        f"round (constraint (5))"
                    ),
                    phone_id=phone_id,
                    task_id=task_id,
                )
            )
        else:
            phones_seen[phone_id] = task_id
        bid = bids_by_phone.get(phone_id)
        task = schedule.task(task_id)
        if bid is None:
            violations.append(
                Violation(
                    check="feasibility.unknown-phone",
                    message=(
                        f"task {task_id} allocated to phone {phone_id} "
                        f"that submitted no bid"
                    ),
                    phone_id=phone_id,
                    task_id=task_id,
                )
            )
        elif not bid.is_active(task.slot):
            violations.append(
                Violation(
                    check="feasibility.inactive-winner",
                    message=(
                        f"task {task_id} is in slot {task.slot} but its "
                        f"winner phone {phone_id} claimed the window "
                        f"[{bid.arrival}, {bid.departure}] (constraint "
                        f"(4): winners must be active in their slot)"
                    ),
                    phone_id=phone_id,
                    task_id=task_id,
                )
            )

    # -- Payments go to winners only ------------------------------------
    winners = set(allocation.values())
    for phone_id, amount in outcome.payments.items():
        if phone_id not in winners and amount > tolerance:
            violations.append(
                Violation(
                    check="payments.loser-paid",
                    message=(
                        f"phone {phone_id} lost but is paid {amount:g}; "
                        f"the payment rule pays winners only"
                    ),
                    phone_id=phone_id,
                )
            )

    # -- Fault-aware checks (recovered outcomes) ------------------------
    if non_deliverers is not None:
        for phone_id in sorted(set(non_deliverers)):
            amount = outcome.payments.get(phone_id, 0.0)
            if amount > tolerance:
                violations.append(
                    Violation(
                        check="faults.nondeliverer-paid",
                        message=(
                            f"phone {phone_id} failed to deliver but is "
                            f"paid {amount:g}; payments are for "
                            f"delivered sensing results only"
                        ),
                        phone_id=phone_id,
                    )
                )
            for task_id, winner_id in allocation.items():
                if winner_id == phone_id:
                    violations.append(
                        Violation(
                            check="faults.nondeliverer-allocated",
                            message=(
                                f"task {task_id} is finally allocated "
                                f"to phone {phone_id}, whose delivery "
                                f"failed; the recovery layer must "
                                f"reassign or abandon it"
                            ),
                            phone_id=phone_id,
                            task_id=task_id,
                        )
                    )

    # -- Individual rationality (Definition 5) --------------------------
    ir_obligation = (
        require_ir
        if require_ir is not None
        else mechanism is not None
        and getattr(mechanism, "is_truthful", False)
    )
    if ir_obligation:
        for task_id, phone_id in allocation.items():
            bid = bids_by_phone.get(phone_id)
            if bid is None:
                continue  # already reported as feasibility.unknown-phone
            payment = outcome.payment(phone_id)
            if payment < bid.cost - tolerance:
                violations.append(
                    Violation(
                        check="ir.underpaid-winner",
                        message=(
                            f"winner phone {phone_id} bid cost "
                            f"{bid.cost:g} but is paid {payment:g} "
                            f"(< cost): negative utility violates "
                            f"individual rationality (Theorems 2/5)"
                        ),
                        phone_id=phone_id,
                        task_id=task_id,
                    )
                )

    # -- Welfare accounting (Definition 3) ------------------------------
    expected = 0.0
    for task_id, phone_id in allocation.items():
        if task_id in schedule and phone_id in bids_by_phone:
            expected += (
                schedule.task(task_id).value - bids_by_phone[phone_id].cost
            )
    reported = outcome.claimed_welfare
    if not float_eq(reported, expected, max(tolerance, DEFAULT_TOLERANCE)):
        violations.append(
            Violation(
                check="welfare.accounting-mismatch",
                message=(
                    f"outcome reports claimed welfare {reported:g} but "
                    f"Σ(ν − b_i) over its allocation is {expected:g} "
                    f"(Definition 3)"
                ),
            )
        )

    return violations


def check_trace_transparency(
    mechanism: Mechanism,
    bids: Sequence[Bid],
    schedule: TaskSchedule,
    config: Optional[RoundConfig] = None,
) -> AuctionOutcome:
    """Assert that tracing never changes a mechanism's outcome.

    Runs ``mechanism`` twice on the same inputs — once untraced, once
    under a freshly activated :class:`~repro.obs.Tracer` — and raises
    :class:`~repro.errors.SanitizationError` unless the two
    :class:`~repro.model.AuctionOutcome`\\ s compare equal (the strict
    field-by-field ``AuctionOutcome.__eq__``).  This is the telemetry
    layer's core guarantee: spans, counters, and event export are pure
    observation, so a traced run is bit-identical to an untraced one.

    Returns the untraced outcome (for further checks by the caller).
    """
    from repro import obs

    untraced = mechanism.run(bids, schedule, config)
    with obs.activate(obs.Tracer()):
        traced = mechanism.run(bids, schedule, config)
    if untraced != traced:
        raise SanitizationError(
            f"mechanism {mechanism.name!r} is not trace-transparent: "
            f"running under an active tracer changed the outcome "
            f"(allocation {untraced.allocation} vs {traced.allocation}; "
            f"payments {untraced.payments} vs {traced.payments})"
        )
    return untraced


def check_replay_fidelity(
    scenario: "Scenario",
    journal_dir: "os.PathLike",
    reserve_price: bool = False,
    payment_rule: str = "paper",
    fault_plan: Optional["FaultPlan"] = None,
) -> AuctionOutcome:
    """Assert that replaying a journaled round reproduces it exactly.

    The durability sibling of :func:`check_trace_transparency`: drives
    ``scenario`` through a :class:`~repro.durability.JournaledPlatform`
    writing into ``journal_dir``, then replays the journal from disk
    with :func:`~repro.durability.replay_journal`, and raises
    :class:`~repro.errors.SanitizationError` unless the replayed
    :class:`~repro.model.AuctionOutcome` is byte-identical (pickled
    bytes, not just ``__eq__``) to the live one.  This is the
    durability layer's core guarantee: the journal alone determines the
    outcome, so a crashed-and-recovered round cannot silently diverge
    from an uninterrupted one.

    ``fault_plan`` optionally injects a
    :class:`~repro.faults.plan.FaultPlan` so the fidelity check covers
    dropout/failure recovery paths too.  Returns the live outcome.
    """
    import pickle

    from repro.durability import Journal, replay_journal, round_commands
    from repro.durability.replay import start_round
    from repro.faults.recovery import apply_bid_faults

    bids = scenario.truthful_bids()
    if fault_plan is not None:
        bids, _, _ = apply_bid_faults(list(bids), fault_plan)
    commands = round_commands(bids, scenario, fault_plan)
    with Journal(journal_dir) as journal:
        live = start_round(
            journal,
            commands,
            scenario.num_slots,
            reserve_price=reserve_price,
            payment_rule=payment_rule,
            max_reassignments=(
                3
                if fault_plan is None
                else fault_plan.config.max_reassignments
            ),
        ).outcome
    replayed = replay_journal(journal.directory).outcome
    if replayed is None:  # pragma: no cover - defensive
        raise SanitizationError(
            "replay-fidelity check did not reach a finalized outcome"
        )
    if pickle.dumps(replayed) != pickle.dumps(live):
        raise SanitizationError(
            f"journal replay is not faithful: replaying "
            f"{str(journal.directory)!r} produced a different outcome "
            f"(allocation {live.allocation} vs {replayed.allocation}; "
            f"payments {live.payments} vs {replayed.payments})"
        )
    return live


class SanitizedMechanism(Mechanism):  # repro: noqa-mechanism-contract -- transparent wrapper: identity is copied from the wrapped mechanism per instance, and wrapping happens in the registry, not by registration
    """Wrap a mechanism so every ``run`` is sanitized.

    The wrapper is transparent: ``name`` / ``is_truthful`` / ``is_online``
    are copied from the wrapped mechanism, and unknown attribute access
    forwards to it, so mechanism-specific options (``payment_rule``,
    ``reserve_price``, ...) remain reachable.

    Parameters
    ----------
    inner:
        The mechanism to wrap.
    on_violation:
        ``"raise"`` (default) raises
        :class:`~repro.errors.SanitizationError` on the first offending
        outcome; ``"collect"`` records violations on
        :attr:`collected_violations` and returns the outcome anyway
        (useful to census a known-bad baseline).
    """

    _MODES = ("raise", "collect")

    def __init__(self, inner: Mechanism, on_violation: str = "raise") -> None:
        if on_violation not in self._MODES:
            raise ValueError(
                f"on_violation must be one of {self._MODES}, got "
                f"{on_violation!r}"
            )
        self._inner = inner
        self._on_violation = on_violation
        self._collected: List[Violation] = []
        # Shadow the class attributes with the wrapped identity so that
        # registry name validation, auditors, and reports all see the
        # real mechanism.
        self.name = inner.name
        self.is_truthful = inner.is_truthful
        self.is_online = inner.is_online

    @property
    def inner(self) -> Mechanism:
        """The wrapped mechanism."""
        return self._inner

    @property
    def __class__(self):  # noqa: D401 - proxy transparency
        # ``isinstance(wrapped, OfflineVCGMechanism)`` must keep working
        # when the registry wraps every product (the suite runs with the
        # sanitizer on globally).  Forwarding ``__class__`` is the
        # standard transparent-proxy idiom (unittest.mock uses the
        # same); ``type(wrapper)`` still reports SanitizedMechanism.
        return type(self._inner)

    @property
    def collected_violations(self) -> Sequence[Violation]:
        """Violations accumulated in ``"collect"`` mode."""
        return tuple(self._collected)

    def run(
        self,
        bids: Sequence[Bid],
        schedule: TaskSchedule,
        config: Optional[RoundConfig] = None,
    ) -> AuctionOutcome:
        outcome = self._inner.run(bids, schedule, config)
        violations = sanitize_outcome(outcome, mechanism=self._inner)
        if violations:
            if self._on_violation == "raise":
                details = "; ".join(str(v) for v in violations)
                raise SanitizationError(
                    f"mechanism {self.name!r} produced an outcome "
                    f"violating {len(violations)} invariant"
                    f"{'s' if len(violations) != 1 else ''}: {details}",
                    violations=violations,
                )
            self._collected.extend(violations)
        return outcome

    def __getattr__(self, item: str) -> object:
        # Only called for attributes not found normally; forwards
        # mechanism-specific options of the wrapped instance.  Private
        # names are not forwarded (and guarding them also prevents
        # recursion if ``_inner`` itself is ever missing, e.g. during
        # unpickling).
        if item.startswith("_"):
            raise AttributeError(item)
        return getattr(self._inner, item)

    def __reduce__(self):
        # Default pickling trips over the forwarded ``__class__`` (the
        # protocol would rebuild the wrapper as the *inner* type), so
        # reconstruct explicitly; collected violations stay local to
        # the originating process.
        return (SanitizedMechanism, (self._inner, self._on_violation))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SanitizedMechanism({self._inner!r})"


def check_parallel_determinism(
    workload: Optional[object] = None,
    seeds: Sequence[int] = (0, 1, 2, 3),
    worker_counts: Sequence[int] = (1, 2, 3),
    shard_worker_counts: Sequence[int] = (1, 2),
) -> int:
    """Schedule-fuzz every user of the worker pool; assert byte identity.

    The runtime counterpart of the static REP010–REP015 flow rules: it
    *executes* the :class:`~repro.utils.pool.WorkerPool` fan-out under
    every combination of

    * worker count (including the serial reference),
    * unit order — the units handed to the pool are permuted and the
      results reassembled by unit identity, so completion/submission
      order is exercised,

    and raises :class:`~repro.errors.SanitizationError` unless every
    run's results ``pickle`` to the *same bytes* as the serial
    reference.  Byte equality is deliberately stricter
    than ``==``: it also pins dict insertion order (payments!) and
    float bit patterns, the two things hash-order bugs corrupt first.

    Three halves run in turn:

    * sweep repetitions (:func:`~repro.experiments.runner.run_repetition`
      of ``offline-vcg``, each run from its round's columns by the round
      function shard workers share) over ``seeds`` × ``worker_counts`` ×
      permuted orders;
    * campaign rounds: a ``retry_policy="none"`` campaign, with and
      without a :class:`~repro.faults.FaultConfig`, whose rounds run on
      ``worker_counts`` × permuted orders and must match the serial
      campaign round by round — and ``run_campaign`` itself must pickle
      to the same bytes at every worker count;
    * shards: a two-city campaign split two shards per city, executed
      by :func:`~repro.experiments.sharding.run_sharded_campaign` under
      every ``shard_worker_counts`` entry × permuted shard submission
      order, must pickle byte-identically — as a whole result — to its
      ``workers=1`` reference (pass an empty ``shard_worker_counts`` to
      skip that half).

    Returns the number of schedule combinations checked.
    """
    import pickle

    from repro.experiments.config import MechanismSpec
    from repro.experiments.runner import run_repetition
    from repro.simulation.workload import WorkloadConfig
    from repro.utils.pool import WorkerPool

    if workload is None:
        workload = WorkloadConfig(
            num_slots=5,
            phone_rate=3.0,
            task_rate=1.5,
            mean_cost=10.0,
            mean_active_length=3,
            task_value=18.0,
        )
    seeds = tuple(seeds)

    def rows_bytes(results: Sequence[object]) -> Tuple[bytes, ...]:
        # One pickle per repetition, not one for the whole batch: a
        # batch pickle also encodes which strings happen to be shared
        # *across* results (identity, not value), and that differs
        # between in-process rows and rows that crossed a pipe.  The
        # per-row bytes still pin dict insertion order and float bit
        # patterns — the payload we are asserting on.
        ordered = sorted(results, key=lambda result: result.seed)
        if [result.seed for result in ordered] != list(seeds):
            raise SanitizationError(
                f"parallel run lost repetitions: expected seeds "
                f"{list(seeds)}, got {[r.seed for r in ordered]}"
            )
        return tuple(
            pickle.dumps(result.row, protocol=4) for result in ordered
        )

    specs = (MechanismSpec.of("offline-vcg"),)
    reference = rows_bytes(
        [
            run_repetition(workload, specs, seed, 0, 0.0, "raise")
            for seed in seeds
        ]
    )
    checked = 0
    for workers in worker_counts:
        for order in _orders(seeds):
            with WorkerPool(workers) as pool:
                results = [
                    envelope.result
                    for envelope in pool.run(
                        run_repetition,
                        [
                            (workload, specs, seed, 0, 0.0, "raise")
                            for seed in order
                        ],
                    )
                ]
            if rows_bytes(results) != reference:
                raise SanitizationError(
                    f"nondeterministic sweep point: workers={workers} "
                    f"submission order={list(order)} produced different "
                    "outcome bytes than the serial reference"
                )
            checked += 1
    checked += _check_campaign_determinism(workload, worker_counts)
    checked += _check_shard_determinism(workload, shard_worker_counts)
    return checked


def _orders(items: Sequence[int]) -> List[Tuple[int, ...]]:
    """Forward, reversed, and rotated unit orders."""
    forward = tuple(items)
    return [forward, tuple(reversed(forward)), forward[1:] + forward[:1]]


def _check_campaign_determinism(
    workload: object, worker_counts: Sequence[int]
) -> int:
    """Campaign-round half of :func:`check_parallel_determinism`."""
    import pickle

    from repro.auction.multi_round import (
        _round_units,
        _run_round,
        run_campaign,
    )
    from repro.faults.plan import FaultConfig
    from repro.mechanisms.registry import create_mechanism
    from repro.utils.pool import WorkerPool

    mechanism = create_mechanism("online-greedy")
    num_rounds = 3
    seed = 2014
    checked = 0
    for fault_config in (
        None,
        FaultConfig(dropout_prob=0.2, task_failure_prob=0.1),
    ):
        faults = "with" if fault_config is not None else "without"
        serial = run_campaign(
            mechanism, workload, num_rounds, seed=seed,
            fault_config=fault_config,
        )
        whole = pickle.dumps(serial, protocol=4)
        reference = [pickle.dumps(r, protocol=4) for r in serial.rounds]
        checked += 1
        units = _round_units(
            mechanism, workload, num_rounds, seed, fault_config, seed, None
        )
        for workers in worker_counts:
            if workers > 1:
                parallel = run_campaign(
                    mechanism, workload, num_rounds, seed=seed,
                    fault_config=fault_config, workers=workers,
                )
                if pickle.dumps(parallel, protocol=4) != whole:
                    raise SanitizationError(
                        f"nondeterministic campaign {faults} faults: "
                        f"workers={workers} pickles to different bytes "
                        "than the workers=1 campaign"
                    )
                checked += 1
            for order in _orders(range(num_rounds)):
                with WorkerPool(workers) as pool:
                    blobs = [
                        envelope.result
                        for envelope in pool.run(
                            _run_round, [units[index] for index in order]
                        )
                    ]
                rounds = dict(zip(order, blobs))
                if [
                    pickle.dumps(pickle.loads(rounds[index]).result, protocol=4)
                    for index in range(num_rounds)
                ] != reference:
                    raise SanitizationError(
                        f"nondeterministic campaign rounds {faults} "
                        f"faults: workers={workers} order={list(order)} "
                        "produced different round bytes than the serial "
                        "campaign"
                    )
                checked += 1
    return checked


def _check_shard_determinism(
    workload: object, worker_counts: Sequence[int]
) -> int:
    """Shard-permutation half of :func:`check_parallel_determinism`."""
    if not worker_counts:
        return 0
    import pickle

    from repro.experiments.config import MechanismSpec
    from repro.experiments.sharding import (
        CityConfig,
        run_sharded_campaign,
    )

    cities = [
        CityConfig("fuzz-east", workload, num_rounds=3),
        CityConfig("fuzz-west", workload, num_rounds=2),
    ]
    spec = MechanismSpec.of("online-greedy")

    def run_bytes(workers: int, order) -> bytes:
        result = run_sharded_campaign(
            spec,
            cities,
            seed=2014,
            workers=workers,
            shards_per_city=2,
            submission_order=order,
        )
        return pickle.dumps(result, protocol=4)

    # 2 + 2 rounds split two shards per city -> four shards, ids 0..3.
    orders = [None, (3, 2, 1, 0), (1, 3, 0, 2)]
    reference = run_bytes(1, None)
    checked = 1
    for workers in worker_counts:
        for order in orders:
            if workers == 1 and order is None:
                continue  # that run *is* the reference
            if run_bytes(workers, order) != reference:
                raise SanitizationError(
                    f"nondeterministic sharded campaign: workers="
                    f"{workers} submission order="
                    f"{list(order) if order else 'plan order'} produced "
                    "different result bytes than the workers=1 reference"
                )
            checked += 1
    return checked
