"""The incremental crowdsourcing platform of Fig. 1 / Section V.

The batch :class:`~repro.mechanisms.OnlineGreedyMechanism` consumes a
whole round at once; this class executes the *same* mechanism the way a
deployed platform would:

* phones join and submit their bid in their (claimed) arrival slot,
* sensing queries arrive and are announced per slot,
* at slot close the newly announced tasks are allocated greedily to the
  cheapest active unallocated bids (Algorithm 1's loop body),
* each winner's payment is computed and settled in its reported
  departure slot (Algorithm 2 only needs bids that arrived by then, so
  the computation is causally valid),
* every state change is emitted as a typed event.

The integration tests assert that a full platform run produces an
outcome equal to the batch mechanism's on the same inputs.

Fault recovery
--------------
Real smartphones are unreliable: they depart early without notice or
fail to hand in sensing results.  The platform supports both through
:meth:`~CrowdsourcingPlatform.report_dropout` and
:meth:`~CrowdsourcingPlatform.report_task_failure`.  Delivery is
confirmed when a winner's payment settles (its reported departure slot);
a winner that drops out or fails before then forfeits its task and its
payment (``PaymentWithheld``), and the platform reallocates the task
in-slot to the next cheapest active unallocated bid whose claimed window
covers the task's slot (a bounded retry chain, ``max_reassignments`` per
task).  When no faults are reported the behaviour — and the outcome — is
identical to the fault-free platform.
"""

from __future__ import annotations

import heapq
from typing import Any, Dict, List, Optional, Set, Tuple, Union

from repro import obs
from repro.auction.events import (
    AuctionEvent,
    BidSubmitted,
    FailureReported,
    PaymentSettled,
    PaymentWithheld,
    PhoneDropped,
    RoundFinalized,
    SlotAdvanced,
    SlotClosed,
    TaskAllocated,
    TaskFailed,
    TaskReassigned,
    TasksAnnounced,
    TaskUnserved,
)
from repro.errors import MechanismError
from repro.mechanisms.critical_payment import (
    algorithm2_payment,
    exact_critical_payment,
)
from repro.mechanisms.greedy_core import bid_sort_key
from repro.mechanisms.streaming import StreamingGreedyEngine
from repro.model.bid import Bid, check_phone_fields
from repro.model.outcome import AuctionOutcome
from repro.model.task import SensingTask
from repro.utils.validation import check_positive, check_type

#: The platform's inputs; every other event type is one it emits.
_COMMAND_TYPES = (
    BidSubmitted, TasksAnnounced, PhoneDropped,
    FailureReported, SlotAdvanced, RoundFinalized,
)


class CrowdsourcingPlatform:
    """Slot-by-slot execution of the online mechanism.

    Parameters
    ----------
    num_slots:
        The round horizon ``m``.
    reserve_price:
        Refuse negative-claimed-welfare assignments (see
        :class:`~repro.mechanisms.OnlineGreedyMechanism`).
    payment_rule:
        ``"paper"`` (Algorithm 2) or ``"exact"`` (binary-search critical
        value).
    max_reassignments:
        Bound on the per-task recovery chain: after this many
        reassignments a task that fails again is abandoned
        (``TaskUnserved``).

    Usage: :meth:`apply` one command at a time, stamped with the open
    slot: per slot, bids and task announcements in any order, then the
    slot close; after the last slot, the finalize.  Dropouts and failure
    reports may come in any open slot.
    """

    def __init__(
        self,
        num_slots: int,
        reserve_price: bool = False,
        payment_rule: str = "paper",
        max_reassignments: int = 3,
    ) -> None:
        check_type("num_slots", num_slots, int)
        check_positive("num_slots", num_slots)
        if payment_rule not in ("paper", "exact"):
            raise MechanismError(
                f"unknown payment_rule {payment_rule!r}"
            )
        check_type("max_reassignments", max_reassignments, int)
        if max_reassignments < 0:
            raise MechanismError(
                f"max_reassignments must be >= 0, got {max_reassignments}"
            )
        self._num_slots = num_slots
        self._reserve_price = bool(reserve_price)
        self._payment_rule = payment_rule
        self._max_reassignments = max_reassignments

        self._current_slot = 1
        self._finished = False
        self._finalized = False
        self._all_bids: Dict[int, Bid] = {}
        self._slot_bids: List[Bid] = []         # submitted this slot
        self._pool: List[Tuple[Tuple[float, int, int], Bid]] = []
        # Pooled bids still able to win (not departed, dropped or
        # chosen), and the pooled phones by claimed departure slot.
        self._live: Set[int] = set()
        self._live_until: Dict[int, List[int]] = {}
        self._tasks_by_id: Dict[int, SensingTask] = {}
        self._pending_tasks: List[SensingTask] = []
        self._next_task_id = 0
        self._allocation: Dict[int, int] = {}
        self._win_slots: Dict[int, int] = {}
        self._payments: Dict[int, float] = {}
        self._payment_slots: Dict[int, int] = {}
        self._events: List[AuctionEvent] = []
        # -- fault-recovery state ---------------------------------------
        self._dropped: Dict[int, int] = {}      # phone -> drop slot
        self._unreliable: Set[int] = set()      # will fail delivery
        self._failed: Dict[int, int] = {}       # phone -> failure slot
        self._withheld: Dict[int, int] = {}     # phone -> withhold slot
        self._delivered: Set[int] = set()       # delivery confirmed
        self._reassigned: Set[int] = set()      # won via reassignment
        self._reassign_counts: Dict[int, int] = {}  # task -> chain length
        # -- settlement: Algorithm 1 over every bid and task, fed at each
        # slot close (fault reports never reach it) ---------------------
        self._engine = StreamingGreedyEngine.slot_fed(
            num_slots, reserve_price=self._reserve_price
        )

    def _emit(self, event: AuctionEvent) -> None:
        """Record one event: append to the log, export to telemetry."""
        self._events.append(event)
        obs.record_event(event)

    # ------------------------------------------------------------------
    # State inspection
    # ------------------------------------------------------------------
    @property
    def current_slot(self) -> int:
        """The slot currently accepting submissions (1-based)."""
        return self._current_slot

    @property
    def num_slots(self) -> int:
        """The round horizon ``m``."""
        return self._num_slots

    @property
    def finished(self) -> bool:
        """Whether every slot has been closed."""
        return self._finished

    @property
    def finalized(self) -> bool:
        """Whether :meth:`finalize` produced the round's outcome."""
        return self._finalized

    @property
    def events(self) -> Tuple[AuctionEvent, ...]:
        """All events emitted so far, in order (a copy of the log)."""
        return tuple(self._events)

    @property
    def event_count(self) -> int:
        """How many events have been emitted so far."""
        return len(self._events)

    def events_since(self, start: int) -> Tuple[AuctionEvent, ...]:
        """The events emitted after the first ``start``, in order."""
        return tuple(self._events[start:])

    @property
    def pool_size(self) -> int:
        """Number of active, unallocated bids right now."""
        return len(self._live)

    @property
    def dropped_phones(self) -> Dict[int, int]:
        """Copy of the ``phone_id -> slot`` early-departure record."""
        return dict(self._dropped)

    @property
    def failed_deliverers(self) -> Dict[int, int]:
        """Copy of the ``phone_id -> slot`` delivery-failure record."""
        return dict(self._failed)

    @property
    def withheld_payments(self) -> Dict[int, int]:
        """Copy of the ``phone_id -> slot`` payment-withhold record."""
        return dict(self._withheld)

    @property
    def delivered_phones(self) -> Tuple[int, ...]:
        """Phones whose delivery was confirmed (settled), sorted."""
        return tuple(sorted(self._delivered))

    @property
    def reassignment_counts(self) -> Dict[int, int]:
        """Copy of the ``task_id -> reassignments`` recovery record."""
        return dict(self._reassign_counts)

    # ------------------------------------------------------------------
    # Validation
    # ------------------------------------------------------------------
    # Every mutating entry point validates through one of these
    # ``_validate_*`` methods *before* touching state.  The public
    # :meth:`validate_command` runs a command's checks without applying
    # it, so a write-ahead wrapper (``repro.durability.JournaledPlatform``)
    # can refuse a command before appending it to its journal: a
    # rejected command must leave the journal unchanged.

    def _validate_bid(self, bid: Union[Bid, BidSubmitted]) -> None:
        """Raise :class:`~repro.errors.MechanismError` unless ``bid``
        may be submitted right now (round open, arrival == current slot,
        departure within the horizon, phone not seen before)."""
        self._check_open()
        if bid.arrival != self._current_slot:
            raise MechanismError(
                f"phone {bid.phone_id} bids with arrival {bid.arrival} in "
                f"slot {self._current_slot}; online bids are submitted in "
                f"their arrival slot"
            )
        if bid.departure > self._num_slots:
            raise MechanismError(
                f"phone {bid.phone_id} claims departure {bid.departure} "
                f"beyond the round horizon {self._num_slots}"
            )
        if bid.phone_id in self._all_bids:
            raise MechanismError(
                f"phone {bid.phone_id} already submitted a bid this round"
            )

    def _validate_task_submission(self, count: int, value: float) -> None:
        """Raise unless ``count`` tasks of ``value`` may be announced."""
        self._check_open()
        check_type("count", count, int)
        if count < 0:
            raise MechanismError(f"count must be >= 0, got {count}")
        if count:
            # Run the task constructor's own field validation before any
            # task is appended, so a bad value never half-announces.
            SensingTask(
                task_id=0, slot=self._current_slot, index=1, value=value
            )

    def _validate_dropout(self, phone_id: int) -> None:
        """Raise unless ``phone_id`` may drop out in the current slot."""
        self._check_open()
        bid = self._all_bids.get(phone_id)
        if bid is None:
            raise MechanismError(
                f"cannot drop phone {phone_id}: it never submitted a bid"
            )
        if phone_id in self._dropped:
            raise MechanismError(
                f"phone {phone_id} already dropped out in slot "
                f"{self._dropped[phone_id]}"
            )
        if bid.departure < self._current_slot:
            raise MechanismError(
                f"phone {phone_id} reported departure {bid.departure} and "
                f"has already left; it cannot drop out in slot "
                f"{self._current_slot}"
            )

    def _validate_task_failure(self, phone_id: int) -> None:
        """Raise unless ``phone_id`` may be marked a non-deliverer."""
        self._check_open()
        if phone_id not in self._all_bids:
            raise MechanismError(
                f"cannot mark phone {phone_id} as failing: it never "
                f"submitted a bid"
            )
        if phone_id in self._delivered:
            raise MechanismError(
                f"phone {phone_id} already delivered its task; it cannot "
                f"fail retroactively"
            )
        if phone_id in self._dropped:
            raise MechanismError(
                f"phone {phone_id} already dropped out; reporting a task "
                f"failure as well is redundant"
            )

    def _validate_finalize(self) -> None:
        """Raise unless the round may be finalized."""
        if self._finalized:
            raise MechanismError(
                "finalize() already called: a round produces exactly one "
                "outcome"
            )
        if not self._finished:
            raise MechanismError(
                f"round not finished: slot {self._current_slot} of "
                f"{self._num_slots} still open"
            )

    # ------------------------------------------------------------------
    # Commands
    # ------------------------------------------------------------------
    def apply(self, command: AuctionEvent) -> Any:
        """Apply one command, the platform's one input, through its
        mutator; returns the mutator's result (for ``RoundFinalized``,
        the outcome).  A rejected command raises
        :class:`~repro.errors.MechanismError` (or a bid field's
        :class:`~repro.errors.ValidationError`) and changes nothing."""
        return self._dispatch(command, dry_run=False)

    def validate_command(self, command: AuctionEvent) -> None:
        """Raise as :meth:`apply` would reject ``command``; change nothing."""
        self._dispatch(command, dry_run=True)

    def _dispatch(self, command: AuctionEvent, dry_run: bool) -> Any:
        """Run the validator (``dry_run``) or the mutator of ``command``,
        a command (not an emitted event) stamped with the open slot."""
        if not isinstance(command, _COMMAND_TYPES):
            raise MechanismError(
                f"{type(command).__name__} is not a platform command"
            )
        if type(command.slot) is not int or command.slot != self._current_slot:
            raise MechanismError(
                f"{command!r} is stamped slot {command.slot!r}, but slot "
                f"{self._current_slot} is open: a command applies in the "
                f"slot it names"
            )
        if isinstance(command, BidSubmitted):
            fields = (
                command.phone_id, command.arrival, command.departure, command.cost
            )
            if dry_run:
                check_phone_fields(*fields)
                return self._validate_bid(command)
            return self.submit_bid(Bid(*fields))
        if isinstance(command, TasksAnnounced):
            if dry_run:
                return self._validate_task_submission(command.count, command.value)
            return self.submit_tasks(command.count, command.value)
        if isinstance(command, PhoneDropped):
            if dry_run:
                return self._validate_dropout(command.phone_id)
            return self.report_dropout(command.phone_id)
        if isinstance(command, FailureReported):
            if dry_run:
                return self._validate_task_failure(command.phone_id)
            return self.report_task_failure(command.phone_id)
        if isinstance(command, SlotAdvanced):
            return self._check_open() if dry_run else self.close_slot()
        return self._validate_finalize() if dry_run else self.finalize()

    # ------------------------------------------------------------------
    # Submissions
    # ------------------------------------------------------------------
    def submit_bid(self, bid: Bid) -> None:
        """A phone joins in the current slot and submits its bid.

        The online model requires a phone to bid when it becomes active:
        ``bid.arrival`` must equal the current slot.
        """
        self._validate_bid(bid)
        self._all_bids[bid.phone_id] = bid
        self._slot_bids.append(bid)
        heapq.heappush(self._pool, (bid_sort_key(bid), bid))
        self._live.add(bid.phone_id)
        self._live_until.setdefault(bid.departure, []).append(bid.phone_id)
        self._emit(
            BidSubmitted(
                slot=self._current_slot,
                phone_id=bid.phone_id,
                arrival=bid.arrival,
                departure=bid.departure,
                cost=bid.cost,
            )
        )

    def submit_tasks(self, count: int, value: float) -> List[SensingTask]:
        """Announce ``count`` tasks of ``value`` arriving this slot."""
        self._validate_task_submission(count, value)
        created: List[SensingTask] = []
        existing = sum(
            1 for t in self._pending_tasks if t.slot == self._current_slot
        )
        for offset in range(count):
            task = SensingTask(
                task_id=self._next_task_id,
                slot=self._current_slot,
                index=existing + offset + 1,
                value=value,
            )
            self._next_task_id += 1
            self._pending_tasks.append(task)
            created.append(task)
        if count:
            self._emit(
                TasksAnnounced(slot=self._current_slot, count=count)
            )
        return created

    # ------------------------------------------------------------------
    # Fault reports
    # ------------------------------------------------------------------
    def report_dropout(self, phone_id: int) -> None:
        """A phone departed during the current slot, without notice.

        The phone leaves the pool immediately and can never be allocated
        again.  If it holds an allocation whose delivery was not yet
        confirmed (delivery is confirmed at payment settlement, i.e. the
        reported departure slot), the task fails, the payment is
        withheld, and the platform attempts an in-slot reallocation.
        """
        self._validate_dropout(phone_id)
        slot = self._current_slot
        self._dropped[phone_id] = slot
        self._live.discard(phone_id)
        self._emit(PhoneDropped(slot=slot, phone_id=phone_id))
        if phone_id in self._win_slots and phone_id not in self._delivered:
            self._fail_delivery(phone_id, reason="dropout")

    def report_task_failure(self, phone_id: int) -> None:
        """Mark a phone as a non-deliverer: it will fail its task.

        The phone behaves normally through bidding and allocation, but
        when its delivery would be confirmed (its reported departure
        slot) it hands in nothing — the task fails, the payment is
        withheld, and the platform attempts an in-slot reallocation.
        """
        self._validate_task_failure(phone_id)
        self._unreliable.add(phone_id)

    def _fail_delivery(self, phone_id: int, reason: str) -> None:
        """A winner did not deliver: forfeit task + payment, reallocate."""
        slot = self._current_slot
        task_id = next(
            tid for tid, pid in self._allocation.items() if pid == phone_id
        )
        del self._allocation[task_id]
        del self._win_slots[phone_id]
        self._failed[phone_id] = slot
        self._withheld[phone_id] = slot
        self._emit(
            TaskFailed(
                slot=slot, task_id=task_id, phone_id=phone_id, reason=reason
            )
        )
        self._emit(
            PaymentWithheld(slot=slot, phone_id=phone_id, reason=reason)
        )
        self._reassign(task_id, failed_phone=phone_id)

    def _reassign(self, task_id: int, failed_phone: int) -> None:
        """Reallocate a failed task to the next cheapest eligible bid.

        Eligibility: pooled (unallocated), still present, not dropped or
        failed, claimed window covering the task's slot (constraint (4)),
        and — with a reserve price — claimed cost at most the task value.
        The chain is bounded by ``max_reassignments`` per task.
        """
        slot = self._current_slot
        task = self._tasks_by_id[task_id]
        count = self._reassign_counts.get(task_id, 0)
        candidate = None
        if count < self._max_reassignments:
            candidate = self._pop_cheapest_covering(task)
        if candidate is None:
            self._emit(TaskUnserved(slot=slot, task_id=task_id))
            return
        self._reassign_counts[task_id] = count + 1
        self._allocation[task_id] = candidate.phone_id
        self._win_slots[candidate.phone_id] = task.slot
        self._reassigned.add(candidate.phone_id)
        obs.counter("platform.reassignments")
        self._emit(
            TaskReassigned(
                slot=slot,
                task_id=task_id,
                from_phone=failed_phone,
                to_phone=candidate.phone_id,
                claimed_cost=candidate.cost,
            )
        )

    def _pop_cheapest_covering(self, task: SensingTask) -> Optional[Bid]:
        """Cheapest pooled bid whose claimed window covers ``task``'s slot.

        Unlike :meth:`_pop_cheapest`, eligibility is not monotone in the
        heap order (a cheap bid may have arrived after the task's slot),
        so ineligible-but-alive entries are stashed and pushed back.
        """
        slot = self._current_slot
        stash: List[Tuple[Tuple[float, int, int], Bid]] = []
        chosen: Optional[Bid] = None
        while self._pool:
            key, candidate = heapq.heappop(self._pool)
            if (
                candidate.departure < slot
                or candidate.phone_id in self._dropped
                or candidate.phone_id in self._failed
            ):
                continue  # permanently gone; drop from the heap
            if self._reserve_price and candidate.cost > task.value:
                stash.append((key, candidate))
                break  # heap is cost-ordered: nobody cheaper remains
            if candidate.arrival > task.slot:
                stash.append((key, candidate))
                continue  # alive but cannot cover the task's slot
            chosen = candidate
            self._live.discard(candidate.phone_id)
            break
        for entry in stash:
            heapq.heappush(self._pool, entry)
        return chosen

    # ------------------------------------------------------------------
    # Slot processing
    # ------------------------------------------------------------------
    def close_slot(self) -> None:
        """Allocate this slot's tasks, settle due payments, advance."""
        self._check_open()
        slot = self._current_slot

        with obs.span(
            "platform.slot", slot=slot, tasks=len(self._pending_tasks)
        ) as tel:
            events_before = len(self._events)
            announced = self._pending_tasks
            for task in announced:
                chosen = self._pop_cheapest(slot, task.value)
                self._tasks_by_id[task.task_id] = task
                if chosen is None:
                    self._emit(
                        TaskUnserved(slot=slot, task_id=task.task_id)
                    )
                    continue
                self._allocation[task.task_id] = chosen.phone_id
                self._win_slots[chosen.phone_id] = slot
                self._emit(
                    TaskAllocated(
                        slot=slot,
                        task_id=task.task_id,
                        phone_id=chosen.phone_id,
                        claimed_cost=chosen.cost,
                    )
                )
            self._pending_tasks = []

            self._engine.feed_slot(self._slot_bids, announced)
            self._slot_bids = []
            self._settle_departures(slot)
            self._emit(SlotClosed(slot=slot, pool_size=self.pool_size))
            tel.set_attribute("events", len(self._events) - events_before)

        # Live-telemetry breadcrumb: a heartbeat reader polling the
        # metrics registry sees how far the platform has advanced.
        obs.gauge("platform.progress.slot", slot)

        if slot == self._num_slots:
            self._finished = True
        else:
            for phone_id in self._live_until.pop(slot, ()):
                self._live.discard(phone_id)
            self._current_slot += 1

    def _pop_cheapest(self, slot: int, task_value: float) -> Optional[Bid]:
        """The cheapest active pooled bid, honouring the reserve price."""
        while self._pool:
            _, candidate = self._pool[0]
            if (
                candidate.departure < slot
                or candidate.phone_id in self._dropped
                or candidate.phone_id in self._failed
            ):
                heapq.heappop(self._pool)
                continue
            if self._reserve_price and candidate.cost > task_value:
                return None
            self._live.discard(candidate.phone_id)
            return heapq.heappop(self._pool)[1]
        return None

    def _settle_departures(self, slot: int) -> None:
        """Confirm deliveries and pay winners departing this slot.

        Algorithm 2 only consumes bids that arrived by the winner's
        departure and tasks announced by then — all known now — so the
        payment computed here equals the whole-round mechanism's.
        :meth:`close_slot` has just fed this slot's bids and tasks to the
        round's one settlement engine; Algorithm 1's records for a slot
        depend only on bids and tasks that arrived by it, so that engine
        prices each winner exactly as one rebuilt now over everything
        known would (:meth:`_price`).

        A due winner previously marked unreliable
        (:meth:`report_task_failure`) fails instead of delivering; the
        resulting reallocation may hand the task to another phone that is
        *also* due this slot, so the scan repeats until no due winner
        remains (the chain is finite: every failure burns a phone).
        """
        while True:
            due = [
                (phone_id, win_slot)
                for phone_id, win_slot in self._win_slots.items()
                if phone_id not in self._payments
                and self._all_bids[phone_id].departure == slot
            ]
            if not due:
                return
            for phone_id, win_slot in due:
                if self._win_slots.get(phone_id) != win_slot:
                    continue  # reassigned away during this scan
                if phone_id in self._unreliable:
                    self._fail_delivery(phone_id, reason="no-delivery")
                    continue
                winner = self._all_bids[phone_id]
                amount = self._price(winner, win_slot)
                if phone_id in self._reassigned and amount < winner.cost:
                    # A recovery winner was not the greedy choice in its
                    # task's slot, so its critical value can sit below its
                    # claimed cost; floor the payment to preserve
                    # individual rationality for paying winners.
                    amount = winner.cost
                self._payments[phone_id] = amount
                self._payment_slots[phone_id] = slot
                self._delivered.add(phone_id)
                self._emit(
                    PaymentSettled(
                        slot=slot, phone_id=phone_id, amount=amount
                    )
                )

    def _price(self, winner: Bid, win_slot: int) -> float:
        """``winner``'s critical payment under the platform's rule.

        Read off the settlement engine's records when they answer it.
        A winner they cannot price — one the engine did not select at
        ``win_slot`` (a reassigned winner, say), or any winner while a
        reserve price meets heterogeneous task values — is priced by a
        re-run over the bids and tasks fed so far.
        """
        engine = self._engine
        phone_id = winner.phone_id
        if self._payment_rule == "paper":
            if engine.answers_algorithm2(phone_id, win_slot):
                return engine.algorithm2_payment(winner, win_slot)
            return algorithm2_payment(
                engine.bids,
                engine.schedule,
                winner,
                win_slot,
                reserve_price=self._reserve_price,
            )
        if engine.answers_exact(phone_id):
            return engine.exact_payment(winner)
        return exact_critical_payment(
            engine.bids,
            engine.schedule,
            winner,
            reserve_price=self._reserve_price,
        )

    def advance_to(self, slot: int) -> None:
        """Close empty slots until ``slot`` is the open slot.

        Convenience for sparse rounds.  Raises
        :class:`~repro.errors.MechanismError` on out-of-order advancement
        (a slot already closed) or a slot beyond the round horizon.
        """
        self._check_open()
        check_type("slot", slot, int)
        if slot < self._current_slot:
            raise MechanismError(
                f"cannot advance to slot {slot}: slot "
                f"{self._current_slot} is already open (slots advance "
                f"monotonically)"
            )
        if slot > self._num_slots:
            raise MechanismError(
                f"cannot advance to slot {slot}: the round horizon is "
                f"{self._num_slots}"
            )
        while self._current_slot < slot:
            self.close_slot()

    # ------------------------------------------------------------------
    # Completion
    # ------------------------------------------------------------------
    def finalize(self) -> AuctionOutcome:
        """The round's outcome; requires every slot to be closed."""
        self._validate_finalize()
        self._finalized = True
        return AuctionOutcome(
            bids=list(self._all_bids.values()),
            schedule=self._engine.schedule,
            allocation=self._allocation,
            payments=self._payments,
            payment_slots=self._payment_slots,
        )

    def _check_open(self) -> None:
        if self._finished:
            raise MechanismError("the round has already finished")
