"""The journaling platform wrapper and the platform lifecycle guards.

The write-ahead contract under test: every accepted command is
journaled *before* the platform mutates, and every **rejected** command
leaves both the platform and the journal exactly as they were.
"""

from __future__ import annotations

import pytest

from repro.auction.events import (
    BidSubmitted,
    FailureReported,
    PhoneDropped,
    RoundFinalized,
    RoundStarted,
    SlotAdvanced,
    SlotClosed,
    TasksAnnounced,
)
from repro.auction.platform import CrowdsourcingPlatform
from repro.durability import (
    KIND_COMMAND,
    EventDigest,
    Journal,
    JournaledPlatform,
    scan_journal,
)
from repro.errors import JournalError, MechanismError


@pytest.fixture
def journal(tmp_path):
    with Journal(tmp_path / "journal") as journal:
        yield journal


@pytest.fixture
def platform(journal):
    return JournaledPlatform(journal, num_slots=3)


def _records(journal):
    """The records appended so far, read back from disk."""
    return scan_journal(journal.directory).records


def _bid(phone_id, slot=1, departure=3, cost=5.0):
    return BidSubmitted(
        slot=slot,
        phone_id=phone_id,
        arrival=slot,
        departure=departure,
        cost=cost,
    )


def _close_through(platform, slot):
    """Close every open slot up to and including ``slot``."""
    while not platform.finished and platform.current_slot <= slot:
        platform.apply(SlotAdvanced(slot=platform.current_slot))


def _drive_to_finalize(platform):
    platform.apply(_bid(0))
    platform.apply(TasksAnnounced(slot=1, count=1, value=20.0))
    _close_through(platform, 3)
    return platform.apply(RoundFinalized(slot=3))


class TestJournaledPlatform:
    def test_header_records_round_configuration(self, platform, journal):
        header = _records(journal)[0]
        assert header.kind == KIND_COMMAND
        assert isinstance(header.event, RoundStarted)
        assert header.event.num_slots == 3
        assert header.event.payment_rule == "paper"

    def test_commands_precede_their_derived_events(self, platform, journal):
        platform.apply(_bid(1, departure=2, cost=4.0))
        kinds = [(r.kind, type(r.event).__name__) for r in _records(journal)]
        # Only the command is written; its events are owed to the next
        # record.
        assert kinds == [
            (KIND_COMMAND, "RoundStarted"),
            (KIND_COMMAND, "BidSubmitted"),
        ]
        emitted = platform.inner.events
        platform.apply(SlotAdvanced(slot=1))
        record = _records(journal)[-1]
        assert isinstance(record.event, SlotAdvanced)
        assert [type(e).__name__ for e in emitted] == ["BidSubmitted"]
        assert record.emitted == EventDigest.of(emitted)

    def test_close_slot_journals_derived_slot_closed(
        self, platform, journal
    ):
        platform.apply(SlotAdvanced(slot=1))
        before = len(platform.inner.events)
        platform.apply(SlotAdvanced(slot=2))
        closed = platform.inner.events_since(before - 1)
        assert isinstance(closed[-1], SlotClosed)
        records = _records(journal)
        # The record of the second close carries the first one's events.
        assert records[-1].emitted == EventDigest.of(
            platform.inner.events[:before]
        )
        assert records[1].emitted == EventDigest.of(())

    def test_empty_task_submission_is_not_journaled(self, platform, journal):
        before = journal.last_seq
        assert platform.apply(TasksAnnounced(slot=1, count=0, value=10.0)) == []
        assert journal.last_seq == before

    def test_finalize_returns_platform_outcome(self, platform):
        outcome = _drive_to_finalize(platform)
        assert set(outcome.winners) == {0}
        assert platform.inner.current_slot == 3

    def test_delegates_read_surface_to_inner_platform(self, platform):
        assert platform.current_slot == 1
        assert platform.num_slots == 3
        with pytest.raises(AttributeError):
            platform.no_such_attribute

    def test_exposes_no_mutator_but_apply(self, platform, journal):
        """The inner platform's mutators are not reachable through the
        wrapper: a change that skipped the journal would be lost to
        replay."""
        mutators = [
            name
            for name, member in vars(CrowdsourcingPlatform).items()
            if callable(member)
            and not name.startswith("_")
            and not name.startswith("validate_")
            and name not in ("apply", "events_since")
        ]
        assert {"submit_bid", "close_slot", "finalize"} <= set(mutators)
        for name in mutators:
            assert not hasattr(platform, name), name
            with pytest.raises(AttributeError, match="apply"):
                getattr(platform, name)
        wrapper = {
            name
            for name, member in vars(JournaledPlatform).items()
            if callable(member) and not name.startswith("_")
        }
        # close_round only appends the close record RoundFinalized owes.
        assert wrapper == {"apply", "close_round"}
        assert platform.inner.event_count == 0
        assert journal.last_seq == 1

    def test_journals_the_command_it_is_handed(self, platform, journal):
        commands = [
            _bid(1, cost=4),
            FailureReported(slot=1, phone_id=1),
            TasksAnnounced(slot=1, count=2, value=20.0),
            SlotAdvanced(slot=1),
            PhoneDropped(slot=2, phone_id=1),
        ]
        for command in commands:
            platform.apply(command)
        assert [r.event for r in _records(journal)[1:]] == commands

    def test_fresh_constructor_refuses_nonempty_journal(
        self, journal, platform
    ):
        with pytest.raises(JournalError, match="resume"):
            JournaledPlatform(journal, num_slots=3)

    def test_from_recovery_does_not_append_a_header(self, journal, platform):
        before = journal.last_seq
        wrapper = JournaledPlatform.from_recovery(
            journal, CrowdsourcingPlatform(num_slots=3)
        )
        assert journal.last_seq == before
        assert wrapper.journal is journal


class TestLifecycleGuards:
    """Misuse raises MechanismError and journals nothing."""

    def _assert_rejected(self, journal, platform, exercise, match):
        before_seq = journal.last_seq
        before_events = len(platform.inner.events)
        with pytest.raises(MechanismError, match=match):
            exercise()
        assert journal.last_seq == before_seq, (
            "a rejected command reached the write-ahead journal"
        )
        assert len(platform.inner.events) == before_events

    def test_dropout_after_finalize_rejected(self, journal, platform):
        _drive_to_finalize(platform)
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(PhoneDropped(slot=3, phone_id=0)),
            match="finished",
        )

    def test_failure_report_after_finalize_rejected(self, journal, platform):
        _drive_to_finalize(platform)
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(FailureReported(slot=3, phone_id=0)),
            match="finished",
        )

    def test_backwards_advance_rejected(self, journal, platform):
        _close_through(platform, 2)
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(SlotAdvanced(slot=1)),
            match="slot 3 is open",
        )

    def test_advance_beyond_horizon_rejected(self, journal, platform):
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(SlotAdvanced(slot=4)),
            match="slot 1 is open",
        )

    def test_close_slot_after_round_end_rejected(self, journal, platform):
        _close_through(platform, 3)  # the last slot: the round is finished
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(SlotAdvanced(slot=3)),
            match="finished",
        )

    def test_double_finalize_rejected(self, journal, platform):
        _drive_to_finalize(platform)
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(RoundFinalized(slot=3)),
            match="exactly one",
        )

    def test_duplicate_bid_rejected(self, journal, platform):
        platform.apply(_bid(5, departure=2, cost=3.0))
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(_bid(5, departure=2, cost=3.0)),
            match="already submitted",
        )

    def test_dropout_of_unknown_phone_rejected(self, journal, platform):
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(PhoneDropped(slot=1, phone_id=404)),
            match="never submitted",
        )

    def test_bid_stamped_with_another_slot_rejected(self, journal, platform):
        """The arrival is the open slot; the command's own slot is not."""
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(
                BidSubmitted(
                    slot=2, phone_id=1, arrival=1, departure=3, cost=2.0
                )
            ),
            match="stamped slot 2, but slot 1 is open",
        )

    def test_derived_event_rejected(self, journal, platform):
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.apply(SlotClosed(slot=1, pool_size=0)),
            match="not a platform command",
        )

    def test_plain_platform_raises_the_same_errors(self):
        """The guards are the inner platform's, not the wrapper's."""
        platform = CrowdsourcingPlatform(num_slots=3)
        platform.advance_to(3)
        platform.close_slot()
        platform.finalize()
        with pytest.raises(MechanismError):
            platform.report_dropout(0)
        with pytest.raises(MechanismError):
            platform.advance_to(1)
        with pytest.raises(MechanismError):
            platform.close_slot()


class TestBareEventsAreNotCommands:
    def test_apply_command_rejects_derived_events(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        with pytest.raises(MechanismError, match="not a platform command"):
            platform.apply(SlotClosed(slot=1, pool_size=0))
        with pytest.raises(MechanismError, match="not a platform command"):
            platform.validate_command(
                RoundStarted(
                    slot=0,
                    num_slots=3,
                    reserve_price=False,
                    payment_rule="paper",
                    max_reassignments=3,
                )
            )
        assert platform.event_count == 0

    def test_bid_submitted_command_round_trips_the_bid(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        platform.apply(
            BidSubmitted(
                slot=1, phone_id=3, arrival=1, departure=2, cost=7.5
            ),
        )
        assert platform.pool_size == 1
        assert platform.events == (
            BidSubmitted(slot=1, phone_id=3, arrival=1, departure=2, cost=7.5),
        )

    def test_nan_cost_command_raises_the_bid_validation_error(self):
        from repro.durability import execute_commands
        from repro.errors import ValidationError

        platform = CrowdsourcingPlatform(num_slots=3)
        command = BidSubmitted(
            slot=1, phone_id=3, arrival=1, departure=2, cost=float("nan")
        )
        with pytest.raises(ValidationError) as exc:
            execute_commands(platform, [command])
        assert str(exc.value) == "cost must be finite, got nan"
        assert type(exc.value) is ValidationError
        assert platform.pool_size == 0
        assert platform.event_count == 0

    def test_validate_command_raises_the_bid_validation_error(self, platform):
        """A journaled bid's fields are checked before its record."""
        from repro.errors import ValidationError

        command = BidSubmitted(
            slot=1, phone_id=3, arrival=1, departure=2, cost=float("nan")
        )
        with pytest.raises(ValidationError) as exc:
            platform.apply(command)
        assert str(exc.value) == "cost must be finite, got nan"
        assert platform.journal.last_seq == 1
        assert platform.inner.event_count == 0
