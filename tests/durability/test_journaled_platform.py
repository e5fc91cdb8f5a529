"""The journaling platform wrapper and the platform lifecycle guards.

The write-ahead contract under test: every accepted command is
journaled *before* the platform mutates, and every **rejected** command
leaves both the platform and the journal exactly as they were.
"""

from __future__ import annotations

import pytest

from repro.auction.events import (
    BidSubmitted,
    RoundStarted,
    SlotAdvanced,
    SlotClosed,
)
from repro.auction.platform import CrowdsourcingPlatform
from repro.durability import (
    KIND_COMMAND,
    EventDigest,
    Journal,
    JournaledPlatform,
)
from repro.errors import JournalError, MechanismError
from repro.model.bid import Bid


@pytest.fixture
def journal(tmp_path):
    with Journal(tmp_path / "journal") as journal:
        yield journal


@pytest.fixture
def platform(journal):
    return JournaledPlatform(journal, num_slots=3)


def _drive_to_finalize(platform):
    platform.submit_bid(Bid(phone_id=0, arrival=1, departure=3, cost=5.0))
    platform.submit_tasks(1, value=20.0)
    platform.advance_to(3)
    platform.close_slot()
    return platform.finalize()


class TestJournaledPlatform:
    def test_header_records_round_configuration(self, platform, journal):
        header = journal.records[0]
        assert header.kind == KIND_COMMAND
        assert isinstance(header.event, RoundStarted)
        assert header.event.num_slots == 3
        assert header.event.payment_rule == "paper"

    def test_commands_precede_their_derived_events(self, platform, journal):
        platform.submit_bid(
            Bid(phone_id=1, arrival=1, departure=2, cost=4.0)
        )
        kinds = [(r.kind, type(r.event).__name__) for r in journal.records]
        # Only the command is written; its events are owed to the next
        # record.
        assert kinds == [
            (KIND_COMMAND, "RoundStarted"),
            (KIND_COMMAND, "BidSubmitted"),
        ]
        emitted = platform.inner.events
        platform.close_slot()
        record = journal.records[-1]
        assert isinstance(record.event, SlotAdvanced)
        assert [type(e).__name__ for e in emitted] == ["BidSubmitted"]
        assert record.emitted == EventDigest.of(emitted)

    def test_close_slot_journals_derived_slot_closed(
        self, platform, journal
    ):
        platform.close_slot()
        before = len(platform.inner.events)
        platform.close_slot()
        closed = platform.inner.events_since(before - 1)
        assert isinstance(closed[-1], SlotClosed)
        # The record of the second close carries the first one's events.
        assert journal.records[-1].emitted == EventDigest.of(
            platform.inner.events[:before]
        )
        assert journal.records[1].emitted == EventDigest.of(())

    def test_empty_task_submission_is_not_journaled(self, platform, journal):
        before = journal.last_seq
        platform.submit_tasks(0, value=10.0)
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
            lambda: platform.report_dropout(0),
            match="finished",
        )

    def test_failure_report_after_finalize_rejected(self, journal, platform):
        _drive_to_finalize(platform)
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.report_task_failure(0),
            match="finished",
        )

    def test_backwards_advance_rejected(self, journal, platform):
        platform.advance_to(3)
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.advance_to(1),
            match="monotonically",
        )

    def test_advance_beyond_horizon_rejected(self, journal, platform):
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.advance_to(4),
            match="horizon",
        )

    def test_close_slot_after_round_end_rejected(self, journal, platform):
        platform.advance_to(3)
        platform.close_slot()  # the last slot: the round is finished
        self._assert_rejected(
            journal, platform, platform.close_slot, match="finished"
        )

    def test_double_finalize_rejected(self, journal, platform):
        _drive_to_finalize(platform)
        self._assert_rejected(
            journal, platform, platform.finalize, match="exactly one"
        )

    def test_duplicate_bid_rejected(self, journal, platform):
        bid = Bid(phone_id=5, arrival=1, departure=2, cost=3.0)
        platform.submit_bid(bid)
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.submit_bid(bid),
            match="already submitted",
        )

    def test_dropout_of_unknown_phone_rejected(self, journal, platform):
        self._assert_rejected(
            journal,
            platform,
            lambda: platform.report_dropout(404),
            match="never submitted",
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
        from repro.durability import apply_command

        platform = CrowdsourcingPlatform(num_slots=3)
        with pytest.raises(JournalError, match="not a journal command"):
            apply_command(platform, SlotClosed(slot=1, pool_size=0))

    def test_bid_submitted_command_round_trips_the_bid(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        from repro.durability import apply_command

        apply_command(
            platform,
            BidSubmitted(
                slot=1, phone_id=3, arrival=1, departure=2, cost=7.5
            ),
        )
        assert platform.pool_size == 1

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
