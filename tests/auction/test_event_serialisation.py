"""Event serialisation: ``to_dict`` / ``event_from_dict`` round-trips."""

from __future__ import annotations

import dataclasses
import json

import pytest

from repro.auction import CrowdsourcingPlatform
from repro.auction.events import (
    EVENT_TYPES,
    AuctionEvent,
    BidSubmitted,
    PaymentSettled,
    TaskAllocated,
    TaskReassigned,
    event_from_dict,
)
from repro.model import Bid
from repro.simulation.scenario import Scenario
from repro.simulation.paper_example import (
    paper_example_profiles,
    paper_example_schedule,
)
from repro.auction.round_driver import replay_scenario


def _sample_events():
    """One instance of every registered event class, fields filled."""
    samples = []
    for cls in EVENT_TYPES.values():
        kwargs = {}
        for field in dataclasses.fields(cls):
            if field.type in ("int", int):
                kwargs[field.name] = 3
            elif field.type in ("float", float):
                kwargs[field.name] = 2.5
            else:
                kwargs[field.name] = "dropout"
        samples.append(cls(**kwargs))
    return samples


class TestEventRegistry:
    def test_every_concrete_event_class_is_registered(self):
        assert len(EVENT_TYPES) == 14
        for name, cls in EVENT_TYPES.items():
            assert cls.__name__ == name
            assert issubclass(cls, AuctionEvent)
        assert AuctionEvent not in EVENT_TYPES.values()


class TestRoundTrip:
    @pytest.mark.parametrize(
        "event", _sample_events(), ids=lambda e: type(e).__name__
    )
    def test_every_event_class_round_trips(self, event):
        payload = event.to_dict()
        assert payload["event"] == type(event).__name__
        # The payload is genuinely JSON-friendly.
        rebuilt = event_from_dict(json.loads(json.dumps(payload)))
        assert rebuilt == event
        assert type(rebuilt) is type(event)

    def test_to_dict_carries_every_field(self):
        event = BidSubmitted(
            slot=1, phone_id=4, arrival=1, departure=3, cost=2.5
        )
        assert event.to_dict() == {
            "event": "BidSubmitted",
            "slot": 1,
            "phone_id": 4,
            "arrival": 1,
            "departure": 3,
            "cost": 2.5,
        }

    def test_unknown_tag_raises(self):
        with pytest.raises(ValueError, match="unknown event type"):
            event_from_dict({"event": "NoSuchEvent", "slot": 1})

    def test_missing_tag_raises(self):
        with pytest.raises(ValueError, match="event"):
            event_from_dict({"slot": 1})

    def test_full_platform_log_round_trips(self):
        scenario = Scenario(
            paper_example_profiles(), paper_example_schedule()
        )
        _, events = replay_scenario(scenario)
        assert len(events) > 0
        rebuilt = [event_from_dict(e.to_dict()) for e in events]
        assert rebuilt == list(events)
        assert any(isinstance(e, TaskAllocated) for e in rebuilt)
        assert any(isinstance(e, PaymentSettled) for e in rebuilt)

    def test_reassignment_event_round_trips_with_reason_fields(self):
        platform = CrowdsourcingPlatform(num_slots=3)
        platform.submit_bid(Bid(phone_id=1, arrival=1, departure=3, cost=1.0))
        platform.submit_bid(Bid(phone_id=2, arrival=1, departure=3, cost=4.0))
        platform.submit_tasks(1, value=20.0)
        platform.close_slot()
        platform.report_dropout(1)
        reassigned = [
            e for e in platform.events if isinstance(e, TaskReassigned)
        ]
        assert reassigned
        rebuilt = event_from_dict(reassigned[0].to_dict())
        assert rebuilt == reassigned[0]
        assert rebuilt.from_phone == 1
        assert rebuilt.to_phone == 2


def _typed_sample(cls):
    """An instance of ``cls`` with every field set to a value of its type."""
    values = {"int": 3, "float": 2.5, "bool": True, "str": "dropout"}
    return cls(
        **{
            field.name: values[getattr(field.type, "__name__", field.type)]
            for field in dataclasses.fields(cls)
        }
    )


class TestShallowToDict:
    """``to_dict`` copies the fields as they are, in declaration order."""

    @pytest.mark.parametrize(
        "cls", list(EVENT_TYPES.values()), ids=lambda cls: cls.__name__
    )
    def test_equals_asdict_with_its_key_order(self, cls):
        event = _typed_sample(cls)
        expected = {"event": cls.__name__, **dataclasses.asdict(event)}
        payload = event.to_dict()
        assert payload == expected
        assert list(payload.items()) == list(expected.items())

    def test_sealed_journal_lines_are_unchanged(self, tmp_path):
        from repro.durability import (
            JOURNAL_VERSION,
            KIND_COMMAND,
            EventDigest,
            Journal,
            scan_journal,
            segment_paths,
        )
        from repro.utils.recordlog import seal

        events = [_typed_sample(cls) for cls in EVENT_TYPES.values()]
        emitted = EventDigest.of(events)
        with Journal(tmp_path / "journal") as journal:
            for event in events:
                journal.append(KIND_COMMAND, event, emitted)
        records = scan_journal(tmp_path / "journal").records
        expected = b"".join(
            seal(
                {
                    "emitted": {
                        "count": len(events),
                        "sha256": emitted.sha256,
                    },
                    "event": {
                        "event": type(record.event).__name__,
                        **dataclasses.asdict(record.event),
                    },
                    "kind": record.kind,
                    "prev": record.prev,
                    "seq": record.seq,
                    **(
                        {"version": JOURNAL_VERSION}
                        if record.seq == 1
                        else {}
                    ),
                },
                "hash",
            )[0]
            for record in records
        )
        written = b"".join(
            path.read_bytes()
            for path in segment_paths(tmp_path / "journal")
        )
        assert len(records) == len(events)
        assert written == expected
