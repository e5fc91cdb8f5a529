"""Run-ledger durability, identity, and session lifecycle."""

from __future__ import annotations

import json

import pytest

from repro import obs
from repro.obs import (
    LEDGER_SCHEMA,
    LedgerError,
    LedgerSession,
    ManualClock,
    RunLedger,
    RunRecord,
    Tracer,
    config_digest,
    make_run_id,
    set_perf_clock,
    set_wall_clock,
)


@pytest.fixture
def manual_clocks():
    """Freeze both process clocks; restore the real ones afterwards."""
    wall = ManualClock(start=1_000_000.0)
    perf = ManualClock(start=100.0)
    previous_wall = set_wall_clock(wall)
    previous_perf = set_perf_clock(perf)
    try:
        yield wall, perf
    finally:
        set_wall_clock(previous_wall)
        set_perf_clock(previous_perf)


def _record(run_id="abc123def456", command="campaign", label="greedy"):
    return RunRecord(
        run_id=run_id,
        command=command,
        label=label,
        started_at=1_000_000.0,
        wall_seconds=2.5,
        git_sha="f" * 40,
        config_digest="0" * 12,
        counters={"rounds": 50.0},
        artifacts={"journal_dir": "/tmp/journal"},
    )


class TestConfigDigest:
    def test_key_order_never_matters(self):
        assert config_digest({"a": 1, "b": 2}) == config_digest(
            {"b": 2, "a": 1}
        )

    def test_different_configs_differ(self):
        assert config_digest({"a": 1}) != config_digest({"a": 2})

    def test_non_json_values_fall_back_to_str(self):
        import pathlib

        digest = config_digest({"path": pathlib.Path("/tmp/x")})
        assert len(digest) == 12


class TestRunId:
    def test_deterministic(self):
        first = make_run_id("campaign", "greedy", 1000.0, "aa" * 6)
        second = make_run_id("campaign", "greedy", 1000.0, "aa" * 6)
        assert first == second
        assert len(first) == 12

    def test_start_time_changes_the_id(self):
        assert make_run_id("c", "l", 1.0, "d") != make_run_id(
            "c", "l", 2.0, "d"
        )


class TestRunRecordRoundTrip:
    def test_to_dict_from_dict_is_lossless(self):
        original = _record()
        assert RunRecord.from_dict(original.to_dict()) == original

    def test_to_dict_carries_the_schema(self):
        assert _record().to_dict()["schema"] == LEDGER_SCHEMA

    def test_foreign_schema_rejected(self):
        payload = _record().to_dict()
        payload["schema"] = "something-else/9"
        with pytest.raises(LedgerError, match="schema"):
            RunRecord.from_dict(payload)

    def test_missing_field_rejected(self):
        payload = _record().to_dict()
        del payload["wall_seconds"]
        with pytest.raises(LedgerError, match="malformed"):
            RunRecord.from_dict(payload)

    def test_null_git_sha_round_trips(self):
        import dataclasses

        record = dataclasses.replace(_record(), git_sha=None)
        assert RunRecord.from_dict(record.to_dict()).git_sha is None


class TestRunLedgerIO:
    def test_append_then_read(self, tmp_path):
        ledger = RunLedger(tmp_path / "RUNS.jsonl")
        ledger.append(_record(run_id="aaa"))
        ledger.append(_record(run_id="bbb", command="figures"))
        view = ledger.read()
        assert [r.run_id for r in view.records] == ["aaa", "bbb"]
        assert view.skipped_lines == 0

    def test_missing_file_reads_empty(self, tmp_path):
        view = RunLedger(tmp_path / "absent.jsonl").read()
        assert view.records == ()

    def test_parent_directories_created(self, tmp_path):
        path = tmp_path / "deep" / "nested" / "RUNS.jsonl"
        RunLedger(path).append(_record())
        assert path.exists()

    def test_corrupt_lines_skipped_and_counted(self, tmp_path):
        path = tmp_path / "RUNS.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record(run_id="good"))
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("not json at all\n")
            handle.write(json.dumps({"schema": "foreign/1"}) + "\n")
        ledger.append(_record(run_id="also-good"))
        view = ledger.read()
        assert [r.run_id for r in view.records] == ["good", "also-good"]
        assert view.skipped_lines == 2

    def test_append_after_torn_tail_is_kept(self, tmp_path):
        """A record cut mid-line by a crash is dropped by the next
        append instead of swallowing it."""
        path = tmp_path / "RUNS.jsonl"
        ledger = RunLedger(path)
        ledger.append(_record(run_id="r1"))
        ledger.append(_record(run_id="r2"))
        data = path.read_bytes()
        path.write_bytes(data[: len(data) - 20])
        torn = ledger.read()
        assert [r.run_id for r in torn.records] == ["r1"]
        assert torn.skipped_lines == 1
        ledger.append(_record(run_id="r3"))
        view = ledger.read()
        assert [r.run_id for r in view.records] == ["r1", "r3"]
        assert view.skipped_lines == 0

    def test_skipped_lines_feed_the_counter(self, tmp_path):
        path = tmp_path / "RUNS.jsonl"
        path.write_text("garbage\n", encoding="utf-8")
        tracer = Tracer(clock=ManualClock())
        with obs.activate(tracer):
            RunLedger(path).read()
        assert tracer.metrics.counters["ledger.skipped_lines"] == 1.0

    def test_appends_feed_the_counter(self, tmp_path):
        tracer = Tracer(clock=ManualClock())
        with obs.activate(tracer):
            RunLedger(tmp_path / "RUNS.jsonl").append(_record())
        assert tracer.metrics.counters["ledger.appends"] == 1.0

    def test_unwritable_path_raises_ledger_error(self, tmp_path):
        blocker = tmp_path / "blocked"
        blocker.write_text("", encoding="utf-8")
        # Parent "directory" is a file -> mkdir/open must fail.
        ledger = RunLedger(blocker / "RUNS.jsonl")
        with pytest.raises((LedgerError, OSError)):
            ledger.append(_record())

    def test_for_command_filters_in_append_order(self, tmp_path):
        ledger = RunLedger(tmp_path / "RUNS.jsonl")
        ledger.append(_record(run_id="a", command="campaign"))
        ledger.append(_record(run_id="b", command="figures"))
        ledger.append(_record(run_id="c", command="campaign"))
        view = ledger.read()
        assert [r.run_id for r in view.for_command("campaign")] == [
            "a",
            "c",
        ]


class TestLedgerSession:
    def test_full_lifecycle_appends_one_record(
        self, tmp_path, manual_clocks
    ):
        wall, perf = manual_clocks
        ledger = RunLedger(tmp_path / "RUNS.jsonl")
        session = LedgerSession.start(
            "campaign",
            label="greedy",
            config={"rounds": 50, "seed": 7},
            ledger=ledger,
            git_sha="e" * 40,
        )
        perf.advance(3.25)
        session.add_counters(rounds=50, welfare=123.5)
        session.add_artifact("journal_dir", "/tmp/j")
        record = session.finish()
        assert record is not None
        assert record.wall_seconds == pytest.approx(3.25)
        assert record.started_at == pytest.approx(1_000_000.0)
        assert record.counters == {"rounds": 50.0, "welfare": 123.5}
        assert record.artifacts == {"journal_dir": "/tmp/j"}
        assert ledger.read().records == (record,)

    def test_run_id_reproducible_under_manual_clocks(
        self, tmp_path, manual_clocks
    ):
        def run():
            session = LedgerSession.start(
                "trace",
                label="smoke",
                config={"seed": 1},
                ledger=RunLedger(tmp_path / "RUNS.jsonl"),
                git_sha=None,
            )
            record = session.finish()
            assert record is not None
            return record.run_id

        wall, _ = manual_clocks
        first = run()
        # Reset the wall clock to the same instant: same identity.
        set_wall_clock(ManualClock(start=1_000_000.0))
        assert run() == first

    def test_disabled_session_is_a_no_op(self, manual_clocks):
        session = LedgerSession.start(
            "campaign", label="x", config={}, ledger=None, git_sha=None
        )
        assert not session.enabled
        session.add_counters(rounds=1)
        assert session.finish() is None

    def test_double_finish_raises(self, tmp_path, manual_clocks):
        session = LedgerSession.start(
            "campaign",
            label="x",
            config={},
            ledger=RunLedger(tmp_path / "RUNS.jsonl"),
            git_sha=None,
        )
        session.finish()
        with pytest.raises(LedgerError, match="already finished"):
            session.finish()
