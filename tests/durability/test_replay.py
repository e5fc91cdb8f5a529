"""Replay fidelity: the journal alone reconstructs the outcome."""

from __future__ import annotations

import dataclasses
import json
import pickle
import struct

import pytest

from repro.analysis import check_replay_fidelity
from repro.auction.events import BidSubmitted, PaymentSettled, RoundFinalized
from repro.auction.platform import CrowdsourcingPlatform
from repro.durability import (
    GENESIS_HASH,
    KIND_CLOSE,
    KIND_COMMAND,
    EventDigest,
    Journal,
    JournaledPlatform,
    execute_commands,
    replay_journal,
    replay_records,
    resume_round,
    round_commands,
    scan_journal,
    segment_paths,
)
from repro.durability.journal import _sealed_record
from repro.durability.replay import start_round
from repro.errors import (
    JournalError,
    ReplayDivergenceError,
    SanitizationError,
)
from repro.faults import FaultConfig, FaultInjector, run_with_faults
from repro.faults.recovery import apply_bid_faults
from repro.simulation import WorkloadConfig

WORKLOAD = WorkloadConfig(
    num_slots=6,
    phone_rate=2.5,
    task_rate=1.5,
    mean_cost=10.0,
    mean_active_length=3,
    task_value=20.0,
)

FAULTS = FaultConfig(
    dropout_prob=0.25,
    task_failure_prob=0.2,
    bid_delay_prob=0.15,
    bid_loss_prob=0.1,
)


def _journaled_round(tmp_path, seed=3, plan=None):
    scenario = WORKLOAD.generate(seed=seed)
    bids = scenario.truthful_bids()
    if plan is not None:
        from repro.faults.recovery import apply_bid_faults

        bids, _, _ = apply_bid_faults(list(bids), plan)
    commands = round_commands(bids, scenario, plan)
    journal = Journal(tmp_path / "journal")
    try:
        platform = JournaledPlatform(
            journal,
            num_slots=scenario.num_slots,
            max_reassignments=(
                3 if plan is None else plan.config.max_reassignments
            ),
        )
        outcome = execute_commands(platform, commands)
    finally:
        journal.close()
    return scenario, commands, outcome


class TestReplayFidelity:
    def test_replay_is_byte_identical(self, tmp_path):
        _, _, live = _journaled_round(tmp_path)
        replayed = replay_journal(tmp_path / "journal")
        assert replayed.finalized
        assert pickle.dumps(replayed.outcome) == pickle.dumps(live)

    def test_replay_of_faulty_round_is_byte_identical(self, tmp_path):
        scenario = WORKLOAD.generate(seed=9)
        plan = FaultInjector(FAULTS).plan(scenario, seed=9)
        _, _, live = _journaled_round(tmp_path, seed=9, plan=plan)
        replayed = replay_journal(tmp_path / "journal")
        assert pickle.dumps(replayed.outcome) == pickle.dumps(live)

    def test_replay_counts_commands_and_events(self, tmp_path):
        _, commands, _ = _journaled_round(tmp_path)
        replayed = replay_journal(tmp_path / "journal")
        assert replayed.commands_applied == len(commands)
        # Header + commands + the close record account for every record,
        # and the digests cover every event re-execution emitted.
        assert len(replayed.records) == 1 + len(commands) + 1
        assert replayed.records[-1].kind == KIND_CLOSE
        assert replayed.events_verified == replayed.platform.event_count
        assert replayed.events_verified > 0
        assert replayed.owed is None

    def test_unfinalized_journal_replays_to_partial_state(self, tmp_path):
        scenario, commands, _ = _journaled_round(tmp_path, seed=5)
        # Re-journal without the finalize command.
        partial_dir = tmp_path / "partial"
        commands = round_commands(
            scenario.truthful_bids(),
            scenario,
            None,
            include_finalize=False,
        )
        with Journal(partial_dir) as journal:
            platform = JournaledPlatform(
                journal, num_slots=scenario.num_slots
            )
            execute_commands(platform, commands)
        replayed = replay_journal(partial_dir)
        assert not replayed.finalized
        assert replayed.outcome is None
        assert replayed.platform.finished

    def test_check_replay_fidelity_passes(self, tmp_path):
        scenario = WORKLOAD.generate(seed=4)
        outcome = check_replay_fidelity(scenario, tmp_path / "fidelity")
        assert outcome is not None

    def test_check_replay_fidelity_covers_faulty_rounds(self, tmp_path):
        scenario = WORKLOAD.generate(seed=4)
        plan = FaultInjector(FAULTS).plan(scenario, seed=7)
        check_replay_fidelity(
            scenario, tmp_path / "fidelity", fault_plan=plan
        )


def _reseal(directory, records):
    """Rewrite a one-segment journal from ``records``, chaining each
    record to the one before it (a valid chain, different content)."""
    out, prev = [], GENESIS_HASH
    for record in records:
        rebuilt, line = _sealed_record(
            record.seq, prev, record.kind, record.event, record.emitted
        )
        out.append(line)
        prev = rebuilt.hash
    (segment,) = segment_paths(directory)
    segment.write_bytes(b"".join(out))


def _events_per_command(records):
    """Each command record with the events re-executing it emits."""
    header = records[0].event
    platform = CrowdsourcingPlatform(
        num_slots=header.num_slots,
        reserve_price=header.reserve_price,
        payment_rule=header.payment_rule,
        max_reassignments=header.max_reassignments,
    )
    emitted = []
    for record in records[1:]:
        if record.kind != KIND_COMMAND:
            continue
        before = platform.event_count
        platform.apply(record.event)
        emitted.append((record, platform.events_since(before)))
    return emitted


def _flip_last_bit(amount):
    (bits,) = struct.unpack("<q", struct.pack("<d", amount))
    return struct.unpack("<d", struct.pack("<q", bits ^ 1))[0]


class TestDivergenceDetection:
    def _forge_payment(self, directory, change):
        """Give the first command that settles a payment the digest of
        its events with that payment changed; returns its record."""
        records = list(scan_journal(directory).records)
        for command, events in _events_per_command(records):
            payments = [
                i
                for i, event in enumerate(events)
                if isinstance(event, PaymentSettled)
            ]
            if payments:
                break
        else:
            raise AssertionError("no command settles a payment")
        forged = list(events)
        paid = forged[payments[0]]
        forged[payments[0]] = dataclasses.replace(
            paid, amount=change(paid.amount)
        )
        after = command.seq  # the next record carries the digest
        records[after] = dataclasses.replace(
            records[after], emitted=EventDigest.of(forged)
        )
        _reseal(directory, records)
        return command

    def test_tampered_event_record_raises_divergence(self, tmp_path):
        _journaled_round(tmp_path)
        command = self._forge_payment(
            tmp_path / "journal", lambda amount: amount + 1.0
        )
        with pytest.raises(
            ReplayDivergenceError, match="diverges from replay"
        ) as exc:
            replay_journal(tmp_path / "journal")
        assert exc.value.sequence == command.seq

    def test_one_bit_of_one_payment_names_its_command(self, tmp_path):
        _journaled_round(tmp_path)
        command = self._forge_payment(tmp_path / "journal", _flip_last_bit)
        # The forged journal is a valid chain: only replay can tell.
        assert not scan_journal(tmp_path / "journal").torn
        with pytest.raises(ReplayDivergenceError) as exc:
            replay_journal(tmp_path / "journal")
        assert exc.value.sequence == command.seq
        assert f"command {command.seq} (SlotAdvanced)" in str(exc.value)

    def test_resealed_journal_still_replays(self, tmp_path):
        _, _, live = _journaled_round(tmp_path)
        directory = tmp_path / "journal"
        _reseal(directory, scan_journal(directory).records)
        replayed = replay_journal(directory)
        assert pickle.dumps(replayed.outcome) == pickle.dumps(live)

    def test_command_stamped_with_another_slot_is_refused(self, tmp_path):
        """The journaled events of a bid carry the open slot whatever
        the command says, so only the platform's slot check catches a
        command moved to another slot."""
        _journaled_round(tmp_path)
        directory = tmp_path / "journal"
        records = list(scan_journal(directory).records)
        index, record = next(
            (i, r)
            for i, r in enumerate(records)
            if isinstance(r.event, BidSubmitted)
        )
        moved = dataclasses.replace(record.event, slot=record.event.slot + 1)
        records[index] = dataclasses.replace(record, event=moved)
        _reseal(directory, records)
        with pytest.raises(JournalError, match="platform refuses") as exc:
            replay_journal(directory)
        assert exc.value.sequence == record.seq
        assert repr(moved) in str(exc.value)
        assert f"slot {record.event.slot} is open" in str(exc.value)

    def test_missing_header_raises(self, tmp_path):
        (segment,) = segment_paths(
            (_journaled_round(tmp_path), tmp_path / "journal")[1]
        )
        lines = segment.read_text().splitlines()
        segment.write_text("\n".join(lines[1:]) + "\n")
        with pytest.raises(JournalError):
            replay_journal(tmp_path / "journal")

    def test_fidelity_check_reports_sanitization_error(
        self, tmp_path, monkeypatch
    ):
        """A divergent replay surfaces as SanitizationError."""
        import repro.durability.replay as replay_module

        scenario = WORKLOAD.generate(seed=4)

        real = replay_module.replay_records

        def corrupting(records):
            result = real(records)
            assert result.outcome is not None
            broken = pickle.loads(pickle.dumps(result.outcome))
            broken._payments[max(broken._payments, default=0)] = 1e9
            import dataclasses as dc

            return dc.replace(result, outcome=broken)

        monkeypatch.setattr(replay_module, "replay_records", corrupting)
        with pytest.raises(SanitizationError, match="not faithful"):
            check_replay_fidelity(scenario, tmp_path / "broken")


class TestEventLogIsNotCopied:
    """Journaling a command reads the platform's event count and the new
    suffix, never a copy of the whole event log."""

    @pytest.fixture
    def spied_events(self, monkeypatch):
        from repro.auction.platform import CrowdsourcingPlatform

        reads = []
        real = CrowdsourcingPlatform.events

        def spy(platform):
            reads.append(len(platform._events))
            return real.fget(platform)

        monkeypatch.setattr(CrowdsourcingPlatform, "events", property(spy))
        return reads

    def test_start_round_and_replay_never_read_the_event_log(
        self, tmp_path, spied_events
    ):
        scenario = WORKLOAD.generate(seed=9)
        plan = FaultInjector(FAULTS).plan(scenario, seed=9)
        bids, _, _ = apply_bid_faults(list(scenario.truthful_bids()), plan)
        commands = round_commands(bids, scenario, plan)
        journal = Journal(tmp_path / "journal")
        try:
            live = start_round(
                journal,
                commands,
                num_slots=scenario.num_slots,
                max_reassignments=plan.config.max_reassignments,
            )
        finally:
            journal.close()
        records = scan_journal(tmp_path / "journal").records
        replayed = replay_records(records)
        assert spied_events == []
        assert len(records) == len(commands) + 2
        assert replayed.events_verified == live.platform.inner.event_count
        assert pickle.dumps(replayed.outcome) == pickle.dumps(live.outcome)


class TestResume:
    def test_resume_empty_journal_runs_fresh(self, tmp_path):
        scenario = WORKLOAD.generate(seed=6)
        commands = round_commands(scenario.truthful_bids(), scenario, None)
        with Journal(tmp_path / "journal") as journal:
            result = resume_round(
                journal, commands, num_slots=scenario.num_slots
            )
        assert result.outcome is not None
        assert result.replayed_commands == 0
        assert result.executed_commands == len(commands)

    def test_resume_refuses_a_journal_appended_since_open(self, tmp_path):
        """Resume reads the records recovered at open; it refuses an open
        journal whose later appends it would not see."""
        scenario = WORKLOAD.generate(seed=6)
        commands = round_commands(scenario.truthful_bids(), scenario, None)
        with Journal(tmp_path / "journal") as journal:
            platform = JournaledPlatform(
                journal, num_slots=scenario.num_slots
            )
            execute_commands(platform, commands[:3])
            with pytest.raises(JournalError, match="appended to since"):
                resume_round(
                    journal, commands, num_slots=scenario.num_slots
                )
        with Journal(tmp_path / "journal") as journal:
            result = resume_round(
                journal, commands, num_slots=scenario.num_slots
            )
        assert result.replayed_commands == 3
        assert result.executed_commands == len(commands) - 3

    def test_resume_config_mismatch_raises(self, tmp_path):
        scenario, commands, _ = _journaled_round(tmp_path, seed=5)
        with Journal(tmp_path / "journal") as journal:
            with pytest.raises(JournalError, match="config"):
                resume_round(
                    journal,
                    commands,
                    num_slots=scenario.num_slots,
                    payment_rule="exact",
                )

    def test_resume_command_prefix_mismatch_raises(self, tmp_path):
        scenario, commands, _ = _journaled_round(tmp_path, seed=5)
        other = WORKLOAD.generate(seed=999)
        foreign = round_commands(other.truthful_bids(), other, None)
        with Journal(tmp_path / "journal") as journal:
            with pytest.raises(ReplayDivergenceError):
                resume_round(
                    journal, foreign, num_slots=scenario.num_slots
                )


class TestJournaledDriversMatchPlainOnes:
    def test_run_with_faults_journal_dir_is_byte_identical(self, tmp_path):
        scenario = WORKLOAD.generate(seed=12)
        plain = run_with_faults(scenario, FAULTS, seed=12)
        journaled = run_with_faults(
            scenario, FAULTS, seed=12, journal_dir=tmp_path / "journal"
        )
        assert pickle.dumps(plain.outcome) == pickle.dumps(
            journaled.outcome
        )
        # The two FaultPlan instances are separate draws (FaultPlan does
        # not define value equality); compare everything else.
        import dataclasses as dc

        assert dc.replace(plain.report, plan=None) == dc.replace(
            journaled.report, plan=None
        )
        assert scan_journal(tmp_path / "journal").last_seq > 0

    def test_campaign_journal_dir_matches_plain_campaign(self, tmp_path):
        from repro.auction.multi_round import run_campaign
        from repro.mechanisms import create_mechanism

        mechanism = create_mechanism("online-greedy")
        plain = run_campaign(mechanism, WORKLOAD, num_rounds=2, seed=3)
        journaled = run_campaign(
            mechanism,
            WORKLOAD,
            num_rounds=2,
            seed=3,
            journal_dir=tmp_path / "campaign",
        )
        assert plain.total_welfare == pytest.approx(journaled.total_welfare)
        assert plain.total_payment == pytest.approx(journaled.total_payment)
        for p, j in zip(plain.rounds, journaled.rounds):
            assert set(p.outcome.winners) == set(j.outcome.winners)
            assert dict(p.outcome.payments) == dict(j.outcome.payments)
            assert dict(p.outcome.allocation) == dict(j.outcome.allocation)
        round_dirs = sorted(
            p.name for p in (tmp_path / "campaign").iterdir()
        )
        assert round_dirs == ["round-0000", "round-0001"]
        for name in round_dirs:
            replayed = replay_journal(tmp_path / "campaign" / name)
            assert replayed.finalized

    def test_faulty_campaign_journal_dir_is_byte_identical(self, tmp_path):
        from repro.auction.multi_round import run_campaign
        from repro.mechanisms import create_mechanism

        mechanism = create_mechanism("online-greedy")
        plain = run_campaign(
            mechanism, WORKLOAD, num_rounds=2, seed=3, fault_config=FAULTS
        )
        journaled = run_campaign(
            mechanism,
            WORKLOAD,
            num_rounds=2,
            seed=3,
            fault_config=FAULTS,
            journal_dir=tmp_path / "campaign",
        )
        assert pickle.dumps(plain) == pickle.dumps(journaled)

    def test_campaign_journal_gates(self, tmp_path):
        from repro.auction.multi_round import run_campaign
        from repro.errors import SimulationError
        from repro.mechanisms import create_mechanism

        with pytest.raises(SimulationError, match="online-greedy"):
            run_campaign(
                create_mechanism("offline-vcg"),
                WORKLOAD,
                num_rounds=1,
                journal_dir=tmp_path / "x",
            )
        with pytest.raises(SimulationError, match="workers"):
            run_campaign(
                create_mechanism("online-greedy"),
                WORKLOAD,
                num_rounds=1,
                workers=2,
                journal_dir=tmp_path / "x",
            )


class TestVerifyLogSurface:
    def test_scan_result_round_trips_to_json(self, tmp_path):
        """`verify-log` serialises the scan; keep its fields JSON-safe."""
        _journaled_round(tmp_path)
        scan = scan_journal(tmp_path / "journal")
        document = json.dumps(
            {
                "records": len(scan.records),
                "segments": [p.name for p in scan.segments],
                "last_seq": scan.last_seq,
                "torn": scan.torn,
                "truncated_bytes": scan.truncated_bytes,
            }
        )
        assert json.loads(document)["torn"] is False


def _segment_bytes(directory):
    return b"".join(path.read_bytes() for path in segment_paths(directory))


class TestResumeCarriesTheOwedDigest:
    """A resumed journal is the uncrashed one, byte for byte: the first
    live append carries the digest the last replayed command owes."""

    @pytest.fixture
    def round_9(self):
        scenario = WORKLOAD.generate(seed=9)
        plan = FaultInjector(FAULTS).plan(scenario, seed=9)
        bids, _, _ = apply_bid_faults(list(scenario.truthful_bids()), plan)
        commands = round_commands(bids, scenario, plan)
        config = dict(
            num_slots=scenario.num_slots,
            max_reassignments=plan.config.max_reassignments,
        )
        return commands, config

    @pytest.fixture
    def baseline(self, tmp_path, round_9):
        commands, config = round_9
        with Journal(tmp_path / "baseline") as journal:
            live = start_round(journal, commands, **config)
        return live.outcome, _segment_bytes(tmp_path / "baseline")

    def _crash(self, directory, round_9, after_writes, mode):
        from repro.faults import CrashController, CrashPlan, SimulatedCrash

        commands, config = round_9
        journal = Journal(
            directory,
            crash_hook=CrashController(
                CrashPlan(after_writes=after_writes, mode=mode)
            ),
        )
        with pytest.raises(SimulatedCrash):
            try:
                start_round(journal, commands, **config)
            finally:
                journal.close()

    def _resume(self, directory, round_9):
        commands, config = round_9
        with Journal(directory) as journal:
            return resume_round(journal, commands, **config)

    def test_crash_before_the_close_record_resumes_byte_identically(
        self, tmp_path, round_9, baseline
    ):
        outcome, journal_bytes = baseline
        # The last write but one is the RoundFinalized command: the
        # close record never lands.
        self._crash(
            tmp_path / "cut",
            round_9,
            after_writes=journal_bytes.count(b"\n") - 1,
            mode="clean",
        )
        cut = replay_journal(tmp_path / "cut")
        resumed = self._resume(tmp_path / "cut", round_9)
        assert cut.finalized
        assert isinstance(cut.records[-1].event, RoundFinalized)
        assert cut.owed is not None
        assert pickle.dumps(cut.outcome) == pickle.dumps(outcome)
        assert resumed.executed_commands == 0
        assert pickle.dumps(resumed.outcome) == pickle.dumps(outcome)
        assert _segment_bytes(tmp_path / "cut") == journal_bytes
        assert replay_journal(tmp_path / "cut").owed is None

    @pytest.mark.parametrize("mode", ["clean", "torn", "duplicate", "flip"])
    def test_resumed_journal_bytes_match_at_every_write(
        self, tmp_path, round_9, baseline, mode
    ):
        outcome, journal_bytes = baseline
        total = journal_bytes.count(b"\n")
        for index in range(1, total + 1):
            directory = tmp_path / f"{mode}-{index}"
            self._crash(directory, round_9, after_writes=index, mode=mode)
            resumed = self._resume(directory, round_9)
            assert pickle.dumps(resumed.outcome) == pickle.dumps(outcome)
            assert _segment_bytes(directory) == journal_bytes, (
                f"{mode} crash at write {index}/{total}"
            )


class TestVersionOneJournals:
    """A v1 journal (every derived event written out, no version on the
    header) is refused with a JournalError naming its version, and left
    as it is."""

    def _v1_journal(self, directory):
        from repro.auction.events import BidSubmitted, RoundStarted
        from repro.utils.recordlog import seal

        directory.mkdir()
        body = [
            ("command", RoundStarted(
                slot=0, num_slots=2, reserve_price=False,
                payment_rule="paper", max_reassignments=3,
            )),
            ("command", BidSubmitted(
                slot=1, phone_id=0, arrival=1, departure=2, cost=1.0
            )),
            ("event", BidSubmitted(
                slot=1, phone_id=0, arrival=1, departure=2, cost=1.0
            )),
        ]
        lines, prev = [], GENESIS_HASH
        for seq, (kind, event) in enumerate(body, start=1):
            line, prev = seal(
                {
                    "event": event.to_dict(),
                    "kind": kind,
                    "prev": prev,
                    "seq": seq,
                },
                "hash",
            )
            lines.append(line)
        segment = directory / "segment-00000001.jsonl"
        segment.write_bytes(b"".join(lines))
        return segment

    @pytest.mark.parametrize(
        "read", [scan_journal, replay_journal, Journal],
        ids=["scan", "replay", "open"],
    )
    def test_v1_journal_is_refused_by_version(self, tmp_path, read):
        segment = self._v1_journal(tmp_path / "v1")
        data = segment.read_bytes()
        with pytest.raises(JournalError, match="format version 1") as exc:
            read(tmp_path / "v1")
        assert not isinstance(exc.value, ReplayDivergenceError)
        assert exc.value.sequence == 1
        assert segment.read_bytes() == data
        assert [p.name for p in (tmp_path / "v1").iterdir()] == [
            segment.name
        ]
