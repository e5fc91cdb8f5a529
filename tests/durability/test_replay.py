"""Replay fidelity: the journal alone reconstructs the outcome."""

from __future__ import annotations

import json
import pickle

import pytest

from repro.analysis import check_replay_fidelity
from repro.durability import (
    KIND_COMMAND,
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
        # Header + commands + derived events account for every record.
        assert (
            1 + replayed.commands_applied + replayed.events_verified
            == len(replayed.records)
        )

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


class TestDivergenceDetection:
    def _tamper_record(self, directory, predicate, mutate):
        """Re-sign a record in place (valid chain, different payload)."""
        from repro.durability import decode_line
        from repro.durability.journal import make_record

        (segment,) = segment_paths(directory)
        lines = segment.read_text().splitlines()
        records = [decode_line(line) for line in lines]
        out, prev = [], None
        changed = False
        for record in records:
            payload = record.event.to_dict()
            if not changed and predicate(record):
                payload = mutate(dict(payload))
                changed = True
            from repro.auction.events import event_from_dict

            rebuilt = make_record(
                record.seq,
                prev if prev is not None else record.prev,
                record.kind,
                event_from_dict(payload),
            )
            out.append(rebuilt.to_line())
            prev = rebuilt.hash
        assert changed, "predicate matched no record"
        segment.write_text("\n".join(out) + "\n")

    def test_tampered_event_record_raises_divergence(self, tmp_path):
        _journaled_round(tmp_path)

        def is_derived_payment(record):
            return (
                record.kind != KIND_COMMAND
                and type(record.event).__name__ == "PaymentSettled"
            )

        def inflate(payload):
            payload["amount"] = payload["amount"] + 1.0
            return payload

        self._tamper_record(
            tmp_path / "journal", is_derived_payment, inflate
        )
        with pytest.raises(
            ReplayDivergenceError, match="diverges from replay"
        ) as exc:
            replay_journal(tmp_path / "journal")
        assert exc.value.sequence is not None

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
            records = journal.records
        finally:
            journal.close()
        replayed = replay_records(records)
        assert spied_events == []
        assert replayed.events_verified == len(records) - len(commands) - 1
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
