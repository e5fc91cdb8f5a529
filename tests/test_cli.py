"""Unit tests for the command-line interface."""

from __future__ import annotations

import json

import pytest

from repro.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSimulate:
    def test_basic_run(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--slots", "8", "--seed", "1"
        )
        assert code == 0
        assert "Round metrics" in out
        assert "social welfare" in out

    def test_mechanism_choice(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--slots", "8",
            "--mechanism", "offline-vcg",
        )
        assert code == 0
        assert "offline-vcg" in out

    def test_fixed_price_requires_price(self, capsys):
        code, _, err = run_cli(
            capsys, "simulate", "--slots", "8", "--mechanism", "fixed-price"
        )
        assert code == 2
        assert "--price is required" in err

    def test_fixed_price_with_price(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--slots", "8",
            "--mechanism", "fixed-price",
            "--price", "20",
        )
        assert code == 0

    def test_trace_round_trip(self, capsys, tmp_path):
        trace = tmp_path / "round.json"
        code, out_saved, _ = run_cli(
            capsys,
            "simulate",
            "--slots", "8",
            "--seed", "4",
            "--save-trace", str(trace),
        )
        assert code == 0
        assert trace.exists()
        json.loads(trace.read_text())  # valid JSON

        code, out_replayed, _ = run_cli(
            capsys, "simulate", "--from-trace", str(trace)
        )
        assert code == 0

        def metrics_only(text):
            return [
                line
                for line in text.splitlines()
                if "welfare" in line or "payment" in line
            ]

        assert metrics_only(out_saved) == metrics_only(out_replayed)

    def test_online_options(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate",
            "--slots", "8",
            "--reserve-price",
            "--payment-rule", "exact",
        )
        assert code == 0

    @pytest.mark.parametrize(
        "field,value",
        [("arrival", "x"), ("arrival", 1.9), ("cost", "3"), ("cost", True)],
    )
    def test_trace_with_mistyped_profile_value_exits_2(
        self, capsys, tmp_path, field, value
    ):
        trace = tmp_path / "round.json"
        code, _, _ = run_cli(
            capsys, "simulate", "--slots", "8", "--save-trace", str(trace)
        )
        assert code == 0
        payload = json.loads(trace.read_text())
        payload["profiles"][0][field] = value
        trace.write_text(json.dumps(payload))
        code, _, err = run_cli(
            capsys, "simulate", "--from-trace", str(trace)
        )
        assert code == 2
        assert field in err


class TestFigures:
    def test_single_figure(self, capsys):
        code, out, _ = run_cli(
            capsys, "figures", "fig7", "--repetitions", "1"
        )
        assert code == 0
        assert "Fig. 7" in out
        assert "offline" in out and "online" in out

    def test_unknown_figure(self, capsys):
        code, _, err = run_cli(capsys, "figures", "fig99")
        assert code == 2
        assert "unknown figure" in err

    def test_csv_export(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "figures",
            "fig7",
            "--repetitions", "1",
            "--csv-dir", str(tmp_path),
        )
        assert code == 0
        csv = (tmp_path / "fig7.csv").read_text()
        assert csv.startswith("phone_rate,")

    @pytest.mark.parametrize("backoff", ["nan", "inf", "-1"])
    def test_bad_backoff_is_rejected_before_any_work(
        self, capsys, tmp_path, monkeypatch, backoff
    ):
        def no_sweep(*args, **kwargs):
            raise AssertionError("the sweep ran")

        monkeypatch.setattr("repro.cli.run_sweep", no_sweep)
        checkpoints = tmp_path / "checkpoints"
        ledger = tmp_path / "RUNS.jsonl"
        code, _, err = run_cli(
            capsys,
            "figures", "fig6",
            "--repetitions", "1",
            "--backoff", backoff,
            "--checkpoint-dir", str(checkpoints),
            "--ledger", str(ledger),
        )
        assert code == 2
        assert "backoff must be" in err
        assert not checkpoints.exists()
        assert not ledger.exists()


class TestAudit:
    def test_truthful_mechanism_passes(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--slots", "8",
            "--mechanism", "offline-vcg",
            "--max-phones", "5",
        )
        assert code == 0
        assert "PASS" in out

    def test_untruthful_mechanism_fails(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "audit",
            "--slots", "10",
            "--seed", "1",
            "--mechanism", "second-price-slot",
            "--max-phones", "15",
        )
        assert code == 1
        assert "FAIL" in out


class TestCampaign:
    def test_basic_campaign(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "--slots", "6",
            "--rounds", "2",
            "--seed", "3",
        )
        assert code == 0
        assert "Per-round results" in out
        assert "total welfare" in out

    def test_retry_losers(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "--slots", "6",
            "--rounds", "2",
            "--retry-losers",
        )
        assert code == 0
        assert "retry=losers" in out


class TestShardedCampaign:
    def test_cities_flag_routes_to_sharded_runner(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "--cities", "2",
            "--slots", "6",
            "--rounds", "2",
            "--seed", "3",
        )
        assert code == 0
        assert "city-0" in out and "city-1" in out
        assert "total welfare" in out

    def test_json_payload_and_checkpoints(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "--cities", "2",
            "--shards", "2",
            "--slots", "6",
            "--rounds", "3",
            "--seed", "3",
            "--checkpoint-dir", str(tmp_path),
            "--quiet", "--json",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["cities"] == 2
        assert payload["rounds"] == 6
        assert payload["shards_per_city"] == 2
        assert len(list(tmp_path.glob("*.ckpt.jsonl"))) == 4

    def test_sharded_rejects_retry_losers(self, capsys):
        code, _, err = run_cli(
            capsys,
            "campaign",
            "--cities", "2",
            "--rounds", "2",
            "--retry-losers",
        )
        assert code == 2
        assert "retry-losers" in err

    @pytest.mark.parametrize("flag", ["--shards", "--cities"])
    @pytest.mark.parametrize("value", ["0", "-2"])
    def test_counts_below_one_are_rejected_at_parse_time(
        self, capsys, flag, value
    ):
        with pytest.raises(SystemExit) as info:
            run_cli(
                capsys, "campaign", "--rounds", "1", "--slots", "5",
                flag, value,
            )
        assert info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_sharded_rejects_journal_dir(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys,
            "campaign",
            "--shards", "2",
            "--rounds", "2",
            "--journal-dir", str(tmp_path),
        )
        assert code == 2
        assert "journal" in err


class TestExample:
    def test_worked_example(self, capsys):
        code, out, _ = run_cli(capsys, "example")
        assert code == 0
        assert "Fig. 4" in out
        assert "gain" in out and "4" in out


class TestLint:
    def test_dirty_tree_exits_nonzero(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n")
        code, out, _ = run_cli(capsys, "lint", str(tmp_path))
        assert code == 1
        assert "no-global-random" in out

    def test_clean_tree_exits_zero(self, capsys, tmp_path):
        good = tmp_path / "good.py"
        good.write_text("import numpy as np\n\nrng = np.random.default_rng(0)\n")
        code, out, _ = run_cli(capsys, "lint", str(tmp_path))
        assert code == 0
        assert "clean" in out

    def test_json_format(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("def f(acc=[]):\n    return acc\n")
        code, out, _ = run_cli(
            capsys, "lint", str(tmp_path), "--format", "json"
        )
        assert code == 1
        payload = json.loads(out)
        assert payload["count"] == 1
        assert payload["violations"][0]["rule"] == "no-mutable-default"

    def test_rule_selection(self, capsys, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\ndef f(acc=[]):\n    return acc\n")
        code, out, _ = run_cli(
            capsys, "lint", str(tmp_path), "--rule", "no-global-random"
        )
        assert code == 1
        assert "no-mutable-default" not in out

    def test_nonexistent_path_rejected(self, capsys, tmp_path):
        # A typo'd path must not look clean.
        code, _, err = run_cli(capsys, "lint", str(tmp_path / "nope"))
        assert code == 2
        assert "does not exist" in err

    def test_unknown_rule_rejected(self, capsys, tmp_path):
        code, _, err = run_cli(
            capsys, "lint", str(tmp_path), "--rule", "no-such-rule"
        )
        assert code == 2
        assert "unknown lint rule" in err

    def test_shipped_tree_is_clean(self, capsys):
        # The acceptance bar: the linter passes on the repo itself.
        code, out, _ = run_cli(capsys, "lint", "src", "tests", "benchmarks")
        assert code == 0, out


class TestReport:
    def test_report_to_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "report", "--repetitions", "1")
        assert code == 0
        assert "# Reproduction report" in out
        assert "## fig11:" in out

    def test_report_to_file(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        code, out, _ = run_cli(
            capsys,
            "report",
            "--repetitions", "1",
            "--out", str(target),
        )
        assert code == 0
        assert "written to" in out
        assert target.read_text().startswith("# Reproduction report")


class TestChaos:
    def test_chaos_smoke(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "chaos",
            "--slots", "10",
            "--dropout-prob", "0.3",
            "--failure-prob", "0.2",
            "--seed", "5",
        )
        assert code == 0
        assert "Injected faults & recovery" in out
        assert "Reliability vs. paired fault-free run" in out
        assert "completion rate" in out
        assert "passed all fault-aware invariant checks" in out

    def test_chaos_rejects_bad_probability(self, capsys):
        code, _, err = run_cli(
            capsys, "chaos", "--slots", "8", "--dropout-prob", "1.5"
        )
        assert code == 2
        assert "dropout_prob" in err

    def test_campaign_with_faults(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "--slots", "8",
            "--rounds", "2",
            "--dropout-prob", "0.3",
            "--seed", "3",
        )
        assert code == 0
        assert "phones dropped" in out

    def test_figures_checkpoint_resume(self, capsys, tmp_path):
        args = (
            "figures", "fig6",
            "--repetitions", "1",
            "--checkpoint-dir", str(tmp_path),
        )
        code, first, _ = run_cli(capsys, *args)
        assert code == 0
        assert any(tmp_path.rglob("*.ckpt.jsonl"))
        code, second, _ = run_cli(capsys, *args)  # resumes from checkpoints
        assert code == 0
        assert first == second


class TestTrace:
    def test_trace_covers_every_span_family(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "trace",
            "--out", str(tmp_path / "trace.jsonl"),
            "--repetitions", "1",
        )
        assert code == 0
        for phase in (
            "matching.solver.solve",
            "payment.algorithm2",
            "platform.slot",
            "mechanism.run",
            "sweep.run",
            "sweep.point",
        ):
            assert phase in out, phase

    def test_trace_writes_jsonl(self, capsys, tmp_path, monkeypatch):
        from repro.auction.events import event_from_dict
        from repro.obs import read_jsonl

        monkeypatch.chdir(tmp_path)
        trace_path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(
            capsys,
            "trace", "--json",
            "--out", str(trace_path),
            "--repetitions", "1",
        )
        assert code == 0

        records = read_jsonl(trace_path)
        spans = [r for r in records if r["record"] == "span"]
        events = [r for r in records if r["record"] == "event"]
        assert spans and events
        # Every exported event reconstructs through the registry.
        for record in events:
            event_from_dict(record["event"])

        payload = json.loads(out)
        assert payload["span_count"] == len(spans)
        assert "greedy.candidate_evals" in payload["counters"]
        assert [path.name for path in tmp_path.iterdir()] == ["trace.jsonl"]

    def test_trace_json_mode_emits_machine_payload(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "trace",
            "--json",
            "--out", str(tmp_path / "trace.jsonl"),
            "--repetitions", "1",
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["span_count"] > 0
        assert "platform.slot" in payload["phases"]


class TestProfile:
    def test_profile_prints_phase_table_and_hotspots(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "profile",
            "--slots", "6",
            "--seed", "2",
            "--repeat", "1",
        )
        assert code == 0
        assert "Hotspots (self time)" in out
        assert "mechanism.run" in out
        assert "cumulative" in out  # the cProfile hotspot listing

    @pytest.mark.parametrize("flag", ["--repeat", "--top"])
    def test_count_below_one_is_rejected(self, capsys, flag):
        with pytest.raises(SystemExit) as info:
            run_cli(capsys, "profile", "--slots", "6", flag, "0")
        assert info.value.code == 2
        assert flag in capsys.readouterr().err

    def test_profile_json_reports_the_hotspot_rows(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "profile", "--json",
            "--slots", "6",
            "--seed", "2",
            "--repeat", "1",
        )
        assert code == 0
        phases = json.loads(out)["phases"]
        assert "mechanism.run" in {phase["name"] for phase in phases}
        for phase in phases:
            assert phase["self_seconds"] <= phase["total_seconds"]
        selfs = [phase["self_seconds"] for phase in phases]
        assert selfs == sorted(selfs, reverse=True)


class TestLedgerFlag:
    def test_campaign_appends_a_run_record(self, capsys, tmp_path):
        from repro.obs import RunLedger

        ledger = tmp_path / "RUNS.jsonl"
        code, out, _ = run_cli(
            capsys,
            "campaign", "--slots", "6", "--rounds", "3", "--seed", "2",
            "--ledger", str(ledger),
        )
        assert code == 0
        assert "ledger: run" in out
        view = RunLedger(ledger).read()
        assert len(view.records) == 1
        record = view.records[0]
        assert record.command == "campaign"
        assert record.label == "online-greedy"
        assert record.counters["rounds"] == 3.0
        assert record.wall_seconds > 0

    def test_figures_and_trace_share_the_ledger(self, capsys, tmp_path):
        from repro.obs import RunLedger

        ledger = tmp_path / "RUNS.jsonl"
        code, _, _ = run_cli(
            capsys,
            "figures", "fig7", "--repetitions", "1",
            "--ledger", str(ledger),
        )
        assert code == 0
        code, _, _ = run_cli(
            capsys,
            "trace",
            "--out", str(tmp_path / "trace.jsonl"),
            "--repetitions", "1",
            "--ledger", str(ledger),
        )
        assert code == 0
        view = RunLedger(ledger).read()
        assert [r.command for r in view.records] == ["figures", "trace"]
        assert view.records[1].label == "trace"
        assert view.records[1].counters["spans"] > 0
        assert "trace" in view.records[1].artifacts

    def test_no_flag_writes_no_ledger(self, capsys, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code, _, _ = run_cli(
            capsys, "campaign", "--slots", "6", "--rounds", "2"
        )
        assert code == 0
        assert not (tmp_path / "RUNS.jsonl").exists()


class TestHeartbeatFlag:
    def test_campaign_heartbeat_file_and_notes(self, capsys, tmp_path):
        from repro.obs import read_heartbeats

        path = tmp_path / "hb.jsonl"
        code, out, _ = run_cli(
            capsys,
            "campaign", "--slots", "6", "--rounds", "6", "--seed", "2",
            "--heartbeat", str(path), "--heartbeat-every", "2",
        )
        assert code == 0
        assert "[heartbeat] round 2/6" in out
        records = read_heartbeats(path)
        pulses = [r for r in records if "worker_pid" not in r]
        assert [r["completed"] for r in pulses] == [2, 4, 6]
        # Followed by one worker beat per round, in round order.
        beats = [r["unit_index"] for r in records if "worker_pid" in r]
        assert beats == list(range(6))

    def test_quiet_silences_the_console_pulse(self, capsys, tmp_path):
        path = tmp_path / "hb.jsonl"
        code, out, _ = run_cli(
            capsys,
            "campaign", "--slots", "6", "--rounds", "4", "--seed", "2",
            "--heartbeat", str(path), "--heartbeat-every", "2", "--quiet",
        )
        assert code == 0
        assert "[heartbeat]" not in out
        assert path.exists()  # the file channel still pulses

    def test_heartbeat_does_not_change_the_outcome(self, capsys, tmp_path):
        args = ("campaign", "--slots", "6", "--rounds", "4", "--seed", "9")
        code, plain, _ = run_cli(capsys, *args)
        assert code == 0
        code, pulsed, _ = run_cli(
            capsys,
            *args,
            "--heartbeat", str(tmp_path / "hb.jsonl"),
            "--heartbeat-every", "2",
        )
        assert code == 0

        def result_lines(text):
            return [
                line
                for line in text.splitlines()
                if "welfare" in line or "payment" in line
            ]

        assert result_lines(plain) == result_lines(pulsed)


def _hotspot_rows(out):
    """The phase rows of the trace's hotspot table (below its header)."""
    lines = out[out.index("Hotspots (self time)"):].splitlines()[4:]
    return lines[: lines.index("")] if "" in lines else lines


class TestTraceTop:
    def test_top_renders_the_hotspot_table(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "trace",
            "--out", str(tmp_path / "trace.jsonl"),
            "--repetitions", "1",
            "--top", "3",
        )
        assert code == 0
        assert "self ms" in out
        assert len(_hotspot_rows(out)) == 3

    def test_top_json_payload_names_hotspots(self, capsys, tmp_path):
        code, out, _ = run_cli(
            capsys,
            "trace", "--json",
            "--out", str(tmp_path / "trace.jsonl"),
            "--repetitions", "1",
            "--top", "2",
        )
        assert code == 0
        payload = json.loads(out)
        assert len(payload["hotspots"]) == 2

    def test_without_top_every_phase_is_listed(self, capsys, tmp_path):
        from repro.obs import read_jsonl

        trace_path = tmp_path / "trace.jsonl"
        code, out, _ = run_cli(
            capsys,
            "trace", "--out", str(trace_path), "--repetitions", "1",
        )
        assert code == 0
        names = {
            r["name"] for r in read_jsonl(trace_path) if r["record"] == "span"
        }
        assert {row.split()[0] for row in _hotspot_rows(out)} == names

    @pytest.mark.parametrize("top", ["0", "-2"])
    def test_top_below_one_is_rejected_before_the_run(
        self, capsys, tmp_path, top
    ):
        trace_path = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as info:
            run_cli(capsys, "trace", "--out", str(trace_path), "--top", top)
        assert info.value.code == 2
        assert "--top" in capsys.readouterr().err
        assert not trace_path.exists()

    def test_negative_max_spans_is_rejected_before_the_run(
        self, capsys, tmp_path
    ):
        trace_path = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as info:
            run_cli(
                capsys, "trace", "--out", str(trace_path),
                "--max-spans", "-1",
            )
        assert info.value.code == 2
        assert "--max-spans" in capsys.readouterr().err
        assert not trace_path.exists()

    @pytest.mark.parametrize("repetitions", ["0", "-1"])
    def test_repetitions_below_one_is_rejected_before_the_run(
        self, capsys, tmp_path, repetitions
    ):
        trace_path = tmp_path / "trace.jsonl"
        with pytest.raises(SystemExit) as info:
            run_cli(
                capsys, "trace", "--out", str(trace_path),
                "--repetitions", repetitions,
            )
        assert info.value.code == 2
        assert "--repetitions" in capsys.readouterr().err
        assert not trace_path.exists()

    def test_trends_is_an_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as info:
            run_cli(capsys, "trends")
        assert info.value.code == 2
        assert "invalid choice: 'trends'" in capsys.readouterr().err


class TestOutputModes:
    def test_default_output_unchanged_by_common_flags(self, capsys):
        _, plain, _ = run_cli(capsys, "example")
        _, again, _ = run_cli(capsys, "example")
        assert plain == again

    def test_quiet_hides_progress_notes_only(self, capsys, tmp_path):
        target = tmp_path / "report.md"
        code, out, _ = run_cli(
            capsys,
            "report", "--repetitions", "1", "--out", str(target), "--quiet",
        )
        assert code == 0
        assert "written to" not in out
        assert target.exists()

    def test_json_mode_replaces_stdout_with_payload(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--slots", "6", "--seed", "1", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert payload["mechanism"] == "online-greedy"
        assert "welfare" in payload

    def test_json_mode_keeps_errors_on_stderr(self, capsys):
        code, out, err = run_cli(
            capsys,
            "simulate", "--slots", "6", "--mechanism", "fixed-price",
            "--json",
        )
        assert code == 2
        assert "--price is required" in err
        assert out.strip() in ("", "{}")


class TestEngineFlag:
    def test_simulate_streaming_engine_matches_batch(self, capsys):
        code_b, out_b, _ = run_cli(
            capsys,
            "simulate", "--slots", "8", "--seed", "1", "--json",
        )
        code_s, out_s, _ = run_cli(
            capsys,
            "simulate", "--slots", "8", "--seed", "1", "--json",
            "--engine", "streaming",
        )
        assert code_b == 0 and code_s == 0
        assert json.loads(out_s) == json.loads(out_b)

    def test_campaign_accepts_engine(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "campaign",
            "--slots", "6",
            "--rounds", "2",
            "--seed", "3",
            "--engine", "streaming",
        )
        assert code == 0
        assert "Per-round results" in out

    def test_figures_has_no_engine_flag(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys,
                "figures", "fig7", "--repetitions", "1",
                "--engine", "streaming",
            )

    def test_unknown_engine_rejected(self, capsys):
        with pytest.raises(SystemExit):
            run_cli(
                capsys,
                "simulate", "--slots", "6", "--engine", "warp",
            )


class TestSharedRunFlags:
    """``--seed``, ``--repetitions``, ``--workers`` and ``--ledger`` are
    declared once, typed at parse time, with each command's default."""

    @pytest.mark.parametrize(
        "argv",
        [
            ("simulate", "--seed", "-1"),
            ("figures", "fig6", "--seed", "-1"),
            ("audit", "--seed", "-1"),
            ("profile", "--seed", "-1"),
            ("chaos", "--seed", "-1"),
            ("chaos", "--fault-seed", "-1"),
            ("campaign", "--seed", "-1"),
            ("campaign", "--fault-seed", "-1"),
            ("trace", "--seed", "-1"),
            ("report", "--seed", "-1"),
            ("figures", "fig6", "--repetitions", "0"),
            ("report", "--repetitions", "0"),
            ("figures", "fig6", "--workers", "0"),
            ("campaign", "--workers", "0"),
            ("audit", "--max-phones", "-1"),
            ("campaign", "--rounds", "1", "--slots", "4",
             "--max-reassign", "-1"),
            ("chaos", "--max-reassign", "-1"),
            ("campaign", "--rounds", "1", "--slots", "4",
             "--heartbeat-every", "-1"),
            ("campaign", "--rounds", "1", "--slots", "4",
             "--heartbeat-every", "0"),
        ],
        ids=" ".join,
    )
    def test_out_of_range_values_exit_2_at_parse_time(self, capsys, argv):
        with pytest.raises(SystemExit) as info:
            run_cli(capsys, *argv)
        assert info.value.code == 2
        err = capsys.readouterr().err
        assert f"argument {argv[-2]}: must be >=" in err
        assert "Traceback" not in err

    def test_audit_with_no_phones_still_runs(self, capsys):
        code, out, _ = run_cli(
            capsys, "audit", "--slots", "8", "--max-phones", "0"
        )
        assert code == 0
        assert "PASS" in out

    @pytest.mark.parametrize(
        "command, expected",
        [
            (["simulate"], {"seed": 0}),
            (["audit"], {"seed": 0, "max_phones": 15}),
            (["campaign"], {"seed": 0, "workers": 1, "ledger": None}),
            (
                ["figures"],
                {"seed": 2014, "repetitions": 5, "workers": 1, "ledger": None},
            ),
            (["trace"], {"seed": 0, "repetitions": 2, "ledger": None}),
            (["report"], {"seed": 2014, "repetitions": 5}),
        ],
    )
    def test_each_command_keeps_its_defaults(self, command, expected):
        from repro.cli import build_parser

        args = vars(build_parser().parse_args(command))
        assert {key: args[key] for key in expected} == expected
