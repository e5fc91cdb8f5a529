"""Live telemetry: heartbeat cadence, worker beats, transparency."""

from __future__ import annotations

import io
import pickle

import pytest

from repro import obs
from repro.auction.multi_round import run_campaign
from repro.mechanisms import OnlineGreedyMechanism
from repro.obs import (
    HEARTBEAT_SCHEMA,
    Console,
    Heartbeat,
    HeartbeatConfig,
    HeartbeatError,
    ManualClock,
    Tracer,
    read_heartbeats,
    set_perf_clock,
)
from repro.obs.live import append_worker_beats
from repro.simulation.workload import WorkloadConfig


@pytest.fixture
def manual_perf():
    clock = ManualClock(start=100.0)
    previous = set_perf_clock(clock)
    try:
        yield clock
    finally:
        set_perf_clock(previous)


def worker_beats(path):
    """The file's worker-beat records, minus their wall-clock values."""
    return [
        {
            key: value
            for key, value in record.items()
            if key not in ("worker_pid", "elapsed_seconds")
        }
        for record in read_heartbeats(path)
        if "worker_pid" in record
    ]


class NoSidecarConsole:
    """A heartbeat console that asserts no worker file exists mid-run."""

    def __init__(self, directory):
        self.directory = directory
        self.notes = 0

    def note(self, text=""):
        assert list(self.directory.glob("*.worker-*")) == []
        self.notes += 1


class TestHeartbeatCadence:
    def test_emits_every_nth_completion(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=3), total=10)
        emissions = []
        for index in range(10):
            manual_perf.advance(1.0)
            record = pulse.beat(index)
            if record is not None:
                emissions.append(record["completed"])
        # Every 3rd unit, plus the final unit unconditionally.
        assert emissions == [3, 6, 9, 10]
        assert pulse.emitted == 4

    def test_final_unit_always_emits(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=100), total=5)
        records = [pulse.beat(i) for i in range(5)]
        assert [r is not None for r in records] == [
            False,
            False,
            False,
            False,
            True,
        ]

    def test_rate_and_eta_math(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=5), total=20)
        record = None
        for index in range(5):
            manual_perf.advance(0.5)  # 2 units/second
            record = pulse.beat(index) or record
        assert record is not None
        assert record["units_per_second"] == pytest.approx(2.0)
        assert record["eta_seconds"] == pytest.approx(7.5)  # 15 left @ 2/s
        assert record["elapsed_seconds"] == pytest.approx(2.5)

    def test_unknown_total_omits_eta(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=1), total=None)
        manual_perf.advance(1.0)
        record = pulse.beat(0)
        assert record is not None
        assert record["eta_seconds"] is None
        assert record["total"] is None

    def test_extras_ride_along(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=1))
        record = pulse.beat(0, welfare=42.5)
        assert record is not None
        assert record["welfare"] == 42.5

    def test_interval_must_be_positive(self):
        with pytest.raises(HeartbeatError, match=">= 1"):
            Heartbeat(HeartbeatConfig(every=0))

    def test_total_must_be_non_negative(self):
        with pytest.raises(HeartbeatError, match=">= 0"):
            Heartbeat(HeartbeatConfig(), total=-1)


class TestHeartbeatChannels:
    def test_file_channel_appends_schema_stamped_lines(
        self, tmp_path, manual_perf
    ):
        path = tmp_path / "hb.jsonl"
        pulse = Heartbeat(HeartbeatConfig(path=path, every=2), total=4)
        for index in range(4):
            pulse.beat(index)
        records = read_heartbeats(path)
        assert [r["seq"] for r in records] == [0, 1]
        assert all(r["schema"] == HEARTBEAT_SCHEMA for r in records)

    def test_pulse_after_a_torn_tail_reads_back(self, tmp_path, manual_perf):
        """A killed run's partial last line is cut before the next pulse,
        not glued to it."""
        path = tmp_path / "hb.jsonl"
        Heartbeat(HeartbeatConfig(path=path, every=1), total=1).beat(0)
        whole = path.read_bytes()
        torn = whole[: len(whole) // 2]
        path.write_bytes(whole + torn)
        Heartbeat(HeartbeatConfig(path=path, every=1), total=1).beat(7)
        assert [r["unit_index"] for r in read_heartbeats(path)] == [0, 7]
        assert (tmp_path / "hb.jsonl.corrupt").read_bytes() == torn

    def test_worker_beats_after_a_torn_tail_read_back(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        path.write_bytes(b'{"schema": "repro-heart')
        append_worker_beats(
            path,
            "round",
            [
                {"unit_index": unit, "elapsed_seconds": 0.1, "worker_pid": 1}
                for unit in (1, 0)
            ],
        )
        assert [r["unit_index"] for r in read_heartbeats(path)] == [0, 1]
        assert (tmp_path / "hb.jsonl.corrupt").read_bytes() == (
            b'{"schema": "repro-heart'
        )

    def test_console_channel_respects_quiet(self, manual_perf):
        loud = io.StringIO()
        quiet = io.StringIO()
        for buffer, is_quiet in ((loud, False), (quiet, True)):
            pulse = Heartbeat(
                HeartbeatConfig(
                    every=1,
                    console=Console(quiet=is_quiet, stream=buffer),
                ),
                total=1,
            )
            manual_perf.advance(1.0)
            pulse.beat(0)
        assert "[heartbeat] round 1/1" in loud.getvalue()
        assert quiet.getvalue() == ""

    def test_render_includes_fsync_and_reassignments(self, manual_perf):
        buffer = io.StringIO()
        tracer = Tracer(clock=ManualClock())
        with obs.activate(tracer):
            obs.counter("platform.reassignments", 3)
            obs.observe("journal.fsync.seconds", 0.002)
            pulse = Heartbeat(
                HeartbeatConfig(every=1, console=Console(stream=buffer)),
                total=1,
            )
            manual_perf.advance(1.0)
            record = pulse.beat(0)
        assert record is not None
        assert record["metrics"]["platform.reassignments"] == 3.0
        assert record["metrics"]["journal.fsync.seconds"]["count"] == 1
        text = buffer.getvalue()
        assert "fsync mean 2.00ms" in text
        assert "reassigned 3" in text

    def test_no_tracer_means_empty_metrics(self, manual_perf):
        pulse = Heartbeat(HeartbeatConfig(every=1), total=1)
        record = pulse.beat(0)
        assert record is not None
        assert record["metrics"] == {}

    def test_emissions_feed_the_counter(self, manual_perf):
        tracer = Tracer(clock=ManualClock())
        with obs.activate(tracer):
            pulse = Heartbeat(HeartbeatConfig(every=1), total=2)
            pulse.beat(0)
            pulse.beat(1)
        assert tracer.metrics.counters["heartbeat.emits"] == 2.0

    def test_read_missing_file_is_empty(self, tmp_path):
        assert read_heartbeats(tmp_path / "absent.jsonl") == ()


class TestWorkerBeats:
    """Pool units' beats, appended by the parent in unit order."""

    def test_orders_by_shard_then_unit_not_arrival(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        beats = [  # (shard, unit, pid) — deliberately scrambled
            (1, 0, 222),
            (0, 5, 333),
            (1, 1, 222),
            (0, 2, 111),
        ]
        append_worker_beats(
            path,
            "round",
            [
                {
                    "unit_index": unit,
                    "shard": shard,
                    "elapsed_seconds": 0.5,
                    "worker_pid": pid,
                }
                for shard, unit, pid in beats
            ],
        )
        records = read_heartbeats(path)
        assert [(r["shard"], r["unit_index"]) for r in records] == [
            (0, 2),
            (0, 5),
            (1, 0),
            (1, 1),
        ]
        assert all(
            r["schema"] == HEARTBEAT_SCHEMA
            and r["label"] == "round"
            and r["seq"] == 0
            for r in records
        )

    def test_no_beats_write_nothing(self, tmp_path):
        path = tmp_path / "hb.jsonl"
        append_worker_beats(path, "round", [])
        assert not path.exists()

    def test_sweep_beats_identical_across_worker_counts(self, tmp_path):
        from repro.experiments import ExperimentConfig, SweepSpec
        from repro.experiments.runner import run_sweep

        spec = SweepSpec(
            name="hb-sweep",
            title="t",
            param="num_slots",
            values=(3, 4),
            config=ExperimentConfig(
                workload=WorkloadConfig(num_slots=4),
                repetitions=3,
                base_seed=5,
            ),
        )
        streams = []
        for workers in (1, 2, 4):
            path = tmp_path / f"hb{workers}.jsonl"
            console = NoSidecarConsole(tmp_path)
            run_sweep(
                spec,
                workers=workers,
                heartbeat=HeartbeatConfig(path=path, every=1, console=console),
            )
            assert console.notes > 0
            streams.append(worker_beats(path))
        assert streams[0] == streams[1] == streams[2]
        seeds = list(spec.config.seeds())
        assert [(r["unit_index"], r["seed"]) for r in streams[0]] == [
            (index, seed) for index, seed in enumerate(seeds)
        ] * 2
        assert list(tmp_path.glob("*.worker-*")) == []


class TestCampaignTransparency:
    """Heartbeats observe a campaign; they must never change it."""

    WORKLOAD = WorkloadConfig(num_slots=4)

    def _campaign(self, heartbeat=None, workers=1, journal_dir=None):
        return run_campaign(
            OnlineGreedyMechanism(),
            self.WORKLOAD,
            num_rounds=50,
            seed=11,
            workers=workers,
            journal_dir=journal_dir,
            heartbeat=heartbeat,
        )

    def test_journaled_campaign_is_bit_identical_with_heartbeat(
        self, tmp_path
    ):
        # The acceptance criterion: a journaled 50-round campaign with
        # --heartbeat emits periodic progress records while remaining
        # outcome-identical to the silent run.
        silent = self._campaign(journal_dir=tmp_path / "j1")
        path = tmp_path / "hb.jsonl"
        pulsed = self._campaign(
            heartbeat=HeartbeatConfig(path=path, every=10),
            journal_dir=tmp_path / "j2",
        )
        assert pickle.dumps(silent) == pickle.dumps(pulsed)
        records = [r for r in read_heartbeats(path) if "worker_pid" not in r]
        assert len(records) == 5  # rounds 10, 20, 30, 40, 50
        assert [r["completed"] for r in records] == [10, 20, 30, 40, 50]
        # Then one worker beat per round, in round order.
        assert [r["unit_index"] for r in worker_beats(path)] == list(range(50))

    def test_parallel_campaign_identical_across_worker_counts(
        self, tmp_path
    ):
        silent = self._campaign(workers=2)
        pulsed = {}
        for workers in (1, 2, 4):
            path = tmp_path / f"hb{workers}.jsonl"
            console = NoSidecarConsole(tmp_path)
            pulsed[workers] = self._campaign(
                heartbeat=HeartbeatConfig(
                    path=path, every=10, console=console
                ),
                workers=workers,
            )
            assert console.notes == 5
        assert pickle.dumps(silent) == pickle.dumps(pulsed[2])
        assert pickle.dumps(pulsed[1]) == pickle.dumps(pulsed[2])
        assert pickle.dumps(pulsed[2]) == pickle.dumps(pulsed[4])
        # Worker beats ordered by unit identity: the same stream either way.
        beats = [worker_beats(tmp_path / f"hb{w}.jsonl") for w in (1, 2, 4)]
        assert beats[0] == beats[1] == beats[2]
        assert [r["unit_index"] for r in beats[0]] == list(range(50))
        assert list(tmp_path.glob("*.worker-*")) == []


class TestShardMergeIdentity:
    """Shard-aware worker-beat order: ``(shard_id, unit_index)``."""

    WORKLOAD = WorkloadConfig(num_slots=4)

    def test_shardless_records_sort_as_shard_zero(self, tmp_path):
        base = tmp_path / "hb.jsonl"
        append_worker_beats(
            base,
            "round",
            [
                {"unit_index": 1, "shard": 1, "elapsed_seconds": 0.1},
                {"unit_index": 0, "elapsed_seconds": 0.1},  # no shard key
            ],
        )
        records = read_heartbeats(base)
        assert [r.get("shard", 0) for r in records] == [0, 1]

    def test_sharded_campaign_merge_identical_2_vs_4_workers(
        self, tmp_path
    ):
        """The satellite acceptance: a sharded campaign's merged
        worker-beat stream is byte-for-byte independent of worker count."""
        from repro.experiments.config import MechanismSpec
        from repro.experiments.sharding import (
            CityConfig,
            run_sharded_campaign,
        )

        def merged_beats(tag, workers):
            path = tmp_path / f"hb-{tag}.jsonl"
            console = NoSidecarConsole(tmp_path)
            run_sharded_campaign(
                MechanismSpec.of("online-greedy"),
                [
                    CityConfig("east", self.WORKLOAD, num_rounds=3),
                    CityConfig("west", self.WORKLOAD, num_rounds=3),
                ],
                seed=7,
                workers=workers,
                shards_per_city=2,
                heartbeat=HeartbeatConfig(path=path, every=1, console=console),
            )
            assert console.notes == 4
            return worker_beats(path)

        one = merged_beats("w1", 1)
        two = merged_beats("w2", 2)
        four = merged_beats("w4", 4)
        assert one == two == four
        assert [(r["shard"], r["unit_index"]) for r in two] == [
            (0, 0),
            (0, 1),
            (1, 2),
            (2, 0),
            (2, 1),
            (3, 2),
        ]
        assert list(tmp_path.glob("*.worker-*")) == []
