"""Sharded campaign engine: planning, byte-identity, durability, lifecycle.

The acceptance contract under test:

* Assembled results pickle **byte-identically** across worker counts,
  shard submission orders, and resume points (50-seed property suite).
* A city's result matches the serial ``run_campaign`` round for round.
* Checkpoints stream per round, tolerate torn tails, and resume
  mid-shard byte-identically — including after an injected crash.
* Shared-memory segments are closed and unlinked on normal exit, on
  worker exceptions, and on injected crashes (20-seed property), with
  no resource-tracker leak warnings.
"""

from __future__ import annotations

import base64
import gc
import glob
import pickle
import subprocess
import sys

import numpy as np
import pytest

from repro.auction.multi_round import run_campaign
from repro.errors import (
    CheckpointError,
    ReproError,
    ShardingError,
    ValidationError,
)
from repro.experiments.config import MechanismSpec
from repro.experiments.sharding import (
    SHARD_CHECKPOINT_SCHEMA,
    CityConfig,
    ShardCheckpointWriter,
    encode_checkpoint_record,
    load_shard_checkpoint,
    plan_shards,
    run_sharded_campaign,
    shard_checkpoint_path,
)
from repro import obs
from repro.faults.crash import (
    CRASH_MODES,
    CrashController,
    CrashPlan,
    SimulatedCrash,
    draw_crash_plan,
)
from repro.obs import ManualClock, Tracer
from repro.simulation.workload import WorkloadConfig
from repro.utils.recordlog import seal
from repro.utils.rng import RngStreams

SPEC = MechanismSpec.of("online-greedy")


def tiny_workload(**overrides):
    base = dict(
        num_slots=6,
        phone_rate=2.0,
        task_rate=1.0,
        mean_cost=10.0,
        mean_active_length=2,
        task_value=16.0,
    )
    base.update(overrides)
    return WorkloadConfig(**base)


def two_cities(rounds=(3, 2)):
    return [
        CityConfig("east", tiny_workload(), num_rounds=rounds[0]),
        CityConfig(
            "west", tiny_workload(phone_rate=3.0), num_rounds=rounds[1]
        ),
    ]


def result_bytes(result) -> bytes:
    return pickle.dumps(result, protocol=4)


class TestPlanning:
    def test_even_split_with_remainder(self):
        plans = plan_shards(
            [CityConfig("solo", tiny_workload(), num_rounds=7)],
            shards_per_city=3,
        )
        ranges = [(p.round_start, p.round_stop) for p in plans]
        assert ranges == [(0, 3), (3, 5), (5, 7)]
        assert [p.shard_id for p in plans] == [0, 1, 2]

    def test_city_never_gets_more_shards_than_rounds(self):
        plans = plan_shards(
            [CityConfig("solo", tiny_workload(), num_rounds=2)],
            shards_per_city=5,
        )
        assert len(plans) == 2

    def test_shard_ids_stable_across_cities(self):
        plans = plan_shards(two_cities(), shards_per_city=2)
        assert [(p.shard_id, p.city_name) for p in plans] == [
            (0, "east"),
            (1, "east"),
            (2, "west"),
            (3, "west"),
        ]

    def test_explicit_city_seed_wins(self):
        city = CityConfig("fixed", tiny_workload(), num_rounds=1, seed=99)
        (plan,) = plan_shards([city], seed=0)
        assert plan.city_seed == 99

    def test_city_seed_depends_on_name_and_position(self):
        (a,) = plan_shards(
            [CityConfig("aa", tiny_workload(), num_rounds=1)], seed=1
        )
        (b,) = plan_shards(
            [CityConfig("bb", tiny_workload(), num_rounds=1)], seed=1
        )
        assert a.city_seed != b.city_seed

    def test_duplicate_city_names_rejected(self):
        cities = [
            CityConfig("dup", tiny_workload(), num_rounds=1),
            CityConfig("dup", tiny_workload(), num_rounds=1),
        ]
        with pytest.raises(ShardingError, match="duplicate city names"):
            plan_shards(cities)

    def test_empty_campaign_rejected(self):
        with pytest.raises(ShardingError, match="must not be empty"):
            plan_shards([])

    def test_city_name_pattern_enforced(self):
        with pytest.raises(ShardingError, match="city name"):
            CityConfig("bad/name", tiny_workload(), num_rounds=1)


class TestSerialParity:
    def test_city_results_match_run_campaign(self):
        """Shard boundaries are invisible: every round's pickle bytes
        equal the serial campaign's, and the aggregates agree."""
        cities = two_cities()
        sharded = run_sharded_campaign(
            SPEC, cities, seed=11, workers=1, shards_per_city=2
        )
        seeds = {
            p.city_name: p.city_seed
            for p in plan_shards(cities, shards_per_city=2, seed=11)
        }
        for city in cities:
            serial = run_campaign(
                SPEC.build(),
                city.workload,
                num_rounds=city.num_rounds,
                seed=seeds[city.name],
            )
            shard_city = sharded.city(city.name)
            assert len(serial.rounds) == len(shard_city.rounds)
            for serial_round, shard_round in zip(
                serial.rounds, shard_city.rounds
            ):
                assert pickle.dumps(
                    serial_round, protocol=4
                ) == pickle.dumps(shard_round, protocol=4)
            # Exact (byte-level) aggregate identity, not approximate.
            for attr in (
                "total_welfare",
                "total_payment",
                "welfare_per_round",
                "overpayment_per_round",
            ):
                assert pickle.dumps(
                    getattr(serial, attr), protocol=4
                ) == pickle.dumps(getattr(shard_city, attr), protocol=4)

    def test_totals_sum_city_aggregates(self):
        result = run_sharded_campaign(SPEC, two_cities(), seed=4)
        assert result.total_welfare == sum(
            r.total_welfare for _, r in result.cities
        )
        assert result.num_rounds == 5

    def test_unknown_city_lookup_raises(self):
        result = run_sharded_campaign(SPEC, two_cities(), seed=4)
        with pytest.raises(ShardingError, match="unknown city"):
            result.city("atlantis")


class TestByteIdentityProperty:
    """The 50-seed acceptance suite: worker counts × submission orders
    × resume-from-mid-shard, all pickle-byte-identical."""

    @pytest.mark.parametrize("seed_block", range(10))
    def test_fifty_seeds_byte_identical(self, seed_block, tmp_path):
        for lane in range(5):
            seed = seed_block * 5 + lane
            cities = two_cities(rounds=(3, 2))
            reference = result_bytes(
                run_sharded_campaign(
                    SPEC, cities, seed=seed, workers=1, shards_per_city=2
                )
            )
            # Rotate through the fuzz matrix: worker count and a
            # seed-dependent shard submission permutation.
            workers = (2, 4)[seed % 2]
            order = [(i + seed) % 4 for i in range(4)]
            fuzzed = result_bytes(
                run_sharded_campaign(
                    SPEC,
                    cities,
                    seed=seed,
                    workers=workers,
                    shards_per_city=2,
                    submission_order=order,
                )
            )
            assert fuzzed == reference, (
                f"seed {seed}: workers={workers} order={order} diverged"
            )
            if seed % 5 == 0:
                # Resume from mid-shard: pre-seed a partial checkpoint
                # (first round of shard 0 only), then rerun.
                ckpt = tmp_path / f"seed-{seed}"
                full = run_sharded_campaign(
                    SPEC,
                    cities,
                    seed=seed,
                    workers=1,
                    shards_per_city=2,
                    checkpoint_dir=ckpt,
                )
                assert result_bytes(full) == reference
                plans = plan_shards(cities, shards_per_city=2, seed=seed)
                keep = shard_checkpoint_path(ckpt, plans[0])
                lines = keep.read_bytes().splitlines(keepends=True)
                keep.write_bytes(lines[0])  # drop all but round 0
                resumed = run_sharded_campaign(
                    SPEC,
                    cities,
                    seed=seed,
                    workers=2,
                    shards_per_city=2,
                    checkpoint_dir=ckpt,
                )
                assert result_bytes(resumed) == reference


class TestCheckpointing:
    def test_records_stream_per_round(self, tmp_path):
        cities = [CityConfig("solo", tiny_workload(), num_rounds=4)]
        run_sharded_campaign(
            SPEC, cities, seed=3, shards_per_city=2, checkpoint_dir=tmp_path
        )
        plans = plan_shards(cities, shards_per_city=2, seed=3)
        for plan in plans:
            loaded = load_shard_checkpoint(
                shard_checkpoint_path(tmp_path, plan)
            )
            assert sorted(loaded) == list(plan.round_indices)

    def test_full_resume_recomputes_nothing(self, tmp_path, monkeypatch):
        cities = two_cities()
        first = run_sharded_campaign(
            SPEC, cities, seed=8, checkpoint_dir=tmp_path
        )
        import repro.experiments.sharding as sharding_mod

        def exploding(*args, **kwargs):  # pragma: no cover - must not run
            raise AssertionError("resume recomputed a checkpointed round")

        monkeypatch.setattr(sharding_mod, "_run_shard_round", exploding)
        resumed = run_sharded_campaign(
            SPEC, cities, seed=8, checkpoint_dir=tmp_path
        )
        assert result_bytes(resumed) == result_bytes(first)

    def test_torn_tail_truncated_and_recomputed(self, tmp_path):
        cities = [CityConfig("solo", tiny_workload(), num_rounds=3)]
        reference = result_bytes(
            run_sharded_campaign(SPEC, cities, seed=5)
        )
        run_sharded_campaign(
            SPEC, cities, seed=5, checkpoint_dir=tmp_path
        )
        (plan,) = plan_shards(cities, seed=5)
        target = shard_checkpoint_path(tmp_path, plan)
        intact = target.read_bytes().splitlines(keepends=True)
        target.write_bytes(intact[0] + intact[1][: len(intact[1]) // 2])
        loaded = load_shard_checkpoint(target)
        assert sorted(loaded) == [0]
        assert target.read_bytes() == intact[0]  # torn tail truncated
        assert target.with_name(target.name + ".corrupt").read_bytes() == (
            intact[1][: len(intact[1]) // 2]
        )
        resumed = run_sharded_campaign(
            SPEC, cities, seed=5, checkpoint_dir=tmp_path
        )
        assert result_bytes(resumed) == reference

    def test_corrupt_checksum_ends_valid_prefix(self, tmp_path):
        writer = ShardCheckpointWriter(tmp_path / "s.ckpt.jsonl")
        writer.append(0, b"alpha")
        writer.append(1, b"beta")
        writer.close()
        raw = (tmp_path / "s.ckpt.jsonl").read_bytes()
        (tmp_path / "s.ckpt.jsonl").write_bytes(
            raw.replace(b'"round":1', b'"round":2')
        )
        loaded = load_shard_checkpoint(tmp_path / "s.ckpt.jsonl")
        assert loaded == {0: b"alpha"}

    def test_duplicate_round_later_record_wins(self, tmp_path):
        writer = ShardCheckpointWriter(tmp_path / "d.ckpt.jsonl")
        writer.append(0, b"old")
        writer.append(0, b"new")
        writer.close()
        assert load_shard_checkpoint(tmp_path / "d.ckpt.jsonl") == {
            0: b"new"
        }

    def test_missing_checkpoint_is_empty(self, tmp_path):
        assert load_shard_checkpoint(tmp_path / "absent.jsonl") == {}

    def test_writer_error_surfaces_on_close(self, tmp_path):
        writer = ShardCheckpointWriter(tmp_path / "e.ckpt.jsonl")
        writer._log.close()  # provoke a write failure in the thread
        writer.append(0, b"x")
        with pytest.raises(ValueError):
            writer.close()

    def test_record_missing_only_its_newline_is_torn(self, tmp_path):
        """A final record that lost just its newline is dropped, and the
        next append starts a fresh line instead of being glued onto it."""
        target = tmp_path / "n.ckpt.jsonl"
        writer = ShardCheckpointWriter(target)
        writer.append(0, b"zero")
        writer.append(1, b"one")
        writer.close()
        intact = target.read_bytes()
        target.write_bytes(intact[:-1])
        writer = ShardCheckpointWriter(target)
        writer.append(2, b"two")
        writer.close()
        assert load_shard_checkpoint(target) == {0: b"zero", 2: b"two"}
        target.write_bytes(intact[:-1])
        assert load_shard_checkpoint(target) == {0: b"zero"}
        assert target.read_bytes() == intact.splitlines(keepends=True)[0]

    @pytest.mark.parametrize("workers", [1, 2])
    def test_append_counter_matches_rounds_computed(self, tmp_path, workers):
        tracer = Tracer(clock=ManualClock())
        with obs.activate(tracer):
            run_sharded_campaign(
                SPEC,
                two_cities(rounds=(12, 12)),
                seed=4,
                workers=workers,
                checkpoint_dir=tmp_path,
            )
        counters = tracer.metrics.counters
        assert counters["campaign.shard.rounds"] == 24
        assert counters["campaign.shard.checkpoint.appends"] == 24


class TestCheckpointRecordEncoding:
    """``encode_checkpoint_record`` is the generic ``seal`` byte for byte."""

    @staticmethod
    def sealed(round_index, blob):
        line, _ = seal(
            {
                "schema": SHARD_CHECKPOINT_SCHEMA,
                "round": round_index,
                "payload": base64.b64encode(blob).decode("ascii"),
            },
            "checksum",
        )
        return line

    @pytest.mark.parametrize("round_index", [0, 1, 1_000_003, 2**40])
    @pytest.mark.parametrize("seed", range(4))
    def test_equals_seal(self, round_index, seed):
        draw = np.random.default_rng(seed)
        for size in (0, 1, 2, 3, int(draw.integers(4, 4096))):
            blob = draw.bytes(size)
            assert encode_checkpoint_record(
                round_index, blob
            ) == self.sealed(round_index, blob)

    def test_round_trips_through_load(self, tmp_path):
        draw = np.random.default_rng(7)
        records = {0: b"", 1: draw.bytes(999), 1_000_003: b"\n\x00{"}
        target = tmp_path / "r.ckpt.jsonl"
        target.write_bytes(
            b"".join(
                encode_checkpoint_record(index, blob)
                for index, blob in records.items()
            )
        )
        assert load_shard_checkpoint(target) == records


class TestCrashInjection:
    """Crash the checkpoint writer at every append, in every crash mode.

    Two cities split into four shards stream five records; a
    :class:`CrashController` kills the campaign during append ``index``
    (clean kill, torn record, duplicated record, or flipped checksum),
    and a rerun over the same directory must be byte-identical to the
    uncrashed campaign.  CI rotates ``--crash-seed``.
    """

    APPENDS = 5

    @pytest.mark.parametrize("mode", CRASH_MODES)
    def test_resume_is_byte_identical_after_every_append(
        self, crash_seed, tmp_path, mode
    ):
        cities = two_cities()
        reference = result_bytes(
            run_sharded_campaign(SPEC, cities, seed=crash_seed)
        )
        for index in range(1, self.APPENDS + 1):
            drawn = draw_crash_plan(
                RngStreams(crash_seed + index), total_writes=self.APPENDS
            )
            controller = CrashController(
                CrashPlan(
                    after_writes=index,
                    mode=mode,
                    torn_fraction=drawn.torn_fraction,
                    flip_offset=drawn.flip_offset,
                )
            )
            directory = tmp_path / f"append-{index}"
            with pytest.raises(SimulatedCrash):
                run_sharded_campaign(
                    SPEC,
                    cities,
                    seed=crash_seed,
                    shards_per_city=2,
                    checkpoint_dir=directory,
                    checkpoint_crash_hook=controller,
                )
            assert controller.fired, f"append {index} never crashed"
            resumed = run_sharded_campaign(
                SPEC,
                cities,
                seed=crash_seed,
                shards_per_city=2,
                checkpoint_dir=directory,
            )
            assert result_bytes(resumed) == reference, (
                f"seed {crash_seed}: resume after a {mode} crash at "
                f"append {index} diverged from the uncrashed campaign"
            )

    def test_simulated_crash_mid_shard_then_resume(self, tmp_path):
        cities = [CityConfig("solo", tiny_workload(), num_rounds=4)]
        reference = result_bytes(
            run_sharded_campaign(SPEC, cities, seed=13)
        )
        controller = CrashController(CrashPlan(after_writes=2))
        with pytest.raises(SimulatedCrash):
            run_sharded_campaign(
                SPEC,
                cities,
                seed=13,
                checkpoint_dir=tmp_path,
                checkpoint_crash_hook=controller,
            )
        assert controller.writes == 2
        (plan,) = plan_shards(cities, seed=13)
        survived = load_shard_checkpoint(
            shard_checkpoint_path(tmp_path, plan)
        )
        assert sorted(survived) == [0, 1]
        resumed = run_sharded_campaign(
            SPEC, cities, seed=13, checkpoint_dir=tmp_path
        )
        assert result_bytes(resumed) == reference

    def test_crash_hook_requires_serial_workers(self, tmp_path):
        with pytest.raises(ShardingError, match="workers=1"):
            run_sharded_campaign(
                SPEC,
                two_cities(),
                seed=0,
                workers=2,
                checkpoint_dir=tmp_path,
                checkpoint_crash_hook=CrashController(CrashPlan(1)),
            )

    def test_crash_hook_requires_checkpoint_dir(self):
        with pytest.raises(ShardingError, match="checkpoint_dir"):
            run_sharded_campaign(
                SPEC,
                two_cities(),
                seed=0,
                checkpoint_crash_hook=CrashController(CrashPlan(1)),
            )


class TestValidation:
    def test_workers_must_be_positive(self):
        with pytest.raises(ShardingError, match="workers"):
            run_sharded_campaign(SPEC, two_cities(), workers=0)

    def test_submission_order_must_be_permutation(self):
        with pytest.raises(ShardingError, match="permutation"):
            run_sharded_campaign(
                SPEC, two_cities(), submission_order=[0, 0, 1, 1]
            )

    def test_missing_rounds_detected_at_assembly(self, tmp_path):
        """Assembly takes each collected shard's decoded rounds plus the
        checkpoint blobs of its resumed rounds; a shard that was never
        collected, or a round neither holds, raises."""
        from repro.experiments.sharding import _assemble, plan_shards

        cities = [CityConfig("solo", tiny_workload(), num_rounds=2)]
        plans = plan_shards(cities, seed=0)
        with pytest.raises(ShardingError, match="no outcome"):
            _assemble(cities, plans, computed={}, resumed={})
        with pytest.raises(CheckpointError, match=r"missing rounds \[0, 1\]"):
            _assemble(cities, plans, computed={0: {}}, resumed={0: {}})


class SegmentNameSpy:
    """Wraps ``_create_segment`` to record every segment name created."""

    def __init__(self, real):
        self.real = real
        self.names = []

    def __call__(self, nbytes):
        segment = self.real(nbytes)
        self.names.append(segment.name)
        return segment


def assert_segments_gone(names):
    from multiprocessing import shared_memory

    assert names, "spy captured no segments"
    for name in names:
        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


class TestSharedMemoryLifecycle:
    @pytest.fixture
    def spy(self, monkeypatch):
        import repro.experiments.sharding as sharding_mod

        spy = SegmentNameSpy(sharding_mod._create_segment)
        monkeypatch.setattr(sharding_mod, "_create_segment", spy)
        return spy

    @pytest.mark.parametrize("workers", [1, 2])
    def test_normal_exit_unlinks_every_segment(self, spy, workers):
        run_sharded_campaign(
            SPEC, two_cities(), seed=1, workers=workers, shards_per_city=2
        )
        assert len(spy.names) == 4
        assert_segments_gone(spy.names)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_exception_unlinks_segments(self, spy, workers):
        bad = MechanismSpec.of("online-greedy", engine="no-such-engine")
        with pytest.raises(ReproError):
            run_sharded_campaign(
                bad, two_cities(), seed=1, workers=workers
            )
        assert_segments_gone(spy.names)

    def test_injected_crash_unlinks_segments(self, spy, tmp_path):
        with pytest.raises(SimulatedCrash):
            run_sharded_campaign(
                SPEC,
                two_cities(),
                seed=1,
                checkpoint_dir=tmp_path,
                checkpoint_crash_hook=CrashController(CrashPlan(1)),
            )
        assert_segments_gone(spy.names)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_corrupted_segment_fails_typed_and_unlinks(
        self, spy, monkeypatch, workers
    ):
        """A segment corrupted after packing (a NaN cost) fails the
        shard with the codec's ValidationError, and is still unlinked."""
        import repro.experiments.sharding as sharding_mod

        real_pack = sharding_mod.pack_rounds_into

        def pack_then_corrupt(rounds, buffer):
            header = real_pack(rounds, buffer)
            offset = 3 * 8 * rounds[0].num_phones  # first cost entry
            np.frombuffer(buffer, dtype=np.float64, count=1, offset=offset)[
                0
            ] = np.nan
            return header

        monkeypatch.setattr(
            sharding_mod, "pack_rounds_into", pack_then_corrupt
        )
        with pytest.raises(ValidationError, match="cost must be finite"):
            run_sharded_campaign(
                SPEC, two_cities(), seed=1, workers=workers
            )
        assert_segments_gone(spy.names)

    def test_twenty_seed_lifecycle_property(self, spy):
        """No segment survives any of 20 seeded campaigns, and no
        repro-shard segment is left in /dev/shm afterwards."""
        for seed in range(20):
            run_sharded_campaign(
                SPEC,
                [CityConfig("prop", tiny_workload(), num_rounds=2)],
                seed=seed,
                workers=(seed % 2) + 1,
                shards_per_city=2,
            )
        assert len(spy.names) == 40
        assert_segments_gone(spy.names)
        assert glob.glob("/dev/shm/repro-shard-*") == []

    def test_no_resource_tracker_warnings(self, tmp_path):
        """A pool run in a fresh interpreter exits with clean stderr —
        in particular no resource_tracker 'leaked shared_memory' noise."""
        script = (
            "from repro.experiments.sharding import CityConfig, "
            "run_sharded_campaign\n"
            "from repro.experiments.config import MechanismSpec\n"
            "from repro.simulation.workload import WorkloadConfig\n"
            "wl = WorkloadConfig(num_slots=6, phone_rate=2.0, "
            "task_rate=1.0, mean_cost=10.0, mean_active_length=2, "
            "task_value=16.0)\n"
            "cities = [CityConfig('east', wl, 3), CityConfig('west', wl, 2)]\n"
            "run_sharded_campaign(MechanismSpec.of('online-greedy'), "
            "cities, seed=2, workers=2, shards_per_city=2)\n"
            "print('done')\n"
        )
        completed = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert completed.returncode == 0, completed.stderr
        assert "done" in completed.stdout
        assert "resource_tracker" not in completed.stderr
        assert "leaked" not in completed.stderr


class TestCyclicGcPause:
    """The collector is paused while the worker builds rounds and while
    the parent unpickles them, and is left as the caller had it."""

    @pytest.fixture(autouse=True)
    def restore_gc(self):
        enabled = gc.isenabled()
        yield
        if enabled:
            gc.enable()
        else:
            gc.disable()

    def test_paused_during_rounds_and_unpickling(self, monkeypatch):
        import repro.experiments.sharding as sharding_mod

        seen = []
        real_round = sharding_mod._run_shard_round

        def recording_round(*args):
            seen.append(("round", gc.isenabled()))
            return real_round(*args)

        class RecordingPickle:
            dumps = staticmethod(pickle.dumps)

            @staticmethod
            def loads(blob):
                seen.append(("loads", gc.isenabled()))
                return pickle.loads(blob)

        monkeypatch.setattr(sharding_mod, "_run_shard_round", recording_round)
        monkeypatch.setattr(sharding_mod, "pickle", RecordingPickle)
        gc.enable()
        run_sharded_campaign(SPEC, two_cities(), seed=3, workers=1)
        assert gc.isenabled()
        # east's three rounds form shard 0, west's two shard 1: each
        # shard is unpickled as soon as it is collected, before the next
        # shard's first round runs.
        assert seen == (
            [("round", False)] * 3
            + [("loads", False)] * 3
            + [("round", False)] * 2
            + [("loads", False)] * 2
        )

    def test_restored_after_a_worker_exception(self):
        bad = MechanismSpec.of("online-greedy", engine="no-such-engine")
        gc.enable()
        with pytest.raises(ReproError):
            run_sharded_campaign(bad, two_cities(), seed=1, workers=1)
        assert gc.isenabled()

    def test_restored_after_a_simulated_crash(self, tmp_path):
        gc.enable()
        with pytest.raises(SimulatedCrash):
            run_sharded_campaign(
                SPEC,
                two_cities(),
                seed=1,
                workers=1,
                checkpoint_dir=tmp_path,
                checkpoint_crash_hook=CrashController(CrashPlan(2)),
            )
        assert gc.isenabled()

    def test_a_caller_that_disabled_it_finds_it_disabled(self, tmp_path):
        gc.disable()
        run_sharded_campaign(SPEC, two_cities(), seed=2, workers=1)
        assert not gc.isenabled()
        with pytest.raises(SimulatedCrash):
            run_sharded_campaign(
                SPEC,
                two_cities(),
                seed=2,
                workers=1,
                checkpoint_dir=tmp_path,
                checkpoint_crash_hook=CrashController(CrashPlan(1)),
            )
        assert not gc.isenabled()
