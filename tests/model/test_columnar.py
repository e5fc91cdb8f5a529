"""Columnar round codec: layout, round-trips, validation, round metrics.

The codec is the wire format of the sharded campaign runner, so two
properties carry the byte-identity contract: decoding must reproduce
validated construction *exactly* (equality and pickle bytes), and
pack/unpack must round-trip any number of rounds through one flat
buffer with zero-copy views on the way out.  The columns are also an
untrusted boundary: every value a ``Bid`` would refuse is refused at
construction, including inside a segment corrupted after packing.
"""

from __future__ import annotations

import pickle
import tracemalloc

import numpy as np
import pytest

from repro.errors import MechanismError, ValidationError
from repro.mechanisms.online_greedy import OnlineGreedyMechanism
from repro.model.bid import Bid
from repro.model.columnar import (
    COLUMNAR_SCHEMA,
    RoundColumns,
    pack_rounds_into,
    packed_size,
    unpack_rounds,
)
from repro.model.smartphone import SmartphoneProfile
from repro.simulation.engine import SimulationEngine
from repro.simulation.workload import WorkloadConfig


@pytest.fixture(scope="module")
def workload():
    return WorkloadConfig(
        num_slots=8,
        phone_rate=3.0,
        task_rate=1.5,
        mean_cost=12.0,
        mean_active_length=3,
        task_value=20.0,
    )


class TestGenerateColumns:
    def test_matches_generate_value_for_value(self, workload):
        for seed in range(5):
            scenario = workload.generate(seed=seed)
            columns = workload.generate_columns(seed=seed)
            assert columns.decode_profiles() == list(scenario.profiles)
            assert columns.decode_schedule() == scenario.schedule
            assert columns.decode_bids() == scenario.truthful_bids()

    def test_decoded_objects_pickle_byte_identically(self, workload):
        """The trusted fast path is invisible in the pickle stream."""
        columns = workload.generate_columns(seed=3)
        rows = list(
            zip(
                columns.phone_id.tolist(),
                columns.arrival.tolist(),
                columns.departure.tolist(),
                columns.cost.tolist(),
            )
        )
        assert rows
        for cls, decoded in (
            (SmartphoneProfile, columns.decode_profiles()),
            (Bid, columns.decode_bids()),
        ):
            validated = [cls(*row) for row in rows]
            assert decoded == validated
            for fast, slow in zip(decoded, validated):
                assert pickle.dumps(fast, protocol=4) == pickle.dumps(
                    slow, protocol=4
                )

    def test_decoded_bids_take_no_more_memory_than_validated(self):
        """Decoding sets fields without materialising a per-instance
        ``__dict__``, so it costs what validated construction costs."""
        n = 2000
        columns = RoundColumns(
            num_slots=4,
            task_value=1.0,
            phone_id=np.arange(n, dtype=np.int64),
            arrival=np.ones(n, dtype=np.int64),
            departure=np.full(n, 4, dtype=np.int64),
            cost=np.linspace(0.0, 9.0, n),
            task_counts=np.ones(4, dtype=np.int64),
        )
        # Convert before tracing: both constructions then share the same
        # int and float objects and differ only in the objects they build.
        rows = list(zip(*columns.lists))

        def traced_bytes(build):
            tracemalloc.start()
            try:
                kept = build()
                size = tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()
            assert len(kept) == n
            return size

        decoded = traced_bytes(columns.decode_bids)
        validated = traced_bytes(lambda: [Bid(*row) for row in rows])
        assert decoded <= 1.2 * validated

    def test_column_dtypes_and_lengths(self, workload):
        columns = workload.generate_columns(seed=1)
        n = columns.num_phones
        assert columns.phone_id.dtype == np.int64
        assert columns.cost.dtype == np.float64
        assert len(columns.arrival) == n
        assert len(columns.departure) == n
        assert len(columns.task_counts) == columns.num_slots
        assert columns.nbytes == 8 * (4 * n + columns.num_slots)


class TestFromScenario:
    def test_round_trips_a_generated_scenario(self, workload):
        scenario = workload.generate(seed=9)
        columns = RoundColumns.from_scenario(scenario)
        assert columns.decode_profiles() == list(scenario.profiles)
        assert columns.decode_schedule() == scenario.schedule

    def test_mixed_value_schedule_rejected(self, workload):
        from repro.model.task import SensingTask, TaskSchedule

        scenario = workload.generate(seed=9)
        mixed = TaskSchedule(
            num_slots=scenario.schedule.num_slots,
            tasks=[
                SensingTask(task_id=0, slot=1, index=1, value=5.0),
                SensingTask(task_id=1, slot=2, index=1, value=7.0),
            ],
        )

        class Stub:
            profiles = scenario.profiles
            schedule = mixed

        with pytest.raises(ValidationError, match="uniform task value"):
            RoundColumns.from_scenario(Stub())


class TestValidation:
    def test_column_length_mismatch_rejected(self):
        with pytest.raises(ValidationError, match="column 'cost'"):
            RoundColumns(
                num_slots=2,
                task_value=1.0,
                phone_id=np.array([0, 1]),
                arrival=np.array([1, 1]),
                departure=np.array([1, 2]),
                cost=np.array([1.0]),
                task_counts=np.array([1, 0]),
            )

    def test_task_counts_must_cover_horizon(self):
        with pytest.raises(ValidationError, match="task_counts"):
            RoundColumns(
                num_slots=3,
                task_value=1.0,
                phone_id=np.array([], dtype=np.int64),
                arrival=np.array([], dtype=np.int64),
                departure=np.array([], dtype=np.int64),
                cost=np.array([], dtype=np.float64),
                task_counts=np.array([1], dtype=np.int64),
            )


def small_columns(**overrides):
    """A valid three-phone round; ``overrides`` replace whole columns."""
    fields = dict(
        num_slots=4,
        task_value=10.0,
        phone_id=np.array([0, 1, 2], dtype=np.int64),
        arrival=np.array([1, 2, 3], dtype=np.int64),
        departure=np.array([2, 4, 3], dtype=np.int64),
        cost=np.array([1.0, 2.0, 3.0]),
        task_counts=np.array([1, 0, 1, 0], dtype=np.int64),
    )
    fields.update(overrides)
    return RoundColumns(**fields)


#: (column, phone index, corrupt value, expected message) — every value a
#: validated ``Bid`` in a 4-slot round would refuse.
BAD_VALUES = [
    ("cost", 1, float("nan"), "cost must be finite"),
    ("cost", 1, float("inf"), "cost must be finite"),
    ("cost", 1, -0.5, "cost must be finite and >= 0"),
    ("arrival", 0, 0, "arrival must be >= 1"),
    ("departure", 2, 2, "departure must be >= arrival"),
    ("departure", 1, 5, "departure must be <= num_slots=4"),
    ("phone_id", 2, 1, "duplicate phone id 1 at position 2"),
    ("phone_id", 0, -3, "phone id must be >= 0"),
]

#: Column order in the packed layout (see the codec's module docstring).
LAYOUT = ("phone_id", "arrival", "departure", "cost")


class TestValueValidation:
    @pytest.mark.parametrize("column, index, value, message", BAD_VALUES)
    def test_rejected_at_construction(self, column, index, value, message):
        values = getattr(small_columns(), column).copy()
        values[index] = value
        with pytest.raises(ValidationError, match=message):
            small_columns(**{column: values})

    @pytest.mark.parametrize("column, index, value, message", BAD_VALUES)
    def test_rejected_when_unpacking_a_corrupted_segment(
        self, column, index, value, message
    ):
        rounds = [small_columns(), small_columns()]
        buffer = bytearray(packed_size(rounds))
        header = pack_rounds_into(rounds, buffer)
        assert len(unpack_rounds(buffer, header)) == 2
        # Corrupt the second round after packing, as a stray writer to
        # the shared segment would.
        n = rounds[0].num_phones
        offset = rounds[0].nbytes + 8 * (LAYOUT.index(column) * n + index)
        dtype = np.float64 if column == "cost" else np.int64
        np.frombuffer(buffer, dtype=dtype, count=1, offset=offset)[0] = value
        with pytest.raises(ValidationError, match=message):
            unpack_rounds(buffer, header)

    def test_non_integer_window_column_rejected(self):
        with pytest.raises(ValidationError, match="'arrival' must hold"):
            small_columns(arrival=np.array([1.0, 2.0, 3.0]))

    def test_ids_out_of_order_rejected(self):
        """Bid order is pickled, so columns must already be in the
        serial path's phone-id order."""
        with pytest.raises(ValidationError, match="out-of-order phone id 0"):
            small_columns(phone_id=np.array([7, 0, 3]))

    @pytest.mark.parametrize("num_slots", [2.5, True, np.int64(4)])
    def test_non_int_num_slots_rejected(self, num_slots):
        with pytest.raises(ValidationError, match="num_slots must be"):
            small_columns(num_slots=num_slots)

    def test_negative_task_count_rejected(self):
        with pytest.raises(
            ValidationError, match="task_counts must be >= 0: slot 3"
        ):
            small_columns(task_counts=np.array([1, 0, -1, 0]))

    @pytest.mark.parametrize(
        "task_value", [float("nan"), float("inf"), -0.5, True, "10"]
    )
    def test_bad_task_value_rejected(self, task_value):
        with pytest.raises(ValidationError, match="task_value"):
            small_columns(task_value=task_value)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("num_slots", 4.0, "num_slots must be of type int"),
            ("num_slots", True, "num_slots must be a number, got bool"),
            ("num_phones", -1, "num_phones must be >= 0"),
            ("task_value", float("nan"), "task_value must be finite"),
            ("task_value", -1.0, "task_value must be >= 0"),
        ],
    )
    def test_corrupted_header_rejected(self, field, value, message):
        rounds = [small_columns()]
        buffer = bytearray(packed_size(rounds))
        header = pack_rounds_into(rounds, buffer)
        header["rounds"][0][field] = value
        with pytest.raises(ValidationError, match=message):
            unpack_rounds(buffer, header)

    def test_negative_count_in_a_corrupted_segment_rejected(self):
        rounds = [small_columns()]
        buffer = bytearray(packed_size(rounds))
        header = pack_rounds_into(rounds, buffer)
        counts_offset = 8 * 4 * rounds[0].num_phones
        np.frombuffer(buffer, dtype=np.int64, count=1, offset=counts_offset)[
            0
        ] = -2
        with pytest.raises(ValidationError, match="task_counts must be >= 0"):
            unpack_rounds(buffer, header)

    def test_unpacked_views_are_read_only(self):
        rounds = [small_columns()]
        buffer = bytearray(packed_size(rounds))
        (view,) = unpack_rounds(buffer, pack_rounds_into(rounds, buffer))
        with pytest.raises(ValueError):
            view.cost[0] = -1.0


class TestRoundMetricsFromColumns:
    """A round runs and packages identically from columns and from the
    scenario the serial path generates for the same seed."""

    @pytest.mark.parametrize("seed", range(4))
    def test_result_pickles_like_the_scenario_path(self, workload, seed):
        scenario = workload.generate(seed=seed)
        columns = workload.generate_columns(seed=seed)
        mechanism = OnlineGreedyMechanism()
        serial = SimulationEngine.package(
            mechanism.name,
            mechanism.run(scenario.truthful_bids(), scenario.schedule),
            scenario,
        )
        columnar = SimulationEngine.package(
            mechanism.name,
            mechanism.run(columns, columns.schedule),
            columns,
        )
        assert pickle.dumps(columnar, protocol=4) == pickle.dumps(
            serial, protocol=4
        )

    def test_real_costs_match_the_scenario(self, workload):
        scenario = workload.generate(seed=5)
        columns = workload.generate_columns(seed=5)
        assert list(columns.real_costs.items()) == list(
            scenario.real_costs.items()
        )
        assert columns.schedule is columns.schedule  # decoded once

    def test_horizon_mismatch_rejected(self, workload):
        columns = workload.generate_columns(seed=1)
        other = workload.replace(num_slots=workload.num_slots + 1)
        schedule = other.generate_columns(seed=1).schedule
        with pytest.raises(MechanismError, match="span"):
            OnlineGreedyMechanism().run(columns, schedule)


class TestPackUnpack:
    def _rounds(self, workload, seeds):
        return [workload.generate_columns(seed=s) for s in seeds]

    def test_multi_round_round_trip(self, workload):
        rounds = self._rounds(workload, range(4))
        buffer = bytearray(packed_size(rounds))
        header = pack_rounds_into(rounds, buffer)
        assert header["schema"] == COLUMNAR_SCHEMA
        assert len(header["rounds"]) == 4
        unpacked = unpack_rounds(buffer, header)
        for original, view in zip(rounds, unpacked):
            assert view.num_slots == original.num_slots
            assert view.task_value == original.task_value
            np.testing.assert_array_equal(view.phone_id, original.phone_id)
            np.testing.assert_array_equal(view.cost, original.cost)
            np.testing.assert_array_equal(
                view.task_counts, original.task_counts
            )
            assert view.decode_profiles() == original.decode_profiles()

    def test_unpacked_views_are_zero_copy(self, workload):
        rounds = self._rounds(workload, [0])
        buffer = bytearray(packed_size(rounds))
        header = pack_rounds_into(rounds, buffer)
        view = unpack_rounds(buffer, header)[0]
        # A view, not a copy: mutating the buffer shows through.
        assert view.phone_id.base is not None
        first = int(view.phone_id[0])
        np.frombuffer(buffer, dtype=np.int64, count=1)[0] = first + 41
        assert int(view.phone_id[0]) == first + 41

    def test_undersized_buffer_rejected(self, workload):
        rounds = self._rounds(workload, [0])
        buffer = bytearray(packed_size(rounds) - 1)
        with pytest.raises(ValidationError, match="pack buffer holds"):
            pack_rounds_into(rounds, buffer)

    def test_alien_schema_rejected(self, workload):
        rounds = self._rounds(workload, [0])
        buffer = bytearray(packed_size(rounds))
        header = pack_rounds_into(rounds, buffer)
        header["schema"] = "repro-columnar/999"
        with pytest.raises(ValidationError, match="unknown columnar schema"):
            unpack_rounds(buffer, header)

    def test_truncated_buffer_rejected(self, workload):
        rounds = self._rounds(workload, [0, 1])
        buffer = bytearray(packed_size(rounds))
        header = pack_rounds_into(rounds, buffer)
        with pytest.raises(ValidationError, match="truncated"):
            unpack_rounds(buffer[: packed_size(rounds[:1])], header)

    def test_empty_round_packs(self, workload):
        """A round with zero phones still packs its task counts."""
        quiet = workload.replace(phone_rate=0.0)
        rounds = [quiet.generate_columns(seed=0)]
        assert rounds[0].num_phones == 0
        buffer = bytearray(packed_size(rounds))
        header = pack_rounds_into(rounds, buffer)
        view = unpack_rounds(buffer, header)[0]
        assert view.num_phones == 0
        assert view.decode_profiles() == []
