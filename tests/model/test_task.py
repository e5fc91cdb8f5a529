"""Unit tests for SensingTask and TaskSchedule."""

from __future__ import annotations

import pickle

import pytest

from repro.errors import ValidationError
from repro.model import SensingTask, TaskSchedule


class TestSensingTask:
    def test_fields(self):
        task = SensingTask(task_id=0, slot=3, index=2, value=10.0)
        assert task.slot == 3
        assert task.index == 2
        assert task.value == 10.0

    def test_label(self):
        assert SensingTask(task_id=0, slot=3, index=2, value=1.0).label == "t3.2"

    def test_value_normalised_to_float(self):
        assert isinstance(
            SensingTask(task_id=0, slot=1, index=1, value=5).value, float
        )

    def test_zero_slot_rejected(self):
        with pytest.raises(ValidationError):
            SensingTask(task_id=0, slot=0, index=1, value=1.0)

    def test_zero_index_rejected(self):
        with pytest.raises(ValidationError):
            SensingTask(task_id=0, slot=1, index=0, value=1.0)

    def test_negative_value_rejected(self):
        with pytest.raises(ValidationError):
            SensingTask(task_id=0, slot=1, index=1, value=-1.0)

    def test_round_trip(self):
        task = SensingTask(task_id=4, slot=2, index=1, value=7.0)
        assert SensingTask.from_dict(task.to_dict()) == task


class TestTaskScheduleFromCounts:
    def test_counts_round_trip(self):
        schedule = TaskSchedule.from_counts([2, 0, 3], value=5.0)
        assert schedule.counts == (2, 0, 3)
        assert schedule.num_slots == 3
        assert len(schedule) == 5

    def test_sequential_ids_in_arrival_order(self):
        schedule = TaskSchedule.from_counts([1, 2], value=1.0)
        assert [t.task_id for t in schedule] == [0, 1, 2]
        assert [t.slot for t in schedule] == [1, 2, 2]
        assert [t.index for t in schedule] == [1, 1, 2]

    def test_first_task_id_offset(self):
        schedule = TaskSchedule.from_counts([1, 1], value=1.0, first_task_id=10)
        assert [t.task_id for t in schedule] == [10, 11]

    def test_empty_counts_rejected(self):
        with pytest.raises(ValidationError):
            TaskSchedule.from_counts([], value=1.0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValidationError):
            TaskSchedule.from_counts([1, -1], value=1.0)

    def test_tasks_equal_and_pickle_like_validated_construction(self):
        """The generated tasks skip ``__post_init__`` invisibly."""
        schedule = TaskSchedule.from_counts([2, 0, 1], value=5, first_task_id=3)
        validated = [
            SensingTask(task_id=3, slot=1, index=1, value=5),
            SensingTask(task_id=4, slot=1, index=2, value=5),
            SensingTask(task_id=5, slot=3, index=1, value=5),
        ]
        assert list(schedule) == validated
        for fast, slow in zip(schedule, validated):
            assert isinstance(fast.value, float)
            assert pickle.dumps(fast, protocol=4) == pickle.dumps(
                slow, protocol=4
            )

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"value": -1.0}, "value must be >= 0, got -1.0"),
            ({"value": float("nan")}, "value must be finite"),
            ({"value": "5"}, "value must be of type int, float, got str"),
            ({"first_task_id": -1}, "task_id must be >= 0, got -1"),
            ({"first_task_id": 1.0}, "task_id must be of type int"),
            ({"first_task_id": True}, "task_id must be a number, got bool"),
        ],
    )
    def test_value_and_first_id_checked_once(self, kwargs, message):
        """The messages are the ones ``SensingTask`` itself gives."""
        arguments = {"value": 1.0, **kwargs}
        with pytest.raises(ValidationError, match=message):
            TaskSchedule.from_counts([1, 2], **arguments)

    def test_bad_count_type_rejected(self):
        with pytest.raises(ValidationError, match="counts\\[1\\] must be"):
            TaskSchedule.from_counts([1, 2.0], value=1.0)

    @pytest.mark.parametrize(
        "counts, message",
        [
            ([1, True], "counts\\[1\\] must be a number, got bool"),
            ([2, 0, -3], "counts\\[2\\] must be >= 0, got -3"),
            ([1, "2"], "counts\\[1\\] must be of type int, got str"),
            ([-1, 2.0], "counts\\[0\\] must be >= 0, got -1"),
        ],
    )
    def test_count_messages_name_the_first_bad_slot(self, counts, message):
        with pytest.raises(ValidationError, match=message):
            TaskSchedule.from_counts(counts, value=1.0)

    @pytest.mark.parametrize(
        "counts, value, first_task_id",
        [
            ([2, 0, 1], 5.0, 3),
            ([0, 0, 0], 1.0, 0),
            ([3], 0.0, 0),
            ([0, 4, 1, 0, 2], 7, 11),
        ],
    )
    def test_pickles_like_the_validated_constructor(
        self, counts, value, first_task_id
    ):
        fast = TaskSchedule.from_counts(counts, value, first_task_id)
        tasks = []
        for slot, count in enumerate(counts, start=1):
            for index in range(1, count + 1):
                tasks.append(
                    SensingTask(
                        task_id=first_task_id + len(tasks),
                        slot=slot,
                        index=index,
                        value=value,
                    )
                )
        slow = TaskSchedule(len(counts), reversed(tasks))
        assert fast == slow
        assert fast.uniform_value == slow.uniform_value
        assert fast.counts == slow.counts
        assert pickle.dumps(fast, protocol=4) == pickle.dumps(
            slow, protocol=4
        )

    def test_all_zero_counts_gives_empty_schedule(self):
        schedule = TaskSchedule.from_counts([0, 0, 0], value=1.0)
        assert len(schedule) == 0
        assert schedule.total_value == 0.0


class TestTaskScheduleValidation:
    def test_duplicate_task_id_rejected(self):
        tasks = [
            SensingTask(task_id=0, slot=1, index=1, value=1.0),
            SensingTask(task_id=0, slot=2, index=1, value=1.0),
        ]
        with pytest.raises(ValidationError, match="duplicate task_id"):
            TaskSchedule(num_slots=2, tasks=tasks)

    def test_duplicate_position_rejected(self):
        tasks = [
            SensingTask(task_id=0, slot=1, index=1, value=1.0),
            SensingTask(task_id=1, slot=1, index=1, value=1.0),
        ]
        with pytest.raises(ValidationError, match="duplicate task position"):
            TaskSchedule(num_slots=2, tasks=tasks)

    def test_task_beyond_horizon_rejected(self):
        tasks = [SensingTask(task_id=0, slot=3, index=1, value=1.0)]
        with pytest.raises(ValidationError, match="beyond"):
            TaskSchedule(num_slots=2, tasks=tasks)

    def test_non_task_rejected(self):
        with pytest.raises(ValidationError):
            TaskSchedule(num_slots=2, tasks=["not-a-task"])  # type: ignore[list-item]


class TestTaskScheduleAccess:
    @pytest.fixture
    def schedule(self):
        return TaskSchedule.from_counts([2, 0, 1], value=4.0)

    def test_tasks_in_slot(self, schedule):
        assert len(schedule.tasks_in_slot(1)) == 2
        assert schedule.tasks_in_slot(2) == ()
        assert len(schedule.tasks_in_slot(3)) == 1

    def test_tasks_in_slot_out_of_range(self, schedule):
        with pytest.raises(ValidationError):
            schedule.tasks_in_slot(0)
        with pytest.raises(ValidationError):
            schedule.tasks_in_slot(4)

    def test_task_lookup(self, schedule):
        assert schedule.task(0).slot == 1
        with pytest.raises(ValidationError, match="unknown task_id"):
            schedule.task(99)

    def test_contains(self, schedule):
        assert 0 in schedule
        assert 99 not in schedule

    def test_total_value(self, schedule):
        assert schedule.total_value == 12.0

    def test_iteration_ordered(self, schedule):
        slots = [t.slot for t in schedule]
        assert slots == sorted(slots)

    def test_equality_and_hash(self):
        a = TaskSchedule.from_counts([1, 1], value=2.0)
        b = TaskSchedule.from_counts([1, 1], value=2.0)
        c = TaskSchedule.from_counts([1, 1], value=3.0)
        assert a == b
        assert hash(a) == hash(b)
        assert a != c


class TestFromDictTypes:
    """Trace values are validated as read, never coerced."""

    @pytest.mark.parametrize(
        "field,value",
        [
            ("task_id", True),
            ("slot", "2"),
            ("slot", 2.5),
            ("index", 1.0),
            ("value", "7"),
            ("value", False),
        ],
    )
    def test_wrong_json_type_rejected(self, field, value):
        payload = {"task_id": 4, "slot": 2, "index": 1, "value": 7.0}
        payload[field] = value
        with pytest.raises(ValidationError, match=field):
            SensingTask.from_dict(payload)
