"""Sensing tasks and the per-round task schedule.

Section III-A of the paper: tasks arrive at random; ``r_t`` tasks arrive in
slot ``t`` and the k-th task arriving in slot ``j`` is ``τ_{j,k}``.  A task
is completed within its single arrival slot by at most one smartphone that
is active in that slot, and the platform obtains a fixed value ``ν`` per
completed task.  We attach the value to each task (all equal under the
paper's model) so the library also supports heterogeneous task values.
"""

from __future__ import annotations

import dataclasses
import math
from typing import (
    Any,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
)

from repro.errors import ValidationError
from repro.utils.validation import check_non_negative, check_positive, check_type


@dataclasses.dataclass(frozen=True, order=True)
class SensingTask:
    """One sensing task ``τ_{slot, index}``.

    Attributes
    ----------
    task_id:
        Identifier, unique within a round (assigned by the schedule).
    slot:
        Arrival slot ``j`` (1-based); the task must be served in this slot.
    index:
        1-based position ``k`` among the tasks arriving in the same slot.
    value:
        The platform's value ``ν`` for completing this task.
    """

    task_id: int
    slot: int
    index: int
    value: float

    def __post_init__(self) -> None:
        value = self.value
        if (
            type(self.task_id) is int
            and type(self.slot) is int
            and type(self.index) is int
            and (type(value) is float or type(value) is int)
            and 0 <= self.task_id
            and 0 < self.slot
            and 0 < self.index
            and 0.0 <= value < math.inf
        ):
            # The fast path: plain valid values, checked in one pass.
            if type(value) is not float:
                object.__setattr__(self, "value", float(value))
            return
        check_type("task_id", self.task_id, int)
        check_type("slot", self.slot, int)
        check_type("index", self.index, int)
        if self.task_id < 0:
            raise ValidationError(f"task_id must be >= 0, got {self.task_id}")
        check_positive("slot", self.slot)
        check_positive("index", self.index)
        check_non_negative("value", self.value)
        object.__setattr__(self, "value", float(self.value))

    @property
    def label(self) -> str:
        """Paper-style label ``τ_{j,k}``, e.g. ``"t3.2"``."""
        return f"t{self.slot}.{self.index}"

    def to_dict(self) -> Dict[str, Any]:
        """Serialise to a JSON-friendly dict (used by trace recording)."""
        return {
            "task_id": self.task_id,
            "slot": self.slot,
            "index": self.index,
            "value": self.value,
        }

    @classmethod
    def from_dict(cls, payload: Dict[str, Any]) -> "SensingTask":
        """Inverse of :meth:`to_dict`.

        Values are taken as they are, not coerced: the id, slot and
        index must be integers (not bools, not floats) and the value a
        number, or the constructor raises :class:`ValidationError`.
        """
        try:
            return cls(
                task_id=payload["task_id"],
                slot=payload["slot"],
                index=payload["index"],
                value=payload["value"],
            )
        except KeyError as exc:
            raise ValidationError(f"task payload missing key: {exc}") from exc


class TaskSchedule:
    """The full arrival schedule of sensing tasks for one round.

    An immutable, validated collection of :class:`SensingTask` ordered by
    ``(slot, index)``.  Provides the per-slot views the online mechanism
    needs and the flat view the offline mechanism needs.
    """

    def __init__(self, num_slots: int, tasks: Iterable[SensingTask]) -> None:
        check_type("num_slots", num_slots, int)
        check_positive("num_slots", num_slots)
        self._num_slots = num_slots
        materialised = list(tasks)
        for task in materialised:
            if not isinstance(task, SensingTask):
                raise ValidationError(
                    f"tasks must be SensingTask, got {type(task).__name__}"
                )
        ordered = sorted(
            materialised, key=lambda t: (t.slot, t.index, t.task_id)
        )
        seen_ids = set()
        seen_positions = set()
        for task in ordered:
            if task.slot > num_slots:
                raise ValidationError(
                    f"task {task.label} arrives in slot {task.slot}, beyond "
                    f"the round horizon of {num_slots} slots"
                )
            if task.task_id in seen_ids:
                raise ValidationError(f"duplicate task_id {task.task_id}")
            position = (task.slot, task.index)
            if position in seen_positions:
                raise ValidationError(
                    f"duplicate task position slot={task.slot} "
                    f"index={task.index}"
                )
            seen_ids.add(task.task_id)
            seen_positions.add(position)
        self._tasks: Tuple[SensingTask, ...] = tuple(ordered)
        by_slot: Dict[int, List[SensingTask]] = {}
        for task in self._tasks:
            by_slot.setdefault(task.slot, []).append(task)
        self._by_slot = {slot: tuple(ts) for slot, ts in by_slot.items()}
        self._by_id = {task.task_id: task for task in self._tasks}
        values = {task.value for task in self._tasks}
        self._uniform_value: Optional[float] = (
            values.pop() if len(values) == 1 else None
        )

    @classmethod
    def from_counts(
        cls,
        counts: Sequence[int],
        value: float,
        first_task_id: int = 0,
    ) -> "TaskSchedule":
        """Build a schedule from the paper's arrival vector ``R=(r_1..r_m)``.

        ``counts[t-1]`` tasks arrive in slot ``t``; every task is worth
        ``value``.  Task ids are assigned sequentially from
        ``first_task_id`` in arrival order.

        ``value`` and ``first_task_id`` are checked once, with the
        messages :class:`SensingTask` would give, and the counts in one
        pass, with the messages that name ``counts[i]``.  Every other
        task field is a positive ``int`` by construction, so the tasks
        are built through ``object.__new__`` without ``__post_init__``,
        and since they come out in ``(slot, index, id)`` order the
        schedule is assembled without :meth:`__init__`'s sort and
        duplicate checks.  The result pickles byte for byte like
        ``TaskSchedule(len(counts), tasks)``.
        """
        if not counts:
            raise ValidationError("counts must contain at least one slot")
        check_type("task_id", first_task_id, int)
        if first_task_id < 0:
            raise ValidationError(
                f"task_id must be >= 0, got {first_task_id}"
            )
        check_non_negative("value", value)
        value = float(value)
        new = object.__new__
        put = object.__setattr__
        tasks: List[SensingTask] = []
        by_slot: Dict[int, Tuple[SensingTask, ...]] = {}
        next_id = first_task_id
        for slot, count in enumerate(counts, start=1):
            if count.__class__ is not int or count < 0:
                check_type(f"counts[{slot - 1}]", count, int)
                check_non_negative(f"counts[{slot - 1}]", count)
            if not count:
                continue
            start = len(tasks)
            for k in range(1, count + 1):
                task = new(SensingTask)
                put(task, "task_id", next_id)
                put(task, "slot", slot)
                put(task, "index", k)
                put(task, "value", value)
                tasks.append(task)
                next_id += 1
            by_slot[slot] = tuple(tasks[start:])
        # Attributes in ``__init__``'s order, so pickles match it.
        schedule = cls.__new__(cls)
        schedule._num_slots = len(counts)
        schedule._tasks = tuple(tasks)
        schedule._by_slot = by_slot
        schedule._by_id = {task.task_id: task for task in tasks}
        schedule._uniform_value = value if tasks else None
        return schedule

    @property
    def num_slots(self) -> int:
        """The round horizon ``m`` this schedule was built for."""
        return self._num_slots

    @property
    def tasks(self) -> Tuple[SensingTask, ...]:
        """All tasks ordered by ``(slot, index)``."""
        return self._tasks

    @property
    def counts(self) -> Tuple[int, ...]:
        """The arrival vector ``R = (r_1, ..., r_m)``."""
        return tuple(
            len(self._by_slot.get(slot, ())) for slot in range(1, self._num_slots + 1)
        )

    @property
    def uniform_value(self) -> Optional[float]:
        """The single value shared by every task, or ``None``.

        The paper's model prices all tasks at a common ``ν``; several
        incremental shortcuts (notably the streaming engine's
        critical-threshold maintenance under a reserve price) are only
        valid in that homogeneous regime.  ``None`` means the schedule
        is empty or carries heterogeneous values.
        """
        return self._uniform_value

    @property
    def total_value(self) -> float:
        """Sum of task values (the welfare upper bound if costs were zero)."""
        return sum(task.value for task in self._tasks)

    def tasks_in_slot(self, slot: int) -> Tuple[SensingTask, ...]:
        """Tasks arriving in ``slot`` (1-based), ordered by index."""
        if slot < 1 or slot > self._num_slots:
            raise ValidationError(
                f"slot must be in [1, {self._num_slots}], got {slot}"
            )
        return self._by_slot.get(slot, ())

    def task(self, task_id: int) -> SensingTask:
        """Look a task up by id."""
        try:
            return self._by_id[task_id]
        except KeyError as exc:
            raise ValidationError(f"unknown task_id {task_id}") from exc

    def __len__(self) -> int:
        return len(self._tasks)

    def __iter__(self) -> Iterator[SensingTask]:
        return iter(self._tasks)

    def __contains__(self, task_id: object) -> bool:
        return task_id in self._by_id

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, TaskSchedule):
            return NotImplemented
        return self._num_slots == other._num_slots and self._tasks == other._tasks

    def __hash__(self) -> int:
        return hash((self._num_slots, self._tasks))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"TaskSchedule(num_slots={self._num_slots}, "
            f"tasks={len(self._tasks)})"
        )
