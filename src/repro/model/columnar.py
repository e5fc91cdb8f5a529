"""Columnar round codec: rounds as flat numpy columns, packable into shared memory.

The sharded campaign runner (:mod:`repro.experiments.sharding`) ships whole
rounds to worker processes through ``multiprocessing.shared_memory`` instead
of pickling lists of :class:`~repro.model.bid.Bid` objects.  This module is
the wire format: a :class:`RoundColumns` holds one round as five flat
columns (phone id, arrival, departure, cost, per-slot task counts), and
:func:`pack_rounds_into` / :func:`unpack_rounds` lay any number of rounds
out back to back in a single byte buffer.

Layout
------
Every column is a contiguous 8-byte-element array, so the packed payload is
naturally aligned with no padding.  For each round, in order::

    phone_id    int64[num_phones]
    arrival     int64[num_phones]
    departure   int64[num_phones]
    cost        float64[num_phones]
    task_counts int64[num_slots]

The header returned by :func:`pack_rounds_into` records the per-round
``num_phones`` / ``num_slots`` / ``task_value``; offsets are recomputed from
those counts on unpack, so the header is a small picklable dict and the
payload itself never moves through a pickle.  :func:`unpack_rounds` builds
zero-copy ``numpy`` views into the buffer — callers must drop the returned
:class:`RoundColumns` (and anything holding their arrays) before closing
the shared-memory segment backing the buffer.

Validation
----------
A :class:`RoundColumns` checks every value once, with numpy, when it is
constructed — by the workload generator, by :func:`unpack_rounds` over a
shared-memory segment, or by hand: integer id/window columns and a float
cost column, an integer ``num_slots >= 1`` (not a ``bool``), a finite
non-negative ``task_value``, non-negative task counts, non-negative phone
ids in strictly ascending order (hence unique),
``1 <= arrival <= departure <= num_slots``, and finite non-negative
costs.  Any failure raises :class:`~repro.errors.ValidationError`.  That
is every check ``Bid`` / ``SmartphoneProfile`` construction and
``RoundConfig.validate_bids`` make per object, so decoding to model
objects (:meth:`RoundColumns.decode_bids` /
:meth:`RoundColumns.decode_profiles`) skips ``__post_init__``.  The
constructed objects get their fields through ``object.__setattr__`` in
declaration order, the order validated construction sets them, with the
same value types, so downstream pickles are byte-identical.

A :class:`RoundColumns` also serves the round metrics directly: like a
:class:`~repro.simulation.scenario.Scenario` it exposes the round's
``schedule`` and its ``real_costs`` (see :mod:`repro.metrics.welfare`),
so a shard worker packages results without materialising profiles.
"""

from __future__ import annotations

import dataclasses
import functools
from types import MappingProxyType
from typing import Any, Dict, List, Mapping, Sequence, Tuple

import numpy as np

from repro.errors import ValidationError
from repro.model.bid import Bid
from repro.model.smartphone import SmartphoneProfile
from repro.model.task import TaskSchedule
from repro.utils.validation import check_non_negative, check_type

#: Schema tag embedded in pack headers (bump on layout changes).
COLUMNAR_SCHEMA = "repro-columnar/1"

_INT = np.dtype(np.int64)
_FLOAT = np.dtype(np.float64)
_ELEMENT_BYTES = 8


@dataclasses.dataclass(frozen=True)
class RoundColumns:
    """One generated round as flat columns (see module docstring).

    Attributes
    ----------
    num_slots:
        Round horizon ``m``.
    task_value:
        The platform's uniform per-task value ``ν``.
    phone_id / arrival / departure / cost:
        Per-phone columns, all of length ``num_phones``, in ascending
        phone id (the generator's order).
    task_counts:
        Task arrivals per slot, length ``num_slots``.
    """

    num_slots: int
    task_value: float
    phone_id: np.ndarray
    arrival: np.ndarray
    departure: np.ndarray
    cost: np.ndarray
    task_counts: np.ndarray

    def __post_init__(self) -> None:
        check_type("num_slots", self.num_slots, int)
        if self.num_slots < 1:
            raise ValidationError(
                f"num_slots must be >= 1, got {self.num_slots}"
            )
        check_non_negative("task_value", self.task_value)
        n = len(self.phone_id)
        for name in ("arrival", "departure", "cost"):
            if len(getattr(self, name)) != n:
                raise ValidationError(
                    f"column {name!r} has length "
                    f"{len(getattr(self, name))}, expected {n}"
                )
        if len(self.task_counts) != self.num_slots:
            raise ValidationError(
                f"task_counts has length {len(self.task_counts)}, "
                f"expected num_slots={self.num_slots}"
            )
        for name in ("phone_id", "arrival", "departure", "task_counts"):
            if np.asarray(getattr(self, name)).dtype.kind not in "iu":
                raise ValidationError(f"column {name!r} must hold integers")
        if np.asarray(self.cost).dtype.kind != "f":
            raise ValidationError("column 'cost' must hold floats")
        counts = np.asarray(self.task_counts)
        if (counts < 0).any():
            index = int(np.argmax(counts < 0))
            raise ValidationError(
                f"task_counts must be >= 0: slot {index + 1} has "
                f"{int(counts[index])} tasks"
            )
        if n:
            self._check_phones()

    def _check_phones(self) -> None:
        """Reject any phone a validated ``Bid`` could not hold."""
        phone_id = np.asarray(self.phone_id)
        arrival = np.asarray(self.arrival)
        departure = np.asarray(self.departure)
        cost = np.asarray(self.cost)
        for bad, rule in (
            (phone_id < 0, "phone id must be >= 0"),
            (arrival < 1, "arrival must be >= 1"),
            (departure < arrival, "departure must be >= arrival"),
            (
                departure > self.num_slots,
                f"departure must be <= num_slots={self.num_slots}",
            ),
            (~np.isfinite(cost) | (cost < 0), "cost must be finite and >= 0"),
        ):
            if bad.any():
                index = int(np.argmax(bad))
                raise ValidationError(
                    f"{rule}: phone {int(phone_id[index])} has arrival "
                    f"{int(arrival[index])}, departure "
                    f"{int(departure[index])}, cost {float(cost[index])!r}"
                )
        # Ascending, which also makes them unique: the serial path's
        # Scenario orders phones by id, and bid order is pickled.
        step = np.diff(phone_id)
        if (step <= 0).any():
            index = int(np.argmax(step <= 0)) + 1
            problem = "duplicate" if step[index - 1] == 0 else "out-of-order"
            raise ValidationError(
                f"phone ids must ascend: {problem} phone id "
                f"{int(phone_id[index])} at position {index}"
            )

    @property
    def num_phones(self) -> int:
        """Number of phones in the round."""
        return len(self.phone_id)

    @property
    def nbytes(self) -> int:
        """Packed size of this round in bytes."""
        return _ELEMENT_BYTES * (4 * self.num_phones + self.num_slots)

    # ------------------------------------------------------------------
    # Encoding
    # ------------------------------------------------------------------
    @classmethod
    def from_scenario(cls, scenario: Any) -> "RoundColumns":
        """Encode an already-materialised scenario (tests, traces).

        The workload generator produces columns directly
        (``WorkloadConfig.generate_columns``); this constructor exists for
        round-tripping scenarios that were built some other way.  The
        schedule must carry a uniform task value (the codec stores one
        ``ν`` per round, matching the paper's model).
        """
        profiles = scenario.profiles
        value = scenario.schedule.uniform_value
        if value is None:
            raise ValidationError(
                "columnar codec requires a uniform task value; "
                "this schedule mixes values"
            )
        return cls(
            num_slots=scenario.schedule.num_slots,
            task_value=float(value),
            phone_id=np.array(
                [p.phone_id for p in profiles], dtype=_INT
            ),
            arrival=np.array([p.arrival for p in profiles], dtype=_INT),
            departure=np.array(
                [p.departure for p in profiles], dtype=_INT
            ),
            cost=np.array([p.cost for p in profiles], dtype=_FLOAT),
            task_counts=np.array(
                scenario.schedule.counts, dtype=_INT
            ),
        )

    # ------------------------------------------------------------------
    # Decoding (values were validated at construction)
    # ------------------------------------------------------------------
    def decode_profiles(self) -> List[SmartphoneProfile]:
        """Materialise :class:`SmartphoneProfile` objects from the columns.

        Constructs instances through ``object.__new__`` with fields set in
        declaration order, skipping ``__post_init__`` — the constructor
        already validated these values.  The result is indistinguishable
        (including pickle bytes) from validated construction.
        """
        return _decode(SmartphoneProfile, self)

    def decode_bids(self) -> List[Bid]:
        """Materialise the truthful bid vector from the columns.

        Equivalent to ``[p.truthful_bid() for p in decode_profiles()]``
        but without the double construction cost; under truthful bidding
        the bid fields equal the profile fields verbatim.
        """
        return _decode(Bid, self)

    def decode_schedule(self) -> TaskSchedule:
        """Rebuild the task schedule (same path the generator uses)."""
        return TaskSchedule.from_counts(
            self.task_counts.tolist(), value=self.task_value
        )

    # ------------------------------------------------------------------
    # What the round metrics read (shared with Scenario)
    # ------------------------------------------------------------------
    @functools.cached_property
    def schedule(self) -> TaskSchedule:
        """The round's task schedule, decoded once."""
        return self.decode_schedule()

    @functools.cached_property
    def lists(
        self,
    ) -> Tuple[
        Tuple[int, ...], Tuple[int, ...], Tuple[int, ...], Tuple[float, ...]
    ]:
        """``(phone_id, arrival, departure, cost)`` as Python values.

        Converted once per round, so the decoded bids of every mechanism,
        the online pass and :attr:`real_costs` share one set of int and
        float objects instead of each holding its own.
        """
        return (
            tuple(self.phone_id.tolist()),
            tuple(self.arrival.tolist()),
            tuple(self.departure.tolist()),
            tuple(self.cost.tolist()),
        )

    @functools.cached_property
    def real_costs(self) -> Mapping[int, float]:
        """``phone_id -> cost``, in ascending phone id (read-only).

        Under truthful bidding the columns' costs are the phones' real
        costs.  Built from :attr:`lists`, so it holds no view into the
        buffer backing the columns.
        """
        phone_id, _, _, cost = self.lists
        return MappingProxyType(dict(zip(phone_id, cost)))


def _decode(cls: type, columns: RoundColumns) -> List[Any]:
    """Build ``cls`` instances from validated columns, skipping ``__init__``.

    Fields go through ``object.__setattr__`` rather than ``obj.__dict__``:
    touching ``__dict__`` would materialise a per-instance dict, about
    twice the memory of the inline attribute values.
    """
    new = object.__new__
    put = object.__setattr__
    out: List[Any] = []
    append = out.append
    for pid, arr, dep, cost in zip(*columns.lists):
        obj = new(cls)
        put(obj, "phone_id", pid)
        put(obj, "arrival", arr)
        put(obj, "departure", dep)
        put(obj, "cost", cost)
        append(obj)
    return out


# ----------------------------------------------------------------------
# Packing rounds into one flat buffer
# ----------------------------------------------------------------------
def packed_size(rounds: Sequence[RoundColumns]) -> int:
    """Total bytes :func:`pack_rounds_into` needs for ``rounds``."""
    return sum(columns.nbytes for columns in rounds)


def pack_rounds_into(
    rounds: Sequence[RoundColumns], buffer: Any
) -> Dict[str, Any]:
    """Write ``rounds`` back to back into ``buffer``; return the header.

    ``buffer`` is any writable buffer (typically a shared-memory block's
    ``buf``) of at least :func:`packed_size` bytes.  The returned header is
    a small picklable dict; together with the buffer it is the complete
    wire representation consumed by :func:`unpack_rounds`.
    """
    needed = packed_size(rounds)
    if len(buffer) < needed:
        raise ValidationError(
            f"pack buffer holds {len(buffer)} bytes, need {needed}"
        )
    offset = 0
    entries: List[Dict[str, Any]] = []
    for columns in rounds:
        for column, dtype in _round_layout(columns):
            source = np.ascontiguousarray(column, dtype=dtype)
            view = np.frombuffer(
                buffer, dtype=dtype, count=source.size, offset=offset
            )
            view[:] = source
            offset += source.nbytes
        entries.append(
            {
                "num_phones": columns.num_phones,
                "num_slots": columns.num_slots,
                "task_value": columns.task_value,
            }
        )
    return {"schema": COLUMNAR_SCHEMA, "rounds": entries}


def unpack_rounds(
    buffer: Any, header: Dict[str, Any]
) -> List[RoundColumns]:
    """Zero-copy inverse of :func:`pack_rounds_into`.

    The returned columns are read-only views into ``buffer`` — no bytes
    are copied — and each round is validated as it is constructed, so a
    segment corrupted after packing raises
    :class:`~repro.errors.ValidationError` here.  Callers must drop every
    returned object before releasing the buffer (closing its
    shared-memory segment), or the release will fail with a
    ``BufferError``.
    """
    if header.get("schema") != COLUMNAR_SCHEMA:
        raise ValidationError(
            f"unknown columnar schema {header.get('schema')!r}; "
            f"expected {COLUMNAR_SCHEMA!r}"
        )
    entries = header.get("rounds")
    if not isinstance(entries, list):
        raise ValidationError("columnar header is missing 'rounds'")
    rounds: List[RoundColumns] = []
    offset = 0
    for entry in entries:
        # Taken as they are, not coerced: int(2.5) would silently lay
        # out a different round than the one packed.
        num_phones = check_type("num_phones", entry["num_phones"], int)
        num_slots = check_type("num_slots", entry["num_slots"], int)
        check_non_negative("num_phones", num_phones)
        check_non_negative("num_slots", num_slots)
        need = _ELEMENT_BYTES * (4 * num_phones + num_slots)
        if offset + need > len(buffer):
            raise ValidationError(
                f"columnar buffer truncated: need {offset + need} "
                f"bytes, have {len(buffer)}"
            )
        views: List[np.ndarray] = []
        for count, dtype in (
            (num_phones, _INT),
            (num_phones, _INT),
            (num_phones, _INT),
            (num_phones, _FLOAT),
            (num_slots, _INT),
        ):
            view = np.frombuffer(
                buffer, dtype=dtype, count=count, offset=offset
            )
            # Validated once below, so nothing may write through it.
            view.flags.writeable = False
            views.append(view)
            offset += count * _ELEMENT_BYTES
        rounds.append(
            RoundColumns(
                num_slots=num_slots,
                task_value=entry["task_value"],
                phone_id=views[0],
                arrival=views[1],
                departure=views[2],
                cost=views[3],
                task_counts=views[4],
            )
        )
    return rounds


def _round_layout(
    columns: RoundColumns,
) -> Tuple[Tuple[np.ndarray, np.dtype], ...]:
    """The (column, dtype) sequence defining one round's packed layout."""
    return (
        (columns.phone_id, _INT),
        (columns.arrival, _INT),
        (columns.departure, _INT),
        (columns.cost, _FLOAT),
        (columns.task_counts, _INT),
    )
