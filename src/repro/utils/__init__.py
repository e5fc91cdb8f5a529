"""Shared low-level utilities: seeded RNG streams, validation, tables."""

from repro.utils.numeric import (
    DEFAULT_TOLERANCE,
    float_eq,
    float_ge,
    float_le,
    float_ne,
)
from repro.utils.retry import RetryPolicy
from repro.utils.rng import RngStreams, spawn_rng
from repro.utils.tables import format_table
from repro.utils.validation import (
    check_finite,
    check_in_range,
    check_non_negative,
    check_positive,
    check_type,
)

__all__ = [
    "DEFAULT_TOLERANCE",
    "float_eq",
    "float_ge",
    "float_le",
    "float_ne",
    "RetryPolicy",
    "RngStreams",
    "spawn_rng",
    "format_table",
    "check_finite",
    "check_in_range",
    "check_non_negative",
    "check_positive",
    "check_type",
]
