"""Deterministic retry policies for transient failures.

The sweep runner retries failed repetitions on a
``backoff * 2 ** attempt`` schedule; this module holds that arithmetic
in one frozen, picklable :class:`RetryPolicy`.

Determinism matters here the same way it does for RNG: the delay for
attempt ``k`` is a pure function of the policy, never of jitter or the
wall clock, so a replayed run waits the same simulated time.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Optional, Tuple

from repro.errors import ValidationError


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """A deterministic exponential-backoff schedule.

    Attributes
    ----------
    retries:
        Extra attempts after the first (``0`` means try exactly once).
    backoff:
        Base delay in seconds; attempt ``k`` (0-based) waits
        ``backoff * multiplier ** k`` before the *next* attempt.  Zero
        disables waiting, matching the sweep runner's historical
        ``backoff=0.0`` default.
    multiplier:
        Exponential growth factor (``2.0`` reproduces the harness's
        ``backoff * 2 ** attempt`` loops exactly).
    max_delay:
        Optional cap on any single delay.
    """

    retries: int = 0
    backoff: float = 0.0
    multiplier: float = 2.0
    max_delay: Optional[float] = None

    def __post_init__(self) -> None:
        if self.retries < 0:
            raise ValidationError(
                f"retries must be >= 0, got {self.retries}"
            )
        # ``nan < 0`` is False, so finiteness is checked on its own.
        for name in ("backoff", "multiplier", "max_delay"):
            value = getattr(self, name)
            if value is not None and not math.isfinite(value):
                raise ValidationError(f"{name} must be finite, got {value}")
        if self.backoff < 0:
            raise ValidationError(
                f"backoff must be >= 0, got {self.backoff}"
            )
        if self.multiplier <= 0:
            raise ValidationError(
                f"multiplier must be > 0, got {self.multiplier}"
            )
        if self.max_delay is not None and self.max_delay < 0:
            raise ValidationError(
                f"max_delay must be >= 0, got {self.max_delay}"
            )

    def delay_for(self, attempt: int) -> float:
        """Seconds to wait after failed attempt ``attempt`` (0-based)."""
        if attempt < 0:
            raise ValidationError(f"attempt must be >= 0, got {attempt}")
        delay = self.backoff * (self.multiplier ** attempt)
        if self.max_delay is not None:
            delay = min(delay, self.max_delay)
        return delay

    def delays(self) -> Tuple[float, ...]:
        """Every scheduled delay, in order (one per retry)."""
        return tuple(self.delay_for(k) for k in range(self.retries))

