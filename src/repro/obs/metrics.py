"""Counters, gauges, and histograms for the telemetry layer.

A :class:`MetricsRegistry` is a plain in-process bag of named
instruments.  Instruments are created lazily on first use, so
instrumented code never has to pre-declare anything; names follow a
dotted taxonomy documented in ``docs/ARCHITECTURE.md`` (e.g.
``greedy.candidate_evals``, ``platform.events.TaskReassigned``).

The registry is deliberately simple — synchronous, no label sets —
because its job is to account for *one* traced run (a round, a sweep, a
bench session), after which the trace summary reads it and the
registry is thrown away.  Histograms default to retaining every
observation (exact quantiles); long campaigns that observe millions of
values per instrument opt into the *bounded* mode
(:data:`MODE_BOUNDED`), which keeps fixed-width geometric buckets
instead of samples and trades a documented relative quantile error for
O(1)-per-observation memory.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Any, Dict, List, Optional, Tuple

from repro.errors import ObservabilityError

#: Histogram storage modes.
MODE_EXACT = "exact"      # retain every observation; exact quantiles
MODE_BOUNDED = "bounded"  # geometric buckets; bounded-error quantiles
_MODES = (MODE_EXACT, MODE_BOUNDED)

#: Default per-bucket growth factor of the bounded mode.  Buckets span
#: ``[growth**k, growth**(k+1))``; reporting the arithmetic bucket
#: midpoint bounds the relative quantile error by ``(growth - 1) / 2``
#: (2 % at the default).
DEFAULT_GROWTH = 1.04


@dataclasses.dataclass
class Counter:
    """A monotonically increasing count."""

    name: str
    value: float = 0.0

    def increment(self, amount: float = 1.0) -> None:
        """Add ``amount`` (must be >= 0) to the counter."""
        if amount < 0:
            raise ObservabilityError(
                f"counter {self.name!r} cannot decrease (got {amount})"
            )
        self.value += amount


@dataclasses.dataclass
class Gauge:
    """A point-in-time value (last write wins)."""

    name: str
    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


class Histogram:
    """A distribution of observed values.

    Two storage modes:

    * ``"exact"`` (default) — observations are retained verbatim and
      quantiles are computed by linear interpolation over the sorted
      sample, the same convention as ``numpy.quantile(...,
      method="linear")``, implemented here without the numpy dependency
      so the telemetry layer stays import-light.
    * ``"bounded"`` — observations are folded into geometric buckets
      (``growth`` per step, signed, with a dedicated zero bucket), so
      memory is bounded by the *dynamic range* of the values rather
      than their count.  Quantiles report the midpoint of the bucket
      the rank falls in, clamped to the observed min/max, which bounds
      the relative error by ``(growth - 1) / 2``.

    ``count`` / ``total`` / ``mean`` / ``min`` / ``max`` are exact in
    both modes.
    """

    def __init__(
        self,
        name: str,
        mode: str = MODE_EXACT,
        growth: float = DEFAULT_GROWTH,
    ) -> None:
        if mode not in _MODES:
            raise ObservabilityError(
                f"histogram {name!r}: unknown mode {mode!r}; "
                f"expected one of {_MODES}"
            )
        if growth <= 1.0:
            raise ObservabilityError(
                f"histogram {name!r}: growth must be > 1, got {growth}"
            )
        self.name = name
        self.mode = mode
        self.growth = float(growth)
        self._values: List[float] = []
        self._sorted: bool = True
        # -- bounded-mode state: (sign, bucket-index) -> count ----------
        self._buckets: Dict[Tuple[int, int], int] = {}
        self._log_growth = math.log(self.growth)
        self._count = 0
        self._total = 0.0
        self._min = math.inf
        self._max = -math.inf

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    def observe(self, value: float) -> None:
        """Record one observation."""
        value = float(value)
        self._count += 1
        self._total += value
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self.mode == MODE_EXACT:
            self._values.append(value)
            self._sorted = False
            return
        key = self._bucket_key(value)
        self._buckets[key] = self._buckets.get(key, 0) + 1

    def _bucket_key(self, value: float) -> Tuple[int, int]:
        """The (sign, index) bucket holding ``value`` (bounded mode)."""
        if value == 0.0:
            return (0, 0)
        sign = 1 if value > 0 else -1
        index = math.floor(math.log(abs(value)) / self._log_growth)
        return (sign, index)

    def _bucket_midpoint(self, key: Tuple[int, int]) -> float:
        """Representative value of one bucket (its arithmetic midpoint)."""
        sign, index = key
        if sign == 0:
            return 0.0
        low = self.growth ** index
        high = low * self.growth
        return sign * (low + high) / 2.0

    # ------------------------------------------------------------------
    # Exact aggregates (both modes)
    # ------------------------------------------------------------------
    @property
    def count(self) -> int:
        return self._count

    @property
    def total(self) -> float:
        return self._total

    @property
    def mean(self) -> float:
        """Mean of the observations (0.0 when empty)."""
        return self._total / self._count if self._count else 0.0

    @property
    def min(self) -> float:
        return self._min if self._count else 0.0

    @property
    def max(self) -> float:
        return self._max if self._count else 0.0

    @property
    def bucket_count(self) -> int:
        """How many buckets the bounded mode currently occupies (0 when
        exact)."""
        return len(self._buckets)

    def values(self) -> Tuple[float, ...]:
        """The raw observations, in recording order (exact mode only)."""
        if self.mode != MODE_EXACT:
            raise ObservabilityError(
                f"histogram {self.name!r} is bounded; raw observations "
                f"are not retained"
            )
        return tuple(self._values)

    # ------------------------------------------------------------------
    # Quantiles
    # ------------------------------------------------------------------
    def quantile(self, q: float) -> float:
        """The ``q``-quantile (``0 <= q <= 1``).

        Exact mode interpolates linearly over the sorted sample: with
        ``n`` observations the rank is ``q * (n - 1)``, and a fractional
        rank interpolates between its neighbours.  Bounded mode returns
        the midpoint of the bucket the (rounded) rank falls in, clamped
        to the observed min/max — relative error at most
        ``(growth - 1) / 2``.  Raises :class:`ObservabilityError` on an
        empty histogram or a ``q`` outside ``[0, 1]``.
        """
        if not 0.0 <= q <= 1.0:
            raise ObservabilityError(
                f"quantile must be in [0, 1], got {q}"
            )
        if not self._count:
            raise ObservabilityError(
                f"histogram {self.name!r} is empty; no quantiles exist"
            )
        if self.mode == MODE_EXACT:
            if not self._sorted:
                self._values.sort()
                self._sorted = True
            rank = q * (len(self._values) - 1)
            lower = int(rank)
            upper = min(lower + 1, len(self._values) - 1)
            fraction = rank - lower
            return (
                self._values[lower] * (1.0 - fraction)
                + self._values[upper] * fraction
            )
        # Bounded: walk buckets in ascending representative order until
        # the cumulative count covers the rank.
        rank = q * (self._count - 1)
        ordered = sorted(self._buckets, key=self._bucket_midpoint)
        cumulative = 0
        for key in ordered:
            cumulative += self._buckets[key]
            if cumulative > rank:
                midpoint = self._bucket_midpoint(key)
                return min(max(midpoint, self._min), self._max)
        # Unreachable: cumulative == count > rank on the last bucket.
        return self._max  # pragma: no cover - defensive

    def summary(self) -> Dict[str, Any]:
        """Count, total, mean, min/max and the standard quantiles.

        Bounded histograms additionally report their mode (so summary
        readers know the quantiles are approximate); exact summaries
        keep the historical keys byte-for-byte.
        """
        if not self._count:
            return {"count": 0, "total": 0.0, "mean": 0.0}
        summary: Dict[str, Any] = {
            "count": self.count,
            "total": self.total,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.quantile(0.50),
            "p90": self.quantile(0.90),
            "p99": self.quantile(0.99),
        }
        if self.mode != MODE_EXACT:
            summary["mode"] = self.mode
        return summary


class MetricsRegistry:
    """Lazily created named counters, gauges, and histograms.

    ``default_histogram_mode`` sets the storage mode of histograms
    created through the one-shot :meth:`observe` path (and
    :meth:`histogram` calls that do not name a mode) — a long-campaign
    driver can flip a whole tracer to bounded memory with one
    constructor argument while tests keep the exact default.
    """

    def __init__(self, default_histogram_mode: str = MODE_EXACT) -> None:
        if default_histogram_mode not in _MODES:
            raise ObservabilityError(
                f"unknown default histogram mode "
                f"{default_histogram_mode!r}; expected one of {_MODES}"
            )
        self._default_mode = default_histogram_mode
        self._counters: Dict[str, Counter] = {}
        self._gauges: Dict[str, Gauge] = {}
        self._histograms: Dict[str, Histogram] = {}

    # -- instrument access (create on first use) -----------------------
    def counter(self, name: str) -> Counter:
        instrument = self._counters.get(name)
        if instrument is None:
            instrument = self._counters[name] = Counter(name)
        return instrument

    def gauge(self, name: str) -> Gauge:
        instrument = self._gauges.get(name)
        if instrument is None:
            instrument = self._gauges[name] = Gauge(name)
        return instrument

    def histogram(
        self,
        name: str,
        mode: Optional[str] = None,
        growth: float = DEFAULT_GROWTH,
    ) -> Histogram:
        """The histogram called ``name``, created on first use.

        ``mode`` opts this one instrument into a storage mode at
        creation (default: the registry's default mode).  Asking for a
        mode that contradicts the existing instrument's raises — the
        two modes answer quantile queries differently, so a silent
        mismatch would corrupt whichever caller loses the race.
        """
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(
                name,
                mode=mode if mode is not None else self._default_mode,
                growth=growth,
            )
        elif mode is not None and mode != instrument.mode:
            raise ObservabilityError(
                f"histogram {name!r} already exists in "
                f"{instrument.mode!r} mode; cannot reopen as {mode!r}"
            )
        return instrument

    # -- one-shot recording shortcuts ----------------------------------
    def increment(self, name: str, amount: float = 1.0) -> None:
        self.counter(name).increment(amount)

    def set_gauge(self, name: str, value: float) -> None:
        self.gauge(name).set(value)

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).observe(value)

    # -- inspection ----------------------------------------------------
    @property
    def counters(self) -> Dict[str, float]:
        """``name -> value`` of every counter, sorted by name."""
        return {
            name: self._counters[name].value
            for name in sorted(self._counters)
        }

    @property
    def gauges(self) -> Dict[str, float]:
        """``name -> value`` of every gauge, sorted by name."""
        return {
            name: self._gauges[name].value for name in sorted(self._gauges)
        }

    @property
    def histograms(self) -> Dict[str, Histogram]:
        """``name -> histogram``, sorted by name."""
        return {
            name: self._histograms[name]
            for name in sorted(self._histograms)
        }

    def to_dict(self) -> Dict[str, Any]:
        """JSON-friendly dump of every instrument."""
        return {
            "counters": self.counters,
            "gauges": self.gauges,
            "histograms": {
                name: histogram.summary()
                for name, histogram in self.histograms.items()
            },
        }
