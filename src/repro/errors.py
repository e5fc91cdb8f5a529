"""Exception hierarchy for the ``repro`` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one base class at an API boundary.  The subclasses mirror
the package layers: model validation, matching substrate, mechanism
execution, simulation, and the experiment harness.
"""

from __future__ import annotations

from typing import Optional


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` package."""


class ValidationError(ReproError, ValueError):
    """An input value violates a documented constraint.

    Raised by the domain-model constructors (bids, tasks, profiles,
    configurations) and by public functions that validate arguments before
    doing any work.  Inherits :class:`ValueError` so existing callers that
    catch ``ValueError`` keep working.
    """


class EventDecodeError(ValidationError):
    """A serialised event payload could not be decoded.

    Raised by :func:`repro.auction.events.event_from_dict` on a payload
    that is not a mapping, carries a missing or unknown ``"event"`` tag,
    or has missing/extra/mistyped fields.  The offending payload is
    attached on :attr:`payload` so journal recovery and trace tooling
    can report exactly what was read.  Inherits :class:`ValueError`
    (via :class:`ValidationError`) so existing callers that catch
    ``ValueError`` keep working.
    """

    def __init__(self, message: str, payload: object = None) -> None:
        super().__init__(message)
        #: The payload that failed to decode, verbatim.
        self.payload = payload


class BidConstraintError(ValidationError):
    """A bid violates the structural misreport constraints of the paper.

    The paper restricts strategic behaviour to *no early-arrival* and *no
    late-departure* misreports: a smartphone may claim an arrival no earlier
    than its real arrival and a departure no later than its real departure
    (Section III-B).  This error is raised when a claimed bid steps outside
    the feasible misreport region of a private profile.
    """


class MatchingError(ReproError):
    """The matching substrate was given an invalid instance.

    Examples: a non-rectangular weight matrix, NaN weights, or a matching
    that is checked against a graph it does not belong to.
    """


class MechanismError(ReproError):
    """A mechanism was invoked with inconsistent inputs.

    Examples: duplicate phone identifiers in one round, a task schedule
    that does not fit inside the round's slot horizon, or payments queried
    for a phone the mechanism never saw.
    """


class SanitizationError(MechanismError):
    """A mechanism produced an outcome violating a paper invariant.

    Raised by :class:`repro.analysis.sanitizer.SanitizedMechanism` when a
    wrapped run yields an outcome that fails structural feasibility
    (constraints (4)-(6)), individual rationality (Definition 5, Theorems
    2 and 5), or welfare-accounting consistency (Definition 3).  Carries
    the structured violation reports on :attr:`violations`.
    """

    def __init__(self, message: str, violations=()):
        super().__init__(message)
        #: Tuple of :class:`repro.analysis.sanitizer.Violation`.
        self.violations = tuple(violations)


class ObservabilityError(ReproError):
    """The telemetry layer was misused.

    Examples: a quantile outside ``[0, 1]``, a counter decremented, a
    span finished twice, or a trace sink written to after close.
    """


class SimulationError(ReproError):
    """The simulation layer hit an inconsistent state.

    Examples: a trace replay that references unknown entities or a scenario
    whose task schedule disagrees with its round configuration.
    """


class FaultError(SimulationError):
    """The fault-injection layer was configured or used inconsistently.

    Examples: a fault probability outside ``[0, 1]``, a dropout slot
    outside the phone's active window, or a fault plan applied to a
    scenario it was not built for.
    """


class JournalError(ReproError):
    """A write-ahead journal is corrupt, inconsistent, or misused.

    Examples: a mid-log record whose checksum or hash chain does not
    verify (:attr:`sequence` names the offending record), a journal of
    another format version, an append to a journal that already
    observed a simulated crash, or a journal whose header records a
    different round configuration than the one being resumed.  A *torn
    tail* — an invalid final record, the signature of a crash
    mid-write — is not an error: recovery cuts it, keeping its bytes in
    ``<segment>.corrupt``.
    """

    def __init__(self, message: str, sequence: "Optional[int]" = None) -> None:
        super().__init__(message)
        #: Sequence number of the offending record, when known.
        self.sequence = sequence


class ReplayDivergenceError(JournalError):
    """Replaying a journal did not reproduce the journaled history.

    Raised when the events the platform emits while re-executing a
    journaled command do not match the count and digest the journal
    recorded for them (:attr:`sequence` names that command), or when a
    resumed round's regenerated command stream does not prefix-match
    the journaled one.  Either means the journal and the code that
    wrote it disagree — replay refuses to silently diverge.
    """


class ExperimentError(ReproError):
    """The experiment harness was configured inconsistently.

    Examples: an empty sweep, an unknown mechanism name, or zero
    repetitions.
    """


class CheckpointError(ExperimentError):
    """A sweep checkpoint could not be written, read, or trusted.

    Examples: a sweep-log record with a foreign schema, a checksum
    mismatch or a torn tail (corruption), or a malformed sweep point.
    """


class ShardingError(ExperimentError):
    """The sharded campaign runner was misconfigured or lost a shard.

    Examples: duplicate city names, a submission order that is not a
    permutation of the planned shards, or a worker outcome missing a
    round the plan assigned to it.
    """
