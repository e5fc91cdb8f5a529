"""Crash-consistent durability: write-ahead journal, replay, resume.

The ROADMAP's "auction-as-a-service" item needs a platform that can
lose power between a bid arriving and a payment settling.  This package
supplies the three layers:

* :mod:`repro.durability.journal` — the append-only, hash-chained JSONL
  write-ahead journal of commands (on the shared
  :mod:`repro.utils.recordlog` line format) with segment rotation and
  a recovery scan that cuts torn tails but refuses mid-log corruption
  with a typed :class:`~repro.errors.JournalError`;
* :mod:`repro.durability.journaled` — :class:`JournaledPlatform`, the
  wrapper whose one mutator, ``apply(command)``, journals the command
  it is handed *before* the
  :class:`~repro.auction.CrowdsourcingPlatform` applies it, and the
  digest of the :class:`~repro.auction.events.AuctionEvent` objects it
  emitted in the next record;
* :mod:`repro.durability.replay` — deterministic replay of a journal to
  a byte-identical :class:`~repro.model.AuctionOutcome`, checking every
  command's events against their digest, plus
  :func:`resume_round`, which finishes a crashed round from its journal
  and a regenerated command stream.

The command stream itself — the platform's feeding order — lives beside
the platform in :mod:`repro.auction.round_driver`; ``round_commands``
and ``execute_commands`` are re-exported here.  Live, journaled,
replayed or resumed, every command reaches the platform through its
``apply``, which also refuses a command stamped with another slot.

Crash faults that exercise all of this live in
:mod:`repro.faults.crash`; the replay-fidelity guarantee is enforced at
runtime by :func:`repro.analysis.sanitizer.check_replay_fidelity`.
"""

from repro.auction.round_driver import execute_commands, round_commands
from repro.durability.journal import (
    GENESIS_HASH,
    JOURNAL_VERSION,
    KIND_CLOSE,
    KIND_COMMAND,
    EventDigest,
    Journal,
    JournalRecord,
    decode_line,
    scan_journal,
    segment_paths,
)
from repro.durability.journaled import JournaledPlatform
from repro.durability.replay import (
    replay_journal,
    replay_records,
    resume_round,
)

__all__ = [
    "Journal",
    "JournalRecord",
    "scan_journal",
    "segment_paths",
    "decode_line",
    "EventDigest",
    "GENESIS_HASH",
    "JOURNAL_VERSION",
    "KIND_CLOSE",
    "KIND_COMMAND",
    "JournaledPlatform",
    "execute_commands",
    "replay_journal",
    "replay_records",
    "resume_round",
    "round_commands",
]
