"""Bounded-disk operation: probing, quotas, watermarks, compaction.

The governor already budgets time, nodes and RSS; this module is the
fourth leg — disk.  Campaign checkpoints append one record per
checkpoint interval forever, the service journal grows across every
restart, and traces accumulate until the filesystem fills, at which
point the ENOSPC handling can only surrender.  Bounded-disk operation
turns that cliff into a ladder:

* :func:`read_free_bytes` probes free space via ``os.statvfs`` (the
  ``disk.statvfs`` failpoint makes it lie, for chaos drills),
* :func:`artifact_usage_bytes` meters the files a run owns,
* :class:`DiskGovernor` reads both through two throttled
  :class:`~repro.runtime.memory.Probe` readers, folds usage and free
  space against a quota (``--disk-budget``) and a free-space floor
  into three levels — ``ok`` / ``soft`` / ``hard`` — and keeps the
  accounting,
* :func:`compact_checkpoint` rewrites any durable log keeping only
  the records its kind's resume or replay reads (the *keep* rule of
  its :data:`~repro.runtime.checkpoint.LOG_KINDS` entry), atomically
  and byte-reproducibly (records round-trip through the same
  CRC-splicing serializer that wrote them).

The relief ladder itself lives in the consumers: the campaign
compacts its checkpoint, then stretches the checkpoint interval, and
only surrenders (:class:`~repro.runtime.errors.DiskPressureExceeded`,
routed like every other budget stop — final checkpoint, partial
result, never a crash) when the hard watermark holds after relief.
The service sheds new admissions with 507 and ages out terminal-job
artifacts under its quota.

Exactness: every relief rung is semantics-preserving.  Compaction
keeps the exact records a resume reads (docs/runtime.md "Checkpoint
format" tabulates them per kind), a stretched checkpoint interval
only changes how much work a crash can lose, and a surrender stops
early but never misclassifies — the verdicts of a disk-pressured run
are byte-identical to an unconstrained run, or the run stops cleanly
with a resumable checkpoint.
"""

import os

from repro import failpoints as _failpoints
from repro.runtime.checkpoint import (
    JsonlWriter,
    log_kind,
    read_jsonl_records,
    replace_atomic,
)
from repro.runtime.errors import CheckpointError, DiskPressureExceeded
from repro.runtime.memory import Probe

#: watermark levels, in escalating order
LEVEL_OK = "ok"
LEVEL_SOFT = "soft"
LEVEL_HARD = "hard"

#: fraction of the budget at which relief starts (and the free floor's
#: soft watermark sits at ``free_floor / SOFT_FRACTION``)
SOFT_FRACTION = 0.8
#: checks between two measurements of usage and free space
_REFRESH = 8


def read_free_bytes(path):
    """Free bytes available to unprivileged writers on *path*'s fs.

    ``f_bavail * f_frsize`` — the space a write can actually use, not
    the root-reserved total.  Returns None when the path cannot be
    statted (or the platform has no ``statvfs``), in which case
    free-space watermarks degrade to inert, like an unreadable
    ``/proc`` degrades the RSS budget.

    The ``disk.statvfs`` failpoint makes the probe lie that the disk
    is full — the chaos drills use it to prove the ladder reacts to a
    hostile kernel answer with a clean surrender, not a crash.
    """
    if _failpoints.fire("disk.statvfs"):
        return 0
    try:
        stats = os.statvfs(path)
    except (OSError, AttributeError, ValueError):
        return None
    return stats.f_bavail * stats.f_frsize


def artifact_usage_bytes(paths):
    """Total on-disk bytes of *paths* (files, or directories walked).

    Races with concurrent deletion are absorbed per entry — a file
    that vanishes mid-walk simply stops counting, which is the answer
    the quota wants anyway.
    """
    total = 0
    for path in paths:
        if path is None:
            continue
        path = str(path)
        if os.path.isdir(path):
            for root, _dirs, files in os.walk(path):
                for name in files:
                    try:
                        total += os.path.getsize(os.path.join(root, name))
                    except OSError:
                        pass
        else:
            try:
                total += os.path.getsize(path)
            except OSError:
                pass
    return total


class DiskConfig:
    """Watermark configuration for a :class:`DiskGovernor`.

    *budget* caps the combined size of the governed artifacts (the
    ``--disk-budget`` flag); *free_floor* is the minimum free space
    the filesystem must keep (hard watermark — the soft watermark sits
    at ``free_floor / SOFT_FRACTION``).  Relief starts at
    :data:`SOFT_FRACTION` of the budget (compaction and interval
    stretching begin at 80% of quota, surrender at 100%).  Either
    limit may be None (unlimited); with both None the governor is
    inert.
    """

    def __init__(self, budget=None, free_floor=None):
        if budget is not None and budget <= 0:
            raise ValueError("disk budget must be positive")
        if free_floor is not None and free_floor < 0:
            raise ValueError("free floor must be >= 0")
        self.budget = budget
        self.free_floor = free_floor

    @property
    def enabled(self):
        return self.budget is not None or self.free_floor is not None

    def to_json(self):
        return {
            "budget": self.budget,
            "free_floor": self.free_floor,
            "soft": SOFT_FRACTION,
        }


class DiskGovernor:
    """Watermark bookkeeping over a set of governed artifact paths.

    The governor measures (throttled), classifies the measurement
    into ``ok`` / ``soft`` / ``hard``, and keeps the accounting the
    trace and the campaign counters surface.  It deliberately does
    *not* run the relief ladder itself — compaction needs the
    checkpoint writer, shedding needs the HTTP edge — so consumers
    call :meth:`check`, act on the level, report what they did via
    :meth:`note_compaction` / :meth:`note_stretch`, and call
    :meth:`hard_stop` when relief failed to bring the hard watermark
    back down.

    ``usage_probe`` and ``free_probe`` re-measure every
    :data:`_REFRESH` checks, or when forced; a first failed
    ``statvfs`` disarms the free-space watermark for good.
    """

    def __init__(self, config, paths=()):
        self.config = config or DiskConfig()
        self.paths = [str(p) for p in paths]
        self.usage_probe = Probe(
            lambda: artifact_usage_bytes(self.paths), _REFRESH
        )
        self.free_probe = Probe(
            lambda: read_free_bytes(self._probe_root()), _REFRESH
        )
        self.soft_events = 0
        self.hard_events = 0
        self.compactions = 0
        self.reclaimed_bytes = 0
        self.stretches = 0
        self.last_usage = 0
        self.last_free = None

    @property
    def enabled(self):
        return self.config.enabled

    def _probe_root(self):
        """The directory whose filesystem free space is metered."""
        for path in self.paths:
            directory = path if os.path.isdir(path) \
                else os.path.dirname(os.path.abspath(path))
            return directory or "."
        return "."

    def measure(self, force=False):
        """Sample (throttled unless *force*); returns (usage, free)."""
        self.last_usage = self.usage_probe(force)
        self.last_free = self.free_probe(force)
        return self.last_usage, self.last_free

    def level_of(self, usage, free):
        """Classify a measurement against the watermarks."""
        config = self.config
        level = LEVEL_OK
        if config.budget is not None:
            if usage >= config.budget:
                return LEVEL_HARD
            if usage >= config.budget * SOFT_FRACTION:
                level = LEVEL_SOFT
        if config.free_floor is not None and free is not None:
            if free <= config.free_floor:
                return LEVEL_HARD
            if free <= config.free_floor / SOFT_FRACTION:
                level = LEVEL_SOFT
        return level

    def check(self, force=False):
        """Measure and classify; counts soft/hard crossings."""
        if not self.enabled:
            return LEVEL_OK
        usage, free = self.measure(force=force)
        level = self.level_of(usage, free)
        if level == LEVEL_SOFT:
            self.soft_events += 1
        elif level == LEVEL_HARD:
            self.hard_events += 1
        return level

    def note_compaction(self, bytes_before, bytes_after):
        self.compactions += 1
        self.reclaimed_bytes += max(0, bytes_before - bytes_after)

    def note_stretch(self):
        self.stretches += 1

    def hard_stop(self, frame=None):
        """Raise the typed surrender for the current measurement."""
        config = self.config
        usage, free = self.last_usage, self.last_free
        if config.free_floor is not None and free is not None \
                and free <= config.free_floor:
            limit, observed = config.free_floor, free
        else:
            limit, observed = config.budget, usage
        raise DiskPressureExceeded(
            limit, observed,
            path=self.paths[0] if self.paths else None,
            frame=frame,
        )

    def accounting(self):
        """Counter snapshot for checkpoints, traces and results."""
        return {
            "disk_usage": self.last_usage,
            "disk_peak_usage": self.usage_probe.peak,
            "disk_free": self.last_free,
            "disk_low_free": self.free_probe.low,
            "disk_soft_events": self.soft_events,
            "disk_hard_events": self.hard_events,
            "disk_compactions": self.compactions,
            "disk_reclaimed_bytes": self.reclaimed_bytes,
            "disk_stretches": self.stretches,
        }


# ---------------------------------------------------------------------------
# compaction


def rewrite_jsonl_atomic(path, records, site_prefix="checkpoint"):
    """Atomically replace *path* with *records*, re-CRC'd per line.

    Every record goes through the same
    :class:`~repro.runtime.checkpoint.JsonlWriter` discipline that
    wrote it (version splice, canonical ``sort_keys`` dump, CRC32
    splice — so surviving records are byte-identical to their
    originals) into :func:`~repro.runtime.checkpoint.replace_atomic`'s
    temp file.  On any failure — including the ``disk.compact.crash``
    failpoint, a crash between the finished temp file and the rename —
    the original is untouched, so a failed compaction costs nothing
    but the retry.
    """
    def fill(handle, tmp_path):
        # the writer reopens the temp file by name: it appends through
        # its own text handle, with its own fsync and failpoints
        writer = JsonlWriter(tmp_path, site_prefix=site_prefix)
        try:
            for record in records:
                # _write splices the version in: keep the caller's copy
                writer._write(dict(record))
        finally:
            writer.close()
        if _failpoints.fire("disk.compact.crash"):
            raise CheckpointError(
                path, "failpoint disk.compact.crash fired before rename"
            )

    replace_atomic(path, fill)


def _size(path, default):
    try:
        return os.path.getsize(path)
    except OSError:  # pragma: no cover - raced deletion
        return default


def compact_checkpoint(path):
    """Compact any durable log in place: the one compaction.

    Keeps what the *keep* rule of the file's
    :data:`~repro.runtime.checkpoint.LOG_KINDS` entry keeps — exactly
    the records its resume or replay reads — rewrites atomically under
    the kind's failpoint prefix, and returns the accounting::

        {"kind", "records_before", "records_after",
         "bytes_before", "bytes_after"}

    Kinds without a rule (audit checkpoints) are refused.  So is
    corruption (``CheckpointError``) — a damaged file is ``repro fsck
    --repair``'s job, and compacting around quarantined records could
    silently launder them away.  A torn tail is fine (readers skip it;
    compaction drops it, which a reopening writer would have done
    anyway).
    """
    path = str(path)
    records = list(read_jsonl_records(path))
    if not records:
        raise CheckpointError(path, "no records")
    kind = log_kind(records[0])
    if kind is None or kind.keep is None:
        raise CheckpointError(
            path, "cannot compact artifact with first record type "
                  f"{records[0].get('type')!r}"
        )
    survivors = kind.keep(records)
    bytes_before = _size(path, 0)
    rewrite_jsonl_atomic(path, survivors, site_prefix=kind.site_prefix)
    return {
        "kind": kind.name,
        "records_before": len(records),
        "records_after": len(survivors),
        "bytes_before": bytes_before,
        "bytes_after": _size(path, bytes_before),
    }
