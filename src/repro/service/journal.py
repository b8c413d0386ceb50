"""The crash-safe job journal of the campaign service.

One append-only JSON-lines file (``journal.jsonl`` in the service's
state directory) is the authoritative record of every job the service
has ever accepted.  It reuses the campaign checkpoint primitives —
:class:`~repro.runtime.checkpoint.JsonlWriter` for fsync'd appends,
:func:`~repro.runtime.checkpoint.read_jsonl_records` for torn-tail
tolerant reads — so a ``kill -9`` of the daemon loses at most the
record being written, and a restart replays the journal to recover.

Record types:

* ``service`` — one per daemon start/stop (pid, state dir, event),
  informational only,
* ``job`` — one per job state transition.  The ``submitted`` record
  embeds the full job spec (the journal is the source of truth; no
  separate spec file exists), later records carry only the transition
  and its context (attempt count, stop reason, error, result file,
  result digest),
* ``job-deleted`` — the operator deleted a terminal job
  (``DELETE /jobs/<id>``); replay drops the job, and the next
  snapshot compacts every trace of it away,
* ``snapshot`` — a compaction point: the folded per-job views as of
  that record, plus the service-event count and the job-id high-water
  mark.  Replay *replaces* its accumulated state with the snapshot,
  so file size and replay cost are bounded by the live job population
  rather than lifetime history (:func:`compact_journal`,
  :meth:`JobJournal.snapshot`).

The journal is the ``journal`` entry of
:data:`~repro.runtime.checkpoint.LOG_KINDS`; this module owns that
entry's two rules — what a compaction keeps
(:func:`snapshot_survivors`: one snapshot of the replay fold) and
what fsck checks (:func:`check_transitions`: every transition legal
under the state machine below).

The job state machine::

    submitted ──► running ──► done
        ▲            │   ├──► failed
        │            │   └──► cancelled
        │            ▼
        └─────── interrupted        (graceful drain checkpointed it)

``done`` / ``failed`` / ``cancelled`` are terminal.  A restart requeues
every job whose last journaled state is non-terminal: ``submitted``
(never picked up), ``interrupted`` (drained mid-run with a checkpoint)
and ``running`` (the daemon died mid-run — the job's campaign
checkpoint, if any survived, short-cuts the re-run).
"""

from repro.runtime.checkpoint import (
    LOG_KINDS,
    JsonlWriter,
    read_jsonl_records,
)

SUBMITTED = "submitted"
RUNNING = "running"
INTERRUPTED = "interrupted"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"

#: states a restarted service must requeue
RECOVERABLE = (SUBMITTED, RUNNING, INTERRUPTED)
#: states that end a job's lifecycle
TERMINAL = (DONE, FAILED, CANCELLED)
#: every legal state, in lifecycle order (for docs and validation)
STATES = (SUBMITTED, RUNNING, INTERRUPTED, DONE, FAILED, CANCELLED)

_TRANSITIONS = {
    None: {SUBMITTED},
    # SUBMITTED -> SUBMITTED is the restart requeue of a job the dead
    # daemon never picked up; RUNNING -> SUBMITTED the requeue of one
    # it died midway through
    SUBMITTED: {RUNNING, CANCELLED, SUBMITTED},
    RUNNING: {DONE, FAILED, CANCELLED, INTERRUPTED, SUBMITTED},
    INTERRUPTED: {SUBMITTED, RUNNING, CANCELLED},
    DONE: set(),
    FAILED: set(),
    CANCELLED: set(),
}


class JournalStateError(ValueError):
    """An illegal job state transition (a service bug, never user input)."""

    def __init__(self, job_id, old, new):
        super().__init__(
            f"job {job_id}: illegal transition {old!r} -> {new!r}"
        )
        self.job_id = job_id
        self.old = old
        self.new = new


class JobJournal:
    """Appends service/job records; every record is fsync'd durable.

    With *snapshot_every* set, :meth:`maybe_snapshot` compacts the
    file once that many records have been appended since the journal
    was opened (or last snapshotted), bounding file size and replay
    cost by the live job population instead of lifetime history.
    """

    def __init__(self, path, snapshot_every=None):
        if snapshot_every is not None and snapshot_every < 1:
            raise ValueError("snapshot_every must be >= 1")
        self.path = str(path)
        self.snapshot_every = snapshot_every
        self.snapshots_taken = 0
        self._writer = self._open_writer()
        #: job id -> last journaled state, to reject illegal transitions
        self._states = {}

    def _open_writer(self):
        return JsonlWriter(
            self.path, site_prefix=LOG_KINDS["journal"].site_prefix
        )

    def service_event(self, event, **fields):
        record = {"type": "service", "event": event}
        record.update(fields)
        self._writer._write(record)

    def job_event(self, job_id, state, **fields):
        old = self._states.get(job_id)
        if state not in _TRANSITIONS.get(old, ()):
            raise JournalStateError(job_id, old, state)
        record = {"type": "job", "id": job_id, "state": state}
        record.update(fields)
        self._writer._write(record)
        self._states[job_id] = state

    def job_deleted(self, job_id):
        """Journal an operator deletion; replay drops the job."""
        self._writer._write({"type": "job-deleted", "id": job_id})
        self._states.pop(job_id, None)

    def note_replayed_state(self, job_id, state):
        """Seed the transition checker from a replayed journal."""
        self._states[job_id] = state

    def snapshot(self):
        """Compact the journal file down to one ``snapshot`` record.

        Closes the writer, rewrites the file atomically
        (:func:`compact_journal`), reopens for append and re-seeds the
        transition checker from the snapshot.  Raises
        :class:`~repro.runtime.errors.CheckpointError` when the file
        cannot be compacted (corruption is quarantined into the
        snapshot's accounting, never laundered silently) — the
        original file is untouched in that case.  Returns the
        compaction stats dict.
        """
        self._writer.close()
        try:
            stats = compact_journal(self.path)
        finally:
            self._writer = self._open_writer()
        self._states = {
            job_id: view.get("state")
            for job_id, view in stats["state"].jobs.items()
        }
        self.snapshots_taken += 1
        return stats

    def maybe_snapshot(self):
        """Snapshot when the record threshold is reached; stats or None.

        The trigger counts records appended by *this* writer since
        open/last snapshot, so one snapshot resets the clock.
        """
        if self.snapshot_every is None:
            return None
        if self._writer.records_written < self.snapshot_every:
            return None
        return self.snapshot()

    def close(self):
        self._writer.close()


class JournalState:
    """The folded outcome of one journal replay."""

    def __init__(self):
        self.jobs = {}  # ordered {job_id: view}
        self.events = 0  # service records seen
        self.next_id = None  # job-id high-water mark
        self.records = 0  # intact records read

    def note_job_id(self, job_id):
        """Bump the id high-water mark past *job_id* (if numeric).

        Tracked for every ``job`` record — not just surviving views —
        so deleting the last job never lets a restart reuse its id.
        """
        try:
            numeric = int(str(job_id).rsplit("-", 1)[-1]) + 1
        except ValueError:
            return
        if self.next_id is None or numeric > self.next_id:
            self.next_id = numeric


def fold_journal(records):
    """Fold journal records into a :class:`JournalState`.

    ``snapshot`` records *replace* the accumulated state (they are the
    compaction of everything before them); ``job`` records fold into
    per-job views; ``job-deleted`` records drop the job.
    """
    state = JournalState()
    for record in records:
        state.records += 1
        kind = record.get("type")
        if kind == "snapshot":
            state.jobs = {
                job_id: dict(view)
                for job_id, view in (record.get("jobs") or {}).items()
            }
            state.events = record.get("events", 0)
            if record.get("next_id") is not None:
                state.next_id = record["next_id"]
            continue
        if kind == "service":
            state.events += 1
            continue
        if kind == "job-deleted":
            state.jobs.pop(record.get("id"), None)
            continue
        if kind != "job":
            continue
        state.note_job_id(record["id"])
        view = state.jobs.setdefault(record["id"], {})
        for key, value in record.items():
            if key in ("type", "version"):
                continue
            view[key] = value
    return state


def replay_journal_state(path, on_corrupt=None):
    """Fold the journal file into a :class:`JournalState`.

    See :func:`fold_journal`.  A torn final line (the daemon died
    mid-append) is skipped by the underlying reader; everything
    before it is recovered.

    With *on_corrupt* (see :func:`~repro.runtime.checkpoint.
    read_jsonl_records`) a record failing its CRC is quarantined
    instead of failing the replay.  A job whose *submitted* record was
    the casualty surfaces as a view without a ``spec`` — the service's
    recovery cancels such a job with a typed error rather than
    requeueing work it can no longer describe.
    """
    return fold_journal(read_jsonl_records(path, on_corrupt=on_corrupt))


def replay_journal(path, on_corrupt=None):
    """Fold the journal into per-job views, preserving submit order.

    Returns ``(jobs, events)``; see :func:`replay_journal_state` for
    the full semantics (snapshot and deletion records included).
    """
    state = replay_journal_state(path, on_corrupt=on_corrupt)
    return state.jobs, state.events


def snapshot_survivors(records):
    """The journal's compaction rule: one ``snapshot`` record.

    The snapshot embeds the folded per-job views (terminal jobs keep
    their result metadata — digest, counts, result file name — so
    history survives even after artifact GC removed the bytes), the
    service-event count, and the job-id high-water mark so a restart
    never reuses an id after every job was deleted.
    """
    state = fold_journal(records)
    record = {"type": "snapshot", "jobs": state.jobs, "events": state.events}
    if state.next_id is not None:
        record["next_id"] = state.next_id
    return [record]


def check_transitions(rows, _header, report):
    """The journal's fsck rule: every job transition is legal.

    Folds the ``(line, record)`` rows through the same transition
    table the live service enforces, so fsck agrees with it.
    """
    last_state = {}
    for line, record in rows:
        kind = record["type"]
        if kind == "snapshot":
            # a compaction point: replay replaces its state with the
            # snapshot, so the transition checker resets to its views
            jobs = record.get("jobs")
            if not isinstance(jobs, dict):
                report.problem(line, "snapshot record without jobs map")
                continue
            last_state = {}
            for job_id, view in jobs.items():
                state = (view or {}).get("state")
                if state not in STATES:
                    report.problem(
                        line,
                        f"snapshot job {job_id}: unknown state {state!r}",
                    )
                    continue
                last_state[job_id] = state
            continue
        if kind == "service":
            continue
        job_id = record.get("id")
        if not isinstance(job_id, str) or not job_id:
            report.problem(line, f"{kind} record without an id")
            continue
        if kind == "job-deleted":
            last_state.pop(job_id, None)
            continue
        state = record.get("state")
        if state not in STATES:
            report.problem(line, f"job {job_id}: unknown state {state!r}")
            continue
        old = last_state.get(job_id)
        if state not in _TRANSITIONS.get(old, ()):
            report.problem(
                line,
                f"job {job_id}: illegal transition {old!r} -> {state!r}",
            )
        last_state[job_id] = state
        if state == SUBMITTED and old is None \
                and not isinstance(record.get("spec"), dict):
            report.problem(
                line, f"job {job_id}: submitted record carries no spec"
            )


def compact_journal(path):
    """Rewrite the journal as a single ``snapshot`` record, atomically.

    :func:`~repro.runtime.disk.compact_checkpoint` under the
    :func:`snapshot_survivors` rule.  Corruption fails the compaction
    (typed ``CheckpointError`` from the reader) with the original file
    untouched.  Returns the compaction's accounting plus ``"state"``,
    the compacted journal's :class:`JournalState`.
    """
    # local import: repro.runtime.disk is the compaction layer and must
    # stay importable without the service package
    from repro.runtime.disk import compact_checkpoint

    stats = compact_checkpoint(path)
    stats["state"] = replay_journal_state(path)
    return stats
