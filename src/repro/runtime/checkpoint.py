"""Durable JSON-lines logs: the append primitive and the four kinds.

Every durable artifact the runtime writes is an append-only JSONL log
behind :class:`JsonlWriter` (fsync'd, CRC'd, torn-tail tolerant), and
every kind of log is declared once, in :data:`LOG_KINDS`: the campaign
checkpoint, the fabric shard checkpoint, the audit checkpoint and the
service job journal.  Each entry names the kind's header record type,
its other record types, its failpoint site prefix, the records a
compaction keeps and its structural fsck checks, so kind sniffing,
compaction (:func:`repro.runtime.disk.compact_checkpoint`) and ``repro
fsck`` / ``--repair`` (:mod:`repro.runtime.fsck`) are one
implementation each over the table.  docs/runtime.md "Checkpoint
format" renders it.

The campaign checkpoint itself is a ``header`` record (circuit spec,
sequence, fault keys, ladder, node limit and a
:func:`circuit_fingerprint` of circuit + fault universe, checked on
resume by :meth:`HeaderView.verify_universe`), then periodic
``checkpoint`` snapshots (frame, three-valued good state, per-fault
status / rung / state diff, RNG state, counters) and informational
``progress`` records.  Symbolic sessions are deliberately not
serialized: resuming re-opens them from the three-valued projection,
exactly like the paper's space-limit fallback, so a resumed campaign
is conservative and flagged ``exact=False``.

:class:`SignalGuard` turns ``SIGINT``/``SIGTERM`` into a cooperative
stop request the campaign polls at frame boundaries, writing a final
checkpoint before exiting cleanly.
"""

import collections
import errno
import hashlib
import json
import os
import signal
import tempfile
import warnings
import zlib

from repro import failpoints as _failpoints
from repro.faults.status import (
    fault_key_from_json,
    fault_key_to_json,
)
from repro.logic import threeval
from repro.runtime.errors import CheckpointError, CheckpointMismatch

CHECKPOINT_VERSION = 1


def record_crc(body):
    """CRC32 of a serialized record body (the canonical JSON line).

    The canonical form is ``json.dumps(record, sort_keys=True)`` with
    the ``"crc"`` key absent — exactly what :class:`JsonlWriter`
    serializes before splicing the checksum in, and what readers
    reproduce by popping ``"crc"`` and re-dumping.  JSON round-trips
    this form stably (sorted keys, shortest-repr floats, ASCII
    escapes), so writer and reader always agree on the covered bytes.
    """
    return zlib.crc32(body.encode("utf-8")) & 0xFFFFFFFF

#: ``fsync`` errno values that mean "this filesystem cannot fsync this
#: descriptor" (overlayfs directories, some tmpfs/FUSE mounts) rather
#: than "your data is lost".  Durability degrades to the filesystem's
#: own guarantees; crashing the checkpoint path would lose *more*.
_FSYNC_UNSUPPORTED_ERRNOS = (errno.EINVAL, errno.EBADF, errno.ENOTSUP)


def fsync_best_effort(fd, path):
    """``os.fsync`` that degrades to a warning where fsync is refused.

    Returns True when the sync happened (or genuinely failed in a way
    worth propagating — those OSErrors are re-raised), False when the
    filesystem refused the fsync itself (``EINVAL``/``EBADF``/
    ``ENOTSUP``), in which case one :class:`RuntimeWarning` is emitted
    and the caller should stop trying to fsync this file.
    """
    try:
        os.fsync(fd)
        return True
    except OSError as exc:
        if exc.errno not in _FSYNC_UNSUPPORTED_ERRNOS:
            raise
        warnings.warn(
            f"fsync not supported for {path!r} ({exc}); durability "
            "degrades to the filesystem's own write-back guarantees",
            RuntimeWarning,
            stacklevel=2,
        )
        return False


def circuit_fingerprint(compiled, fault_keys):
    """Stable identity hash of a circuit plus its fault universe.

    Covers the circuit *structure* — inputs, outputs, flip-flops and
    gates in sorted order — and the serialized fault keys, never object
    identities or the circuit's name, so the same netlist loaded twice
    (or from a renamed file) fingerprints identically while any edit to
    connectivity, gate kinds or the fault list changes the hash.
    Campaign and fabric checkpoint headers embed it at write time;
    resume recomputes it and refuses on mismatch
    (:class:`~repro.runtime.errors.CheckpointMismatch`).
    """
    circuit = getattr(compiled, "circuit", compiled)
    parts = [
        "inputs:" + ",".join(circuit.inputs),
        "outputs:" + ",".join(circuit.outputs),
        "dffs:" + ",".join(
            f"{q}<-{d}" for q, d in sorted(circuit.dffs.items())
        ),
        "gates:" + ";".join(
            f"{net}={gate.kind}({','.join(gate.fanins)})"
            for net, gate in sorted(circuit.gates.items())
        ),
        "faults:" + ";".join(
            json.dumps(fault_key_to_json(key), sort_keys=True)
            for key in fault_keys
        ),
    ]
    digest = hashlib.sha256("\n".join(parts).encode("utf-8"))
    return digest.hexdigest()[:16]


def verify_fingerprint(path, recorded, compiled, fault_keys):
    """Refuse a resume whose checkpoint fingerprint does not match.

    *recorded* is the header's fingerprint (None for legacy headers,
    which are accepted — they predate fingerprinting).
    """
    if recorded is None:
        return
    expected = circuit_fingerprint(compiled, fault_keys)
    if recorded != expected:
        raise CheckpointMismatch(path, expected, recorded)


def fsync_directory(path):
    """fsync the directory holding *path*, making a rename or a newly
    created file there durable.

    Overlay/tmpfs mounts may refuse directory fsync outright
    (``EINVAL``); the directory entry already exists, so that degrades
    to a warning (:func:`fsync_best_effort`) rather than failing a
    write that succeeded.
    """
    directory = os.path.dirname(os.path.abspath(path))
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - exotic platforms
        return
    try:
        fsync_best_effort(dir_fd, directory)
    finally:
        os.close(dir_fd)


def write_synced(handle, name, data):
    """Write *data* bytes through the open binary *handle*, then fsync
    it (*name* is the file's path, for the warning)."""
    handle.write(data)
    handle.flush()
    fsync_best_effort(handle.fileno(), name)


def replace_atomic(path, fill):
    """Replace *path* atomically with what ``fill(handle, tmp_path)``
    writes.

    The one whole-file rewrite behind :func:`write_json_atomic`,
    compaction and ``repro fsck --repair``.  *fill* writes and syncs
    the new contents into a temporary file in the *same* directory,
    created exclusively and handed over open as the binary *handle*
    (writing through it, rather than reopening *tmp_path* by name,
    leaves no window for the name to be swapped).  That file is then
    ``os.replace``'d over the target (atomic on POSIX) and the
    directory fsync'd so the rename itself is durable.  Readers see
    either the complete old file or the complete new one, never a
    prefix.  On any failure the temp file is removed and the target is
    untouched.
    """
    path = str(path)
    fd, tmp_path = tempfile.mkstemp(
        dir=os.path.dirname(os.path.abspath(path)),
        prefix=os.path.basename(path) + ".", suffix=".tmp",
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            fill(handle, tmp_path)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    fsync_directory(path)


def write_json_atomic(path, payload):
    """Write *payload* as indented JSON with no torn-tail window.

    Appending JSONL records survives a crash losing at most the final
    line, but whole-file results (campaign summaries, metrics dumps,
    audit reports) would be left half-written by a crash mid-``write``
    — so they go through :func:`replace_atomic`.
    """
    data = (json.dumps(payload, indent=2, sort_keys=True) + "\n").encode()
    replace_atomic(
        path, lambda handle, tmp_path: write_synced(handle, tmp_path, data)
    )


def state_to_text(state_3v):
    """Render a three-valued state vector as a '01X' string."""
    return "".join(threeval.to_char(v) for v in state_3v)


def state_from_text(text):
    return [threeval.from_char(c) for c in text]


def _diff_to_json(diff_3v):
    """A {dff_index: three-valued value} diff as a JSON object."""
    if diff_3v is None:
        return None
    return {str(dff): threeval.to_char(v) for dff, v in diff_3v.items()}


def _diff_from_json(data):
    if data is None:
        return None
    return {int(dff): threeval.from_char(v) for dff, v in data.items()}


def rng_state_to_json(state):
    """``random.Random.getstate()`` tuples as JSON-friendly lists."""
    version, internal, gauss = state
    return [version, list(internal), gauss]


def rng_state_from_json(data):
    version, internal, gauss = data
    return (version, tuple(internal), gauss)


def torn_tail_start(path):
    """Offset of a final line left without its newline, else None.

    A crash mid-append (SIGKILL, power loss) leaves exactly this
    signature: a partial last record.  Readers skip it, fsck reports
    it as expected crash damage, ``--repair`` quarantines it, and a
    writer re-opening the file truncates it first.  None for a clean,
    empty, missing or unreadable file.
    """
    try:
        with open(path, "rb") as handle:
            position = handle.seek(0, os.SEEK_END)
            if position == 0:
                return None
            handle.seek(position - 1)
            if handle.read(1) == b"\n":
                return None
            # walk back in chunks to the last newline; everything
            # after it is the torn record
            while position > 0:
                chunk_size = min(4096, position)
                position -= chunk_size
                handle.seek(position)
                newline = handle.read(chunk_size).rfind(b"\n")
                if newline >= 0:
                    return position + newline + 1
            return 0
    except OSError:
        return None


class JsonlWriter:
    """Appends versioned, fsync'd JSON-lines records to a file.

    The shared crash-safety primitive behind campaign checkpoints,
    fabric shard checkpoints and the service job journal.  Every record
    is written as one line ending in a newline, flushed and ``fsync``'d
    before the writer moves on.  A crash (power loss, ``SIGKILL``) can
    therefore lose at most the record being written, leaving a
    truncated final line that :func:`read_jsonl_records` detects (no
    trailing newline / malformed JSON on the last line) and skips
    instead of failing the read.

    On filesystems that refuse ``fsync`` itself (``EINVAL``/``EBADF``
    on some overlay and tmpfs mounts) the writer degrades once to a
    :class:`RuntimeWarning` and keeps appending without fsync rather
    than crashing the checkpoint path.

    Every record carries a ``"crc"`` field: the CRC32 of its canonical
    serialization (:func:`record_crc`), letting readers detect bit rot
    and mid-file corruption that torn-tail logic cannot (readers
    accept crc-less records for backward compatibility).

    An ``OSError`` mid-record — ENOSPC being the canonical case —
    never corrupts the file: the writer remembers the pre-write size,
    truncates the partial record back out and raises a typed
    :class:`CheckpointError`.  The file stays valid JSONL, so a resume
    after space returns picks up from the last durable record.

    *site_prefix* names this writer's failpoint sites
    (``<prefix>.write.enospc`` / ``.write.torn`` / ``.fsync.before`` /
    ``.fsync.after`` — see :mod:`repro.failpoints`), so chaos tests
    can target each of the :data:`LOG_KINDS` independently.

    Opening truncates a torn tail (:func:`torn_tail_start`) first: an
    append would otherwise glue the next record onto the partial line,
    turning a harmless torn tail into a corrupt mid-file record.  The
    partial record was never readable, so nothing durable is lost.
    """

    def __init__(self, path, fsync=True, site_prefix="checkpoint"):
        self.path = str(path)
        self.fsync = fsync
        self.site_prefix = site_prefix
        self.records_written = 0
        torn = torn_tail_start(self.path)
        try:
            if torn is not None:
                os.truncate(self.path, torn)
            self._handle = open(self.path, "a")
        except OSError as exc:
            raise CheckpointError(path, f"cannot open for append: {exc}")

    def _tail_position(self):
        """Current end-of-file offset (None when even fstat fails)."""
        try:
            return os.fstat(self._handle.fileno()).st_size
        except OSError:  # pragma: no cover - fd already dead
            return None

    def _repair_to(self, position):
        """Truncate a partially written record back out of the file.

        Runs after an ``OSError`` mid-record (ENOSPC, EIO): whatever
        prefix of the record reached the file is removed so the file
        stays valid JSONL and the *next* successful write appends a
        clean record.  If the truncate itself fails the torn tail is
        left behind — readers tolerate exactly one.
        """
        if position is None:
            return
        try:
            self._handle.seek(position)
            self._handle.truncate()
        except (OSError, ValueError):
            pass

    def _write(self, record):
        record["version"] = CHECKPOINT_VERSION
        try:
            body = json.dumps(record, sort_keys=True)
        except (TypeError, ValueError) as exc:
            raise CheckpointError(self.path, f"cannot write record: {exc}")
        # splice the checksum into the serialized body so the CRC
        # covers exactly the canonical form readers will reconstruct
        line = f'{body[:-1]}, "crc": {record_crc(body)}}}\n'
        prefix = self.site_prefix
        start = self._tail_position()
        try:
            if _failpoints.fire(prefix + ".write.enospc"):
                # the disk fills mid-record: half the bytes land, the
                # write fails, and the repair below truncates them
                self._handle.write(line[: len(line) // 2])
                self._handle.flush()
                raise OSError(
                    errno.ENOSPC, "injected: no space left on device"
                )
            if _failpoints.fire(prefix + ".write.torn"):
                # SIGKILL mid-write: half a record stays on disk and no
                # repair runs (the process would already be gone)
                self._handle.write(line[: len(line) // 2])
                self._handle.flush()
                raise CheckpointError(
                    self.path, f"failpoint {prefix}.write.torn fired"
                )
            self._handle.write(line)
            self._handle.flush()
            if _failpoints.fire(prefix + ".fsync.before"):
                raise OSError(errno.EIO, "injected: error before fsync")
            if self.fsync and not fsync_best_effort(
                self._handle.fileno(), self.path
            ):
                self.fsync = False  # warned once; stop retrying
            if _failpoints.fire(prefix + ".fsync.after"):
                raise OSError(errno.EIO, "injected: error after fsync")
        except OSError as exc:
            # unsynced bytes may or may not have reached the platter;
            # the conservative story is "this record never happened"
            self._repair_to(start)
            raise CheckpointError(self.path, f"cannot write record: {exc}")
        self.records_written += 1

    def close(self):
        try:
            self._handle.close()
        except OSError:
            pass


def header_record(kind, circuit_spec, sequence, fault_keys, ladder,
                  node_limit, initial_state, variable_scheme,
                  fallback_frames, fingerprint=None):
    """The header record of a campaign or fabric checkpoint.

    *kind* names the :data:`LOG_KINDS` entry whose header type the
    record gets.
    """
    return {
        "type": LOG_KINDS[kind].header,
        "circuit": circuit_spec,
        "sequence": ["".join(str(b) for b in vector) for vector in sequence],
        "fault_keys": [fault_key_to_json(k) for k in fault_keys],
        "ladder": ladder.to_json(),
        "node_limit": node_limit,
        "initial_state": state_to_text(initial_state),
        "variable_scheme": variable_scheme,
        "fallback_frames": fallback_frames,
        "fingerprint": fingerprint,
    }


class CheckpointWriter(JsonlWriter):
    """Appends header/checkpoint/progress records to a JSONL file.

    Subclasses writing another of the :data:`LOG_KINDS` set
    :attr:`kind`; the failpoint site prefix comes from its entry.
    """

    kind = "campaign"

    def __init__(self, path, fsync=True):
        super().__init__(
            path, fsync=fsync, site_prefix=LOG_KINDS[self.kind].site_prefix
        )
        self.checkpoints_written = 0

    def write_header(self, *args, **fields):
        """The campaign header; arguments as for :func:`header_record`."""
        self._write(header_record("campaign", *args, **fields))

    def write_checkpoint(
        self,
        frame,
        good_state_3v,
        fault_set,
        rung_indices,
        diffs_3v,
        counters,
        rng_state=None,
        elapsed=None,
    ):
        """Snapshot everything needed to resume after *frame* frames.

        *rung_indices* and *diffs_3v* map ``id(record)`` to the rung
        index / three-valued state diff of each still-live record.
        """
        faults = []
        for record in fault_set:
            faults.append(
                {
                    "state": record.state_to_json(),
                    "rung": rung_indices.get(id(record)),
                    "diff": _diff_to_json(diffs_3v.get(id(record))),
                }
            )
        record = {
            "type": "checkpoint",
            "frame": frame,
            "good_state": state_to_text(good_state_3v),
            "faults": faults,
            "counters": counters,
            "elapsed": elapsed,
        }
        if rng_state is not None:
            record["rng_state"] = rng_state_to_json(rng_state)
        self._write(record)
        self.checkpoints_written += 1

    def write_progress(self, payload):
        record = {"type": "progress"}
        record.update(payload)
        self._write(record)


class HeaderView:
    """Accessors over a :func:`header_record` (campaign or fabric)."""

    def __init__(self, path, header):
        self.path = str(path)
        self.header = header

    @property
    def circuit_spec(self):
        return self.header["circuit"]

    @property
    def sequence(self):
        return [
            tuple(int(c) for c in line) for line in self.header["sequence"]
        ]

    @property
    def fault_keys(self):
        return [fault_key_from_json(k) for k in self.header["fault_keys"]]

    @property
    def node_limit(self):
        return self.header["node_limit"]

    @property
    def initial_state(self):
        return state_from_text(self.header["initial_state"])

    @property
    def variable_scheme(self):
        return self.header["variable_scheme"]

    @property
    def fallback_frames(self):
        return self.header["fallback_frames"]

    @property
    def config(self):
        return self.header.get("config", {})

    @property
    def fingerprint(self):
        """Circuit + fault-universe hash (None for legacy headers)."""
        return self.header.get("fingerprint")

    def ladder_json(self):
        return self.header["ladder"]

    def verify_universe(self, compiled, fault_set):
        """Refuse a resume (or ``repro audit``) against another circuit
        or fault universe: the one fault-universe check, the header's
        fingerprint (:func:`verify_fingerprint`), then its fault keys."""
        keys = [record.fault.key() for record in fault_set]
        verify_fingerprint(self.path, self.fingerprint, compiled, keys)
        if keys != self.fault_keys:
            raise CheckpointError(
                self.path,
                "fault universe does not match the checkpointed campaign "
                f"({len(keys)} vs {len(self.fault_keys)} faults)",
            )


class Checkpoint(HeaderView):
    """The parsed last checkpoint of a campaign file."""

    def __init__(self, path, header, snapshot):
        super().__init__(path, header)
        self.snapshot = snapshot

    @property
    def frame(self):
        return self.snapshot["frame"]

    @property
    def good_state(self):
        return state_from_text(self.snapshot["good_state"])

    @property
    def counters(self):
        return self.snapshot["counters"]

    @property
    def elapsed(self):
        return self.snapshot.get("elapsed") or 0.0

    def fault_states(self):
        """Per-fault [state, rung, diff] aligned with the header keys."""
        return [
            (
                entry["state"],
                entry["rung"],
                _diff_from_json(entry["diff"]),
            )
            for entry in self.snapshot["faults"]
        ]

    def rng_state(self):
        data = self.snapshot.get("rng_state")
        return None if data is None else rng_state_from_json(data)


def read_jsonl_records(path, expected_version=CHECKPOINT_VERSION,
                       on_corrupt=None):
    """Yield the parsed records of a checkpoint JSONL file.

    A record and its trailing newline are written (and fsync'd) as a
    unit, so a crash mid-write leaves exactly one signature: a *final*
    line with no trailing newline.  Such a line is skipped — the file
    resumes from the previous complete record.

    Everything else — a malformed line anywhere else (or one that
    *does* end in a newline), a version mismatch, a CRC32 mismatch on
    a record that carries one — is corruption, not a torn write.  With
    the default ``on_corrupt=None`` that raises
    :class:`CheckpointError`; passing a callable instead quarantines
    the record — ``on_corrupt({"line": n, "reason": ...})`` is called
    and the read continues, so loaders can skip damage and let the
    caller decide whether the loss is verdict-affecting.

    Records without a ``"crc"`` field (written before checksumming
    existed) are accepted unverified; the field itself is popped, so
    consumers see the same record shape either way.
    """
    if not os.path.exists(path):
        raise CheckpointError(path, "file does not exist")
    with open(path) as handle:
        lines = handle.readlines()
    last_index = len(lines) - 1

    def corrupt(index, reason):
        if on_corrupt is None:
            raise CheckpointError(path, f"line {index + 1}: {reason}")
        on_corrupt({"line": index + 1, "reason": reason})

    for index, line in enumerate(lines):
        stripped = line.strip()
        if not stripped:
            continue
        torn_tail = index == last_index and not line.endswith("\n")
        try:
            record = json.loads(stripped)
        except json.JSONDecodeError as exc:
            if torn_tail:
                return  # torn final write: resume from the prior record
            corrupt(index, str(exc))
            continue
        if not isinstance(record, dict):
            if torn_tail:
                return
            corrupt(index, "record is not a JSON object")
            continue
        crc = record.pop("crc", None)
        if crc is not None:
            body = json.dumps(record, sort_keys=True)
            if record_crc(body) != crc:
                if torn_tail:
                    return  # torn mid-record but still parseable JSON
                corrupt(
                    index,
                    f"crc mismatch (recorded {crc}, "
                    f"computed {record_crc(body)})",
                )
                continue
        version = record.get("version")
        if version != expected_version:
            if torn_tail:
                return
            corrupt(
                index,
                f"unsupported version {version!r} "
                f"(expected {expected_version})",
            )
            continue
        yield record


# ---------------------------------------------------------------------------
# the durable log kinds


#: One durable JSONL artifact kind, an entry of :data:`LOG_KINDS`:
#: *header* is its header record type (None: it has none), *records*
#: its other record types, *site_prefix* its writer's failpoint site
#: prefix, ``keep(records) -> survivors`` what a compaction keeps (None:
#: refused) and ``check(rows, header, report)`` its own fsck checks
#: over its ``(line, record)`` rows, run after the shared header walk
#: (:func:`repro.runtime.fsck.fsck_file`).
LogKind = collections.namedtuple(
    "LogKind", "name header records site_prefix keep check"
)


def _keep_latest(key):
    """Survivors rule: the last record per ``key(record)``, plus every
    record keyed None (headers, and anything compaction does not
    understand — it must never destroy that)."""
    def keep(records):
        kept, last = [], {}
        for index, record in enumerate(records):
            group = key(record)
            if group is None:
                kept.append(index)
            else:
                last[group] = index
        return [records[i] for i in sorted(kept + list(last.values()))]
    return keep


def _check_snapshots(rows, header, report):
    fault_keys = len((header or {}).get("fault_keys") or ())
    last_frame = None
    for line, record in rows:
        if record["type"] != "checkpoint":
            continue
        faults = len(record.get("faults") or ())
        if header is not None and faults != fault_keys:
            report.problem(
                line,
                "checkpoint fault list does not match header "
                f"({faults} vs {fault_keys} faults)",
            )
        frame = record.get("frame")
        if isinstance(frame, int):
            if last_frame is not None and frame < last_frame:
                report.problem(
                    line,
                    f"checkpoint frame went backwards ({last_frame} -> "
                    f"{frame})",
                )
            last_frame = frame
    if header is not None and last_frame is None:
        report.warn(None, "no checkpoint record (nothing to resume from)")


def _check_shards(rows, header, report):
    universe = None if header is None else len(header.get("fault_keys") or ())
    for line, record in rows:
        indices = record.get("indices") or ()
        states = record.get("states") or ()
        if len(indices) != len(states):
            report.problem(
                line,
                f"shard carries {len(states)} states for "
                f"{len(indices)} fault indices",
            )
        if universe is not None and any(
            not isinstance(i, int) or not 0 <= i < universe for i in indices
        ):
            report.problem(
                line, "shard indices outside the header's fault universe"
            )


def _check_findings(rows, header, report):
    for line, record in rows:
        if not isinstance(record.get("finding"), dict):
            report.problem(line, "finding record has no finding body")


# the journal's rules live with its state machine and replay fold in
# repro.service.journal, imported on first use: the runtime must stay
# importable without the service package
def _journal_survivors(records):
    from repro.service.journal import snapshot_survivors

    return snapshot_survivors(records)


def _check_journal(rows, header, report):
    from repro.service.journal import check_transitions

    check_transitions(rows, header, report)


#: every durable JSONL artifact kind, by name — the one declaration
#: kind sniffing, compaction, fsck and ``--repair`` read
LOG_KINDS = {
    kind.name: kind
    for kind in (
        LogKind(
            "campaign", "header", ("checkpoint", "progress"), "checkpoint",
            # resume reads the header and the last snapshot; the last
            # progress record is kept for `repro top`
            keep=_keep_latest(
                lambda r: r.get("type")
                if r.get("type") in ("checkpoint", "progress") else None
            ),
            check=_check_snapshots,
        ),
        LogKind(
            "fabric", "fabric-header", ("shard",), "fabric.checkpoint",
            # the loader folds shards last-write-wins by shard id
            keep=_keep_latest(
                lambda r: tuple(r.get("id") or ())
                if r.get("type") == "shard" else None
            ),
            check=_check_shards,
        ),
        LogKind(
            "audit", "audit-header", ("audit-finding",), "audit.checkpoint",
            keep=None,  # no caller needs it
            check=_check_findings,
        ),
        LogKind(
            "journal", None, ("service", "job", "job-deleted", "snapshot"),
            "journal",
            # one snapshot record: the folded per-job views
            keep=_journal_survivors,
            check=_check_journal,
        ),
    )
}

_KIND_OF_TYPE = {
    record_type: kind
    for kind in LOG_KINDS.values()
    for record_type in (kind.header,) + kind.records
    if record_type is not None
}


def log_kind(record):
    """The :class:`LogKind` declaring *record*'s type (None if none)."""
    return _KIND_OF_TYPE.get(record.get("type"))


def sniff_checkpoint_kind(path):
    """The :data:`LOG_KINDS` name of *path*, from its first record:
    ``campaign``, ``fabric``, ``audit`` or ``journal``."""
    for record in read_jsonl_records(path):
        kind = log_kind(record)
        if kind is None:
            raise CheckpointError(
                path,
                f"unrecognized artifact (first record type "
                f"{record.get('type')!r})",
            )
        return kind.name
    raise CheckpointError(path, "no records")


def resumable_kind(path):
    """``campaign`` or ``fabric``: the kinds a campaign resumes from
    (and ``repro audit`` re-checks).  Any other kind of log raises
    :class:`CheckpointError` naming it."""
    kind = sniff_checkpoint_kind(path)
    if kind not in ("campaign", "fabric"):
        raise CheckpointError(
            path, f"{kind} log where a campaign or fabric checkpoint "
                  "was expected"
        )
    return kind


def load_checkpoint(path, on_corrupt=None):
    """Parse the header and the *last* checkpoint record of *path*.

    With *on_corrupt* (see :func:`read_jsonl_records`) damaged records
    are quarantined instead of failing the load: a corrupt snapshot
    simply stops being the resume point (the previous good one wins —
    conservative, never wrong), while a corrupt *header* still fails
    the load with "no header record", because resuming without the
    fault universe would be verdict-affecting.
    """
    header = None
    snapshot = None
    for record in read_jsonl_records(path, on_corrupt=on_corrupt):
        kind = record.get("type")
        if kind == "header":
            header = record
        elif kind == "checkpoint":
            snapshot = record
    if header is None:
        raise CheckpointError(path, "no header record")
    if snapshot is None:
        raise CheckpointError(path, "no checkpoint record to resume from")
    if len(snapshot["faults"]) != len(header["fault_keys"]):
        raise CheckpointError(
            path, "checkpoint fault list does not match header fault keys"
        )
    return Checkpoint(path, header, snapshot)


class SignalGuard:
    """Turns SIGINT/SIGTERM into a cooperative stop request.

    The campaign polls :attr:`stop_requested` at frame boundaries;
    when set it writes a final checkpoint and returns a partial
    result instead of dying mid-frame.  A second SIGINT falls through
    to the previous handler (usually KeyboardInterrupt), so a hung
    campaign can still be killed interactively.
    """

    def __init__(self, signals=(signal.SIGINT, signal.SIGTERM)):
        self.signals = signals
        self.stop_requested = None  # signal name once requested
        self._previous = {}
        self._installed = False

    def _handler(self, signum, frame):
        if self.stop_requested is not None:
            # second signal: restore and re-raise the default behaviour
            self.uninstall()
            os.kill(os.getpid(), signum)
            return
        self.stop_requested = signal.Signals(signum).name

    def install(self):
        for sig in self.signals:
            self._previous[sig] = signal.signal(sig, self._handler)
        self._installed = True
        return self

    def uninstall(self):
        if not self._installed:
            return
        for sig, previous in self._previous.items():
            signal.signal(sig, previous)
        self._previous.clear()
        self._installed = False

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc_info):
        self.uninstall()
        return False
