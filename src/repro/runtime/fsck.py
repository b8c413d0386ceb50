"""Offline integrity checking for every durable JSONL artifact.

``python -m repro fsck <path>`` validates any of the
:data:`~repro.runtime.checkpoint.LOG_KINDS` — a campaign checkpoint, a
fabric shard checkpoint, an audit checkpoint or a service job journal,
auto-detected from the first intact record — without loading the
circuit or replaying any state.  It answers the operator's question
after a crash, a disk incident or a suspicious resume: *is this file
damaged, and does the damage matter?*

Checked, in layers:

* **line integrity** — JSON validity, record shape, the ``version``
  field and each record's CRC32 (:func:`~repro.runtime.checkpoint.
  record_crc`); records written before checksumming carry no ``crc``
  and are accepted unverified (counted in ``unchecksummed``),
* **torn tail** — a final line without a trailing newline is the
  signature of a crash mid-append.  Readers skip it by design, so it
  is reported as expected crash damage, *not* corruption,
* **structure** — one walk for every kind: exactly one header, first,
  carrying a circuit fingerprint (its absence, in legacy files, is a
  warning), and no record type the kind does not declare; then the
  kind's own checks from its table entry (docs/runtime.md
  "Checkpoint format" lists them).

The verdict mirrors the resume loaders exactly: ``corrupt`` entries
are what :func:`~repro.runtime.checkpoint.read_jsonl_records` would
quarantine, ``problems`` are what a resume would refuse or a service
replay would mishandle.  Exit status (via the CLI): 0 when clean
(warnings allowed), 4 when anything is corrupt or structurally wrong.
The chaos suites run fsck after every injected failure: a failpoint
may cost work, but it must never leave a file fsck rejects.
"""

import json
import os

from repro.runtime.checkpoint import (
    fsync_directory,
    log_kind,
    read_jsonl_records,
    replace_atomic,
    torn_tail_start,
    write_synced,
)
from repro.runtime.errors import CheckpointError


def _check_structure(kind, records, report):
    """The one header walk, then the kind's own checks."""
    header, rows = None, []
    for line, record in records:
        record_type = record.get("type")
        if kind.header is not None and record_type == kind.header:
            if header is not None:
                report.problem(line, f"duplicate {record_type} record")
            header = record
            if record.get("fingerprint") is None:
                report.warn(line, "header has no circuit fingerprint")
        elif record_type not in kind.records:
            report.problem(line, f"unknown record type {record_type!r}")
        else:
            if kind.header is not None and header is None:
                report.problem(
                    line, f"{record_type} record before {kind.header}"
                )
            rows.append((line, record))
    if kind.header is not None and header is None:
        report.problem(
            None, f"no {kind.header} record (resume would refuse)"
        )
    kind.check(rows, header, report)


class FsckReport:
    """The structured outcome of one fsck run."""

    def __init__(self, path):
        self.path = str(path)
        self.kind = None
        self.records = 0
        self.unchecksummed = 0
        self.torn_tail = False
        self.corrupt = []  # {"line", "reason"} from the CRC/JSON layer
        self.problems = []  # structural findings a resume would hit
        self.warnings = []  # legacy/benign observations
        self.repaired = []  # actions --repair performed on this file

    def problem(self, index, reason):
        self.problems.append(
            {"line": None if index is None else index, "reason": reason}
        )

    def warn(self, index, reason):
        self.warnings.append(
            {"line": None if index is None else index, "reason": reason}
        )

    @property
    def ok(self):
        """Clean (warnings and an expected torn tail are allowed)."""
        return not self.corrupt and not self.problems

    def to_json(self):
        return {
            "path": self.path,
            "kind": self.kind,
            "ok": self.ok,
            "records": self.records,
            "unchecksummed": self.unchecksummed,
            "torn_tail": self.torn_tail,
            "corrupt": list(self.corrupt),
            "problems": list(self.problems),
            "warnings": list(self.warnings),
            "repaired": list(self.repaired),
        }

    def lines(self):
        """Human-readable report lines (the CLI prints these)."""
        verdict = "clean" if self.ok else "CORRUPT"
        yield (
            f"{self.path}: {self.kind or 'unknown'} — {verdict} "
            f"({self.records} records)"
        )
        if self.torn_tail:
            yield (
                "  torn tail: final record truncated mid-append "
                "(expected crash damage; readers skip it)"
            )
        if self.unchecksummed:
            yield (
                f"  {self.unchecksummed} record(s) predate CRC "
                "checksumming (accepted unverified)"
            )
        for entry in self.corrupt:
            yield f"  corrupt line {entry['line']}: {entry['reason']}"
        for entry in self.problems:
            where = "" if entry["line"] is None else f" line {entry['line']}:"
            yield f"  problem{where} {entry['reason']}"
        for entry in self.warnings:
            where = "" if entry["line"] is None else f" line {entry['line']}:"
            yield f"  warning{where} {entry['reason']}"
        for action in self.repaired:
            yield f"  repaired: {action}"


def _try_bench(path, report):
    """Recognize and validate a whole-file bench JSON document.

    Bench exports (``repro bench`` -> ``BENCH_<label>.json``) are the
    one non-JSONL artifact fsck knows: a single JSON object carrying
    ``bench_version``.  Returns True when the file is one (valid or
    not — schema violations land in ``report.problems``).
    """
    try:
        with open(path, encoding="utf-8") as handle:
            doc = json.load(handle)
    except (OSError, ValueError):
        return False
    if not isinstance(doc, dict) or "bench_version" not in doc:
        return False
    report.kind = "bench"
    report.records = 1
    from repro.obs.bench import BenchSchemaError, validate_bench_json

    try:
        validate_bench_json(doc)
    except BenchSchemaError as exc:
        report.problem(None, str(exc))
    return True


def fsck_file(path):
    """Validate one artifact; returns an :class:`FsckReport`.

    Raises :class:`~repro.runtime.errors.CheckpointError` only when
    the file cannot be examined at all (missing, unreadable, or not
    recognizable as any known artifact).
    """
    report = FsckReport(path)
    if _try_bench(path, report):
        return report
    report.torn_tail = torn_tail_start(path) is not None
    intact = list(read_jsonl_records(path, on_corrupt=report.corrupt.append))
    report.records = len(intact)
    # the reader popped each record's crc; recover which lines carried
    # one by rescanning raw lines (cheap: the file is already cached)
    try:
        with open(path) as handle:
            report.unchecksummed = sum(
                1 for line in handle
                if line.endswith("\n") and line.strip()
                and '"crc"' not in line
            )
    except OSError as exc:  # pragma: no cover - raced deletion
        raise CheckpointError(path, f"cannot read: {exc}")
    if not intact:
        if report.corrupt or report.torn_tail:
            report.problem(None, "no intact records survive")
            return report
        raise CheckpointError(path, "no records")
    kind = log_kind(intact[0])
    if kind is None:
        raise CheckpointError(
            path,
            f"unrecognized artifact (first record type "
            f"{intact[0].get('type')!r})",
        )
    report.kind = kind.name
    # line numbers of intact records are approximate once corruption
    # skews the count; enumerate() positions are still monotonic and
    # good enough to locate a structural problem
    _check_structure(kind, list(enumerate(intact, 1)), report)
    return report


def repair_file(path):
    """Repair tail damage in place; returns the post-repair report.

    Handles exactly the two damage classes a crash legitimately
    produces: a torn final line (truncated) and CRC-failing records
    (dropped).  Every removed line is appended byte-for-byte to a
    ``<path>.quarantine`` sidecar *before* the file is atomically
    rewritten, so no bytes are ever destroyed — a crash between the
    two steps leaves the damaged original plus a sidecar copy.

    Structural damage — a missing header, an illegal transition, a
    fault list that does not match its header — cannot be repaired by
    dropping lines; attempting it would launder a deeper problem into
    a file resume then trusts.  Such files raise
    :class:`~repro.runtime.errors.CheckpointError` untouched.
    """
    report = fsck_file(path)
    if report.kind == "bench":
        raise CheckpointError(
            path, "bench JSON is not line-structured; --repair "
                  "cannot help (re-run the bench instead)"
        )
    if report.problems:
        reasons = "; ".join(
            entry["reason"] for entry in report.problems[:3]
        )
        raise CheckpointError(
            path,
            f"structural damage ({reasons}); --repair only removes "
            "CRC-corrupt records and torn tails — restore from a "
            "backup or resume an earlier checkpoint",
        )
    if not report.corrupt and not report.torn_tail:
        return report
    with open(path, "rb") as handle:
        raw = handle.readlines()
    bad = {entry["line"] for entry in report.corrupt}
    if report.torn_tail:
        bad.add(len(raw))
    kept = b"".join(line for n, line in enumerate(raw, 1) if n not in bad)
    dropped = b"".join(raw[n - 1].rstrip(b"\n") + b"\n" for n in sorted(bad))
    sidecar = path + ".quarantine"
    # the removed lines, and the sidecar's directory entry, are
    # durable before the rewrite
    with open(sidecar, "ab") as handle:
        write_synced(handle, sidecar, dropped)
    fsync_directory(sidecar)
    replace_atomic(
        path, lambda handle, tmp_path: write_synced(handle, tmp_path, kept)
    )
    actions = []
    if report.torn_tail:
        actions.append(
            f"truncated torn final line {len(raw)} "
            f"(saved to {os.path.basename(sidecar)})"
        )
    if report.corrupt:
        lines = ", ".join(str(e["line"]) for e in report.corrupt)
        actions.append(
            f"dropped CRC-corrupt line(s) {lines} "
            f"(saved to {os.path.basename(sidecar)})"
        )
    fresh = fsck_file(path)
    fresh.repaired = actions
    return fresh


def fsck_paths(paths, repair=False):
    """fsck every path; returns (reports, exit_code) — 0 clean, 4 not.

    With ``repair=True`` each path goes through :func:`repair_file`
    first; the returned reports describe the post-repair state.
    """
    reports = [
        repair_file(path) if repair else fsck_file(path)
        for path in paths
    ]
    return reports, (0 if all(r.ok for r in reports) else 4)
