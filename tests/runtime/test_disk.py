"""Disk governor, checkpoint compaction and the campaign relief ladder.

The exactness contract under test: every relief rung is semantics-
preserving.  A compacted checkpoint resumes to the same verdicts as
the original, a disk-pressured campaign either completes with verdicts
identical to an unconstrained run or surrenders cleanly with a
resumable checkpoint, and a failed compaction never damages the
original file or leaves temp files behind.
"""

import glob
import json
import os

import pytest

from repro import failpoints
from repro.runtime import resume_campaign, run_campaign
from repro.runtime.checkpoint import (
    JsonlWriter,
    read_jsonl_records,
    write_json_atomic,
)
from repro.runtime.disk import (
    LEVEL_HARD,
    LEVEL_OK,
    LEVEL_SOFT,
    DiskConfig,
    DiskGovernor,
    DiskSampler,
    artifact_usage_bytes,
    compact_checkpoint,
    read_free_bytes,
    rewrite_jsonl_atomic,
)
from repro.runtime.errors import CheckpointError, DiskPressureExceeded
from repro.runtime.fsck import fsck_file, fsck_paths, repair_file


@pytest.fixture(autouse=True)
def _clean_registry():
    failpoints.clear()
    yield
    failpoints.clear()


def detected_map(fault_set):
    return {
        r.fault.key(): (r.detected_by, r.detected_at)
        for r in fault_set.detected()
    }


def no_tmp_orphans(directory):
    return glob.glob(os.path.join(str(directory), "*.tmp")) == []


# ----------------------------------------------------------------------
# probes and sampler
# ----------------------------------------------------------------------
def test_read_free_bytes_real_filesystem(tmp_path):
    free = read_free_bytes(str(tmp_path))
    assert isinstance(free, int) and free > 0


def test_read_free_bytes_statvfs_failpoint_lies(tmp_path):
    failpoints.set_failpoint("disk.statvfs", "once")
    assert read_free_bytes(str(tmp_path)) == 0
    assert read_free_bytes(str(tmp_path)) > 0


def test_artifact_usage_counts_files_and_walks_dirs(tmp_path):
    (tmp_path / "a.bin").write_bytes(b"x" * 100)
    sub = tmp_path / "jobs" / "job-1"
    sub.mkdir(parents=True)
    (sub / "b.bin").write_bytes(b"y" * 50)
    assert artifact_usage_bytes([str(tmp_path / "a.bin")]) == 100
    assert artifact_usage_bytes([str(tmp_path)]) == 150
    assert artifact_usage_bytes([str(tmp_path / "missing")]) == 0
    assert artifact_usage_bytes([None]) == 0


def test_sampler_throttles_and_tracks_extremes():
    usage_values = iter([10, 50, 30])
    free_values = iter([1000, 200, 600])
    reads = {"usage": 0, "free": 0}

    def read_usage(paths):
        reads["usage"] += 1
        return next(usage_values)

    def read_free(path):
        reads["free"] += 1
        return next(free_values)

    sampler = DiskSampler(["x"], refresh=3, read_free=read_free,
                          read_usage=read_usage)
    results = [sampler() for _ in range(7)]
    # measured on calls 1, 4 and 7; cached in between
    assert reads == {"usage": 3, "free": 3}
    assert results[0] == (10, 1000)
    assert results[3] == (50, 200)
    assert results[6] == (30, 600)
    assert sampler.peak_usage == 50
    assert sampler.low_free == 200


def test_sampler_free_unavailable_is_permanent():
    sampler = DiskSampler(["x"], refresh=1, read_free=lambda p: None,
                          read_usage=lambda paths: 7)
    assert sampler() == (7, None)
    assert sampler() == (7, None)
    assert sampler.low_free is None


# ----------------------------------------------------------------------
# config and governor
# ----------------------------------------------------------------------
def test_disk_config_validation():
    with pytest.raises(ValueError):
        DiskConfig(budget=0)
    with pytest.raises(ValueError):
        DiskConfig(free_floor=-1)
    with pytest.raises(ValueError):
        DiskConfig(soft=0.0)
    assert not DiskConfig().enabled
    assert DiskConfig(budget=10).enabled
    assert DiskConfig(free_floor=10).enabled


@pytest.mark.parametrize("usage, free, expected", [
    (10, None, LEVEL_OK),
    (80, None, LEVEL_SOFT),      # 80% of budget
    (100, None, LEVEL_HARD),
    (10, 5_000, LEVEL_OK),
    (10, 1_200, LEVEL_SOFT),     # free <= floor / soft
    (10, 1_000, LEVEL_HARD),     # free <= floor
])
def test_governor_level_matrix(usage, free, expected):
    governor = DiskGovernor(DiskConfig(budget=100, free_floor=1_000))
    assert governor.level_of(usage, free) == expected


def test_governor_counts_crossings_and_hard_stops(tmp_path):
    target = tmp_path / "x.bin"
    target.write_bytes(b"z" * 100)
    governor = DiskGovernor(DiskConfig(budget=50, refresh=1),
                            paths=[target])
    assert governor.check() == LEVEL_HARD
    assert governor.hard_events == 1
    with pytest.raises(DiskPressureExceeded) as info:
        governor.hard_stop(frame=3)
    exc = info.value
    assert exc.kind == "disk"
    assert exc.limit == 50 and exc.observed == 100
    assert exc.frame == 3
    assert exc.path == str(target)
    assert exc.context()["path"] == str(target)


def test_governor_accounting_snapshot(tmp_path):
    governor = DiskGovernor(DiskConfig(budget=1000), paths=[tmp_path])
    governor.check()
    governor.note_compaction(500, 200)
    governor.note_stretch()
    accounting = governor.accounting()
    assert accounting["disk_compactions"] == 1
    assert accounting["disk_reclaimed_bytes"] == 300
    assert accounting["disk_stretches"] == 1


# ----------------------------------------------------------------------
# atomic rewrite: byte stability and crash safety
# ----------------------------------------------------------------------
def _write_jsonl(path, records, site_prefix="checkpoint"):
    writer = JsonlWriter(str(path), site_prefix=site_prefix)
    for record in records:
        writer._write(dict(record))
    writer.close()


def test_rewrite_jsonl_atomic_is_byte_stable(tmp_path):
    path = tmp_path / "file.jsonl"
    _write_jsonl(path, [
        {"type": "header", "a": 1},
        {"type": "checkpoint", "frame": 5},
    ])
    original = path.read_bytes()
    rewrite_jsonl_atomic(path, list(read_jsonl_records(path)))
    assert path.read_bytes() == original
    assert no_tmp_orphans(tmp_path)


def test_rewrite_crash_failpoint_preserves_original(tmp_path):
    path = tmp_path / "file.jsonl"
    _write_jsonl(path, [{"type": "header", "a": 1}])
    original = path.read_bytes()
    failpoints.set_failpoint("disk.compact.crash", "once")
    with pytest.raises(CheckpointError, match="disk.compact.crash"):
        rewrite_jsonl_atomic(path, [{"type": "header", "a": 2}])
    assert path.read_bytes() == original
    assert no_tmp_orphans(tmp_path)
    # disarmed: the retry succeeds
    rewrite_jsonl_atomic(path, [{"type": "header", "a": 2}])
    records = list(read_jsonl_records(path))
    assert records[0]["a"] == 2


def test_rewrite_enospc_failpoint_cleans_temp(tmp_path):
    path = tmp_path / "file.jsonl"
    _write_jsonl(path, [{"type": "header", "a": 1}])
    original = path.read_bytes()
    failpoints.set_failpoint("checkpoint.write.enospc", "once")
    # the writer wraps the injected ENOSPC into its typed error
    with pytest.raises(CheckpointError, match="no space left"):
        rewrite_jsonl_atomic(path, [{"type": "header", "a": 2}])
    assert path.read_bytes() == original
    assert no_tmp_orphans(tmp_path)


def test_rewrite_rename_failure_cleans_temp(tmp_path, monkeypatch):
    path = tmp_path / "file.jsonl"
    _write_jsonl(path, [{"type": "header", "a": 1}])
    original = path.read_bytes()

    def exploding_replace(src, dst):
        raise OSError("injected rename failure")

    monkeypatch.setattr(os, "replace", exploding_replace)
    with pytest.raises(OSError, match="injected rename"):
        rewrite_jsonl_atomic(path, [{"type": "header", "a": 2}])
    monkeypatch.undo()
    assert path.read_bytes() == original
    assert no_tmp_orphans(tmp_path)


def test_write_json_atomic_fsync_failure_cleans_temp(tmp_path,
                                                     monkeypatch):
    target = tmp_path / "doc.json"

    def exploding_fsync(fd):
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(os, "fsync", exploding_fsync)
    with pytest.raises(OSError):
        write_json_atomic(str(target), {"a": 1})
    monkeypatch.undo()
    assert not target.exists()
    assert no_tmp_orphans(tmp_path)
    write_json_atomic(str(target), {"a": 1})
    assert json.loads(target.read_text()) == {"a": 1}


def test_byte_rewrites_write_through_the_temp_descriptor(
    tmp_path, monkeypatch
):
    import builtins

    target = tmp_path / "doc.json"
    path = tmp_path / "journal.jsonl"
    _write_jsonl(path, [{"type": "service", "event": "start"}])
    with open(path, "ab") as handle:
        handle.write(b'{"type": "job", "id"')
    real_open = builtins.open

    def no_reopen(file, *args, **kwargs):
        # reopening the exclusive temp file by name would follow
        # whatever the name points to by then
        assert not str(file).endswith(".tmp"), file
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", no_reopen)
    write_json_atomic(str(target), {"a": 1})
    repair_file(str(path))
    monkeypatch.undo()
    assert json.loads(target.read_text()) == {"a": 1}
    assert fsck_file(str(path)).ok
    assert no_tmp_orphans(tmp_path)


# ----------------------------------------------------------------------
# checkpoint compaction: campaign and fabric flavors
# ----------------------------------------------------------------------
def _campaign_checkpoint(tmp_path, compiled, fault_set, sequence):
    path = tmp_path / "run.ckpt"
    result = run_campaign(
        compiled, sequence, fault_set,
        strategy="MOT", node_limit=300_000,
        checkpoint_path=str(path), checkpoint_every=5,
    )
    assert result.stopped == "completed"
    return path


def test_compact_campaign_checkpoint_resumes_identically(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    from repro.faults.status import FaultSet

    baseline_set = FaultSet(s27_faults)
    path = _campaign_checkpoint(
        tmp_path, s27_compiled, baseline_set, s27_sequence
    )
    before = list(read_jsonl_records(path))
    stats = compact_checkpoint(path)
    assert stats["kind"] == "campaign"
    assert stats["records_after"] <= stats["records_before"]
    assert stats["bytes_after"] <= stats["bytes_before"]
    after = list(read_jsonl_records(path))
    # survivors are byte-identical records: header + last checkpoint
    # (+ last progress), all present in the original record list
    raw_before = {json.dumps(r, sort_keys=True) for r in before}
    assert all(
        json.dumps(r, sort_keys=True) in raw_before for r in after
    )
    assert fsck_file(str(path)).ok
    resumed_set = FaultSet(s27_faults)
    result = resume_campaign(
        str(path), compiled=s27_compiled, fault_set=resumed_set,
    )
    assert result.stopped == "completed"
    assert detected_map(resumed_set) == detected_map(baseline_set)


def test_compact_fabric_checkpoint_keeps_latest_per_shard(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    from repro.faults.status import FaultSet

    path = tmp_path / "fabric.ckpt"
    fault_set = FaultSet(s27_faults)
    result = run_campaign(
        s27_compiled, s27_sequence, fault_set,
        workers=0, shard_size=4,
        checkpoint_path=str(path),
    )
    assert result.stopped == "completed"
    stats = compact_checkpoint(path)
    assert stats["kind"] == "fabric"
    records = list(read_jsonl_records(path))
    shard_ids = [
        tuple(r["id"]) for r in records if r.get("type") == "shard"
    ]
    assert len(shard_ids) == len(set(shard_ids)), \
        "compaction must keep one record per shard"
    assert fsck_file(str(path)).ok


def test_compact_refuses_corrupt_files(tmp_path):
    path = tmp_path / "bad.jsonl"
    _write_jsonl(path, [{"type": "header", "a": 1},
                        {"type": "checkpoint", "frame": 1}])
    lines = path.read_text().splitlines(keepends=True)
    damaged = lines[1].replace('"frame": 1', '"frame": 2')
    path.write_text(lines[0] + damaged)
    with pytest.raises(CheckpointError):
        compact_checkpoint(path)


def test_compact_unknown_artifact_refuses(tmp_path):
    path = tmp_path / "odd.jsonl"
    _write_jsonl(path, [{"type": "mystery"}])
    with pytest.raises(CheckpointError, match="cannot compact"):
        compact_checkpoint(path)


# ----------------------------------------------------------------------
# the campaign relief ladder
# ----------------------------------------------------------------------
def test_disk_budget_campaign_matches_unconstrained(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    """Aggressive budget, but one compaction keeps it satisfiable:
    the run completes with verdicts identical to the baseline."""
    from repro.faults.status import FaultSet

    baseline_set = FaultSet(s27_faults)
    baseline = run_campaign(
        s27_compiled, s27_sequence, baseline_set,
        strategy="MOT", node_limit=300_000,
    )
    assert baseline.stopped == "completed"

    path = tmp_path / "tight.ckpt"
    governed_set = FaultSet(s27_faults)
    # checkpoint records for s27 run a few KB each; a budget of a few
    # records forces repeated watermark compaction without ever making
    # the compacted file (header + one snapshot, ~4KB) oversized
    result = run_campaign(
        s27_compiled, s27_sequence, governed_set,
        strategy="MOT", node_limit=300_000,
        checkpoint_path=str(path), checkpoint_every=2,
        disk={"budget": 16 * 1024},
    )
    assert result.stopped == "completed"
    assert detected_map(governed_set) == detected_map(baseline_set)
    assert result.disk is not None
    assert result.disk["disk_compactions"] >= 1
    assert fsck_file(str(path)).ok
    assert no_tmp_orphans(tmp_path)


def test_impossible_budget_surrenders_cleanly_and_resumes(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    """A budget below one checkpoint record cannot be relieved: the
    campaign stops with ``stopped='disk'`` and a resumable
    checkpoint; an unconstrained resume finishes the run."""
    from repro.faults.status import FaultSet

    baseline_set = FaultSet(s27_faults)
    baseline = run_campaign(
        s27_compiled, s27_sequence, baseline_set,
        strategy="MOT", node_limit=300_000,
    )

    path = tmp_path / "doomed.ckpt"
    governed_set = FaultSet(s27_faults)
    result = run_campaign(
        s27_compiled, s27_sequence, governed_set,
        strategy="MOT", node_limit=300_000,
        checkpoint_path=str(path), checkpoint_every=1,
        disk={"budget": 64},
    )
    assert result.stopped == "disk"
    assert result.frames_total < len(s27_sequence)
    assert result.disk["disk_hard_events"] >= 1
    assert fsck_file(str(path)).ok, \
        "the surrender checkpoint must be intact"
    assert no_tmp_orphans(tmp_path)

    resumed_set = FaultSet(s27_faults)
    resumed = resume_campaign(
        str(path), compiled=s27_compiled, fault_set=resumed_set,
    )
    assert resumed.stopped == "completed"
    assert detected_map(resumed_set) == detected_map(baseline_set)


def test_statvfs_failpoint_forces_clean_surrender(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    """The kernel lying that the disk is full must surrender cleanly,
    never crash — and the checkpoint must survive fsck."""
    from repro.faults.status import FaultSet

    path = tmp_path / "lied.ckpt"
    failpoints.set_failpoint("disk.statvfs", "every:1")
    governed_set = FaultSet(s27_faults)
    result = run_campaign(
        s27_compiled, s27_sequence, governed_set,
        strategy="MOT", node_limit=300_000,
        checkpoint_path=str(path), checkpoint_every=1,
        disk={"free_floor": 1024 * 1024},
    )
    assert result.stopped == "disk"
    assert fsck_file(str(path)).ok
    failpoints.clear()
    resumed_set = FaultSet(s27_faults)
    resumed = resume_campaign(
        str(path), compiled=s27_compiled, fault_set=resumed_set,
    )
    assert resumed.stopped == "completed"


def test_disk_counters_survive_resume(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    from repro.faults.status import FaultSet

    path = tmp_path / "carry.ckpt"
    governed_set = FaultSet(s27_faults)
    result = run_campaign(
        s27_compiled, s27_sequence, governed_set,
        strategy="MOT", node_limit=300_000,
        checkpoint_path=str(path), checkpoint_every=1,
        disk={"budget": 64},
    )
    assert result.stopped == "disk"
    compactions = result.disk["disk_compactions"]
    resumed_set = FaultSet(s27_faults)
    resumed = resume_campaign(
        str(path), compiled=s27_compiled, fault_set=resumed_set,
        disk={"budget": 10 * 1024 * 1024},
    )
    assert resumed.stopped == "completed"
    assert resumed.disk["disk_compactions"] >= compactions


def test_sharded_run_warns_disk_ignored(
    s27_compiled, s27_faults, s27_sequence
):
    from repro.faults.status import FaultSet

    with pytest.warns(RuntimeWarning, match="disk budget ignored"):
        result = run_campaign(
            s27_compiled, s27_sequence, FaultSet(s27_faults),
            workers=0, disk={"budget": 1024},
        )
    assert result.stopped == "completed"


# ----------------------------------------------------------------------
# fsck --repair: torn tails truncated, CRC casualties quarantined
# ----------------------------------------------------------------------
def _flip_byte_in_line(path, line_no, needle):
    lines = path.read_bytes().split(b"\n")
    line = lines[line_no]
    pos = line.find(needle)
    assert pos >= 0, f"{needle!r} not in line {line_no}"
    lines[line_no] = line[:pos] + bytes([line[pos] ^ 0x01]) + line[pos + 1:]
    path.write_bytes(b"\n".join(lines))


def test_repair_truncates_torn_tail(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    from repro.faults.status import FaultSet

    fault_set = FaultSet(s27_faults)
    path = _campaign_checkpoint(
        tmp_path, s27_compiled, fault_set, s27_sequence
    )
    torn = b'{"type": "checkpoint", "frame": 99, "tru'
    with open(path, "ab") as handle:
        handle.write(torn)
    assert fsck_file(str(path)).torn_tail
    report = repair_file(str(path))
    assert report.ok
    assert any("torn final line" in action for action in report.repaired)
    assert not fsck_file(str(path)).torn_tail
    # the torn bytes survive in the sidecar, newline-terminated
    sidecar = str(path) + ".quarantine"
    assert torn in open(sidecar, "rb").read()
    resumed_set = FaultSet(s27_faults)
    result = resume_campaign(
        str(path), compiled=s27_compiled, fault_set=resumed_set
    )
    assert result.stopped == "completed"
    assert detected_map(resumed_set) == detected_map(fault_set)


def test_repair_survives_refused_fsync(tmp_path, monkeypatch):
    import errno
    import stat

    from repro.service.journal import JobJournal

    path = tmp_path / "journal.jsonl"
    journal = JobJournal(str(path))
    journal.service_event("start")
    journal.job_event("job-1", "submitted", spec={"circuit": "s27"})
    journal.close()
    torn = b'{"type": "job", "id": "job-1", "sta'
    with open(path, "ab") as handle:
        handle.write(torn)

    synced = []

    def refusing_fsync(fd):
        synced.append("dir" if stat.S_ISDIR(os.fstat(fd).st_mode)
                      else "file")
        raise OSError(errno.EINVAL, "Invalid argument")

    monkeypatch.setattr(os, "fsync", refusing_fsync)
    with pytest.warns(RuntimeWarning, match="fsync not supported"):
        report = repair_file(str(path))
    monkeypatch.undo()
    # the sidecar, then its directory entry, are synced before the
    # rewrite's temp file and rename
    assert synced == ["file", "dir", "file", "dir"]
    assert report.ok and not report.torn_tail
    assert fsck_file(str(path)).ok
    assert open(str(path) + ".quarantine", "rb").read() == torn + b"\n"
    assert no_tmp_orphans(tmp_path)


def test_repair_quarantines_crc_corrupt_line(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    from repro.faults.status import FaultSet

    fault_set = FaultSet(s27_faults)
    path = _campaign_checkpoint(
        tmp_path, s27_compiled, fault_set, s27_sequence
    )
    damaged_line = path.read_bytes().split(b"\n")[1]
    _flip_byte_in_line(path, 1, b'"frame"')
    assert not fsck_file(str(path)).ok
    report = repair_file(str(path))
    assert report.ok
    assert any("CRC-corrupt" in action for action in report.repaired)
    # resume is now warning-free: no quarantine left to report
    resumed_set = FaultSet(s27_faults)
    result = resume_campaign(
        str(path), compiled=s27_compiled, fault_set=resumed_set
    )
    assert result.stopped == "completed"
    # the dropped line (in damaged form) is preserved byte-for-byte
    sidecar = open(str(path) + ".quarantine", "rb").read()
    assert damaged_line not in sidecar  # the *damaged* bytes are saved
    assert b'"type"' in sidecar


def test_repair_refuses_structural_damage(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    from repro.faults.status import FaultSet

    path = _campaign_checkpoint(
        tmp_path, s27_compiled, FaultSet(s27_faults), s27_sequence
    )
    # drop the header entirely: no line-dropping repair can fix that
    lines = path.read_bytes().split(b"\n")
    path.write_bytes(b"\n".join(lines[1:]))
    before = path.read_bytes()
    with pytest.raises(CheckpointError, match="structural damage"):
        repair_file(str(path))
    assert path.read_bytes() == before, "refusal must not modify the file"
    assert not os.path.exists(str(path) + ".quarantine")


def test_repair_clean_file_is_a_no_op(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    from repro.faults.status import FaultSet

    path = _campaign_checkpoint(
        tmp_path, s27_compiled, FaultSet(s27_faults), s27_sequence
    )
    before = path.read_bytes()
    report = repair_file(str(path))
    assert report.ok and report.repaired == []
    assert path.read_bytes() == before
    assert not os.path.exists(str(path) + ".quarantine")


def test_fsck_paths_repair_exit_codes(
    tmp_path, s27_compiled, s27_faults, s27_sequence
):
    from repro.faults.status import FaultSet

    path = _campaign_checkpoint(
        tmp_path, s27_compiled, FaultSet(s27_faults), s27_sequence
    )
    # a torn tail alone is tolerated (readers skip it); CRC corruption
    # is what fails a plain fsck until --repair quarantines it
    _flip_byte_in_line(path, 1, b'"frame"')
    with open(path, "ab") as handle:
        handle.write(b'{"torn')
    _reports, code = fsck_paths([str(path)])
    assert code == 4
    reports, code = fsck_paths([str(path)], repair=True)
    assert code == 0
    assert reports[0].repaired
