"""Checkpoint file format, reader validation and the signal guard."""

import json
import signal

import pytest

from repro.faults.model import STEM, Fault
from repro.faults.status import BY_3V, FaultSet
from repro.logic import threeval
from repro.runtime import (
    CHECKPOINT_VERSION,
    CheckpointError,
    CheckpointWriter,
    DegradationLadder,
    SignalGuard,
    load_checkpoint,
)
from repro.runtime.checkpoint import state_from_text, state_to_text

X, O, I = threeval.X, threeval.ZERO, threeval.ONE


def test_state_text_round_trip():
    state = [X, O, I, X, I]
    assert state_to_text(state) == "X01X1"
    assert state_from_text("X01X1") == state


def write_campaign_file(path, frames=(10, 20)):
    fault_set = FaultSet([Fault((STEM, 0), 0), Fault((STEM, 1), 1)])
    fault_set.records[0].mark_detected(BY_3V, 4)
    writer = CheckpointWriter(path)
    writer.write_header(
        circuit_spec="s27",
        sequence=[(0, 1), (1, 1)],
        fault_keys=[r.fault.key() for r in fault_set],
        ladder=DegradationLadder(),
        node_limit=5000,
        initial_state=[X, X, X],
        variable_scheme="interleaved",
        fallback_frames=5,
    )
    live = fault_set.records[1]
    for frame in frames:
        writer.write_checkpoint(
            frame=frame,
            good_state_3v=[I, O, X],
            fault_set=fault_set,
            rung_indices={id(live): 1},
            diffs_3v={id(live): {0: O}},
            counters={"fallbacks": 1},
            elapsed=2.5,
        )
        writer.write_progress({"frame": frame})
    writer.close()
    return fault_set


def test_write_and_load_takes_last_checkpoint(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(path, frames=(10, 20))
    checkpoint = load_checkpoint(path)
    assert checkpoint.frame == 20  # the *last* snapshot wins
    assert checkpoint.circuit_spec == "s27"
    assert checkpoint.sequence == [(0, 1), (1, 1)]
    assert checkpoint.fault_keys == [((STEM, 0), 0), ((STEM, 1), 1)]
    assert checkpoint.node_limit == 5000
    assert checkpoint.good_state == [I, O, X]
    assert checkpoint.counters == {"fallbacks": 1}
    assert checkpoint.elapsed == 2.5
    states = checkpoint.fault_states()
    assert states[0][0] == ["detected", BY_3V, 4]
    assert states[1][1] == 1  # live fault parked on rung 1
    assert states[1][2] == {0: O}
    ladder = DegradationLadder.from_json(checkpoint.ladder_json())
    assert ladder.names() == ["MOT", "rMOT", "SOT", "3v"]


def test_every_record_carries_the_version(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(path)
    with open(path) as handle:
        records = [json.loads(line) for line in handle]
    assert records
    assert all(r["version"] == CHECKPOINT_VERSION for r in records)


def test_unsupported_version_rejected(tmp_path):
    path = tmp_path / "run.ckpt"
    path.write_text(json.dumps({"type": "header", "version": 99}) + "\n")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert "version" in str(exc.value)


def test_missing_file_and_missing_records(tmp_path):
    with pytest.raises(CheckpointError):
        load_checkpoint(tmp_path / "absent.ckpt")
    # header but no checkpoint record: nothing to resume from
    path = tmp_path / "header_only.ckpt"
    fault_set = FaultSet([Fault((STEM, 0), 0)])
    writer = CheckpointWriter(path)
    writer.write_header(
        circuit_spec="s27", sequence=[(0, 1)],
        fault_keys=[fault_set.records[0].fault.key()],
        ladder=DegradationLadder(), node_limit=None,
        initial_state=[X], variable_scheme="interleaved",
        fallback_frames=5,
    )
    writer.close()
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert "no checkpoint record" in str(exc.value)


def test_corrupt_line_names_the_line(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(path)
    with open(path, "a") as handle:
        handle.write("{not json\n")
    with pytest.raises(CheckpointError) as exc:
        load_checkpoint(path)
    assert "line" in str(exc.value)


def test_signal_guard_turns_sigterm_into_stop_request():
    guard = SignalGuard(signals=(signal.SIGTERM,))
    with guard:
        assert guard.stop_requested is None
        signal.raise_signal(signal.SIGTERM)
        assert guard.stop_requested == "SIGTERM"
    # uninstalled afterwards: default disposition restored
    assert signal.getsignal(signal.SIGTERM) is not guard._handler


# ----------------------------------------------------------------------
# crash-safe writes and torn-tail tolerance
# ----------------------------------------------------------------------
def test_torn_final_line_is_tolerated(tmp_path):
    # a coordinator killed mid-write leaves a final line without its
    # trailing newline; the reader drops it and resumes from the last
    # complete record
    path = tmp_path / "run.ckpt"
    write_campaign_file(path, frames=(10, 20))
    whole = path.read_text()
    a_record = whole.splitlines()[1]
    with open(path, "a") as handle:
        handle.write(a_record[: len(a_record) // 2])  # no newline
    checkpoint = load_checkpoint(path)
    assert checkpoint.frame == 20


def test_torn_tail_even_if_valid_json_prefix(tmp_path):
    # the torn write happens to truncate at a brace boundary: the line
    # parses but is still missing its newline commit marker -> dropped
    path = tmp_path / "run.ckpt"
    write_campaign_file(path, frames=(10,))
    with open(path, "a") as handle:
        handle.write('{"type": "progress"')  # torn, no newline
    checkpoint = load_checkpoint(path)
    assert checkpoint.frame == 10


def test_corrupt_line_with_newline_still_raises(tmp_path):
    # a complete (newline-terminated) but malformed line is real
    # corruption, not a torn write: refuse loudly
    path = tmp_path / "run.ckpt"
    write_campaign_file(path, frames=(10,))
    with open(path, "a") as handle:
        handle.write("{not json\n")
    with pytest.raises(CheckpointError):
        load_checkpoint(path)


def test_writer_fsyncs_by_default(tmp_path, monkeypatch):
    import os as os_module

    synced = []
    real_fsync = os_module.fsync
    monkeypatch.setattr(
        "repro.runtime.checkpoint.os.fsync",
        lambda fd: (synced.append(fd), real_fsync(fd)),
    )
    path = tmp_path / "run.ckpt"
    write_campaign_file(path)
    assert synced  # every record hit the disk before returning


def test_writer_degrades_when_fsync_unsupported(tmp_path, monkeypatch):
    """EINVAL from fsync (overlay/tmpfs mounts) must not crash writes."""
    import errno

    calls = []

    def refusing_fsync(fd):
        calls.append(fd)
        raise OSError(errno.EINVAL, "Invalid argument")

    monkeypatch.setattr("repro.runtime.checkpoint.os.fsync", refusing_fsync)
    path = tmp_path / "run.ckpt"
    with pytest.warns(RuntimeWarning, match="fsync not supported"):
        write_campaign_file(path)
    # degraded once, then stopped retrying: exactly one fsync attempt
    assert len(calls) == 1
    # and the file is complete and loadable regardless
    checkpoint = load_checkpoint(path)
    assert checkpoint.frame == 20


def test_writer_propagates_real_fsync_errors(tmp_path, monkeypatch):
    """EIO-class fsync failures are data loss, not degradation."""
    import errno

    def failing_fsync(fd):
        raise OSError(errno.EIO, "Input/output error")

    monkeypatch.setattr("repro.runtime.checkpoint.os.fsync", failing_fsync)
    with pytest.raises(CheckpointError, match="cannot write record"):
        write_campaign_file(tmp_path / "run.ckpt")


def test_write_json_atomic_tolerates_fsync_refusal(tmp_path, monkeypatch):
    import errno

    from repro.runtime import write_json_atomic

    def refusing_fsync(fd):
        raise OSError(errno.EINVAL, "Invalid argument")

    monkeypatch.setattr("repro.runtime.checkpoint.os.fsync", refusing_fsync)
    target = tmp_path / "summary.json"
    with pytest.warns(RuntimeWarning, match="fsync not supported"):
        write_json_atomic(target, {"ok": True, "n": 3})
    assert json.loads(target.read_text()) == {"ok": True, "n": 3}


def test_sniff_checkpoint_kind(tmp_path):
    from repro.runtime import sniff_checkpoint_kind

    campaign_path = tmp_path / "campaign.ckpt"
    write_campaign_file(campaign_path)
    assert sniff_checkpoint_kind(campaign_path) == "campaign"

    fabric_path = tmp_path / "fabric.ckpt"
    fabric_path.write_text(
        json.dumps(
            {"version": CHECKPOINT_VERSION, "type": "fabric-header"}
        )
        + "\n"
    )
    assert sniff_checkpoint_kind(fabric_path) == "fabric"

    from repro.audit.runner import AuditCheckpointWriter
    from repro.service.journal import JobJournal

    audit_path = tmp_path / "audit.ckpt"
    writer = AuditCheckpointWriter(audit_path)
    writer._write({"type": "audit-header", "fingerprint": None})
    writer.close()
    assert sniff_checkpoint_kind(audit_path) == "audit"

    journal_path = tmp_path / "journal.jsonl"
    journal = JobJournal(journal_path)
    journal.service_event("start")
    journal.job_event("job-1", "submitted", spec={"circuit": "s27"})
    journal.close()
    assert sniff_checkpoint_kind(journal_path) == "journal"

    # resume and audit refuse any other kind by name
    from repro.runtime.checkpoint import resumable_kind

    with pytest.raises(CheckpointError, match="journal log"):
        resumable_kind(journal_path)
    assert resumable_kind(fabric_path) == "fabric"

    empty = tmp_path / "empty.ckpt"
    empty.write_text("")
    with pytest.raises(CheckpointError):
        sniff_checkpoint_kind(empty)


# ----------------------------------------------------------------------
# circuit/fault-universe fingerprint
# ----------------------------------------------------------------------
def _fingerprint_fixture(seed=3):
    from repro.circuit.compile import compile_circuit
    from repro.faults.collapse import collapse_faults
    from tests.util import random_circuit

    compiled = compile_circuit(random_circuit(seed))
    faults, _ = collapse_faults(compiled)
    keys = [f.key() for f in faults]
    return compiled, keys


def test_fingerprint_stable_and_name_blind():
    from repro.circuit.compile import compile_circuit
    from repro.runtime import circuit_fingerprint
    from tests.util import random_circuit

    compiled, keys = _fingerprint_fixture()
    assert circuit_fingerprint(compiled, keys) == \
        circuit_fingerprint(compiled, keys)
    # the circuit's *name* is presentation, not structure
    renamed = compile_circuit(random_circuit(3, name="other-name"))
    assert circuit_fingerprint(renamed, keys) == \
        circuit_fingerprint(compiled, keys)


def test_fingerprint_sees_structure_and_faults():
    from repro.circuit.compile import compile_circuit
    from repro.runtime import circuit_fingerprint
    from tests.util import random_circuit

    compiled, keys = _fingerprint_fixture()
    other = compile_circuit(random_circuit(4))
    assert circuit_fingerprint(other, keys) != \
        circuit_fingerprint(compiled, keys)
    assert circuit_fingerprint(compiled, keys[:-1]) != \
        circuit_fingerprint(compiled, keys)


def test_verify_fingerprint_mismatch_and_legacy():
    from repro.runtime import (
        CheckpointMismatch,
        circuit_fingerprint,
        verify_fingerprint,
    )

    compiled, keys = _fingerprint_fixture()
    good = circuit_fingerprint(compiled, keys)
    verify_fingerprint("x.ckpt", good, compiled, keys)  # match: quiet
    verify_fingerprint("x.ckpt", None, compiled, keys)  # legacy: quiet
    with pytest.raises(CheckpointMismatch) as exc:
        verify_fingerprint("x.ckpt", "deadbeefdeadbeef", compiled, keys)
    assert isinstance(exc.value, CheckpointError)
    assert exc.value.context()["found"] == "deadbeefdeadbeef"


def test_verify_universe_checks_fingerprint_then_fault_keys():
    from repro.faults.collapse import collapse_faults
    from repro.faults.status import fault_key_to_json
    from repro.runtime import CheckpointMismatch, circuit_fingerprint
    from repro.runtime.checkpoint import HeaderView

    compiled, keys = _fingerprint_fixture()
    fault_set = FaultSet(collapse_faults(compiled)[0])

    def view(fingerprint, header_keys):
        return HeaderView("x.ckpt", {
            "fingerprint": fingerprint,
            "fault_keys": [fault_key_to_json(k) for k in header_keys],
        })

    good = circuit_fingerprint(compiled, keys)
    view(good, keys).verify_universe(compiled, fault_set)
    view(None, keys).verify_universe(compiled, fault_set)
    with pytest.raises(CheckpointMismatch):
        view("deadbeefdeadbeef", keys).verify_universe(compiled, fault_set)
    # a legacy header (no fingerprint) still has its fault keys checked
    with pytest.raises(CheckpointError, match="fault universe does not"):
        view(None, keys[:-1]).verify_universe(compiled, fault_set)
    with pytest.raises(CheckpointError, match="fault universe does not"):
        view(None, keys[::-1]).verify_universe(compiled, fault_set)


def test_header_writers_check_their_fields(tmp_path):
    from repro.runtime.checkpoint import read_jsonl_records
    from repro.runtime.fabric.checkpoint import FabricCheckpointWriter

    fields = dict(
        circuit_spec="s27", sequence=[(0, 1)], fault_keys=[],
        ladder=DegradationLadder(), node_limit=None, initial_state=[X],
        variable_scheme="interleaved", fallback_frames=5,
    )
    writer = CheckpointWriter(tmp_path / "c.ckpt")
    with pytest.raises(TypeError):
        writer.write_header(xred=True, **fields)
    writer.close()
    writer = FabricCheckpointWriter(tmp_path / "f.ckpt")
    with pytest.raises(TypeError):
        writer.write_fabric_header(**fields)  # no xred/pre_pass_3v/config
    writer.write_fabric_header(
        xred=False, pre_pass_3v=True, config={}, **fields
    )
    writer.close()
    header = next(read_jsonl_records(tmp_path / "f.ckpt"))
    assert (header["type"], header["xred"], header["pre_pass_3v"]) == (
        "fabric-header", False, True
    )


def test_campaign_resume_refuses_wrong_circuit(tmp_path):
    from repro.circuit.compile import compile_circuit
    from repro.faults.collapse import collapse_faults
    from repro.runtime import (
        CheckpointMismatch,
        ResourceGovernor,
        resume_campaign,
        run_campaign,
    )
    from repro.sequences.random_seq import random_sequence_for
    from tests.util import random_circuit

    compiled = compile_circuit(random_circuit(11))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 30, seed=1)
    path = tmp_path / "run.ckpt"

    class InstantClock:
        def __init__(self):
            self.t = 0.0

        def __call__(self):
            self.t += 1.0
            return self.t

    interrupted = run_campaign(
        compiled, sequence, FaultSet(faults),
        checkpoint_path=str(path), checkpoint_every=2,
        governor=ResourceGovernor(deadline=6.0, clock=InstantClock()),
    )
    assert interrupted.checkpoints_written >= 1

    other = compile_circuit(random_circuit(12))
    other_faults, _ = collapse_faults(other)
    with pytest.raises(CheckpointMismatch):
        resume_campaign(
            str(path), compiled=other, fault_set=FaultSet(other_faults)
        )

    # the matching circuit still resumes
    result = resume_campaign(
        str(path), compiled=compiled, fault_set=FaultSet(faults)
    )
    assert result.stopped == "completed"


def test_fabric_resume_refuses_wrong_circuit(tmp_path):
    from repro.circuit.compile import compile_circuit
    from repro.faults.collapse import collapse_faults
    from repro.runtime import CheckpointMismatch
    from repro.runtime.fabric import (
        resume_sharded_campaign,
        run_sharded_campaign,
    )
    from repro.sequences.random_seq import random_sequence_for
    from tests.util import random_circuit

    compiled = compile_circuit(random_circuit(21))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 10, seed=2)
    path = tmp_path / "fabric.ckpt"
    result = run_sharded_campaign(
        compiled, sequence, FaultSet(faults),
        workers=0, shard_size=3, checkpoint_path=str(path),
    )
    assert result.stopped == "completed"

    other = compile_circuit(random_circuit(22))
    other_faults, _ = collapse_faults(other)
    with pytest.raises(CheckpointMismatch):
        resume_sharded_campaign(
            str(path), compiled=other, fault_set=FaultSet(other_faults)
        )
