"""Failpoint registry semantics, the CRC record layer, and fsck.

The chaos suite (``tests/chaos/test_failpoints.py``) drives whole
campaigns through armed failpoints; this module pins down the small
contracts those drills rely on: trigger policies are deterministic,
configuration layers without clobbering, the JSONL CRC layer detects
single-bit damage and tolerates torn tails, and ``repro fsck`` renders
the same verdicts offline.
"""

import json

import pytest

from repro import failpoints
from repro.failpoints import (
    CATALOG,
    SITES,
    Failpoint,
    FailpointError,
    parse_spec,
)
from repro.faults.model import STEM, Fault
from repro.faults.status import BY_3V, FaultSet
from repro.logic import threeval
from repro.runtime import (
    CheckpointError,
    CheckpointWriter,
    DegradationLadder,
    load_checkpoint,
)
from repro.runtime.checkpoint import (
    JsonlWriter,
    read_jsonl_records,
    record_crc,
)
from repro.runtime.fsck import fsck_file, fsck_paths

X, O, I = threeval.X, threeval.ZERO, threeval.ONE


@pytest.fixture(autouse=True)
def _clean_registry():
    failpoints.clear()
    yield
    failpoints.clear()


def schedule(policy, n=12):
    """The fire pattern of a fresh policy over n evaluations."""
    point = Failpoint("site", policy)
    return [point.should_fire() for _ in range(n)]


# ----------------------------------------------------------------------
# trigger policies
# ----------------------------------------------------------------------
def test_policy_off_never_fires():
    assert schedule("off") == [False] * 12


def test_policy_once_fires_exactly_first():
    assert schedule("once") == [True] + [False] * 11


def test_policy_every_n():
    fired = schedule("every:3")
    assert [i + 1 for i, hit in enumerate(fired) if hit] == [3, 6, 9, 12]


def test_policy_after_n():
    fired = schedule("after:4")
    assert fired == [False] * 4 + [True] * 8


def test_policy_p_extremes():
    assert schedule("p:1.0") == [True] * 12
    assert schedule("p:0.0") == [False] * 12


def test_policy_p_seeded_is_deterministic():
    def draws(name, policy):
        point = Failpoint(name, policy)
        return [point.should_fire() for _ in range(64)]

    a = draws("s", "p:0.5@7")
    assert a == draws("s", "p:0.5@7")
    assert any(a) and not all(a)
    # a different seed (and a different site name) shifts the schedule
    assert a != draws("s", "p:0.5@8")
    assert a != draws("t", "p:0.5@7")


def test_policy_p_does_not_touch_global_random():
    import random

    random.seed(123)
    expected = random.random()
    random.seed(123)
    point = Failpoint("s", "p:0.5@7")
    for _ in range(10):
        point.should_fire()
    assert random.random() == expected


@pytest.mark.parametrize("bad", [
    "banana", "once:1", "off:2", "every:x", "every:0", "after:",
    "p:nope", "p:1.5", "p:-0.1",
])
def test_bad_policies_raise_typed_error(bad):
    with pytest.raises(FailpointError):
        Failpoint("s", bad)


def test_parse_spec():
    assert parse_spec("") == {}
    assert parse_spec("a=once, b = every:3 ,") == {
        "a": "once", "b": "every:3",
    }
    with pytest.raises(FailpointError):
        parse_spec("a")
    with pytest.raises(FailpointError):
        parse_spec("=once")


# ----------------------------------------------------------------------
# registry
# ----------------------------------------------------------------------
def test_fire_is_false_when_nothing_armed():
    assert not failpoints.fire("checkpoint.write.enospc")
    assert failpoints.armed_count() == 0


def test_configure_merges_and_replace_drops():
    failpoints.configure("a=once,b=every:2")
    failpoints.configure("b=after:1,c=once")
    assert failpoints.active_spec() == "a=once,b=after:1,c=once"
    failpoints.configure("d=once", replace=True)
    assert failpoints.active_spec() == "d=once"


def test_rearming_resets_counters():
    failpoints.set_failpoint("a", "once")
    assert failpoints.fire("a")
    assert not failpoints.fire("a")
    failpoints.set_failpoint("a", "once")
    assert failpoints.fire("a"), "re-arm must reset the counter"


def test_is_armed_ignores_off_sites():
    failpoints.configure("a=off,b=once")
    assert not failpoints.is_armed("a")
    assert failpoints.is_armed("b")
    assert failpoints.armed_count() == 1


def test_fired_counts_and_active_spec_round_trip():
    failpoints.configure("a=every:2,b=off")
    for _ in range(4):
        failpoints.fire("a")
        failpoints.fire("b")
    assert failpoints.fired_counts() == {"a": 2, "b": 0}
    # shipping active_spec() to a fresh process reproduces the spec
    shipped = failpoints.active_spec()
    failpoints.configure(shipped, replace=True)
    assert failpoints.active_spec() == shipped


def test_observer_sees_fires_and_exceptions_are_swallowed():
    failpoints.set_failpoint("a", "every:2")
    seen = []

    def boom(site):
        seen.append(site)
        raise RuntimeError("observability must never change injection")

    previous = failpoints.set_observer(boom)
    try:
        assert [failpoints.fire("a") for _ in range(4)] == [
            False, True, False, True,
        ]
    finally:
        assert failpoints.set_observer(previous) is boom
    assert seen == ["a", "a"]


def test_catalog_is_well_formed():
    assert len(CATALOG) >= 15
    assert len(SITES) == len(CATALOG)
    for site in CATALOG:
        assert site.name and site.layer and site.injects and site.outcome
        # every catalogued name must be a valid spec key
        failpoints.set_failpoint(site.name, "off")


# ----------------------------------------------------------------------
# the CRC record layer
# ----------------------------------------------------------------------
def write_campaign_file(path):
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
    for frame in (10, 20):
        writer.write_checkpoint(
            frame=frame,
            good_state_3v=[I, O, X],
            fault_set=fault_set,
            rung_indices={},
            diffs_3v={},
            counters={"fallbacks": 1},
            elapsed=2.5,
        )
    writer.close()


def test_records_carry_valid_crc(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(str(path))
    for line in path.read_text().splitlines():
        record = json.loads(line)
        crc = record.pop("crc")
        body = json.dumps(record, sort_keys=True)
        assert crc == record_crc(body)
    load_checkpoint(str(path))  # round-trips


def test_crcless_records_are_accepted(tmp_path):
    path = tmp_path / "legacy.jsonl"
    writer = JsonlWriter(str(path), fsync=False)
    writer._write({"type": "progress", "version": 1, "n": 1})
    writer.close()
    # strip the crc the writer spliced in, as a pre-CRC file would be
    record = json.loads(path.read_text())
    record.pop("crc")
    path.write_text(json.dumps(record, sort_keys=True) + "\n")
    assert list(read_jsonl_records(str(path), expected_version=1)) == [
        record
    ]


def flip_byte(path, needle):
    data = path.read_bytes()
    pos = data.find(needle)
    assert pos >= 0
    path.write_bytes(data[:pos] + bytes([data[pos] ^ 0x01]) + data[pos + 1:])


def test_flipped_byte_is_crc_detected_strict_and_quarantine(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(str(path))
    # flip inside a string value: the line stays valid JSON, only the
    # CRC can notice
    flip_byte(path, b"s27")
    with pytest.raises(CheckpointError, match="crc"):
        list(read_jsonl_records(str(path)))
    quarantined = []
    records = list(
        read_jsonl_records(str(path), on_corrupt=quarantined.append)
    )
    assert [q["line"] for q in quarantined] == [1]
    assert "crc" in quarantined[0]["reason"]
    assert all(r["type"] == "checkpoint" for r in records)


def test_torn_tail_is_tolerated(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(str(path))
    whole = list(read_jsonl_records(str(path)))
    with open(path, "ab") as handle:
        handle.write(b'{"type": "checkpoint", "version')
    assert list(read_jsonl_records(str(path))) == whole
    checkpoint = load_checkpoint(str(path))
    assert checkpoint.snapshot["frame"] == 20


def test_enospc_failpoint_leaves_valid_file(tmp_path):
    path = tmp_path / "run.ckpt"
    failpoints.set_failpoint("checkpoint.write.enospc", "after:1")
    fault_set = FaultSet([Fault((STEM, 0), 0)])
    writer = CheckpointWriter(str(path))
    writer.write_header(
        circuit_spec="s27",
        sequence=[(0,)],
        fault_keys=[r.fault.key() for r in fault_set],
        ladder=DegradationLadder(),
        node_limit=None,
        initial_state=[X],
        variable_scheme="interleaved",
        fallback_frames=5,
    )
    with pytest.raises(CheckpointError, match="ENOSPC|No space|injected"):
        writer.write_checkpoint(
            frame=1, good_state_3v=[X], fault_set=fault_set,
            rung_indices={}, diffs_3v={}, counters={}, elapsed=0.0,
        )
    writer.close()
    failpoints.clear()
    # the half-written record was truncated back out: the file holds
    # exactly the header and parses cleanly
    records = list(read_jsonl_records(str(path)))
    assert [r["type"] for r in records] == ["header"]
    assert fsck_file(str(path)).corrupt == []


def test_torn_write_failpoint_leaves_skippable_tail(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(str(path))
    failpoints.set_failpoint("checkpoint.write.torn", "once")
    writer = JsonlWriter(str(path), fsync=False)
    with pytest.raises(CheckpointError, match="torn"):
        writer._write({"type": "progress", "version": 1, "frame": 99})
    writer.close()
    failpoints.clear()
    report = fsck_file(str(path))
    assert report.torn_tail
    assert report.ok, "a torn tail is expected crash damage, not corruption"
    # and the reader resumes from the last intact record
    assert load_checkpoint(str(path)).snapshot["frame"] == 20


# ----------------------------------------------------------------------
# fsck
# ----------------------------------------------------------------------
def test_fsck_clean_campaign_checkpoint(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(str(path))
    report = fsck_file(str(path))
    assert report.kind == "campaign"
    assert report.ok and not report.torn_tail
    assert report.records == 3
    _reports, code = fsck_paths([str(path)])
    assert code == 0


def test_fsck_flags_flipped_byte(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(str(path))
    flip_byte(path, b"s27")
    report = fsck_file(str(path))
    assert not report.ok
    assert [entry["line"] for entry in report.corrupt] == [1]
    # the CRC-damaged header is quarantined, so structure checking
    # also notices the resume-refusing loss
    assert any("header" in p["reason"] for p in report.problems)
    _reports, code = fsck_paths([str(path)])
    assert code == 4


def test_fsck_flags_fault_list_mismatch(tmp_path):
    path = tmp_path / "run.ckpt"
    write_campaign_file(str(path))
    lines = path.read_text().splitlines()
    record = json.loads(lines[1])
    record.pop("crc")
    record["faults"] = record["faults"][:1]  # drop one fault's state
    body = json.dumps(record, sort_keys=True)
    lines[1] = f'{body[:-1]}, "crc": {record_crc(body)}}}'
    path.write_text("\n".join(lines) + "\n")
    report = fsck_file(str(path))
    assert not report.ok
    assert any(
        "does not match header" in p["reason"] for p in report.problems
    )


def test_fsck_journal_state_machine(tmp_path):
    from repro.service.journal import JobJournal

    path = tmp_path / "journal.jsonl"
    journal = JobJournal(str(path))
    journal.service_event("start")
    journal.job_event("job-1", "submitted", spec={"circuit": "s27"})
    journal.job_event("job-1", "running")
    journal.job_event("job-1", "done")
    journal.close()
    report = fsck_file(str(path))
    assert report.kind == "journal" and report.ok

    # splice a hand-forged done->running record (valid CRC, bad state)
    record = {"type": "job", "id": "job-1", "state": "running",
              "version": 1}
    body = json.dumps(record, sort_keys=True)
    with open(path, "a") as handle:
        handle.write(f'{body[:-1]}, "crc": {record_crc(body)}}}\n')
    report = fsck_file(str(path))
    assert not report.ok
    assert any(
        "illegal transition 'done' -> 'running'" in p["reason"]
        for p in report.problems
    )


def test_fsck_unrecognized_and_empty_files(tmp_path):
    empty = tmp_path / "empty.jsonl"
    empty.write_text("")
    with pytest.raises(CheckpointError):
        fsck_file(str(empty))
    weird = tmp_path / "weird.jsonl"
    weird.write_text('{"type": "mystery", "version": 1}\n')
    with pytest.raises(CheckpointError, match="unrecognized"):
        fsck_file(str(weird))


def test_fsck_cli_exit_codes(tmp_path, capsys):
    from repro.cli import main

    path = tmp_path / "run.ckpt"
    write_campaign_file(str(path))
    assert main(["fsck", str(path)]) == 0
    out = capsys.readouterr().out
    assert "clean" in out
    flip_byte(path, b"s27")
    assert main(["fsck", "--json", str(path)]) == 4
    report = json.loads(capsys.readouterr().out)
    assert report["ok"] is False and report["kind"] == "campaign"


def test_cli_failpoints_flag_rejects_bad_spec(tmp_path, capsys):
    from repro.cli import main

    code = main(["simulate", "s27", "--length", "2",
                 "--failpoints", "bdd.alloc=banana"])
    assert code == 2
    assert "bad failpoint spec" in capsys.readouterr().err


# ----------------------------------------------------------------------
# pressure surrenders name the rung that gave up
# ----------------------------------------------------------------------
@pytest.mark.parametrize(
    "site, trigger, measure",
    [
        ("pressure.evict", "evict", "cache_size"),
        ("pressure.gc", "gc", "nodes"),
        ("pressure.rescue", "rescue", "nodes"),
    ],
)
def test_failpoint_surrender_names_its_rung(site, trigger, measure):
    from repro.bdd.pressure import PressureConfig
    from repro.circuit.compile import compile_circuit
    from repro.circuits.registry import get_circuit
    from repro.faults.collapse import collapse_faults
    from repro.runtime import run_campaign
    from repro.sequences.random_seq import random_sequence_for

    compiled = compile_circuit(get_circuit("lfsr8"))
    faults, _ = collapse_faults(compiled)
    failpoints.set_failpoint(site, "once")
    result = run_campaign(
        compiled, random_sequence_for(compiled, 40, seed=1),
        FaultSet(faults), node_limit=3000,
        pressure=PressureConfig(
            gc_watermark=0.2, cache_budget=500, reorder_rescue=True,
        ),
    )
    surrenders = [
        event for event in result.pressure["log"]
        if event["action"] == "surrender"
    ]
    assert len(surrenders) == 1
    (event,) = surrenders
    assert event["trigger"] == trigger
    assert event[measure] > 0
    assert "rss" not in event
    # not an RSS surrender: the process never crossed a watermark
    assert result.pressure["rss_surrenders"] == 0
