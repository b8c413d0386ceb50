"""Shard fabric: exactness, crash recovery, bisection, resume.

The fabric's core contract is that sharding never changes a result:
every test here ultimately compares fault statuses against the
single-process campaign.  The failure-path tests use the deterministic
chaos hooks (``FabricConfig.chaos``) and the events observability hook
to kill real worker processes at precise moments.
"""

import json
import os
import signal

import pytest

from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.status import QUARANTINED, FaultSet
from repro.runtime import run_campaign
from repro.runtime.errors import CheckpointError
from repro.runtime.fabric import (
    FabricConfig,
    coordinator,
    aligned_shard_size,
    load_fabric_checkpoint,
    plan_shards,
    resume_sharded_campaign,
    run_sharded_campaign,
    run_shard,
    shard_id_text,
)
from repro.runtime.fabric.sharding import Shard
from repro.sequences.random_seq import random_sequence_for
from repro.service.executor import verdict_rows


@pytest.fixture(scope="module")
def s27_setup():
    compiled = compile_circuit(get_circuit("s27"))
    sequence = random_sequence_for(compiled, 20, seed=7)
    return compiled, sequence


@pytest.fixture(scope="module")
def ctr8_setup():
    compiled = compile_circuit(get_circuit("ctr8"))
    sequence = random_sequence_for(compiled, 40, seed=7)
    return compiled, sequence


def fresh_faults(compiled):
    faults, _ = collapse_faults(compiled)
    return FaultSet(faults)


def signature(fault_set):
    return [
        (r.fault.key(), r.status, r.detected_by, r.detected_at)
        for r in fault_set
    ]


def baseline(compiled, sequence):
    fault_set = fresh_faults(compiled)
    run_campaign(compiled, sequence, fault_set)
    return signature(fault_set)


# ----------------------------------------------------------------------
# shard planning
# ----------------------------------------------------------------------
def test_shard_ids_sort_in_bisection_order():
    shard = Shard((3,), list(range(8)))
    low, high = shard.split()
    assert low.shard_id == (3, 0) and high.shard_id == (3, 1)
    assert low.indices + high.indices == shard.indices
    assert low.crashes == 0  # fresh counters for the halves
    assert sorted([(4,), (3, 1), (3,), (3, 0)]) == [
        (3,), (3, 0), (3, 1), (4,),
    ]
    assert shard_id_text((3, 1)) == "3.1"


def test_plan_shards_partitions_without_overlap():
    shards = plan_shards(list(range(10)), 4)
    assert [s.shard_id for s in shards] == [(0,), (1,), (2,)]
    assert [i for s in shards for i in s.indices] == list(range(10))


def test_aligned_shard_size_respects_pack_alignment():
    # size above the pack width is rounded down to a multiple
    assert aligned_shard_size(4096, 2, align=256) % 256 == 0
    # tiny universes still get a sane size
    assert aligned_shard_size(3, 8) >= 1
    assert aligned_shard_size(0, 2) >= 1
    # explicit sizes are validated, not silently replaced
    assert aligned_shard_size(100, 2, shard_size=7) == 7


# ----------------------------------------------------------------------
# exactness: pooled and inline runs match the single-process campaign
# ----------------------------------------------------------------------
@pytest.mark.parametrize("workers", [0, 1, 2])
def test_fabric_matches_single_process(s27_setup, workers):
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    fault_set = fresh_faults(compiled)
    result = run_campaign(
        compiled, sequence, fault_set, workers=workers, shard_size=8
    )
    assert signature(fault_set) == expected
    assert result.stopped == "completed"
    fabric = result.runtime_summary()["fabric"]
    assert fabric["shards_completed"] == fabric["shards_planned"]


def test_fabric_matches_on_larger_circuit(ctr8_setup):
    compiled, sequence = ctr8_setup
    expected = baseline(compiled, sequence)
    fault_set = fresh_faults(compiled)
    result = run_campaign(compiled, sequence, fault_set, workers=2)
    assert signature(fault_set) == expected
    assert result.stopped == "completed"


def test_pooled_and_inline_shards_agree_under_a_node_limit():
    # lfsr8 at 2,000 nodes overflows inside its shards and demotes;
    # with one shard plan (16 faults each) every execution path runs
    # the same shard body, so the pool reproduces the inline verdicts
    # (the ledger's lfsr8-MOT-2000-inline-fabric row) exactly.  Only
    # the plan moves verdicts under a node limit, not the processes.
    compiled = compile_circuit(get_circuit("lfsr8"))
    sequence = random_sequence_for(compiled, 40, seed=1)
    outcomes = {}
    for workers in (0, 1, 2):
        fault_set = fresh_faults(compiled)
        result = run_campaign(
            compiled, sequence, fault_set, strategy="MOT",
            node_limit=2000, workers=workers, shard_size=16,
        )
        outcomes[workers] = (
            fault_set.counts()["detected"], result.demotions,
            verdict_rows(fault_set),
        )
    assert outcomes[0][:2] == (35, 4)
    assert outcomes[1] == outcomes[0]
    assert outcomes[2] == outcomes[0]


def test_empty_shard_returns_canonical_payload(s27_setup):
    compiled, sequence = s27_setup
    faults = [r.fault for r in fresh_faults(compiled)]
    payload = run_shard(compiled, faults, sequence, [], {})
    assert payload["states"] == []
    assert payload["stopped"] == "completed"
    assert payload["nodes_allocated"] == 0


def test_indivisible_live_count_is_fully_covered(s27_setup):
    # 32 faults, shard_size 5: the tail shard is smaller, nothing lost
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    fault_set = fresh_faults(compiled)
    run_campaign(compiled, sequence, fault_set, workers=2, shard_size=5)
    assert signature(fault_set) == expected


# ----------------------------------------------------------------------
# crash recovery
# ----------------------------------------------------------------------
def test_sigkill_mid_campaign_loses_no_detections(s27_setup):
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    killed = []

    def events(event):
        if event["event"] == "dispatch" and not killed:
            killed.append(event["pid"])
            os.kill(event["pid"], signal.SIGKILL)

    fault_set = fresh_faults(compiled)
    config = FabricConfig(workers=2, shard_size=8, events=events)
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    assert killed, "the events hook never saw a dispatch"
    assert fabric["retries"] >= 1
    assert fabric["respawns"] >= 1
    assert signature(fault_set) == expected


def test_poison_fault_is_bisected_and_quarantined(s27_setup):
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    fault_set = fresh_faults(compiled)
    poison_index = 5
    poison = fault_set.records[poison_index].fault.key()
    config = FabricConfig(
        workers=2, shard_size=8, chaos={"crash_keys": [poison]},
    )
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    assert fault_set.records[poison_index].status == QUARANTINED
    assert poison in result.quarantined
    assert fabric["bisections"] >= 1
    assert fabric["quarantined_by_crash"] == 1
    # every other fault still matches the single-process run
    got = signature(fault_set)
    for index, (want, have) in enumerate(zip(expected, got)):
        if index != poison_index:
            assert want == have
    assert not result.exact  # a quarantine makes the result conservative


def test_hung_worker_is_killed_via_heartbeat_timeout(s27_setup, monkeypatch):
    compiled, sequence = s27_setup
    fault_set = fresh_faults(compiled)
    hang = fault_set.records[9].fault.key()
    monkeypatch.setattr(coordinator, "HANG_WINDOW", 0.5)
    config = FabricConfig(
        workers=2, shard_size=8,
        chaos={"hang_keys": [hang], "hang_seconds": 120.0},
    )
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    # a silent worker is a hang, never a shard timeout
    assert fabric["hangs"] >= 1
    assert fabric["timeouts"] == 0
    # a deterministic hang ends quarantined, like a deterministic crash
    assert fault_set.records[9].status == QUARANTINED
    assert result.stopped == "completed"


def test_crashed_shard_is_retried_with_backoff(s27_setup):
    # one crash (below max_retries=2) -> plain retry, no bisection
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    killed = []

    def events(event):
        if event["event"] == "dispatch" and len(killed) < 1:
            killed.append(event["pid"])
            os.kill(event["pid"], signal.SIGKILL)

    fault_set = fresh_faults(compiled)
    config = FabricConfig(
        workers=1, shard_size=64, events=events, max_retries=3,
    )
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    assert fabric["retries"] == 1
    assert fabric["bisections"] == 0
    assert signature(fault_set) == expected


def test_worker_error_message_requeues_the_shard(s27_setup, monkeypatch):
    # a Python-level exception in the worker (not a process death)
    # travels back as an "error" message and is handled like a crash
    compiled, sequence = s27_setup
    fault_set = fresh_faults(compiled)
    bad = fault_set.records[0].fault.key()

    import repro.runtime.fabric.worker as worker_mod

    original = worker_mod.run_shard

    def exploding(compiled, faults, sequence, indices, kwargs, **kw):
        if any(faults[i].key() == bad for i in indices):
            raise RuntimeError("injected shard failure")
        return original(compiled, faults, sequence, indices, kwargs, **kw)

    monkeypatch.setattr(worker_mod, "run_shard", exploding)
    # fork workers (the fabric forks where it can) inherit the
    # monkeypatched module
    config = FabricConfig(workers=1, shard_size=8)
    if "fork" not in __import__("multiprocessing").get_all_start_methods():
        pytest.skip("fork start method unavailable")
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    assert fault_set.records[0].status == QUARANTINED
    assert result.runtime_summary()["fabric"]["bisections"] >= 1


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------
def test_fabric_checkpoint_roundtrip_and_resume(s27_setup, tmp_path):
    compiled, sequence = s27_setup
    expected = baseline(compiled, sequence)
    path = str(tmp_path / "fabric.ckpt")

    fault_set = fresh_faults(compiled)
    run_sharded_campaign(
        compiled, sequence, fault_set, workers=2, shard_size=8,
        checkpoint_path=path,
    )
    checkpoint = load_fabric_checkpoint(path)
    assert len(checkpoint.shards) == 4
    assert checkpoint.covered_indices() == set(range(32))

    # simulate a coordinator killed after three shards: drop the rest
    lines = open(path).read().splitlines(True)
    records = [json.loads(line) for line in lines]
    kept = [
        line
        for line, record in zip(lines, records)
        if record["type"] != "shard"
    ] + [
        line
        for line, record in zip(lines, records)
        if record["type"] == "shard"
    ][:3]
    with open(path, "w") as handle:
        handle.writelines(kept)

    resumed = fresh_faults(compiled)
    result = resume_sharded_campaign(
        path, compiled=compiled, fault_set=resumed
    )
    fabric = result.runtime_summary()["fabric"]
    assert fabric["resumed_shards"] == 3
    assert fabric["shards_completed"] == fabric["shards_planned"]
    assert signature(resumed) == expected


def test_fabric_resume_rejects_mismatched_faults(s27_setup, tmp_path):
    compiled, sequence = s27_setup
    path = str(tmp_path / "fabric.ckpt")
    fault_set = fresh_faults(compiled)
    run_sharded_campaign(
        compiled, sequence, fault_set, workers=0, checkpoint_path=path
    )
    wrong = fresh_faults(compiled)
    wrong.records = wrong.records[:-1]
    with pytest.raises(CheckpointError):
        resume_sharded_campaign(path, compiled=compiled, fault_set=wrong)


def test_load_fabric_checkpoint_requires_header(tmp_path):
    path = tmp_path / "bogus.ckpt"
    path.write_text('{"type": "shard", "id": [0]}\n')
    with pytest.raises(CheckpointError):
        load_fabric_checkpoint(str(path))


# ----------------------------------------------------------------------
# configuration and accounting
# ----------------------------------------------------------------------
def test_fabric_config_validation():
    for fields in (
        {"workers": -1},
        {"max_retries": 0},
        {"shard_size": 0},
        {"shard_size": -3},
        {"shard_timeout": 0},
        {"shard_timeout": -1.0},
        {"worker_rss_cap": 0},
        {"worker_rss_cap": -1},
    ):
        with pytest.raises(ValueError):
            FabricConfig(**fields)
        # a checkpoint header is rebuilt through the same checks
        with pytest.raises(ValueError):
            FabricConfig.from_json(fields)


def test_fabric_config_from_an_older_header_ignores_dropped_knobs():
    config = FabricConfig.from_json({
        "workers": 1, "shard_size": 8, "shard_timeout": None,
        "heartbeat_timeout": None, "hang_grace": 200, "max_retries": 3,
        "worker_rss_cap": None,
    })
    assert config.to_json() == {
        "workers": 1, "shard_size": 8, "shard_timeout": None,
        "max_retries": 3, "worker_rss_cap": None,
    }


def test_fabric_accounting_in_runtime_summary(s27_setup):
    compiled, sequence = s27_setup
    fault_set = fresh_faults(compiled)
    result = run_campaign(compiled, sequence, fault_set, workers=2)
    summary = result.runtime_summary()
    fabric = summary["fabric"]
    for key in (
        "workers", "shards_planned", "shards_completed", "retries",
        "respawns", "bisections", "timeouts", "quarantined_by_crash",
        "resumed_shards",
    ):
        assert key in fabric
    # a single-process result carries no fabric block at all
    single = fresh_faults(compiled)
    plain = run_campaign(compiled, sequence, single)
    assert "fabric" not in plain.runtime_summary()


def test_fabric_budget_reports_the_shards_peak_rss(s27_compiled):
    # the shards read RSS through their own governors' probes; the
    # merged result reports their peak in both accountings, as an
    # in-process campaign reports its one probe's peak in both
    from repro.bdd.pressure import PressureConfig

    sequence = random_sequence_for(s27_compiled, 20, seed=1)
    result = run_sharded_campaign(
        s27_compiled, sequence, fresh_faults(s27_compiled),
        strategy="MOT",
        pressure=PressureConfig(rss_budget=1 << 40, check_stride=1),
        config=FabricConfig(workers=0, shard_size=8),
    )
    assert result.pressure["peak_rss"] > 0
    assert result.budget["peak_rss"] == result.pressure["peak_rss"]
    assert result.budget["peak_rss"] == result.fabric["peak_worker_rss"]
