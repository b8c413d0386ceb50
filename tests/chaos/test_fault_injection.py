"""CI chaos job: kill real workers mid-campaign, demand exact results.

These tests SIGKILL a randomly chosen worker process partway through a
sharded campaign on a non-trivial circuit and assert the merged fault
statuses are *identical* to the single-process baseline — the fabric's
acceptance criterion.  The kill moment is drawn from a seeded RNG (the
``CHAOS_SEED`` environment variable overrides it, so a CI failure is
replayable locally with the same schedule).

They run in the regular suite too; the dedicated CI job just runs them
in isolation with verbose output so a fabric regression is unmissable.
"""

import os
import random
import signal

import pytest

from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime import run_campaign
from repro.runtime.fabric import FabricConfig, run_sharded_campaign, worker
from repro.sequences.random_seq import random_sequence_for

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1"))


def fresh_faults(compiled):
    faults, _ = collapse_faults(compiled)
    return FaultSet(faults)


def signature(fault_set):
    return [
        (r.fault.key(), r.status, r.detected_by, r.detected_at)
        for r in fault_set
    ]


@pytest.fixture(scope="module")
def ctr8_setup():
    compiled = compile_circuit(get_circuit("ctr8"))
    sequence = random_sequence_for(compiled, 40, seed=7)
    baseline = fresh_faults(compiled)
    run_campaign(compiled, sequence, baseline)
    return compiled, sequence, signature(baseline)


def test_sigkill_random_worker_mid_campaign(ctr8_setup):
    compiled, sequence, expected = ctr8_setup
    rng = random.Random(CHAOS_SEED)
    target_dispatch = rng.randrange(2, 6)
    state = {"dispatches": 0, "killed": None}

    def events(event):
        if event["event"] != "dispatch" or state["killed"] is not None:
            return
        state["dispatches"] += 1
        if state["dispatches"] == target_dispatch:
            state["killed"] = event["pid"]
            os.kill(event["pid"], signal.SIGKILL)

    fault_set = fresh_faults(compiled)
    config = FabricConfig(workers=2, shard_size=16, events=events)
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    assert state["killed"] is not None, (
        f"dispatch #{target_dispatch} never happened "
        f"({state['dispatches']} total) — shrink target_dispatch"
    )
    assert fabric["retries"] >= 1
    assert fabric["respawns"] >= 1
    assert result.stopped == "completed"
    assert signature(fault_set) == expected, (
        f"coverage diverged after SIGKILL (seed {CHAOS_SEED})"
    )


def test_sigkill_during_heartbeats_mid_shard(ctr8_setup, monkeypatch):
    # kill on a heartbeat rather than a dispatch: the worker dies with
    # a half-simulated shard, whose partial work must be discarded and
    # redone, never merged
    compiled, sequence, expected = ctr8_setup
    state = {"killed": None}

    def events(event):
        if (
            event["event"] == "heartbeat"
            and event["frame"] >= 5
            and state["killed"] is None
        ):
            state["killed"] = event["pid"]
            os.kill(event["pid"], signal.SIGKILL)

    fault_set = fresh_faults(compiled)
    # beat on every frame (forked workers inherit the patch)
    monkeypatch.setattr(worker, "HEARTBEAT_INTERVAL", 0.0)
    config = FabricConfig(workers=2, shard_size=32, events=events)
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    assert state["killed"] is not None, "no heartbeat reached frame 5"
    assert result.runtime_summary()["fabric"]["retries"] >= 1
    assert signature(fault_set) == expected


def test_two_kills_in_a_row_still_exact(ctr8_setup):
    # the same shard may be hit twice (triggering bisection) or two
    # different shards once each — either way the result stays exact
    compiled, sequence, expected = ctr8_setup
    kills = []

    def events(event):
        if event["event"] == "dispatch" and len(kills) < 2:
            kills.append(event["pid"])
            os.kill(event["pid"], signal.SIGKILL)

    fault_set = fresh_faults(compiled)
    config = FabricConfig(
        workers=2, shard_size=16, events=events, max_retries=3,
    )
    result = run_sharded_campaign(
        compiled, sequence, fault_set, config=config
    )
    fabric = result.runtime_summary()["fabric"]
    assert len(kills) == 2
    assert fabric["respawns"] >= 2
    assert not fabric["quarantined_by_crash"]  # transient, not poison
    assert signature(fault_set) == expected
