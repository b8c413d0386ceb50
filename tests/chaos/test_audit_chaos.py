"""Chaos: SIGKILL a worker mid-audit.

The sharded audit must survive a murdered worker — the crashed shard
is retried on a fresh process — and still produce byte-identical
verdicts to an undisturbed serial audit.  Randomized by CHAOS_SEED
like the campaign chaos tests.
"""

import json
import os
import random
import signal

import pytest

from repro.audit import AuditOptions, run_audit
from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime.fabric import FabricConfig
from repro.runtime import run_campaign
from repro.sequences.random_seq import random_sequence_for

CHAOS_SEED = int(os.environ.get("CHAOS_SEED", "1"))


@pytest.fixture(scope="module")
def audited_ctr8():
    compiled = compile_circuit(get_circuit("ctr8"))
    sequence = random_sequence_for(compiled, 40, seed=7)
    faults, _ = collapse_faults(compiled)
    fault_set = FaultSet(faults)
    result = run_campaign(compiled, sequence, fault_set)
    serial = run_audit(
        compiled,
        sequence,
        fault_set,
        options=AuditOptions(mode="full", seed=CHAOS_SEED),
        strategy=result.ladder[0] if result.ladder else "MOT",
        complete=result.stopped == "completed",
        exact=result.exact,
    )
    expected = json.dumps(serial.to_json(), sort_keys=True)
    return compiled, sequence, fault_set, result, expected


def test_sigkill_worker_mid_audit(audited_ctr8):
    compiled, sequence, fault_set, result, expected = audited_ctr8
    rng = random.Random(CHAOS_SEED)
    target_dispatch = rng.randrange(1, 3)
    state = {"dispatches": 0, "killed": None}

    def events(event):
        if event["event"] != "dispatch" or state["killed"] is not None:
            return
        state["dispatches"] += 1
        if state["dispatches"] == target_dispatch:
            state["killed"] = event["pid"]
            os.kill(event["pid"], signal.SIGKILL)

    config = FabricConfig(workers=2, shard_size=4, events=events)
    report = run_audit(
        compiled,
        sequence,
        fault_set,
        options=AuditOptions(mode="full", seed=CHAOS_SEED),
        strategy=result.ladder[0] if result.ladder else "MOT",
        complete=result.stopped == "completed",
        exact=result.exact,
        fabric_config=config,
    )
    assert state["killed"] is not None, (
        f"dispatch #{target_dispatch} never happened "
        f"({state['dispatches']} total) — shrink target_dispatch"
    )
    assert json.dumps(report.to_json(), sort_keys=True) == expected, (
        f"audit verdicts diverged after SIGKILL (seed {CHAOS_SEED})"
    )


def test_sigkill_then_resume_from_audit_checkpoint(audited_ctr8, tmp_path):
    # a killed coordinator leaves a partial audit checkpoint behind;
    # resuming it sharded must reach the same verdicts as the serial
    # baseline
    compiled, sequence, fault_set, result, expected = audited_ctr8
    path = str(tmp_path / "audit.ckpt")
    options = AuditOptions(mode="full", seed=CHAOS_SEED,
                           checkpoint_path=path)
    run_audit(
        compiled, sequence, fault_set, options=options,
        strategy=result.ladder[0] if result.ladder else "MOT",
        complete=result.stopped == "completed", exact=result.exact,
    )
    with open(path, "r", encoding="utf-8") as handle:
        lines = handle.read().splitlines()
    cut = 1 + len(lines) // 2
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines[:cut]) + "\n")
        handle.write(lines[cut][: len(lines[cut]) // 2])

    resumed = run_audit(
        compiled, sequence, fault_set,
        options=AuditOptions(mode="full", seed=CHAOS_SEED,
                             checkpoint_path=path),
        strategy=result.ladder[0] if result.ladder else "MOT",
        complete=result.stopped == "completed", exact=result.exact,
        workers=2,
    )
    assert json.dumps(resumed.to_json(), sort_keys=True) == expected
