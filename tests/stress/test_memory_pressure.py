"""Memory-pressure stress: blowup-prone circuits under tiny watermarks.

These are the CI memory-stress scenarios: a campaign on an
order-hostile circuit with watermarks far below anything sensible must
still complete, classify every fault, surface its relief work in the
accounting, and never detect a fault the unconstrained baseline does
not (relief is semantics-preserving; surrender is conservative).
"""

from repro.bdd import PressureConfig
from repro.circuit.compile import compile_circuit
from repro.circuits.generators import nlfsr
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.runtime import run_campaign
from repro.sequences.random_seq import random_sequence_for


def classified(fault_set):
    counts = fault_set.counts()
    return (
        counts["detected"]
        + counts["undetected"]
        + counts["x_redundant"]
        + counts.get("quarantined", 0)
    ) == counts["total"]


def detected_keys(fault_set):
    return {r.fault.key() for r in fault_set.detected()}


def test_tight_watermarks_complete_and_stay_conservative():
    compiled = compile_circuit(nlfsr(9, seed=4))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 30, seed=5)

    baseline_set = FaultSet(faults)
    baseline = run_campaign(
        compiled, sequence, baseline_set, node_limit=200_000
    )
    assert baseline.stopped == "completed"

    pressured_set = FaultSet(faults)
    pressured = run_campaign(
        compiled, sequence, pressured_set,
        node_limit=3_000,
        pressure=PressureConfig(
            gc_watermark=0.2, live_fraction=1.0, cache_budget=128,
            reorder_rescue=True, check_stride=32,
        ),
    )
    assert pressured.stopped == "completed"
    assert classified(pressured_set)
    accounting = pressured.pressure
    assert accounting is not None
    assert accounting["events"] > 0
    assert accounting["gc_runs"] > 0
    assert pressured.runtime_summary()["pressure"] is accounting
    # conservatism: pressure can lose detections, never invent them
    assert detected_keys(pressured_set) <= detected_keys(baseline_set)


def test_hard_rss_surrender_degrades_through_the_ladder():
    # a sampler stuck above the hard watermark forces every symbolic
    # rung to surrender; the campaign must degrade conservatively
    # (per-fault "pressure" demotions when the blowup is attributable,
    # whole-group 3v fallbacks when it is not) and still finish
    compiled = compile_circuit(nlfsr(6, seed=2))
    faults, _ = collapse_faults(compiled)
    fault_set = FaultSet(faults)
    sequence = random_sequence_for(compiled, 12, seed=3)
    result = run_campaign(
        compiled, sequence, fault_set,
        node_limit=10_000,
        pressure=PressureConfig(
            rss_budget=1_000, check_stride=8,
            rss_sampler=lambda: 1_000_000,
        ),
    )
    assert result.stopped == "completed"
    assert classified(fault_set)
    assert result.pressure["rss_surrenders"] > 0
    reasons = {entry[4] for entry in result.demotion_log}
    assert "pressure" in reasons or result.fallbacks > 0
    assert not result.exact  # surrender is a degradation


def test_pressure_config_alone_reports_the_peak_rss(s27_compiled,
                                                    s27_fault_set):
    # the monitors read RSS through the governor's probe, so relief
    # armed by a PressureConfig alone (no governor RSS budget) still
    # reports the peak it read, the same figure in both dicts
    sequence = random_sequence_for(s27_compiled, 20, seed=1)
    result = run_campaign(
        s27_compiled, sequence, s27_fault_set,
        pressure=PressureConfig(rss_budget=1 << 40, check_stride=1),
    )
    assert result.pressure["peak_rss"] > 0
    assert result.budget["peak_rss"] == result.pressure["peak_rss"]


def test_worker_rss_cap_recycles_and_completes():
    from repro.runtime.fabric import run_sharded_campaign

    compiled = compile_circuit(nlfsr(10, seed=6))
    faults, _ = collapse_faults(compiled)
    subset = FaultSet([f for f in faults][:2])
    sequence = random_sequence_for(compiled, 400, seed=7)
    # a 1-byte cap condemns every worker at its first heartbeat; the
    # retry -> bisect -> quarantine chain must terminate the campaign
    # instead of looping on respawns
    result = run_sharded_campaign(
        compiled, sequence, subset,
        workers=1, shard_size=2, max_retries=1,
        worker_rss_cap=1,
        heartbeat_timeout=30.0, shard_timeout=30.0,
    )
    fabric = result.runtime_summary()["fabric"]
    assert fabric["rss_recycles"] >= 1
    assert fabric["peak_worker_rss"] > 1
    assert result.stopped == "completed"
    assert subset.counts()["quarantined"] == 2
