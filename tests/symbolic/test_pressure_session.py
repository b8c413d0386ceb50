"""In-session memory relief: GC, reorder rescue, ladder recovery."""

from repro.bdd import BddManager, PressureConfig
from repro.circuit.compile import compile_circuit
from repro.circuits.generators import counter, nlfsr
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.fault_sim import SymbolicSession


def sessions_pair(circuit, node_limit=None):
    compiled = compile_circuit(circuit)
    faults, _ = collapse_faults(compiled)
    plain_set, pressured_set = FaultSet(faults), FaultSet(faults)
    plain = SymbolicSession(compiled, "MOT", node_limit=node_limit)
    plain.attach_faults(plain_set.undetected())
    pressured = SymbolicSession(compiled, "MOT", node_limit=node_limit)
    pressured.attach_faults(pressured_set.undetected())
    return compiled, (plain_set, plain), (pressured_set, pressured)


def detected_map(fault_set):
    return {
        r.fault.key(): (r.detected_by, r.detected_at)
        for r in fault_set.detected()
    }


def test_reorder_rescue_preserves_verdicts_and_state():
    compiled, (plain_set, plain), (rescued_set, rescued) = sessions_pair(
        nlfsr(6, seed=5)
    )
    sequence = random_sequence_for(compiled, 15, seed=3)
    for vector in sequence:
        plain.step(vector)
        rescued.step(vector)
        rescued.reorder_rescue(window=2, passes=1)
        assert rescued.project_state_3v() == plain.project_state_3v()
    assert detected_map(rescued_set) == detected_map(plain_set)


def test_reorder_rescue_accepts_only_improvements():
    compiled, _, (fault_set, session) = sessions_pair(counter(5))
    sequence = random_sequence_for(compiled, 8, seed=1)
    for vector in sequence:
        session.step(vector)
        before = session.manager.num_nodes
        saved = session.reorder_rescue()
        if saved:
            assert session.manager.num_nodes == before - saved
        assert saved >= 0


def test_rescue_noop_for_single_dff_and_other_schemes():
    compiled = compile_circuit(counter(1))
    session = SymbolicSession(compiled, "MOT")
    assert session.reorder_rescue() == 0  # num_dffs < 2

    compiled = compile_circuit(counter(3))
    session = SymbolicSession(compiled, "MOT", variable_scheme="blocked")
    assert session.reorder_rescue() == 0  # not the interleaved scheme


def test_pressured_session_matches_plain_session():
    # tiny watermark + eager eviction: relief fires constantly, and the
    # rungs are semantics-preserving so verdicts must not move
    compiled, (plain_set, plain), (pressured_set, pressured) = (
        sessions_pair(nlfsr(7, seed=2), node_limit=50_000)
    )
    config = PressureConfig(
        gc_watermark=0.01, live_fraction=1.0, cache_budget=32,
        reorder_rescue=True, check_stride=16,
    )
    events = []
    pressured.attach_pressure(config.monitor(on_event=events.append))
    sequence = random_sequence_for(compiled, 20, seed=4)
    for vector in sequence:
        plain.step(vector)
        pressured.step(vector)
        assert pressured.project_state_3v() == plain.project_state_3v()
    assert detected_map(pressured_set) == detected_map(plain_set)
    # the ladder actually fired
    assert any(e["action"] == "gc" for e in events)


def test_relief_keeps_tight_session_under_watermark():
    # a session whose store would creep up without GC stays bounded
    # with relief armed and never hits its (generous) limit
    compiled = compile_circuit(nlfsr(8, seed=9))
    faults, _ = collapse_faults(compiled)
    fault_set = FaultSet(faults)
    session = SymbolicSession(compiled, "MOT", node_limit=100_000)
    session.attach_faults(fault_set.undetected())
    config = PressureConfig(gc_watermark=0.005, live_fraction=1.0)
    events = []
    session.attach_pressure(config.monitor(on_event=events.append))
    for vector in random_sequence_for(compiled, 25, seed=6):
        session.step(vector)
    gcs = [e for e in events if e["action"] == "gc"]
    assert gcs
    assert sum(max(e["freed"], 0) for e in gcs) > 0


def test_rescue_carries_alloc_hook_and_peak():
    compiled, _, (fault_set, session) = sessions_pair(nlfsr(6, seed=8))
    ticks = []
    session.manager.alloc_hook = lambda: ticks.append(1)
    sequence = random_sequence_for(compiled, 12, seed=7)
    swapped = False
    for vector in sequence:
        session.step(vector)
        peak_before = session.manager.peak_nodes
        old_manager = session.manager
        session.reorder_rescue(window=2, passes=2)
        if session.manager is not old_manager:
            swapped = True
            assert session.manager.alloc_hook is not None
            assert session.manager.peak_nodes >= peak_before
    if swapped:
        before = len(ticks)
        session.manager.mk_var(0)
        # hook still metering on the replacement manager (mk_var may be
        # cached; force a fresh node)
        session.manager.and_(
            session.manager.mk_var(0), session.manager.mk_var(1)
        )
        assert len(ticks) >= before
