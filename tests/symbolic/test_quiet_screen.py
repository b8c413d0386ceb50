"""The quiet-fault screen of ``SymbolicSession.step``.

A fault-frame the screen skips must be one ``propagate_fault`` would
have spent for nothing: no node built, nothing reaching a primary
output or a flip-flop.  Checked four ways: a property of the screen
over random circuits (every skipped fault-frame is inert, every
unexcited one is skipped), the per-frame sweep against a reference
walk of each gate pin, hand-made frames through each case of the
region walk, and a differential of whole sessions against the
unscreened step under SOT, rMOT and MOT, with and without node-limit
overflows.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd.errors import SpaceLimitExceeded
from repro.circuit.compile import compile_circuit
from repro.circuit.netlist import Circuit
from repro.circuit.gates import controlling_value
from repro.circuit.regions import region_sinks
from repro.circuits.generators import nlfsr
from repro.circuits.iscas import s27
from repro.circuits.registry import get_circuit
from repro.engines import propagate
from repro.engines.evaluate import gate_value, simulate_frame
from repro.engines.propagate import propagate_fault
from repro.faults.collapse import collapse_faults
from repro.faults.model import stem_signal
from repro.faults.status import FaultSet
from repro.faults.universe import enumerate_faults
from repro.obs import MetricsRegistry
from repro.obs.tracer import ListSink, Tracer
from repro.runtime import run_campaign
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic import fault_sim
from repro.symbolic.fault_sim import QuietScreen, SymbolicSession
from tests.util import random_circuit

STRATEGIES = ("SOT", "rMOT", "MOT")


def _random_compiled(draw):
    return compile_circuit(
        random_circuit(
            draw(st.integers(0, 100_000)),
            num_pis=draw(st.integers(1, 4)),
            num_dffs=draw(st.integers(1, 4)),
            num_gates=draw(st.integers(3, 24)),
            num_pos=draw(st.integers(1, 3)),
        )
    )


def _vectors(compiled, count, seed):
    rng = random.Random(seed)
    return [
        tuple(rng.randrange(2) for _ in compiled.pis) for _ in range(count)
    ]


class ConstantsOnly:
    """The gate helper of ``propagate_fault``, noting whether any
    operand it received was not a constant."""

    def __init__(self):
        self.symbolic = False

    def __call__(self, algebra, opcode, inverted, operands):
        self.symbolic |= any(value > 1 for value in operands)
        return gate_value(algebra, opcode, inverted, operands)


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_every_skipped_fault_frame_is_inert(data):
    """After a few random frames (so that the good machine carries
    non-constant values and some faults carry state differences), every
    fault the screen skips is one whose ``propagate_fault`` evaluates
    constants only, builds no node, leaves no next-state difference and
    reaches no primary output; and every unexcited fault is skipped."""
    compiled = _random_compiled(data.draw)
    vectors = _vectors(
        compiled,
        data.draw(st.integers(1, 5)),
        data.draw(st.integers(0, 100_000)),
    )
    strategy = data.draw(st.sampled_from(STRATEGIES))
    session = SymbolicSession(compiled, strategy)
    session.attach_faults(FaultSet(enumerate_faults(compiled)).records)
    for vector in vectors[:-1]:
        session.step(vector, mark_detected=False)
    vector = vectors[-1]

    manager, algebra = session.manager, session.algebra
    good_values = simulate_frame(
        compiled, algebra, [algebra.const(bit) for bit in vector],
        session.good_state,
    )
    # each fault's unscreened frame, in store order, right after the
    # good frame: before anything else can have built its nodes
    inert = set()
    unexcited = set()
    for record, state_diff, *_ in session._store.values():
        fault = record.fault
        if state_diff:
            continue
        if good_values[stem_signal(compiled, fault)] == algebra.const(
            fault.value
        ):
            unexcited.add(fault.key())
        before = manager.num_nodes
        watched = ConstantsOnly()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(propagate, "gate_value", watched)
            result = propagate_fault(
                compiled, algebra, good_values, fault, {}
            )
        if (
            not watched.symbolic
            and manager.num_nodes == before
            and not result.next_state_diff
            and not any(compiled.po_sinks[sig] for sig in result.diff)
        ):
            inert.add(fault.key())

    live = {record.fault.key() for record in session.live_records()}
    stepped = set()

    def recording(compiled, algebra, good_values, fault, state_diff):
        stepped.add(fault.key())
        return propagate_fault(
            compiled, algebra, good_values, fault, state_diff
        )

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fault_sim, "propagate_fault", recording)
        session.step(vector, mark_detected=False)
    skipped = live - stepped
    assert skipped <= inert
    assert unexcited <= skipped


# --- the per-frame sweep against a reference walk ------------------------


def reference_walk(compiled, good_values, walk):
    """The region walk from gate pin *walk*, one gate at a time:
    ``(verdict, pins walked)``.  It ends unquiet at a non-constant side
    input or at the region head, and quiet at a constant controlling
    side input."""
    sinks = region_sinks(compiled)
    path = []
    while walk is not None:
        path.append(walk)
        gate_pos, pin = walk
        gate = compiled.gates[gate_pos]
        sides = [
            good_values[src]
            for position, src in enumerate(gate.fanins)
            if position != pin
        ]
        if any(value > 1 for value in sides):
            return False, path
        if controlling_value(gate.kind) in sides:
            return True, path
        walk = sinks[gate.out]
    return False, path


@given(st.data())
@settings(max_examples=200, deadline=None)
def test_the_sweep_decides_every_gate_pin_as_the_reference_walk(data):
    compiled = _random_compiled(data.draw)
    # 0 and 1 are the BDD constants, 7 stands for any non-constant
    good_values = data.draw(st.lists(
        st.sampled_from((0, 1, 7)),
        min_size=compiled.num_signals, max_size=compiled.num_signals,
    ))
    screen = QuietScreen(compiled)
    quiet = screen.sweep(good_values)
    assert len(quiet) == screen.num_pins
    for cg in compiled.gates:
        for pin in range(len(cg.fanins)):
            verdict, _path = reference_walk(
                compiled, good_values, (cg.pos, pin)
            )
            assert quiet[screen.pin(cg.pos, pin)] == verdict


# --- the region walk, on hand-made frames ---------------------------------
#
#   x = XOR(a, b)   y = AND(x, c)   z = NOR(y, d, e)   z is observed
#
# A fault effect entering pin 0 of the XOR walks x -> y -> z.  Good values
# are fabricated: 0 and 1 are the BDD constants, 7 stands for any
# non-constant function.

NON_CONSTANT = 7


def _walk_frame(**values):
    circuit = Circuit("walk")
    for name in "abcde":
        circuit.add_input(name)
    circuit.add_gate("x", "XOR", ["a", "b"])
    circuit.add_gate("y", "AND", ["x", "c"])
    circuit.add_gate("z", "NOR", ["y", "d", "e"])
    circuit.add_output("z")
    compiled = compile_circuit(circuit)
    good_values = [NON_CONSTANT] * compiled.num_signals
    for name, value in values.items():
        good_values[compiled.index[name]] = value
    entry = compiled.fanout_gates[compiled.index["a"]][0]
    return compiled, good_values, entry


def _quiet(**values):
    compiled, good_values, entry = _walk_frame(**values)
    screen = QuietScreen(compiled)
    quiet = screen.sweep(good_values)
    verdict = quiet[screen.pin(*entry)]
    # every pin the walk passes shares the verdict
    _reference, path = reference_walk(compiled, good_values, entry)
    assert {quiet[screen.pin(*walked)] for walked in path} == {verdict}
    return verdict


def test_a_constant_controlling_side_input_stops_the_effect():
    assert _quiet(b=1, c=0, d=0, e=0)
    assert _quiet(b=0, c=1, d=0, e=1)  # NOR controlled by e


def test_an_xor_passes_the_effect_on():
    # the XOR's side input is constant, but an XOR is never controlled
    assert not _quiet(b=1, c=1, d=0, e=0)


def test_the_walk_ends_unquiet_at_the_region_head():
    assert not _quiet(b=0, c=1, d=0, e=0)


def test_a_non_constant_side_input_ends_the_walk():
    # even with a controlling constant further on
    assert not _quiet(b=NON_CONSTANT, c=0, d=0, e=0)
    assert not _quiet(b=1, c=1, d=NON_CONSTANT, e=1)


def test_the_walk_is_memoised_per_gate_pin():
    compiled, good_values, entry = _walk_frame(b=1, c=0, d=0, e=0)
    screen = QuietScreen(compiled)
    quiet = screen.sweep(good_values)
    assert quiet[screen.pin(*entry)]
    # x -> y is on the way: one sweep decides its pin too
    y_pin = screen.sink_pin[compiled.index["x"]]
    assert quiet[y_pin]
    assert y_pin == screen.pin(*region_sinks(compiled)[compiled.index["x"]])


# --- whole sessions against the unscreened step ---------------------------


def _never_quiet(_session, _fault):
    """A static screen no fault passes: no good value equals ``None``
    and there is no walk, so every fault-frame runs ``propagate_fault``
    and every MOT observation, as the step did before the screen."""
    return 0, None, None


def _node_store(manager):
    return manager._var, manager._low, manager._high


def _state(session):
    store = [
        (record.fault.key(), dict(state_diff), acc)
        for record, state_diff, acc, *_ in session._store.values()
    ]
    return (
        session.time,
        list(session.good_state),
        store,
        session.manager.num_nodes,
        _node_store(session.manager),
    )


def _verdicts(fault_set):
    return [
        (r.fault.key(), r.status, r.detected_by, r.detected_at)
        for r in fault_set.records
    ]


def _open(compiled, strategy, node_limit, screened):
    faults, _ = collapse_faults(compiled)
    fault_set = FaultSet(faults)
    with pytest.MonkeyPatch.context() as patch:
        if not screened:
            patch.setattr(SymbolicSession, "_screen_of", _never_quiet)
        session = SymbolicSession(compiled, strategy, node_limit=node_limit)
        session.attach_faults(fault_set.records)
    return session, fault_set


def _step(session, vector):
    quiet_before = session.quiet_skips
    try:
        detected = session.step(vector)
    except SpaceLimitExceeded as exc:
        # a step that raises counts nothing: its retry is the frame
        assert session.quiet_skips == quiet_before
        return "overflow", getattr(exc, "fault_key", None)
    return "ok", [record.fault.key() for record in detected]


def assert_screen_is_invisible(compiled, strategy, node_limit, sequence):
    """Lockstep run of a screened and an unscreened session: identical
    outcomes, stores, node stores and verdicts after every step.  An
    overflow is handled as the campaign does it: the fault it names
    leaves both sessions, both collect garbage, and the frame is retried.
    Returns ``(overflows, quiet fault-frames)``."""
    runs = [
        _open(compiled, strategy, node_limit, screened)
        for screened in (True, False)
    ]
    sessions = [session for session, _ in runs]
    overflows = 0
    for vector in sequence:
        while True:
            outcomes = [_step(session, vector) for session in sessions]
            assert outcomes[0] == outcomes[1]
            assert _state(sessions[0]) == _state(sessions[1])
            assert _verdicts(runs[0][1]) == _verdicts(runs[1][1])
            kind, what = outcomes[0]
            if kind == "ok":
                break
            overflows += 1
            if what is None:  # the good frame alone does not fit
                return overflows, sessions[0].quiet_skips
            for session, fault_set in runs:
                record = next(
                    r for r in fault_set.records if r.fault.key() == what
                )
                session.detach(record)
                session.compact()
    assert sessions[1].quiet_skips == 0
    return overflows, sessions[0].quiet_skips


@pytest.mark.parametrize("strategy", STRATEGIES)
@pytest.mark.parametrize(
    "circuit, node_limit, overflows",
    [
        (s27(), None, False),
        (get_circuit("rfsm13r"), None, False),
        (nlfsr(10, seed=3), 200, True),
    ],
    ids=["s27", "rfsm13r", "nlfsr10-overflowing"],
)
def test_a_screened_session_steps_as_the_unscreened_one(
    strategy, circuit, node_limit, overflows
):
    compiled = compile_circuit(circuit)
    sequence = random_sequence_for(compiled, 20, seed=2)
    seen, quiet = assert_screen_is_invisible(
        compiled, strategy, node_limit, sequence
    )
    assert (seen > 0) == overflows
    assert quiet > 0


@given(st.data())
@settings(max_examples=40, deadline=None)
def test_a_screened_session_steps_as_the_unscreened_one_on_random_circuits(
    data,
):
    compiled = _random_compiled(data.draw)
    sequence = _vectors(
        compiled, data.draw(st.integers(1, 8)),
        data.draw(st.integers(0, 100_000)),
    )
    assert_screen_is_invisible(
        compiled,
        data.draw(st.sampled_from(STRATEGIES)),
        data.draw(st.sampled_from((None, 12, 20, 40))),
        sequence,
    )


def test_quiet_fault_frames_are_counted_once_per_committed_step():
    """The ``symbolic.quiet_skips`` metric equals the ``quiet`` fields of
    the campaign's symbolic ``step`` spans, though this campaign retries
    many frames after overflows."""
    compiled = compile_circuit(get_circuit("rfsm13r"))
    faults, _ = collapse_faults(compiled)
    sink = ListSink()
    metrics = MetricsRegistry()
    result = run_campaign(
        compiled, random_sequence_for(compiled, 30, seed=2),
        FaultSet(faults), strategy="MOT", node_limit=400,
        tracer=Tracer(sink, wall=False), metrics=metrics,
    )
    assert result.gc_runs > 0 and result.demotions > 0  # steps retried
    steps = [
        record for record in sink.records
        if record.get("name") == "step" and record.get("mode") == "symbolic"
    ]
    quiet = metrics.counter("symbolic.quiet_skips")
    assert quiet > 0
    assert quiet == sum(record.get("quiet", 0) for record in steps)
