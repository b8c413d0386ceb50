"""Serial and word-parallel three-valued fault simulators.

Key properties:

* both engines detect exactly the same fault set (they implement the
  same semantics),
* every detection is *sound*: for any pair of concrete initial states,
  the faulty machine's Boolean response really differs from the
  fault-free one at the reported (or an earlier) position,
* fault dropping does not change the detected set.
"""

import random

import pytest

from repro.baselines.enumeration import all_states, simulate_concrete
from repro.circuit.compile import compile_circuit
from repro.circuit.netlist import Circuit
from repro.circuits.iscas import s27
from repro.circuits.registry import get_circuit
from repro.engines.parallel_fault_sim import (
    PACK_WIDTH,
    fault_simulate_3v_parallel,
)
from repro.engines.serial_fault_sim import fault_simulate_3v
from repro.faults.collapse import collapse_faults
from repro.faults.status import BY_3V, UNDETECTED, FaultSet
from repro.logic import threeval
from repro.sequences.random_seq import random_sequence_for
from tests.util import GATE_KINDS, random_circuit


def detected_keys(fault_set):
    return {r.fault.key() for r in fault_set.detected()}


def rows(fault_set):
    return [
        (r.fault.key(), r.status, r.detected_by, r.detected_at)
        for r in fault_set
    ]


@pytest.mark.parametrize("seed", range(6))
def test_serial_equals_parallel(seed):
    compiled = compile_circuit(random_circuit(seed, num_gates=18))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 30, seed=seed)
    fs_serial = FaultSet(faults)
    fault_simulate_3v(compiled, sequence, fs_serial)
    fs_parallel = FaultSet(faults)
    fault_simulate_3v_parallel(compiled, sequence, fs_parallel,
                               pack_width=7)
    assert detected_keys(fs_serial) == detected_keys(fs_parallel)


def test_parallel_pack_width_irrelevant():
    compiled = compile_circuit(s27())
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 40, seed=2)
    reference = None
    for width in (1, 3, 64, 1024, PACK_WIDTH):
        fs = FaultSet(faults)
        fault_simulate_3v_parallel(compiled, sequence, fs,
                                   pack_width=width)
        keys = detected_keys(fs)
        if reference is None:
            reference = keys
        assert keys == reference


@pytest.mark.parametrize("seed", range(4))
def test_detections_are_sound(seed):
    """A 3V-SOT detection certifies a Boolean output difference for
    EVERY pair of initial states, by Definition 2."""
    compiled = compile_circuit(
        random_circuit(seed, num_dffs=3, num_gates=14)
    )
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 20, seed=seed)
    fs = FaultSet(faults)
    fault_simulate_3v(compiled, sequence, fs)
    good_responses = {
        simulate_concrete(compiled, sequence, p)
        for p in all_states(compiled.num_dffs)
    }
    for record in fs.detected(BY_3V):
        t = record.detected_at
        faulty_responses = {
            simulate_concrete(compiled, sequence, q, record.fault)
            for q in all_states(compiled.num_dffs)
        }
        # some position up to t distinguishes every (good, faulty) pair
        prefix_good = {resp[:t] for resp in good_responses}
        prefix_faulty = {resp[:t] for resp in faulty_responses}
        assert prefix_good.isdisjoint(prefix_faulty), record


def test_dropping_does_not_change_detections(s27_compiled, s27_faults,
                                             s27_sequence):
    fs_drop = FaultSet(s27_faults)
    fault_simulate_3v(s27_compiled, s27_sequence, fs_drop,
                      drop_detected=True)
    fs_keep = FaultSet(s27_faults)
    fault_simulate_3v(s27_compiled, s27_sequence, fs_keep,
                      drop_detected=False)
    assert detected_keys(fs_drop) == detected_keys(fs_keep)


def test_detected_at_is_first_detection(s27_compiled, s27_faults,
                                        s27_sequence):
    fs = FaultSet(s27_faults)
    fault_simulate_3v(s27_compiled, s27_sequence, fs)
    for record in fs.detected():
        shorter = s27_sequence[: record.detected_at - 1]
        fs2 = FaultSet([record.fault])
        fault_simulate_3v(s27_compiled, shorter, fs2)
        assert fs2.counts()["detected"] == 0


def test_skips_non_undetected_records(s27_compiled, s27_faults,
                                      s27_sequence):
    fs = FaultSet(s27_faults)
    for record in fs.records[:5]:
        record.mark_x_redundant()
    fault_simulate_3v(s27_compiled, s27_sequence, fs)
    for record in fs.records[:5]:
        assert record.status == "x-redundant"


def test_known_initial_state_detects_more(s27_compiled, s27_faults):
    sequence = random_sequence_for(s27_compiled, 40, seed=9)
    fs_x = FaultSet(s27_faults)
    fault_simulate_3v(s27_compiled, sequence, fs_x)
    fs_known = FaultSet(s27_faults)
    fault_simulate_3v(
        s27_compiled, sequence, fs_known,
        initial_state=[0] * s27_compiled.num_dffs,
    )
    assert detected_keys(fs_x) <= detected_keys(fs_known)


def test_frame_hook_receives_absolute_pack_context(s27_compiled,
                                                   s27_faults,
                                                   s27_sequence):
    # per-pack sweeps restart their frame count; hooks that declare a
    # ``pack`` parameter get the absolute pack index alongside it
    seen = []

    def hook(frame, pack=None):
        seen.append((pack, frame))

    fs = FaultSet(s27_faults)
    fault_simulate_3v_parallel(
        s27_compiled, s27_sequence, fs, pack_width=8, frame_hook=hook
    )
    packs = sorted({pack for pack, _ in seen})
    assert packs == list(range(len(packs)))
    assert len(packs) > 1  # 32 faults at width 8 -> several packs
    for pack, frame in seen:
        assert 0 <= frame <= len(s27_sequence)


def test_frame_hook_without_pack_param_still_works(s27_compiled,
                                                   s27_faults,
                                                   s27_sequence):
    frames = []
    fs = FaultSet(s27_faults)
    fault_simulate_3v_parallel(
        s27_compiled, s27_sequence, fs, pack_width=8,
        frame_hook=frames.append,
    )
    assert frames  # legacy single-argument hooks keep working


def edge_case_circuit(seed, num_gates=14):
    """A random circuit sure to hold the structures random_circuit
    never draws (constants) or draws only by chance.

    Its first three gates are a CONST0 or CONST1 gate, a 3-input XOR or
    XNOR, and a gate that reads one net on two of its pins; the rest
    are drawn from every gate kind, constants included, with fanins
    drawn with replacement.
    """
    rng = random.Random(seed)
    c = Circuit(f"edge{seed}")
    nets = []
    for i in range(3):
        c.add_input(f"i{i}")
        nets.append(f"i{i}")
    for i in range(3):
        c.add_dff(f"q{i}", "__pending__")
        nets.append(f"q{i}")
    kinds = GATE_KINDS + ("CONST0", "CONST1")
    for g in range(num_gates):
        if g == 0:
            kind = rng.choice(("CONST0", "CONST1"))
        elif g == 1:
            kind = rng.choice(("XOR", "XNOR"))
        elif g == 2:
            kind = rng.choice(("AND", "NAND", "OR", "NOR", "XOR", "XNOR"))
        else:
            kind = rng.choice(kinds)
        if kind.startswith("CONST"):
            fanins = []
        elif kind in ("NOT", "BUF"):
            fanins = [rng.choice(nets)]
        elif g == 2:
            net = rng.choice(nets)
            fanins = [net, rng.choice(nets), net]
        else:
            arity = 3 if g == 1 else rng.choice((2, 3))
            fanins = [rng.choice(nets) for _ in range(arity)]
        c.add_gate(f"g{g}", kind, fanins)
        nets.append(f"g{g}")
    gate_nets = [f"g{g}" for g in range(num_gates)]
    for i in range(3):
        c.dffs[f"q{i}"] = rng.choice(gate_nets)
    for _ in range(2):
        c.add_output(rng.choice(gate_nets))
    return c


@pytest.mark.parametrize("width", (1, 3, PACK_WIDTH))
@pytest.mark.parametrize("seed", range(10))
def test_parallel_matches_serial_on_edge_cases(seed, width):
    """Constants, repeated fanins and 3-input XOR/XNOR, under input
    vectors with X bits and an initial state with known bits."""
    compiled = compile_circuit(edge_case_circuit(seed))
    kinds = {cg.kind for cg in compiled.gates}
    assert kinds & {"CONST0", "CONST1"}
    assert any(len(set(cg.fanins)) < len(cg.fanins) for cg in compiled.gates)
    assert any(
        cg.kind in ("XOR", "XNOR") and len(cg.fanins) == 3
        for cg in compiled.gates
    )
    rng = random.Random(seed)
    values = (threeval.ZERO, threeval.ONE, threeval.X)
    sequence = [
        tuple(rng.choice(values) for _ in compiled.pis) for _ in range(30)
    ]
    initial_state = [rng.choice(values) for _ in compiled.ppis]
    faults, _ = collapse_faults(compiled)

    serial = FaultSet(faults)
    fault_simulate_3v(compiled, sequence, serial,
                      initial_state=initial_state)
    packed = FaultSet(faults)
    fault_simulate_3v_parallel(compiled, sequence, packed,
                               initial_state=initial_state,
                               pack_width=width)
    assert rows(packed) == rows(serial)


class _Stop(Exception):
    pass


@pytest.mark.parametrize("width", (PACK_WIDTH, 8))
@pytest.mark.parametrize("circuit", ("s27", "rfsm32r"))
def test_aborted_sweep_keeps_detections_found_before_the_stop(circuit,
                                                              width):
    """A hook raising at frame k (a deadline or RSS budget) leaves the
    detections of frames 1..k-1 marked, exactly as the full run made
    them, and nothing else."""
    compiled = compile_circuit(get_circuit(circuit))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 60, seed=3)
    stop_at = 20

    full = FaultSet(faults)
    fault_simulate_3v_parallel(compiled, sequence, full)
    expected = [
        row if row[3] is not None and row[3] < stop_at
        else (row[0], UNDETECTED, None, None)
        for row in rows(full)
    ]
    assert any(row[1] != UNDETECTED for row in expected)

    def hook(frame, pack=None):
        if frame == stop_at:
            raise _Stop

    aborted = FaultSet(faults)
    with pytest.raises(_Stop):
        fault_simulate_3v_parallel(compiled, sequence, aborted,
                                   pack_width=width, frame_hook=hook)
    assert rows(aborted) == expected
