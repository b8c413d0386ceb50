"""Event-driven single-fault propagation vs full faulty re-evaluation.

The reference implementation in tests.util fully evaluates the faulty
machine frame (no events, no diffs); the engine must agree on every
signal, for every fault, in every algebra, on randomized circuits and
states.  This is the property that protects the entire fault simulator.
"""

import random

import pytest

from repro.bdd import BddManager, StateVariables
from repro.circuit.compile import compile_circuit
from repro.engines.algebra import BOOL, THREE_VALUED, BddAlgebra
from repro.engines.evaluate import simulate_frame
from repro.engines.propagate import propagate_fault
from repro.faults.universe import enumerate_faults
from repro.logic import threeval as tv
from tests.util import (
    random_circuit,
    reference_faulty_next_state,
    reference_faulty_values,
)


def check_circuit(compiled, algebra, pi_values, good_state, faulty_state):
    good_values = simulate_frame(compiled, algebra, pi_values, good_state)
    # the good state as a faulty state too: with no state difference,
    # every fault whose site already carries its stuck value takes the
    # unexcited-fault exit, which must agree with full re-simulation
    for state in (faulty_state, good_state):
        check_faults(compiled, algebra, pi_values, good_values, good_state,
                     state)


def check_faults(compiled, algebra, pi_values, good_values, good_state,
                 faulty_state):
    state_diff = {
        i: fv
        for i, (gv, fv) in enumerate(zip(good_state, faulty_state))
        if gv != fv
    }
    for fault in enumerate_faults(compiled):
        result = propagate_fault(
            compiled, algebra, good_values, fault, state_diff
        )
        reference = reference_faulty_values(
            compiled, algebra, pi_values, faulty_state, fault
        )
        for sig in range(compiled.num_signals):
            assert result.faulty_value(good_values, sig) == reference[sig], (
                f"{fault!r} at signal {compiled.names[sig]}"
            )
        ref_next = reference_faulty_next_state(
            compiled, algebra, reference, fault
        )
        good_next = [good_values[s] for s in compiled.dff_d]
        for i, (g, r) in enumerate(zip(good_next, ref_next)):
            assert result.next_state_diff.get(i, g) == r


@pytest.mark.parametrize("seed", range(10))
def test_bool_propagation_matches_reference(seed):
    rng = random.Random(seed)
    compiled = compile_circuit(random_circuit(seed, num_gates=15))
    pi_values = [rng.randrange(2) for _ in compiled.pis]
    good_state = [rng.randrange(2) for _ in compiled.ppis]
    faulty_state = [
        b if rng.random() < 0.7 else 1 - b for b in good_state
    ]
    check_circuit(compiled, BOOL, pi_values, good_state, faulty_state)


@pytest.mark.parametrize("seed", range(10))
def test_threeval_propagation_matches_reference(seed):
    rng = random.Random(seed + 100)
    compiled = compile_circuit(random_circuit(seed, num_gates=15))
    pi_values = [rng.choice((0, 1)) for _ in compiled.pis]
    values3 = (tv.ZERO, tv.ONE, tv.X)
    good_state = [rng.choice(values3) for _ in compiled.ppis]
    faulty_state = [
        v if rng.random() < 0.6 else rng.choice(values3)
        for v in good_state
    ]
    check_circuit(compiled, THREE_VALUED, pi_values, good_state,
                  faulty_state)


@pytest.mark.parametrize("seed", range(6))
def test_symbolic_propagation_matches_reference(seed):
    rng = random.Random(seed + 200)
    compiled = compile_circuit(
        random_circuit(seed, num_gates=12, num_dffs=3)
    )
    manager = BddManager(num_vars=compiled.num_dffs)
    algebra = BddAlgebra(manager)
    sv = StateVariables(compiled.num_dffs)
    pi_values = [algebra.const(rng.randrange(2)) for _ in compiled.pis]
    good_state = [
        manager.mk_var(sv.x(i)) for i in range(compiled.num_dffs)
    ]
    # faulty state: some bits constant, some shared with the good state
    faulty_state = []
    for i, g in enumerate(good_state):
        r = rng.random()
        if r < 0.4:
            faulty_state.append(g)
        elif r < 0.7:
            faulty_state.append(algebra.const(rng.randrange(2)))
        else:
            faulty_state.append(manager.not_(g))
    check_circuit(compiled, algebra, pi_values, good_state, faulty_state)


def test_silent_fault_produces_no_diff():
    compiled = compile_circuit(random_circuit(3, num_gates=10))
    pi_values = [0] * compiled.num_pis
    good_state = [0] * compiled.num_dffs
    good_values = simulate_frame(compiled, BOOL, pi_values, good_state)
    # a stuck-at matching the fault-free value at a primary input
    pi_sig = compiled.pis[0]
    from repro.faults.model import Fault, STEM

    fault = Fault((STEM, pi_sig), good_values[pi_sig])
    result = propagate_fault(compiled, BOOL, good_values, fault, {})
    assert result.diff == {}
    assert result.next_state_diff == {}


def test_stem_fault_forces_value_despite_state_diff():
    compiled = compile_circuit(random_circuit(5, num_gates=10))
    pi_values = [1] * compiled.num_pis
    good_state = [0] * compiled.num_dffs
    good_values = simulate_frame(compiled, BOOL, pi_values, good_state)
    from repro.faults.model import Fault, STEM

    ppi0 = compiled.ppis[0]
    fault = Fault((STEM, ppi0), 0)
    # the faulty machine thinks the bit is 1, but the stem fault pins it
    result = propagate_fault(compiled, BOOL, good_values, fault, {0: 1})
    assert result.faulty_value(good_values, ppi0) == 0
