"""Golden node counts: engine speed-ups must not change what is built.

Under a node limit, *which* nodes get built decides when a step
overflows, and so GC timing, demotions, three-valued fallbacks and
ultimately verdicts.  Engine optimizations (kernel fast paths, terminal
short-cuts, skipping quiet faults) are only admissible when they
allocate exactly the nodes the plain ``ite`` formulation allocates, in
the same order.  Each campaign here is small (well under a second) but
overflows its node limit often, so any change in node allocation moves
the pinned numbers: ``nlfsr12`` is XOR/AND feedback logic, ``rfsm13r``
has the wide AND/OR gates whose chains ``eval_gate`` may cut short.
``rfsm13r`` runs under all three strategies, so the rows also pin the
symbolic step's quiet-fault screen under each strategy's rule for
observing a silent fault; the SOT and rMOT rows were recorded before
the screen existed.  The numbers were recorded with the ``ite``-only kernel; a change that
legitimately builds fewer nodes (complement edges, say) re-baselines
them on purpose.  They were re-baselined once so far: a fault demoted
into a running session now gets free variables for its X state bits
(a soundness fix), which moved the counters but no verdict row.  A
property test compares the kernels node for node with that
``ite``-only formulation directly.
"""

import itertools
from collections import Counter
from functools import reduce

import pytest
from hypothesis import given, settings, strategies as st

from repro.bdd import BddManager
from repro.bdd.manager import FALSE, TRUE
from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.engines.algebra import BddAlgebra
from repro.engines.evaluate import eval_gate
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.obs.metrics import MetricsRegistry
from repro.runtime import run_campaign
from repro.sequences.random_seq import random_sequence_for
from tests.bdd.test_ops_oracle import NUM_VARS, exprs

# verdict rows every rfsm13r campaign below shares besides its one
# symbolic detection: the three-valued pre-pass and interludes find
# these whatever the strategy
_RFSM13R_ROWS = {
    ("undetected", None, None): 235,
    ("x-redundant", None, None): 41,
    ("detected", "3-valued", 5): 29,
    ("detected", "3-valued", 6): 23,
    ("detected", "3-valued", 7): 1,
    ("detected", "3-valued", 8): 1,
    ("detected", "3-valued", 9): 1,
    ("detected", "3-valued", 10): 16,
    ("detected", "3-valued", 14): 12,
    ("detected", "3-valued", 15): 11,
    ("detected", "3-valued", 16): 1,
    ("detected", "3-valued", 18): 4,
}

GOLDEN = [
    # circuit, strategy, node limit,
    # (demotions, fallbacks, frames_three_valued, gc_runs, peak_nodes),
    # nodes created, verdict rows (status, detected_by, detected_at)
    pytest.param(
        "nlfsr12", "MOT", 5000, (95, 8, 20, 19, 5000), 50682,
        {("x-redundant", None, None): 68},
        id="nlfsr12",
    ),
    pytest.param(
        "rfsm13r", "MOT", 400, (223, 2, 6, 7, 400), 2178,
        {**_RFSM13R_ROWS, ("detected", "MOT", 5): 1},
        id="rfsm13r",
    ),
    pytest.param(
        "rfsm13r", "SOT", 400, (27, 0, 30, 3, 400), 1326,
        {**_RFSM13R_ROWS, ("detected", "SOT", 5): 1},
        id="rfsm13r-SOT",
    ),
    pytest.param(
        "rfsm13r", "rMOT", 400, (42, 0, 30, 5, 400), 1855,
        {**_RFSM13R_ROWS, ("detected", "rMOT", 5): 1},
        id="rfsm13r-rMOT",
    ),
]


@pytest.mark.parametrize(
    "circuit, strategy, node_limit, outcome, nodes_created, rows", GOLDEN
)
def test_mot_campaign_under_a_tight_node_limit_is_pinned(
    circuit, strategy, node_limit, outcome, nodes_created, rows
):
    compiled = compile_circuit(get_circuit(circuit))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 30, seed=2)
    fault_set = FaultSet(faults)
    metrics = MetricsRegistry()
    result = run_campaign(
        compiled, sequence, fault_set, strategy=strategy,
        node_limit=node_limit, metrics=metrics,
    )
    assert (
        result.demotions,
        result.fallbacks,
        result.frames_three_valued,
        result.gc_runs,
        result.peak_nodes,
    ) == outcome
    counters = metrics.snapshot()["counters"]
    assert counters["bdd.nodes_created"] == nodes_created
    assert Counter(
        (record.status, record.detected_by, record.detected_at)
        for record in fault_set.records
    ) == rows


class IteOnlyManager(BddManager):
    """Every connective as one plain ``ite`` call: the reference the
    kernels must match node for node."""

    def not_(self, f):
        return self.ite(f, FALSE, TRUE)

    def and_(self, f, g):
        return self.ite(f, g, FALSE)

    def or_(self, f, g):
        return self.ite(f, TRUE, g)

    def xor(self, f, g):
        return self.ite(f, self.not_(g), g)

    def xnor(self, f, g):
        return self.ite(f, g, self.not_(g))


def _store(manager):
    return manager._var, manager._low, manager._high


@given(st.lists(exprs(), min_size=1, max_size=5))
@settings(max_examples=100, deadline=None)
def test_kernels_and_short_cuts_build_what_ite_builds(operands):
    """The AND/OR/NOT kernels, the ``BddAlgebra`` short-cuts and the
    ``eval_gate`` chain cut allocate exactly the nodes of the
    ``ite``-only formulation, in the same order: after every operation
    the two node stores are identical, index for index."""
    fast = BddManager(num_vars=NUM_VARS)
    reference = IteOnlyManager(num_vars=NUM_VARS)
    algebra = BddAlgebra(fast)
    nodes = [FALSE, TRUE]
    for expr in operands:
        node = expr.bdd(fast)
        assert node == expr.bdd(reference)
        assert _store(fast) == _store(reference)
        nodes.append(node)
    # chains that end in a constant first, while their prefixes are
    # still new nodes: a chain may stop only at a controlling running
    # value, never skip a prefix because a later operand controls
    chains = sorted(
        itertools.permutations(nodes, 3), key=lambda chain: chain[-1] > TRUE
    )
    for chain in chains:
        assert eval_gate(algebra, "NAND", list(chain)) == reference.not_(
            reduce(reference.and_, chain)
        )
        assert eval_gate(algebra, "OR", list(chain)) == reduce(
            reference.or_, chain
        )
        assert _store(fast) == _store(reference)
    for a, b in itertools.product(nodes, repeat=2):
        for name in ("and_", "or_", "xor"):
            assert getattr(algebra, name)(a, b) == getattr(reference, name)(
                a, b
            )
            assert _store(fast) == _store(reference)
        assert fast.xnor(a, b) == reference.xnor(a, b)
        assert algebra.not_(a) == reference.not_(a)
        assert _store(fast) == _store(reference)
