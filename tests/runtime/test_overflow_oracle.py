"""Oracle agreement under overflow, for every entry point.

Node limits of 64 and 100 force GCs, per-fault demotions and
three-valued interludes on small random circuits.  Whatever the
overflow protocol does, every detection must survive the
explicit-enumeration oracle of the strategy that claimed it, and a run
that still reports ``exact`` must find exactly its strategy's oracle
set.  The same check runs through the in-process campaign, the
sharded-inline fabric and :func:`hybrid_fault_simulate` (the Table II
path).
"""

import functools

import pytest

from repro.baselines.enumeration import (
    mot_detectable,
    rmot_detectable,
    sot_detectable,
)
from repro.circuit.compile import compile_circuit
from repro.engines.parallel_fault_sim import fault_simulate_3v_parallel
from repro.faults.collapse import collapse_faults
from repro.faults.status import BY_3V, BY_MOT, BY_RMOT, BY_SOT, FaultSet
from repro.runtime import DegradationLadder, run_campaign
from repro.sequences.random_seq import random_sequence_for
from repro.symbolic.hybrid import hybrid_fault_simulate
from repro.xred.idxred import eliminate_x_redundant
from tests.util import random_circuit

SEEDS = range(8)
NODE_LIMITS = (64, 100)
ORACLES = {"SOT": sot_detectable, "rMOT": rmot_detectable,
           "MOT": mot_detectable}
# the strategy whose oracle a detection label must satisfy
CLAIMED_BY = {BY_3V: "SOT", BY_SOT: "SOT", BY_RMOT: "rMOT", BY_MOT: "MOT"}


@functools.lru_cache(maxsize=None)
def _case(seed):
    """(compiled, faults, sequence, oracle sets) — oracles run once."""
    compiled = compile_circuit(
        random_circuit(seed, num_dffs=4, num_gates=18)
    )
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(compiled, 10, seed=seed)
    oracle = {
        name: frozenset(
            f.key() for f in faults if detectable(compiled, sequence, f)
        )
        for name, detectable in ORACLES.items()
    }
    return compiled, faults, sequence, oracle


def _campaign(compiled, sequence, fault_set, strategy, node_limit):
    return run_campaign(compiled, sequence, fault_set, strategy=strategy,
                        node_limit=node_limit)


def _sharded(compiled, sequence, fault_set, strategy, node_limit):
    return run_campaign(compiled, sequence, fault_set, strategy=strategy,
                        node_limit=node_limit, workers=0, shard_size=4)


def _hybrid(compiled, sequence, fault_set, strategy, node_limit):
    eliminate_x_redundant(compiled, sequence, fault_set)
    fault_simulate_3v_parallel(compiled, sequence, fault_set)
    return hybrid_fault_simulate(compiled, sequence, fault_set,
                                 strategy=strategy, node_limit=node_limit)


def _assert_sound(fault_set, oracle, where):
    """Every detection satisfies the oracle of the strategy claiming it."""
    for record in fault_set.detected():
        claimed = CLAIMED_BY[record.detected_by]
        assert record.fault.key() in oracle[claimed], (
            where, record.fault.key(), record.detected_by,
            record.detected_at,
        )


@pytest.mark.parametrize("strategy", ["SOT", "rMOT", "MOT"])
def test_overflow_verdicts_agree_with_the_oracle(strategy):
    demoted = 0
    for seed in SEEDS:
        compiled, faults, sequence, oracle = _case(seed)
        for node_limit in NODE_LIMITS:
            for entry in (_campaign, _sharded, _hybrid):
                fault_set = FaultSet(faults)
                result = entry(compiled, sequence, fault_set, strategy,
                               node_limit)
                demoted += result.demotions
                where = (entry.__name__, seed, node_limit)
                _assert_sound(fault_set, oracle, where)
                if result.exact:
                    detected = {r.fault.key() for r in fault_set.detected()}
                    assert detected == oracle[strategy], where
    assert demoted > 0, "no run overflowed into a demotion"


def test_demotion_into_a_running_mot_rung_is_sound():
    """A custom ladder can demote a fault into a MOT session that has
    already stepped; its free ``y`` variables survive the rename."""
    ladder = DegradationLadder([("MOT", 1.0), ("MOT", 0.5), "3v"])
    demoted = 0
    for seed in SEEDS:
        compiled, faults, sequence, oracle = _case(seed)
        for node_limit in NODE_LIMITS:
            fault_set = FaultSet(faults)
            result = run_campaign(compiled, sequence, fault_set,
                                  ladder=ladder, node_limit=node_limit)
            demoted += result.demotions
            _assert_sound(fault_set, oracle, (seed, node_limit))
    assert demoted > 0, "no run overflowed into a demotion"
