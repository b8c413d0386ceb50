"""Event-driven single-fault propagation (one fault, one time frame).

This is the engine behind both the serial three-valued fault simulator
and the symbolic fault simulator of Section IV.A: "the faults are
injected one by one [and] the effects are propagated towards the
primary outputs and the memory elements".

Given the fault-free frame values, a fault, and the fault's current
state difference (faulty present-state values that differ from the
fault-free ones), :func:`propagate_fault` computes

* ``diff`` — faulty value per signal, only for signals whose faulty
  value differs from the fault-free one,
* ``next_state_diff`` — the faulty next-state entries that differ.

Only gates in the affected cone are re-evaluated, in level order, so a
fault that stays silent costs almost nothing — and a fault that is not
even excited (no state difference, fault site already at the stuck
value) costs one comparison.

The symbolic step (:meth:`repro.symbolic.fault_sim.SymbolicSession.step`)
does not even make that call for a *quiet* fault: one with no state
difference that is unexcited, or whose effect meets a constant
controlling side input inside its fanout-free region, after only
constant side inputs.  Here such a fault would evaluate constants only
and build no node, so skipping it changes no result and no node count.
The three-valued engines still call this function for every fault.
"""

import heapq

from repro.engines.evaluate import eval_gate
from repro.faults.model import BRANCH, DBRANCH, STEM, stem_signal


class FrameResult:
    """Faulty/fault-free differences produced by one frame of one fault."""

    __slots__ = ("diff", "next_state_diff")

    def __init__(self, diff, next_state_diff):
        self.diff = diff
        self.next_state_diff = next_state_diff

    def faulty_value(self, good_values, sig):
        """Faulty value of *sig* (falls back to the fault-free value)."""
        return self.diff.get(sig, good_values[sig])


def propagate_fault(compiled, algebra, good_values, fault, state_diff):
    """Propagate *fault* through one time frame.

    Parameters
    ----------
    good_values:
        per-signal fault-free values of this frame
        (from :func:`repro.engines.evaluate.simulate_frame`).
    fault:
        the :class:`~repro.faults.model.Fault` to inject.
    state_diff:
        dict ``dff_index -> faulty present-state value`` holding only
        entries that differ from the fault-free present state.
    """
    forced_value = algebra.const(fault.value)
    if (
        not state_diff
        and good_values[stem_signal(compiled, fault)] == forced_value
    ):
        # unexcited: the faulty frame equals the fault-free one (a
        # re-evaluated branch gate would reproduce its good value, and
        # build no node — the good frame built them all already)
        return FrameResult({}, {})

    gates = compiled.gates
    fanout_gates = compiled.fanout_gates
    diff = {}
    # gate positions: gates are stored in level order, so popping the
    # smallest position evaluates level by level
    pending = []
    scheduled = set()

    def schedule_sinks(sig):
        for gate_pos, _pin in fanout_gates[sig]:
            if gate_pos not in scheduled:
                scheduled.add(gate_pos)
                heapq.heappush(pending, gate_pos)

    # 1. Seed: present-state differences.
    for dff_idx, value in state_diff.items():
        sig = compiled.ppis[dff_idx]
        if value != good_values[sig]:
            diff[sig] = value
            schedule_sinks(sig)

    # 2. Seed: the fault site itself.
    forced_sig = None
    branch_gate = None
    branch_pin = None
    kind = fault.lead[0]
    if kind == STEM:
        forced_sig = fault.lead[1]
        current = diff.get(forced_sig, good_values[forced_sig])
        if forced_value != good_values[forced_sig]:
            diff[forced_sig] = forced_value
        else:
            diff.pop(forced_sig, None)
        if current != forced_value:
            schedule_sinks(forced_sig)
        # A forced signal never changes again; its driving gate (if any)
        # must not be re-evaluated.
    elif kind == BRANCH:
        branch_gate = fault.lead[1]
        branch_pin = fault.lead[2]
        if branch_gate not in scheduled:
            scheduled.add(branch_gate)
            heapq.heappush(pending, branch_gate)
    # DBRANCH faults act only at the state update below.

    # 3. Level-ordered propagation.
    while pending:
        gate_pos = heapq.heappop(pending)
        gate = gates[gate_pos]
        out = gate.out
        if out == forced_sig:
            continue  # output pinned by a stem fault
        operands = [
            diff.get(src, good_values[src]) for src in gate.fanins
        ]
        if gate_pos == branch_gate:
            operands[branch_pin] = forced_value
        new_value = eval_gate(algebra, gate.kind, operands)
        old_value = diff.get(out, good_values[out])
        if new_value != old_value:
            if new_value == good_values[out]:
                diff.pop(out, None)
            else:
                diff[out] = new_value
            schedule_sinks(out)

    # 4. Next-state differences: only flip-flops fed by a differing
    #    signal (or by a faulty D pin) can differ; entries are made in
    #    flip-flop order.
    dff_sinks = compiled.dff_sinks
    dffs = [dff_idx for sig in diff for dff_idx in dff_sinks[sig]]
    if kind == DBRANCH:
        dffs.append(fault.lead[1])
    next_state_diff = {}
    for dff_idx in sorted(set(dffs)):
        d_sig = compiled.dff_d[dff_idx]
        value = diff.get(d_sig, good_values[d_sig])
        if kind == DBRANCH and fault.lead[1] == dff_idx:
            value = forced_value
        if value != good_values[d_sig]:
            next_state_diff[dff_idx] = value

    return FrameResult(diff, next_state_diff)
