"""The ``ID_X-red`` procedure of Section III.

Identifies faults that a *given* test sequence cannot detect under the
three-valued logic and the SOT strategy ("X-redundant faults"), in four
steps:

1. three-valued true-value simulation of the whole sequence, recording
   per lead the set of Boolean values it assumed (four-valued lattice
   {X}, {X,0}, {X,1}, {X,0,1});
2. a backward fixpoint that lowers a lead to {X} when every path from
   it to a primary or secondary output is blocked by an {X} lead
   (iterated until the secondary inputs stabilise);
3. a backward observability traversal inside each fanout-free region:
   a gate input is observable only if the gate output is observable and
   every side input assumed a non-controlling value at some time;
4. the sufficient undetectability check per stuck-at fault
   (never activated, value history {X}, or observability 0).

The run time is O(|C|·|Z|) for step 1 and O(|C|) for steps 2-4, exactly
as the paper states; the whole procedure is linear and is meant to be
negligible next to the fault simulation it accelerates.
"""

from repro.circuit import gates as gatelib
from repro.circuit.regions import is_head
from repro.engines.true_value import histories_and_states
from repro.faults.model import BRANCH, DBRANCH, STEM
from repro.logic.fourval import IX_X, ix_saw_one, ix_saw_zero


class XRedResult:
    """Everything the procedure computed, for inspection and tests."""

    def __init__(self, stem_ix, pin_ix, dpin_ix, ob_stem, ob_pin, ob_dpin,
                 x_redundant, good_states=None):
        self.stem_ix = stem_ix  # per-signal recomputed I_X value
        self.pin_ix = pin_ix  # (gate_pos, pin) -> I_X value
        self.dpin_ix = dpin_ix  # dff_idx -> I_X value
        self.ob_stem = ob_stem  # per-signal observability 0/1
        self.ob_pin = ob_pin  # (gate_pos, pin) -> observability
        self.ob_dpin = ob_dpin  # dff_idx -> observability
        self.x_redundant = x_redundant  # set of fault keys
        # step 1's three-valued trajectory, one state per frame boundary
        self.good_states = good_states

    def is_x_redundant(self, fault):
        return fault.key() in self.x_redundant


def _step2_backward_fixpoint(compiled, i1):
    """Recompute lead I_X values until the secondary inputs stabilise."""
    cur = list(i1)
    ppi_set = frozenset(compiled.ppis)

    # reverse topological order over all signals: gates high->low level,
    # then the level-0 sources (their order among themselves is free).
    order = [cg.out for cg in reversed(compiled.gates)]
    order.extend(compiled.pis)
    order.extend(compiled.ppis)

    while True:
        changed_ppi = False
        for sig in order:
            if cur[sig] == IX_X:
                continue
            alive = False
            for gate_pos, _pin in compiled.fanout_gates[sig]:
                if cur[compiled.gates[gate_pos].out] != IX_X:
                    alive = True
                    break
            if not alive:
                for dff_idx in compiled.dff_sinks[sig]:
                    if cur[compiled.ppis[dff_idx]] != IX_X:
                        alive = True
                        break
            if not alive and compiled.po_sinks[sig]:
                alive = True
            if not alive:
                cur[sig] = IX_X
                if sig in ppi_set:
                    changed_ppi = True
        if not changed_ppi:
            break
    return cur


def _branch_values(compiled, i1, stem_ix):
    """Step-2 I_X values of the branch leads (gate pins and D pins)."""
    pin_ix = {}
    for cg in compiled.gates:
        out_dead = stem_ix[cg.out] == IX_X
        for pin, src in enumerate(cg.fanins):
            if out_dead:
                pin_ix[(cg.pos, pin)] = IX_X
            else:
                pin_ix[(cg.pos, pin)] = i1[src]
    dpin_ix = {}
    for dff_idx, d_sig in enumerate(compiled.dff_d):
        if stem_ix[compiled.ppis[dff_idx]] == IX_X:
            dpin_ix[dff_idx] = IX_X
        else:
            dpin_ix[dff_idx] = i1[d_sig]
    return pin_ix, dpin_ix


def _side_input_allows(kind, side_values):
    """Can a fault effect pass this gate, given the side-input histories?"""
    base, _inverted = gatelib.base_op(kind)
    if base == "AND":
        return all(ix_saw_one(v) for v in side_values)
    if base == "OR":
        return all(ix_saw_zero(v) for v in side_values)
    if base == "XOR":
        return all(v != IX_X for v in side_values)
    return True  # ID gates have no side inputs


def _step3_observability(compiled, stem_ix, pin_ix, dpin_ix):
    """Backward traversal inside the fanout-free regions."""
    ob_stem = [0] * compiled.num_signals
    ob_pin = {}

    order = [cg.out for cg in reversed(compiled.gates)]
    order.extend(compiled.pis)
    order.extend(compiled.ppis)

    for sig in order:
        if is_head(compiled, sig):
            ob_stem[sig] = 0 if stem_ix[sig] == IX_X else 1
        else:
            # unique sink, and it is a gate pin (region-internal net)
            gate_pos, pin = compiled.fanout_gates[sig][0]
            ob_stem[sig] = ob_pin.get((gate_pos, pin), 0)
        driver = compiled.gate_at[sig]
        if driver is None:
            continue
        cg = compiled.gates[driver]
        for pin in range(len(cg.fanins)):
            if ob_stem[sig]:
                side = [
                    pin_ix[(cg.pos, other)]
                    for other in range(len(cg.fanins))
                    if other != pin
                ]
                ob_pin[(cg.pos, pin)] = (
                    1 if _side_input_allows(cg.kind, side) else 0
                )
            else:
                ob_pin[(cg.pos, pin)] = 0

    ob_dpin = {}
    for dff_idx in range(compiled.num_dffs):
        dead = stem_ix[compiled.ppis[dff_idx]] == IX_X
        ob_dpin[dff_idx] = 0 if dead else 1
    return ob_stem, ob_pin, ob_dpin


def _lead_ix_and_ob(result, lead):
    kind = lead[0]
    if kind == STEM:
        return result.stem_ix[lead[1]], result.ob_stem[lead[1]]
    if kind == BRANCH:
        key = (lead[1], lead[2])
        return result.pin_ix[key], result.ob_pin[key]
    return result.dpin_ix[lead[1]], result.ob_dpin[lead[1]]


def _fault_is_x_redundant(result, fault):
    ix, ob = _lead_ix_and_ob(result, fault.lead)
    if ix == IX_X:
        return True
    if ob == 0:
        return True
    if fault.value == 0 and not ix_saw_one(ix):
        return True  # never 1: a stuck-at-0 is never activated
    if fault.value == 1 and not ix_saw_zero(ix):
        return True  # never 0: a stuck-at-1 is never activated
    return False


def id_x_red(compiled, sequence, faults, initial_state=None):
    """Run the full four-step procedure.

    Returns an :class:`XRedResult`; the X-redundant subset of *faults*
    is available as ``result.x_redundant`` (a set of fault keys) or via
    ``result.is_x_redundant(fault)``.
    """
    i1, good_states = histories_and_states(compiled, sequence, initial_state)
    stem_ix = _step2_backward_fixpoint(compiled, i1)
    pin_ix, dpin_ix = _branch_values(compiled, i1, stem_ix)
    ob_stem, ob_pin, ob_dpin = _step3_observability(
        compiled, stem_ix, pin_ix, dpin_ix
    )
    result = XRedResult(
        stem_ix, pin_ix, dpin_ix, ob_stem, ob_pin, ob_dpin, set(),
        good_states,
    )
    for fault in faults:
        if _fault_is_x_redundant(result, fault):
            result.x_redundant.add(fault.key())
    return result


def eliminate_x_redundant(compiled, sequence, fault_set, initial_state=None):
    """Mark the X-redundant records of *fault_set* (the Table-I pre-pass).

    Returns the :class:`XRedResult` for inspection.
    """
    faults = [r.fault for r in fault_set.undetected()]
    result = id_x_red(compiled, sequence, faults, initial_state)
    for record in fault_set.undetected():
        if result.is_x_redundant(record.fault):
            record.mark_x_redundant()
    return result
