"""Algebra-generic gate evaluation and full-frame simulation."""

from repro.circuit import gates as gatelib


def eval_gate(algebra, kind, operands):
    """Evaluate one gate of *kind* on already-fetched operand values.

    An AND (OR) chain stops once its running value is the controlling
    constant, since every further step would return that constant and
    build nothing.  It never looks ahead to a controlling operand: that
    would skip building the prefix's nodes and so change node counts.
    """
    base, inverted = gatelib.base_op(kind)
    if base == "CONST":
        return algebra.const(inverted)  # CONST1 carries inverted=True
    if base == "ID":
        result = operands[0]
    elif base == "AND":
        result = operands[0]
        for value in operands[1:]:
            if result == algebra.zero:
                break
            result = algebra.and_(result, value)
    elif base == "OR":
        result = operands[0]
        for value in operands[1:]:
            if result == algebra.one:
                break
            result = algebra.or_(result, value)
    else:  # XOR
        result = operands[0]
        for value in operands[1:]:
            result = algebra.xor(result, value)
    return algebra.not_(result) if inverted else result


def simulate_frame(compiled, algebra, pi_values, state_values):
    """Fault-free evaluation of one time frame.

    *pi_values* is aligned with ``compiled.pis`` and *state_values* with
    ``compiled.ppis``.  Returns the value of every signal, indexed by
    signal number.
    """
    if len(pi_values) != len(compiled.pis):
        raise ValueError(
            f"vector has {len(pi_values)} bits, circuit has "
            f"{len(compiled.pis)} inputs"
        )
    if len(state_values) != len(compiled.ppis):
        raise ValueError(
            f"state has {len(state_values)} bits, circuit has "
            f"{len(compiled.ppis)} flip-flops"
        )
    values = [None] * compiled.num_signals
    for sig, value in zip(compiled.pis, pi_values):
        values[sig] = value
    for sig, value in zip(compiled.ppis, state_values):
        values[sig] = value
    for cg in compiled.gates:
        operands = [values[src] for src in cg.fanins]
        values[cg.out] = eval_gate(algebra, cg.kind, operands)
    return values


def outputs_of(compiled, values):
    """Primary-output vector extracted from a frame's *values*."""
    return [values[sig] for sig in compiled.pos]


def next_state_of(compiled, values):
    """Next-state vector (flip-flop D values) from a frame's *values*."""
    return [values[sig] for sig in compiled.dff_d]
