"""Algebra-generic gate evaluation and full-frame simulation.

:func:`gate_value` is the one gate semantics of every engine that runs
over an algebra: :func:`eval_gate`, :func:`simulate_frame` and
:func:`~repro.engines.propagate.propagate_fault` all call it on the
compiled gate program (:mod:`repro.circuit.compile`).  All three
algebras encode the constants 0 and 1 as the integers 0 and 1 (and
nothing else as either), so constant operands are resolved here and the
algebra is entered only when an operation has no constant to decide it.
"""

from repro.circuit.compile import OP_AND, OP_ID, OP_OR, OP_XOR, gate_opcode


def gate_value(algebra, opcode, inverted, operands):
    """Evaluate one gate of the program on its operand values.

    The short-cuts are exactly those of the BDD algebra, so no node the
    algebra would build is skipped:

    * an AND (OR) chain stops once its running value is the controlling
      constant, since every further step would return that constant
      and build nothing.  It never looks ahead to a controlling
      operand: that would skip building the prefix's nodes and so
      change node counts;
    * an XOR resolves a constant *second* operand only: the algebra
      builds ``NOT b`` before anything else, and skipping that would
      drop its nodes;
    * the NOT of a constant ``a`` is ``1 - a``.
    """
    if opcode <= OP_OR:  # AND / OR: the opcode is the controlling value
        result = operands[0]
        for value in operands[1:]:
            if result == opcode:
                break
            if value > 1:
                if result > 1:
                    result = (
                        algebra.and_(result, value) if opcode == OP_AND
                        else algebra.or_(result, value)
                    )
                else:  # the non-controlling constant
                    result = value
            elif value == opcode:
                result = value
    elif opcode == OP_XOR:
        result = operands[0]
        for value in operands[1:]:
            if value > 1:
                result = algebra.xor(result, value)
            elif value:
                result = 1 - result if result < 2 else algebra.not_(result)
    elif opcode == OP_ID:
        result = operands[0]
    else:  # OP_CONST: CONST1 carries inverted=True
        return 1 if inverted else 0
    if inverted:
        return 1 - result if result < 2 else algebra.not_(result)
    return result


def eval_gate(algebra, kind, operands):
    """Evaluate one gate of *kind* on already-fetched operand values."""
    return gate_value(algebra, *gate_opcode(kind), operands)


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
    for out, fanins, opcode, inverted in compiled.program:
        values[out] = gate_value(
            algebra, opcode, inverted, [values[src] for src in fanins]
        )
    return values


def outputs_of(compiled, values):
    """Primary-output vector extracted from a frame's *values*."""
    return [values[sig] for sig in compiled.pos]


def next_state_of(compiled, values):
    """Next-state vector (flip-flop D values) from a frame's *values*."""
    return [values[sig] for sig in compiled.dff_d]
