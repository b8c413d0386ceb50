"""Sequence-level fault-free simulation.

Used directly by:

* Step 1 of ``ID_X-red`` — a three-valued true-value simulation that
  records, per lead, which Boolean values it assumed (the four-valued
  history of Section III),
* the test-evaluation and baseline code — two-valued simulation from a
  concrete initial state.
"""

from repro.engines.algebra import BOOL, THREE_VALUED
from repro.engines.evaluate import next_state_of, outputs_of, simulate_frame
from repro.logic import threeval
from repro.logic.fourval import IX_X, ix_from_threeval


class Trace:
    """Fault-free simulation trace over a whole input sequence."""

    def __init__(self, frames, outputs, states):
        self.frames = frames  # per-frame full value arrays
        self.outputs = outputs  # per-frame PO vectors
        self.states = states  # state vectors, states[0] = initial

    def __len__(self):
        return len(self.frames)


def simulate_sequence(compiled, sequence, initial_state=None, algebra=None,
                      keep_frames=True):
    """Simulate *sequence* on the fault-free circuit.

    *initial_state* defaults to all-X under the three-valued algebra
    (the paper's unknown initial state); under the Boolean algebra it
    must be supplied.  Returns a :class:`Trace`.
    """
    if algebra is None:
        algebra = THREE_VALUED
    if initial_state is None:
        if algebra is BOOL:
            raise ValueError("Boolean simulation needs an initial state")
        initial_state = [threeval.X] * compiled.num_dffs
    state = list(initial_state)
    if len(state) != compiled.num_dffs:
        raise ValueError(
            f"initial state has {len(state)} bits, circuit has "
            f"{compiled.num_dffs} flip-flops"
        )

    frames = []
    outputs = []
    states = [list(state)]
    for vector in sequence:
        values = simulate_frame(compiled, algebra, vector, state)
        if keep_frames:
            frames.append(values)
        outputs.append(outputs_of(compiled, values))
        state = next_state_of(compiled, values)
        states.append(list(state))
    return Trace(frames, outputs, states)


def value_histories(compiled, sequence, initial_state=None):
    """Step 1 of ``ID_X-red``: four-valued value history per signal.

    Runs the three-valued true-value simulation and joins each signal's
    values over all time frames into the {X},{X,0},{X,1},{X,0,1}
    lattice.  Returns a list indexed by signal.
    """
    return histories_and_states(compiled, sequence, initial_state)[0]


def histories_and_states(compiled, sequence, initial_state=None):
    """One three-valued pass: ``(value histories, states)``.

    *states* is the fault-free three-valued trajectory, one state per
    frame boundary: ``states[0]`` is the initial state and
    ``states[t]`` the state after frame ``t``.  ID_X-red keeps the
    histories and hands the trajectory on to the campaign, whose frame
    loop would otherwise simulate the same frames again.
    """
    if initial_state is None:
        initial_state = [threeval.X] * compiled.num_dffs
    state = list(initial_state)
    states = [state]
    history = [IX_X] * compiled.num_signals
    for vector in sequence:
        values = simulate_frame(compiled, THREE_VALUED, vector, state)
        for sig, value in enumerate(values):
            history[sig] |= ix_from_threeval(value)
        state = next_state_of(compiled, values)
        states.append(state)
    return history, states
