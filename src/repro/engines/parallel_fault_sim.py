"""Word-parallel three-valued fault simulation (bit-packed).

A complementary engine to :mod:`repro.engines.serial_fault_sim`: many
faulty machines are simulated at once, one bit position (*lane*) per
fault, with the three-valued value of a signal held as a pair of masks
``(ones, zeros)`` (a bit in neither mask is X).  Python's arbitrary-
precision integers make the word width a free parameter.

Each word of faults is compiled once per sweep into a program: one
record per gate holding its output, fanins, opcode, inversion, the
branch forces on its pins and the stem force on its output, plus the
forces on primary inputs, flip-flop outputs and flip-flop D pins.  A
frame runs that program over two flat lists of masks, ``ones`` and
``zeros``, indexed by signal, with no per-pin table lookups.

Bit ``width`` of every mask is the fault-free machine (the *good
lane*): no force touches it, so SOT detection reads the good primary
output from the same word instead of a separate scalar simulation.

The default word, :data:`PACK_WIDTH`, holds 4096 faults plus the good
lane; larger fault lists take several words, which advance frame by
frame together.  The masks of one word cost about
``2 * signals * 512`` bytes (20 MB for a 20k-signal netlist), which
is why the default width is capped instead of fitting any fault list.

Semantics are identical to the serial engine (three-valued logic, SOT
detection, unknown initial state) by construction: every lane is an
independent three-valued machine, the good lane included; the two
engines are cross-checked in the test suite.  The parallel engine
exists because Table I sweeps whole fault universes over 200-vector
sequences, and every campaign runs it over its whole fault list
before the symbolic strategies start, where single-fault propagation
in pure Python would dominate the wall-clock.
"""

import inspect
from functools import reduce
from operator import and_, or_

from repro.circuit import gates as gatelib
from repro.faults.model import BRANCH, STEM
from repro.faults.status import BY_3V, UNDETECTED
from repro.logic import threeval

#: default faults per word; every registry fault universe fits in one
PACK_WIDTH = 4096

# opcodes of the compiled program; BUF/NOT run as a one-operand XOR
_AND, _OR, _XOR, _CONST = range(4)
_OPCODES = {"AND": _AND, "OR": _OR, "XOR": _XOR, "ID": _XOR, "CONST": _CONST}


class _Pack:
    """One word of faults: its compiled program and its machine state.

    A force is ``(keep, f1, f0)``: the lanes in *f1* read 1, those in
    *f0* read 0 and the lanes in *keep* (every other one, the good lane
    included) are left alone, so forcing masks ``(ones, zeros)`` costs
    ``(ones & keep) | f1`` and ``(zeros & keep) | f0``.
    """

    def __init__(self, compiled, records, initial_state):
        self.records = records
        self.good = 1 << len(records)  # the fault-free lane
        self.full = full = (self.good << 1) - 1
        self.undetected = self.good - 1

        masks = {}
        for bit, record in enumerate(records):
            f1, f0 = masks.get(record.fault.lead, (0, 0))
            if record.fault.value:
                f1 |= 1 << bit
            else:
                f0 |= 1 << bit
            masks[record.fault.lead] = (f1, f0)
        stem, pin_forces = {}, {}
        self.dff_forces = []
        for lead, (f1, f0) in masks.items():
            force = (full ^ (f1 | f0), f1, f0)
            if lead[0] == STEM:
                stem[lead[1]] = force
            elif lead[0] == BRANCH:
                pin_forces.setdefault(lead[1], []).append((lead[2],) + force)
            else:  # DBRANCH
                self.dff_forces.append((lead[1],) + force)

        self.source_forces = [
            (sig,) + stem[sig]
            for sig in compiled.pis + compiled.ppis
            if sig in stem
        ]
        self.program = []
        for cg in compiled.gates:
            base, inverted = gatelib.base_op(cg.kind)
            self.program.append((
                cg.out, cg.fanins, _OPCODES[base], inverted,
                pin_forces.get(cg.pos, ()), stem.get(cg.out),
            ))
        self.state_ones = [full if v == threeval.ONE else 0
                           for v in initial_state]
        self.state_zeros = [full if v == threeval.ZERO else 0
                            for v in initial_state]

    def step(self, compiled, vector, ones, zeros, time):
        """Simulate frame *time* in every lane; mark its SOT detections.

        *ones* / *zeros* are scratch lists indexed by signal, shared by
        all packs of a sweep.
        """
        full = self.full
        for sig, value in zip(compiled.pis, vector):
            if value == threeval.ONE:
                ones[sig], zeros[sig] = full, 0
            elif value == threeval.ZERO:
                ones[sig], zeros[sig] = 0, full
            else:
                ones[sig] = zeros[sig] = 0
        for sig, o, z in zip(compiled.ppis, self.state_ones,
                             self.state_zeros):
            ones[sig], zeros[sig] = o, z
        for sig, keep, f1, f0 in self.source_forces:
            ones[sig] = (ones[sig] & keep) | f1
            zeros[sig] = (zeros[sig] & keep) | f0

        for out, fanins, op, inverted, pins, stem in self.program:
            o_in = [ones[s] for s in fanins]
            z_in = [zeros[s] for s in fanins]
            for pin, keep, f1, f0 in pins:
                o_in[pin] = (o_in[pin] & keep) | f1
                z_in[pin] = (z_in[pin] & keep) | f0
            if op == _AND:
                o, z = reduce(and_, o_in), reduce(or_, z_in)
            elif op == _OR:
                o, z = reduce(or_, o_in), reduce(and_, z_in)
            elif op == _XOR:  # X in either operand leaves X
                o, z = o_in[0], z_in[0]
                for o2, z2 in zip(o_in[1:], z_in[1:]):
                    o, z = (o & z2) | (z & o2), (o & o2) | (z & z2)
            else:  # CONST0; CONST1 is its inversion
                o, z = 0, full
            if inverted:
                o, z = z, o
            if stem is not None:
                keep, f1, f0 = stem
                o = (o & keep) | f1
                z = (z & keep) | f0
            ones[out] = o
            zeros[out] = z

        # SOT detection against the good lane
        good = self.good
        undetected = self.undetected
        for sig in compiled.pos:
            if ones[sig] & good:
                hits = zeros[sig] & undetected
            elif zeros[sig] & good:
                hits = ones[sig] & undetected
            else:
                continue
            undetected ^= hits
            while hits:
                low = hits & -hits
                record = self.records[low.bit_length() - 1]
                if record.status == UNDETECTED:
                    record.mark_detected(BY_3V, time)
                hits ^= low
        self.undetected = undetected

        state_ones = [ones[d] for d in compiled.dff_d]
        state_zeros = [zeros[d] for d in compiled.dff_d]
        for idx, keep, f1, f0 in self.dff_forces:
            state_ones[idx] = (state_ones[idx] & keep) | f1
            state_zeros[idx] = (state_zeros[idx] & keep) | f0
        self.state_ones = state_ones
        self.state_zeros = state_zeros


def _hook_accepts_pack(frame_hook):
    """Whether *frame_hook* can take the ``pack`` keyword argument.

    Decided once per sweep (not per frame) so legacy single-argument
    hooks keep working without a try/except on the hot path.
    """
    try:
        parameters = inspect.signature(frame_hook).parameters
    except (TypeError, ValueError):
        return False
    return "pack" in parameters or any(
        p.kind == inspect.Parameter.VAR_KEYWORD for p in parameters.values()
    )


def fault_simulate_3v_parallel(
    compiled,
    sequence,
    fault_set,
    initial_state=None,
    pack_width=PACK_WIDTH,
    frame_hook=None,
):
    """Packed three-valued SOT fault simulation.

    Marks detected records in *fault_set* with strategy ``BY_3V`` (same
    contract as the serial engine), each as soon as its frame finds it.

    The live faults are split into words of *pack_width* lanes; each
    word is compiled once into a per-gate program and carries its own
    good lane.  The default, :data:`PACK_WIDTH` (4096), holds every
    registry fault universe in one word at about ``2 * signals * 512``
    bytes of masks.  All words advance frame by frame together, and a
    word whose faults are all detected drops out.

    *frame_hook*, when given, is called with the 1-based frame number
    before each word simulates that frame; the campaign runtime uses it
    to poll its wall-clock deadline and RSS budget.  A raising hook
    aborts the sweep and every detection found so far stays marked
    (which is sound): a hook that raises on the first call for frame
    *k* leaves exactly the detections of frames 1 to *k* - 1, whatever
    the width.  A hook that accepts a ``pack`` keyword (like
    :meth:`ResourceGovernor.check_frame`) additionally receives the
    0-based word index, so budget errors on multi-word sweeps name the
    (pack, frame) position.
    """
    if initial_state is None:
        initial_state = [threeval.X] * compiled.num_dffs
    if len(initial_state) != compiled.num_dffs:
        raise ValueError(
            f"state has {len(initial_state)} bits, circuit has "
            f"{compiled.num_dffs} flip-flops"
        )
    live = fault_set.undetected()
    active = [
        (index, _Pack(compiled, live[start : start + pack_width],
                      initial_state))
        for index, start in enumerate(range(0, len(live), pack_width))
    ]
    hook_takes_pack = (
        frame_hook is not None and _hook_accepts_pack(frame_hook)
    )
    ones = [0] * compiled.num_signals
    zeros = [0] * compiled.num_signals
    for time, vector in enumerate(sequence, start=1):
        if not active:
            break
        if len(vector) != compiled.num_pis:
            raise ValueError(
                f"vector has {len(vector)} bits, circuit has "
                f"{compiled.num_pis} inputs"
            )
        for index, pack in active:
            if frame_hook is not None:
                if hook_takes_pack:
                    frame_hook(time, pack=index)
                else:
                    frame_hook(time)
            pack.step(compiled, vector, ones, zeros, time)
        active = [(index, pack) for index, pack in active if pack.undetected]
    return fault_set
