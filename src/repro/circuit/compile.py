"""Compilation of a netlist into the flat form the simulators consume.

:func:`compile_circuit` assigns every net a dense integer index,
levelises the combinational part (primary inputs, flip-flop outputs and
constants at level 0) and precomputes fanout lists, so that all
simulation engines — three-valued, word-parallel and symbolic — share
one representation and one event-driven propagation order.

It also compiles the gates into a flat *gate program*: per gate, in
evaluation order, the tuple ``(out, fanins, opcode, inverted)``.  The
opcode names the base operation (:data:`OP_AND`, :data:`OP_OR`,
:data:`OP_XOR`, :data:`OP_ID`, :data:`OP_CONST`) and ``inverted`` the
output inversion, so the evaluator never looks a gate kind up again.
"""

from repro.circuit import gates as gatelib
from repro.circuit.validate import validate

# Opcodes of the gate program.  An AND or OR opcode equals the
# controlling input value of its gate (0 for AND/NAND, 1 for OR/NOR).
OP_AND = 0
OP_OR = 1
OP_XOR = 2
OP_ID = 3
OP_CONST = 4

_OPCODE_OF_BASE = {
    "AND": OP_AND,
    "OR": OP_OR,
    "XOR": OP_XOR,
    "ID": OP_ID,
    "CONST": OP_CONST,
}


def gate_opcode(kind):
    """``(opcode, inverted)`` of a combinational gate kind."""
    base, inverted = gatelib.base_op(kind)
    return _OPCODE_OF_BASE[base], inverted


class CompiledGate:
    """A gate in evaluation order."""

    __slots__ = ("pos", "out", "kind", "fanins", "level")

    def __init__(self, pos, out, kind, fanins, level):
        self.pos = pos  # position in topological order
        self.out = out  # output signal index
        self.kind = kind
        self.fanins = fanins  # tuple of signal indices
        self.level = level

    def __repr__(self):
        return f"CompiledGate(#{self.pos} s{self.out} = {self.kind}{self.fanins})"


class CompiledCircuit:
    """Flat, index-based view of a :class:`Circuit`.

    Attributes
    ----------
    names / index:
        bidirectional net-name <-> signal-index maps.
    pis:
        signal indices of primary inputs, in declaration order.
    ppis:
        signal indices of flip-flop outputs (present-state lines), in a
        fixed order that also defines the state-vector layout.
    dff_d:
        signal indices of the flip-flop D inputs, aligned with ``ppis``.
    pos:
        signal indices observed as primary outputs, in declaration order.
    gates:
        :class:`CompiledGate` list in topological (level) order.
    program:
        per gate, aligned with ``gates``, the tuple ``(out, fanins,
        opcode, inverted)`` (see :func:`gate_opcode`).
    gate_at:
        per-signal position into ``gates`` (None for PIs and PPIs).
    fanout_gates:
        per-signal list of ``(gate_pos, pin)`` gate sinks.
    dff_sinks:
        per-signal list of flip-flop order indices whose D input reads it.
    po_sinks:
        per-signal list of primary-output positions observing it.
    level:
        per-signal combinational level (sources at 0).
    """

    def __init__(self, circuit):
        validate(circuit)
        self.circuit = circuit
        self.names = []
        self.index = {}

        def intern(name):
            idx = self.index.get(name)
            if idx is None:
                idx = len(self.names)
                self.index[name] = idx
                self.names.append(name)
            return idx

        self.pis = [intern(n) for n in circuit.inputs]
        self.ppis = [intern(q) for q in circuit.dffs]
        for gate_out in circuit.gates:
            intern(gate_out)

        self.num_signals = len(self.names)
        self.pos = [self.index[n] for n in circuit.outputs]
        self.dff_d = [self.index[d] for d in circuit.dffs.values()]

        self._levelise(circuit)
        self._build_fanout(circuit)
        self.program = [
            (cg.out, cg.fanins, *gate_opcode(cg.kind)) for cg in self.gates
        ]

    # ------------------------------------------------------------------
    def _levelise(self, circuit):
        level = [0] * self.num_signals
        gate_at = [None] * self.num_signals
        order = []

        # Kahn's algorithm over the combinational gate graph.
        remaining = {}
        dependents = {i: [] for i in range(self.num_signals)}
        ready = []
        for out_name, gate in circuit.gates.items():
            out = self.index[out_name]
            nped = 0
            for src_name in gate.fanins:
                src = self.index[src_name]
                if src_name in circuit.gates:
                    nped += 1
                    dependents[src].append(out)
            if nped == 0:
                ready.append(out)
            remaining[out] = nped

        topo = []
        while ready:
            out = ready.pop()
            topo.append(out)
            for dep in dependents[out]:
                remaining[dep] -= 1
                if remaining[dep] == 0:
                    ready.append(dep)
        if len(topo) != len(circuit.gates):
            raise AssertionError("cycle slipped through validation")

        for out in topo:
            gate = circuit.gates[self.names[out]]
            fanins = tuple(self.index[s] for s in gate.fanins)
            lvl = 1 + max((level[s] for s in fanins), default=0)
            level[out] = lvl
            cg = CompiledGate(len(order), out, gate.kind, fanins, lvl)
            gate_at[out] = cg.pos
            order.append(cg)

        # Evaluation order sorted by level for deterministic event queues.
        order.sort(key=lambda g: (g.level, g.out))
        for pos, cg in enumerate(order):
            cg.pos = pos
            gate_at[cg.out] = pos

        self.gates = order
        self.gate_at = gate_at
        self.level = level
        self.max_level = max(level) if level else 0

    def _build_fanout(self, circuit):
        self.fanout_gates = [[] for _ in range(self.num_signals)]
        self.dff_sinks = [[] for _ in range(self.num_signals)]
        self.po_sinks = [[] for _ in range(self.num_signals)]
        for cg in self.gates:
            for pin, src in enumerate(cg.fanins):
                self.fanout_gates[src].append((cg.pos, pin))
        for dff_idx, d in enumerate(self.dff_d):
            self.dff_sinks[d].append(dff_idx)
        for po_pos, net in enumerate(self.pos):
            self.po_sinks[net].append(po_pos)

    # ------------------------------------------------------------------
    def sink_count(self, sig):
        """Total number of sinks (gate pins + DFF D pins + POs) of *sig*."""
        return (
            len(self.fanout_gates[sig])
            + len(self.dff_sinks[sig])
            + len(self.po_sinks[sig])
        )

    def has_fanout_branches(self, sig):
        """True when *sig* is a fanout stem (more than one sink)."""
        return self.sink_count(sig) > 1

    @property
    def num_pis(self):
        return len(self.pis)

    @property
    def num_pos(self):
        return len(self.pos)

    @property
    def num_dffs(self):
        return len(self.ppis)

    def __repr__(self):
        return (
            f"CompiledCircuit({self.circuit.name!r}: "
            f"{self.num_signals} signals, {len(self.gates)} gates, "
            f"max level {self.max_level})"
        )


def compile_circuit(circuit):
    """Validate and compile *circuit* into a :class:`CompiledCircuit`."""
    return CompiledCircuit(circuit)
