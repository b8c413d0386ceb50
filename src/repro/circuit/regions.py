"""Fanout-free region (FFR) analysis.

A fanout-free region is a maximal tree of gates in which every internal
net has exactly one sink, and that sink is a gate pin.  The *head* of a
region is a net that either has more than one sink, or is observed by a
primary output or a flip-flop D input, or has no sink at all.

Step 3 of the ``ID_X-red`` procedure performs a backward observability
traversal inside each region (see :mod:`repro.xred.idxred`), and the
symbolic simulator's quiet-fault screen walks a fault's region forward
to its head (see :mod:`repro.symbolic.fault_sim`); this module provides
the underlying structural classification, which is also handy for
statistics and tests.
"""


def is_head(compiled, sig):
    """True when signal *sig* is the head of its fanout-free region."""
    gate_pins = len(compiled.fanout_gates[sig])
    others = len(compiled.dff_sinks[sig]) + len(compiled.po_sinks[sig])
    total = gate_pins + others
    if total != 1:
        return True  # fanout stem or dangling net
    return others == 1  # unique sink is a PO or DFF observation


def region_sinks(compiled):
    """Per-signal next step toward the region head.

    ``sink[sig]`` is the ``(gate_pos, pin)`` of the one gate pin reading
    *sig* when *sig* lies inside a region, and None when *sig* heads
    one.  Following it from any signal walks the region's unique path
    to its head.
    """
    return [
        None if is_head(compiled, sig) else compiled.fanout_gates[sig][0]
        for sig in range(compiled.num_signals)
    ]


def ffr_heads(compiled):
    """All region heads, as a list of signal indices."""
    return [s for s in range(compiled.num_signals) if is_head(compiled, s)]


def head_of(compiled):
    """Per-signal region head: ``head[sig]`` is the head signal index.

    Primary inputs and flip-flop outputs that directly head a region map
    to themselves.
    """
    sinks = region_sinks(compiled)
    head = [sig if sink is None else None for sig, sink in enumerate(sinks)]
    # Walk gates from high level to low so a gate's output head is known
    # before its inputs are processed; a signal inside a region inherits
    # the head of the gate its unique sink pin belongs to.
    for sig in [cg.out for cg in reversed(compiled.gates)] + (
        compiled.pis + compiled.ppis
    ):
        if head[sig] is None:
            head[sig] = head[compiled.gates[sinks[sig][0]].out]
    return head


def regions(compiled):
    """Map head signal -> sorted list of member signals (head included)."""
    head = head_of(compiled)
    groups = {}
    for sig, h in enumerate(head):
        if h is None:
            continue
        groups.setdefault(h, []).append(sig)
    for members in groups.values():
        members.sort()
    return groups
