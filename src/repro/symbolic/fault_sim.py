"""OBDD-based symbolic fault simulation (Section IV.A).

:class:`SymbolicSession` drives one *symbolic stretch*: the unknown
present state is encoded with one BDD variable per memory element, a
symbolic true-value simulation computes the fault-free frame, and every
live fault is propagated by the same event-driven single-fault engine
the three-valued simulator uses — only over BDD values.  The chosen
observation strategy (SOT / rMOT / MOT) inspects the primary outputs
and accumulates the per-fault detection function.

A session steps one time frame at a time so the campaign's frame loop
(:mod:`repro.runtime.campaign`) can catch
:class:`~repro.bdd.errors.SpaceLimitExceeded` between (and inside)
frames, snapshot the state down to three-valued logic, and later open
a fresh session.  A step that raises leaves the session state exactly
as it was before the step.

Most fault-frames change nothing: the fault has no state difference
and is either unexcited or dies inside its site's fanout-free region.
A *quiet-fault screen* skips :func:`propagate_fault` for those.  A
fault with an empty state diff is quiet when its site carries the
stuck value already, or when the walk from its site toward the region
head meets a constant controlling side input, every gate on the way
(that one included) having only constant side inputs.  The walk's
verdict is decided for every gate pin at once, by one reverse sweep of
the frame (:class:`QuietScreen`).  A quiet fault-frame would evaluate
constants only, so skipping it builds no node the unscreened step
would build, and the faults that still step keep their store order:
node counts, GC timing and verdicts are the unscreened step's.  Under
MOT a quiet fault is still observed, since the good cross product can
detect it, unless every good PO of the frame is a constant.
"""

from repro.bdd import BddManager, StateVariables
from repro.bdd.errors import SpaceLimitExceeded
from repro.bdd.manager import FALSE, TRUE
from repro.bdd.ordering import RemappedStateVariables
from repro.bdd.reorder import block_window_search
from repro.circuit.compile import OP_OR
from repro.circuit.regions import region_sinks
from repro.engines.algebra import BddAlgebra
from repro.engines.evaluate import next_state_of, outputs_of, simulate_frame
from repro.engines.propagate import propagate_fault
from repro.faults.model import BRANCH, STEM, stem_signal
from repro.faults.status import UNDETECTED, FaultSet
from repro.logic import threeval
from repro.obs.tracer import NULL_TRACER
from repro.symbolic.strategies import FrameContext, get_strategy


class SymbolicSession:
    """One symbolic stretch of the (hybrid) fault simulator."""

    def __init__(
        self,
        compiled,
        strategy,
        good_state_3v=None,
        node_limit=None,
        variable_scheme="interleaved",
        start_time=0,
    ):
        if isinstance(strategy, str):
            strategy = get_strategy(strategy)
        self.compiled = compiled
        self.strategy = strategy
        self.state_vars = StateVariables(
            compiled.num_dffs, scheme=variable_scheme
        )
        self.manager = BddManager(
            num_vars=self.state_vars.num_vars, node_limit=node_limit
        )
        self.algebra = BddAlgebra(self.manager)

        if good_state_3v is None:
            good_state_3v = [threeval.X] * compiled.num_dffs
        self.good_state = [
            self._state_bit_to_bdd(i, v) for i, v in enumerate(good_state_3v)
        ]
        # id(record) -> [record, state_diff (dict dff->bdd), accumulator,
        #                site, stuck, walk] (the last three: _screen_of)
        self._store = {}
        self._screen = QuietScreen(compiled)
        # quiet fault-frames of the committed steps (see step)
        self.quiet_skips = 0
        # start_time offsets detection times: a campaign opening a
        # session mid-sequence passes the current frame index so
        # detected_at stays absolute across session re-opens
        self.time = start_time
        # optional callback (record, nodes_allocated_this_frame) called
        # after each fault's frame inside step(), a quiet fault's too
        # (0 nodes, plus what its MOT observation built); the campaign
        # governor uses it to bound per-fault frame cost.  A raising
        # hook aborts the step without mutating the session.
        self.fault_cost_hook = None
        # optional PressureMonitor armed via attach_pressure(); step()
        # offers it the frame boundary as a safe point for GC and
        # reorder rescue
        self.pressure = None
        # observability: the campaign swaps in a live tracer/registry
        # when --trace/--metrics are requested; detections then emit
        # events carrying the detection-function BDD size
        self.tracer = NULL_TRACER
        self.metrics = None

    # ------------------------------------------------------------------
    def _state_bit_to_bdd(self, dff_idx, value3v, free=False):
        if value3v == threeval.X:
            state_vars = self.state_vars
            var = state_vars.y(dff_idx) if free else state_vars.x(dff_idx)
            return self.manager.mk_var(var)
        return TRUE if value3v == threeval.ONE else FALSE

    def attach_fault(self, record, state_diff_3v=None):
        """Register a live fault, optionally with a three-valued state
        difference carried over from a three-valued interlude."""
        self._attach(record, (state_diff_3v or {}).items(), free=False)

    def adopt_fault(self, record, faulty_state_3v):
        """Register a live fault that joins this session mid-stretch.

        *faulty_state_3v* is the fault's whole three-valued state.  Its
        X bits get free variables ``y_i`` of their own: the session's
        good-state functions (or ``x_i``) would tie the faulty state to
        the good machine's correlations, miss real faulty states, and
        let a detection function collapse without a real detection.
        Every bit that is not a constant shared with the good machine
        lands in the fault's diff, so its faulty machine depends on
        ``y`` alone: SOT and rMOT never use ``y``, and MOT's ``x -> y``
        rename leaves it as it is.
        """
        self._attach(record, enumerate(faulty_state_3v), free=True)

    def _attach(self, record, bits, free):
        diff = {}
        for dff_idx, value in bits:
            bdd = self._state_bit_to_bdd(dff_idx, value, free)
            if bdd != self.good_state[dff_idx]:
                diff[dff_idx] = bdd
        self._store[id(record)] = [
            record,
            diff,
            self.strategy.initial_state(self.manager),
            *self._screen_of(record.fault),
        ]

    def _screen_of(self, fault):
        """The static part of the quiet-fault screen of *fault*.

        ``(site, stuck, walk)``: the signal whose good value shows
        whether the fault is excited, the stuck value as a BDD constant,
        and the index of the first gate pin of the walk toward the
        region head (None when the site heads its region, and for a
        flip-flop D-pin fault, which only the excitation test screens).
        """
        kind = fault.lead[0]
        if kind == STEM:
            walk = self._screen.sink_pin[fault.lead[1]]
        elif kind == BRANCH:
            walk = self._screen.pin(fault.lead[1], fault.lead[2])
        else:
            walk = None
        stuck = TRUE if fault.value else FALSE
        return stem_signal(self.compiled, fault), stuck, walk

    def attach_faults(self, records, diffs_3v=None):
        for record in records:
            diff = diffs_3v.get(id(record)) if diffs_3v else None
            self.attach_fault(record, diff)

    def live_records(self):
        return [entry[0] for entry in self._store.values()]

    def live_count(self):
        return len(self._store)

    # ------------------------------------------------------------------
    # memory pressure
    # ------------------------------------------------------------------
    def attach_pressure(self, monitor):
        """Arm memory-pressure relief for this session.

        The monitor chains onto the manager's allocation hook (after
        any governor metering already attached) and :meth:`step` calls
        its ``frame_relief`` between frames.  GC needs no caller
        cooperation beyond this: the session knows all its roots.
        """
        self.pressure = monitor
        monitor.attach(self.manager)

    def _roots(self):
        """Every BDD index the session holds: the GC root set."""
        roots = list(self.good_state)
        for entry in self._store.values():
            roots.extend(entry[1].values())
            if entry[2] is not None:
                roots.append(entry[2])
        return roots

    def live_nodes(self):
        """Shared node count reachable from the session's roots."""
        return self.manager.size(self._roots())

    def reorder_rescue(self, window=2, passes=1):
        """Try to shrink the session by rearranging state-variable pairs.

        Runs :func:`~repro.bdd.reorder.block_window_search` at
        ``(x_i, y_i)`` block granularity — pairs move as units, so the
        MOT ``x -> y`` rename stays monotone.  When a smaller
        arrangement is found the session adopts it wholesale: a fresh
        manager (inheriting the allocation hook, so budget metering and
        pressure checks keep firing), translated roots, and a
        :class:`~repro.bdd.ordering.RemappedStateVariables` view.
        Returns the number of nodes saved (0 when nothing improved or
        the scheme does not support pair-block rescue).

        Invalidates clones, like :meth:`compact`.
        """
        state_vars = self.state_vars
        if state_vars.scheme != "interleaved" or state_vars.num_dffs < 2:
            return 0
        manager = self.manager
        blocks = [
            (state_vars.x(i), state_vars.y(i))
            for i in range(state_vars.num_dffs)
        ]
        # flatten the store position-addressably so the translated
        # roots can be written straight back
        roots = list(self.good_state)
        slots = []
        for entry in self._store.values():
            for dff_idx in entry[1]:
                slots.append((entry, 1, dff_idx))
                roots.append(entry[1][dff_idx])
            if entry[2] is not None:
                slots.append((entry, 2, None))
                roots.append(entry[2])
        before = manager.num_nodes
        found = block_window_search(
            manager, roots, blocks, window=window, passes=passes,
            node_limit=manager.node_limit,
        )
        if found is None:
            return 0
        new_manager, new_roots, var_map = found
        new_manager.alloc_hook = manager.alloc_hook
        # the session-lifetime peak and operation stats survive the
        # manager swap (carrying also re-arms opt-in stat counting)
        new_manager.peak_nodes = max(
            new_manager.peak_nodes, manager.peak_nodes
        )
        new_manager.carry_stats_from(manager)
        self.manager = new_manager
        self.algebra = BddAlgebra(new_manager)
        self.state_vars = RemappedStateVariables(state_vars, var_map)
        count = len(self.good_state)
        self.good_state = list(new_roots[:count])
        for (entry, pos, dff_idx), value in zip(slots, new_roots[count:]):
            if pos == 1:
                entry[1][dff_idx] = value
            else:
                entry[2] = value
        if self.pressure is not None:
            self.pressure.rebind(new_manager)
        return before - new_manager.num_nodes

    # ------------------------------------------------------------------
    def step(self, vector, mark_detected=True):
        """Simulate one time frame; returns the newly detected records.

        Raises :class:`SpaceLimitExceeded` without mutating the session
        when the OBDD node limit is hit.  With ``mark_detected=False``
        the fault records' statuses are left untouched (used by cloned
        trial sessions in the MOT-guided test generator) — detected
        records are still dropped from this session's store.

        Quiet faults (module docstring) skip :func:`propagate_fault`;
        :attr:`quiet_skips` counts them once the step commits.
        """
        if self.pressure is not None:
            # the frame boundary is the one safe point for rebuild-based
            # relief: no traversal in flight, all roots translatable
            self.pressure.frame_relief(self)
        compiled = self.compiled
        algebra = self.algebra
        pi_values = []
        for bit in vector:
            if bit not in (0, 1):
                raise ValueError(
                    "symbolic simulation expects fully specified vectors"
                )
            pi_values.append(algebra.const(bit))

        good_values = simulate_frame(
            compiled, algebra, pi_values, self.good_state
        )
        manager = self.manager
        good_po = outputs_of(compiled, good_values)
        ctx = FrameContext(manager, self.state_vars, good_po)
        observe_silent = self.strategy.needs_y_variables
        # MOT multiplies even a silent fault's detection function by
        # prod [o(x) == o(y)], which is 1 only when every good PO is a
        # constant: only then may a quiet fault skip observe as well
        observe_quiet = observe_silent and any(po > TRUE for po in good_po)
        cost_hook = self.fault_cost_hook
        quiet_pins = None  # this frame's walk verdicts, swept on demand

        observing = self.tracer.enabled or self.metrics is not None
        quiet = 0
        detected = []
        detect_sizes = []
        new_store = {}
        for key, entry in self._store.items():
            record, state_diff, acc, site, stuck, walk = entry
            is_quiet = False
            if not state_diff:
                if good_values[site] == stuck:
                    is_quiet = True
                elif walk is not None:
                    if quiet_pins is None:
                        quiet_pins = self._screen.sweep(good_values)
                    is_quiet = quiet_pins[walk]
            if is_quiet:
                quiet += 1
                if not observe_quiet:
                    # this frame of the fault is the fault-free frame
                    if cost_hook is not None:
                        cost_hook(record, 0)
                    new_store[key] = entry
                    continue
            nodes_before = manager.num_nodes
            next_state_diff = state_diff
            po_diff = {}
            try:
                if not is_quiet:
                    result = propagate_fault(
                        compiled, algebra, good_values, record.fault,
                        state_diff,
                    )
                    next_state_diff = result.next_state_diff
                    for sig, faulty in result.diff.items():
                        for po_pos in compiled.po_sinks[sig]:
                            po_diff[po_pos] = faulty
                hit = False
                if po_diff or observe_silent:
                    hit, acc = self.strategy.observe(ctx, acc, po_diff)
            except SpaceLimitExceeded as exc:
                # attribute the overflow to this fault so the campaign
                # runtime can demote it instead of dropping the session
                exc.fault_key = record.fault.key()
                raise
            if cost_hook is not None:
                cost_hook(record, manager.num_nodes - nodes_before)
            if hit:
                detected.append(record)
                if observing:
                    size = manager.size(acc) if acc is not None else 0
                    detect_sizes.append(size)
                    if self.metrics is not None:
                        self.metrics.observe("bdd.detect_fn_nodes", size)
            else:
                new_store[key] = [
                    record, next_state_diff, acc, site, stuck, walk
                ]

        # Commit only after the whole frame succeeded.
        self.time += 1
        self._store = new_store
        self.quiet_skips += quiet
        if self.metrics is not None:
            self.metrics.inc("symbolic.quiet_skips", quiet)
        self.good_state = next_state_of(compiled, good_values)
        if mark_detected:
            for position, record in enumerate(detected):
                # X-redundant faults may well be symbolically detectable
                # — that is the whole point of the MOT strategies.
                record.mark_detected(self.strategy.detected_by, self.time)
                if self.tracer.enabled:
                    self.tracer.event(
                        "detect",
                        fault=str(record.fault.key()),
                        rung=self.strategy.name,
                        frame=self.time,
                        by="symbolic",
                        acc_nodes=detect_sizes[position],
                    )
        return detected

    def clone(self):
        """A cheap fork of the session sharing the BDD manager.

        The manager is append-only between garbage collections, so the
        clone and the original stay valid side by side; this is what
        lets the MOT-guided test generator *try* a candidate vector and
        discard the outcome.  Do not call :meth:`compact` while clones
        are alive — collection invalidates their node indices.
        """
        other = SymbolicSession.__new__(SymbolicSession)
        other.compiled = self.compiled
        other.strategy = self.strategy
        other.state_vars = self.state_vars
        other.manager = self.manager
        other.algebra = self.algebra
        other.good_state = list(self.good_state)
        other._store = {
            key: [entry[0], dict(entry[1]), *entry[2:]]
            for key, entry in self._store.items()
        }
        other._screen = self._screen
        other.quiet_skips = self.quiet_skips
        other.time = self.time
        other.fault_cost_hook = self.fault_cost_hook
        # pressure relief (GC / rescue) would invalidate the original;
        # clones run unmonitored — and untraced, so trial steps of the
        # test generator never pollute the trace
        other.pressure = None
        other.tracer = NULL_TRACER
        other.metrics = None
        return other

    # ------------------------------------------------------------------
    def _to_3v(self, bdd):
        value = self.manager.const_value(bdd)
        return threeval.X if value is None else value

    def project_state_3v(self):
        """The fault-free state projected down to three-valued logic."""
        return [self._to_3v(b) for b in self.good_state]

    def _diff_relative(self, state_diff, good_3v):
        """Three-valued faulty-state diff of one fault vs *good_3v*.

        The faulty machine differs from this session's good state only
        on the keys of *state_diff*; the reference state may differ
        elsewhere too (e.g. the campaign's shared three-valued
        trajectory is less defined than the symbolic one), so every
        memory element is compared.  Projected faulty values are sound
        individually, which keeps the combined diff conservative.
        """
        diff3 = {}
        for dff_idx, good_bdd in enumerate(self.good_state):
            value = self._to_3v(state_diff.get(dff_idx, good_bdd))
            if value != good_3v[dff_idx]:
                diff3[dff_idx] = value
        return diff3

    def snapshot_3v(self):
        """Project the session state down to three-valued logic.

        Returns ``(good_state_3v, diffs_3v)`` where *diffs_3v* maps
        ``id(record)`` to a three-valued state-difference dict — the
        format :func:`attach_faults` and the three-valued engine accept.
        """
        good_3v = self.project_state_3v()
        return good_3v, self.snapshot_diffs(relative_to=good_3v)

    def snapshot_diffs(self, relative_to=None):
        """Per-fault three-valued state diffs keyed by ``id(record)``.

        *relative_to* is the three-valued good state the diffs are
        expressed against (default: this session's own projection).
        The campaign runtime passes its shared good-machine state here
        when checkpointing.
        """
        if relative_to is None:
            relative_to = self.project_state_3v()
        return {
            key: self._diff_relative(entry[1], relative_to)
            for key, entry in self._store.items()
        }

    def detach(self, record, relative_to=None):
        """Remove *record* from the session without touching its status.

        Returns the fault's three-valued state diff (against
        *relative_to*, defaulting to the session's projected good
        state) so the caller can hand the fault to a three-valued
        engine or another session.
        """
        entry = self._store.pop(id(record))
        if relative_to is None:
            relative_to = self.project_state_3v()
        return self._diff_relative(entry[1], relative_to)

    def compact(self):
        """Garbage-collect the manager, keeping only live session roots.

        Returns the number of nodes freed.
        """
        before = self.manager.num_nodes
        translate = self.manager.collect(self._roots())
        self.good_state = [translate[b] for b in self.good_state]
        for entry in self._store.values():
            entry[1] = {
                dff: translate[b] for dff, b in entry[1].items()
            }
            if entry[2] is not None:
                entry[2] = translate[entry[2]]
        return before - self.manager.num_nodes


class QuietScreen:
    """The walk of the quiet-fault screen, for every gate pin at once.

    A fault effect entering a gate pin dies in its fanout-free region
    when the walk from that pin toward the region head (see
    :func:`~repro.circuit.regions.region_sinks`) meets a gate with a
    constant controlling side input, every gate up to and including
    that one having only constant side inputs: the faulty value then
    stays a constant, so the path builds no node, and a gate that is
    not controlled is the identity or an inversion of its on-path
    input, so the difference survives it whatever the stuck value.

    Gate pins are numbered in gate order (:meth:`pin`).  A pin's
    verdict depends only on its own gate's side inputs and on the
    verdict of the pin its gate's output feeds, which lies later in
    the gate order; :meth:`sweep` therefore decides every pin of a
    frame in one pass over the gates in reverse.
    """

    def __init__(self, compiled):
        self.pin_base = []
        pins = 0
        for _out, fanins, _opcode, _inverted in compiled.program:
            self.pin_base.append(pins)
            pins += len(fanins)
        self.num_pins = pins
        #: per signal, the index of the gate pin its region's path
        #: leads to next (None at a head)
        self.sink_pin = [
            None if sink is None else self.pin(*sink)
            for sink in region_sinks(compiled)
        ]
        # per gate with inputs, in reverse order: (first pin, fanins,
        # controlling value or -1, pin its output feeds or None); an
        # AND or OR opcode is its gate's controlling value
        self._gates = [
            (
                self.pin_base[pos],
                fanins,
                opcode if opcode <= OP_OR else -1,
                self.sink_pin[out],
            )
            for pos, (out, fanins, opcode, _inverted)
            in reversed(list(enumerate(compiled.program)))
            if fanins
        ]

    def pin(self, gate_pos, pin):
        """Index of input *pin* of the gate at *gate_pos*."""
        return self.pin_base[gate_pos] + pin

    def sweep(self, good_values):
        """Per gate pin, whether an effect entering it dies this frame."""
        quiet = [False] * self.num_pins
        for base, fanins, ctrl, down in self._gates:
            values = [good_values[src] for src in fanins]
            width = len(values)
            variable = width - values.count(FALSE) - values.count(TRUE)
            if variable > 1:
                continue  # every pin has a non-constant side input
            # the verdict of a pin whose gate lets the effect through
            through = down is not None and quiet[down]
            if variable:
                # only the non-constant input's pin has constant sides
                pin = base + values.index(max(values))
                quiet[pin] = ctrl in values or through
            elif ctrl in values or through:
                quiet[base:base + width] = [True] * width
                if values.count(ctrl) == 1:
                    # its own side inputs do not control the gate
                    quiet[base + values.index(ctrl)] = through
        return quiet


class SymbolicFaultSimResult:
    """Outcome of a pure (non-hybrid) symbolic run."""

    def __init__(self, fault_set, strategy_name, frames, exact, peak_nodes):
        self.fault_set = fault_set
        self.strategy = strategy_name
        self.frames_simulated = frames
        self.exact = exact
        self.peak_nodes = peak_nodes

    def __repr__(self):
        counts = self.fault_set.counts()
        flag = "exact" if self.exact else "approximate"
        return (
            f"SymbolicFaultSimResult({self.strategy}, "
            f"{counts['detected']}/{counts['total']} detected, {flag})"
        )


def symbolic_fault_simulate(
    compiled,
    sequence,
    fault_set,
    strategy="MOT",
    initial_state=None,
    node_limit=None,
    variable_scheme="interleaved",
):
    """Pure symbolic fault simulation over the whole sequence.

    Simulates every record of *fault_set* that is still UNDETECTED.
    Raises :class:`SpaceLimitExceeded` when *node_limit* is given and
    hit — use :func:`repro.symbolic.hybrid.hybrid_fault_simulate` (the
    campaign's frame loop) for the fallback behaviour of the paper.
    With no limit this is the exact reference that frame loop must
    reproduce whenever it reports ``exact``.
    """
    if isinstance(fault_set, (list, tuple)):
        fault_set = FaultSet(fault_set)
    session = SymbolicSession(
        compiled,
        strategy,
        good_state_3v=initial_state,
        node_limit=node_limit,
        variable_scheme=variable_scheme,
    )
    session.attach_faults(fault_set.symbolic_candidates())
    for vector in sequence:
        session.step(vector)
    return SymbolicFaultSimResult(
        fault_set,
        session.strategy.name,
        session.time,
        exact=True,
        peak_nodes=session.manager.peak_nodes,
    )
