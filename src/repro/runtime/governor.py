"""Cooperative resource budgets for long fault-simulation runs.

A :class:`ResourceGovernor` owns four independent budgets:

* **wall-clock deadline** — checked between frames
  (:meth:`check_frame`) and, because a single pathological frame can
  run for minutes, also at OBDD node-allocation granularity via the
  :attr:`~repro.bdd.manager.BddManager.alloc_hook` callback
  (:meth:`note_node`, throttled to every 1024 allocations),
* **total BDD nodes** — cumulative node allocations across every
  manager the campaign opens (sessions are re-opened after fallbacks
  and demotions; the budget spans all of them),
* **per-fault frame cost** — the number of nodes a single fault's
  propagation may allocate within one frame (symbolic rungs) and the
  number of differing signals it may touch (three-valued rung),
* **process RSS** — the resident set size read from
  ``/proc/self/statm`` through :attr:`ResourceGovernor.rss_probe`, a
  :class:`~repro.runtime.memory.Probe` polled on the same allocation
  stride as the clock.  The governor owns this one probe budget or
  not: pressure monitors and worker heartbeats read it too, so its
  ``peak`` is the one peak RSS every accounting reports.  The budget
  is the *last line*: the in-engine pressure ladder
  (:mod:`repro.bdd.pressure`) relieves below it; the governor stops
  the campaign gracefully — checkpoint intact — when relief could not
  hold the line.

``cache_budget`` rides along as configuration only: the governor does
not police the computed table itself, it hands the value to the
pressure ladder (which evicts) and reports it in accounting.

All checks raise :class:`~repro.runtime.errors.BudgetExceeded`; the
per-fault checks tag the exception with the offending ``fault_key`` so
the campaign can demote just that fault instead of stopping.

The governor is *cooperative*: nothing is preempted, the simulators
simply call in at safe points, which is what keeps a raised budget from
corrupting session state (a :meth:`SymbolicSession.step
<repro.symbolic.fault_sim.SymbolicSession.step>` that raises leaves the
session untouched).
"""

import time as _time

from repro.runtime.errors import BudgetExceeded
from repro.runtime.memory import Probe, read_rss_bytes

# check the wall clock only every N node allocations: a monotonic clock
# read per mk() would dominate the BDD package's runtime.
_CLOCK_STRIDE = 1024
#: calls between two reads of the governor's RSS probe
_RSS_REFRESH = 16


class ResourceGovernor:
    """Budget bookkeeping shared by one campaign."""

    def __init__(
        self,
        deadline=None,
        node_budget=None,
        fault_frame_nodes=None,
        fault_frame_events=None,
        rss_budget=None,
        cache_budget=None,
        clock=_time.monotonic,
        rss_sampler=None,
    ):
        if deadline is not None and deadline < 0:
            raise ValueError("deadline must be >= 0 seconds")
        self.deadline = deadline
        self.node_budget = node_budget
        self.fault_frame_nodes = fault_frame_nodes
        self.fault_frame_events = fault_frame_events
        self.rss_budget = rss_budget
        self.cache_budget = cache_budget
        # an injected reader (tests) stands in for /proc behind the probe
        self.rss_probe = Probe(rss_sampler or read_rss_bytes, _RSS_REFRESH)
        self._clock = clock
        self._started = None
        self._elapsed_before = 0.0  # carried over by a resumed campaign
        self.nodes_allocated = 0
        self._since_clock_check = 0
        self.frame = None  # current frame, for error context
        self.pack = None  # current pack of the word-parallel engine

    # ------------------------------------------------------------------
    def start(self, elapsed_before=0.0, nodes_before=0):
        """Begin (or resume) metering; prior consumption carries over."""
        self._started = self._clock()
        self._elapsed_before = elapsed_before
        self.nodes_allocated = nodes_before
        return self

    def elapsed(self):
        """Wall-clock seconds consumed, including pre-resume time."""
        if self._started is None:
            return self._elapsed_before
        return self._elapsed_before + (self._clock() - self._started)

    # ------------------------------------------------------------------
    def check_deadline(self):
        if self.deadline is None:
            return
        elapsed = self.elapsed()
        if elapsed >= self.deadline:
            raise BudgetExceeded(
                "deadline", self.deadline, elapsed, frame=self.frame,
                pack=self.pack,
            )

    def check_frame(self, frame, pack=None):
        """Frame-boundary check; also usable as an engine frame hook.

        The word-parallel engine calls it before each pack's frame and
        passes the 0-based *pack* index along, so a raised budget names
        the (pack, frame) position.
        """
        self.frame = frame
        self.pack = pack
        self.check_deadline()
        self.check_rss()

    def sample_rss(self):
        """Latest RSS reading in bytes through the probe (None where
        RSS cannot be read)."""
        return self.rss_probe()

    @property
    def peak_rss(self):
        """Highest RSS the probe has read, in bytes (0 before any)."""
        return self.rss_probe.peak

    def check_rss(self):
        if self.rss_budget is None:
            return
        rss = self.sample_rss()
        if rss is not None and rss > self.rss_budget:
            raise BudgetExceeded(
                "rss", self.rss_budget, rss, frame=self.frame,
                pack=self.pack,
            )

    def note_node(self):
        """Node-allocation hook for :class:`BddManager.alloc_hook`."""
        self.nodes_allocated += 1
        if (
            self.node_budget is not None
            and self.nodes_allocated > self.node_budget
        ):
            raise BudgetExceeded(
                "nodes", self.node_budget, self.nodes_allocated,
                frame=self.frame, pack=self.pack,
            )
        self._since_clock_check += 1
        if self._since_clock_check >= _CLOCK_STRIDE:
            self._since_clock_check = 0
            self.check_deadline()
            self.check_rss()

    def check_fault_frame_nodes(self, record, nodes):
        """Per-fault frame-cost hook for symbolic sessions."""
        if (
            self.fault_frame_nodes is not None
            and nodes > self.fault_frame_nodes
        ):
            raise BudgetExceeded(
                "fault-frame-nodes", self.fault_frame_nodes, nodes,
                fault_key=record.fault.key(), frame=self.frame,
            )

    def check_fault_frame_events(self, record, events):
        """Per-fault frame-cost check for the three-valued rung."""
        if (
            self.fault_frame_events is not None
            and events > self.fault_frame_events
        ):
            raise BudgetExceeded(
                "fault-frame-events", self.fault_frame_events, events,
                fault_key=record.fault.key(), frame=self.frame,
            )

    # ------------------------------------------------------------------
    def attach_manager(self, manager):
        """Meter *manager*'s node allocations (and the clock and RSS)
        via mk(), when a node, deadline or RSS budget is armed.

        Chains after any hook already installed (the ``bdd.alloc``
        failpoint arms one at manager construction).
        """
        if (
            self.node_budget is not None
            or self.deadline is not None
            or self.rss_budget is not None
        ):
            manager.chain_alloc_hook(self.note_node)

    def accounting(self):
        """Budget consumption snapshot for results and checkpoints."""
        return {
            "deadline": self.deadline,
            "elapsed": round(self.elapsed(), 6),
            "node_budget": self.node_budget,
            "nodes_allocated": self.nodes_allocated,
            "fault_frame_nodes": self.fault_frame_nodes,
            "fault_frame_events": self.fault_frame_events,
            "rss_budget": self.rss_budget,
            "cache_budget": self.cache_budget,
            "peak_rss": self.peak_rss,
        }

    def __repr__(self):
        return (
            f"ResourceGovernor(deadline={self.deadline}, "
            f"node_budget={self.node_budget}, "
            f"fault_frame_nodes={self.fault_frame_nodes})"
        )
