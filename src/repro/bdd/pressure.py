"""Memory-pressure monitoring and relief for the symbolic engine.

The paper's only memory-robustness mechanism is the hybrid simulator's
hard 30,000-node space limit (Section IV.A): blow it and fall back to
three-valued simulation.  Everything below that boundary used to be
unmanaged — the computed table grows without bound, garbage collection
and reordering exist but are never invoked automatically, and no layer
sees the actual process footprint.  :class:`PressureMonitor` fills the
gap with a graded escalation ladder fired at safe points:

1. **computed-table eviction** — at throttled ``mk()`` granularity.
   The table is pure memoisation; dropping entries never changes
   results, so this rung is safe even mid-operation.
2. **root-preserving garbage collection** — at frame boundaries, when
   the node store crosses the GC watermark and enough of it is dead
   to be worth a rebuild (:meth:`frame_relief`).
3. **reorder rescue** — optional
   :func:`~repro.bdd.reorder.block_window_search` over the session's
   roots when GC alone cannot get back under the watermark.
4. **surrender** — raise
   :class:`~repro.bdd.errors.MemoryPressureExceeded` (a
   :class:`~repro.bdd.errors.SpaceLimitExceeded`), handing control to
   the existing hybrid fallback / per-fault demotion machinery.

Rungs 1-3 are semantics-preserving: they change memory use, never
verdicts.  Only rung 4 degrades, and it reuses the conservative
(``exact=False``) paths that already exist.

The monitor is engine-level: it watches one
:class:`~repro.bdd.manager.BddManager` and relieves through a *session*
duck type (``live_nodes()``, ``compact()``, ``reorder_rescue()``) so
the BDD package stays free of simulator imports.
:class:`PressureConfig` is the declarative, picklable form a campaign
ships to every worker; each symbolic session gets its own monitor
built from it, reading RSS through the governor's one probe.  A
monitor keeps no counters: each rung it fires is an ``on_event`` call,
and the campaign's aggregation of those events is the accounting.
"""

from repro import failpoints as _failpoints
from repro.bdd.errors import MemoryPressureExceeded

#: fraction of the node limit at which frame-boundary GC fires
DEFAULT_GC_WATERMARK = 0.85
#: GC runs only when live/total nodes is at or below this fraction
DEFAULT_LIVE_FRACTION = 0.7
#: allocations between alloc-granularity pressure checks
DEFAULT_CHECK_STRIDE = 512
#: soft / hard RSS watermarks as fractions of the RSS budget
RSS_SOFT_FRACTION = 0.7
RSS_HARD_FRACTION = 0.9
#: block window and sifting passes of one reorder rescue
RESCUE_WINDOW = 2
RESCUE_PASSES = 1


class PressureConfig:
    """Declarative memory-pressure settings.

    Plain values only (picklable and JSON-able), so one config can be
    shared by a whole campaign and shipped across the process fabric;
    per-session :class:`PressureMonitor` instances are built with
    :meth:`monitor`.

    ``rss_budget`` is bytes — the soft watermark (GC request) and hard
    watermark (surrender) sit at :data:`RSS_SOFT_FRACTION` and
    :data:`RSS_HARD_FRACTION` of it.  ``cache_budget`` is
    computed-table entries.  ``gc_watermark`` is a fraction of the
    session's node limit; with no node limit only RSS and cache
    pressure apply.
    """

    _FIELDS = (
        "gc_watermark",
        "live_fraction",
        "cache_budget",
        "rss_budget",
        "reorder_rescue",
        "check_stride",
    )

    def __init__(
        self,
        gc_watermark=DEFAULT_GC_WATERMARK,
        live_fraction=DEFAULT_LIVE_FRACTION,
        cache_budget=None,
        rss_budget=None,
        reorder_rescue=False,
        check_stride=DEFAULT_CHECK_STRIDE,
        rss_sampler=None,
    ):
        if not 0.0 < gc_watermark <= 1.0:
            raise ValueError("gc_watermark must be in (0, 1]")
        if not 0.0 < live_fraction <= 1.0:
            raise ValueError("live_fraction must be in (0, 1]")
        if check_stride < 1:
            raise ValueError("check_stride must be >= 1")
        self.gc_watermark = gc_watermark
        self.live_fraction = live_fraction
        self.cache_budget = cache_budget
        self.rss_budget = rss_budget
        self.reorder_rescue = reorder_rescue
        self.check_stride = check_stride
        # optional injected RSS reader (tests); not serialized — it
        # replaces the probe the campaign hands to :meth:`monitor`
        self.rss_sampler = rss_sampler

    def monitor(self, rss=None, on_event=None):
        """Build a :class:`PressureMonitor` for one session reading RSS
        through *rss*, the governor's probe (RSS watermarks are inert
        without one, unless an ``rss_sampler`` was injected)."""
        return PressureMonitor(self, self.rss_sampler or rss, on_event)

    def to_json(self):
        return {name: getattr(self, name) for name in self._FIELDS}

    @classmethod
    def from_json(cls, data):
        kwargs = {k: v for k, v in data.items() if k in cls._FIELDS}
        return cls(**kwargs)

    def __repr__(self):
        parts = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self._FIELDS
        )
        return f"PressureConfig({parts})"


class PressureMonitor:
    """Watermark checks and relief for one manager/session pair.

    Two safe points drive the monitor:

    * :meth:`note_alloc` hooks into the manager's node-allocation
      callback (chained after any existing hook such as the governor's
      budget metering) and, every ``check_stride`` allocations, runs
      the rungs that are safe mid-operation: cache eviction and the
      hard-RSS surrender (an exception, which unwinds cleanly).
    * :meth:`frame_relief` runs between frames — the only point where
      no traversal is in flight and the session can translate its
      roots — and performs the rebuild-based rungs: root-preserving GC
      and the optional reorder rescue.

    *config* is the :class:`PressureConfig`, *rss* a zero-argument RSS
    reader (the governor's probe), and ``on_event`` receives every
    event dict as it happens — the only record of what fired.
    """

    def __init__(self, config, rss=None, on_event=None):
        self.config = config
        self.on_event = on_event
        self._rss = rss
        # the allocation-granularity path reads these, not the config
        self.check_stride = config.check_stride
        self.cache_budget = config.cache_budget
        self.rss_soft = self.rss_hard = None
        if config.rss_budget is not None:
            self.rss_soft = int(config.rss_budget * RSS_SOFT_FRACTION)
            self.rss_hard = int(config.rss_budget * RSS_HARD_FRACTION)
        self._manager = None
        self._since_check = 0
        self._rss_pending = False

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------
    def attach(self, manager):
        """Chain onto *manager*'s allocation hook.

        Any existing hook (the governor's budget metering) keeps
        firing first; the monitor's check runs after it.
        """
        self.rebind(manager)
        manager.chain_alloc_hook(self.note_alloc)

    def rebind(self, manager):
        """Point the monitor at a replacement manager.

        A reorder rescue swaps the session onto a fresh manager; the
        session carries the chained allocation hook over and calls
        this so watermark checks read the right store.
        """
        self._manager = manager
        self._since_check = 0

    # ------------------------------------------------------------------
    # alloc-granularity safe point
    # ------------------------------------------------------------------
    def note_alloc(self):
        self._since_check += 1
        if self._since_check < self.check_stride:
            return
        self._since_check = 0
        self.check_alloc()

    def check_alloc(self):
        """Relief rungs that are safe mid-operation.

        Mutating the node store here would corrupt in-flight
        traversals (their work stacks hold node indices), so the only
        actions are computed-table eviction and the hard-RSS
        surrender, which unwinds via an exception exactly like a
        node-limit overflow.  A soft-RSS crossing just requests GC at
        the next frame boundary.
        """
        manager = self._manager
        if manager is None:
            return
        if (
            self.cache_budget is not None
            and manager.cache_size > self.cache_budget
        ):
            if _failpoints.fire("pressure.evict"):
                # the eviction rung "fails": surrender through the
                # same exception the hard watermark uses, so the
                # demotion/fallback machinery absorbs it conservatively
                self._rss_pending = True
                raise MemoryPressureExceeded(
                    self.cache_budget, manager.cache_size,
                    trigger="evict", measure="cache_size",
                )
            dropped = manager.evict_cache(0.5)
            self._event(
                "evict", trigger="cache", dropped=dropped,
                cache_size=manager.cache_size,
            )
        if self.rss_hard is None or self._rss is None:
            return
        rss = self._rss()
        if rss is None:
            return
        if rss >= self.rss_hard:
            if manager.cache_size:
                # last cheap shot before surrendering: drop the whole
                # computed table
                dropped = manager.evict_cache(1.0)
                self._event("evict", trigger="rss", dropped=dropped, rss=rss)
            self._rss_pending = True
            raise MemoryPressureExceeded(self.rss_hard, rss)
        if rss >= self.rss_soft:
            self._rss_pending = True

    # ------------------------------------------------------------------
    # frame-boundary safe point
    # ------------------------------------------------------------------
    def frame_relief(self, session):
        """Rebuild-based relief, called by the session between frames.

        Fires when the node store crossed the GC watermark or a soft
        RSS crossing was recorded: first a root-preserving GC (only if
        the live fraction says a rebuild is worth it), then — when GC
        alone did not get back under the watermark and rescue is
        enabled — a block-window reorder of the session's roots.
        Never raises organically; the hard stop lives in
        :meth:`check_alloc`.  (The ``pressure.gc`` / ``pressure.rescue``
        failpoints are the deliberate exception: an injected rung
        failure surrenders via
        :class:`~repro.bdd.errors.MemoryPressureExceeded`, which the
        caller's frame boundary already treats like a space overflow.)
        """
        manager = self._manager
        if manager is None:
            return
        config = self.config
        limit = manager.node_limit
        watermark = None if limit is None else config.gc_watermark * limit
        trigger = None
        if watermark is not None and manager.num_nodes >= watermark:
            trigger = "nodes"
        if self._rss_pending:
            self._rss_pending = False
            trigger = trigger or "rss"
        if trigger is None:
            return

        total = manager.num_nodes
        live = session.live_nodes()
        if live <= config.live_fraction * total:
            if _failpoints.fire("pressure.gc"):
                raise MemoryPressureExceeded(
                    manager.node_limit or 0, total,
                    trigger="gc", measure="nodes",
                )
            freed = session.compact()
            self._event(
                "gc", trigger=trigger, freed=freed, live=live, total=total,
            )
            manager = self._manager  # unchanged object, re-read for clarity
            if watermark is None or manager.num_nodes < watermark:
                return
        if not config.reorder_rescue:
            return
        if _failpoints.fire("pressure.rescue"):
            raise MemoryPressureExceeded(
                manager.node_limit or 0, manager.num_nodes,
                trigger="rescue", measure="nodes",
            )
        freed = session.reorder_rescue(
            window=RESCUE_WINDOW, passes=RESCUE_PASSES
        )
        self._event("rescue", trigger=trigger, freed=freed)

    def _event(self, action, **fields):
        if self.on_event is not None:
            fields["action"] = action
            self.on_event(fields)
