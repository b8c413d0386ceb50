"""Errors raised by the OBDD package."""


class BddError(Exception):
    """Base class for OBDD errors."""


class SpaceLimitExceeded(BddError):
    """The unique table grew past the configured node limit.

    The hybrid fault simulator (Section IV.A of the paper) catches this
    to fall back to three-valued simulation for a few frames.

    ``fault_key`` stays None for overflows in the fault-free symbolic
    simulation; the symbolic fault simulator tags the exception with
    the offending fault's key when the overflow happened while
    propagating a single fault, which lets the campaign runtime demote
    just that fault instead of abandoning the whole session.
    """

    fault_key = None

    def __init__(self, limit, requested):
        self.limit = limit
        self.requested = requested
        super().__init__(
            f"OBDD node limit exceeded: {requested} nodes requested, "
            f"limit is {limit}"
        )


class MemoryPressureExceeded(SpaceLimitExceeded):
    """A memory-pressure relief rung gave up.

    Raised by the pressure monitor when the cheap relief rungs (cache
    eviction, garbage collection, reorder rescue) could not bring the
    resident set back under the hard watermark, or when a failpoint
    makes one of those rungs fail.  Subclassing
    :class:`SpaceLimitExceeded` means every existing surrender path —
    the hybrid three-valued fallback, the campaign's per-fault demotion
    — handles memory pressure exactly like a node-limit overflow.

    ``trigger`` names the rung that gave up: ``"rss"`` for the hard
    watermark, ``"evict"``, ``"gc"`` or ``"rescue"`` for a failed
    relief rung.  ``requested`` is the reading that rung gave up at and
    ``limit`` its bound, both in the quantity ``measure`` names:
    ``"rss"`` (bytes), ``"cache_size"`` (computed-table entries) or
    ``"nodes"``.
    """

    def __init__(self, limit, observed, trigger="rss", measure="rss"):
        self.limit = limit
        self.requested = observed
        self.trigger = trigger
        self.measure = measure
        if trigger == "rss":
            message = (
                f"memory pressure: RSS {observed} bytes over hard "
                f"watermark {limit}"
            )
        else:
            message = (
                f"memory pressure: {trigger} relief failed at "
                f"{measure} {observed} (limit {limit})"
            )
        BddError.__init__(self, message)


class VariableOrderError(BddError):
    """A rename/compose would violate the fixed variable order."""
