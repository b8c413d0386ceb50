"""Shard planning and poison-shard bisection.

A *shard* is a slice of the campaign's live fault universe, identified
by the indices of its faults in the canonical fault order (the order of
the master :class:`~repro.faults.status.FaultSet`).  Fault simulation
is per-fault independent, so running a campaign per shard and merging
the per-fault verdicts is exact — sharding never changes a result,
only who computes it.

Shard ids are tuples of ints: a planned shard is ``(3,)``, the halves
a poison shard is bisected into are ``(3, 0)`` and ``(3, 1)``, and so
on down to singletons.  Tuples sort in bisection-tree order, which is
what makes the fabric's merge deterministic regardless of completion
order.
"""


def shard_id_text(shard_id):
    """Render a shard id tuple, e.g. ``(3, 1)`` -> ``"3.1"``."""
    return ".".join(str(part) for part in shard_id)


class Shard:
    """One unit of work: fault indices plus retry/bisection bookkeeping."""

    __slots__ = ("shard_id", "indices", "crashes", "not_before")

    def __init__(self, shard_id, indices):
        self.shard_id = tuple(shard_id)
        self.indices = list(indices)
        self.crashes = 0  # worker deaths while running this shard
        self.not_before = 0.0  # backoff gate (monotonic clock)

    def __len__(self):
        return len(self.indices)

    def split(self):
        """Bisect into two child shards with fresh crash counters.

        The caller guarantees ``len(self) > 1``; the halves partition
        the indices in order, so the bisection tree eventually isolates
        a poison fault in a singleton shard.
        """
        mid = len(self.indices) // 2
        return (
            Shard(self.shard_id + (0,), self.indices[:mid]),
            Shard(self.shard_id + (1,), self.indices[mid:]),
        )

    def __repr__(self):
        return (
            f"Shard({shard_id_text(self.shard_id)}, "
            f"{len(self.indices)} faults, {self.crashes} crashes)"
        )


def aligned_shard_size(live_count, workers, shard_size=None, align=None):
    """Pick (or validate) a shard size.

    With no explicit *shard_size* an inline run (``workers=0``) is one
    partition, the whole live set: the paper's one OBDD under one space
    limit, so its verdicts are the in-process campaign's.  A pool aims
    for a few shards per worker, so a straggler does not serialize the
    tail of the sweep.  When *align* is given (the word-parallel
    engine's ``PACK_WIDTH``) and a split size exceeds it, the size is
    rounded down to a multiple, so shards do not fragment packs.
    """
    if shard_size is None:
        if workers == 0:
            return max(live_count, 1)
        per_worker_shards = 4
        shard_size = -(-live_count // (workers * per_worker_shards))
    shard_size = max(int(shard_size), 1)
    if align and shard_size > align:
        shard_size -= shard_size % align
    return shard_size


def plan_shards(indices, shard_size):
    """Slice *indices* into :class:`Shard`\\ s of at most *shard_size*."""
    return [
        Shard((ordinal,), indices[start : start + shard_size])
        for ordinal, start in enumerate(range(0, len(indices), shard_size))
    ]
