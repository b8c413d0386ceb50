"""Pressure monitor mechanics: eviction, hook chaining, RSS surrender."""

import pytest

from repro.bdd import (
    BddManager,
    MemoryPressureExceeded,
    PressureConfig,
    SpaceLimitExceeded,
)
from repro.runtime.memory import Probe


def populate_cache(manager, n_pairs=6):
    f = manager.const(1)
    for i in range(n_pairs):
        f = manager.and_(
            f, manager.xor(manager.mk_var(2 * i), manager.mk_var(2 * i + 1))
        )
    return f


# ----------------------------------------------------------------------
# manager primitives the monitor builds on
# ----------------------------------------------------------------------
def test_evict_cache_full_and_partial():
    manager = BddManager(num_vars=12)
    populate_cache(manager)
    full = manager.cache_size
    assert full > 0

    dropped = manager.evict_cache(0.5)
    assert dropped == full // 2
    assert manager.cache_size == full - dropped

    remaining = manager.cache_size
    dropped = manager.evict_cache(1.0)
    assert dropped == remaining
    assert manager.cache_size == 0


def test_eviction_never_changes_results():
    manager = BddManager(num_vars=12)
    f = populate_cache(manager)
    count_before = manager.sat_count(f)
    manager.evict_cache(1.0)
    g = populate_cache(manager)  # recompute with a cold cache
    assert g == f
    assert manager.sat_count(f) == count_before


def test_collect_suspends_alloc_hook():
    manager = BddManager(num_vars=8)
    f = populate_cache(manager, n_pairs=3)

    def exploding_hook():
        raise AssertionError("hook fired during collect()")

    manager.alloc_hook = exploding_hook
    translate, (f2,) = manager.collect([f], return_roots=True)
    assert translate[f] == f2
    # the hook is restored afterwards, not dropped
    assert manager.alloc_hook is exploding_hook


# ----------------------------------------------------------------------
# the monitor
# ----------------------------------------------------------------------
def evicts(events):
    return [e for e in events if e["action"] == "evict"]


def test_monitor_evicts_cache_over_budget():
    manager = BddManager(num_vars=16)
    events = []
    monitor = PressureConfig(cache_budget=4, check_stride=1).monitor(
        on_event=events.append
    )
    monitor.attach(manager)
    populate_cache(manager, n_pairs=8)
    assert evicts(events)
    assert sum(e["dropped"] for e in evicts(events)) > 0


def test_monitor_chains_after_existing_hook():
    manager = BddManager(num_vars=16)
    fired = []
    manager.alloc_hook = lambda: fired.append(1)
    events = []
    monitor = PressureConfig(cache_budget=4, check_stride=1).monitor(
        on_event=events.append
    )
    monitor.attach(manager)
    populate_cache(manager, n_pairs=6)
    # the pre-existing (governor-style) hook kept firing on every
    # allocation while the monitor also did its work
    assert len(fired) > 0
    assert evicts(events)


def test_hard_rss_surrenders_with_space_limit_subclass():
    manager = BddManager(num_vars=16)
    rss = Probe(lambda: 100, refresh=1)
    # watermarks at 70% / 90% of the budget: soft 70, hard 90
    monitor = PressureConfig(rss_budget=100, check_stride=1).monitor(rss)
    monitor.attach(manager)
    with pytest.raises(MemoryPressureExceeded) as exc:
        populate_cache(manager, n_pairs=8)
    # the surrender reuses the space-limit unwind path
    assert isinstance(exc.value, SpaceLimitExceeded)
    assert exc.value.limit == 90
    assert exc.value.requested == 100
    assert rss.peak == 100
    # the last cheap shot emptied the computed table first
    assert manager.cache_size == 0


def test_soft_rss_requests_frame_relief():
    manager = BddManager(num_vars=8, node_limit=10_000)
    events = []
    # soft watermark 56, hard 72: a reading of 60 only requests relief
    monitor = PressureConfig(
        rss_budget=80, check_stride=1, live_fraction=1.0,
    ).monitor(lambda: 60, on_event=events.append)
    monitor.attach(manager)
    populate_cache(manager, n_pairs=3)
    assert monitor._rss_pending

    class FakeSession:
        def __init__(self):
            self.compacted = 0

        def live_nodes(self):
            return 0

        def compact(self):
            self.compacted += 1
            return 5

        def reorder_rescue(self, window, passes):  # pragma: no cover
            return 0

    session = FakeSession()
    monitor.frame_relief(session)
    assert session.compacted == 1
    gcs = [e for e in events if e["action"] == "gc"]
    assert len(gcs) == 1
    assert gcs[0]["freed"] == 5
    assert not monitor._rss_pending  # consumed


def test_frame_relief_noop_without_trigger():
    manager = BddManager(num_vars=4, node_limit=10_000)
    events = []
    monitor = PressureConfig().monitor(on_event=events.append)
    monitor.attach(manager)

    class NoSession:
        def live_nodes(self):  # pragma: no cover
            raise AssertionError("relief ran without a trigger")

        compact = reorder_rescue = live_nodes

    monitor.frame_relief(NoSession())
    assert events == []


def test_rescue_runs_when_gc_not_enough():
    manager = BddManager(num_vars=8, node_limit=200)
    # keep the store over the (tiny) watermark no matter what
    populate_cache(manager, n_pairs=2)
    events = []
    monitor = PressureConfig(
        gc_watermark=0.02, live_fraction=1.0, reorder_rescue=True,
    ).monitor(on_event=events.append)
    monitor.attach(manager)

    calls = []

    class StubbornSession:
        def live_nodes(self):
            return 0

        def compact(self):
            calls.append("gc")
            return 0

        def reorder_rescue(self, window, passes):
            calls.append(("rescue", window, passes))
            return 3

    monitor.frame_relief(StubbornSession())
    assert calls == ["gc", ("rescue", 2, 1)]
    assert [e["action"] for e in events] == ["gc", "rescue"]


# ----------------------------------------------------------------------
# the config
# ----------------------------------------------------------------------
def test_config_json_round_trip():
    config = PressureConfig(
        gc_watermark=0.5, live_fraction=0.9, cache_budget=128,
        rss_budget=1 << 30, reorder_rescue=True, check_stride=64,
    )
    restored = PressureConfig.from_json(config.to_json())
    assert restored.to_json() == config.to_json()


def test_config_monitor_derives_watermarks():
    config = PressureConfig(rss_budget=1000, rss_sampler=lambda: 0)
    monitor = config.monitor()
    assert monitor.rss_soft == 700
    assert monitor.rss_hard == 900


def test_config_validation():
    with pytest.raises(ValueError):
        PressureConfig(gc_watermark=0.0)
    with pytest.raises(ValueError):
        PressureConfig(live_fraction=1.5)
    with pytest.raises(ValueError):
        PressureConfig(check_stride=0)


def test_sampler_not_serialized():
    config = PressureConfig(rss_budget=100, rss_sampler=lambda: 1)
    assert "rss_sampler" not in config.to_json()
