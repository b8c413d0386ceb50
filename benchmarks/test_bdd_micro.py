"""Micro-benchmarks of the OBDD package itself (the substrate every
symbolic experiment stands on)."""

import pytest

from repro.bdd import BddManager, StateVariables


def build_parity(manager, n):
    f = manager.const(0)
    for i in range(n):
        f = manager.xor(f, manager.mk_var(i))
    return f


def build_adder_bits(manager, n):
    """Carry chain: stresses ite with shared subgraphs."""
    carry = manager.const(0)
    outs = []
    for i in range(n):
        a = manager.mk_var(2 * i)
        b = manager.mk_var(2 * i + 1)
        s = manager.xor(manager.xor(a, b), carry)
        carry = manager.or_(
            manager.and_(a, b), manager.and_(carry, manager.xor(a, b))
        )
        outs.append(s)
    return outs, carry


def test_bdd_parity_construction(benchmark):
    f = benchmark(lambda: build_parity(BddManager(num_vars=40), 40))
    assert f >= 2


def test_bdd_adder_construction(benchmark):
    def run():
        m = BddManager(num_vars=32)
        outs, carry = build_adder_bits(m, 16)
        return m, outs

    m, outs = benchmark(run)
    benchmark.extra_info["nodes"] = m.num_nodes


def test_bdd_rename_x_to_y(benchmark):
    sv = StateVariables(16)
    mapping = sv.x_to_y()

    def run():
        # fresh manager per round so the rename cache cannot hide work
        m = BddManager(num_vars=sv.num_vars)
        f = m.const(1)
        for i in range(0, 16, 2):
            f = m.and_(
                f, m.xor(m.mk_var(sv.x(i)), m.mk_var(sv.x(i + 1)))
            )
        return m.rename(f, mapping)

    benchmark(run)


def test_bdd_satcount(benchmark):
    m = BddManager(num_vars=24)
    f = build_parity(m, 24)
    count = benchmark(lambda: m.sat_count(f, range(24)))
    assert count == 1 << 23


def test_bdd_window_reordering(benchmark):
    """Window-permutation reordering on the order-sensitive pairs
    function (blocked layout -> near-linear after reordering)."""
    from repro.bdd.reorder import window_search

    n = 5

    def run():
        m = BddManager(num_vars=2 * n)
        f = m.const(1)
        for i in range(n):
            f = m.and_(f, m.xnor(m.mk_var(i), m.mk_var(n + i)))
        before = m.size(f)
        new_manager, (g,), _order = window_search(m, [f], window=3,
                                                  passes=3)
        return before, new_manager.size([g])

    before, after = benchmark(run)
    benchmark.extra_info["size_before"] = before
    benchmark.extra_info["size_after"] = after
    assert after <= before


def test_bdd_garbage_collection(benchmark):
    def run():
        m = BddManager(num_vars=24)
        keep = build_parity(m, 24)
        for i in range(23):
            m.and_(m.mk_var(i), m.mk_var(i + 1))  # garbage
        translate = m.collect([keep])
        return translate[keep]

    benchmark(run)


def test_bdd_disabled_observability_overhead(benchmark):
    """Guard: observability off must not tax the kernels' hot path.

    Runs the same adder construction with the manager's computed-table
    hit/miss counting off (the default) and on, inside each benchmark
    round.  Kernel entries are counted either way, one increment each;
    stats-off probes a plain dict, so its time must not drift up
    toward the stats-on time — that would mean table instrumentation
    leaked out of its opt-in guard.  The ratio assert is lenient
    because the enabled overhead is itself small; absolute regressions
    are caught by comparing against the saved pytest-benchmark
    baselines.
    """
    import time

    def once(enable):
        m = BddManager(num_vars=32)
        if enable:
            m.enable_stats()
        t0 = time.perf_counter()
        build_adder_bits(m, 16)
        return time.perf_counter() - t0

    def run():
        disabled = min(once(False) for _ in range(5))
        enabled = min(once(True) for _ in range(5))
        return disabled, enabled

    disabled, enabled = benchmark(run)
    benchmark.extra_info["disabled_s"] = round(disabled, 6)
    benchmark.extra_info["enabled_s"] = round(enabled, 6)
    benchmark.extra_info["ratio"] = round(disabled / enabled, 3)
    assert disabled <= enabled * 1.10


def test_bdd_disabled_failpoints_overhead(benchmark):
    """Guard: an empty failpoint registry must not tax the node
    allocator.

    With nothing armed, ``BddManager`` installs no alloc hook at all,
    so ``mk()`` runs the uninstrumented path; with ``bdd.alloc`` armed
    at an unreachable threshold the hook is installed and evaluated on
    every fresh node.  Disabled must not drift up toward the armed
    time — that would mean the injection plumbing leaked out of its
    arm-time guard.
    """
    import time

    from repro import failpoints

    def once(arm):
        failpoints.clear()
        if arm:
            failpoints.set_failpoint("bdd.alloc", "after:1000000000")
        try:
            m = BddManager(num_vars=32)
            t0 = time.perf_counter()
            build_adder_bits(m, 16)
            return time.perf_counter() - t0
        finally:
            failpoints.clear()

    def run():
        disabled = min(once(False) for _ in range(5))
        armed = min(once(True) for _ in range(5))
        return disabled, armed

    disabled, armed = benchmark(run)
    benchmark.extra_info["disabled_s"] = round(disabled, 6)
    benchmark.extra_info["armed_s"] = round(armed, 6)
    benchmark.extra_info["ratio"] = round(disabled / armed, 3)
    assert disabled <= armed * 1.10


def test_disabled_failpoint_fire_dispatch(benchmark):
    """The disarmed ``fire()`` site cost: one falsy dict check."""
    from repro import failpoints

    failpoints.clear()

    def run():
        for _ in range(10_000):
            failpoints.fire("checkpoint.write.enospc")

    benchmark(run)


def test_null_tracer_dispatch(benchmark):
    """The no-op tracer's per-site cost: one attribute check / call."""
    from repro.obs.tracer import NULL_TRACER

    def run():
        for _ in range(10_000):
            if NULL_TRACER.enabled:  # the hot-path guard idiom
                NULL_TRACER.event("never")
        with NULL_TRACER.span("frame") as span:
            span.add(outcome="stepped")

    benchmark(run)
