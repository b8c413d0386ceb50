"""Cooperative budget checks of the resource governor."""

import pytest

from repro.bdd import BddManager, PressureConfig
from repro.bdd.manager import FALSE, TRUE
from repro.faults.model import STEM, Fault
from repro.faults.status import FaultSet
from repro.runtime import BudgetExceeded, ResourceGovernor
from repro.runtime.fabric.worker import _BEAT_STRIDE, WorkerGovernor
from repro.runtime.governor import _CLOCK_STRIDE


class FakeClock:
    def __init__(self, inc=1.0):
        self.t = 0.0
        self.inc = inc

    def __call__(self):
        self.t += self.inc
        return self.t


def a_record():
    return FaultSet([Fault((STEM, 0), 0)]).records[0]


def test_negative_deadline_rejected():
    with pytest.raises(ValueError):
        ResourceGovernor(deadline=-1)


def test_deadline_check_frame():
    gov = ResourceGovernor(deadline=2.5, clock=FakeClock()).start()
    gov.check_frame(1)  # elapsed 1.0 < 2.5 (one clock read per check)
    with pytest.raises(BudgetExceeded) as exc:
        gov.check_frame(2)  # elapsed 2.0, then 3.0
        gov.check_frame(3)
    assert exc.value.kind == "deadline"
    assert exc.value.limit == 2.5
    assert exc.value.frame in (2, 3)


def test_no_deadline_never_raises():
    gov = ResourceGovernor(clock=FakeClock(1000.0)).start()
    for frame in range(100):
        gov.check_frame(frame)


def test_resume_carries_elapsed_over():
    clock = FakeClock(0.0)  # frozen clock: elapsed is all carry-over
    gov = ResourceGovernor(deadline=10.0, clock=clock)
    gov.start(elapsed_before=9.5)
    assert gov.elapsed() == pytest.approx(9.5)
    gov.check_deadline()  # 9.5 < 10
    gov2 = ResourceGovernor(deadline=10.0, clock=clock)
    gov2.start(elapsed_before=10.5)
    with pytest.raises(BudgetExceeded):
        gov2.check_deadline()


def test_node_budget_via_manager_hook():
    gov = ResourceGovernor(node_budget=4).start()
    manager = BddManager(num_vars=8)
    gov.attach_manager(manager)
    assert manager.alloc_hook == gov.note_node
    with pytest.raises(BudgetExceeded) as exc:
        for var in range(8):
            manager.mk_var(var)
    assert exc.value.kind == "nodes"
    assert exc.value.observed > exc.value.limit == 4
    assert gov.nodes_allocated == 5


def test_attach_manager_noop_without_budgets():
    gov = ResourceGovernor(fault_frame_nodes=10)
    manager = BddManager(num_vars=2)
    gov.attach_manager(manager)
    assert manager.alloc_hook is None


def test_deadline_polled_at_allocation_granularity():
    # a single giant frame must still hit the wall clock: the manager
    # hook checks the deadline every _CLOCK_STRIDE allocations
    gov = ResourceGovernor(deadline=0.5, clock=FakeClock(1.0)).start()
    num_vars = 2 * _CLOCK_STRIDE
    manager = BddManager(num_vars=num_vars)
    gov.attach_manager(manager)
    with pytest.raises(BudgetExceeded) as exc:
        # a conjunction chain allocates one fresh node per variable,
        # so the stride-throttled clock check must fire along the way
        node = TRUE
        for var in range(num_vars - 1, -1, -1):
            node = manager.mk(var, FALSE, node)
    assert exc.value.kind == "deadline"


def test_per_fault_node_budget_tags_fault_key():
    gov = ResourceGovernor(fault_frame_nodes=100)
    record = a_record()
    gov.check_fault_frame_nodes(record, 100)  # at the limit: fine
    with pytest.raises(BudgetExceeded) as exc:
        gov.check_fault_frame_nodes(record, 101)
    assert exc.value.kind == "fault-frame-nodes"
    assert exc.value.fault_key == record.fault.key()


def test_per_fault_event_budget_tags_fault_key():
    gov = ResourceGovernor(fault_frame_events=3)
    record = a_record()
    with pytest.raises(BudgetExceeded) as exc:
        gov.check_fault_frame_events(record, 4)
    assert exc.value.kind == "fault-frame-events"
    assert exc.value.fault_key == record.fault.key()


def test_accounting_snapshot():
    gov = ResourceGovernor(deadline=5.0, node_budget=1000,
                           clock=FakeClock(1.0)).start()
    acc = gov.accounting()
    assert acc["deadline"] == 5.0
    assert acc["node_budget"] == 1000
    assert acc["nodes_allocated"] == 0
    assert acc["elapsed"] > 0


def test_budget_exceeded_context():
    err = BudgetExceeded("deadline", 5.0, 6.0, frame=12)
    ctx = err.context()
    assert ctx["kind"] == "deadline"
    assert ctx["limit"] == 5.0
    assert ctx["observed"] == 6.0
    assert ctx["frame"] == 12


def test_budget_exceeded_pack_and_frame_context():
    err = BudgetExceeded("deadline", 5.0, 6.0, frame=3, pack=2)
    ctx = err.context()
    assert ctx["frame"] == 3
    assert ctx["pack"] == 2
    assert "pack 2" in str(err) and "frame 3" in str(err)


def test_check_frame_records_pack_for_diagnostics():
    # the word-parallel engine restarts its frame count per pack; the
    # governor keeps the absolute (pack, frame) pair so a budget raised
    # mid-sweep names the exact position
    gov = ResourceGovernor(deadline=2.5, clock=FakeClock()).start()
    gov.check_frame(1, pack=0)
    with pytest.raises(BudgetExceeded) as exc:
        gov.check_frame(0, pack=4)
        gov.check_frame(1, pack=4)
    assert exc.value.kind == "deadline"
    assert exc.value.context()["pack"] == 4


# ----------------------------------------------------------------------
# RSS budget
# ----------------------------------------------------------------------
def test_rss_budget_check_frame():
    gov = ResourceGovernor(rss_budget=1000,
                           rss_sampler=lambda: 1500).start()
    with pytest.raises(BudgetExceeded) as exc:
        gov.check_frame(3)
    assert exc.value.kind == "rss"
    assert exc.value.limit == 1000
    assert exc.value.observed == 1500
    assert gov.peak_rss == 1500


def test_rss_budget_under_limit_is_quiet():
    gov = ResourceGovernor(rss_budget=1000,
                           rss_sampler=lambda: 500).start()
    for frame in range(20):
        gov.check_frame(frame)
    assert gov.peak_rss == 500


def test_rss_budget_polled_at_allocation_granularity():
    gov = ResourceGovernor(rss_budget=1000,
                           rss_sampler=lambda: 2000).start()
    manager = BddManager(num_vars=2 * _CLOCK_STRIDE)
    gov.attach_manager(manager)
    assert manager.alloc_hook is not None  # rss budget alone hooks
    with pytest.raises(BudgetExceeded) as exc:
        node = TRUE
        for var in range(2 * _CLOCK_STRIDE - 1, -1, -1):
            node = manager.mk(var, FALSE, node)
    assert exc.value.kind == "rss"


def test_rss_unavailable_sampler_is_inert():
    gov = ResourceGovernor(rss_budget=1000,
                           rss_sampler=lambda: None).start()
    gov.check_frame(1)  # no sample, no raise
    assert gov.peak_rss == 0


def test_accounting_carries_rss_fields():
    gov = ResourceGovernor(rss_budget=4096, cache_budget=128,
                           rss_sampler=lambda: 100).start()
    gov.sample_rss()
    acc = gov.accounting()
    assert acc["rss_budget"] == 4096
    assert acc["cache_budget"] == 128
    assert acc["peak_rss"] == 100


# ----------------------------------------------------------------------
# the allocation-hook chain
# ----------------------------------------------------------------------
@pytest.mark.parametrize("node_budget", [None, 1_000_000])
def test_alloc_hook_chain_order_and_worker_beat(node_budget):
    # mk()'s one callback carries, in order: the slot the bdd.alloc
    # failpoint arms at construction (stood in for by a pre-installed
    # hook), budget metering, the fabric worker's liveness beat, and
    # the pressure monitor's throttled check
    allocations = 3 * _BEAT_STRIDE
    manager = BddManager(num_vars=allocations)
    slot = []
    manager.alloc_hook = lambda: slot.append(1)
    log = []

    def heartbeat(frame, rss=None):
        log.append(("beat", len(slot), gov.nodes_allocated, rss))

    def pressure_rss():
        log.append(("pressure", len(slot), gov.nodes_allocated))
        return 0

    gov = WorkerGovernor(heartbeat, 0.0, node_budget=node_budget).start()
    gov.attach_manager(manager)
    monitor = PressureConfig(
        rss_budget=1 << 40, check_stride=_BEAT_STRIDE,
        rss_sampler=pressure_rss,
    ).monitor()
    monitor.attach(manager)
    for var in range(allocations):
        manager.mk_var(var)

    assert len(slot) == allocations  # the slot fires on every allocation
    metered = 0 if node_budget is None else allocations
    assert gov.nodes_allocated == metered
    beats = [entry for entry in log if entry[0] == "beat"]
    assert len(beats) == 3  # once per _BEAT_STRIDE, interval 0
    for entry in beats:
        assert isinstance(entry[3], int) and entry[3] > 0  # an RSS value
    expected = []
    for k in range(1, 4):
        seen = k * _BEAT_STRIDE
        count = 0 if node_budget is None else seen
        expected.append(("beat", seen, count))
        expected.append(("pressure", seen, count))
    assert [entry[:3] for entry in log] == expected
