"""Sharded audits on the existing worker fabric.

Witness replay is embarrassingly parallel — each detected fault's
audit is a pure function of (circuit, sequence, claim, audit options) —
so the detected-side audits reuse :class:`~repro.runtime.fabric.
coordinator.ShardFabric` wholesale: the planner, the inline loop, the
worker pool, heartbeat liveness, retry/backoff, poison-shard
bisection.  An audit brings only its shard body
(:func:`run_audit_shard`), its init payload, its findings sink and a
merge that returns nothing.  Differences from a campaign run:

* shards carry audit *findings* home instead of fault states (states
  are echoed unchanged so the base payload plumbing applies cleanly to
  a **clone** of the fault set — audit infrastructure failures must
  never mutate campaign verdicts);
* there is no fabric checkpoint: durability lives in the audit
  runner's own finding-level checkpoint, fed through *sink* the moment
  a shard's payload lands;
* findings contain no wall-clock data and the runner re-orders them by
  fault-universe index, so a sharded audit's report is byte-identical
  to a serial one regardless of shard layout or completion order.
"""

from repro.audit.report import (
    AuditFinding,
    INCONCLUSIVE_BUDGET,
)
from repro.audit.runner import (
    AuditOptions,
    _claim_base,
    audit_detected_record,
)
from repro.faults.status import FaultRecord
from repro.runtime.errors import BudgetExceeded
from repro.runtime.fabric.coordinator import FabricConfig, ShardFabric


def run_audit_shard(compiled, faults, sequence, indices, audit_init,
                    governor=None, tracer=None, metrics=None):
    """Audit one shard of detected faults; returns a result payload.

    *audit_init* is the picklable dict from the coordinator's init
    payload: the audit options, the campaign's recorded per-fault
    states (aligned with *faults*), and the complete/exact flags.
    The single execution path for pooled workers and inline mode.
    """
    options = AuditOptions.from_json(audit_init["options"])
    states = audit_init["states"]
    findings = []
    stopped = "completed"
    nodes = 0
    for position, index in enumerate(indices):
        if governor is not None:
            try:
                governor.check_frame(position)
            except BudgetExceeded as exc:
                stopped = exc.kind
                for left_behind in indices[position:]:
                    findings.append(
                        _budget_finding(
                            faults, states, left_behind, exc
                        ).to_json()
                    )
                break
        record = FaultRecord(faults[index])
        record.state_from_json(states[index])
        finding = audit_detected_record(
            compiled, sequence, record, index, options
        )
        nodes += finding.witness_nodes
        findings.append(finding.to_json())
    return {
        "findings": findings,
        # echoed unchanged: the coordinator applies these to its clone
        "states": [states[i] for i in indices],
        "stopped": stopped,
        "quarantined": [],
        "nodes_allocated": nodes,
    }


def _budget_finding(faults, states, index, exc):
    record = FaultRecord(faults[index])
    record.state_from_json(states[index])
    return AuditFinding(
        classification=INCONCLUSIVE_BUDGET,
        note=f"audit budget exhausted before this fault ({exc.kind})",
        **_claim_base(record, index, "detected"),
    )


class _AuditFabric(ShardFabric):
    """A ShardFabric that dispatches audit tasks instead of campaigns."""

    def __init__(self, compiled, sequence, fault_set, indices, audit_init,
                 strategy="MOT", config=None, sink=None):
        super().__init__(
            compiled,
            sequence,
            # a clone: crash-quarantine bookkeeping and state echo must
            # not touch the real campaign records
            fault_set.clone(),
            strategy=strategy,
            config=config,
            checkpoint_path=None,
        )
        self._audit_indices = list(indices)
        self._audit_init = audit_init
        self._sink = sink

    def _live_indices(self):
        return list(self._audit_indices)

    def _shard_body(self, init, indices, **channels):
        return run_audit_shard(
            self.compiled, self._faults, self.sequence, indices,
            self._audit_init, **channels,
        )

    def _init_payload(self):
        payload = super()._init_payload()
        payload["task"] = "audit"
        payload["audit"] = self._audit_init
        # worker-side tracing is off for audits: the runner emits the
        # canonical audit spans itself, in fault order, identically for
        # serial and sharded runs
        payload["observe"] = False
        return payload

    def _apply_payload(self, shard_id, indices, payload,
                       checkpointed=False):
        fresh = shard_id not in self._results
        super()._apply_payload(shard_id, indices, payload, checkpointed)
        if fresh and self._sink is not None:
            for finding_json in payload.get("findings") or ():
                self._sink(AuditFinding.from_json(finding_json))

    def _merge(self):
        # findings already flowed through the sink per applied payload;
        # nothing campaign-shaped to merge
        return None


def run_audit_fabric(
    compiled,
    sequence,
    fault_set,
    indices,
    options,
    *,
    strategy="MOT",
    complete=True,
    exact=True,
    workers=None,
    config=None,
    sink=None,
):
    """Audit *indices* (detected faults) across the worker fabric.

    Findings are delivered through *sink* as shards complete (the
    runner checkpoints and collects them there).
    """
    if config is None:
        config = FabricConfig(workers=2 if workers is None else workers)
    audit_init = {
        "options": options.to_json(),
        "strategy": strategy,
        "complete": complete,
        "exact": exact,
        "states": [record.state_to_json() for record in fault_set],
    }
    fabric = _AuditFabric(
        compiled,
        sequence,
        fault_set,
        indices,
        audit_init,
        strategy=strategy,
        config=config,
        sink=sink,
    )
    fabric.run()
    return fabric.accounting
