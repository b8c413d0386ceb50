"""The audit runner: orchestrates witness extraction and replay.

One :func:`run_audit` call checks a finished campaign's verdicts:

* every (or, in ``sample`` mode, a seeded sample of) *detected* fault
  gets its detection function rebuilt exactly and — for the symbolic
  strategies — a witness pair of initial states walked out of the BDD
  and replayed concretely; SOT/3-valued detections claim a *constant*
  output divergence, so any seeded random initial state is a witness;
* a seeded sample of *undetected* faults is cross-checked two ways:
  an independent three-valued simulation (which must not detect them)
  and a survivor certificate — a pair of initial states satisfying the
  full detection function, whose concrete replay must agree on every
  observed output.

Every random draw comes from ``random.Random`` instances seeded with
strings derived from the single audit seed and the fault key
(``"{seed}:witness:{key}"`` / ``"{seed}:sample:detected"`` ...), never
from ``hash()`` — so audits are reproducible bit-for-bit across
processes, resumes and shard layouts.  See also
:class:`repro.runtime.fabric.FabricConfig.seed`, which feeds only the
coordinator's retry-backoff jitter and never influences verdicts.
"""

import json
import os
import random
import warnings

from repro.audit.replay import (
    TRANSCRIPT_CAP,
    bits_text,
    is_observed,
    replay_pair,
    response_divergences,
)
from repro.audit.report import (
    CONFIRMED,
    EXTRACTION_FAILED,
    INCONCLUSIVE_CONSERVATIVE_MISS,
    INCONCLUSIVE_CRASH,
    INCONCLUSIVE_LATE_COLLAPSE,
    AuditFinding,
    AuditReport,
    REFUTED,
)
from repro.audit.witness import rebuild_detection
from repro.bdd.errors import SpaceLimitExceeded
from repro.engines.serial_fault_sim import fault_simulate_3v
from repro.faults.status import (
    BY_MOT,
    BY_RMOT,
    DETECTED,
    FaultSet,
    UNDETECTED,
    fault_key_to_json,
)
from repro.obs.tracer import NULL_TRACER
from repro.runtime.checkpoint import (
    CheckpointWriter,
    circuit_fingerprint,
    read_jsonl_records,
)
from repro.runtime.errors import CheckpointError


class AuditOptions:
    """Knobs of one audit run (shippable to fabric workers as JSON)."""

    MODES = ("sample", "full")

    def __init__(
        self,
        mode="full",
        seed=0,
        node_limit=None,
        sample_detected=32,
        sample_undetected=8,
        checkpoint_path=None,
    ):
        if mode not in self.MODES:
            raise ValueError(
                f"unknown audit mode {mode!r}; choose from {self.MODES}"
            )
        self.mode = mode
        self.seed = seed
        #: node limit for per-fault detection rebuilds (None = unbounded;
        #: blowing it yields witness-extraction-failed, never a verdict)
        self.node_limit = node_limit
        #: detected-side sample size in ``sample`` mode (``full`` audits
        #: every detected fault)
        self.sample_detected = sample_detected
        #: undetected-side sample size (both modes: the undetected
        #: cross-check is always sampled)
        self.sample_undetected = sample_undetected
        self.checkpoint_path = checkpoint_path

    def to_json(self):
        return {
            "mode": self.mode,
            "seed": self.seed,
            "node_limit": self.node_limit,
            "sample_detected": self.sample_detected,
            "sample_undetected": self.sample_undetected,
        }

    @classmethod
    def from_json(cls, data):
        return cls(
            mode=data.get("mode", "full"),
            seed=data.get("seed", 0),
            node_limit=data.get("node_limit"),
            sample_detected=data.get("sample_detected", 32),
            sample_undetected=data.get("sample_undetected", 8),
        )


def _key_text(key):
    return json.dumps(
        fault_key_to_json(key), sort_keys=True, separators=(",", ":")
    )


def _claim_base(record, index, side):
    return {
        "index": index,
        "fault_key": record.fault.key(),
        "side": side,
        "status": record.status,
        "detected_by": record.detected_by,
        "detected_at": record.detected_at,
    }


def audit_detected_record(compiled, sequence, record, index, options):
    """Audit one detected-fault claim; always returns a finding."""
    base = _claim_base(record, index, "detected")
    by = record.detected_by
    if by in (BY_MOT, BY_RMOT):
        return _audit_symbolic_detection(
            compiled, sequence, record, options, base, by
        )
    return _audit_constant_detection(
        compiled, sequence, record, options, base
    )


def _audit_symbolic_detection(compiled, sequence, record, options, base, by):
    try:
        rebuild = rebuild_detection(
            compiled, sequence, record.fault, by, options.node_limit
        )
    except SpaceLimitExceeded as exc:
        return AuditFinding(
            classification=EXTRACTION_FAILED,
            note=f"detection rebuild blew the audit node limit ({exc})",
            **base,
        )
    if rebuild.collapsed_at is None:
        return AuditFinding(
            classification=REFUTED,
            witness_nodes=rebuild.nodes,
            note=(
                f"exact {by} rebuild never collapses — the fault is not "
                f"{by}-detectable by this sequence"
            ),
            **base,
        )
    witness = {"p": bits_text(rebuild.p), "q": bits_text(rebuild.q)}
    if rebuild.collapsed_at > record.detected_at:
        # conservative degradation can only delay detections in the
        # campaign, never in this exact rebuild — so a later collapse
        # here means the recorded frame is early/odd, but the fault IS
        # detectable: report, don't refute
        return AuditFinding(
            classification=INCONCLUSIVE_LATE_COLLAPSE,
            audited_at=rebuild.collapsed_at,
            witness=witness,
            witness_nodes=rebuild.nodes,
            note=(
                f"exact rebuild collapses at t={rebuild.collapsed_at}, "
                f"after the claimed t={record.detected_at}"
            ),
            **base,
        )
    good, faulty = replay_pair(
        compiled, sequence, rebuild.p, rebuild.q, record.fault
    )
    divergences = response_divergences(good, faulty)
    early = [
        d
        for d in divergences
        if d["frame"] < rebuild.collapsed_at and is_observed(
            rebuild.observed, d
        )
    ]
    if early:
        return AuditFinding(
            classification=REFUTED,
            audited_at=early[0]["frame"],
            witness=witness,
            transcript=early[:TRANSCRIPT_CAP],
            witness_nodes=rebuild.nodes,
            note=(
                "witness replay diverges on an observed output before "
                "the collapse frame (symbolic/concrete engine mismatch)"
            ),
            **base,
        )
    at_collapse = [
        d
        for d in divergences
        if d["frame"] == rebuild.collapsed_at and is_observed(
            rebuild.observed, d
        )
    ]
    if not at_collapse:
        return AuditFinding(
            classification=REFUTED,
            witness=witness,
            witness_nodes=rebuild.nodes,
            note=(
                f"witness replay does not diverge at the collapse frame "
                f"t={rebuild.collapsed_at}"
            ),
            **base,
        )
    return AuditFinding(
        classification=CONFIRMED,
        audited_at=rebuild.collapsed_at,
        witness=witness,
        transcript=at_collapse[:TRANSCRIPT_CAP],
        witness_nodes=rebuild.nodes,
        **base,
    )


def _audit_constant_detection(compiled, sequence, record, options, base):
    """SOT / 3-valued detections claim a divergence that holds for
    *every* initial state (both engines start from all-X), so a seeded
    random initial state is a complete witness: the replay must diverge
    at exactly the claimed frame, and its absence soundly refutes."""
    rng = random.Random(
        f"{options.seed}:witness:{_key_text(record.fault.key())}"
    )
    state = [rng.randint(0, 1) for _ in range(compiled.num_dffs)]
    good, faulty = replay_pair(
        compiled, sequence, state, state, record.fault
    )
    divergences = response_divergences(good, faulty)
    witness = {"p": bits_text(state), "q": bits_text(state)}
    at_claim = [
        d for d in divergences if d["frame"] == record.detected_at
    ]
    if not at_claim:
        return AuditFinding(
            classification=REFUTED,
            witness=witness,
            note=(
                f"claimed definite ({record.detected_by}) divergence at "
                f"t={record.detected_at} is absent in a concrete replay"
            ),
            **base,
        )
    return AuditFinding(
        classification=CONFIRMED,
        audited_at=record.detected_at,
        witness=witness,
        transcript=at_claim[:TRANSCRIPT_CAP],
        **base,
    )


def audit_undetected_record(
    compiled, sequence, record, index, options, strategy, complete, exact
):
    """Cross-check one undetected-fault claim.

    A missed detection only *refutes* a completed, exact campaign —
    degraded or interrupted runs may miss detections legitimately
    (conservatively), which classifies as inconclusive instead.
    """
    base = _claim_base(record, index, "undetected")
    hard = complete and exact
    # independent three-valued recheck: 3v detection implies
    # detectability under every strategy, so it must not fire
    clone = FaultSet([record.fault])
    fault_simulate_3v(compiled, sequence, clone)
    recheck = clone.records[0]
    if recheck.status == DETECTED:
        return AuditFinding(
            classification=REFUTED if hard else (
                INCONCLUSIVE_CONSERVATIVE_MISS
            ),
            audited_at=recheck.detected_at,
            note=(
                f"3-valued recheck detects this 'undetected' fault at "
                f"t={recheck.detected_at}"
            ),
            **base,
        )
    if strategy == "3v":
        # a campaign whose top rung is the plain three-valued engine
        # claims nothing beyond what the recheck just reproduced
        return AuditFinding(
            classification=CONFIRMED,
            note="3-valued recheck agrees (campaign top rung is 3v)",
            **base,
        )
    try:
        rebuild = rebuild_detection(
            compiled, sequence, record.fault, strategy, options.node_limit
        )
    except SpaceLimitExceeded as exc:
        return AuditFinding(
            classification=EXTRACTION_FAILED,
            note=f"survivor rebuild blew the audit node limit ({exc})",
            **base,
        )
    if rebuild.collapsed_at is not None:
        return AuditFinding(
            classification=REFUTED if hard else (
                INCONCLUSIVE_CONSERVATIVE_MISS
            ),
            audited_at=rebuild.collapsed_at,
            witness_nodes=rebuild.nodes,
            note=(
                f"exact {strategy} rebuild detects this 'undetected' "
                f"fault at t={rebuild.collapsed_at}"
            ),
            **base,
        )
    if rebuild.p is None:
        # SOT keeps no accumulator: nothing to replay beyond the
        # 3-valued recheck that already passed
        return AuditFinding(
            classification=CONFIRMED,
            witness_nodes=rebuild.nodes,
            note="no SOT detection in exact rebuild; 3-valued recheck "
                 "agrees",
            **base,
        )
    good, faulty = replay_pair(
        compiled, sequence, rebuild.p, rebuild.q, record.fault
    )
    witness = {"p": bits_text(rebuild.p), "q": bits_text(rebuild.q)}
    observed_divergences = [
        d
        for d in response_divergences(good, faulty)
        if is_observed(rebuild.observed, d)
    ]
    if observed_divergences:
        return AuditFinding(
            classification=REFUTED,
            audited_at=observed_divergences[0]["frame"],
            witness=witness,
            transcript=observed_divergences[:TRANSCRIPT_CAP],
            witness_nodes=rebuild.nodes,
            note=(
                "survivor certificate replay diverges on an observed "
                "output (symbolic/concrete engine mismatch)"
            ),
            **base,
        )
    return AuditFinding(
        classification=CONFIRMED,
        witness=witness,
        witness_nodes=rebuild.nodes,
        note="survivor certificate replay agrees on every observed "
             "output",
        **base,
    )


# ----------------------------------------------------------------------
# checkpoint / resume
# ----------------------------------------------------------------------

class AuditCheckpointWriter(CheckpointWriter):
    """Appends audit-header / audit-finding records (fsync'd JSONL)."""

    kind = "audit"

    def write_audit_header(self, fingerprint, options, strategy,
                           complete, exact):
        self._write(
            {
                "type": "audit-header",
                "fingerprint": fingerprint,
                "mode": options.mode,
                "seed": options.seed,
                "node_limit": options.node_limit,
                "sample_detected": options.sample_detected,
                "sample_undetected": options.sample_undetected,
                "strategy": strategy,
                "complete": complete,
                "exact": exact,
            }
        )

    def write_finding(self, finding):
        self._write(
            {"type": "audit-finding", "finding": finding.to_json()}
        )
        self.checkpoints_written += 1


def _load_audit_resume(path, fingerprint, options, strategy):
    """Completed findings of a partial audit (torn-tail tolerant).

    Returns ``(header_seen, {key_text: AuditFinding})``; refuses files
    whose header disagrees on fingerprint, mode, seed or strategy —
    resuming under different knobs would mix incomparable verdicts.
    """
    header_seen = False
    findings = {}
    if not os.path.exists(path):
        return header_seen, findings

    def quarantine(report):
        # a finding failing its CRC just stops counting as done — the
        # audit re-derives it, which is exact (the header checks below
        # still run strict: resuming under unknown knobs is refused)
        warnings.warn(
            f"audit checkpoint {path}: quarantined corrupt record at "
            f"line {report['line']} ({report['reason']})",
            RuntimeWarning,
            stacklevel=2,
        )

    for record in read_jsonl_records(path, on_corrupt=quarantine):
        kind = record.get("type")
        if kind == "audit-header":
            header_seen = True
            recorded = record.get("fingerprint")
            if recorded is not None and recorded != fingerprint:
                raise CheckpointError(
                    path,
                    f"audit fingerprint mismatch: checkpoint has "
                    f"{recorded}, current circuit/faults hash to "
                    f"{fingerprint}",
                )
            for field, current in (
                ("mode", options.mode),
                ("seed", options.seed),
                ("strategy", strategy),
            ):
                if record.get(field) != current:
                    raise CheckpointError(
                        path,
                        f"audit {field} mismatch: checkpoint has "
                        f"{record.get(field)!r}, run requested "
                        f"{current!r}",
                    )
        elif kind == "audit-finding":
            finding = AuditFinding.from_json(record["finding"])
            findings[_key_text(finding.fault_key)] = finding
    return header_seen, findings


# ----------------------------------------------------------------------
# the runner
# ----------------------------------------------------------------------

def _select(pool, sample_size, rng):
    """Seeded, order-preserving sample of *pool* (indices)."""
    if sample_size is None or len(pool) <= sample_size:
        return list(pool)
    chosen = sorted(rng.sample(range(len(pool)), sample_size))
    return [pool[i] for i in chosen]


def run_audit(
    compiled,
    sequence,
    fault_set,
    *,
    options=None,
    strategy="MOT",
    complete=True,
    exact=True,
    workers=None,
    fabric_config=None,
    tracer=None,
    metrics=None,
    quarantine=False,
):
    """Audit *fault_set*'s verdicts; returns an :class:`AuditReport`.

    *strategy* is the campaign's top (least degraded) strategy: the one
    an undetected fault must genuinely survive.  *complete*/*exact*
    describe the campaign run being audited and gate whether a missed
    detection refutes or is merely inconclusive.  With *quarantine*
    True, refuted faults are quarantined in *fault_set* (reason:
    audit).  *workers*/*fabric_config* shard the detected-side audits
    across the worker fabric; verdicts are byte-identical to a serial
    run.  Progress persists through ``options.checkpoint_path``.
    """
    options = options or AuditOptions()
    tracer = tracer or NULL_TRACER
    sequence = [tuple(v) for v in sequence]
    records = fault_set.records
    keys = [r.fault.key() for r in records]
    fingerprint = circuit_fingerprint(compiled, keys)

    detected_pool = [
        i for i, r in enumerate(records) if r.status == DETECTED
    ]
    undetected_pool = [
        i for i, r in enumerate(records) if r.status == UNDETECTED
    ]
    sample_detected = (
        options.sample_detected if options.mode == "sample" else None
    )
    selected_detected = _select(
        detected_pool,
        sample_detected,
        random.Random(f"{options.seed}:sample:detected"),
    )
    selected_undetected = _select(
        undetected_pool,
        options.sample_undetected,
        random.Random(f"{options.seed}:sample:undetected"),
    )

    findings = {}
    writer = None
    if options.checkpoint_path:
        header_seen, resumed = _load_audit_resume(
            options.checkpoint_path, fingerprint, options, strategy
        )
        for key_text, finding in resumed.items():
            record = records[finding.index]
            # a finding only resumes if the claim it audited is still
            # the recorded claim (the campaign may have been re-run)
            if (
                record.fault.key() == finding.fault_key
                and record.status == finding.status
                and record.detected_by == finding.detected_by
                and record.detected_at == finding.detected_at
            ):
                findings[key_text] = finding
        writer = AuditCheckpointWriter(options.checkpoint_path)
        if not header_seen:
            writer.write_audit_header(
                fingerprint, options, strategy, complete, exact
            )

    root = tracer.span(
        "audit", mode=options.mode, seed=options.seed, strategy=strategy
    )
    try:
        def sink(finding):
            findings[_key_text(finding.fault_key)] = finding
            if writer is not None:
                writer.write_finding(finding)

        pending = [
            i
            for i in selected_detected
            if _key_text(keys[i]) not in findings
        ]
        if pending and (
            workers is not None or fabric_config is not None
        ):
            from repro.audit.fabric import run_audit_fabric

            run_audit_fabric(
                compiled,
                sequence,
                fault_set,
                pending,
                options,
                strategy=strategy,
                complete=complete,
                exact=exact,
                workers=workers,
                config=fabric_config,
                sink=sink,
            )
        else:
            for i in pending:
                sink(
                    audit_detected_record(
                        compiled, sequence, records[i], i, options
                    )
                )
        for i in selected_detected:
            key_text = _key_text(keys[i])
            if key_text not in findings:
                # a poison audit shard died through every retry; not
                # checkpointed, so a resumed audit tries again
                findings[key_text] = AuditFinding(
                    classification=INCONCLUSIVE_CRASH,
                    note="audit shard crashed repeatedly; fault not "
                         "audited",
                    **_claim_base(records[i], i, "detected"),
                )
        # the undetected cross-check always runs in-process: it is
        # sampled and cheap, and keeping it out of the shard fabric
        # guarantees serial and sharded reports match byte-for-byte
        for i in selected_undetected:
            if _key_text(keys[i]) in findings:
                continue
            sink(
                audit_undetected_record(
                    compiled,
                    sequence,
                    records[i],
                    i,
                    options,
                    strategy,
                    complete,
                    exact,
                )
            )

        report = AuditReport(
            options.mode,
            options.seed,
            [
                findings[_key_text(keys[i])]
                for i in selected_detected + selected_undetected
            ],
            detected_total=len(detected_pool),
            undetected_total=len(undetected_pool),
        )

        if quarantine:
            for finding in report.refuted():
                records[finding.index].mark_quarantined()
                tracer.event(
                    "audit-refuted",
                    fault=_key_text(finding.fault_key),
                    note=finding.note,
                )

        summary = report.summary()
        if tracer.enabled:
            for finding in report.findings:
                tracer.span(
                    "audit-fault",
                    fault=_key_text(finding.fault_key),
                    side=finding.side,
                    classification=finding.classification,
                    by=finding.detected_by,
                    claimed_at=finding.detected_at,
                    audited_at=finding.audited_at,
                    witness_nodes=finding.witness_nodes,
                ).close()
            tracer.event("audit-summary", **summary)
        if metrics is not None:
            metrics.set_total("audit.confirmed", summary["confirmed"])
            metrics.set_total("audit.refuted", summary["refuted"])
            metrics.set_total(
                "audit.inconclusive", summary["inconclusive"]
            )
            metrics.set_total(
                "audit.extraction_failed", summary["extraction_failed"]
            )
            for finding in report.findings:
                if finding.witness_nodes:
                    metrics.observe(
                        "audit.witness_nodes", finding.witness_nodes
                    )
        return report
    finally:
        root.close()
        if writer is not None:
            writer.close()
