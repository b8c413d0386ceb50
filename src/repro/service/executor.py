"""Job execution on the existing campaign/fabric runtime.

Each executor is one daemon thread pulling admitted jobs off the
service queue and driving them through
:func:`~repro.runtime.campaign.run_campaign` — the exact runtime the
CLI uses, with the job's :class:`~repro.service.jobs.JobGuard` in the
``signal_guard`` slot so cancellation and drain reuse the cooperative
stop machinery, a per-job :class:`~repro.runtime.governor.
ResourceGovernor` for deadlines/budgets, and a per-job campaign
checkpoint under the service state directory so a killed daemon
resumes instead of recomputing.

Verdict durability has a strict ordering: the result file is written
atomically *before* the terminal journal record.  A crash between the
two leaves the job journaled ``running``; the restart re-runs it from
the checkpoint and rewrites the same bytes — the journal never claims
a result that is not on disk.
"""

import hashlib
import json
import os
import threading
import time

from repro import failpoints as _failpoints
from repro.faults.status import FaultSet
from repro.runtime.campaign import _load_compiled, run_campaign
from repro.runtime.checkpoint import write_json_atomic
from repro.runtime.errors import CheckpointError, ReproError
from repro.runtime.governor import ResourceGovernor
from repro.sequences.random_seq import random_sequence_for

CHECKPOINT_NAME = "campaign.ckpt"
RESULT_NAME = "result.json"


def job_sequence(compiled, spec):
    """The job's test sequence: explicit vectors or seeded random."""
    if spec.sequence is not None:
        width = compiled.num_pis
        for index, line in enumerate(spec.sequence):
            if len(line) != width:
                raise ReproError(
                    f"sequence[{index}] has {len(line)} bits, circuit "
                    f"{spec.circuit!r} has {width} inputs"
                )
        return [tuple(int(c) for c in line) for line in spec.sequence]
    return random_sequence_for(compiled, spec.length, seed=spec.seed)


def build_result_payload(job, compiled, sequence, fault_set, result):
    """The durable result document of a finished (or partial) run.

    ``verdicts`` — one ``[fault, status, detected_by, detected_at]``
    row per fault, in fault-universe order — is the byte-comparable
    core: two runs of the same spec (interrupted or not) must produce
    identical verdict bytes.  The runtime block carries accounting and
    is allowed to differ (elapsed times, retry counts).
    """
    counts = fault_set.counts()
    return {
        "job": job.id,
        "spec": job.spec.to_json(),
        "frames": len(sequence),
        "stopped": result.stopped,
        "exact": result.exact,
        "counts": counts,
        "verdicts": verdict_rows(fault_set),
        "runtime": result.runtime_summary(),
    }


def verdict_rows(fault_set):
    """One ``[fault, status, detected_by, detected_at]`` row per fault,
    in fault-universe order."""
    return [
        [
            str(record.fault.key()),
            record.status,
            record.detected_by,
            record.detected_at,
        ]
        for record in fault_set
    ]


def verdict_digest(payload):
    """SHA-256 over the canonical verdict rows (journaled for audit)."""
    blob = json.dumps(payload["verdicts"], sort_keys=True)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


class JobExecutor:
    """The service's pool of job-running threads."""

    def __init__(self, service, count=1):
        self.service = service
        self.count = max(int(count), 1)
        self._threads = []

    def start(self):
        for index in range(self.count):
            thread = threading.Thread(
                target=self._loop,
                name=f"repro-serve-executor-{index}",
                daemon=True,
            )
            thread.start()
            self._threads.append(thread)

    def join(self, timeout=None):
        deadline = None if timeout is None else time.monotonic() + timeout
        for thread in self._threads:
            remaining = (
                None if deadline is None
                else max(deadline - time.monotonic(), 0.0)
            )
            thread.join(remaining)
        return not any(thread.is_alive() for thread in self._threads)

    def _loop(self):
        while True:
            job = self.service.next_job()
            if job is None:
                return  # draining and the queue is empty
            self.execute(job)

    # ------------------------------------------------------------------
    def execute(self, job):
        service = self.service
        job_dir = service.job_dir(job.id)
        os.makedirs(job_dir, exist_ok=True)
        checkpoint_path = os.path.join(job_dir, CHECKPOINT_NAME)
        span = service.trace_span(
            "job", job=job.id, circuit=job.spec.circuit,
            strategy=job.spec.strategy, attempt=job.attempts + 1,
        )
        try:
            service.note_running(job)
            result, compiled, sequence, fault_set = self._run(
                job, checkpoint_path
            )
        except Exception as exc:  # noqa: BLE001 - a job must never
            # take the daemon down; the failure is journaled instead
            span.add(outcome="error")
            span.close()
            service.note_failed(job, f"{type(exc).__name__}: {exc}")
            return
        payload = build_result_payload(
            job, compiled, sequence, fault_set, result
        )
        result_path = os.path.join(job_dir, RESULT_NAME)
        # durability order: result bytes first, journal verdict second
        write_json_atomic(result_path, payload)
        if _failpoints.fire("service.result.crash"):
            # the exact durability gap the ordering above defends: the
            # result is on disk but the journal still says ``running``.
            # A restart must requeue the job and reproduce the digest.
            os._exit(86)
        digest = verdict_digest(payload)
        span.add(outcome=result.stopped, digest=digest)
        span.close()
        if result.stopped == "completed":
            service.note_done(job, RESULT_NAME, digest, payload)
        elif result.stopped == "signal" and job.cancel_requested:
            service.note_cancelled(job, RESULT_NAME, digest)
        elif result.stopped == "signal":
            # graceful drain checkpointed it; a restart requeues
            service.note_interrupted(job, RESULT_NAME, digest)
        else:
            # a budget stop (deadline / nodes / rss) is terminal: the
            # partial result is preserved, the reason journaled
            service.note_failed(
                job, f"budget exhausted: {result.stopped}",
                result_file=RESULT_NAME, digest=digest,
                stopped=result.stopped,
            )

    def _progress_hook(self, job):
        """A campaign/fabric progress hook feeding the job's event
        stream.  The buffer's push never blocks, so a slow or absent
        ``/jobs/<id>/events`` consumer cannot stall this thread."""
        service = self.service

        def hook(payload):
            service.push_progress(job, payload)

        return hook

    def _run(self, job, checkpoint_path):
        spec = job.spec
        compiled = _load_compiled(spec.circuit)
        sequence = job_sequence(compiled, spec)
        governor = ResourceGovernor(
            deadline=spec.deadline, node_budget=spec.node_budget
        )
        if os.path.exists(checkpoint_path):
            resumed = self._resume(
                job, checkpoint_path, compiled, governor
            )
            if resumed is not None:
                return resumed
            # unusable checkpoint (e.g. header-only after a crash in
            # the first frames, or no fabric checkpoint at all): start
            # over from the journaled spec
            os.unlink(checkpoint_path)
        from repro.faults.collapse import collapse_faults

        faults, _ = collapse_faults(compiled)
        fault_set = FaultSet(faults)
        result = run_campaign(
            compiled, sequence, fault_set,
            strategy=spec.strategy,
            node_limit=spec.node_limit,
            governor=governor,
            checkpoint_path=checkpoint_path,
            checkpoint_every=spec.checkpoint_every,
            fallback_frames=spec.fallback_frames,
            signal_guard=job.guard,
            circuit_spec=spec.circuit,
            xred=spec.xred,
            workers=spec.workers,
            shard_size=spec.shard_size,
            max_retries=spec.max_retries,
            progress_hook=self._progress_hook(job),
        )
        return result, compiled, sequence, fault_set

    def _resume(self, job, checkpoint_path, compiled, governor):
        """Resume the job's fabric checkpoint (every job runs through
        the fabric); None if it is not one or not resumable."""
        spec = job.spec
        from repro.faults.collapse import collapse_faults
        from repro.runtime.fabric import (
            FabricConfig,
            load_fabric_checkpoint,
            resume_sharded_campaign,
        )

        faults, _ = collapse_faults(compiled)
        fault_set = FaultSet(faults)
        try:
            sequence = load_fabric_checkpoint(checkpoint_path).sequence
            result = resume_sharded_campaign(
                checkpoint_path,
                compiled=compiled,
                fault_set=fault_set,
                governor=governor,
                signal_guard=job.guard,
                # the spec's workers, shard_size and max_retries
                config=FabricConfig.from_json(spec.to_json()),
                progress_hook=self._progress_hook(job),
            )
        except CheckpointError:
            return None
        return result, compiled, sequence, fault_set
