"""In-process HTTP API tests for the campaign service.

The ``start_http()`` / ``start_executors()`` split is what makes
admission behavior deterministic to test: fill the queue before any
executor can drain it, assert the shed, then start the executors and
demand that every *admitted* job still completes — overload must only
ever refuse new work, never degrade accepted work.
"""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.service import CampaignService, ServiceConfig


def _request(base, method, path, body=None):
    data = json.dumps(body).encode("utf-8") if body is not None else None
    request = urllib.request.Request(base + path, data=data, method=method)
    if data is not None:
        request.add_header("Content-Type", "application/json")
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, dict(response.headers), json.loads(
                response.read()
            )
    except urllib.error.HTTPError as error:
        return error.code, dict(error.headers), json.loads(error.read())


def _poll(base, job_id, until, timeout=120):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        _, _, body = _request(base, "GET", f"/jobs/{job_id}")
        if body.get("state") in until:
            return body
        time.sleep(0.05)
    raise AssertionError(
        f"job {job_id} never reached {until}; last: {body}"
    )


@pytest.fixture()
def service(tmp_path):
    config = ServiceConfig(
        port=0, state_dir=str(tmp_path / "state"),
        queue_limit=2, executors=1,
    )
    svc = CampaignService(config)
    svc.recover()
    host, port = svc.start_http()
    yield svc, f"http://{host}:{port}"
    if not svc.draining:
        svc.drain(reason="test-teardown")


SPEC = {"circuit": "ctr8", "length": 20, "seed": 3, "shard_size": 8}


def test_full_queue_sheds_but_admitted_jobs_complete(service):
    svc, base = service
    # no executors yet: the queue cannot drain under us
    admitted = []
    for seed in (1, 2):
        status, _, body = _request(
            base, "POST", "/jobs", dict(SPEC, seed=seed)
        )
        assert status == 202, body
        admitted.append(body["id"])
    status, headers, body = _request(
        base, "POST", "/jobs", dict(SPEC, seed=3)
    )
    assert status == 429
    assert headers.get("Retry-After") == "5"
    assert body["error"] == "admission queue full"

    svc.start_executors()
    for job_id in admitted:
        final = _poll(base, job_id, until=("done",))
        assert final["result"]["stopped"] == "completed"
        assert final["result"]["counts"]["total"] > 0
        assert final["result"]["verdicts"]
    _, _, metrics = _request(base, "GET", "/metrics")
    assert metrics["service.sheds"] == 1
    assert metrics["service.done"] == 2
    # room again: the next submission is admitted
    status, _, _ = _request(base, "POST", "/jobs", dict(SPEC, seed=4))
    assert status == 202


def test_health_ready_and_errors(service):
    svc, base = service
    assert _request(base, "GET", "/healthz")[0] == 200
    status, _, body = _request(base, "GET", "/readyz")
    assert (status, body["status"]) == (200, "ready")
    assert _request(base, "GET", "/jobs/job-999999")[0] == 404
    assert _request(base, "GET", "/nope")[0] == 404
    assert _request(base, "POST", "/jobs", {"circuit": "ctr8",
                                            "bogus": 1})[0] == 400
    status, _, body = _request(base, "POST", "/jobs")
    assert status == 400 and "bad JSON body" in body["error"]


def test_cancel_queued_job(service):
    svc, base = service
    _, _, body = _request(base, "POST", "/jobs", SPEC)
    job_id = body["id"]
    status, _, body = _request(base, "DELETE", f"/jobs/{job_id}")
    assert status == 200
    assert body["state"] == "cancelled"
    # terminal: a second DELETE is deletion — artifacts and the job
    # table entry go, later GETs 404
    status, _, body = _request(base, "DELETE", f"/jobs/{job_id}")
    assert status == 200
    assert body["deleted"] is True
    svc.start_executors()
    time.sleep(0.3)
    assert _request(base, "GET", f"/jobs/{job_id}")[0] == 404


def test_cancel_running_job_stops_cooperatively(service):
    svc, base = service
    svc.start_executors()
    # a long job with tiny shards: many cancellation points
    spec = dict(SPEC, length=4000, shard_size=2, seed=9)
    _, _, body = _request(base, "POST", "/jobs", spec)
    job_id = body["id"]
    _poll(base, job_id, until=("running",), timeout=60)
    status, _, _ = _request(base, "DELETE", f"/jobs/{job_id}")
    assert status in (200, 202)
    final = _poll(base, job_id, until=("cancelled", "done"), timeout=120)
    # "done" is a legal race (last shard finished first); the common
    # path is a cooperative stop at the next shard boundary
    if final["state"] == "cancelled":
        assert final["result"]["stopped"] == "signal"


def test_restart_serves_results_idempotently(tmp_path):
    state_dir = str(tmp_path / "state")
    config = ServiceConfig(port=0, state_dir=state_dir, queue_limit=4)
    first = CampaignService(config)
    first.recover()
    host, port = first.start_http()
    base = f"http://{host}:{port}"
    first.start_executors()
    _, _, body = _request(base, "POST", "/jobs", SPEC)
    job_id = body["id"]
    done = _poll(base, job_id, until=("done",))
    first.drain(reason="test")

    second = CampaignService(
        ServiceConfig(port=0, state_dir=state_dir, queue_limit=4)
    )
    requeued = second.recover()
    assert requeued == 0  # terminal jobs are not re-run
    host, port = second.start_http()
    base = f"http://{host}:{port}"
    _, _, replayed = _request(base, "GET", f"/jobs/{job_id}")
    assert replayed["state"] == "done"
    assert replayed["result"]["verdicts"] == done["result"]["verdicts"]
    # new submissions on the restarted service get fresh ids
    _, _, body = _request(base, "POST", "/jobs", SPEC)
    assert body["id"] != job_id
    second.drain(reason="test")


def test_drain_flips_readyz_and_refuses_submissions(service):
    svc, base = service
    svc.start_executors()
    svc.drain(reason="test")
    # the HTTP server is shut down by drain; state checks are direct
    status, _, body = svc.ready()
    assert status == 503 and body["status"] == "draining"
    status, _, body = svc.submit(SPEC)
    assert status == 503


def test_a_campaign_checkpoint_in_a_job_dir_reruns_from_frame_0(tmp_path):
    # every job runs through the shard fabric, so its checkpoint is a
    # fabric one; a frame-snapshot campaign checkpoint in its place is
    # unusable and the job re-runs from frame 0 to the verdicts of an
    # uninterrupted job
    import os

    from repro.faults.collapse import collapse_faults
    from repro.faults.status import FaultSet
    from repro.runtime import run_campaign
    from repro.runtime.checkpoint import sniff_checkpoint_kind
    from repro.service import journal as states
    from repro.service.executor import (
        CHECKPOINT_NAME,
        JobExecutor,
        verdict_digest,
        verdict_rows,
    )
    from repro.service.jobs import Job, JobSpec

    svc = CampaignService(
        ServiceConfig(port=0, state_dir=str(tmp_path / "state"))
    )
    svc.recover()
    executor = JobExecutor(svc)
    spec = JobSpec(circuit="s27", length=40, seed=7, shard_size=8)

    def run_job(job_id, before=None):
        job = Job(job_id, spec, states.RUNNING, submitted_at=1.0)
        os.makedirs(svc.job_dir(job_id))
        path = os.path.join(svc.job_dir(job_id), CHECKPOINT_NAME)
        if before is not None:
            before(path)
        result, _compiled, _sequence, fault_set = executor._run(job, path)
        assert result.stopped == "completed"
        # the job's own checkpoint replaced the unusable one
        assert sniff_checkpoint_kind(path) == "fabric"
        return verdict_digest({"verdicts": verdict_rows(fault_set)})

    def campaign_checkpoint(path):
        # an in-process campaign's checkpoint, cut after its first
        # frame snapshot
        from repro.runtime.campaign import _load_compiled
        from repro.service.executor import job_sequence

        compiled = _load_compiled(spec.circuit)
        faults, _ = collapse_faults(compiled)
        run_campaign(
            compiled, job_sequence(compiled, spec), FaultSet(faults),
            strategy=spec.strategy, node_limit=spec.node_limit,
            checkpoint_path=path, checkpoint_every=2,
        )
        with open(path) as handle:
            lines = handle.readlines()
        cut = next(
            n for n, line in enumerate(lines)
            if json.loads(line)["type"] == "checkpoint"
        )
        with open(path, "w") as handle:
            handle.writelines(lines[: cut + 1])

    uninterrupted = run_job("job-000001")
    assert run_job("job-000002", before=campaign_checkpoint) == uninterrupted
    svc.drain(reason="test-teardown")
