"""Deterministic failpoint injection for the whole engine.

A *failpoint* is a named site in production code where a test (or a
chaos drill) can deterministically inject a failure that is otherwise
only reachable by accident: a disk filling up mid-checkpoint, a torn
write under SIGKILL, an allocation failure at the worst possible BDD
node, a worker wedging mid-pipe-frame.  The sites themselves ship in
the production code; what fires at them is configured per process.

Design constraints, in order:

* **zero cost when disabled** — the registry is a module-level dict
  and :func:`fire` returns immediately when it is empty.  The one
  genuinely hot site (``bdd.alloc``, inside ``BddManager.mk``) does
  not even call :func:`fire`: the manager installs an alloc hook only
  when the site is armed at construction time, so a disabled build
  executes exactly the pre-failpoint instruction stream,
* **determinism** — every policy is a pure function of the site's own
  evaluation counter (and, for ``p:``, a private ``random.Random``
  string-seeded from the site name), never of wall-clock time or
  global RNG state.  Two runs with the same spec fire identically,
* **composability** — configuration merges per site, so the env var
  ``REPRO_FAILPOINTS``, the CLI ``--failpoints`` flag and the test
  API (:func:`set_failpoint`) can layer without clobbering each other.

Trigger grammar (the value side of ``site=policy``)::

    off            never fires (site stays registered, counters tick)
    once           fires on the first evaluation only
    every:N        fires on evaluation N, 2N, 3N, ...
    after:N        fires on every evaluation past the first N
    p:0.3          fires with probability 0.3 (seed 0)
    p:0.3@7        same, seeded: Random(f"7:{site}") per site

A full spec is a comma-separated list: ``REPRO_FAILPOINTS=
"checkpoint.write.enospc=once,bdd.alloc=after:5000"``.

The documented site catalog lives in :data:`CATALOG`; the chaos suite
sweeps it and ``docs/failpoints.md`` renders it.  Every site obeys the
engine-wide contract: an injected failure ends in identical verdicts
after recovery, a clean typed error, or quarantine — never a silent
wrong answer.
"""

import contextlib
import os
import random

from repro.runtime.errors import ReproError


class FailpointError(ReproError):
    """A failpoint spec that cannot be parsed."""

    def __init__(self, spec, reason):
        self.spec = spec
        self.reason = reason
        super().__init__(f"bad failpoint spec {spec!r}: {reason}")


class InjectedFailure(ReproError):
    """Raised by sites whose natural failure is not an OS error.

    Sites that model a specific failure (``OSError(ENOSPC)``, a
    ``MemoryError``) raise that; sites injecting a generic "this step
    failed" raise this, so tests and callers can tell an injected
    fault from an organic one by type.
    """

    def __init__(self, site):
        self.site = site
        super().__init__(f"failpoint {site!r} fired")


class Failpoint:
    """One armed site: a policy plus deterministic counters."""

    __slots__ = ("name", "policy", "_mode", "_arg", "_rng",
                 "evaluations", "fired")

    def __init__(self, name, policy):
        self.name = name
        self.policy = policy
        self.evaluations = 0
        self.fired = 0
        self._rng = None
        mode, _, arg = policy.partition(":")
        self._mode = mode
        self._arg = None
        if mode in ("off", "once"):
            if arg:
                raise FailpointError(policy, f"{mode} takes no argument")
        elif mode in ("every", "after"):
            try:
                self._arg = int(arg)
            except ValueError:
                raise FailpointError(policy, f"{mode}:N needs an integer")
            if self._arg < 1:
                raise FailpointError(policy, f"{mode}:N needs N >= 1")
        elif mode == "p":
            prob, _, seed = arg.partition("@")
            try:
                self._arg = float(prob)
            except ValueError:
                raise FailpointError(policy, "p:P needs a float in [0,1]")
            if not 0.0 <= self._arg <= 1.0:
                raise FailpointError(policy, "p:P needs P in [0,1]")
            # a private stream per site: firing of one site can never
            # shift another site's schedule, and the global random
            # module is untouched
            self._rng = random.Random(f"{seed or 0}:{name}")
        else:
            raise FailpointError(
                policy,
                "expected off | once | every:N | after:N | p:P[@seed]",
            )

    def should_fire(self):
        """Advance the evaluation counter; True when the policy trips."""
        self.evaluations += 1
        mode = self._mode
        if mode == "off":
            return False
        if mode == "once":
            hit = self.evaluations == 1
        elif mode == "every":
            hit = self.evaluations % self._arg == 0
        elif mode == "after":
            hit = self.evaluations > self._arg
        else:  # p
            hit = self._rng.random() < self._arg
        if hit:
            self.fired += 1
        return hit


#: armed sites of this process: name -> Failpoint.  Module-level so
#: ``fire`` is one global load and a truth test when nothing is armed.
_REGISTRY = {}

#: observer hook: called with the site name on every fire, installed
#: by the campaign/worker to emit trace events and metrics.  A single
#: slot with save/restore (see :func:`set_observer`) keeps nesting
#: (audit inside campaign, shard inside service job) well defined.
_OBSERVER = None

#: env var read once at import; merged under any explicit configure()
ENV_VAR = "REPRO_FAILPOINTS"


def parse_spec(spec):
    """``"a=once,b=every:3"`` -> {"a": "once", "b": "every:3"}."""
    table = {}
    if not spec:
        return table
    for chunk in spec.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, sep, policy = chunk.partition("=")
        name = name.strip()
        policy = policy.strip()
        if not sep or not name or not policy:
            raise FailpointError(chunk, "expected site=policy")
        table[name] = policy
    return table


def configure(spec, replace=False):
    """Arm sites from a ``site=policy,...`` spec string (or dict).

    Merges per site by default (later wins); ``replace=True`` drops
    everything armed before.  Counters of re-armed sites reset, which
    is what makes shipping a spec to a freshly forked worker
    deterministic regardless of what the parent already evaluated.
    """
    table = spec if isinstance(spec, dict) else parse_spec(spec)
    if replace:
        _REGISTRY.clear()
    for name, policy in table.items():
        _REGISTRY[name] = Failpoint(name, policy)


def set_failpoint(name, policy):
    """Test API: arm (or re-arm, resetting counters) a single site."""
    _REGISTRY[name] = Failpoint(name, policy)


def clear(name=None):
    """Disarm one site, or every site when *name* is None."""
    if name is None:
        _REGISTRY.clear()
    else:
        _REGISTRY.pop(name, None)


def is_armed(name):
    """True when *name* has a policy other than ``off`` registered."""
    point = _REGISTRY.get(name)
    return point is not None and point._mode != "off"


def armed_count():
    """Number of sites with a live (non-``off``) policy."""
    return sum(1 for p in _REGISTRY.values() if p._mode != "off")


def active_spec():
    """The current registry as a spec string (for shipping to
    workers); empty string when nothing is armed."""
    return ",".join(
        f"{name}={point.policy}" for name, point in sorted(_REGISTRY.items())
    )


def fired_counts():
    """{site: times fired} for every armed site (0 entries included)."""
    return {name: point.fired for name, point in sorted(_REGISTRY.items())}


def set_observer(observer):
    """Install *observer* (called with the site name per fire) and
    return the previous one, so callers can restore it in a finally."""
    global _OBSERVER
    previous = _OBSERVER
    _OBSERVER = observer
    return previous


@contextlib.contextmanager
def observed(tracer, metrics):
    """Route fires inside the block into *tracer* and *metrics*.

    A ``failpoint`` trace event and the ``failpoints.fired`` /
    ``failpoints.site.<site>`` counters per fire, plus the
    ``failpoints.active`` gauge.  Installed only while sites are
    armed, so a disabled run keeps its byte-identical trace and metric
    set; the previous observer is restored on exit.
    """
    if not armed_count():
        yield
        return
    if metrics is not None:
        metrics.gauge("failpoints.active", armed_count())

    def observe(site):
        if tracer.enabled:
            tracer.event("failpoint", site=site)
        if metrics is not None:
            metrics.inc("failpoints.fired")
            metrics.inc(f"failpoints.site.{site}")

    previous = set_observer(observe)
    try:
        yield
    finally:
        set_observer(previous)


def fire(name):
    """True when the armed policy for *name* says to inject now.

    The disabled-path cost is one global dict load and a truth test;
    sites are expected to guard any expensive context assembly behind
    the returned bool.
    """
    if not _REGISTRY:
        return False
    point = _REGISTRY.get(name)
    if point is None or not point.should_fire():
        return False
    if _OBSERVER is not None:
        try:
            _OBSERVER(name)
        except Exception:
            pass  # observability must never alter injection behaviour
    return True


class Site:
    """One documented failpoint site (for docs, fsck, chaos sweeps)."""

    __slots__ = ("name", "layer", "injects", "outcome")

    def __init__(self, name, layer, injects, outcome):
        self.name = name
        self.layer = layer
        self.injects = injects
        self.outcome = outcome


#: the documented site catalog.  ``docs/failpoints.md`` renders it,
#: the parametrized chaos sweep iterates it, and every entry's
#: ``outcome`` states the guaranteed end state of an injection:
#: identical verdicts after recovery, a clean typed error, or
#: quarantine.
CATALOG = (
    Site("checkpoint.write.enospc", "runtime.checkpoint",
         "OSError(ENOSPC) mid-record in the campaign checkpoint writer; "
         "the partial record is truncated back out",
         "typed CheckpointError; resume after space returns reproduces "
         "baseline verdicts"),
    Site("checkpoint.write.torn", "runtime.checkpoint",
         "a torn (half-written, unsynced) record left on disk, as a "
         "SIGKILL mid-write would",
         "reader skips the torn tail; resume from the prior record "
         "reproduces baseline verdicts"),
    Site("checkpoint.fsync.before", "runtime.checkpoint",
         "OSError(EIO) before fsync of a checkpoint record",
         "typed CheckpointError, record rolled back; file stays valid"),
    Site("checkpoint.fsync.after", "runtime.checkpoint",
         "OSError(EIO) after fsync of a checkpoint record",
         "typed CheckpointError, record rolled back; file stays valid"),
    Site("fabric.checkpoint.write.enospc", "runtime.fabric",
         "ENOSPC mid-record in the fabric shard checkpoint writer",
         "typed CheckpointError; fabric resume reproduces baseline "
         "verdicts exactly"),
    Site("fabric.checkpoint.write.torn", "runtime.fabric",
         "torn record in the fabric shard checkpoint",
         "reader skips the torn tail; the uncovered shard re-runs"),
    Site("audit.checkpoint.write.enospc", "audit",
         "ENOSPC mid-record in the audit checkpoint writer",
         "typed CheckpointError; audit resume re-verifies the "
         "uncovered faults"),
    Site("audit.checkpoint.write.torn", "audit",
         "torn record in the audit checkpoint",
         "reader skips the torn tail; the finding is re-derived"),
    Site("journal.write.enospc", "service",
         "ENOSPC mid-record in the service job journal",
         "typed CheckpointError fails the API call; admitted jobs and "
         "the journal stay consistent"),
    Site("journal.write.torn", "service",
         "torn record in the service job journal",
         "replay skips the torn tail; the job replays from its last "
         "durable state"),
    Site("bdd.alloc", "bdd",
         "MemoryError at the Nth BDD node allocation",
         "surrender through the demotion ladder (3v fallback) — "
         "conservative verdicts, never invented detections"),
    Site("pressure.evict", "bdd.pressure",
         "the cache-eviction relief rung fails",
         "MemoryPressureExceeded surrender through existing demotion"),
    Site("pressure.gc", "bdd.pressure",
         "the frame-boundary GC relief rung fails",
         "MemoryPressureExceeded surrender through existing demotion"),
    Site("pressure.rescue", "bdd.pressure",
         "the reorder-rescue relief rung fails",
         "MemoryPressureExceeded surrender through existing demotion"),
    Site("fabric.heartbeat.drop", "runtime.fabric",
         "a worker heartbeat is silently dropped",
         "verdicts unchanged; at worst the hang watchdog kills and the "
         "shard retries to an identical result"),
    Site("fabric.heartbeat.dup", "runtime.fabric",
         "a worker heartbeat is sent twice",
         "verdicts unchanged; coordinator bookkeeping is idempotent"),
    Site("fabric.worker.stall", "runtime.fabric",
         "a worker wedges (alive, silent) before running its shard",
         "hang watchdog kills after HANG_WINDOW silent seconds; the shard "
         "retries under backoff/bisection to identical verdicts or "
         "quarantine"),
    Site("fabric.pipe.truncate", "runtime.fabric",
         "a worker writes half a result frame then wedges",
         "coordinator buffers the partial frame without blocking; the "
         "hang watchdog reaps the worker and the shard retries to "
         "identical verdicts"),
    Site("fabric.respawn.fail", "runtime.fabric",
         "spawning a replacement worker raises OSError",
         "tolerated and retried; three consecutive failures raise a "
         "typed WorkerCrashed"),
    Site("service.result.crash", "service",
         "hard process exit between the result write and the terminal "
         "journal record",
         "restart requeues the job from the journal and reproduces the "
         "verdict digest"),
    Site("disk.statvfs", "runtime.disk",
         "the free-space probe lies that the filesystem is full "
         "(statvfs reports zero available bytes)",
         "disk relief ladder runs — compact, stretch — then a clean "
         "checkpointed DiskPressureExceeded surrender, resumable; "
         "never a crash or a wrong verdict"),
    Site("disk.compact.crash", "runtime.disk",
         "failure between the finished compacted temp file and the "
         "rename over the original checkpoint",
         "original file untouched, temp file removed; a retried "
         "compaction (or a plain resume) reproduces baseline verdicts"),
)

#: CATALOG as {name: Site} for lookups
SITES = {site.name: site for site in CATALOG}


# arm anything the environment asks for, once, at import
_env_spec = os.environ.get(ENV_VAR)
if _env_spec:
    configure(_env_spec)
del _env_spec
