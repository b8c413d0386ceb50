"""The work ledger: the deterministic counts of pinned campaigns.

``tests/ledger.json`` holds one row per pinned campaign: its config
(circuit, strategy, node limit, sequence length and seed, and the path
it runs through) and what the run did.  Every count in a row is a
deterministic function of the program and the config, so the ledger
pins work and verdicts exactly, with no guardband:

* ``demotions``, ``fallbacks``, ``frames_three_valued``, ``gc_runs``
  and ``peak_nodes`` from the campaign result;
* ``bdd.nodes_created``, ``bdd.ite_calls`` and ``symbolic.quiet_skips``
  from the campaign's metrics registry;
* ``propagate_calls`` and ``observe_calls``: calls of the symbolic
  ``propagate_fault`` and of the strategies' ``observe``, counted by
  wrappers installed around the run (the program keeps no such
  counter);
* ``detected``, the verdict rows counted by (status, detected by), and
  a SHA-256 digest of the per-fault verdict rows in the layout of the
  service's result documents.

Under a node limit, *which* nodes get built decides when a step
overflows, and so GC timing, demotions, three-valued fallbacks and
verdicts: an engine change that builds other nodes moves these counts.
The rows are the tight-limit campaigns that overflow often (nlfsr12's
XOR/AND feedback, rfsm13r's wide AND/OR gates under all three
strategies), the benchmark's two campaign circuits at the paper's
30k-node limit, the overflow rows at 30k (nlfsr12, ctr16), and lfsr8
at 2,000 nodes in process, through the inline shard fabric in 16-fault
partitions (whose verdicts differ) and on the service's default path
(one partition, whose every count equals the in-process row's).

``tests/test_ledger.py`` re-runs every row in the tier-1 suite, and
``tests/runtime/test_node_neutrality.py`` checks the tight-limit and
benchmark rows under its own test names.  A change that moves a count
on purpose regenerates the file and says in its change notes which
counts moved and why::

    PYTHONPATH=src python -m tests.ledger

which rewrites ``tests/ledger.json`` and prints every moved field as
``row: field old -> new``.  A new row is a config-only entry in the
file; the next regeneration fills in its counts.
"""

import contextlib
import json
import os
import sys
from collections import Counter

from repro.circuit.compile import compile_circuit
from repro.circuits.registry import get_circuit
from repro.faults.collapse import collapse_faults
from repro.faults.status import FaultSet
from repro.obs.metrics import MetricsRegistry
from repro.runtime import run_campaign
from repro.sequences.random_seq import random_sequence_for
from repro.service.executor import verdict_digest, verdict_rows
from repro.service.jobs import JobSpec
from repro.symbolic import fault_sim, strategies

LEDGER = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "ledger.json"
)

#: run-through keywords of each path a row may take; the service's
#: default path is whatever a job spec with no fabric fields runs
PATHS = {
    "in-process": {},
    "inline-fabric": {"workers": 0, "shard_size": 16},
    "service-default": {
        "workers": JobSpec().workers, "shard_size": JobSpec().shard_size,
    },
}

#: the counts read off the campaign result, then off its metrics
_RESULT_FIELDS = (
    "demotions", "fallbacks", "frames_three_valued", "gc_runs",
    "peak_nodes",
)
_METRIC_FIELDS = (
    "bdd.nodes_created", "bdd.ite_calls", "symbolic.quiet_skips",
)


@contextlib.contextmanager
def counting_calls(calls):
    """Count symbolic ``propagate_fault`` and strategy ``observe``
    calls into *calls* while the block runs."""
    points = [(fault_sim, "propagate_fault", "propagate_calls")] + [
        (cls, "observe", "observe_calls")
        for cls in (
            strategies.SotStrategy,
            strategies.RmotStrategy,
            strategies.MotStrategy,
        )
    ]
    patches = []
    for owner, attr, field in points:
        original = owner.__dict__[attr]

        def counted(*args, _original=original, _field=field, **kwargs):
            calls[_field] += 1
            return _original(*args, **kwargs)

        setattr(owner, attr, counted)
        patches.append((owner, attr, original))
    try:
        yield
    finally:
        for owner, attr, original in reversed(patches):
            setattr(owner, attr, original)


def run_row(config):
    """Run one row's campaign; returns its ``counts``, ``verdicts`` and
    ``digest`` entries."""
    compiled = compile_circuit(get_circuit(config["circuit"]))
    faults, _ = collapse_faults(compiled)
    sequence = random_sequence_for(
        compiled, config["length"], seed=config["seed"]
    )
    fault_set = FaultSet(faults)
    metrics = MetricsRegistry()
    calls = Counter(propagate_calls=0, observe_calls=0)
    with counting_calls(calls):
        result = run_campaign(
            compiled, sequence, fault_set,
            strategy=config["strategy"],
            node_limit=config["node_limit"],
            metrics=metrics,
            **PATHS[config["path"]],
        )
    counters = metrics.snapshot()["counters"]
    counts = {field: getattr(result, field) for field in _RESULT_FIELDS}
    counts.update({field: counters.get(field, 0) for field in _METRIC_FIELDS})
    counts.update(calls)
    counts["detected"] = fault_set.counts()["detected"]
    verdicts = Counter(
        record.status if record.detected_by is None
        else f"{record.status}/{record.detected_by}"
        for record in fault_set
    )
    return {
        "counts": counts,
        "verdicts": dict(sorted(verdicts.items())),
        "digest": verdict_digest({"verdicts": verdict_rows(fault_set)}),
    }


def _fields(row):
    """A row's pinned values, flattened to ``{field: value}``."""
    fields = dict(row.get("counts", {}))
    fields.update(
        (f"verdicts.{key}", value)
        for key, value in row.get("verdicts", {}).items()
    )
    if "digest" in row:
        fields["digest"] = row["digest"]
    return fields


def diff_row(name, old, new):
    """``row: field old -> new`` for every pinned value that differs."""
    before, after = _fields(old), _fields(new)
    return [
        f"{name}: {field} {before.get(field, 'absent')} -> "
        f"{after.get(field, 'absent')}"
        for field in sorted(set(before) | set(after))
        if before.get(field) != after.get(field)
    ]


def load_ledger():
    with open(LEDGER, encoding="utf-8") as handle:
        return json.load(handle)


_measured = {}


def measure(config):
    """``run_row(config)``, run once per process: the pinned-campaign
    tests of ``tests/runtime/test_node_neutrality.py`` check six rows
    that the ledger test checks too."""
    key = json.dumps(config, sort_keys=True)
    if key not in _measured:
        _measured[key] = run_row(config)
    return _measured[key]


def rerun(ledger):
    """Re-run every row of *ledger*; returns the fresh rows and the
    moved fields of all of them (empty: none moved)."""
    rows, moved = [], []
    for row in ledger["rows"]:
        fresh = {"name": row["name"], "config": row["config"]}
        fresh.update(measure(row["config"]))
        moved += diff_row(row["name"], row, fresh)
        rows.append(fresh)
    return rows, moved


def moved_in(name):
    """The moved fields of the ledger row called *name*."""
    (row,) = [row for row in load_ledger()["rows"] if row["name"] == name]
    return diff_row(name, row, measure(row["config"]))


def report(moved):
    """The failure message of a ledger check that found *moved*."""
    return "\n".join(
        ["the work ledger moved:"] + moved
        + ["if this is intended, regenerate it: "
           "PYTHONPATH=src python -m tests.ledger"]
    )


if __name__ == "__main__":
    ledger = load_ledger()
    ledger["rows"], moved = rerun(ledger)
    with open(LEDGER, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(ledger, indent=2) + "\n")
    for line in moved:
        print(line)
    print(f"{LEDGER}: {len(moved)} field(s) moved", file=sys.stderr)
