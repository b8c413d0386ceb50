"""Every structural rule ``repro fsck`` enforces, one forged file each.

Each case hand-forges a small JSONL artifact whose records all carry a
valid CRC (the same canonical-body splice the writer uses), so the
only thing wrong with it is its structure.  The assertions pin which
rule fires, whether it is a problem (exit 4) or a warning (exit 0),
and the line it names; messages are matched on a stable key phrase.
"""

import json

import pytest

from repro.runtime.checkpoint import record_crc
from repro.runtime.fsck import fsck_file

CAMPAIGN_HEADER = {"type": "header", "fault_keys": ["a", "b"],
                   "fingerprint": "0123456789abcdef"}
FABRIC_HEADER = {"type": "fabric-header", "fault_keys": ["a", "b"],
                 "fingerprint": "0123456789abcdef"}
AUDIT_HEADER = {"type": "audit-header", "fingerprint": "0123456789abcdef"}


def snapshot(frame):
    return {"type": "checkpoint", "frame": frame, "faults": [{}, {}]}


def shard(indices, states):
    return {"type": "shard", "id": [0, 0], "indices": indices,
            "states": states}


def unfingerprinted(header):
    return {k: v for k, v in header.items() if k != "fingerprint"}


FINDING = {"type": "audit-finding", "finding": {"fault": "a"}}
SERVICE = {"type": "service", "event": "start"}
SUBMITTED = {"type": "job", "id": "job-1", "state": "submitted",
             "spec": {"circuit": "s27"}}

PROBLEM, WARNING = "problems", "warnings"

# (case id, kind, records, severity, line, key phrase)
CASES = [
    # fabric checkpoints
    ("fabric-duplicate-header", "fabric",
     [FABRIC_HEADER, FABRIC_HEADER], PROBLEM, 2, "duplicate fabric-header"),
    ("fabric-shard-before-header", "fabric",
     [shard([0], ["u"]), FABRIC_HEADER], PROBLEM, 1,
     "before fabric-header"),
    ("fabric-states-indices-mismatch", "fabric",
     [FABRIC_HEADER, shard([0, 1], ["u"])], PROBLEM, 2, "states for"),
    ("fabric-index-outside-universe", "fabric",
     [FABRIC_HEADER, shard([0, 5], ["u", "u"])], PROBLEM, 2,
     "outside the header's fault universe"),
    ("fabric-unknown-type", "fabric",
     [FABRIC_HEADER, snapshot(1)], PROBLEM, 2, "unknown record type"),
    ("fabric-no-header", "fabric",
     [shard([0], ["u"])], PROBLEM, None, "resume would refuse"),
    ("fabric-no-fingerprint", "fabric",
     [unfingerprinted(FABRIC_HEADER)], WARNING, 1,
     "no circuit fingerprint"),
    # audit checkpoints
    ("audit-duplicate-header", "audit",
     [AUDIT_HEADER, AUDIT_HEADER], PROBLEM, 2, "duplicate audit-header"),
    ("audit-finding-before-header", "audit",
     [FINDING, AUDIT_HEADER], PROBLEM, 1, "before audit-header"),
    ("audit-finding-without-body", "audit",
     [AUDIT_HEADER, {"type": "audit-finding"}], PROBLEM, 2,
     "no finding body"),
    ("audit-no-header", "audit",
     [FINDING], PROBLEM, None, "resume would refuse"),
    ("audit-no-fingerprint", "audit",
     [unfingerprinted(AUDIT_HEADER), FINDING], WARNING, 1,
     "no circuit fingerprint"),
    # campaign checkpoints
    ("campaign-duplicate-header", "campaign",
     [CAMPAIGN_HEADER, CAMPAIGN_HEADER, snapshot(1)], PROBLEM, 2,
     "duplicate header"),
    ("campaign-frame-backwards", "campaign",
     [CAMPAIGN_HEADER, snapshot(10), snapshot(5)], PROBLEM, 3,
     "went backwards"),
    ("campaign-unknown-type", "campaign",
     [CAMPAIGN_HEADER, snapshot(1), {"type": "mystery"}], PROBLEM, 3,
     "unknown record type"),
    ("campaign-snapshot-before-header", "campaign",
     [snapshot(1), CAMPAIGN_HEADER], PROBLEM, 1, "before header"),
    ("campaign-no-header", "campaign",
     [snapshot(1)], PROBLEM, None, "resume would refuse"),
    ("campaign-no-snapshot", "campaign",
     [CAMPAIGN_HEADER], WARNING, None, "no checkpoint record"),
    ("campaign-no-fingerprint", "campaign",
     [unfingerprinted(CAMPAIGN_HEADER), snapshot(1)], WARNING, 1,
     "no circuit fingerprint"),
    # service journals
    ("journal-snapshot-unknown-state", "journal",
     [{"type": "snapshot", "jobs": {"job-1": {"state": "bogus"}}}],
     PROBLEM, 1, "unknown state"),
    ("journal-snapshot-without-jobs", "journal",
     [{"type": "snapshot", "jobs": []}], PROBLEM, 1, "without jobs map"),
    ("journal-deleted-without-id", "journal",
     [SERVICE, {"type": "job-deleted"}], PROBLEM, 2, "without an id"),
    ("journal-submitted-without-spec", "journal",
     [{"type": "job", "id": "job-1", "state": "submitted"}], PROBLEM, 1,
     "carries no spec"),
    ("journal-unknown-state", "journal",
     [SUBMITTED, {"type": "job", "id": "job-1", "state": "bogus"}],
     PROBLEM, 2, "unknown state"),
    ("journal-unknown-type", "journal",
     [SERVICE, {"type": "mystery"}], PROBLEM, 2, "unknown record type"),
]


def forge(path, records):
    """Write *records* as JSONL, each with its version and a valid CRC."""
    lines = []
    for record in records:
        body = json.dumps(dict(record, version=1), sort_keys=True)
        lines.append(f'{body[:-1]}, "crc": {record_crc(body)}}}\n')
    path.write_text("".join(lines))


@pytest.mark.parametrize(
    "kind, records, severity, line, phrase",
    [case[1:] for case in CASES],
    ids=[case[0] for case in CASES],
)
def test_fsck_structural_rule(tmp_path, kind, records, severity, line,
                              phrase):
    path = tmp_path / "artifact.jsonl"
    forge(path, records)
    report = fsck_file(str(path))
    assert report.kind == kind
    assert report.corrupt == [] and not report.torn_tail
    assert report.records == len(records)
    hits = [e for e in getattr(report, severity) if phrase in e["reason"]]
    assert [e["line"] for e in hits] == [line], getattr(report, severity)
    other = PROBLEM if severity == WARNING else WARNING
    assert not any(phrase in e["reason"] for e in getattr(report, other))
    assert report.ok == (severity == WARNING)


def test_unchecksummed_counts_only_intact_crcless_records(tmp_path):
    # one record from before checksumming, one checksummed, then a
    # garbage line and a crc-less record of another version: the last
    # two are corrupt, not unchecksummed
    path = tmp_path / "journal.jsonl"
    forge(path, [SERVICE])
    legacy = json.dumps(dict(SUBMITTED, version=1), sort_keys=True)
    wrong_version = json.dumps(dict(SUBMITTED, version=99), sort_keys=True)
    with open(path, "a") as handle:
        handle.write(f"{legacy}\nnot json at all\n{wrong_version}\n")
    report = fsck_file(str(path))
    assert report.records == 2
    assert len(report.corrupt) == 2
    assert report.unchecksummed == 1


def test_a_pretty_printed_document_has_no_unchecksummed_records(tmp_path):
    path = tmp_path / "doc.json"
    path.write_text(json.dumps({"a": 1, "b": [1, 2]}, indent=2) + "\n")
    report = fsck_file(str(path))
    assert report.records == 0 and report.corrupt
    assert report.unchecksummed == 0
    assert not any("predate CRC" in line for line in report.lines())
