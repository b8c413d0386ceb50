"""Crash-safe shard-level checkpoints for the fabric coordinator.

The fabric checkpoint is the ``fabric`` entry of
:data:`~repro.runtime.checkpoint.LOG_KINDS`: one ``fabric-header``
when the sharded campaign starts, then one ``shard`` record per
*completed* shard, written the moment its result lands.  A killed
coordinator therefore resumes with every finished shard's verdicts
intact and only re-runs the remainder — in-flight shards are
deliberately not snapshotted (re-running a shard is exact, so the only
cost of losing one is time).  Compaction keeps the latest record per
shard; fsck checks each shard's states against its indices and the
header's fault universe.
"""

from repro.faults.status import fault_key_to_json
from repro.runtime.checkpoint import (
    CheckpointWriter,
    HeaderView,
    header_record,
    read_jsonl_records,
)
from repro.runtime.errors import CheckpointError


class FabricCheckpointWriter(CheckpointWriter):
    """Appends fabric-header/shard records to a JSONL file."""

    kind = "fabric"

    def write_fabric_header(self, *, xred, pre_pass_3v, config, **fields):
        """The fabric header: *fields* as for
        :func:`~repro.runtime.checkpoint.header_record`, plus the
        fabric's own ``xred``, ``pre_pass_3v`` and ``config``."""
        record = header_record("fabric", **fields)
        record.update(xred=xred, pre_pass_3v=pre_pass_3v, config=config)
        self._write(record)

    def write_shard(self, shard_id, indices, payload):
        self._write(
            {
                "type": "shard",
                "id": list(shard_id),
                "indices": list(indices),
                "states": payload["states"],
                # the raw trace is display data, potentially thousands
                # of records per shard — keep it out of the checkpoint
                # (the bounded metrics snapshot stays, so a resumed run
                # still folds complete final metrics)
                "summary": {
                    key: value
                    for key, value in payload.items()
                    if key not in (
                        "states", "demotion_log", "quarantined", "trace"
                    )
                },
                "quarantined": [
                    fault_key_to_json(k) for k in payload["quarantined"]
                ],
            }
        )
        self.checkpoints_written += 1


class FabricCheckpoint(HeaderView):
    """The parsed header and completed-shard records of a fabric file."""

    def __init__(self, path, header, shards):
        super().__init__(path, header)
        #: {shard_id tuple: shard record}, last write wins
        self.shards = shards

    def covered_indices(self):
        """Indices of every fault a completed shard already classified."""
        covered = set()
        for record in self.shards.values():
            covered.update(record["indices"])
        return covered


def load_fabric_checkpoint(path, on_corrupt=None):
    """Parse a fabric checkpoint: the header plus completed shards.

    With *on_corrupt* (see :func:`~repro.runtime.checkpoint.
    read_jsonl_records`) a damaged ``shard`` record is quarantined
    instead of failing the load — its faults simply drop out of
    ``covered_indices()`` and the resumed fabric re-runs them, which
    is exact.  A damaged *header* still fails the load: without the
    fault universe a resume would be verdict-affecting.
    """
    header = None
    shards = {}
    for record in read_jsonl_records(path, on_corrupt=on_corrupt):
        kind = record.get("type")
        if kind == "fabric-header":
            header = record
        elif kind == "shard":
            shards[tuple(record["id"])] = record
    if header is None:
        raise CheckpointError(path, "no fabric-header record")
    return FabricCheckpoint(path, header, shards)
