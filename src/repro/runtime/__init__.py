"""Campaign runtime: budgets, checkpoints and graceful degradation.

Leaf modules (:mod:`errors`, :mod:`governor`, :mod:`ladder`) are
imported eagerly.  The campaign driver and checkpoint machinery are
exposed lazily (PEP 562): :mod:`repro.circuit.bench` imports
:mod:`repro.runtime.errors` for its error taxonomy, and an eager import
of :mod:`repro.runtime.campaign` here would close a circular import
through the engines back to :mod:`repro.circuit`.
"""

from repro.runtime.errors import (
    BudgetExceeded,
    CheckpointError,
    CheckpointMismatch,
    CircuitFormatError,
    DegradationExhausted,
    ReproError,
    WorkerCrashed,
)
from repro.runtime.governor import ResourceGovernor
from repro.runtime.memory import Probe, parse_size, read_rss_bytes
from repro.runtime.ladder import (
    THREE_VALUED_RUNG,
    DegradationLadder,
    LadderState,
    Rung,
)

_CAMPAIGN_EXPORTS = {
    "Campaign",
    "CampaignResult",
    "run_campaign",
    "resume_campaign",
    "DEFAULT_CHECKPOINT_EVERY",
}
_CHECKPOINT_EXPORTS = {
    "CHECKPOINT_VERSION",
    "Checkpoint",
    "CheckpointWriter",
    "JsonlWriter",
    "SignalGuard",
    "circuit_fingerprint",
    "fsync_best_effort",
    "load_checkpoint",
    "read_jsonl_records",
    "sniff_checkpoint_kind",
    "verify_fingerprint",
    "write_json_atomic",
}
_FABRIC_EXPORTS = {
    "FabricConfig",
    "ShardFabric",
    "load_fabric_checkpoint",
    "resume_sharded_campaign",
    "run_sharded_campaign",
}

__all__ = sorted(
    {
        "ReproError",
        "BudgetExceeded",
        "CheckpointError",
        "CheckpointMismatch",
        "CircuitFormatError",
        "DegradationExhausted",
        "WorkerCrashed",
        "ResourceGovernor",
        "DegradationLadder",
        "LadderState",
        "Rung",
        "THREE_VALUED_RUNG",
        "Probe",
        "parse_size",
        "read_rss_bytes",
    }
    | _CAMPAIGN_EXPORTS
    | _CHECKPOINT_EXPORTS
    | _FABRIC_EXPORTS
)


def __getattr__(name):
    if name in _CAMPAIGN_EXPORTS:
        from repro.runtime import campaign

        return getattr(campaign, name)
    if name in _CHECKPOINT_EXPORTS:
        from repro.runtime import checkpoint

        return getattr(checkpoint, name)
    if name in _FABRIC_EXPORTS:
        from repro.runtime import fabric

        return getattr(fabric, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
