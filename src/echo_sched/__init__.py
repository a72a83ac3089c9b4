"""Edge code-offloading simulator with a deadline-guaranteeing scheduler.

Layers, bottom up: model (domain types, integer-microsecond time),
scheduler (per-VM preemption-constrained shortest-remaining-time-first),
engine (three-platform placement with admission deadlines), policies
(baselines sharing the engine's interface), objectsync (lazy transmission
and delta encoding), traceio (trace schema and generator), sim (the
trace-driven simulator and reports), cli (the command-line surface).
Beside them, _blockmatch holds the delta encoder's numpy block matcher;
diff_encode loads it on first use, so no other layer imports numpy.
"""

from .engine import decide, estimate, no_edge
from .model import (CostProfile, Decision, Platform, Task, TraceError,
                    from_seconds, to_seconds, validate_trace)
from .objectsync import (EagerTransfer, ObjectRecord, SyncParams,
                         TaskObjectSet, TransferAccountant, diff_apply,
                         diff_encode, lazy_bytes)
from .policies import POLICY_NAMES, build_policy
from .scheduler import (LateTrialError, SchedulerError, StaleTrialError,
                        TrialInsertion, VmQueue, best_vm, commit,
                        trial_insert)
from .sim import EnergyParams, SimConfig, SimReport, energy_of, run
from .traceio import MixSpec, TraceFile, generate, load, save

__version__ = "0.1.0"

__all__ = [
    "CostProfile", "Decision", "EagerTransfer", "EnergyParams",
    "LateTrialError", "MixSpec", "ObjectRecord", "POLICY_NAMES", "Platform",
    "SchedulerError", "SimConfig", "SimReport", "StaleTrialError",
    "SyncParams", "Task", "TaskObjectSet", "TraceError", "TraceFile",
    "TransferAccountant", "TrialInsertion", "VmQueue", "best_vm",
    "build_policy", "commit", "decide", "diff_apply", "diff_encode",
    "energy_of", "estimate", "from_seconds", "generate", "lazy_bytes",
    "load", "no_edge", "run", "save", "to_seconds", "trial_insert",
    "validate_trace",
]
