"""Domain types shared by the scheduler, decision engine, and simulator.

All times are kept as integer microsecond counts (fixed point), so schedule
arithmetic is exact: no float drift can accumulate across insertions,
evictions, or long simulations.  Public helpers convert to and from seconds
at the edges (CLI flags, report aggregates).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple

US_PER_SECOND = 1_000_000
# Trace counts (microseconds, bytes) stay below this, so that report
# arithmetic on them never overflows a float.
_COUNT_LIMIT = 2**64


def from_seconds(value: float) -> int:
    """Convert seconds to integer microseconds (rounded to nearest)."""
    us = value * US_PER_SECOND
    if not math.isfinite(us):
        raise ValueError(f"{value!r} s is not a finite microsecond count")
    return round(us)


def to_seconds(us: int) -> float:
    return us / US_PER_SECOND


class TraceError(ValueError):
    """A trace violates a hard invariant (duplicate ids, negative durations)."""


def check_int(name: str, value: int) -> None:
    """Raise ValueError naming `name` unless `value` is an int (not a bool)."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def check_real(name: str, value: float) -> None:
    """Raise ValueError naming `name` unless `value` is a finite real (not a bool)."""
    if (not isinstance(value, (int, float)) or isinstance(value, bool)
            or not math.isfinite(value)):
        raise ValueError(f"{name} must be a finite real number, got {value!r}")


def _check_duration(name: str, value: int) -> None:
    if not isinstance(value, int) or isinstance(value, bool):
        raise TraceError(f"{name} must be an integer microsecond count, got {value!r}")
    if value < 0:
        raise TraceError(f"{name} must be >= 0, got {value}")
    if value >= _COUNT_LIMIT:
        raise TraceError(f"{name} must be below 2**64")


@dataclass(frozen=True)
class CostProfile:
    """Profiled costs of one task on all three platforms.

    Durations are integer microseconds:
      r_mobile   -- execution time locally on the device
      r_edge     -- execution time on one edge VM (> 0: a VM queue
                    cannot hold a task with no work)
      r_cloud    -- execution time on the cloud
      up_edge    -- device-to-edge input transfer time
      down_edge  -- edge-to-device result transfer time
      up_cloud   -- device-to-cloud input transfer time
      down_cloud -- cloud-to-device result transfer time
    upload_bytes / download_bytes are the eager payload sizes behind the
    transfer durations.
    """

    r_mobile: int
    r_edge: int
    r_cloud: int
    up_edge: int
    down_edge: int
    up_cloud: int
    down_cloud: int
    upload_bytes: int = 0
    download_bytes: int = 0

    def __post_init__(self) -> None:
        # Fast path for the common case; anything else (bool, int
        # subclasses, bad values) takes the per-field checks below.  The
        # bitwise OR of ints is negative if any is, and else below 2**64
        # exactly when each is.
        if (type(self.r_mobile) is type(self.r_edge) is type(self.r_cloud)
                is type(self.up_edge) is type(self.down_edge)
                is type(self.up_cloud) is type(self.down_cloud)
                is type(self.upload_bytes) is type(self.download_bytes) is int
                and 0 <= (self.r_mobile | self.r_edge | self.r_cloud
                          | self.up_edge | self.down_edge | self.up_cloud
                          | self.down_cloud | self.upload_bytes
                          | self.download_bytes) < _COUNT_LIMIT
                and self.r_edge):
            return
        for name in ("r_mobile", "r_edge", "r_cloud", "up_edge",
                     "down_edge", "up_cloud", "down_cloud"):
            _check_duration(name, getattr(self, name))
        if self.r_edge == 0:
            raise TraceError("r_edge must be > 0, got 0")
        for name in ("upload_bytes", "download_bytes"):
            value = getattr(self, name)
            if not isinstance(value, int) or isinstance(value, bool) or value < 0:
                raise TraceError(f"{name} must be a non-negative integer, got {value!r}")
            if value >= _COUNT_LIMIT:
                raise TraceError(f"{name} must be below 2**64")


@dataclass(frozen=True)
class Task:
    """One offloadable method invocation with its arrival time and costs.

    offloadable=False forces local execution regardless of costs (it stands
    in for a code-level rejection: the method touches device state that
    cannot leave the phone).
    """

    id: str
    user_id: str
    app: str
    arrival: int
    profile: CostProfile
    offloadable: bool = True

    def __post_init__(self) -> None:
        # Fast path, as in CostProfile; the checks below accept a superset.
        if (type(self.id) is type(self.user_id) is type(self.app) is str
                and type(self.arrival) is int
                and 0 <= self.arrival < _COUNT_LIMIT
                and type(self.offloadable) is bool):
            return
        _check_duration("arrival", self.arrival)
        for name in ("id", "user_id", "app"):
            value = getattr(self, name)
            if not isinstance(value, str):
                raise TraceError(f"{name} must be a string, got {value!r}")
        if not isinstance(self.offloadable, bool):
            raise TraceError(f"offloadable must be true or false, got {self.offloadable!r}")


class Platform(Enum):
    MOBILE = "mobile"
    EDGE = "edge"
    CLOUD = "cloud"


class _DecisionFields(NamedTuple):
    platform: Platform
    predicted_completion: int
    vm_index: int | None = None
    deadline: int | None = None


class Decision(_DecisionFields):
    """Platform assignment with the completion time predicted at decision time.

    vm_index is set iff platform is EDGE.  deadline is the absolute
    completion bound arrival + min(local completion time, cloud completion
    time): running at the edge must never be worse than the better of the
    two alternatives.  Under estimate noise it is arrival plus a floor that
    no true no-edge time undercuts, not the noisy minimum itself.  The
    QoS-guaranteeing engine attaches it to its edge placements; best-effort
    edge placements (no admission control) and device or cloud placements
    leave it None.
    """

    __slots__ = ()

    def __new__(cls, platform: Platform, predicted_completion: int,
                vm_index: int | None = None, deadline: int | None = None):
        if platform is Platform.EDGE:
            if vm_index is None or vm_index < 0:
                raise ValueError("edge decision requires a vm_index")
        elif vm_index is not None:
            raise ValueError(f"vm_index only applies to edge decisions, got {platform}")
        return tuple.__new__(cls, (platform, predicted_completion, vm_index,
                                   deadline))

    def platform_label(self) -> str:
        if self.platform is Platform.EDGE:
            return f"edge:{self.vm_index}"
        return self.platform.value


def validate_trace(tasks) -> list[str]:
    """Check a task sequence against the cost-model assumptions.

    Hard violations (duplicate ids; negative durations, which the
    constructors already reject) raise TraceError.  Soft violations of the
    expected platform orderings return human-readable warnings: the trace is
    still usable, but the offloading rationale (edge link faster than cloud
    link, remote executors at least as fast as the device) no longer holds
    for those tasks.
    """
    warnings: list[str] = []
    seen: set[str] = set()
    for task in tasks:
        if task.id in seen:
            raise TraceError(f"duplicate task id {task.id!r}")
        seen.add(task.id)
        p = task.profile
        if p.up_edge >= p.up_cloud:
            warnings.append(
                f"task {task.id}: edge upload slower than cloud "
                f"(up_edge={to_seconds(p.up_edge)}s >= up_cloud={to_seconds(p.up_cloud)}s)"
            )
        if p.r_cloud > p.r_edge:
            warnings.append(
                f"task {task.id}: cloud run slower than edge "
                f"(r_cloud={to_seconds(p.r_cloud)}s > r_edge={to_seconds(p.r_edge)}s)"
            )
        if p.r_mobile == 0:
            warnings.append(f"task {task.id}: r_mobile is zero")
    return warnings
