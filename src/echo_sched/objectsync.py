"""Lazy object transmission and differential object update.

Two layers live here.  The codec layer is real: diff_encode/diff_apply
implement a block-hashing delta format (fixed-size source blocks, rolling
window match with byte-exact verification and greedy extension), and
lazy_bytes prices a proxy-first transfer of an object set.  The transfer
models are what the simulator charges with, as pure arithmetic on profiled
sizes so no payload is ever materialized: TransferAccountant applies the
lazy and differential pricing rules, EagerTransfer ships profiled bytes
as-is.  Each policy declares which one prices its offloads; both price a
task with preview() and record an offload with commit().

Delta wire format, little-endian:

    magic "ODLT" (4) | version u16 | sha256(old) (32) | block_size u32 |
    op_count u32 | ops...

    op COPY   = tag 0x00 | source offset u64 | length u32
    op INSERT = tag 0x01 | length u32 | raw bytes

diff_encode's block matcher lives in _blockmatch and loads, with numpy,
on the first pair that reaches it; everything here is plain Python.

Applying a delta against the wrong base payload fails the digest check;
any other break of the wire format raises SyncError.  Only the base is
digested, so damage that keeps the framing intact goes undetected.
For any inputs, len(delta) <= len(new) + DELTA_HEADER_BUDGET as long as
block_size >= MIN_BLOCK (each COPY op's 13 bytes displaces at least
MIN_BLOCK literal bytes).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass
from typing import NamedTuple

from .model import check_int, check_real

MAGIC = b"ODLT"
WIRE_VERSION = 1
_HEADER = struct.Struct("<4sH32sII")
_COPY = struct.Struct("<BQI")
_INSERT_HEAD = struct.Struct("<BI")
_OP_COPY = 0
_OP_INSERT = 1

MIN_BLOCK = 64
DEFAULT_BLOCK = 1024
# fixed header (46 B) + one COPY op (13 B) and change, rounded up
DELTA_HEADER_BUDGET = 64


class SyncError(Exception):
    pass


class DigestMismatch(SyncError):
    """Delta was produced against a different base payload (stale cache)."""


# --------------------------------------------------------------------------
# delta codec


def diff_encode(old: bytes, new: bytes, block_size: int = DEFAULT_BLOCK) -> bytes:
    """Delta from `old` to `new` such that diff_apply(old, delta) == new."""
    check_int("block_size", block_size)
    if block_size < MIN_BLOCK:
        raise ValueError(f"block_size must be >= {MIN_BLOCK}")
    if block_size > 0xFFFFFFFF:
        raise ValueError("block_size must fit the u32 wire field")
    ops: list[bytes] = []

    if old == new:
        # cached copy is current: no payload bytes at all
        if new:
            ops.append(_COPY.pack(_OP_COPY, 0, len(new)))
    elif len(old) < block_size or len(new) < block_size:
        ops.append(_INSERT_HEAD.pack(_OP_INSERT, len(new)) + new)
    else:
        from ._blockmatch import _encode_blocks
        ops = _encode_blocks(old, new, block_size)

    header = _HEADER.pack(MAGIC, WIRE_VERSION, hashlib.sha256(old).digest(),
                          block_size, len(ops))
    return header + b"".join(ops)


def diff_apply(old: bytes, delta: bytes) -> bytes:
    """Reconstruct the new payload; rejects deltas built on a different base."""
    if len(delta) < _HEADER.size:
        raise SyncError("delta truncated: missing header")
    magic, version, digest, block_size, op_count = _HEADER.unpack_from(delta, 0)
    if magic != MAGIC:
        raise SyncError(f"bad delta magic {magic!r}")
    if version != WIRE_VERSION:
        raise SyncError(f"unsupported delta version {version}")
    if hashlib.sha256(old).digest() != digest:
        raise DigestMismatch("delta was encoded against a different payload")
    if block_size < MIN_BLOCK:
        raise SyncError(f"corrupt delta: block size {block_size}")

    pieces: list[bytes] = []
    at = _HEADER.size
    try:
        for _ in range(op_count):
            tag = delta[at]
            if tag == _OP_COPY:
                _, offset, length = _COPY.unpack_from(delta, at)
                at += _COPY.size
                if offset + length > len(old):
                    raise SyncError("copy op out of base payload bounds")
                pieces.append(old[offset:offset + length])
            elif tag == _OP_INSERT:
                _, length = _INSERT_HEAD.unpack_from(delta, at)
                at += _INSERT_HEAD.size
                if at + length > len(delta):
                    raise SyncError("delta truncated: insert payload")
                pieces.append(delta[at:at + length])
                at += length
            else:
                raise SyncError(f"unknown delta op tag {tag}")
    except (IndexError, struct.error):  # an op's tag or head is cut short
        raise SyncError(f"delta truncated: op at byte {at}") from None
    if at != len(delta):
        raise SyncError(f"{len(delta) - at} trailing bytes after ops")
    return b"".join(pieces)


# --------------------------------------------------------------------------
# object records and lazy transfer pricing


@dataclass(frozen=True)
class ObjectRecord:
    """One versioned opaque payload."""

    object_id: str
    version: int
    payload: bytes

    def __post_init__(self) -> None:
        if self.version < 1:
            raise ValueError(f"object version must be >= 1, got {self.version}")


@dataclass(frozen=True)
class TaskObjectSet:
    """Objects reachable from a task's arguments, flagged by actual use."""

    objects: tuple[tuple[ObjectRecord, bool], ...]

    def __post_init__(self) -> None:
        if not any(referred for _, referred in self.objects):
            raise ValueError("at least the input-argument object must be referred")
        ids = [rec.object_id for rec, _ in self.objects]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate object_id in task object set")


def _proxy_first(objects: int, proxy_header: int, shipped: int) -> int:
    """The proxy rule: one header per object, plus the payload that ships."""
    return objects * proxy_header + shipped


def lazy_bytes(obj_set: TaskObjectSet, proxy_header: int) -> tuple[int, tuple[str, ...]]:
    """Bytes to transmit the set proxy-first: every object costs one proxy
    header, and only referred objects ship their payload."""
    if proxy_header <= 0:
        raise ValueError("proxy_header must be positive")
    shipped = [record for record, referred in obj_set.objects if referred]
    total = _proxy_first(len(obj_set.objects), proxy_header,
                         sum(len(record.payload) for record in shipped))
    return total, tuple(record.object_id for record in shipped)


def eager_bytes(obj_set: TaskObjectSet) -> int:
    """Bytes to transmit every payload up front (no proxies)."""
    return sum(len(record.payload) for record, _ in obj_set.objects)


# --------------------------------------------------------------------------
# per-task transfer accounting for the simulator


@dataclass(frozen=True)
class SyncParams:
    """Knobs of the arithmetic transfer model (defaults documented in README).

    A task's profiled upload splits into call arguments (always sent in
    full) and app resource state.  A `referred_share` slice of the state is
    actually used remotely: it ships fully on the first offload of a
    (user, app) pair and as a `change_fraction` delta afterwards.  The
    unreferred remainder travels as proxies only.  `rtt_us` prices the
    demand-fetch round trip of the referred slice into the upload leg.
    """

    proxy_header: int = 64
    objects_per_task: int = 4
    args_share: float = 0.5
    referred_share: float = 0.5
    change_fraction: float = 0.25
    rtt_us: int = 0

    def __post_init__(self) -> None:
        for name in ("proxy_header", "objects_per_task", "rtt_us"):
            check_int(name, getattr(self, name))
        if self.proxy_header <= 0 or self.objects_per_task < 1:
            raise ValueError("need a positive proxy header and >= 1 object per task")
        for name in ("args_share", "referred_share", "change_fraction"):
            value = getattr(self, name)
            check_real(name, value)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {value}")
        if self.rtt_us < 0:
            raise ValueError("rtt_us must be >= 0")


class TransferCost(NamedTuple):
    up_bytes: int
    down_bytes: int
    up_us: int           # edge upload leg, demand-fetch round trip included
    backhaul_bytes: int  # background state sync between edge and cloud


class TransferAccountant:
    """Effective bytes for offloaded tasks under lazy + differential sync.

    Pure arithmetic mirror of the object pipeline: no payloads change
    hands, only the sizes the pipeline would transmit.  State is keyed by
    (user_id, app): the first offload pays the referred resource slice in
    full, later offloads pay deltas: preview() reads that state, commit()
    writes it.  Baseline policies declare EagerTransfer instead and pay
    profiled bytes as-is.
    """

    def __init__(self, params: SyncParams | None = None):
        self.params = params or SyncParams()
        self._synced: set[tuple[str, str]] = set()

    def preview(self, task) -> TransferCost:
        """Cost if this task offloads now; no state change.  The upload leg
        is the profiled one scaled to the bytes moved, plus the round trip
        when state moves."""
        p = self.params
        profile = task.profile
        args = int(profile.upload_bytes * p.args_share)
        resource = profile.upload_bytes - args
        referred = int(resource * p.referred_share)

        if referred == 0:
            state_cost = 0
        elif (task.user_id, task.app) in self._synced:
            state_cost = int(referred * p.change_fraction) + DELTA_HEADER_BUDGET
        else:
            state_cost = referred
        up_bytes = _proxy_first(p.objects_per_task, p.proxy_header,
                                args + state_cost)
        up_us = profile.up_edge
        if profile.upload_bytes > 0:
            up_us = round(up_us * up_bytes / profile.upload_bytes)
        if state_cost > 0:
            up_us += p.rtt_us
        return TransferCost(
            up_bytes=up_bytes,
            down_bytes=profile.download_bytes,
            up_us=up_us,
            backhaul_bytes=state_cost,
        )

    def commit(self, task) -> None:
        """Record that this task offloaded: its app state is now cached."""
        self._synced.add((task.user_id, task.app))


class EagerTransfer:
    """Baseline transfer model: every offload ships its profiled bytes."""

    def __init__(self, params: SyncParams | None = None):
        """Profiled bytes need no knobs; `params` keeps one signature."""

    def preview(self, task) -> TransferCost:
        p = task.profile
        return TransferCost(p.upload_bytes, p.download_bytes, p.up_edge, 0)

    def commit(self, task) -> None:
        """Nothing is cached: the next offload pays the same bytes."""
