"""Lazy object transmission and differential object update.

Two layers live here.  The codec layer is real: diff_encode/diff_apply
implement a block-hashing delta format (fixed-size source blocks, rolling
window match with byte-exact verification and greedy extension), and
lazy_bytes prices a proxy-first transfer of an object set.  The transfer
models are what the simulator charges with, as pure arithmetic on profiled
sizes so no payload is ever materialized: TransferAccountant applies the
lazy and differential pricing rules, EagerTransfer ships profiled bytes
as-is.  Each policy declares which one prices its offloads.

Delta wire format, little-endian:

    magic "ODLT" (4) | version u16 | sha256(old) (32) | block_size u32 |
    op_count u32 | ops...

    op COPY   = tag 0x00 | source offset u64 | length u32
    op INSERT = tag 0x01 | length u32 | raw bytes

The encoder keys each window by its byte sum and its weighted byte sum
(weights block..1), as in rsync's weak checksum.  Only the block-aligned
windows of the old payload are keyed, one reshaped row per block.  The
new payload is keyed lazily, one span of window starts at a time, in
uint32 wrap-around arithmetic, which is exact because the key keeps 32
bits of each sum.  A span covers 64 blocks' worth of starts.  One that
yields no COPY doubles the next; after one that does, the next span is
64 blocks again and starts at the later of its end and the last COPY's
end, so windows inside a COPY that outruns its span are never keyed.
A bitmap on the low 20 bits of the block keys discards almost every
window before a 64-bit key is built; the survivors are matched exactly.
Scanning left to right, the first window that verifies byte-for-byte
against a block becomes a COPY, extended by comparing doubling strides,
and the bytes between COPYs become INSERTs.

The spans, prefilter and stride compare set only speed and memory.  A
window's key depends only on its own bytes, so keying a slice gives the
key that keying the whole payload would, and candidates are still tried
in increasing start order: which windows match, in which order, and so
every delta byte, stay fixed (tests/test_golden.py pins a digest of the
deltas).

Applying a delta against the wrong base payload fails the digest check.
For any inputs, len(delta) <= len(new) + DELTA_HEADER_BUDGET as long as
block_size >= MIN_BLOCK (each COPY op's 13 bytes displaces at least
MIN_BLOCK literal bytes).
"""

from __future__ import annotations

import hashlib
import struct
from dataclasses import dataclass

import numpy as np

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


_PREFILTER_BITS = 20
_PREFILTER_MASK = np.uint32((1 << _PREFILTER_BITS) - 1)
# Blocks' worth of window starts in the first span and in each span after
# a COPY.  A span with no COPY doubles the next, so an unmatched stretch
# costs few numpy calls.
_FIRST_SPAN = 64


def _window_sums(data: np.ndarray, block: int) -> tuple[np.ndarray, np.ndarray]:
    """Both halves of the weak hash of every length-`block` window.

    The byte sum and the weighted sum sum((block - k) * x[j + k]), each
    modulo 2**32, as uint32 arrays: unsigned wrap-around keeps both exact
    at any payload length, and the key keeps only these low 32 bits.  The
    weighted sum is a difference of the cumulative byte sums' own
    cumulative sums, so no per-byte product is formed.
    """
    csum = np.zeros(len(data) + 1, dtype=np.uint32)
    np.cumsum(data, dtype=np.uint32, out=csum[1:])
    wsum = csum[block:] - csum[:-block]
    ccsum = np.cumsum(csum, dtype=np.uint32)
    s2 = ccsum[block:] - ccsum[:-block]
    s2 -= np.uint32(block) * csum[:-block]
    return wsum, s2


def _key(wsum: np.ndarray, s2: np.ndarray) -> np.ndarray:
    """One uint64 key per window: byte sum high, weighted sum low."""
    return (wsum.astype(np.uint64) << np.uint64(32)) | s2.astype(np.uint64)


def _block_keys(data: np.ndarray, block: int) -> np.ndarray:
    """Keys of the block-aligned windows only, one row per block.

    The weighted sum of a window does not depend on where it starts, so
    one product with the weights block..1 keys every row at once.
    Collisions are harmless: matches are verified byte-for-byte.
    """
    rows = data[:len(data) - len(data) % block].reshape(-1, block)
    weights = np.arange(block, 0, -1, dtype=np.uint32)
    return _key(rows.sum(axis=1, dtype=np.uint32), rows @ weights)


def _prefilter(block_keys: np.ndarray) -> np.ndarray:
    """Bitmap over the low key bits: True where some block key lands."""
    bitmap = np.zeros(1 << _PREFILTER_BITS, dtype=bool)
    bitmap[(block_keys & np.uint64(_PREFILTER_MASK)).astype(np.intp)] = True
    return bitmap


def _candidates(data: np.ndarray, block: int, block_keys: np.ndarray,
                bitmap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and key of every window of `data` whose key is a block key.

    The prefilter `bitmap` rejects almost every window before any 64-bit
    key is built; the survivors are then tested exactly.
    """
    wsum, s2 = _window_sums(data, block)
    starts = np.flatnonzero(bitmap[s2 & _PREFILTER_MASK])
    keys = _key(wsum[starts], s2[starts])
    hit = np.isin(keys, block_keys)
    return starts[hit], keys[hit]


def _match_length(old: bytes, new: bytes, off: int, cand: int,
                  verified: int) -> int:
    """Bytes that old[off:] and new[cand:] share, given the first `verified`.

    Compares in doubling strides, so a match costs time in its own length
    and only the stride that differs is scanned byte by byte.
    """
    limit = min(len(old) - off, len(new) - cand)
    length = stride = verified
    while length < limit:
        step = min(stride, limit - length)
        a, b = off + length, cand + length
        if old[a:a + step] != new[b:b + step]:
            differ = np.frombuffer(old, np.uint8, step, a) != \
                np.frombuffer(new, np.uint8, step, b)
            return length + int(differ.argmax())
        length += step
        stride += stride
    return limit


def diff_encode(old: bytes, new: bytes, block_size: int = DEFAULT_BLOCK) -> bytes:
    """Delta from `old` to `new` such that diff_apply(old, delta) == new."""
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
        ops = _encode_blocks(old, new, block_size)

    header = _HEADER.pack(MAGIC, WIRE_VERSION, hashlib.sha256(old).digest(),
                          block_size, len(ops))
    return header + b"".join(ops)


def _encode_blocks(old: bytes, new: bytes, block: int) -> list[bytes]:
    block_keys = _block_keys(np.frombuffer(old, dtype=np.uint8), block)
    bitmap = _prefilter(block_keys)
    table: dict[int, list[int]] = {}
    for start, key in enumerate(block_keys.tolist()):
        table.setdefault(key, []).append(start * block)

    data = np.frombuffer(new, dtype=np.uint8)
    windows = len(new) - block + 1
    ops: list[bytes] = []
    lit_start = 0
    pos = 0
    span = _FIRST_SPAN * block
    while pos < windows:
        # key only the windows starting in [pos, end)
        end = min(pos + span, windows)
        starts, keys = _candidates(data[pos:end + block - 1], block,
                                   block_keys, bitmap)
        starts += pos
        i = 0
        while i < len(starts):
            cand = int(starts[i])
            for off in table[int(keys[i])]:
                if old[off:off + block] == new[cand:cand + block]:
                    break
            else:
                i += 1
                continue
            # extend the verified match as far as both sides agree
            length = _match_length(old, new, off, cand, block)
            if cand > lit_start:
                chunk = new[lit_start:cand]
                ops.append(_INSERT_HEAD.pack(_OP_INSERT, len(chunk)) + chunk)
            ops.append(_COPY.pack(_OP_COPY, off, length))
            lit_start = cand + length
            # candidates inside the match are spent
            i = int(starts.searchsorted(lit_start))
        # lit_start <= pos on entry, so it passed pos only if a COPY landed
        if lit_start > pos:
            pos, span = max(end, lit_start), _FIRST_SPAN * block
        else:
            pos, span = end, span * 2
    if lit_start < len(new):
        chunk = new[lit_start:]
        ops.append(_INSERT_HEAD.pack(_OP_INSERT, len(chunk)) + chunk)
    return ops


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
    for _ in range(op_count):
        if at >= len(delta):
            raise SyncError("delta truncated: missing op")
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

    @property
    def digest(self) -> bytes:
        return hashlib.sha256(self.payload).digest()


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


def lazy_bytes(obj_set: TaskObjectSet, proxy_header: int) -> tuple[int, tuple[str, ...]]:
    """Bytes to transmit the set proxy-first: every object costs one proxy
    header, and only referred objects ship their payload."""
    if proxy_header <= 0:
        raise ValueError("proxy_header must be positive")
    total = proxy_header * len(obj_set.objects)
    transmitted: list[str] = []
    for record, referred in obj_set.objects:
        if referred:
            total += len(record.payload)
            transmitted.append(record.object_id)
    return total, tuple(transmitted)


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


@dataclass(frozen=True)
class TransferCost:
    up_bytes: int
    down_bytes: int
    up_extra_us: int    # demand-fetch round trips added to the upload leg
    backhaul_bytes: int  # background state sync between edge and cloud


class TransferAccountant:
    """Effective bytes for offloaded tasks under lazy + differential sync.

    Pure arithmetic mirror of the object pipeline: no payloads change
    hands, only the sizes the pipeline would transmit.  State is keyed by
    (user_id, app): the first offload pays the referred resource slice in
    full, later offloads pay deltas.  Baseline policies declare
    EagerTransfer instead and pay profiled bytes as-is.
    """

    def __init__(self, params: SyncParams | None = None):
        self.params = params or SyncParams()
        self._synced: set[tuple[str, str]] = set()

    def upload_us(self, task) -> int:
        """Edge upload leg if this task offloads now: the profiled leg scaled
        to the bytes that move, plus the demand-fetch round trip."""
        cost = self.preview(task)
        profile = task.profile
        base = profile.up_edge
        if profile.upload_bytes > 0:
            base = round(base * cost.up_bytes / profile.upload_bytes)
        return base + cost.up_extra_us

    def preview(self, task) -> TransferCost:
        """Cost if this task offloads now; no state change."""
        return self._cost(task, commit=False)

    def commit(self, task) -> TransferCost:
        """Cost of actually offloading this task; caches the app state."""
        return self._cost(task, commit=True)

    def _cost(self, task, commit: bool) -> TransferCost:
        p = self.params
        profile = task.profile
        args = int(profile.upload_bytes * p.args_share)
        resource = profile.upload_bytes - args
        referred = int(resource * p.referred_share)
        proxies = p.objects_per_task * p.proxy_header

        key = (task.user_id, task.app)
        if referred == 0:
            state_cost = 0
        elif key in self._synced:
            state_cost = int(referred * p.change_fraction) + DELTA_HEADER_BUDGET
        else:
            state_cost = referred
        extra = p.rtt_us if state_cost > 0 else 0
        if commit:
            self._synced.add(key)
        return TransferCost(
            up_bytes=args + proxies + state_cost,
            down_bytes=profile.download_bytes,
            up_extra_us=extra,
            backhaul_bytes=state_cost,
        )


class EagerTransfer:
    """Baseline transfer model: every offload ships its profiled bytes."""

    def __init__(self, params: SyncParams | None = None):
        """Profiled bytes need no knobs; `params` keeps one signature."""

    def upload_us(self, task) -> int:
        return task.profile.up_edge

    def commit(self, task) -> TransferCost:
        p = task.profile
        return TransferCost(p.upload_bytes, p.download_bytes, 0, 0)
