"""Block matcher of the delta codec: the package's only numpy user.

objectsync.diff_encode imports this module only when a pair reaches
block matching, so the simulator and the CLI never load numpy.

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
window before a 64-bit key is built; the survivors are looked up in the
block keys, sorted once per encode.  Scanning left to right, the first
window that verifies byte-for-byte against a block becomes a COPY,
extended by comparing doubling strides, and the bytes between COPYs
become INSERTs.

The spans, prefilter and stride compare set only speed and memory.  A
window's key depends only on its own bytes, so keying a slice gives the
key that keying the whole payload would, and candidates are still tried
in increasing start order: which windows match, in which order, and so
every delta byte, stay fixed (tests/test_golden.py pins a digest of the
deltas).
"""

from __future__ import annotations

import numpy as np

from .objectsync import _COPY, _INSERT_HEAD, _OP_COPY, _OP_INSERT

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


def _candidates(data: np.ndarray, block: int, sorted_keys: np.ndarray,
                bitmap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and key of every window of `data` whose key is a block key.

    The prefilter `bitmap` rejects almost every window before any 64-bit
    key is built; the survivors are then looked up in `sorted_keys`, the
    block keys (at least one) in ascending order.
    """
    wsum, s2 = _window_sums(data, block)
    starts = np.flatnonzero(bitmap[s2 & _PREFILTER_MASK])
    keys = _key(wsum[starts], s2[starts])
    at = sorted_keys.searchsorted(keys).clip(max=len(sorted_keys) - 1)
    hit = sorted_keys[at] == keys
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


def _encode_blocks(old: bytes, new: bytes, block: int) -> list[bytes]:
    """COPY and INSERT ops taking `old` to `new`; both hold a full block."""
    block_keys = _block_keys(np.frombuffer(old, dtype=np.uint8), block)
    sorted_keys = np.sort(block_keys)
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
                                   sorted_keys, bitmap)
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
