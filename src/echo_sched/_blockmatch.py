"""Block matcher of the delta codec: the package's only numpy user.

copy_runs finds the runs of the new payload that objectsync.diff_encode
copies from the old one; diff_encode packs every op of the wire format,
and imports this module only when a pair reaches block matching, so the
simulator and the CLI never load numpy.

The encoder keys each window by the polynomial sum(x[j + k] * BASE**k)
modulo 2**32 (Karp and Rabin's rolling key).  BASE is odd, so it has an
inverse modulo 2**32, and one prefix sum h of x[i] * BASE**i keys every
window of a slice: the key at j is (h[j + block] - h[j]) * BASE**-j.
rsync's two-sum weak key needs two sequential prefix sums.  The old
payload's block-aligned windows are keyed by one product of its reshaped
rows with the powers.  The new payload is keyed lazily, one span of
window starts at a time, in exact uint32 wrap-around arithmetic.  A span
covers 8 blocks' worth of starts; one that yields no COPY doubles the
next, up to 32 blocks.  After a COPY the next span is 8 blocks again and
starts at the later of its end and the COPY's, so windows inside a COPY
that outruns its span are never keyed.  An np.take of a bitmap on the
low 20 bits of the block keys discards almost every window; survivors
are looked up in the block keys, sorted once per encode.  Scanning left
to right, the first window that verifies byte-for-byte against a block
starts a run, extended by comparing doubling strides.

The key, spans, prefilter and stride compare set only speed and memory.
A window's key depends only on its own bytes, so keying a slice gives the
key that keying the whole payload would, and candidates are still tried
in increasing start order, each against the equal block of lowest
offset: every delta byte stays fixed (tests/test_golden.py pins digests
of the deltas).  A window whose key equals a block key without equal
bytes costs one byte compare, never a wrong byte.  About windows *
distinct block keys / 2**32 of them are expected: at 1 KiB blocks about
0.25 per 1 MiB encode, 64 at 16 MiB and 65K at 512 MiB.
"""

from __future__ import annotations

import numpy as np

from .objectsync import DEFAULT_BLOCK

_PREFILTER_BITS = 20
_PREFILTER_MASK = np.uint32((1 << _PREFILTER_BITS) - 1)
# Blocks' worth of window starts in the first span and in each span after
# a COPY, and the most a span grows to while none matches: a short span
# keys few windows past a COPY that ends early, the cap bounds its arrays.
_FIRST_SPAN = 8
_SPAN_CAP = 32
_BASE = 0x9E3779B1
_INVERSE = pow(_BASE, -1, 1 << 32)


def _powers(base: int, n: int) -> np.ndarray:
    """base**i modulo 2**32 for i < n, as uint32, by doubling the run."""
    out = np.ones(n, dtype=np.uint32)
    k = 1
    while k < n:
        out[k:2 * k] = out[:min(k, n - k)] * np.uint32(pow(base, k, 1 << 32))
        k *= 2
    return out


# enough for every span of an encode at DEFAULT_BLOCK or smaller blocks
_POWERS = _powers(_BASE, (_SPAN_CAP + 1) * DEFAULT_BLOCK)
_INVERSES = _powers(_INVERSE, (_SPAN_CAP + 1) * DEFAULT_BLOCK)


def _tables(n: int) -> tuple[np.ndarray, np.ndarray]:
    """At least `n` powers of the base and of its inverse."""
    if n <= len(_POWERS):
        return _POWERS, _INVERSES
    return _powers(_BASE, n), _powers(_INVERSE, n)


def _window_keys(data: np.ndarray, block: int, powers: np.ndarray,
                 inverses: np.ndarray) -> np.ndarray:
    """The uint32 key of every length-`block` window of `data`; the tables
    hold at least len(data) powers of the base and of its inverse."""
    h = np.empty(len(data) + 1, dtype=np.uint32)
    h[0] = 0
    np.multiply(data, powers[:len(data)], out=h[1:])
    np.cumsum(h[1:], dtype=np.uint32, out=h[1:])
    keys = h[block:] - h[:-block]
    keys *= inverses[:len(keys)]
    return keys


def _block_keys(data: np.ndarray, block: int, powers: np.ndarray) -> np.ndarray:
    """Keys of the block-aligned windows only, one row per block.

    Collisions are harmless: matches are verified byte-for-byte.
    """
    rows = data[:len(data) - len(data) % block].reshape(-1, block)
    return rows @ powers[:block]


def _prefilter(block_keys: np.ndarray) -> np.ndarray:
    """Bitmap over the low key bits: True where some block key lands."""
    bitmap = np.zeros(1 << _PREFILTER_BITS, dtype=bool)
    bitmap[block_keys & _PREFILTER_MASK] = True
    return bitmap


def _candidates(data: np.ndarray, block: int, powers: np.ndarray,
                inverses: np.ndarray, sorted_keys: np.ndarray,
                bitmap: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Start and key of every window of `data` whose key is a block key.

    The prefilter `bitmap` rejects almost every window; the survivors are
    then looked up in `sorted_keys`, the block keys (at least one) in
    ascending order.
    """
    keys = _window_keys(data, block, powers, inverses)
    starts = np.flatnonzero(np.take(bitmap, keys & _PREFILTER_MASK))
    keys = keys[starts]
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


def copy_runs(old: bytes, new: bytes, block: int) -> list[tuple[int, int, int]]:
    """(start in new, offset in old, length) of each run that diff_encode
    copies, in increasing start order; both payloads hold a full block."""
    # a span's slice holds at most (_SPAN_CAP + 1) * block - 1 bytes
    powers, inverses = _tables(min(len(new), (_SPAN_CAP + 1) * block))
    block_keys = _block_keys(np.frombuffer(old, dtype=np.uint8), block, powers)
    sorted_keys = np.sort(block_keys)
    bitmap = _prefilter(block_keys)
    table: dict[int, list[int]] = {}
    for start, key in enumerate(block_keys.tolist()):
        table.setdefault(key, []).append(start * block)

    data = np.frombuffer(new, dtype=np.uint8)
    windows = len(new) - block + 1
    runs: list[tuple[int, int, int]] = []
    copied_to = 0  # end of the last run
    pos = 0
    span = _FIRST_SPAN * block
    while pos < windows:
        # key only the windows starting in [pos, end)
        end = min(pos + span, windows)
        starts, keys = _candidates(data[pos:end + block - 1], block, powers,
                                   inverses, sorted_keys, bitmap)
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
            runs.append((cand, off, length))
            copied_to = cand + length
            # candidates inside the run are spent
            i = int(starts.searchsorted(copied_to))
        # copied_to <= pos on entry, so it passed pos only if a run landed
        if copied_to > pos:
            pos, span = max(end, copied_to), _FIRST_SPAN * block
        else:
            pos, span = end, min(2 * span, _SPAN_CAP * block)
    return runs
