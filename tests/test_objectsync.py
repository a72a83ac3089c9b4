"""Delta codec wire format, lazy shipping, transfer accounting."""

import hashlib
import random
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echo_sched import _blockmatch
from echo_sched.model import CostProfile, Task
from echo_sched.objectsync import (
    DEFAULT_BLOCK,
    DELTA_HEADER_BUDGET,
    DigestMismatch,
    ObjectRecord,
    SyncError,
    SyncParams,
    TaskObjectSet,
    TransferAccountant,
    diff_apply,
    diff_encode,
    eager_bytes,
    lazy_bytes,
)

# wire format, restated independently of the codec:
# header: magic "ODLT", u16 version, 32B sha256(old), u32 block, u32 opcount
# COPY op: u8 0, u64 old offset, u32 length
# INSERT op: u8 1, u32 length, raw bytes
HEADER = struct.Struct("<4sH32sII")
COPY = struct.Struct("<BQI")
INSERT_HEAD = struct.Struct("<BI")


def parse_ops(delta: bytes):
    magic, version, digest, block, opcount = HEADER.unpack_from(delta, 0)
    assert magic == b"ODLT" and version == 1
    ops = []
    pos = HEADER.size
    for _ in range(opcount):
        if delta[pos] == 0:
            _, off, length = COPY.unpack_from(delta, pos)
            ops.append(("copy", off, length))
            pos += COPY.size
        else:
            _, length = INSERT_HEAD.unpack_from(delta, pos)
            pos += INSERT_HEAD.size
            ops.append(("insert", delta[pos:pos + length]))
            pos += length
    assert pos == len(delta)
    return digest, block, ops


def insert_payload(delta: bytes) -> int:
    _, _, ops = parse_ops(delta)
    return sum(len(op[1]) for op in ops if op[0] == "insert")


def test_identical_payload_costs_one_copy_op():
    old = bytes(range(256)) * 40
    delta = diff_encode(old, old)
    assert len(delta) == HEADER.size + COPY.size == 59
    digest, _, ops = parse_ops(delta)
    assert digest == hashlib.sha256(old).digest()
    assert ops == [("copy", 0, len(old))]
    assert diff_apply(old, delta) == old


def test_empty_to_empty_is_header_only():
    delta = diff_encode(b"", b"")
    assert len(delta) == HEADER.size == 46
    assert diff_apply(b"", delta) == b""


def test_from_empty_ships_full_payload():
    new = b"x" * 10240
    delta = diff_encode(b"", new)
    assert len(delta) == HEADER.size + INSERT_HEAD.size + len(new) == 10291
    assert diff_apply(b"", delta) == new


def test_block_size_must_fit_its_wire_field():
    # the header stores block_size as u32; a larger one once escaped as
    # struct.error from the header pack.  diff_apply rejects blocks below
    # 64 as corrupt, so the encoder refuses to write them.
    for bad in (63, 2**32):
        with pytest.raises(ValueError, match="block_size"):
            diff_encode(b"a" * 10, b"b" * 10, bad)
    delta = diff_encode(b"a" * 10, b"b" * 10, 2**32 - 1)
    assert HEADER.unpack_from(delta, 0)[3] == 2**32 - 1
    assert diff_apply(b"a" * 10, delta) == b"b" * 10


@pytest.mark.parametrize("block_size", [1024.0, None, "1024"])
@pytest.mark.parametrize("old,new", [
    (b"a" * 4096, b"a" * 4096),  # identical: one COPY
    (b"a" * 10, b"b" * 10),  # shorter than a block: one INSERT
    (b"a" * 4096, b"b" * 4096),  # block matching
], ids=["identical", "short", "blocks"])
def test_block_size_must_be_an_integer(old, new, block_size):
    # these once escaped as TypeError or struct.error, depending on the path
    with pytest.raises(ValueError, match="block_size"):
        diff_encode(old, new, block_size)


def test_small_change_below_block_size():
    delta = diff_encode(b"AAAABBBB", b"AAAACCCC")
    assert diff_apply(b"AAAABBBB", delta) == b"AAAACCCC"
    # below one block the codec ships a literal: 46 + 5 + 8
    assert len(delta) == 59


def test_aligned_change_costs_about_the_changed_block():
    old = bytes(range(256)) * 40  # 10240 bytes
    new = bytearray(old)
    new[2048:3072] = b"\xff" * 1024
    new = bytes(new)
    delta = diff_encode(old, new)
    # COPY 2048, INSERT 1024, COPY 7168: 46 + 13 + (5 + 1024) + 13
    assert len(delta) == 1101
    assert insert_payload(delta) == 1024
    assert diff_apply(old, delta) == new


def test_shifted_content_is_still_found():
    old = (bytes(range(256)) * 300)[:65536]
    new = b"\x00" * 100 + old[:65536 - 100]
    delta = diff_encode(old, new)
    assert diff_apply(old, delta) == new
    assert len(delta) < len(new) // 64  # realignment, not a resend


def test_round_trip_and_size_bound_fuzz():
    rng = random.Random(99)
    for case in range(150):
        n = int(2 ** rng.uniform(0, 16))
        old = rng.randbytes(n)
        kind = case % 5
        if kind == 0:
            new = old
        elif kind == 1:
            new = rng.randbytes(int(2 ** rng.uniform(0, 16)))
        elif kind == 2:
            cut = rng.randrange(0, n + 1)
            new = old[:cut] + rng.randbytes(rng.randrange(0, 2048)) + old[cut:]
        elif kind == 3:
            new = old[rng.randrange(0, n + 1):]
        else:
            new = rng.randbytes(rng.randrange(0, 128)) + old
        delta = diff_encode(old, new)
        assert diff_apply(old, delta) == new, f"case {case}"
        assert len(delta) <= len(new) + DELTA_HEADER_BUDGET, f"case {case}"
        if new == old and n:
            assert insert_payload(delta) == 0


def test_apply_rejects_wrong_base():
    old = b"a" * 4096
    delta = diff_encode(old, b"b" * 4096)
    with pytest.raises(DigestMismatch):
        diff_apply(b"c" * 4096, delta)


def test_apply_rejects_corrupt_frames():
    old = b"a" * 4096
    delta = diff_encode(old, old)
    digest = hashlib.sha256(old).digest()

    def frame(*ops, version=1, block=DEFAULT_BLOCK, count=None):
        count = len(ops) if count is None else count
        return HEADER.pack(b"ODLT", version, digest, block, count) + b"".join(ops)

    copy = COPY.pack(0, 0, 10)
    for bad, reason in (
        (delta[:20], "missing header"),
        (delta + b"junk", "trailing bytes"),
        (b"NOPE" + delta[4:], "magic"),
        (frame(COPY.pack(0, 4000, 500)), "out of base payload bounds"),
        (frame(copy, version=2), "version 2"),
        (frame(copy, block=63), "block size 63"),
        (frame(bytes([7])), "op tag 7"),
        (frame(INSERT_HEAD.pack(1, 10) + b"abc"), "insert payload"),
        (frame(copy, count=2), "truncated: op at byte 59"),
    ):
        with pytest.raises(SyncError, match=reason):
            diff_apply(old, bad)


def test_every_truncation_of_a_real_delta_raises_sync_error():
    # a cut inside an op's fixed-size head once escaped as struct.error
    rng = random.Random(16)
    old = rng.randbytes(8192)
    new = old[:2000] + rng.randbytes(500) + old[2000:6000] + old[7000:]
    delta = diff_encode(old, new)
    kinds = {op[0] for op in parse_ops(delta)[2]}
    assert kinds == {"copy", "insert"}
    assert diff_apply(old, delta) == new
    for cut in range(len(delta)):
        with pytest.raises(SyncError):
            diff_apply(old, delta[:cut])


# ------------------------------------------------------------ encoder kernel


def window_keys_int64(data: np.ndarray, block: int) -> np.ndarray:
    """Reference weak hash of every window, from int64 prefix sums.

    The key is the window byte sum in the high 32 bits and the low 32 bits
    of the weighted sum sum((block - k) * x[j + k]) in the low 32 bits.
    """
    x = data.astype(np.int64)
    csum = np.concatenate((np.zeros(1, dtype=np.int64), np.cumsum(x)))
    wsum = csum[block:] - csum[:-block]
    weighted = np.concatenate(
        (np.zeros(1, dtype=np.int64),
         np.cumsum(np.arange(len(x), dtype=np.int64) * x)))
    wpos = weighted[block:] - weighted[:-block]
    j = np.arange(len(wsum), dtype=np.int64)
    s2 = (block + j) * wsum - wpos
    return (wsum.astype(np.uint64) << np.uint64(32)) ^ \
        (s2.astype(np.uint64) & np.uint64(0xFFFFFFFF))


def as_array(payload: bytes) -> np.ndarray:
    return np.frombuffer(payload, dtype=np.uint8)


def polynomial_keys_reference(payload: bytes, block: int) -> np.ndarray:
    """The encoder's key of every window, sum(x[j + k] * BASE**k) mod 2**32,
    from Python ints and no inverse: rolling back from the last window,
    key(j) = x[j] + BASE * (key(j + 1) - x[j + block] * BASE**(block - 1))."""
    base, mod = _blockmatch._BASE, 1 << 32
    top = pow(base, block - 1, mod)
    windows = len(payload) - block + 1
    keys = [0] * windows
    key = sum(payload[windows - 1 + k] * pow(base, k, mod)
              for k in range(block)) % mod
    keys[-1] = key
    for j in range(windows - 2, -1, -1):
        key = (payload[j] + base * (key - payload[j + block] * top)) % mod
        keys[j] = key
    return np.array(keys, dtype=np.uint32)


@pytest.mark.parametrize("block", [64, 1024])
@pytest.mark.parametrize("fill", ["0xff", "random"])
def test_uint32_polynomial_keys_equal_the_python_int_reference(fill, block):
    # past 2**20 bytes the uint32 prefix sum behind the key wraps 2**32
    # many times over; the key must not notice
    n = (1 << 20) + 4099
    payload = (b"\xff" * n if fill == "0xff"
               else random.Random(block).randbytes(n))
    data = as_array(payload)
    powers, inverses = _blockmatch._tables(n)
    keys = _blockmatch._window_keys(data, block, powers, inverses)
    assert keys.dtype == np.uint32
    ref = polynomial_keys_reference(payload, block)
    assert np.array_equal(keys, ref)
    block_keys = _blockmatch._block_keys(data, block, powers)
    assert block_keys.dtype == np.uint32
    assert np.array_equal(block_keys, ref[::block][:n // block])


def test_prefiltered_candidates_equal_isin_over_every_window():
    rng = random.Random(7)
    old = rng.randbytes(1 << 16)
    two = rng.randbytes(1 << 16).translate(b"ab" * 128)
    pairs = [
        (old, old[:3000] + rng.randbytes(5000) + old[3000:]),
        (old, rng.randbytes(1 << 16)),
        (two, two[777:] + two[:777]),  # two symbols: keys collide often
        (bytes(5000), bytes(7001)),
    ]
    for block in (64, 100, 1024):
        for o, n in pairs:
            powers, inverses = _blockmatch._tables(len(n))
            block_keys = _blockmatch._block_keys(as_array(o), block, powers)
            starts, keys = _blockmatch._candidates(
                as_array(n), block, powers, inverses, np.sort(block_keys),
                _blockmatch._prefilter(block_keys))
            ref = polynomial_keys_reference(n, block)
            expect = np.flatnonzero(np.isin(ref, block_keys))
            assert np.array_equal(starts, expect)
            assert np.array_equal(keys, ref[expect])


def reference_encode(old: bytes, new: bytes, block: int) -> bytes:
    """The greedy scan over every window of `new`, keyed up front.

    The specification the encoder's lazy, span-by-span keying must meet
    byte for byte: every window keyed by the int64 reference, candidates
    tried left to right, each verified against its blocks in offset order
    and extended to the first differing byte.
    """
    if old == new:
        ops = [COPY.pack(0, 0, len(new))] if new else []
    elif len(old) < block or len(new) < block:
        ops = [INSERT_HEAD.pack(1, len(new)) + new]
    else:
        block_keys = window_keys_int64(as_array(old), block)[::block]
        block_keys = block_keys[:len(old) // block]
        table: dict[int, list[int]] = {}
        for j, key in enumerate(block_keys.tolist()):
            table.setdefault(key, []).append(j * block)
        keys = window_keys_int64(as_array(new), block)
        starts = np.flatnonzero(np.isin(keys, block_keys))
        ops, lit_start, i = [], 0, 0
        while i < len(starts):
            cand = int(starts[i])
            off = next((off for off in table[int(keys[cand])]
                        if old[off:off + block] == new[cand:cand + block]),
                       None)
            if off is None:
                i += 1
                continue
            limit = min(len(old) - off, len(new) - cand)
            differ = np.flatnonzero(as_array(old)[off:off + limit]
                                    != as_array(new)[cand:cand + limit])
            length = int(differ[0]) if len(differ) else limit
            if cand > lit_start:
                ops.append(INSERT_HEAD.pack(1, cand - lit_start)
                           + new[lit_start:cand])
            ops.append(COPY.pack(0, off, length))
            lit_start = cand + length
            i = int(np.searchsorted(starts, lit_start))
        if lit_start < len(new):
            ops.append(INSERT_HEAD.pack(1, len(new) - lit_start)
                       + new[lit_start:])
    return HEADER.pack(b"ODLT", 1, hashlib.sha256(old).digest(), block,
                       len(ops)) + b"".join(ops)


def span_edges(block: int, size: int) -> list[int]:
    """Offsets up to `size` on and next to where key spans end, counted
    from where a run of spans starts: every multiple of the first span
    (the cap's multiples among them), and the ends of spans doubling
    from the first up to the cap, then growing by the cap."""
    first = _blockmatch._FIRST_SPAN * block
    cap = _blockmatch._SPAN_CAP * block
    edges = {k * first for k in range(1, size // first + 1)}
    at, span = first, first
    while at <= size:
        edges.add(at)
        span = min(2 * span, cap)
        at += span
    return sorted(at + d for at in edges for d in (-1, 0, 1)
                  if 0 <= at + d <= size)


@st.composite
def codec_pairs(draw):
    block = draw(st.sampled_from([64, 100, 1024]))
    first = _blockmatch._FIRST_SPAN * block
    cap = _blockmatch._SPAN_CAP * block
    fill = draw(st.sampled_from(["random", "zero", "two"]))
    size = draw(st.integers(1, 4)) * cap \
        + draw(st.integers(-block + 1, block - 1))
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))

    def payload(n: int) -> bytes:
        if fill == "zero":
            return bytes(n)
        raw = rng.randbytes(n)
        return raw.translate(b"ab" * 128) if fill == "two" else raw

    old = payload(size)
    new = old
    for _ in range(draw(st.integers(1, 2))):
        at = draw(st.sampled_from([0, len(new)] + span_edges(block, len(new))))
        # fresh bytes whose length ends on or next to the end of the first
        # span, of a doubled one, of the first capped one or of the next,
        # put the realigned match there
        reach = draw(st.sampled_from(
            [first, 3 * first, 7 * first, 7 * first + cap])) \
            + draw(st.integers(-1, 1))
        fresh = payload(reach) if draw(st.booleans()) \
            else rng.randbytes(reach)
        cut = draw(st.integers(1, 3 * block))
        kind = draw(st.sampled_from(
            ["prepend", "insert", "delete", "overwrite", "head", "tail"]))
        if kind == "prepend":
            new = fresh + new
        elif kind == "insert":
            new = new[:at] + fresh + new[at:]
        elif kind == "delete":
            new = new[:at] + new[at + cut:]
        elif kind == "overwrite":
            new = new[:at] + fresh[:cut] + new[at + cut:]
        elif kind == "head":
            new = new[at:]
        else:
            new = new[:at]
    return old, new, block


@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(pair=codec_pairs())
def test_lazy_keying_equals_the_greedy_scan_over_every_window(pair):
    old, new, block = pair
    assert diff_encode(old, new, block) == reference_encode(old, new, block)


def count_keyed_windows(monkeypatch) -> list[int]:
    keyed = [0]
    window_keys = _blockmatch._window_keys

    def counting(data, block, powers, inverses):
        keys = window_keys(data, block, powers, inverses)
        keyed[0] += len(keys)
        return keys

    monkeypatch.setattr(_blockmatch, "_window_keys", counting)
    return keyed


def test_windows_inside_matches_are_not_keyed(monkeypatch):
    keyed = count_keyed_windows(monkeypatch)
    rng = random.Random(5)
    half = 1 << 19
    new = bytes(half) + rng.randbytes(3000) + bytes(half)
    delta = diff_encode(bytes(2 * half), new)
    assert diff_apply(bytes(2 * half), delta) == new
    windows = len(new) - DEFAULT_BLOCK + 1
    assert keyed[0] <= windows // 4


@pytest.mark.parametrize("prepended", [5000, 100_000, 300_000])
def test_prepend_keys_at_most_twice_its_length(monkeypatch, prepended):
    keyed = count_keyed_windows(monkeypatch)
    rng = random.Random(prepended)
    old = rng.randbytes(1 << 20)
    new = rng.randbytes(prepended) + old
    delta = diff_encode(old, new)
    assert diff_apply(old, delta) == new
    # the span the realigned match starts in ends at most a capped span
    # past it
    assert keyed[0] <= prepended + (_blockmatch._SPAN_CAP + 1) * DEFAULT_BLOCK


def test_unrelated_payload_keys_each_window_once(monkeypatch):
    keyed = count_keyed_windows(monkeypatch)
    rng = random.Random(8)
    old, new = rng.randbytes(1 << 20), rng.randbytes((1 << 20) + 777)
    delta = diff_encode(old, new)
    assert diff_apply(old, delta) == new
    # nothing matches, so every window is keyed, and none twice
    assert keyed[0] == len(new) - DEFAULT_BLOCK + 1


def test_match_length_on_and_around_stride_boundaries():
    # block 64 verified, then strides of 64, 128, 256, ...: a match ends on
    # a stride boundary at 128, 256, 512, 1024, ...
    old = random.Random(12).randbytes(4096)
    for end in (64, 65, 127, 128, 129, 255, 256, 257, 1023, 1024, 1025,
                2048, 4095):
        new = old[:end] + bytes([old[end] ^ 0xFF]) + old[end + 1:]
        assert _blockmatch._match_length(old, new, 0, 0, 64) == end
    assert _blockmatch._match_length(old, old, 0, 0, 64) == 4096
    assert _blockmatch._match_length(old, old[:3000], 0, 0, 64) == 3000
    assert _blockmatch._match_length(old, b"xy" + old, 64, 66, 64) == 4032


def flip(payload: bytes, at: int) -> bytes:
    return payload[:at] + bytes([payload[at] ^ 0xFF]) + payload[at + 1:]


OLD_1K = random.Random(11).randbytes(1024)
OLD_1000 = OLD_1K[:1000]
TAIL = bytes(range(100))


@pytest.mark.parametrize("old,new,expected", [
    # first match ends on the 256-byte stride boundary
    (OLD_1K, flip(OLD_1K, 256),
     [("copy", 0, 256), ("insert", 256, 320), ("copy", 320, 704)]),
    (OLD_1K, flip(OLD_1K, 255),
     [("copy", 0, 255), ("insert", 255, 256), ("copy", 256, 768)]),
    (OLD_1K, flip(OLD_1K, 257),
     [("copy", 0, 257), ("insert", 257, 320), ("copy", 320, 704)]),
    (OLD_1K, flip(OLD_1K, 512),
     [("copy", 0, 512), ("insert", 512, 576), ("copy", 576, 448)]),
    # runs to the end of the old payload, on a boundary and off one
    (OLD_1K, OLD_1K + TAIL, [("copy", 0, 1024), ("insert", 1024, 1124)]),
    (OLD_1000, OLD_1000 + TAIL, [("copy", 0, 1000), ("insert", 1000, 1100)]),
    # runs to the end of the new payload, and of both
    (OLD_1K, OLD_1K[:700], [("copy", 0, 700)]),
    (OLD_1K, OLD_1K[64:], [("copy", 64, 960)]),
], ids=["flip-256", "flip-255", "flip-257", "flip-512", "old-ends-1024",
        "old-ends-1000", "new-ends", "both-end"])
def test_frozen_match_ends(old, new, expected):
    delta = diff_encode(old, new, 64)
    _, block, ops = parse_ops(delta)
    assert block == 64
    want = [op if op[0] == "copy" else ("insert", new[op[1]:op[2]])
            for op in expected]
    assert ops == want
    assert diff_apply(old, delta) == new


# ------------------------------------------------------------ object sets


def rec(object_id: str, size: int, version: int = 1) -> ObjectRecord:
    return ObjectRecord(object_id, version, bytes(size))


def test_lazy_bytes_ships_proxies_plus_referred():
    obj_set = TaskObjectSet(objects=(
        (rec("a", 102400), True),
        (rec("b", 204800), False),
    ))
    total, shipped = lazy_bytes(obj_set, proxy_header=64)
    assert total == 64 * 2 + 102400
    assert shipped == ("a",)
    assert eager_bytes(obj_set) == 307200


def test_lazy_bytes_beats_eager_when_anything_is_unused():
    rng = random.Random(3)
    for _ in range(50):
        objects = tuple(
            (rec(f"o{i}", rng.randrange(256, 50000)), i == 0 or rng.random() < 0.3)
            for i in range(rng.randrange(1, 8)))
        obj_set = TaskObjectSet(objects=objects)
        total, _ = lazy_bytes(obj_set, 64)
        assert total <= eager_bytes(obj_set) + 64 * len(objects)


def test_object_set_validation():
    with pytest.raises(ValueError, match="referred"):
        TaskObjectSet(objects=((rec("a", 10), False),))
    with pytest.raises(ValueError, match="duplicate"):
        TaskObjectSet(objects=((rec("a", 10), True), (rec("a", 9), True)))
    with pytest.raises(ValueError, match="version"):
        ObjectRecord("a", 0, b"")
    with pytest.raises(ValueError, match="proxy_header"):
        lazy_bytes(TaskObjectSet(objects=((rec("a", 10), True),)), 0)


# ------------------------------------------------------------ accountant


def make_task(upload: int, download: int, user_id="u01", app="ocr") -> Task:
    profile = CostProfile(r_mobile=0, r_edge=1, r_cloud=1, up_edge=0,
                          down_edge=0, up_cloud=0, down_cloud=0,
                          upload_bytes=upload, download_bytes=download)
    return Task(id=f"t-{user_id}-{app}-{upload}", user_id=user_id, app=app,
                arrival=0, profile=profile)


def test_first_offload_pays_referred_state_in_full():
    acct = TransferAccountant()
    cost = acct.preview(make_task(100_000, 5_000))
    # args 50000 + proxies 4*64 + referred state 25000
    assert cost.up_bytes == 50_000 + 256 + 25_000
    assert cost.down_bytes == 5_000
    assert cost.backhaul_bytes == 25_000
    assert cost.up_us == 0


def test_repeat_offload_pays_delta_priced_state():
    acct = TransferAccountant()
    acct.commit(make_task(100_000, 5_000))
    cost = acct.preview(make_task(100_000, 5_000))
    delta_state = int(25_000 * 0.25) + DELTA_HEADER_BUDGET
    assert cost.up_bytes == 50_000 + 256 + delta_state
    assert cost.backhaul_bytes == delta_state
    # a different user's app state is cold and pays in full again
    other = acct.preview(make_task(100_000, 5_000, user_id="u02"))
    assert other.up_bytes == 50_000 + 256 + 25_000


def test_preview_never_warms_the_cache():
    acct = TransferAccountant()
    first = acct.preview(make_task(100_000, 0))
    second = acct.preview(make_task(100_000, 0))
    assert first == second
    assert acct.commit(make_task(100_000, 0)) is None
    assert acct.preview(make_task(100_000, 0)).up_bytes < first.up_bytes


def test_demand_fetch_round_trip_applies_when_state_moves():
    acct = TransferAccountant(SyncParams(rtt_us=30_000))
    cost = acct.preview(make_task(100_000, 0))
    assert cost.up_us == 30_000
    bare = acct.preview(make_task(0, 0))
    assert bare.up_bytes == 256  # proxies only
    assert bare.up_us == 0
    assert bare.backhaul_bytes == 0


def described_set(acct, task, cost) -> TaskObjectSet:
    """The object set an accountant's price describes: the call arguments
    and the charged state are referred, the other objects are not."""
    p = acct.params
    args = int(task.profile.upload_bytes * p.args_share)
    state = cost.backhaul_bytes
    if p.objects_per_task == 1:
        return TaskObjectSet(objects=((rec("args+state", args + state), True),))
    return TaskObjectSet(objects=(
        (rec("args", args), True), (rec("state", state), True),
        *((rec(f"idle{i}", 1000), False)
          for i in range(p.objects_per_task - 2))))


@pytest.mark.parametrize("objects_per_task", [1, 4])
@pytest.mark.parametrize("upload", [0, 10, 100_000, 1_234_567])
def test_accountant_and_lazy_bytes_share_one_proxy_rule(objects_per_task,
                                                        upload):
    params = SyncParams(objects_per_task=objects_per_task, proxy_header=48)
    acct = TransferAccountant(params)
    task = make_task(upload, 0)
    for offload in ("first", "repeat"):
        cost = acct.preview(task)
        total, _ = lazy_bytes(described_set(acct, task, cost),
                              params.proxy_header)
        assert cost.up_bytes == total, offload
        acct.commit(task)


def test_sync_params_validation():
    for bad, reason in (({"args_share": 1.5}, "args_share"),
                        ({"proxy_header": 0}, "proxy header"),
                        ({"change_fraction": -0.1}, "change_fraction"),
                        ({"rtt_us": -1}, "rtt_us")):
        with pytest.raises(ValueError, match=reason):
            SyncParams(**bad)
