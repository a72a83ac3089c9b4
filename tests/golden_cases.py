"""The golden digest tables, and the code that recomputes each digest.

tests/test_golden.py asserts every case under pytest.  Run as a script,
`python tests/test_golden.py` checks them without pytest: every trace and
report case, and the codec case when numpy can be imported.
"""

import hashlib
import random
import sys
import tempfile
from pathlib import Path

from echo_sched.objectsync import SyncParams, diff_apply, diff_encode
from echo_sched.sim import SimConfig, run
from echo_sched.traceio import MixSpec, generate, save

TRACE_N, TRACE_LAM, TRACE_SEED = 400, 8.0, 3

# save(generate(TRACE_N, TRACE_LAM, mix, seed)): both the generator's
# draws and the line writer's bytes.
TRACE_GOLDEN = {
    ("mix-1", 3):
        "1520c4f915fc5afb8d6e07b4e3d479f03da3a210bb53eca60434798384431382",
    ("mix-1", 1001):
        "8750f6fd515451728e2fdd95359a31964bdda5e71edfefbc6651ddf3dab39457",
    ("mix-2", 3):
        "c07fa33806724b5d0926ea744632e468c01128eec36245fec2d492453ddc1cd8",
    ("mix-2", 1001):
        "2a76cab80597ae4efb313eb1fd99e902c207070f343d29823db8da74960458f6",
    ("mix-3", 3):
        "3285d8332357c0a90fabd72a9ad058dda0ce8586a481030f41290d557dcd59a4",
    ("mix-3", 1001):
        "0d2cd03fee55f40ea90dab01f9f52d7968fb0504f1f0d3702eaf0fa4684d6142",
}



def trace_digest(mix: str, seed: int, tmp_path: Path) -> str:
    path = tmp_path / "trace.jsonl"
    save(generate(TRACE_N, TRACE_LAM, MixSpec.preset(mix), seed), path)
    return hashlib.sha256(path.read_bytes()).hexdigest()


GOLDEN = {
    ("end-only", 0):
        "bc3b48858c95a92e64e61cb7e93da2cc06e3743fd380911118047ade9411c1ca",
    ("end-only", 4):
        "041570ad878ba1e2a0f2af55b2e4bd2f013ddeee6c3fe409efcf028337412e4e",
    ("cloud-always", 0):
        "871d0dd2eade8a29039a1c0d32d3d78b031eb88c2219a0417360e22705cc9c1d",
    ("cloud-always", 4):
        "e32bce322f5eb3fce81a2c92a1ce5ea59f2a162c0e6d7912e067f8f3b90c7c48",
    ("thinkair", 0):
        "d44306ad6625f3028e149eea4a73b80f0710f057c687b4a3e613a508a3ec8133",
    ("thinkair", 4):
        "e6724d9f9a871f2d81bc774b8b75f1dcf0b2592cfa4a414471bc5b74a59210e5",
    ("mcloud", 0):
        "c8ffee095939b0c808367fd2653857785a940902356335e30540f7ea79f21ec5",
    ("mcloud", 4):
        "d74b3b27c1d80c3d09534464722a045981bb953980eab4604da1d6f9ff6b2ec9",
    ("echo", 0):
        "a554203dfdc68be849b4bb8a5ad21e66aab8ee0f609b8f3817d6a517593f0dec",
    ("echo", 4):
        "2f7c61a93a0006b6889f48ade8cff7aa7f86f61365f18909ab193796064d59c5",
    ("echo", "delay+noise+rtt"):
        "89ccf5a88b9192c0674b1ee61acfdc7a3746d30adebbc7e935655156d3305cf5",
    ("thinkair", "delay+noise+rtt"):
        "7e4466ba627fb909c02edf1c05fc5dc535fb4056685463fe3cd38ddbd0c94f7a",
    ("mcloud", "delay+noise+rtt"):
        "2e652dd48874fc2b2a4b113ec688cd8c3d13ac247d50f62b3f6b0ef79e110678",
}


def _config(policy: str, variant) -> SimConfig:
    if variant == "delay+noise+rtt":
        return SimConfig(num_vms=4, lam=TRACE_LAM, seed=5,
                         provision_delay=20_000, estimate_noise=0.3,
                         sync=SyncParams(rtt_us=15_000, change_fraction=0.1))
    return SimConfig(num_vms=variant, lam=TRACE_LAM)


def report_digest(policy: str, config: SimConfig, tmp_path) -> str:
    trace = generate(TRACE_N, TRACE_LAM, MixSpec.preset("mix-1"), TRACE_SEED)
    report = run(trace, policy, config)
    json_path, csv_path = tmp_path / "report.json", tmp_path / "report.csv"
    report.write_json(json_path)
    report.write_csv(csv_path)
    return hashlib.sha256(json_path.read_bytes()
                          + csv_path.read_bytes()).hexdigest()


# Codec corpus: every payload fill x block size x two lengths that are not
# block multiples, each under every edit kind of the benchmark's codec
# workload at SyncParams' default 25% change.
CODEC_SEED = 6
CODEC_BLOCKS = (64, 100, 1024, 4096)
CODEC_FILLS = ("random", "zeros", "two-symbol", "repeated-block")
CODEC_EDITS = ("identical", "blocks", "insert", "delete", "prepend", "append",
               "rotate")
CODEC_GOLDEN = (
    "46257fdb66b20a34a011fe3ef7141f8882bc791c8e918bcbfd40feea2c2ccfff")
# The encoder keys new-payload windows one span at a time; a span first
# covers FIRST_SPAN blocks' worth of window starts, and one that yields no
# COPY doubles the next.  These pairs put fresh bytes of one or three first
# spans' length, give or take a byte, before old data, so the realigned
# match starts on the last window of a span, on the first of the next, or
# one past it.  Their deltas have a digest of their own.  FIRST_SPAN is the
# encoder's first span when the digest was generated; it is written out,
# not imported, so that retuning the spans cannot change the pairs checked.
FIRST_SPAN = 64
SPAN_EDGE_BLOCKS = (64, 100, 1024)
SPAN_EDGE_GOLDEN = (
    "84bf4022d3c8264180f9926df339685abfddd6cfaae32be0ba6ad5807756926d")
# The same kind of pairs at the edges of spans of 8 blocks doubling up to
# a cap of 32: a span run ends at 8, 24 and 56 blocks, then every 32
# blocks.  Realigned matches land on and next to those ends, on the
# multiples of the cap, and behind a COPY that outruns a first span.
CAPPED_SPAN_EDGES = (8, 24, 32, 56, 64, 88, 96, 120)
CAPPED_SPAN_GOLDEN = (
    "fd5d9fef237415f1579dd19c1368916d572afac5e93ed49087d504f8359c756d")


def _fill(rng: random.Random, fill: str, n: int, block: int) -> bytes:
    if fill == "random":
        return rng.randbytes(n)
    if fill == "zeros":
        return bytes(n)
    if fill == "two-symbol":
        return rng.randbytes(n).translate(b"ab" * 128)
    unit = rng.randbytes(block)
    return (unit * (n // block + 1))[:n]


def _edit(rng: random.Random, old: bytes, kind: str, block: int,
          fraction: float) -> bytes:
    n = len(old)
    span = max(1, int(n * fraction))
    if kind == "identical":
        return old
    if kind == "blocks":
        new = bytearray(old)
        blocks = max(1, n // block)
        for b in rng.sample(range(blocks), max(1, round(blocks * fraction))):
            lo = b * block
            hi = min(lo + block, n)
            new[lo:hi] = rng.randbytes(hi - lo)
        return bytes(new)
    if kind == "insert":
        cut = rng.randrange(n + 1)
        return old[:cut] + rng.randbytes(span) + old[cut:]
    if kind == "delete":
        lo = rng.randrange(n - span + 1)
        return old[:lo] + old[lo + span:]
    if kind == "prepend":
        return rng.randbytes(span) + old
    if kind == "append":
        return old + rng.randbytes(span)
    assert kind == "rotate"
    return old[span:] + old[:span]


def codec_corpus():
    rng = random.Random(CODEC_SEED)
    fraction = SyncParams().change_fraction
    for fill in CODEC_FILLS:
        for block in CODEC_BLOCKS:
            for lo, hi in ((1, 4), (4, 48)):
                n = rng.randrange(lo * block, hi * block)
                if n % block == 0:
                    n += 1
                old = _fill(rng, fill, n, block)
                for kind in CODEC_EDITS:
                    yield old, _edit(rng, old, kind, block, fraction), block


def span_edge_corpus():
    rng = random.Random(CODEC_SEED)
    for block in SPAN_EDGE_BLOCKS:
        first = FIRST_SPAN * block
        old = rng.randbytes(4 * first + block // 2)
        # a block-aligned cut past the first span: the COPY of old[:cut]
        # outruns its span, so the next span starts at cut
        cut = rng.randrange(FIRST_SPAN + 1, 2 * FIRST_SPAN) * block
        for spans in (1, 3):
            for d in (-1, 0, 1):
                fresh = rng.randbytes(spans * first + d)
                yield old, fresh + old, block
                yield old, old[:cut] + fresh + old[cut:], block


def capped_span_corpus():
    rng = random.Random(CODEC_SEED)
    for block in SPAN_EDGE_BLOCKS:
        old = rng.randbytes(128 * block + block // 2)
        # a block-aligned cut past a first span of 8 blocks
        cut = rng.randrange(9, 16) * block
        for blocks in CAPPED_SPAN_EDGES:
            for d in (-1, 0, 1):
                fresh = rng.randbytes(blocks * block + d)
                yield old, fresh + old, block
                yield old, old[:cut] + fresh + old[cut:], block


def _delta_digest(corpus) -> tuple[str, int]:
    h = hashlib.sha256()
    pairs = 0
    for old, new, block in corpus:
        delta = diff_encode(old, new, block)
        assert diff_apply(old, delta) == new
        h.update(delta)
        pairs += 1
    return h.hexdigest(), pairs



# (corpus, pair count, digest) of each codec case
CODEC_CASES = {
    "codec": (codec_corpus,
              len(CODEC_FILLS) * len(CODEC_BLOCKS) * 2 * len(CODEC_EDITS),
              CODEC_GOLDEN),
    "span-edge": (span_edge_corpus, len(SPAN_EDGE_BLOCKS) * 12,
                  SPAN_EDGE_GOLDEN),
    "capped-span": (capped_span_corpus,
                    len(SPAN_EDGE_BLOCKS) * len(CAPPED_SPAN_EDGES) * 6,
                    CAPPED_SPAN_GOLDEN),
}


def main() -> int:
    """Check every case; print each mismatch and exit 1 if there is one."""
    results = {}
    with tempfile.TemporaryDirectory() as tmp:
        for (mix, seed), digest in TRACE_GOLDEN.items():
            results[f"trace {mix}-{seed}"] = (
                trace_digest(mix, seed, Path(tmp)) == digest)
        for (policy, variant), digest in GOLDEN.items():
            results[f"report {policy}-{variant}"] = (report_digest(
                policy, _config(policy, variant), Path(tmp)) == digest)
    try:
        import numpy  # noqa: F401  (diff_encode loads it)
    except ImportError:
        print(f"skipped, numpy missing: {', '.join(CODEC_CASES)} deltas")
    else:
        for name, (corpus, pairs, digest) in CODEC_CASES.items():
            results[f"{name} deltas"] = (
                _delta_digest(corpus()) == (digest, pairs))
    for name, ok in results.items():
        if not ok:
            print(f"MISMATCH {name}")
    failed = list(results.values()).count(False)
    print(f"{len(results) - failed} of {len(results)} golden cases match "
          f"on Python {sys.version.split()[0]}")
    return 1 if failed else 0
