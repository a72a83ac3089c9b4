"""Golden digests: refactors must leave every trace, report and delta byte
unchanged.

Each trace case pins the sha256 of a generated trace as save() writes
it.  Each report case replays one small seeded trace and pins the sha256
of the report's JSON file followed by its CSV file.  The codec case pins the
sha256 of every delta diff_encode emits over a seeded corpus of payload
pairs.  The tables live in tests/golden_cases.py.  A change that alters a
report or a delta on purpose must say why and update the digest there; a
refactor must not touch these tables at all.

Without pytest, `python tests/test_golden.py` checks every case that
needs no numpy, names the ones it skipped, and exits 1 on a mismatch.
"""

import sys

if __name__ == "__main__":
    from pathlib import Path
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    from golden_cases import main
    sys.exit(main())

import pytest

from golden_cases import (CODEC_CASES, GOLDEN, TRACE_GOLDEN, _config,
                          _delta_digest, report_digest, trace_digest)


@pytest.mark.parametrize("mix,seed", list(TRACE_GOLDEN),
                         ids=[f"{m}-{s}" for m, s in TRACE_GOLDEN])
def test_trace_bytes_match_golden_digest(mix, seed, tmp_path):
    assert trace_digest(mix, seed, tmp_path) == TRACE_GOLDEN[(mix, seed)]


@pytest.mark.parametrize("policy,variant", list(GOLDEN),
                         ids=[f"{p}-{v}" for p, v in GOLDEN])
def test_report_bytes_match_golden_digest(policy, variant, tmp_path):
    digest = report_digest(policy, _config(policy, variant), tmp_path)
    assert digest == GOLDEN[(policy, variant)]


def test_codec_deltas_match_golden_digest():
    for corpus, pairs, digest in CODEC_CASES.values():
        assert _delta_digest(corpus()) == (digest, pairs)
