"""Self-test of the benchmark at tiny size: python3 perfbench/selftest.py

For every workload the runner knows it runs the benchmark untraced once
and traced twice, with every input shrunk, from a working directory that
is not the repository root.  It checks that each run exits 0 and ends in
a well-formed result line whose checks all passed, that the printed metric
names and units are exactly those BENCHMARK.json declares, and that two
traced runs give identical counts and digests.  Last, it checks that the
benchmark fails, without printing a result, in a directory that holds
only BENCHMARK.json and this directory.  Exits 0 when all of that holds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"


def _run(root: Path, cwd: Path, workload: str, trace: int):
    command = [sys.executable, str(root / HERE.name / "run.py"),
               "--workload", workload, "--seed", "7", "--seconds", "1",
               "--trace", str(trace), "--scale", "tiny"]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True,
                          timeout=180)


def _result(done, label: str, declared: dict[str, str], problems: list[str]):
    if done.returncode != 0:
        problems.append(f"{label}: exit {done.returncode}: {done.stderr[-500:]}")
        return None, None
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"{label}: result keys {sorted(result)}")
        return None, None
    if not (result["correct"] is True and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"{label}: checks failed: {done.stderr[-500:]}")
    printed = {name: m["unit"] for name, m in result["metrics"].items()}
    if printed != declared:
        problems.append(f"{label}: metrics differ from BENCHMARK.json: "
                        f"undeclared {sorted(set(printed) - set(declared))}, "
                        f"missing {sorted(set(declared) - set(printed))}, "
                        f"units {[(n, u) for n, u in printed.items() if declared.get(n) not in (None, u)]}")
    fingerprint = json.loads(lines[-2].removeprefix("fingerprint "))
    return result, fingerprint


def _workload_names() -> list[str]:
    """Every workload the runner knows, declared in BENCHMARK.json or not."""
    sys.path[:0] = [str(ROOT / "src"), str(HERE)]
    from workloads import WORKLOADS
    return list(WORKLOADS)


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    OUT.mkdir(exist_ok=True)
    problems: list[str] = []
    for name in _workload_names():
        _result(_run(ROOT, OUT, name, 0), f"{name} trace 0", end_to_end, problems)
        _, first = _result(_run(ROOT, OUT, name, 1), f"{name} trace 1",
                           per_layer, problems)
        _, second = _result(_run(ROOT, OUT, name, 1), f"{name} trace 1 again",
                            per_layer, problems)
        if first and second and (first["counts"] != second["counts"]
                                 or first["sha256"] != second["sha256"]):
            problems.append(f"{name}: traced counts or digests differ between runs")
        print(f"{name}: done", flush=True)

    bare = OUT / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    bare.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    shutil.copytree(HERE, bare / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _run(bare, bare, spec["workloads"][0]["name"], 0)
    if done.returncode == 0 or done.stdout.strip():
        problems.append("without src/ the benchmark must fail and print nothing")
    shutil.rmtree(bare)

    for problem in problems:
        print(f"FAIL {problem}")
    print("selftest:", "FAIL" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
