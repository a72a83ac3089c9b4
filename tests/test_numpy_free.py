"""Only the delta encoder needs numpy: the simulator path never loads it.

Each check runs in a fresh interpreter, with the imported package's
source root first on its path (as the CLI tests do), since the test
process itself has numpy loaded already.
"""

import json
import subprocess
import sys

from conftest import cli_env

# gen-traces, then simulate and report under every policy, through
# cli.main; argv[1] == "blocked" makes any numpy import fail first
PIPELINE = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = None
from echo_sched import cli
from echo_sched.policies import POLICY_NAMES
codes = [cli.main(["gen-traces", "--n", "200", "--lambda", "4",
                   "--mix", "mix-1", "--seed", "3", "--out", "trace.jsonl"])]
for policy in POLICY_NAMES:
    codes.append(cli.main(["simulate", "--trace", "trace.jsonl",
                           "--policy", policy, "--vms", "2",
                           "--out", policy]))
for policy in POLICY_NAMES:
    codes.append(cli.main(["report", "--in", policy + ".json"]))
print(json.dumps(codes))
"""


def run_child(code: str, *args, cwd=None) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, "-c", code, *args],
                          capture_output=True, text=True, cwd=cwd,
                          env=cli_env())


def test_importing_the_package_and_cli_leaves_numpy_unloaded():
    result = run_child("import sys, echo_sched, echo_sched.cli\n"
                       "print('numpy' in sys.modules)")
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


def test_cli_pipeline_runs_with_numpy_blocked(tmp_path):
    outputs = {}
    for mode in ("blocked", "plain"):
        workdir = tmp_path / mode
        workdir.mkdir()
        result = run_child(PIPELINE, mode, cwd=workdir)
        assert result.returncode == 0, result.stderr
        *summaries, codes = result.stdout.splitlines()
        assert json.loads(codes) == [0] * 11
        files = sorted(p.name for p in workdir.iterdir())
        assert len(files) == 11  # the trace, then JSON and CSV per policy
        outputs[mode] = (summaries,
                         {name: (workdir / name).read_bytes()
                          for name in files})
    assert outputs["blocked"] == outputs["plain"]
