"""Command-line interface, exercised through real subprocesses."""

import csv
import json
import subprocess
import sys

from echo_sched.traceio import load
from conftest import cli_env


def run_cli(*args, cwd):
    return subprocess.run(
        [sys.executable, "-m", "echo_sched.cli", *map(str, args)],
        capture_output=True, text=True, cwd=cwd, env=cli_env())


def make_trace(tmp_path, name="trace.jsonl", n=60, seed=1):
    result = run_cli("gen-traces", "--n", n, "--lambda", 2.0, "--mix", "mix-1",
                     "--seed", seed, "--out", tmp_path / name, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    return tmp_path / name


def test_gen_traces_writes_a_loadable_trace(tmp_path):
    result = run_cli("gen-traces", "--n", 50, "--lambda", 2.0,
                     "--seed", 7, "--out", tmp_path / "t.jsonl", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "wrote 50 tasks" in result.stdout
    assert len(load(tmp_path / "t.jsonl").tasks) == 50


def test_gen_traces_accepts_fraction_mixes(tmp_path):
    result = run_cli("gen-traces", "--n", 10, "--lambda", 1.0, "--mix", "0.25",
                     "--seed", 0, "--out", tmp_path / "t.jsonl", cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def test_gen_traces_rejects_bad_mix(tmp_path):
    result = run_cli("gen-traces", "--n", 10, "--lambda", 1.0, "--mix", "mix-7",
                     "--seed", 0, "--out", tmp_path / "t.jsonl", cwd=tmp_path)
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_simulate_writes_json_and_csv(tmp_path):
    trace = make_trace(tmp_path)
    result = run_cli("simulate", "--trace", trace, "--policy", "echo",
                     "--vms", 2, "--lambda-label", 2.0,
                     "--out", tmp_path / "out", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert "policy=echo" in result.stdout
    assert "report:" in result.stdout
    data = json.loads((tmp_path / "out.json").read_text())
    assert data["config"]["tasks"] == 60
    assert data["config"]["lambda"] == 2.0
    with open(tmp_path / "out.csv") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 61


def test_simulate_default_output_prefix(tmp_path):
    trace = make_trace(tmp_path, name="night.jsonl")
    result = run_cli("simulate", "--trace", trace, "--policy", "mcloud",
                     "--vms", 4, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "night.mcloud.4vms.json").exists()
    assert (tmp_path / "night.mcloud.4vms.csv").exists()


def test_simulate_rejects_unknown_policy(tmp_path):
    trace = make_trace(tmp_path)
    result = run_cli("simulate", "--trace", trace, "--policy", "magic",
                     "--vms", 1, cwd=tmp_path)
    assert result.returncode == 2


def test_simulate_missing_trace_is_a_usage_error(tmp_path):
    result = run_cli("simulate", "--trace", tmp_path / "nope.jsonl",
                     "--policy", "echo", "--vms", 1, cwd=tmp_path)
    assert result.returncode == 2
    assert "error:" in result.stderr


def test_simulate_rejects_zero_edge_run(tmp_path):
    trace = make_trace(tmp_path, n=3)
    lines = trace.read_text().splitlines()
    row = json.loads(lines[2])
    row["profile"]["r_edge"] = 0
    lines[2] = json.dumps(row, sort_keys=True, separators=(",", ":"))
    trace.write_text("\n".join(lines) + "\n")
    for policy in ("echo", "mcloud"):
        result = run_cli("simulate", "--trace", trace, "--policy", policy,
                         "--vms", 1, "--out", tmp_path / policy, cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "line 3" in result.stderr and "r_edge must be > 0" in result.stderr
        assert not (tmp_path / f"{policy}.json").exists()


def test_simulate_rejects_mistyped_trace_fields(tmp_path):
    # an int id used to crash the noise hash, a list user_id the
    # accountant's key, and a string offloadable ran the task on the edge
    trace = make_trace(tmp_path, n=5)
    original = trace.read_text().splitlines()
    for field, value in (("id", 5), ("user_id", ["u"]), ("offloadable", "no")):
        lines = list(original)
        row = json.loads(lines[2])
        row[field] = value
        lines[2] = json.dumps(row, sort_keys=True, separators=(",", ":"))
        trace.write_text("\n".join(lines) + "\n")
        result = run_cli("simulate", "--trace", trace, "--policy", "echo",
                         "--vms", 1, "--estimate-noise", 0.1,
                         "--out", tmp_path / field, cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert f"line 3: {field} must be" in result.stderr
        assert not (tmp_path / f"{field}.json").exists()


def test_simulate_rejects_misspelled_trace_keys(tmp_path):
    # "offloadble": false once offloaded a task pinned to the device, and
    # "upload_byte" loaded as 0 bytes
    trace = make_trace(tmp_path, n=5)
    original = trace.read_text().splitlines()
    for typo in ("offloadble", "upload_byte"):
        lines = list(original)
        row = json.loads(lines[2])
        if typo == "offloadble":
            del row["offloadable"]
            row[typo] = False
        else:
            row["profile"][typo] = row["profile"].pop("upload_bytes")
        lines[2] = json.dumps(row, sort_keys=True, separators=(",", ":"))
        trace.write_text("\n".join(lines) + "\n")
        result = run_cli("simulate", "--trace", trace, "--policy", "echo",
                         "--vms", 1, "--out", tmp_path / typo, cwd=tmp_path)
        assert result.returncode == 2, result.stderr
        assert "line 3" in result.stderr and typo in result.stderr
        assert not (tmp_path / f"{typo}.json").exists()


def test_simulate_rejects_negative_estimate_noise(tmp_path):
    trace = make_trace(tmp_path, n=5)
    result = run_cli("simulate", "--trace", trace, "--policy", "echo",
                     "--vms", 1, "--estimate-noise", -0.3,
                     "--out", tmp_path / "r", cwd=tmp_path)
    assert result.returncode == 2, result.stderr
    assert "estimate_noise" in result.stderr
    assert not (tmp_path / "r.json").exists()


def test_simulate_zero_vms_is_allowed(tmp_path):
    trace = make_trace(tmp_path)
    result = run_cli("simulate", "--trace", trace, "--policy", "echo",
                     "--vms", 0, "--out", tmp_path / "z", cwd=tmp_path)
    assert result.returncode == 0, result.stderr


def test_compare_writes_per_policy_reports_and_table(tmp_path):
    trace = make_trace(tmp_path)
    out = tmp_path / "cmp"
    result = run_cli("compare", "--trace", trace, "--vms", 2,
                     "--policies", "echo,mcloud,end-only",
                     "--lambda-label", 2.0, "--out", out, cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    for name in ("echo", "mcloud", "end-only"):
        assert (out / f"{name}.json").exists()
        assert (out / f"{name}.csv").exists()
        assert f"{name}: mean=" in result.stdout
    with open(out / "comparison.csv") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["policy", "mean_completion_s", "p95_completion_s",
                       "deadline_compliance", "bytes_up", "bytes_down",
                       "energy_j"]
    assert [r[0] for r in rows[1:]] == ["echo", "mcloud", "end-only"]
    echo_row = rows[1]
    assert echo_row[3] == "1.000000"  # full compliance under echo
    # echo must not move more bytes than the eager edge baseline
    assert int(echo_row[4]) < int(rows[2][4])


def test_compare_takes_every_simulate_run_setting(tmp_path):
    # compare once rejected --estimate-noise as an unrecognized argument
    trace = make_trace(tmp_path)
    settings = ("--vms", 2, "--lambda-label", 2.0, "--seed", 3,
                "--provision-delay", 0.01, "--estimate-noise", 0.3)
    result = run_cli("compare", "--trace", trace, "--policies", "echo",
                     *settings, "--out", tmp_path / "cmp", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    result = run_cli("simulate", "--trace", trace, "--policy", "echo",
                     *settings, "--out", tmp_path / "sim", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert (tmp_path / "cmp" / "echo.json").read_bytes() == \
        (tmp_path / "sim.json").read_bytes()
    assert json.loads((tmp_path / "sim.json").read_text())["config"][
        "estimate_noise"] == 0.3


def test_compare_rejects_unknown_policy(tmp_path):
    trace = make_trace(tmp_path)
    result = run_cli("compare", "--trace", trace, "--vms", 1,
                     "--policies", "echo,warp", "--out", tmp_path / "c",
                     cwd=tmp_path)
    assert result.returncode == 2
    assert "warp" in result.stderr


def test_non_finite_numbers_are_usage_errors(tmp_path):
    # Unchecked, inf overflows the microsecond conversion (exit 1), a NaN
    # label writes invalid JSON, and an infinite rate puts every arrival at 0.
    trace = make_trace(tmp_path)
    simulate = ("simulate", "--trace", trace, "--policy", "echo", "--vms", 1,
                "--out", tmp_path / "r")
    for args in (
        (*simulate, "--provision-delay", "inf"),
        (*simulate, "--estimate-noise", "inf"),
        (*simulate, "--lambda-label", "nan"),
        ("gen-traces", "--n", 5, "--lambda", "inf", "--out", tmp_path / "t.jsonl"),
    ):
        result = run_cli(*args, cwd=tmp_path)
        assert result.returncode == 2, (args, result.stderr)
        assert result.stderr.startswith("error:"), result.stderr
    assert not (tmp_path / "r.json").exists()
    assert not (tmp_path / "t.jsonl").exists()


def test_report_summarizes_existing_json(tmp_path):
    trace = make_trace(tmp_path)
    result = run_cli("simulate", "--trace", trace, "--policy", "echo",
                     "--vms", 2, "--out", tmp_path / "r", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    result = run_cli("report", "--in", tmp_path / "r.json", cwd=tmp_path)
    assert result.returncode == 0, result.stderr
    assert result.stdout.startswith("policy=echo")
    assert "deadline compliance" in result.stdout


def test_report_rejects_non_report_files(tmp_path):
    trace = make_trace(tmp_path)
    result = run_cli("report", "--in", trace, cwd=tmp_path)
    assert result.returncode == 2
    assert "not a report file" in result.stderr


def test_report_rejects_objects_without_aggregates(tmp_path):
    path = tmp_path / "bare.json"
    path.write_text(json.dumps({"policy": "x", "config": {},
                                "aggregates": {}}))
    result = run_cli("report", "--in", path, cwd=tmp_path)
    assert result.returncode == 2
    assert f"error: not a report file: {path}" in result.stderr
    assert "Traceback" not in result.stderr


def test_rerun_is_byte_identical(tmp_path):
    # same flags, fresh process: every artifact byte-for-byte equal
    t1 = make_trace(tmp_path, name="a.jsonl", seed=5)
    t2 = make_trace(tmp_path, name="b.jsonl", seed=5)
    assert t1.read_bytes() == t2.read_bytes()
    for prefix in ("x", "y"):
        result = run_cli("simulate", "--trace", t1, "--policy", "echo",
                         "--vms", 2, "--out", tmp_path / prefix, cwd=tmp_path)
        assert result.returncode == 0, result.stderr
    assert (tmp_path / "x.json").read_bytes() == (tmp_path / "y.json").read_bytes()
    assert (tmp_path / "x.csv").read_bytes() == (tmp_path / "y.csv").read_bytes()
