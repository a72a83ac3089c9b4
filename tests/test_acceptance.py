"""Acceptance gate: one test per shipping criterion, one printed verdict each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
"""

import random
import struct
import subprocess
import sys
import time

from echo_sched.model import CostProfile, Task, from_seconds
from echo_sched.objectsync import (
    DELTA_HEADER_BUDGET,
    ObjectRecord,
    TaskObjectSet,
    diff_apply,
    diff_encode,
    eager_bytes,
    lazy_bytes,
)
from echo_sched.scheduler import VmQueue, best_vm, commit, trial_insert
from echo_sched.sim import SimConfig, run
from echo_sched.traceio import MixSpec, generate
from conftest import cli_env, step_oracle_run

SEC = from_seconds(1.0)


def check(num: int, ok: bool, detail: str) -> None:
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {num} failed: {detail}"


def bare_task(tid: str, work: int, arrival: int = 0) -> Task:
    profile = CostProfile(r_mobile=0, r_edge=work, r_cloud=0, up_edge=0,
                          down_edge=0, up_cloud=0, down_cloud=0)
    return Task(id=tid, user_id="u00", app="x", arrival=arrival,
                profile=profile)


def test_criterion_1_full_deadline_compliance():
    # 100 seeded 1000-task traces at 1, 4, and 8 VMs: every guaranteed
    # task completes by its admission bound, with time to spare
    started = time.monotonic()
    bad = []
    for seed in range(100):
        trace = generate(n=1000, lam=2.0, mix=MixSpec.preset("mix-1"),
                         seed=seed)
        for vms in (1, 4, 8):
            report = run(trace, "echo", SimConfig(num_vms=vms, lam=2.0,
                                                  seed=seed))
            a = report.aggregates
            if a["deadline_tasks"] == 0 or a["deadline_compliance"] != 1.0:
                bad.append((seed, vms, a["deadline_compliance"]))
    elapsed = time.monotonic() - started
    check(1, not bad and elapsed < 60.0,
          f"300 runs, compliance 100.0% in all, {elapsed:.1f}s (budget 60s)"
          if not bad else f"violations: {bad[:5]} in {elapsed:.1f}s")


def test_criterion_2_oracle_equivalence():
    # packed schedules equal 1 ms step-simulated completions, exactly
    rng = random.Random(1701)
    instances = 0
    mismatches = 0
    for _ in range(220):
        n = rng.randrange(1, 11)
        vms = rng.randrange(1, 4)
        tasks = []
        arrival = 0
        for i in range(n):
            arrival += rng.randrange(0, 3000) * 1000
            def ms(lo, hi):
                return rng.randrange(lo, hi) * 1000
            profile = CostProfile(
                r_mobile=ms(1000, 9000), r_edge=ms(100, 5000),
                r_cloud=ms(100, 5000), up_edge=ms(0, 500),
                down_edge=ms(0, 500), up_cloud=ms(200, 2000),
                down_cloud=ms(200, 2000))
            tasks.append(Task(id=f"t{i}", user_id="u00", app="x",
                              arrival=arrival, profile=profile))
        config = SimConfig(num_vms=vms,
                           provision_delay=rng.choice((0, 50_000)))
        instances += 1
        try:
            step_oracle_run(tasks, "echo", config, dt=1000)
        except AssertionError:
            mismatches += 1
    check(2, instances >= 200 and mismatches == 0,
          f"{instances} instances, {mismatches} mismatches")


def test_criterion_3_three_vm_growth_instance():
    # three VMs mid-flight; the 5-unit task arriving at slot 7 sees
    # growth 10/13/11 and lands on the first VM
    m1, m2, m3 = VmQueue(0), VmQueue(1), VmQueue(2)
    queues = [m1, m2, m3]

    def place(queue, tid, work, ready, deadline):
        trial = trial_insert(queue, bare_task(tid, work, ready), ready,
                             deadline)
        commit(trial)

    place(m1, "a1", 7 * SEC, 0, None)
    place(m3, "a3", 8 * SEC, 0, None)
    for q in queues:
        q.advance(3 * SEC)
    place(m1, "a4", 5 * SEC, 3 * SEC, None)      # size 5, slot 3
    for q in queues:
        q.advance(5 * SEC)
    place(m3, "a6", 7 * SEC, 5 * SEC, None)
    for q in queues:
        q.advance(6 * SEC)
    place(m2, "a5", 5 * SEC, 6 * SEC, 11 * SEC)  # must end by slot 11
    place(m2, "b", 4 * SEC, 6 * SEC, None)       # parks behind a5
    for q in queues:
        q.advance(7 * SEC)

    a7 = bare_task("a7", 5 * SEC, 7 * SEC)       # arrives at slot 7
    deltas = [trial_insert(q, a7, 7 * SEC, None).delta_t for q in queues]
    vm = best_vm(queues, a7, 7 * SEC, None).vm_index
    ok = deltas == [10 * SEC, 13 * SEC, 11 * SEC] and vm == 0
    check(3, ok, f"growth {[d // SEC for d in deltas]} -> vm {vm} "
                 "(want [10, 13, 11] -> vm 0)")


def test_criterion_4_contention_direction():
    # deadline-aware placement beats the queue-blind baseline, and by
    # more when the cluster is busier
    seeds = range(20)
    wins = 0
    means_ok = True
    for seed in seeds:
        reductions = {}
        for lam in (1.0, 2.0):
            trace = generate(n=1000, lam=lam, mix=MixSpec.preset("mix-1"),
                             seed=seed)
            config = SimConfig(num_vms=8, lam=lam, seed=seed)
            echo = run(trace, "echo", config).aggregates["mean_completion_s"]
            base = run(trace, "mcloud", config).aggregates["mean_completion_s"]
            if echo >= base:
                means_ok = False
            reductions[lam] = 1.0 - echo / base
        if reductions[2.0] > reductions[1.0]:
            wins += 1
    check(4, means_ok and wins >= 16,
          f"echo < mcloud in all runs: {means_ok}; "
          f"reduction grows with load in {wins}/20 seed pairs (need >= 16)")


def test_criterion_5_lazy_transmission_ratio():
    # six objects, one actually referred, sized to the documented
    # interactive workload proportions (KB -> bytes)
    referred = ObjectRecord("args", 1, bytes(round(262.9 * 1024)))
    others = tuple(
        (ObjectRecord(f"res{i}", 1, bytes(round(337.62 * 1024))), False)
        for i in range(5))
    obj_set = TaskObjectSet(objects=((referred, True),) + others)
    lazy, shipped = lazy_bytes(obj_set, proxy_header=64)
    eager = eager_bytes(obj_set)
    ratio = lazy / eager
    check(5, shipped == ("args",) and ratio <= 0.15,
          f"lazy {lazy} / eager {eager} = {100 * ratio:.2f}% (bound 15%)")


def test_criterion_6_delta_codec_fuzz():
    rng = random.Random(2024)
    cases = 0
    failures = []
    insert_head = struct.Struct("<BI")
    copy_size = struct.Struct("<BQI").size
    header_size = struct.Struct("<4sH32sII").size

    def insert_payload(delta: bytes) -> int:
        (_, _, _, _, opcount) = struct.unpack_from("<4sH32sII", delta, 0)
        pos, total = header_size, 0
        for _ in range(opcount):
            if delta[pos] == 0:
                pos += copy_size
            else:
                _, length = insert_head.unpack_from(delta, pos)
                pos += insert_head.size + length
                total += length
        return total

    for case in range(10_000):
        if case % 100 == 99:
            n = rng.randrange(1 << 19, (1 << 20) + 1)   # up to 1 MB
        elif case % 10 >= 7:
            n = int(2 ** rng.uniform(12, 18))
        else:
            n = int(2 ** rng.uniform(0, 12))
        old = rng.randbytes(n)
        kind = case % 7
        if kind == 0:
            new = old
        elif kind == 1:
            new = rng.randbytes(rng.randrange(0, max(n, 1)))
        elif kind == 2:
            cut = rng.randrange(0, n + 1)
            new = old[:cut] + rng.randbytes(rng.randrange(1, 4096)) + old[cut:]
        elif kind == 3:
            lo = rng.randrange(0, n + 1)
            hi = rng.randrange(lo, n + 1)
            new = old[:lo] + old[hi:]
        elif kind == 4:
            new = rng.randbytes(rng.randrange(0, 256)) + old
        elif kind == 5:
            new = old + rng.randbytes(rng.randrange(0, 4096))
        else:
            half = n // 2
            new = old[half:] + old[:half]
        delta = diff_encode(old, new)
        cases += 1
        if diff_apply(old, delta) != new:
            failures.append((case, "round-trip"))
        if len(delta) > len(new) + DELTA_HEADER_BUDGET:
            failures.append((case, "size bound"))
        if kind == 0 and insert_payload(delta) != 0:
            failures.append((case, "unchanged payload cost"))
        if failures:
            break
    check(6, cases == 10_000 and not failures,
          f"{cases} pairs round-tripped, bound |delta| <= |new| + "
          f"{DELTA_HEADER_BUDGET} held" if not failures
          else f"failed at {failures[0]}")


def test_criterion_7_cli_determinism(tmp_path):
    def cli(*args):
        proc = subprocess.run(
            [sys.executable, "-m", "echo_sched.cli", *map(str, args)],
            capture_output=True, text=True, cwd=tmp_path,
            env=cli_env())
        assert proc.returncode == 0, proc.stderr
        return proc.stdout

    artifacts = {}
    for tag in ("one", "two"):
        d = tmp_path / tag
        d.mkdir()
        cli("gen-traces", "--n", 120, "--lambda", 2.0, "--mix", "mix-1",
            "--seed", 11, "--out", d / "trace.jsonl")
        cli("simulate", "--trace", d / "trace.jsonl", "--policy", "echo",
            "--vms", 2, "--lambda-label", 2.0, "--out", d / "solo")
        cli("compare", "--trace", d / "trace.jsonl", "--vms", 2,
            "--policies", "echo,mcloud,end-only", "--out", d / "cmp")
        stdout = cli("report", "--in", d / "solo.json")
        files = sorted(p.relative_to(d) for p in d.rglob("*") if p.is_file())
        artifacts[tag] = (
            stdout, files,
            [(d / f).read_bytes() for f in files])
    same = artifacts["one"] == artifacts["two"]
    count = len(artifacts["one"][1])
    check(7, same and count == 10,
          f"{count} artifacts byte-identical across reruns" if same
          else "rerun artifacts differ")


def test_criterion_8_energy_ordering():
    # compute-heavy profile (minutes locally, seconds offloaded): the
    # device pays a tiny fraction of the local energy when offloading
    task = Task(
        id="nq", user_id="u00", app="nqueens", arrival=0,
        profile=CostProfile(
            r_mobile=from_seconds(1000.0),
            r_edge=from_seconds(8.9),
            r_cloud=from_seconds(8.7),
            up_edge=from_seconds(0.1), down_edge=from_seconds(0.06),
            up_cloud=from_seconds(0.533), down_cloud=from_seconds(0.267),
            upload_bytes=40 * 1024, download_bytes=8 * 1024))
    local = run([task], "end-only", SimConfig(num_vms=0))
    offloaded = run([task], "echo", SimConfig(num_vms=1))
    local_j = local.records[0].energy_j
    offload_j = offloaded.records[0].energy_j
    ok = (offloaded.records[0].platform == "edge:0"
          and local_j == 800.0 and offload_j < 0.05 * local_j)
    check(8, ok, f"local {local_j:.2f} J vs offloaded {offload_j:.4f} J "
                 f"({100 * offload_j / local_j:.3f}% of local, bound 5%)")
