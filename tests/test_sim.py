"""End-to-end simulation runs, realized timings, energy, aggregates."""

import dataclasses
import json
import math
import random
import statistics

import pytest

from echo_sched.model import (CostProfile, Decision, Platform, Task, TraceError,
                              to_seconds)
from echo_sched.objectsync import DELTA_HEADER_BUDGET, SyncParams
from echo_sched.policies import (POLICY_NAMES, BestEffortEdgePolicy,
                                 DeadlineAwareEdgePolicy, build_policy)
from echo_sched.sim import (
    CSV_COLUMNS,
    EnergyParams,
    SimConfig,
    SimReport,
    TaskRecord,
    energy_of,
    run,
)
from echo_sched.traceio import MixSpec, generate
from conftest import mk_task, sec, step_oracle_run


def ms_trace(seed: int, n: int, heavy=False) -> list[Task]:
    """Random byte-free tasks with every duration a multiple of 1 ms."""
    rng = random.Random(seed)
    tasks = []
    arrival = 0
    for i in range(n):
        arrival += rng.randrange(0, 1000 if not heavy else 300) * 1000
        def ms(lo, hi):
            return rng.randrange(lo, hi) * 1000
        profile = CostProfile(
            r_mobile=ms(2000, 9000), r_edge=ms(200, 4000),
            r_cloud=ms(200, 4000), up_edge=ms(0, 400), down_edge=ms(0, 400),
            up_cloud=ms(400, 1500), down_cloud=ms(400, 1500))
        tasks.append(Task(id=f"t{i:04d}", user_id=f"u{i % 7:02d}", app="x",
                          arrival=arrival, profile=profile,
                          offloadable=rng.random() > 0.05))
    return tasks


def test_two_task_scenario_realizes_exactly():
    # j1 (10s on the edge, device alternative 12s) has 8s left when a 3s
    # newcomer arrives; only 2s of the newcomer fits in front, j1 is
    # pushed to exactly its bound and both admissions hold
    j1 = mk_task("j1", arrival=0.0, r_mobile=12.0, r_edge=10.0, r_cloud=5.0,
                 up_cloud=5.0, down_cloud=5.0)
    nw = mk_task("nw", arrival=2.0, r_mobile=11.0, r_edge=3.0, r_cloud=4.0,
                 up_cloud=4.0, down_cloud=4.0)
    report = run([j1, nw], "echo", SimConfig(num_vms=1))
    by_id = {r.task_id: r for r in report.records}

    r1, r2 = by_id["j1"], by_id["nw"]
    assert r1.platform == "edge:0" and r2.platform == "edge:0"
    assert r1.predicted_completion == sec(10)  # before the preemption
    assert r1.completion == sec(12) and r1.deadline == sec(12)
    assert r2.completion == sec(13) and r2.deadline == sec(13)
    assert r1.deadline_met and r2.deadline_met
    assert r1.waiting == sec(2)   # 12 - 0 - 10
    assert r2.waiting == sec(8)   # 13 - 2 - 3
    assert r1.start == 0 and r2.start == sec(2)

    a = report.aggregates
    assert a["deadline_tasks"] == 2
    assert a["deadline_compliance"] == 1.0
    assert a["mean_waiting_s"] == 5.0
    assert a["platform_counts"] == {"mobile": 0, "edge": 2, "cloud": 0}

    oracle = step_oracle_run([j1, nw], "echo", SimConfig(num_vms=1), dt=1000)
    assert oracle.to_dict() == report.to_dict()


def test_end_only_records_are_pure_local_times():
    trace = generate(n=60, lam=2.0, mix=MixSpec.preset("mix-1"), seed=8)
    report = run(trace, "end-only", SimConfig(num_vms=4))
    locals_ = [t.profile.r_mobile for t in trace.tasks]
    for record, task in zip(report.records, trace.tasks):
        assert record.platform == "mobile"
        assert record.completion == task.arrival + task.profile.r_mobile
        assert record.bytes_up == 0 and record.bytes_down == 0
        assert record.deadline is None
    a = report.aggregates
    assert a["mean_completion_s"] == statistics.fmean(locals_) / 1e6
    ordered = sorted(locals_)
    rank = -(-95 * len(ordered) // 100)
    assert a["p95_completion_s"] == to_seconds(ordered[rank - 1])
    assert a["deadline_compliance"] is None
    assert a["deadline_tasks"] == 0


def test_runs_are_deterministic(tmp_path):
    trace = generate(n=80, lam=2.0, mix=MixSpec.preset("mix-1"), seed=3)
    config = SimConfig(num_vms=2, lam=2.0, seed=3)
    a = run(trace, "echo", config)
    b = run(trace, "echo", config)
    assert a.to_dict() == b.to_dict()
    pa, pb = tmp_path / "a.json", tmp_path / "b.json"
    a.write_json(pa)
    b.write_json(pb)
    assert pa.read_bytes() == pb.read_bytes()
    ca, cb = tmp_path / "a.csv", tmp_path / "b.csv"
    a.write_csv(ca)
    b.write_csv(cb)
    assert ca.read_bytes() == cb.read_bytes()


def test_oracle_step_sim_matches_closed_form():
    tasks = ms_trace(seed=21, n=40)
    for policy in ("echo", "mcloud"):
        config = SimConfig(num_vms=2)
        fast = run(tasks, policy, config)
        slow = step_oracle_run(tasks, policy, config, dt=1000)
        assert fast.to_dict() == slow.to_dict(), policy


def test_oracle_step_sim_rejects_indivisible_costs():
    task = mk_task("t0", r_edge=0.0005)  # 500 us
    with pytest.raises(ValueError, match="does not divide"):
        step_oracle_run([task], "echo", SimConfig(num_vms=1), dt=1000)
    with pytest.raises(ValueError, match="dt"):
        step_oracle_run([task], "echo", SimConfig(num_vms=1), dt=0)


def test_energy_local_execution():
    task = mk_task("t0", r_mobile=10.0)
    decision = Decision(Platform.MOBILE, sec(10))
    assert energy_of(task, decision, 0, 0, EnergyParams(p_cpu_mobile=1.2),
                     completion=sec(10)) == pytest.approx(12.0)


def test_energy_offload_transfer_plus_idle():
    # 0.5s of radio at 0.8W plus 5.0s of idle at 0.05W
    task = mk_task("t0", arrival=0.0, up_edge=0.3, down_edge=0.2, r_edge=5.0)
    decision = Decision(Platform.EDGE, sec(5.5), vm_index=0)
    params = EnergyParams(p_net_mobile=0.8, p_idle=0.05)
    energy = energy_of(task, decision, 0, 0, params, completion=sec(5.5))
    assert energy == pytest.approx(0.65, abs=1e-9)


def test_energy_scales_linearly_with_power():
    trace = ms_trace(seed=5, n=30)
    base = run(trace, "echo", SimConfig(num_vms=2))
    d = EnergyParams()
    twice = EnergyParams(2.0 * d.p_cpu_mobile, 2.0 * d.p_net_mobile,
                         2.0 * d.p_idle)
    doubled = run(trace, "echo", SimConfig(num_vms=2, energy=twice))
    for a, b in zip(base.records, doubled.records):
        assert b.energy_j == 2.0 * a.energy_j
    assert doubled.aggregates["energy_j"] == pytest.approx(
        2.0 * base.aggregates["energy_j"])


def test_zero_vms_degenerates_to_two_platforms():
    trace = generate(n=40, lam=2.0, mix=MixSpec.preset("mix-2"), seed=6)
    report = run(trace, "echo", SimConfig(num_vms=0))
    assert report.aggregates["platform_counts"]["edge"] == 0
    assert {r.platform for r in report.records} <= {"mobile", "cloud"}


@pytest.mark.parametrize("num_vms", [0, 2])
@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_run_rejects_duplicate_task_ids(policy, num_vms):
    # Outcomes are keyed by task id: a repeated id would report the first
    # x with the second's decision (at 0 VMs: cloud, although its 5s
    # device run beats the cloud's 5.5s), so the library must refuse the
    # trace as the CLI does.
    first = mk_task("x", arrival=0.0, r_mobile=5.0)
    second = mk_task("x", arrival=1.0, r_mobile=6.0)
    config = SimConfig(num_vms=num_vms)
    with pytest.raises(TraceError, match="duplicate task id 'x'"):
        run([first, second], policy, config)
    with pytest.raises(TraceError, match="duplicate task id 'x'"):
        step_oracle_run([first, second], policy, config, dt=1000)


def test_noisy_estimates_still_meet_shifted_deadlines():
    # mis-estimation moves the admission bound, but admission still honors
    # whatever bound it promised, so compliance stays total
    trace = generate(n=150, lam=2.0, mix=MixSpec.preset("mix-1"), seed=14)
    config = SimConfig(num_vms=2, seed=14, estimate_noise=0.3)
    a = run(trace, "echo", config)
    b = run(trace, "echo", config)
    assert a.to_dict() == b.to_dict()
    assert a.aggregates["deadline_compliance"] == 1.0


def test_policy_object_runs_with_the_config_settings():
    # A policy object once held its own copy of the provision delay and
    # the estimate noise, so a run given an object ran without the config's
    # values while its report echoed them.
    trace = generate(n=200, lam=4.0, mix=MixSpec.preset("mix-1"), seed=3)
    for config in (SimConfig(num_vms=2, provision_delay=2_000_000),
                   SimConfig(num_vms=2, seed=3, estimate_noise=0.3)):
        by_object = run(trace, build_policy("echo"), config)
        assert by_object.to_dict() == run(trace, "echo", config).to_dict()


def test_echo_moves_fewer_bytes_than_eager_policies():
    trace = generate(n=120, lam=2.0, mix=MixSpec.preset("mix-1"), seed=9)
    echo = run(trace, "echo", SimConfig(num_vms=4))
    eager = run(trace, "mcloud", SimConfig(num_vms=4))
    assert echo.aggregates["bytes_up"] < eager.aggregates["bytes_up"]
    assert echo.aggregates["backhaul_bytes"] > 0
    assert eager.aggregates["backhaul_bytes"] == 0


class _EchoVariant(DeadlineAwareEdgePolicy):
    name = "echo-variant"


class _EagerPolicyNamedEcho(BestEffortEdgePolicy):
    name = "echo"


def _bytes_up(report) -> list[int]:
    return [r.bytes_up for r in report.records]


def _transfer_trace():
    return generate(n=120, lam=2.0, mix=MixSpec.preset("mix-1"), seed=9)


def test_lazy_transfer_follows_the_policy_not_its_name():
    trace, config = _transfer_trace(), SimConfig(num_vms=4)
    echo = run(trace, "echo", config)
    assert _bytes_up(echo) != _bytes_up(run(trace, "mcloud", config))
    variant = run(trace, _EchoVariant(), config)
    assert variant.policy == "echo-variant"
    assert _bytes_up(variant) == _bytes_up(echo)
    assert variant.aggregates == echo.aggregates


def test_eager_transfer_follows_the_policy_not_its_name():
    trace, config = _transfer_trace(), SimConfig(num_vms=4)
    eager = run(trace, "mcloud", config)
    assert _bytes_up(eager) != _bytes_up(run(trace, "echo", config))
    impostor = run(trace, _EagerPolicyNamedEcho(), config)
    assert impostor.policy == "echo"
    assert _bytes_up(impostor) == _bytes_up(eager)
    assert impostor.aggregates == eager.aggregates


def test_echo_prices_each_offload_by_the_state_it_moves():
    # One (user, app): the device wins the first task, so it moves no bytes
    # and leaves the app state cold; the second offload ships the referred
    # state in full, the third only its delta.  Each edge upload leg is the
    # profiled one scaled to the bytes moved, plus the round trip.
    rtt, delay, upload = 100_000, sec(0.2), 100_000
    tasks = [mk_task(tid, arrival=arrival, r_mobile=r_mobile, r_edge=2.0,
                     up_edge=0.5, upload_bytes=upload, download_bytes=5_000)
             for tid, arrival, r_mobile in (("a", 0.0, 1.0), ("b", 10.0, 10.0),
                                            ("c", 20.0, 10.0))]
    config = SimConfig(num_vms=1, provision_delay=delay,
                       sync=SyncParams(rtt_us=rtt))
    report = run(tasks, "echo", config)
    a, b, c = report.records
    assert a.platform == "mobile"
    assert (a.bytes_up, a.bytes_down) == (0, 0)
    args, proxies, referred = 50_000, 4 * 64, 25_000
    delta = int(referred * 0.25) + DELTA_HEADER_BUDGET
    for record, task, state in ((b, tasks[1], referred), (c, tasks[2], delta)):
        up_bytes = args + proxies + state
        assert record.platform == "edge:0"
        assert (record.bytes_up, record.bytes_down) == (up_bytes, 5_000)
        p = task.profile
        assert record.ready == (task.arrival + delay
                                + round(p.up_edge * up_bytes / p.upload_bytes)
                                + rtt)
    assert report.aggregates["backhaul_bytes"] == referred + delta


def test_provision_delay_shifts_edge_ready_times():
    task = mk_task("t0", r_mobile=10.0, r_edge=2.0, up_edge=0.5,
                   up_cloud=3.0, r_cloud=3.0, down_cloud=3.0)
    report = run([task], "echo",
                 SimConfig(num_vms=1, provision_delay=sec(1.0)))
    record = report.records[0]
    assert record.platform == "edge:0"
    assert record.ready == sec(1.5)
    assert record.start == sec(1.5)


def test_csv_shape(tmp_path):
    trace = generate(n=12, lam=1.0, mix=MixSpec.preset("mix-3"), seed=2)
    report = run(trace, "echo", SimConfig(num_vms=1))
    path = tmp_path / "report.csv"
    report.write_csv(path)
    lines = path.read_text().strip().splitlines()
    assert lines[0].split(",") == CSV_COLUMNS
    assert len(lines) == 13
    energy_col = CSV_COLUMNS.index("energy_j")
    total = sum(float(line.split(",")[energy_col]) for line in lines[1:])
    assert total == pytest.approx(report.aggregates["energy_j"])


def test_summary_text_and_json_shape(tmp_path):
    trace = generate(n=25, lam=2.0, mix=MixSpec.preset("mix-1"), seed=4)
    report = run(trace, "echo", SimConfig(num_vms=2, lam=2.0))
    text = report.summary_text()
    assert "policy=echo" in text
    assert "deadline compliance" in text
    path = tmp_path / "report.json"
    report.write_json(path)
    data = json.loads(path.read_text())
    assert data["policy"] == "echo"
    assert data["config"]["num_vms"] == 2
    assert data["config"]["lambda"] == 2.0
    assert len(data["tasks"]) == 25
    assert data["aggregates"]["tasks"] == 25


# Text the streamed writer must escape exactly as json.dumps does: a quote,
# a backslash, control characters, non-ASCII, U+2028, and record framing.
ODD_TEXT = ['q"uote', "back\\slash", "ctrl\x00\x1f\t\r", "caf\u00e9 \u2713",
            "line\u2028sep", "},\n    {"]


def reference_json(report: SimReport) -> str:
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


def odd_trace() -> list[Task]:
    tasks = generate(n=30, lam=3.0, mix=MixSpec.preset("mix-2"), seed=5).tasks
    k = len(ODD_TEXT)
    return [dataclasses.replace(t, id=f"{ODD_TEXT[i % k]}{i}",
                                user_id=ODD_TEXT[(i + 1) % k],
                                app=ODD_TEXT[(i + 2) % k])
            for i, t in enumerate(tasks)]


@pytest.mark.parametrize("policy", POLICY_NAMES)
def test_write_json_bytes_equal_the_reference(tmp_path, policy):
    report = run(odd_trace(), policy, SimConfig(num_vms=2, lam=3.0))
    path = tmp_path / "report.json"
    report.write_json(path)
    assert path.read_text() == reference_json(report)
    assert json.loads(path.read_text()) == report.to_dict()


def test_write_json_with_no_records(tmp_path):
    report = run([], "echo", SimConfig(num_vms=1))
    path = tmp_path / "report.json"
    report.write_json(path)
    assert path.read_text() == reference_json(report)
    assert '"tasks": []\n}\n' in path.read_text()


def test_write_json_none_bool_and_non_finite_fields(tmp_path):
    base = TaskRecord(task_id="a", user_id="u", app="x", arrival=0,
                      platform="mobile", vm_index=None,
                      predicted_completion=5, ready=0, start=0, completion=5,
                      waiting=0, deadline=None, deadline_met=None,
                      bytes_up=0, bytes_down=0, energy_j=0.5)
    records = [
        base,
        dataclasses.replace(base, task_id="b", platform="edge:0", vm_index=0,
                            deadline=7, deadline_met=True, energy_j=math.nan),
        dataclasses.replace(base, task_id="c", deadline=1, deadline_met=False,
                            energy_j=math.inf),
        dataclasses.replace(base, task_id=ODD_TEXT[-1], energy_j=-math.inf),
    ]
    report = SimReport(policy="echo", config={"lambda": None, "seed": 0},
                       records=records, aggregates={"tasks": 4, "flag": True})
    path = tmp_path / "report.json"
    report.write_json(path)
    assert path.read_text() == reference_json(report)
    assert "NaN" in path.read_text() and "-Infinity" in path.read_text()


def test_config_validation():
    with pytest.raises(ValueError):
        SimConfig(num_vms=-1)
    with pytest.raises(ValueError):
        SimConfig(num_vms=2000)
    with pytest.raises(ValueError):
        SimConfig(num_vms=1, lam=0.0)
    with pytest.raises(ValueError):
        SimConfig(num_vms=1, provision_delay=-1)
    for bad in (float("inf"), float("nan")):
        with pytest.raises(ValueError, match="lambda"):
            SimConfig(num_vms=1, lam=bad)
        with pytest.raises(ValueError, match="estimate_noise"):
            SimConfig(num_vms=1, estimate_noise=bad)
    with pytest.raises(ValueError):
        EnergyParams(p_idle=-0.1)
    # counts and microseconds must be ints: 0.5 us of provision delay once
    # reached the report as "ready": 500000.5, num_vms=True as true
    for name in ("num_vms", "provision_delay"):
        for bad in (0.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match=name):
                SimConfig(**{"num_vms": 1, name: bad})
    for name in ("rtt_us", "proxy_header", "objects_per_task"):
        for bad in (0.5, 2.0, True, "2", None):
            with pytest.raises(ValueError, match=name):
                SyncParams(**{name: bad})
    # float settings must be finite reals: estimate_noise=True and
    # args_share=True were echoed as true, change_fraction="0.25" raised a
    # bare TypeError, and a negative noise ran
    for bad in (True, "0.1", None, -0.3):
        with pytest.raises(ValueError, match="estimate_noise"):
            SimConfig(num_vms=1, estimate_noise=bad)
    for name in ("args_share", "referred_share", "change_fraction"):
        for bad in (True, "0.25", None, float("nan")):
            with pytest.raises(ValueError, match=name):
                SyncParams(**{name: bad})
    for name in ("p_cpu_mobile", "p_net_mobile", "p_idle"):
        for bad in (True, "0.5", None, float("inf")):
            with pytest.raises(ValueError, match=name):
                EnergyParams(**{name: bad})


def test_config_rejects_non_int_seed_and_non_real_lambda():
    # seed=1.5 with noise once died in the engine's noise hash with a bare
    # TypeError; lam=True was reported as "lambda": true
    for bad in (1.5, 2.0, True, "2", None):
        with pytest.raises(ValueError, match="seed"):
            SimConfig(num_vms=1, seed=bad)
    with pytest.raises(ValueError, match="seed"):
        SimConfig(num_vms=1, seed=1.5, estimate_noise=0.1)
    for bad in (True, False, "2", [2.0]):
        with pytest.raises(ValueError, match="lambda"):
            SimConfig(num_vms=1, lam=bad)
    assert SimConfig(num_vms=1, lam=2).lam == 2
    assert SimConfig(num_vms=1, seed=7, lam=0.5).seed == 7


def test_config_rejects_settings_of_the_wrong_type():
    # sync=None once ran on default SyncParams but reported "sync": null;
    # energy=None and a dict for sync died mid-run on an AttributeError
    for name, bad in (("sync", None), ("energy", None),
                      ("sync", {"rtt_us": 5})):
        with pytest.raises(ValueError, match=name):
            SimConfig(num_vms=1, **{name: bad})


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("name", ["p_cpu_mobile", "p_net_mobile", "p_idle"])
def test_energy_params_reject_non_finite_powers(name, bad):
    # a NaN power once reached the report as "energy_j": NaN, invalid JSON
    with pytest.raises(ValueError, match=name):
        EnergyParams(**{name: bad})
