"""Property-based checks of the simulator on generated small traces.

(d) run() equals the 1 ms step oracle: every edge record's ready, start,
completion and waiting match a VM that ticks through the committed
schedules, on ms-aligned draws with bursts of simultaneous arrivals,
`up_edge >= up_cloud` mixed in, a provision delay, 1-4 VMs and
non-offloadable tasks.

(a, e) Without estimate noise, echo never places an offloadable task
where it finishes later than on the better of the device and the cloud,
priced with the task's *true* profile, and no SchedulerError escapes
run().  Draws are µs-granular, with edge runs of exactly 1 µs, bursts,
`up_edge >= up_cloud` mixed in, a provision delay, 1-4 VMs,
non-offloadable tasks, and upload bytes that make echo's lazy edge
upload differ from the profiled leg.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echo_sched.model import CostProfile, Task
from echo_sched.sim import SimConfig, run
from conftest import step_oracle_run

MS = 1000


def ms(lo: int, hi: int):
    return st.integers(lo, hi).map(lambda v: v * MS)


@st.composite
def ms_tasks(draw):
    n = draw(st.integers(1, 10))
    tasks = []
    arrival = 0
    for i in range(n):
        # a zero gap puts this task in a burst with the previous one
        arrival += draw(st.one_of(st.just(0), ms(0, 1000)))
        r_edge = draw(ms(1, 3000))
        up_cloud = draw(ms(200, 2000))
        if draw(st.integers(0, 3)) == 0:
            up_edge = up_cloud + draw(ms(0, 500))
        else:
            up_edge = draw(ms(0, 500))
        # the device runs no faster than a VM, so the edge competes
        profile = CostProfile(
            r_mobile=r_edge + draw(ms(0, 6000)), r_edge=r_edge,
            r_cloud=draw(ms(100, 5000)), up_edge=up_edge,
            down_edge=draw(ms(0, 500)), up_cloud=up_cloud,
            down_cloud=draw(ms(200, 2000)))
        offloadable = draw(st.integers(0, 9)) != 0
        tasks.append(Task(id=f"t{i}", user_id=f"u{i % 3}", app="x",
                          arrival=arrival, profile=profile,
                          offloadable=offloadable))
    return tasks


@pytest.mark.parametrize("policy", ["echo", "mcloud"])
@settings(derandomize=True, max_examples=150, deadline=None, database=None)
@given(tasks=ms_tasks(), num_vms=st.integers(1, 4),
       provision_delay=st.one_of(st.just(0), ms(1, 200)))
def test_run_equals_step_oracle(policy, tasks, num_vms, provision_delay):
    config = SimConfig(num_vms=num_vms, provision_delay=provision_delay)
    step_oracle_run(tasks, policy, config, dt=MS)


@st.composite
def us_tasks(draw):
    n = draw(st.integers(1, 10))
    tasks = []
    arrival = 0
    for i in range(n):
        arrival += draw(st.one_of(st.just(0), st.integers(0, 1_000_000)))
        r_edge = draw(st.one_of(st.just(1), st.integers(1, 3_000_000)))
        up_cloud = draw(st.integers(200_000, 2_000_000))
        if draw(st.integers(0, 3)) == 0:
            up_edge = up_cloud + draw(st.integers(0, 500_000))
        else:
            up_edge = draw(st.integers(0, 500_000))
        down_edge = draw(st.integers(0, 500_000))
        # The device is offset from the profiled edge legs, so a small
        # draw leaves an edge placement almost no slack.
        profile = CostProfile(
            r_mobile=up_edge + r_edge + down_edge
            + draw(st.integers(0, 6_000_000)),
            r_edge=r_edge, r_cloud=draw(st.integers(100_000, 5_000_000)),
            up_edge=up_edge, down_edge=down_edge, up_cloud=up_cloud,
            down_cloud=draw(st.integers(200_000, 2_000_000)),
            upload_bytes=draw(st.integers(0, 2_000_000)))
        offloadable = draw(st.integers(0, 9)) != 0
        # few (user, app) pairs, so repeat offloads pay deltas
        tasks.append(Task(id=f"t{i}", user_id=f"u{i % 3}", app="x",
                          arrival=arrival, profile=profile,
                          offloadable=offloadable))
    return tasks


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(tasks=us_tasks(), num_vms=st.integers(1, 4),
       provision_delay=st.integers(0, 200_000))
def test_echo_never_loses_to_the_true_no_edge_bound(tasks, num_vms,
                                                    provision_delay):
    config = SimConfig(num_vms=num_vms, provision_delay=provision_delay)
    report = run(tasks, "echo", config)
    by_id = {task.id: task for task in tasks}
    for r in report.records:
        task = by_id[r.task_id]
        if not task.offloadable:
            continue
        p = task.profile
        bound = min(p.r_mobile, p.up_cloud + p.r_cloud + p.down_cloud)
        assert r.completion - r.arrival <= bound, (r.task_id, r.platform)
