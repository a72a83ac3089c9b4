"""Property-based checks of the simulator on generated small traces.

(d) run() equals the 1 ms step oracle: every edge record's ready, start,
completion and waiting match a VM that ticks through the committed
schedules, on ms-aligned draws with bursts of simultaneous arrivals,
`up_edge >= up_cloud` mixed in, a provision delay, 1-4 VMs and
non-offloadable tasks.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echo_sched.model import CostProfile, Task
from echo_sched.sim import SimConfig
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
