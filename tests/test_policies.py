"""Baseline placement policies and the policy registry."""

import random

import pytest

from echo_sched.model import Platform
from echo_sched.policies import POLICY_NAMES, build_policy
from echo_sched.scheduler import VmQueue
from conftest import DEFAULTS, edge_ready, mk_task, sec


def test_policy_registry():
    assert POLICY_NAMES == ("end-only", "cloud-always", "thinkair",
                            "mcloud", "echo")
    for name in POLICY_NAMES:
        assert build_policy(name).name == name
    with pytest.raises(ValueError):
        build_policy("nope")


def test_end_only_always_runs_locally():
    policy = build_policy("end-only")
    task = mk_task("t0", r_mobile=280.38, r_edge=0.1, up_cloud=0.1,
                   r_cloud=0.1, down_cloud=0.1)
    decision = policy.decide(task, [VmQueue(0)], edge_ready(task), DEFAULTS)
    assert decision.platform is Platform.MOBILE
    assert decision.predicted_completion == sec(280.38)


def test_cloud_always_offloads_even_when_slower():
    policy = build_policy("cloud-always")
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0)
    decision = policy.decide(task, [], edge_ready(task), DEFAULTS)
    assert decision.platform is Platform.CLOUD
    assert decision.predicted_completion == sec(6)
    # cloud round trip 18.77s vs 15.14s locally: offloads regardless
    slow = mk_task("t1", r_mobile=15.14, up_cloud=12.5, r_cloud=2.77,
                   down_cloud=3.5)
    assert (policy.decide(slow, [], edge_ready(slow), DEFAULTS).platform
            is Platform.CLOUD)


def test_cloud_always_respects_pinned_tasks():
    policy = build_policy("cloud-always")
    task = mk_task("t0", offloadable=False)
    assert (policy.decide(task, [], edge_ready(task), DEFAULTS).platform
            is Platform.MOBILE)


def test_thinkair_compares_cloud_to_device_only():
    policy = build_policy("thinkair")
    faster = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                     down_cloud=1.0)
    assert (policy.decide(faster, [], edge_ready(faster), DEFAULTS).platform
            is Platform.CLOUD)
    slower = mk_task("t1", r_mobile=15.14, up_cloud=12.5, r_cloud=2.77,
                     down_cloud=3.5)
    assert (policy.decide(slower, [], edge_ready(slower), DEFAULTS).platform
            is Platform.MOBILE)
    # exact tie stays local: offloading must strictly help
    tie = mk_task("t2", r_mobile=6.0, up_cloud=2.0, r_cloud=3.0,
                  down_cloud=1.0)
    assert (policy.decide(tie, [], edge_ready(tie), DEFAULTS).platform
            is Platform.MOBILE)
    assert (policy.decide(tie, [VmQueue(0)], edge_ready(tie),
                          DEFAULTS).platform is Platform.MOBILE)


def test_thinkair_never_touches_edge_queues():
    policy = build_policy("thinkair")
    queues = [VmQueue(0)]
    task = mk_task("t0", r_mobile=10.0, r_edge=0.1, up_cloud=2.0,
                   r_cloud=3.0, down_cloud=1.0)
    policy.decide(task, queues, edge_ready(task), DEFAULTS)
    assert queues[0].future_chunks == ()


def test_mcloud_uses_queue_blind_estimate():
    policy = build_policy("mcloud")
    queues = [VmQueue(0)]
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, up_edge=1.0, r_edge=3.0, down_edge=1.0)
    decision = policy.decide(task, queues, edge_ready(task), DEFAULTS)
    assert decision.platform is Platform.EDGE
    assert decision.vm_index == 0
    assert decision.predicted_completion == sec(5)
    assert decision.deadline is None
    assert queues[0].future_chunks == (("t0", sec(3)),)
    assert queues[0].entry("t0").ready == sec(1)
    assert queues[0].entry("t0").deadline is None


def test_mcloud_picks_least_loaded_vm():
    policy = build_policy("mcloud")
    queues = [VmQueue(0), VmQueue(1)]
    queues[0].append_fifo(mk_task("f", r_edge=5.0), 0)
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, r_edge=1.0)
    assert (policy.decide(task, queues, edge_ready(task), DEFAULTS).vm_index
            == 1)
    tied = [VmQueue(0), VmQueue(1)]
    assert policy.decide(task, tied, edge_ready(task), DEFAULTS).vm_index == 0


def test_mcloud_ignores_contention_and_overshoots():
    # a 100s job saturates the VM, yet the naive estimate still promises
    # 5s; the real completion is two orders of magnitude later
    policy = build_policy("mcloud")
    queues = [VmQueue(0)]
    heavy = mk_task("a", r_mobile=150.0, up_cloud=10.0, r_cloud=90.0,
                    down_cloud=10.0, r_edge=100.0)
    assert (policy.decide(heavy, queues, edge_ready(heavy), DEFAULTS).platform
            is Platform.EDGE)
    quick = mk_task("b", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                    down_cloud=1.0, up_edge=1.0, r_edge=3.0, down_edge=1.0)
    decision = policy.decide(quick, queues, edge_ready(quick), DEFAULTS)
    assert decision.platform is Platform.EDGE
    assert decision.predicted_completion == sec(5)
    queues[0].advance(sec(200))
    assert queues[0].entry("b").remaining == 0
    completion = queues[0].entry("b").end + quick.profile.down_edge
    assert completion == sec(104)
    # the deadline-aware engine would have sent this task to the cloud
    # (6s) rather than promise what the queue cannot deliver
    assert completion > sec(6)


def test_mcloud_shares_the_engine_tie_order():
    # mcloud shares the engine's argmin: edge beats an equal cloud, and
    # the cloud beats an equal device
    mcloud = build_policy("mcloud")
    edge_cloud = mk_task("ec", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                         down_cloud=1.0, up_edge=1.0, r_edge=4.0,
                         down_edge=1.0)
    assert (mcloud.decide(edge_cloud, [VmQueue(0)], edge_ready(edge_cloud),
                          DEFAULTS).platform is Platform.EDGE)
    cloud_mobile = mk_task("cm", r_mobile=6.0, up_cloud=2.0, r_cloud=3.0,
                           down_cloud=1.0, up_edge=1.0, r_edge=9.0,
                           down_edge=1.0)
    for queues in ([VmQueue(0)], []):
        decision = mcloud.decide(cloud_mobile, queues,
                                 edge_ready(cloud_mobile), DEFAULTS)
        assert decision.platform is Platform.CLOUD


def test_echo_policy_wraps_the_decision_engine():
    policy = build_policy("echo")
    queues = [VmQueue(0)]
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, up_edge=1.0, r_edge=4.0, down_edge=0.5)
    decision = policy.decide(task, queues, edge_ready(task), DEFAULTS)
    assert decision.platform is Platform.EDGE
    assert decision.predicted_completion == sec(5.5)
    assert decision.deadline == sec(6)
    assert queues[0].entry("t0").deadline == sec(5.5)


def test_echo_keeps_the_no_edge_bound():
    # a zero-slack 100s admission saturates the VM: the newcomer cannot
    # preempt it, would finish at 104s on the edge, and echo sends it to
    # the cloud instead, keeping the 6s bound
    policy = build_policy("echo")
    queues = [VmQueue(0)]
    filler = mk_task("f", r_mobile=100.0, r_edge=100.0, up_cloud=40.0,
                     r_cloud=40.0, down_cloud=40.0)
    assert (policy.decide(filler, queues, edge_ready(filler),
                          DEFAULTS).platform is Platform.EDGE)
    assert queues[0].entry("f").deadline == sec(100)
    task = mk_task("b", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, up_edge=1.0, r_edge=3.0, down_edge=1.0)
    decision = policy.decide(task, queues, edge_ready(task), DEFAULTS)
    assert decision.platform is Platform.CLOUD
    assert decision.predicted_completion == sec(6)
    assert queues[0].future_chunks == (("f", sec(100)),)


def test_echo_equals_mcloud_without_contention():
    # on an empty cluster the trial-based and the queue-blind edge
    # estimates coincide, so the platform choice must too
    rng = random.Random(77)
    for _ in range(120):
        kwargs = dict(
            r_mobile=rng.randrange(1, 8000) / 1000,
            r_edge=rng.randrange(1, 5000) / 1000,
            r_cloud=rng.randrange(1, 5000) / 1000,
            up_edge=rng.randrange(0, 800) / 1000,
            down_edge=rng.randrange(0, 800) / 1000,
            up_cloud=rng.randrange(0, 2000) / 1000,
            down_cloud=rng.randrange(0, 2000) / 1000,
        )
        task = mk_task("t", **kwargs)
        ready = edge_ready(task)
        a = build_policy("echo").decide(task, [VmQueue(0)], ready, DEFAULTS)
        b = build_policy("mcloud").decide(task, [VmQueue(0)], ready, DEFAULTS)
        assert a.platform is b.platform, kwargs
        assert a.predicted_completion == b.predicted_completion


def test_provision_delay_shifts_edge_readiness():
    queues = [VmQueue(0)]
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, up_edge=1.0, r_edge=3.0)
    policy = build_policy("mcloud")
    policy.decide(task, queues, edge_ready(task, delay=sec(0.5)), DEFAULTS)
    assert queues[0].entry("t0").ready == sec(1.5)
