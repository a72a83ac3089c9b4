"""Decision engine: platform estimates, argmin with tie ranks, commit-iff-edge."""

import random

import pytest

from echo_sched import engine
from echo_sched.engine import decide, estimate, fastest
from echo_sched.model import CostProfile, Platform, Task
from echo_sched.scheduler import VmQueue, best_vm
from conftest import edge_ready, mk_task, sec


def test_estimate_examples():
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0)
    t_mobile, t_cloud = estimate(task)
    assert t_mobile == sec(10)
    assert t_cloud == sec(6)
    free = mk_task("t1", r_mobile=0.0, up_cloud=0.0, r_cloud=0.0,
                   down_cloud=0.0)
    assert estimate(free) == (0, 0)


def test_decide_edge_commits_and_sets_deadline():
    # device 10s, cloud 6s, edge 1 + 4 + 0.5 = 5.5s: edge wins and the
    # admission deadline is the no-edge alternative (6s)
    queues = [VmQueue(0)]
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, up_edge=1.0, r_edge=4.0, down_edge=0.5)
    decision = decide(task, queues, edge_ready(task))
    assert decision.platform is Platform.EDGE
    assert decision.vm_index == 0
    assert decision.predicted_completion == sec(5.5)
    assert decision.deadline == sec(6)
    # committed: work queued, input arrives after the upload leg,
    # queue-level deadline excludes the download leg
    assert queues[0].future_chunks == (("t0", sec(4)),)
    assert queues[0].entry("t0").ready == sec(1)
    assert queues[0].entry("t0").deadline == sec(5.5)


def test_decide_tie_prefers_edge():
    queues = [VmQueue(0)]
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, up_edge=1.0, r_edge=4.0, down_edge=0.5)
    decision = decide(task, queues, edge_ready(task, delay=sec(0.5)))
    assert decision.platform is Platform.EDGE
    assert decision.predicted_completion == sec(6)  # exactly the cloud time


def test_decide_cloud_leaves_queue_untouched():
    # zero-slack 5s task saturates the single VM; the newcomer's trial
    # lands at 9s > its 6s cloud alternative, so the cloud wins and the
    # queue must be exactly as before
    queues = [VmQueue(0)]
    filler = mk_task("f", r_mobile=5.0, up_cloud=9.0, r_cloud=9.0,
                     down_cloud=9.0, r_edge=5.0)
    assert decide(filler, queues, edge_ready(filler)).platform is Platform.EDGE
    before_chunks = queues[0].future_chunks
    before_version = queues[0].version
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, r_edge=4.0)
    decision = decide(task, queues, edge_ready(task))
    assert decision.platform is Platform.CLOUD
    assert decision.predicted_completion == sec(6)
    assert decision.vm_index is None and decision.deadline is None
    assert queues[0].future_chunks == before_chunks == (("f", sec(5)),)
    assert queues[0].version == before_version


def test_decide_runs_no_trial_when_the_edge_cannot_win(monkeypatch):
    # ready + r_edge + down_edge = 1 + 4 + 1.5 s misses the 6 s cloud
    # time by 0.5 s on any queue, so the edge is never tried; 1 s of
    # download less and the bound is met exactly, the trial runs, and the
    # edge wins the tie
    queues = [VmQueue(0), VmQueue(1)]
    tried = []
    monkeypatch.setattr(engine, "best_vm",
                        lambda *args: tried.append(args) or best_vm(*args))
    late = mk_task("t0", 1.0, r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, up_edge=1.0, r_edge=4.0, down_edge=1.5)
    decision = decide(late, queues, edge_ready(late))
    assert decision.platform is Platform.CLOUD
    assert tried == []
    assert [q.now for q in queues] == [0, 0]
    fits = mk_task("t1", 1.0, r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, up_edge=1.0, r_edge=4.0, down_edge=1.0)
    decision = decide(fits, queues, edge_ready(fits))
    assert decision.platform is Platform.EDGE
    assert decision.predicted_completion == decision.deadline == sec(7)
    assert len(tried) == 1


def test_decide_mobile_when_not_offloadable():
    queues = [VmQueue(0)]
    task = mk_task("t0", r_mobile=10.0, r_edge=0.1, up_cloud=0.1,
                   r_cloud=0.1, down_cloud=0.1, offloadable=False)
    decision = decide(task, queues, edge_ready(task))
    assert decision.platform is Platform.MOBILE
    assert decision.predicted_completion == sec(10)
    assert decision.vm_index is None and decision.deadline is None
    assert queues[0].future_chunks == ()
    assert queues[0].version == 0


def test_decide_without_vms_is_two_way():
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, r_edge=0.1)
    decision = decide(task, [], edge_ready(task))
    assert decision.platform is Platform.CLOUD
    assert decision.vm_index is None and decision.deadline is None
    # with a VM the same task would have gone to the edge
    assert (decide(task, [VmQueue(0)], edge_ready(task)).platform
            is Platform.EDGE)
    slow_cloud = mk_task("t1", r_mobile=5.0, up_cloud=2.0, r_cloud=3.0,
                         down_cloud=1.0)
    assert (decide(slow_cloud, [], edge_ready(slow_cloud)).platform
            is Platform.MOBILE)


def test_decide_mobile_cloud_tie_prefers_cloud():
    task = mk_task("t0", r_mobile=6.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0)
    assert decide(task, [], edge_ready(task)).platform is Platform.CLOUD


def test_fastest_breaks_ties_edge_then_cloud_then_device():
    assert fastest(6, 6, 6) is Platform.EDGE
    assert fastest(7, 6, 6) is Platform.EDGE
    assert fastest(6, 6, 7) is Platform.CLOUD
    assert fastest(6, 6, None) is Platform.CLOUD
    assert fastest(6, 7, 6) is Platform.EDGE
    assert fastest(5, 6, 6) is Platform.MOBILE
    assert fastest(5, 6, None) is Platform.MOBILE


def test_upload_override_shifts_ready_time():
    queues = [VmQueue(0)]
    task = mk_task("t0", r_mobile=10.0, up_cloud=2.0, r_cloud=3.0,
                   down_cloud=1.0, up_edge=1.0, r_edge=4.0)
    decision = decide(task, queues, edge_ready(task, upload=sec(0.25)))
    assert decision.platform is Platform.EDGE
    assert decision.predicted_completion == sec(4.25)
    assert queues[0].entry("t0").ready == sec(0.25)


def test_decisions_are_deterministic():
    def run():
        queues = [VmQueue(0), VmQueue(1)]
        out = []
        for i in range(8):
            task = mk_task(f"t{i}", arrival=float(i), r_mobile=6.0 + i,
                           r_edge=2.0 + (i % 3), up_cloud=1.0, r_cloud=3.0,
                           down_cloud=1.0)
            for q in queues:
                q.advance(task.arrival)
            out.append(decide(task, queues, edge_ready(task)))
        return out
    assert run() == run()


def test_noise_distorts_reproducibly_and_stays_bounded():
    # Both tasks share the id that keys the noise.  The non-offloadable
    # one predicts the noisy device estimate; the other's device is so
    # slow that it predicts the noisy cloud estimate.
    local = mk_task("t0", r_mobile=10.0, offloadable=False)
    remote = mk_task("t0", r_mobile=1000.0, up_cloud=2.0, r_cloud=3.0,
                     down_cloud=1.0)

    def noisy(task):
        return decide(task, [], edge_ready(task), estimate_noise=0.3,
                      noise_seed=7)

    assert noisy(local) == noisy(local)
    assert noisy(remote) == noisy(remote)
    assert noisy(remote).platform is Platform.CLOUD
    t_mobile = noisy(local).predicted_completion
    t_cloud = noisy(remote).predicted_completion
    assert t_mobile > 0 and t_cloud > 0
    assert abs(t_mobile - sec(10)) <= sec(3) + 1
    assert abs(t_cloud - sec(6)) <= sec(1.8) + 1


def test_choice_invariant_under_uniform_scaling():
    rng = random.Random(33)
    for _ in range(150):
        durations = [rng.randrange(0, 5000) * 1000 for _ in range(7)]
        if durations[0] == 0:
            durations[0] = 1000  # keep the device option meaningful
        for scale in (2, 5):
            base = CostProfile(*durations)
            scaled = CostProfile(*(d * scale for d in durations))
            t1 = Task(id="a", user_id="u", app="x", arrival=0, profile=base)
            t2 = Task(id="a", user_id="u", app="x", arrival=0, profile=scaled)
            chosen1 = decide(t1, [VmQueue(0)], edge_ready(t1)).platform
            chosen2 = decide(t2, [VmQueue(0)], edge_ready(t2)).platform
            assert chosen1 is chosen2


def test_edge_admissions_always_meet_their_deadline():
    # drive the engine directly over a random arrival stream and check
    # realized edge completions against the promised bound
    rng = random.Random(5)
    queues = [VmQueue(0), VmQueue(1)]
    now = 0
    placed = []
    for i in range(150):
        now += rng.randrange(0, 1200) * 1000
        for q in queues:
            q.advance(now)
        task = mk_task(
            f"t{i}", arrival=now / 1e6,
            r_mobile=rng.randrange(2000, 9000) / 1000,
            r_edge=rng.randrange(200, 4000) / 1000,
            r_cloud=rng.randrange(200, 4000) / 1000,
            up_edge=rng.randrange(0, 400) / 1000,
            down_edge=rng.randrange(0, 400) / 1000,
            up_cloud=rng.randrange(400, 1500) / 1000,
            down_cloud=rng.randrange(400, 1500) / 1000,
        )
        decision = decide(task, queues, edge_ready(task))
        if decision.platform is Platform.EDGE:
            assert decision.predicted_completion <= decision.deadline
            placed.append((task, decision))
    assert placed, "stream never chose the edge"
    horizon = max(q.horizon() for q in queues)
    for q in queues:
        q.advance(horizon)
    for task, decision in placed:
        entry = queues[decision.vm_index].entry(task.id)
        assert entry.remaining == 0
        exec_end = entry.end
        # later preemptions may push the task back, but never past the bound
        completion = exec_end + task.profile.down_edge
        assert completion >= decision.predicted_completion
        assert completion <= decision.deadline, task.id
