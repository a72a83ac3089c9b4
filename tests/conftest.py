"""Shared test helpers: task builders and the tick-stepping oracles.

step_completions() re-derives per-task completion times of one VM's chunk
schedule by walking a fixed-size clock tick by tick, never using the
scheduler's packing arithmetic.  Scheduler and simulator tests freeze
expected values against it.

step_oracle_run() does the same for a whole simulation: it drives run()
with a policy wrapper that ticks every VM between arrivals, then asserts
that each edge record's realized times equal the ticked ones.

reference_trial() is what trial_insert() should return, re-derived from
the scheduler's module docstring by evicting one µs of work at a time and
re-packing after every µs, never using the scheduler's repair arithmetic.

edge_ready() and DEFAULTS are the ready instant and the config that
run() would pass to a policy's decide(), for tests that call it directly.

cli_env() is the environment for a CLI child process, so that the child
imports the same echo_sched as the test process.
"""

from __future__ import annotations

import os
from pathlib import Path

import echo_sched
from echo_sched.model import CostProfile, Platform, Task, from_seconds
from echo_sched.policies import build_policy
from echo_sched.sim import SimConfig, SimReport, run
from echo_sched.traceio import TraceFile

SEC = from_seconds(1.0)


def sec(value: float) -> int:
    return from_seconds(value)


def cli_env() -> dict[str, str]:
    """os.environ with the imported package's source root first on PYTHONPATH.

    CLI tests run their child in a temporary directory, where a relative
    PYTHONPATH such as ``src`` no longer resolves; an absolute root derived
    from echo_sched.__file__ also wins over any other installed copy.
    """
    env = dict(os.environ)
    src = str(Path(echo_sched.__file__).resolve().parent.parent)
    rest = env.get("PYTHONPATH")
    env["PYTHONPATH"] = os.pathsep.join([src, rest]) if rest else src
    return env


def mk_profile(r_mobile=10.0, r_edge=4.0, r_cloud=3.5, up_edge=0.0,
               down_edge=0.0, up_cloud=1.0, down_cloud=1.0,
               upload_bytes=0, download_bytes=0) -> CostProfile:
    return CostProfile(
        r_mobile=sec(r_mobile),
        r_edge=sec(r_edge),
        r_cloud=sec(r_cloud),
        up_edge=sec(up_edge),
        down_edge=sec(down_edge),
        up_cloud=sec(up_cloud),
        down_cloud=sec(down_cloud),
        upload_bytes=upload_bytes,
        download_bytes=download_bytes,
    )


def mk_task(task_id: str, arrival=0.0, offloadable=True, user_id="u00",
            app="test", **profile_kwargs) -> Task:
    return Task(
        id=task_id,
        user_id=user_id,
        app=app,
        arrival=sec(arrival),
        profile=mk_profile(**profile_kwargs),
        offloadable=offloadable,
    )


def edge_ready(task: Task, delay: int = 0, upload: int | None = None) -> int:
    """The ready instant run() passes to decide() for `task`: its arrival,
    plus a provision delay, plus the upload leg (profiled unless given)."""
    if upload is None:
        upload = task.profile.up_edge
    return task.arrival + delay + upload


# the settings a policy reads from the run's config, at their defaults
DEFAULTS = SimConfig(num_vms=1)


def chunk_ids(chunks) -> tuple[tuple[str, int], ...]:
    """(TaskEntry, work) chunks, a queue's or a trial's, as (task_id, work)."""
    return tuple((entry.id, w) for entry, w in chunks)


def step_completions(chunks, ready, now, dt=1000):
    """Tick-based completion times for an ordered chunk schedule.

    chunks: sequence of (task_id, work_us) in queue order; ready maps task
    ids to their earliest start.  Work and gaps are consumed dt at a time,
    so every duration involved must be a multiple of dt.  Returns the end
    time of each task's last chunk.
    """
    ends: dict[str, int] = {}
    t = now
    for tid, work in chunks:
        if work % dt:
            raise AssertionError(f"work {work} not a multiple of dt {dt}")
        while t < ready[tid]:
            t += dt
        left = work
        while left:
            t += dt
            left -= dt
        ends[tid] = t
    return ends


def _packed_ends(chunks, info, now):
    """Chunk ends and task ends of chunks packed from `now`: a chunk starts
    at its task's ready time or at the previous chunk's end, if later."""
    chunk_ends, task_ends = [], {}
    t = now
    for tid, work in chunks:
        t = max(t, info[tid][0]) + work
        chunk_ends.append(t)
        task_ends[tid] = t
    return chunk_ends, task_ends


def _merged(chunks):
    merged: list[list] = []
    for tid, work in chunks:
        if merged and merged[-1][0] == tid:
            merged[-1][1] += work
        else:
            merged.append([tid, work])
    return merged


def reference_trial(queue, task, ready, deadline):
    """(chunk ids, completion, tail, delta_t) of trial_insert(queue, ...).

    The newcomer goes ahead of the first queued task with more remaining
    work.  Then, while an admitted task other than the newcomer is past
    its deadline, the first such task in queue order, the violator, has
    work evicted one µs at a time, always the last µs of the latest
    chunk before its last chunk that is neither its own nor below the
    floor, re-packing after every µs, until it ends exactly on its
    deadline.  The evicted work goes in queue order right after the
    violator, where the next floor starts.  If nothing is left to evict,
    or the violator ends before its deadline, the newcomer is appended at
    the tail instead, delaying nobody.
    """
    now, work = queue.now, task.profile.r_edge
    chunks = [[entry.id, w] for entry, w in queue._chunks]
    info = {tid: (queue.entry(tid).ready, queue.entry(tid).deadline)
            for tid, _ in chunks}
    info[task.id] = (ready, deadline)
    remaining: dict[str, int] = {}
    for tid, w in chunks:
        remaining[tid] = remaining.get(tid, 0) + w
    old_chunk_ends, old_ends = _packed_ends(chunks, info, now)
    end = max(ready, old_chunk_ends[-1] if chunks else now) + work
    appended = ((*map(tuple, chunks), (task.id, work)), end, end,
                end - task.arrival)
    at = next((i for i, (tid, _) in enumerate(chunks)
               if remaining[tid] > work), None)
    if at is None:
        return appended
    candidate = chunks[:at] + [[task.id, work]] + chunks[at:]
    floor = 0
    while True:
        chunk_ends, ends = _packed_ends(candidate, info, now)
        late = [tid for tid, _ in candidate if tid != task.id
                and info[tid][1] is not None and ends[tid] > info[tid][1]]
        if not late:
            break
        violator, limit = late[0], info[late[0]][1]
        last = max(i for i, (tid, _) in enumerate(candidate)
                   if tid == violator)
        evicted: list[str] = []  # one task id per µs, latest first
        while ends[violator] > limit:
            movable = [i for i in range(floor, last)
                       if candidate[i][0] != violator]
            if not movable:
                return appended
            source = candidate[movable[-1]]
            source[1] -= 1
            evicted.append(source[0])
            if not source[1]:
                del candidate[movable[-1]]
                last -= 1
            _, ends = _packed_ends(candidate, info, now)
        if ends[violator] < limit:
            return appended
        floor = last + 1
        candidate[floor:floor] = _merged((tid, 1) for tid in reversed(evicted))
    candidate = _merged(candidate)
    delay = sum(ends[tid] - old for tid, old in old_ends.items())
    return (tuple(map(tuple, candidate)), ends[task.id], chunk_ends[-1],
            ends[task.id] - task.arrival + delay)


class _SteppedVm:
    """Ticks through one VM's committed schedule dt at a time.

    State is rebuilt from the queue only at commit points (the schedule is
    the scheduler's to decide); everything between commits, including when
    each chunk runs, waits and finishes, is re-derived here one tick at a
    time.
    """

    def __init__(self, dt: int):
        self.dt = dt
        self.items: list[list] = []      # [task_id, remaining work] queue order
        self.ready: dict[str, int] = {}
        self.totals: dict[str, int] = {}
        self.first: dict[str, int] = {}
        self.done: dict[str, int] = {}

    def resync(self, queue) -> None:
        self.items = [[entry.id, w] for entry, w in queue._chunks]
        for tid, _ in self.items:
            if tid not in self.ready:
                self.ready[tid] = queue.entry(tid).ready
                self.totals[tid] = queue.entry(tid).remaining
            if self.ready[tid] % self.dt:
                raise ValueError(
                    f"dt={self.dt} does not divide ready time of {tid!r}")

    def step_until(self, t_from: int, t_to: int) -> None:
        t = t_from
        dt = self.dt
        items = self.items
        while t < t_to:
            while items and items[0][1] == 0:
                items.pop(0)
            if not items:
                break
            tid = items[0][0]
            if self.ready[tid] <= t:
                if tid not in self.first:
                    self.first[tid] = t
                items[0][1] -= dt
                self.totals[tid] -= dt
                t += dt
                if self.totals[tid] == 0:
                    assert tid not in self.done, f"{tid!r} completed twice"
                    self.done[tid] = t
            else:
                t += dt

    def drain(self, t_from: int) -> None:
        t = t_from
        while any(rem for _, rem in self.items):
            self.step_until(t, t + self.dt)
            t += self.dt


class StepOracle:
    """Policy wrapper that ticks every VM from one arrival to the next.

    run() calls decide() once per arrival, and the policy advances a
    queue's clock only when it reads that queue.  The wrapper first ticks
    its own VMs up to the task's arrival, then delegates; on an edge
    placement it resyncs the chosen VM from the committed queue, which
    the policy advanced before placing the task.
    """

    def __init__(self, inner, num_vms: int, dt: int):
        self.inner = inner
        self.name = inner.name
        self.transfer_model = inner.transfer_model
        self.dt = dt
        self.vms = [_SteppedVm(dt) for _ in range(num_vms)]
        self.clock = 0

    def decide(self, task, queues, ready, config):
        for vm in self.vms:
            vm.step_until(self.clock, task.arrival)
        self.clock = task.arrival
        if ready % self.dt:
            raise ValueError(f"dt={self.dt} does not divide the ready "
                             f"instant of task {task.id!r}: {ready}")
        decision = self.inner.decide(task, queues, ready, config)
        if decision.platform is Platform.EDGE:
            self.vms[decision.vm_index].resync(queues[decision.vm_index])
        return decision


def step_oracle_run(trace, policy, config: SimConfig,
                    dt: int = 1000) -> SimReport:
    """run() with every edge execution re-derived by dt-stepping.

    Every arrival, profile duration, provision delay, effective upload and
    ready instant must be a multiple of dt (ValueError otherwise).  Asserts
    that each edge record's ready, start, completion and waiting equal the
    ticked values, that every edge task completed exactly once, and that
    the wrapped run reports exactly what a plain run does.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    tasks = trace.tasks if isinstance(trace, TraceFile) else trace
    for task in tasks:
        p = task.profile
        for value in (task.arrival, p.r_mobile, p.r_edge, p.r_cloud,
                      p.up_edge, p.down_edge, p.up_cloud, p.down_cloud):
            if value % dt:
                raise ValueError(f"dt={dt} does not divide a cost of task "
                                 f"{task.id!r}: {value}")
    if config.provision_delay % dt:
        raise ValueError(f"dt={dt} does not divide provision_delay")
    inner = build_policy(policy) if isinstance(policy, str) else policy
    oracle = StepOracle(inner, config.num_vms, dt)
    report = run(tasks, oracle, config)
    for vm in oracle.vms:
        vm.drain(oracle.clock)

    profiles = {task.id: task.profile for task in tasks}
    edge = [r for r in report.records if r.vm_index is not None]
    for r in edge:
        vm = oracle.vms[r.vm_index]
        assert r.task_id in vm.done, f"{r.task_id!r} never finished"
        end = vm.done[r.task_id]
        p = profiles[r.task_id]
        ticked = (vm.ready[r.task_id], vm.first[r.task_id],
                  end + p.down_edge, end - vm.ready[r.task_id] - p.r_edge)
        assert (r.ready, r.start, r.completion, r.waiting) == ticked, r.task_id
    completed = sorted(tid for vm in oracle.vms for tid in vm.done)
    assert completed == sorted(r.task_id for r in edge)
    assert report.to_dict() == run(tasks, policy, config).to_dict()
    return report

