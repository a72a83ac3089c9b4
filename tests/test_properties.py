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

(b, c) Through the scheduler's own API, random trial_insert / commit /
advance / append_fifo sequences on 1-3 queues raise nothing but
LateTrialError.  After every placement, every queued task's stored end
equals its ticked end, every admitted task's ticked end is at or before
its deadline and no queued task's end moved earlier; after every
operation, the work a 1 µs tick oracle executed plus the queue's pending
work equals the work admitted.

(f) best_vm's early exit is exact: on random admission and best-effort
sessions over 1-4 queues, it returns the trial a full trial_insert scan
of the same advanced queues picks (least growth, lowest index).

(g) Lazy clocks compose: on random sessions, advance(a) then advance(b)
leaves a queue exactly as advance(b) alone does.

(h) load(at) reads the schedule right: on random sessions of best-effort
appends ready after the horizon, trials with commits and advances, it
equals the pending work of a copy advanced to `at`.

(i) engine.decide skips the edge trials exactly: on the traces of (a)
and (d), with estimate noise or none, echo's records equal those of a reference
decide that runs best_vm for every offloadable arrival.

(j) The writers' templates are json's bytes: on arbitrary text (NUL,
quotes, backslashes, CR/LF, U+2028, lone surrogates) and non-negative
ints, each task line save() writes equals json.dumps of
dataclasses.asdict(task), and write_json equals json.dumps of to_dict().

(k) trial_insert picks the schedule its docstrings state: on random
single-queue sessions of appends, trials, commits and advances with
times of a few µs, each trial's chunks, completion, tail and growth equal
conftest's reference_trial, which evicts one µs at a time.

The session strategies draw their length first: derandomized, a bare
st.lists draw keeps most sessions a few ops long, too short to fill a
queue.
"""

import copy
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echo_sched import engine
from echo_sched.model import CostProfile, Decision, Platform, Task
from echo_sched.policies import DeadlineAwareEdgePolicy
from echo_sched.scheduler import (LateTrialError, VmQueue, best_vm, commit,
                                  trial_insert)
from echo_sched.sim import SimConfig, SimReport, TaskRecord, run
from echo_sched.traceio import TraceFile, save
from conftest import (_SteppedVm, chunk_ids, reference_trial,
                      step_completions, step_oracle_run)

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


@st.composite
def queue_sessions(draw):
    """(VM count, ops): µs-sized work, ready offsets and deadline slacks,
    negative slacks included so that some commits must be refused."""
    n_vms = draw(st.integers(1, 3))
    vm = st.integers(0, n_vms - 1)
    work, offset = st.integers(1, 20), st.integers(0, 10)
    op = st.one_of(
        st.tuples(st.just("advance"), vm, st.integers(0, 30)),
        st.tuples(st.just("fifo"), vm, work, offset),
        st.tuples(st.just("trial"), vm, work, offset,
                  st.one_of(st.none(), st.integers(-5, 40)), st.booleans()))
    n = draw(st.integers(1, 30))
    return n_vms, draw(st.lists(op, min_size=n, max_size=n))


def ticked_ends(queue, ready):
    return step_completions(queue.future_chunks, ready, queue.now, dt=1)


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(session=queue_sessions())
def test_library_api_keeps_deadlines_and_conserves_work(session):
    n_vms, ops = session
    queues = [VmQueue(i) for i in range(n_vms)]
    oracles = [_SteppedVm(1) for _ in range(n_vms)]
    work_of: dict[str, int] = {}
    ready: dict[str, int] = {}
    deadlines: dict[str, int] = {}
    for i, (kind, vm, *args) in enumerate(ops):
        queue, oracle = queues[vm], oracles[vm]
        if kind == "advance":
            oracle.step_until(queue.now, queue.now + args[0])
            queue.advance(queue.now + args[0])
        else:
            tid, work, at = f"t{i}", args[0], queue.now + args[1]
            task = Task(id=tid, user_id="u", app="x", arrival=queue.now,
                        profile=CostProfile(0, work, 0, 0, 0, 0, 0))
            before = ticked_ends(queue, ready)
            placed = kind == "fifo"
            if placed:
                queue.append_fifo(task, at)
            else:
                slack, keep = args[2:]
                deadline = None if slack is None else at + work + slack
                trial = trial_insert(queue, task, at, deadline)
                chunks = queue.future_chunks
                try:
                    if keep:
                        commit(trial)
                        placed = True
                except LateTrialError:
                    assert trial.candidate_completion > deadline
                    assert queue.future_chunks == chunks
                if placed and deadline is not None:
                    deadlines[tid] = deadline
            if placed:
                work_of[tid], ready[tid] = work, at
                oracle.resync(queue)
                after = ticked_ends(queue, ready)
                assert all(queue.entry(t).end == end
                           for t, end in after.items()), tid
                assert all(after[t] >= end for t, end in before.items()), tid
                assert all(end <= deadlines[t] for t, end in after.items()
                           if t in deadlines), tid
        for q, o in zip(queues, oracles):
            pending = q.load(q.now)
            assert pending == sum(w for _, w in q.future_chunks)
            executed = sum(work_of[t] - left for t, left in o.totals.items())
            assert executed + pending == sum(work_of[t] for t in o.totals)
            assert all(end <= deadlines[t] for t, end in o.done.items()
                       if t in deadlines)


@st.composite
def placement_sessions(draw):
    """(VM count, ops): arrivals `gap` µs apart, each appended best-effort
    to one VM or placed through best_vm.  Work, ready offsets and deadline
    slacks are a few µs, so trials often tie or miss the least growth by
    one µs, and negative slacks leave some placements late."""
    n_vms = draw(st.integers(1, 4))
    work, offset, gap = st.integers(1, 6), st.integers(0, 4), st.integers(0, 4)
    op = st.one_of(
        st.tuples(st.just("fifo"), gap, work, offset,
                  st.integers(0, n_vms - 1)),
        st.tuples(st.just("place"), gap, work, offset,
                  st.one_of(st.none(), st.integers(-2, 12))))
    n = draw(st.integers(1, 25))
    return n_vms, draw(st.lists(op, min_size=n, max_size=n))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(session=placement_sessions())
def test_best_vm_returns_what_a_full_scan_returns(session):
    n_vms, ops = session
    queues = [VmQueue(i) for i in range(n_vms)]
    now = 0
    for i, (kind, gap, work, offset, arg) in enumerate(ops):
        now += gap
        task = Task(id=f"t{i}", user_id="u", app="x", arrival=now,
                    profile=CostProfile(0, work, 0, 0, 0, 0, 0))
        ready = now + offset
        if kind == "fifo":
            queues[arg].advance(now)
            queues[arg].append_fifo(task, ready)
            continue
        deadline = None if arg is None else ready + work + arg
        for queue in queues:
            queue.advance(now)
        trials = [trial_insert(queue, task, ready, deadline)
                  for queue in queues]
        full = min(trials, key=lambda trial: trial.delta_t)
        chosen = best_vm(queues, task, ready, deadline)
        assert ((chosen.vm_index, chosen.delta_t, chosen.candidate_completion,
                 chunk_ids(chosen.candidate_chunks))
                == (full.vm_index, full.delta_t, full.candidate_completion,
                    chunk_ids(full.candidate_chunks))), i
        if deadline is None or chosen.candidate_completion <= deadline:
            commit(chosen)


@st.composite
def clock_sessions(draw):
    """Ops on one queue: best-effort appends, admissions with a deadline
    or none, and advances by two offsets from the queue's clock."""
    work, offset = st.integers(1, 20), st.integers(0, 10)
    op = st.one_of(
        st.tuples(st.just("fifo"), work, offset),
        st.tuples(st.just("trial"), work, offset,
                  st.one_of(st.none(), st.integers(0, 40))),
        st.tuples(st.just("advance"), st.integers(0, 30), st.integers(0, 30)))
    n = draw(st.integers(1, 40))
    return draw(st.lists(op, min_size=n, max_size=n))


def clock_state(queue, ids):
    return (queue.now, queue.future_chunks, queue.load(queue.now), queue.horizon(),
            [(queue.entry(tid).first_start, queue.entry(tid).end,
              queue.entry(tid).remaining) for tid in ids])


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(ops=clock_sessions())
def test_advance_in_two_steps_equals_one(ops):
    stepped, direct = VmQueue(0), VmQueue(0)
    ids: list[str] = []
    for i, (kind, *args) in enumerate(ops):
        now = direct.now
        if kind == "advance":
            a, b = sorted(args)
            stepped.advance(now + a)
            stepped.advance(now + b)
            direct.advance(now + b)
        else:
            tid, work, ready = f"t{i}", args[0], now + args[1]
            task = Task(id=tid, user_id="u", app="x", arrival=now,
                        profile=CostProfile(0, work, 0, 0, 0, 0, 0))
            for queue in (stepped, direct):
                if kind == "fifo":
                    queue.append_fifo(task, ready)
                    continue
                deadline = None if args[2] is None else ready + work + args[2]
                trial = trial_insert(queue, task, ready, deadline)
                if deadline is None or trial.candidate_completion <= deadline:
                    commit(trial)
            # a task just placed has all of its work pending
            if any(t == tid for t, _ in direct.future_chunks):
                ids.append(tid)
        assert clock_state(stepped, ids) == clock_state(direct, ids), i


@st.composite
def load_sessions(draw):
    """Ops on one queue: best-effort appends whose ready offsets often
    pass the horizon, admissions with a deadline or none, advances, and
    load reads at offsets from the queue's clock."""
    work, offset = st.integers(1, 20), st.integers(0, 60)
    op = st.one_of(
        st.tuples(st.just("fifo"), work, offset),
        st.tuples(st.just("trial"), work, offset,
                  st.one_of(st.none(), st.integers(0, 40))),
        st.tuples(st.just("advance"), st.integers(0, 30)),
        st.tuples(st.just("load"), st.integers(0, 80)))
    n = draw(st.integers(1, 30))
    return draw(st.lists(op, min_size=n, max_size=n))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(ops=load_sessions())
def test_load_equals_the_pending_work_of_an_advanced_copy(ops):
    queue = VmQueue(0)
    for i, (kind, *args) in enumerate(ops):
        now = queue.now
        if kind == "advance":
            queue.advance(now + args[0])
        elif kind == "load":
            at = now + args[0]
            advanced = copy.deepcopy(queue)
            advanced.advance(at)
            expected = sum(w for _, w in advanced.future_chunks)
            assert queue.load(at) == expected, i
        else:
            work, ready = args[0], now + args[1]
            task = Task(id=f"t{i}", user_id="u", app="x", arrival=now,
                        profile=CostProfile(0, work, 0, 0, 0, 0, 0))
            if kind == "fifo":
                queue.append_fifo(task, ready)
                continue
            deadline = None if args[2] is None else ready + work + args[2]
            trial = trial_insert(queue, task, ready, deadline)
            if deadline is None or trial.candidate_completion <= deadline:
                commit(trial)


class AlwaysTrialEcho(DeadlineAwareEdgePolicy):
    """engine.decide without its skip: every offloadable arrival trials
    the edge, and the edge wins only if it is the fastest."""

    def decide(self, task, queues, ready, config):
        now = task.arrival
        t_mobile, t_cloud = engine.estimate(task)
        if config.estimate_noise:
            t_mobile = engine._distort(t_mobile, task.id, config.seed,
                                       config.estimate_noise)
            t_cloud = engine._distort(t_cloud, task.id + "/c", config.seed,
                                      config.estimate_noise)
        if not task.offloadable:
            return Decision(Platform.MOBILE, now + t_mobile)
        p = task.profile
        horizon = now + min(t_mobile, t_cloud)
        trial = best_vm(queues, task, ready, horizon - p.down_edge)
        t_edge = (trial.candidate_completion - now) + p.down_edge
        chosen = engine.fastest(t_mobile, t_cloud, t_edge)
        if chosen is Platform.EDGE:
            commit(trial)
            return Decision(Platform.EDGE, now + t_edge,
                            vm_index=trial.vm_index, deadline=horizon)
        return Decision(chosen, now + (t_cloud if chosen is Platform.CLOUD
                                       else t_mobile))


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(tasks=st.one_of(us_tasks(), ms_tasks()), num_vms=st.integers(1, 4),
       provision_delay=st.integers(0, 200_000),
       noise=st.sampled_from([0.0, 0.0, 0.1, 0.3]))
def test_skipped_edge_trials_change_no_record(tasks, num_vms, provision_delay,
                                              noise):
    config = SimConfig(num_vms=num_vms, provision_delay=provision_delay,
                       estimate_noise=noise, seed=3)
    report = run(tasks, "echo", config)
    reference = run(tasks, AlwaysTrialEcho(), config)
    assert report.records == reference.records
    assert report.aggregates == reference.aggregates


# Any text json can hold, weighted toward what the escaper must get right.
odd_text = st.text(st.one_of(
    st.sampled_from('"\\\x00\x1f\r\n\t\u2028\u2029\x7f\xe9,{}'),
    st.characters(min_codepoint=0xD800, max_codepoint=0xDFFF),
    st.characters()), max_size=8)
durations = st.integers(0, 2**63)


@st.composite
def odd_tasks(draw):
    n = draw(st.integers(1, 4))
    return [Task(f"{draw(odd_text)}#{i}", draw(odd_text), draw(odd_text),
                 draw(durations),
                 CostProfile(draw(durations), draw(st.integers(1, 2**63)),
                             *(draw(durations) for _ in range(7))),
                 draw(st.booleans()))
            for i in range(n)]


@st.composite
def odd_records(draw):
    optional = st.one_of(st.none(), durations)
    return [TaskRecord(draw(odd_text), draw(odd_text), draw(odd_text),
                       draw(durations), draw(odd_text), draw(optional),
                       *(draw(durations) for _ in range(5)),
                       draw(optional), draw(st.one_of(st.none(), st.booleans())),
                       draw(durations), draw(durations), draw(st.floats()))
            for _ in range(draw(st.integers(0, 3)))]


@settings(derandomize=True, max_examples=200, deadline=None, database=None)
@given(tasks=odd_tasks(), records=odd_records())
def test_writers_equal_the_json_references(tasks, records, tmp_path_factory):
    path = tmp_path_factory.getbasetemp() / "written"
    save(TraceFile(header={}, tasks=tasks), path)
    lines = path.read_text().splitlines(keepends=True)
    assert lines[1:] == [
        json.dumps(dataclasses.asdict(task), sort_keys=True,
                   separators=(",", ":")) + "\n" for task in tasks]
    report = SimReport(policy="echo", config={}, aggregates={},
                       records=records)
    report.write_json(path)
    assert path.read_text() == json.dumps(report.to_dict(), sort_keys=True,
                                          indent=2) + "\n"


@st.composite
def repair_sessions(draw):
    """Up to 30 ops on one queue with times of a few µs: best-effort
    appends, advances, and twice as many trials, with a deadline or none,
    committed or dropped.  Ready offsets open idle gaps, and zero slack is
    drawn often, so repairs split chunks, evict whole ones, tie and fail."""
    work, offset = st.integers(1, 9), st.integers(0, 9)
    slack = st.one_of(st.none(), st.just(0), st.integers(0, 12))
    ops = []
    for _ in range(draw(st.integers(1, 30))):
        kind = draw(st.sampled_from(("fifo", "trial", "trial", "advance")))
        if kind == "advance":
            ops.append((kind, draw(st.integers(0, 9))))
        elif kind == "fifo":
            ops.append((kind, draw(work), draw(offset)))
        else:
            ops.append((kind, draw(work), draw(offset), draw(slack),
                        draw(st.booleans())))
    return ops


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(ops=repair_sessions())
def test_trials_equal_the_unit_step_reference(ops):
    queue = VmQueue(0)
    for i, (kind, *args) in enumerate(ops):
        now = queue.now
        if kind == "advance":
            queue.advance(now + args[0])
            continue
        work, ready = args[0], now + args[1]
        task = Task(id=f"t{i}", user_id="u", app="x", arrival=now,
                    profile=CostProfile(0, work, 0, 0, 0, 0, 0))
        if kind == "fifo":
            queue.append_fifo(task, ready)
            continue
        slack, keep = args[2:]
        deadline = None if slack is None else ready + work + slack
        expected = reference_trial(queue, task, ready, deadline)
        trial = trial_insert(queue, task, ready, deadline)
        last = trial.candidate_chunks[-1][0]
        tail = trial.ends.get(last, last.end)
        assert (chunk_ids(trial.candidate_chunks), trial.candidate_completion,
                tail, trial.delta_t) == expected, i
        if keep and (deadline is None
                     or trial.candidate_completion <= deadline):
            commit(trial)
