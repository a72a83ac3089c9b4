"""Per-VM queue: SRTF insertion, deadline repair, eviction, commit/advance.

Expected schedules in the frozen examples are re-derived with the
tick-stepping oracle from conftest; the repair regressions pin down exact
chunk layouts worked out by hand.
"""

import random

import pytest

from echo_sched import scheduler
from echo_sched.model import CostProfile, Task
from echo_sched.scheduler import (
    LateTrialError,
    SchedulerError,
    StaleTrialError,
    VmQueue,
    best_vm,
    commit,
    trial_insert,
)
from conftest import SEC, chunk_ids, sec, step_completions


def task_us(tid: str, work: int, arrival: int = 0) -> Task:
    profile = CostProfile(r_mobile=0, r_edge=work, r_cloud=0, up_edge=0,
                          down_edge=0, up_cloud=0, down_cloud=0)
    return Task(id=tid, user_id="u00", app="test", arrival=arrival,
                profile=profile)


def admit(queue: VmQueue, tid: str, work: int, ready: int,
          deadline: int | None, arrival: int | None = None):
    task = task_us(tid, work, ready if arrival is None else arrival)
    trial = trial_insert(queue, task, ready, deadline)
    commit(trial)
    return trial


def oracle_ends(queue: VmQueue, dt: int = 1000) -> dict[str, int]:
    ready = {entry.id: entry.ready for entry, _ in queue._chunks}
    return step_completions(chunk_ids(queue._chunks), ready, queue.now, dt)


def trial_ends(queue: VmQueue, trial, dt: int = 1000) -> dict[str, int]:
    """Ticked ends of the trial's candidate schedule on its source queue."""
    ready = {entry.id: entry.ready for entry, _ in queue._chunks}
    ready[trial.entry.id] = trial.entry.ready
    return step_completions(chunk_ids(trial.candidate_chunks), ready,
                            queue.now, dt)


def assert_totals(queue: VmQueue, dt: int = 1000) -> None:
    """The running load() and horizon() equal a recount from the chunks."""
    assert queue.load(queue.now) == sum(w for _, w in queue._chunks)
    ends = oracle_ends(queue, dt)
    assert queue.horizon() == max(ends.values(), default=queue.now)


def assert_entries(queue: VmQueue) -> None:
    """Each chunk holds its task's entry, and every entry's remaining work
    is the work of its task's future chunks (0 once none is left)."""
    future: dict[str, int] = {}
    for entry, w in queue._chunks:
        assert entry is queue.entry(entry.id)
        future[entry.id] = future.get(entry.id, 0) + w
    for tid, entry in queue._entries.items():
        assert entry.remaining == future.get(tid, 0), tid


# ---------------------------------------------------------------- queries


def test_remaining_work_of_running_task():
    q = VmQueue(0)
    admit(q, "a", sec(10), 0, None)
    q.advance(sec(2))
    assert q.entry("a").remaining == sec(8)


def test_remaining_work_of_queued_task():
    q = VmQueue(0)
    admit(q, "a", sec(10), 0, None)
    admit(q, "b", sec(5), 0, None)
    assert q.entry("b").remaining == sec(5)


def test_remaining_work_sums_future_segments():
    # task split by an advance: 2s done, 3s still scheduled
    q = VmQueue(0)
    admit(q, "a", sec(5), 0, None)
    q.advance(sec(2))
    assert q.entry("a").remaining == sec(3)
    future = sum(w for entry, w in q._chunks if entry.id == "a")
    assert future == sec(3)
    assert q.load(q.now) == sec(3)


# ---------------------------------------------------------------- trials


def test_trial_into_empty_queue():
    q = VmQueue(0)
    task = task_us("n", sec(4))
    trial = trial_insert(q, task, 0, sec(50))
    assert chunk_ids(trial.candidate_chunks) == (("n", sec(4)),)
    assert trial.entry.end == sec(4)
    assert trial.delta_t == sec(4)
    assert trial.repair_iterations == 0
    # trial must not touch the source queue
    assert chunk_ids(q._chunks) == ()
    assert q.version == 0


def test_trial_preempts_longer_task():
    # queued: 8s of work with a loose deadline; newcomer needs 3s
    q = VmQueue(0)
    admit(q, "j1", sec(8), 0, sec(98))
    trial = trial_insert(q, task_us("n", sec(3)), 0, None)
    assert chunk_ids(trial.candidate_chunks) == (
        ("n", sec(3)), ("j1", sec(8)))
    assert trial.entry.end == sec(3)
    assert trial.delta_t == sec(6)  # 3s response + 3s inflicted on j1
    assert trial.repair_iterations == 0
    ends = step_completions(chunk_ids(trial.candidate_chunks),
                            {"n": 0, "j1": 0}, 0)
    assert ends == {"n": sec(3), "j1": sec(11)}


def test_trial_repair_splits_newcomer_around_deadline():
    # j1: 10s of work, must finish by 12s; 2s already executed when a
    # 3s newcomer arrives.  Only 2s of the newcomer fits before j1's
    # last admissible start; the rest lands after j1.
    q = VmQueue(0)
    admit(q, "j1", sec(10), 0, sec(12))
    q.advance(sec(2))
    assert q.entry("j1").remaining == sec(8)
    trial = trial_insert(q, task_us("n", sec(3), arrival=sec(2)), sec(2), None)
    assert chunk_ids(trial.candidate_chunks) == (
        ("n", sec(2)), ("j1", sec(8)), ("n", sec(1)))
    assert trial.entry.end == sec(13)
    assert trial.repair_iterations == 1
    ends = step_completions(chunk_ids(trial.candidate_chunks),
                            {"n": sec(2), "j1": 0}, sec(2))
    assert ends == {"n": sec(13), "j1": sec(12)}
    # growth: newcomer response 11s, j1 pushed from 10s to exactly its
    # deadline (+2s)
    assert trial.delta_t == sec(13)


def test_trial_repair_respects_ready_gap():
    # b: 6s of work due by 13s.  The newcomer's work can only start at
    # 6s, so the 5s in front of b is part gap, part newcomer; evicting
    # the whole newcomer chunk would overshoot.  Exactly 4s must move.
    q = VmQueue(0)
    admit(q, "b", sec(6), 0, sec(13))
    trial = trial_insert(q, task_us("n", sec(5)), sec(6), None)
    assert chunk_ids(trial.candidate_chunks) == (
        ("n", sec(1)), ("b", sec(6)), ("n", sec(4)))
    assert trial.repair_iterations == 1
    ends = step_completions(chunk_ids(trial.candidate_chunks),
                            {"n": sec(6), "b": 0}, 0)
    assert ends == {"n": sec(17), "b": sec(13)}  # b lands on its deadline
    assert trial.entry.end == sec(17)
    assert trial.delta_t == sec(24)  # 17s response + 7s inflicted on b


def test_trial_repair_evicts_whole_chunks_then_part_of_one():
    # a (9s, ready at 2s, due 16s) runs behind b (6s, best effort).  A 4s
    # newcomer ready at 4s goes first and pushes a to 23s.  Evicting all of
    # b pulls a in to 17s; 1s of the newcomer then lands a on 16s.  The
    # second eviction is priced from the same pack as the first.
    q = VmQueue(0)
    admit(q, "a", sec(9), sec(2), sec(16))
    admit(q, "b", sec(6), 0, None)
    assert chunk_ids(q._chunks) == (("b", sec(6)), ("a", sec(9)))
    trial = trial_insert(q, task_us("n", sec(4)), sec(4), sec(9))
    assert chunk_ids(trial.candidate_chunks) == (
        ("n", sec(3)), ("a", sec(9)), ("n", sec(1)), ("b", sec(6)))
    assert trial.repair_iterations == 1
    ends = trial_ends(q, trial)
    assert ends == {"n": sec(17), "a": sec(16), "b": sec(23)}
    assert trial.entry.end == sec(17)
    assert trial.delta_t == sec(35)  # 17s response + 1s on a + 17s on b


def test_trial_repair_takes_part_of_a_chunk_when_the_whole_also_lands():
    # t1 (8s, ready at 2s, due 10s) runs ahead of t2 (9s, due 19s).  A 5s
    # newcomer ready at 0 goes first and pushes t1 to 13s.  Evicting all
    # of t3 would also land t1 on 10s, since t1 waits for its ready time,
    # but 3s are just enough: t3's other 2s run in the gap before t1.
    # Round two moves those 3s behind t2, which ends exactly on 19s.
    q = VmQueue(0)
    admit(q, "t2", sec(9), 0, sec(19))
    admit(q, "t1", sec(8), sec(2), sec(10))
    assert chunk_ids(q._chunks) == (("t1", sec(8)), ("t2", sec(9)))
    trial = trial_insert(q, task_us("t3", sec(5)), 0, sec(20))
    assert chunk_ids(trial.candidate_chunks) == (
        ("t3", sec(2)), ("t1", sec(8)), ("t2", sec(9)), ("t3", sec(3)))
    assert trial.repair_iterations == 2
    assert trial_ends(q, trial) == {"t3": sec(22), "t1": sec(10),
                                    "t2": sec(19)}
    assert trial.entry.end == sec(22)
    assert trial.delta_t == sec(22)  # nobody else delayed


def test_trial_repair_slides_every_chunk_of_the_violator():
    # b is split around a: (b 1s, a 4s, b 2s) at 6s.  A 2s newcomer ready
    # at 9s goes first, and b, the first late task, ends at 18s, not 13s.
    # Evicting a pulls b in to 14s; b's first chunk then slides with its
    # last, so evicting 1s of the newcomer lands b on 13s.  Round two finds
    # a at 18s (due 11s) with only that 1s movable behind pinned b, and the
    # trial falls back to a tail append.
    q = VmQueue(0)
    q.advance(sec(3))
    admit(q, "a", sec(7), sec(3), sec(11))
    q.advance(sec(6))
    admit(q, "b", sec(3), sec(6), sec(13))
    assert chunk_ids(q._chunks) == (
        ("b", sec(1)), ("a", sec(4)), ("b", sec(2)))
    trial = trial_insert(q, task_us("n", sec(2), arrival=sec(6)), sec(9),
                         sec(11))
    assert chunk_ids(trial.candidate_chunks) == (
        ("b", sec(1)), ("a", sec(4)), ("b", sec(2)), ("n", sec(2)))
    assert trial.repair_iterations == 2
    assert trial.entry.end == sec(15)
    assert trial.delta_t == sec(9)


def test_trial_falls_back_to_append_when_unrepairable():
    # same shape, tighter deadline: the required eviction would have to
    # straddle the newcomer's ready gap, so no amount lands b exactly on
    # 12s.  The insertion is abandoned for a tail append.
    q = VmQueue(0)
    admit(q, "b", sec(6), 0, sec(12))
    trial = trial_insert(q, task_us("n", sec(5)), sec(6), None)
    assert chunk_ids(trial.candidate_chunks) == (("b", sec(6)), ("n", sec(5)))
    assert trial.repair_iterations == 1
    ends = step_completions(chunk_ids(trial.candidate_chunks),
                            {"n": sec(6), "b": 0}, 0)
    assert ends == {"b": sec(6), "n": sec(11)}
    assert trial.delta_t == sec(11)  # nobody else delayed


def test_trial_repair_checks_tasks_beyond_first_violator():
    # m (3s, due 5s) ahead of k (10s, due 14s).  A 2s newcomer displaces
    # both; repairing k parks 1s of m behind k, which blows m's deadline
    # with nothing left to evict.  The whole insertion must be abandoned.
    q = VmQueue(0)
    admit(q, "k", sec(10), 0, sec(14))
    admit(q, "m", sec(3), 0, sec(5))
    assert chunk_ids(q._chunks) == (("m", sec(3)), ("k", sec(10)))
    trial = trial_insert(q, task_us("n", sec(2)), 0, None)
    assert chunk_ids(trial.candidate_chunks) == (
        ("m", sec(3)), ("k", sec(10)), ("n", sec(2)))
    assert trial.repair_iterations == 2
    ends = trial_ends(q, trial)
    assert ends["m"] == sec(3) and ends["k"] == sec(13)
    assert trial.delta_t == sec(15)


def test_trial_rejects_ready_before_now():
    q = VmQueue(0)
    q.advance(sec(1))
    with pytest.raises(SchedulerError, match="ready"):
        trial_insert(q, task_us("n", sec(1)), 0, None)


def test_trial_rejects_duplicate_task():
    q = VmQueue(0)
    admit(q, "a", sec(1), 0, None)
    with pytest.raises(SchedulerError, match="already"):
        trial_insert(q, task_us("a", sec(1)), 0, None)


def test_late_own_deadline_is_reported_not_hidden():
    # a saturated queue of zero-slack work: the newcomer lands past its
    # own deadline and the trial says so; rejecting is the caller's call.
    q = VmQueue(0)
    admit(q, "a", sec(10), 0, sec(10))
    trial = trial_insert(q, task_us("n", sec(4)), 0, sec(9))
    assert trial.entry.end == sec(14)
    assert trial.entry.end > trial.entry.deadline


# ---------------------------------------------------------------- best_vm


def test_best_vm_picks_smallest_growth():
    queues = [VmQueue(i) for i in range(3)]
    for q, load in zip(queues, (9, 12, 10)):
        admit(q, f"f{q.vm_index}", sec(load), 0, None)
    # 20s of work appends everywhere; growth 29/32/30 seconds
    deltas = [trial_insert(q, task_us("n", sec(20)), 0, None).delta_t
              for q in queues]
    assert deltas == [sec(29), sec(32), sec(30)]
    trial = best_vm(queues, task_us("n", sec(20)), 0, None)
    assert trial.vm_index == 0
    assert trial.delta_t == sec(29)


def test_best_vm_tie_goes_to_lowest_index():
    queues = [VmQueue(0), VmQueue(1)]
    assert best_vm(queues, task_us("n", sec(2)), 0, None).vm_index == 0


def test_best_vm_prefers_idle_vm():
    queues = [VmQueue(0), VmQueue(1)]
    admit(queues[0], "f", sec(5), 0, None)
    trial = best_vm(queues, task_us("n", sec(2)), 0, None)
    assert trial.vm_index == 1
    assert trial.delta_t == sec(2)


def test_best_vm_stops_at_the_first_trial_that_reaches_the_least_growth(
        monkeypatch):
    # The newcomer (work 3, ready 4) can grow completion by no less than 7.
    tried: list[int] = []
    real = scheduler.trial_insert

    def counted(queue, *args):
        tried.append(queue.vm_index)
        return real(queue, *args)

    monkeypatch.setattr(scheduler, "trial_insert", counted)

    def pick(queues):
        tried.clear()
        return best_vm(queues, task_us("n", 3), 4, None)

    def busy(vm_index):  # ends 1 us after the newcomer is ready
        queue = VmQueue(vm_index)
        queue.append_fifo(task_us(f"f{vm_index}", 2), 3)
        return queue

    trial = pick([VmQueue(i) for i in range(4)])
    assert (trial.vm_index, trial.delta_t, tried) == (0, 7, [0])
    trial = pick([busy(0), VmQueue(1), VmQueue(2)])
    assert (trial.vm_index, trial.delta_t, tried) == (1, 7, [0, 1])
    trial = pick([busy(0), busy(1)])
    assert (trial.vm_index, trial.delta_t, tried) == (0, 8, [0, 1])


def test_best_vm_requires_at_least_one_queue():
    with pytest.raises(SchedulerError):
        best_vm([], task_us("n", sec(1)), 0, None)


# ---------------------------------------------------------------- commit


def test_commit_applies_trial_exactly():
    q = VmQueue(0)
    admit(q, "a", sec(4), 0, None)
    trial = trial_insert(q, task_us("b", sec(2)), 0, None)
    # a trial names its queue and the version it was computed against
    assert (trial.queue, trial.version, trial.vm_index) == (q, q.version, 0)
    commit(trial)
    assert chunk_ids(q._chunks) == chunk_ids(trial.candidate_chunks)
    assert q.entry("b") is trial.entry and trial.entry.end == sec(2)
    assert q.entry("b").deadline is None
    assert q.entry("b").ready == 0


def test_commit_rejects_stale_trial():
    q = VmQueue(0)
    admit(q, "a", sec(4), 0, None)
    trial = trial_insert(q, task_us("b", sec(2)), sec(1), None)
    q.advance(sec(1))  # queue moved on; the trial's packing is stale
    with pytest.raises(StaleTrialError):
        commit(trial)


def test_commit_refuses_a_newcomer_past_its_own_deadline():
    # Behind 5 s of work a 6 s task cannot meet an 8 s deadline.  Once
    # committed anyway, repair pinned 'b' at 8 s and the next preempting
    # trial raised "insertion of 'c' pulled 'b' earlier".
    q = VmQueue(0)
    admit(q, "a", sec(5), 0, None)
    late = trial_insert(q, task_us("b", sec(6)), 0, sec(8))
    assert late.entry.end == sec(11)
    version = q.version
    with pytest.raises(LateTrialError, match="'b'"):
        commit(late)
    assert issubclass(LateTrialError, SchedulerError)
    assert q.version == version and chunk_ids(q._chunks) == (("a", sec(5)),)
    admit(q, "c", sec(1), 0, None)
    assert oracle_ends(q) == {"c": sec(1), "a": sec(6)}


def test_commit_accepts_a_newcomer_ending_on_its_deadline():
    q = VmQueue(0)
    admit(q, "a", sec(5), 0, None)
    trial = admit(q, "b", sec(6), 0, sec(11))
    assert trial.entry.end == sec(11) == oracle_ends(q)["b"]


# ---------------------------------------------------------------- advance


def test_advance_runs_and_completes_work():
    q = VmQueue(0)
    admit(q, "a", sec(10), 0, None)
    q.advance(sec(2))
    assert q.entry("a").remaining == sec(8)
    assert q.entry("a").first_start == 0
    assert q.entry("a").end == sec(10)  # running it moves no end
    q.advance(sec(12))
    assert q.entry("a").remaining == 0
    assert q.entry("a").end == sec(10)
    assert q.load(q.now) == 0


def test_advance_waits_for_ready_gate():
    q = VmQueue(0)
    admit(q, "a", sec(2), sec(2), None)
    q.advance(sec(3))
    assert q.entry("a").remaining == sec(1)  # idle until 2s, ran 1s
    assert q.entry("a").first_start == sec(2)
    assert q.entry("a").end == sec(4)
    q.advance(sec(5))
    assert q.entry("a").remaining == 0
    assert q.entry("a").end == sec(4)


def test_advance_rejects_going_backwards():
    q = VmQueue(0)
    q.advance(sec(1))
    with pytest.raises(SchedulerError):
        q.advance(0)


def test_advance_same_instant_is_a_no_op():
    q = VmQueue(0)
    admit(q, "a", sec(1), 0, None)
    version = q.version
    q.advance(q.now)
    assert q.entry("a").first_start is None
    assert q.entry("a").remaining == sec(1)
    assert q.entry("a").end == sec(1)
    assert q.version == version


# ------------------------------------------------------------- properties


def _random_session(seed: int, n_vms: int, n_tasks: int, unit: int = 1000):
    """Drive trial/commit sequences with random tasks.

    Every drawn duration is a multiple of `unit` microseconds, and the tick
    oracle steps by `unit`.

    Admission mimics the decision engine: commit only when the newcomer
    itself meets its deadline.  Checks, per trial: growth equals direct
    summation over per-task delays, no queued task is pulled earlier, no
    queued deadline is violated, the trial's completion and growth match
    the tick oracle's ends, and repair rounds stay bounded.  After every
    advance and commit, each chunk holds its task's entry and each entry's
    remaining work is its future chunks' work.  At the end, every
    completed task met its deadline.
    """
    rng = random.Random(seed)
    queues = [VmQueue(i) for i in range(n_vms)]
    now = 0
    deadlines: dict[str, int] = {}
    admitted = 0
    for i in range(n_tasks):
        now += rng.randrange(0, 1500) * unit
        for q in queues:
            q.advance(now)
            assert_totals(q, unit)
            assert_entries(q)
        work = rng.randrange(1, 4000) * unit
        ready = now + rng.randrange(0, 400) * unit
        if rng.random() < 0.2:
            deadline = None
        else:
            deadline = ready + work + rng.randrange(0, 2500) * unit
        task = task_us(f"t{i}", work, arrival=now)

        trials = [trial_insert(q, task, ready, deadline) for q in queues]
        chosen = best_vm(queues, task, ready, deadline)
        vm = chosen.vm_index
        assert chosen.delta_t == min(t.delta_t for t in trials)
        assert vm == min(i for i, t in enumerate(trials)
                         if t.delta_t == chosen.delta_t)

        for q, trial in zip(queues, trials):
            old = oracle_ends(q, unit)
            new = trial_ends(q, trial, unit)
            assert new[task.id] == trial.entry.end
            growth = new[task.id] - task.arrival
            for tid, end in old.items():
                inflicted = new[tid] - end
                assert inflicted >= 0, f"{tid} pulled earlier (seed {seed})"
                growth += inflicted
            assert growth == trial.delta_t
            for tid in new:
                if tid == task.id:
                    continue
                limit = q.entry(tid).deadline
                if limit is not None:
                    assert new[tid] <= limit, f"{tid} late in candidate"
            assert trial.repair_iterations <= len(set(
                entry.id for entry, _ in q._chunks)) + 2

            if trial.repair_iterations == 0:
                # plain SRTF placement: whoever got displaced had strictly
                # more remaining work than the newcomer
                chunks = chunk_ids(trial.candidate_chunks)
                pos = next(j for j, (tid, _) in enumerate(chunks)
                           if tid == task.id)
                if pos + 1 <= len(chunks) - 1 and chunks[-1][0] != task.id:
                    displaced = chunks[pos + 1][0]
                    assert q.entry(displaced).remaining > work

        if deadline is None or chosen.entry.end <= deadline:
            commit(chosen)
            assert_totals(queues[vm], unit)
            assert_entries(queues[vm])
            if deadline is not None:
                deadlines[task.id] = (vm, deadline)
            admitted += 1

    horizon = max(q.horizon() for q in queues)
    for q in queues:
        q.advance(horizon)
        assert q.load(q.now) == 0
        assert_totals(q, unit)
        assert_entries(q)
    for tid, (vm, limit) in deadlines.items():
        entry = queues[vm].entry(tid)
        assert entry.remaining == 0
        done = entry.end
        assert done <= limit, f"{tid} missed deadline (seed {seed})"
    return admitted


def test_random_sessions_hold_invariants():
    admitted = 0
    for seed in range(25):
        admitted += _random_session(seed, 1 + seed % 3, 12)
    assert admitted > 150  # the loop must actually exercise admissions


def test_random_sessions_off_the_millisecond_grid():
    # Microsecond-granular durations: partial evictions land off the
    # millisecond grid and are still checked against the tick oracle.
    admitted = 0
    for seed in range(1000, 1200):
        admitted += _random_session(seed, 1 + seed % 3, 12, unit=1)
    assert admitted > 1200


def test_long_session_soak():
    _random_session(seed=424242, n_vms=2, n_tasks=60)


def _mixed_session(seed: int, n_vms: int, n_tasks: int) -> int:
    """Interleave best-effort FIFO appends with trial/commit admissions.

    FIFO tasks go to the least-loaded VM, as the mcloud policy places them.
    Every append_fifo return and every trial's completion must equal the
    tick oracle's end of the new task, and load() and horizon() must
    match a recount after every advance, append and commit.  Returns the
    number of appends.
    """
    rng = random.Random(seed)
    queues = [VmQueue(i) for i in range(n_vms)]
    now = 0
    appended = 0
    for i in range(n_tasks):
        now += rng.randrange(0, 1500) * 1000
        for q in queues:
            q.advance(now)
            assert_totals(q)
        work = rng.randrange(1, 4000) * 1000
        ready = now + rng.randrange(0, 400) * 1000
        task = task_us(f"t{i}", work, arrival=now)
        if rng.random() < 0.5:
            q = min(queues, key=lambda v: (v.load(v.now), v.vm_index))
            end = q.append_fifo(task, ready)
            assert end == oracle_ends(q)[task.id], f"seed {seed}"
            assert_totals(q)
            appended += 1
            continue
        deadline = (None if rng.random() < 0.3
                    else ready + work + rng.randrange(0, 2500) * 1000)
        trial = best_vm(queues, task, ready, deadline)
        assert (trial_ends(queues[trial.vm_index], trial)[task.id]
                == trial.entry.end), f"seed {seed}"
        if deadline is None or trial.entry.end <= deadline:
            commit(trial)
            assert_totals(queues[trial.vm_index])
    horizon = max(q.horizon() for q in queues)
    for q in queues:
        q.advance(horizon)
        assert q.load(q.now) == 0
        assert_totals(q)
    return appended


def test_fifo_appends_mixed_with_admissions_keep_totals():
    appended = sum(_mixed_session(seed, 1 + seed % 3, 16) for seed in range(20))
    assert appended > 100  # the sessions must actually exercise appends


class _Unwalkable(list):
    """A chunk list that fails the test when anything iterates over it."""

    def __iter__(self):
        raise AssertionError("pending chunks walked")


def count_packs(monkeypatch) -> list[int]:
    """Count scheduler._pack calls in the returned one-item list."""
    calls = [0]
    pack = scheduler._pack

    def counting_pack(*args):
        calls[0] += 1
        return pack(*args)

    monkeypatch.setattr(scheduler, "_pack", counting_pack)
    return calls


def test_fifo_appends_never_repack(monkeypatch):
    # A queue fed only by append_fifo, as mcloud feeds it, answers load()
    # and horizon() from its pending total and its last entry's stored end:
    # summing or packing its chunks made each mcloud arrival cost
    # O(queue length).
    calls = count_packs(monkeypatch)
    q = VmQueue(0)
    for i in range(1000):
        end = q.append_fifo(task_us(f"t{i}", sec(1)), q.now)
        assert end == sec(i + 1)
        if i == 499:
            q.advance(sec(250))
            q._chunks = _Unwalkable(q._chunks)
    assert q.horizon() == sec(1000)
    assert q.load(q.now) == sec(750)
    # No append left an idle gap, so a later load reads the tail and
    # leaves the clock where it was.
    assert q.load(sec(600)) == sec(400)
    assert q.now == sec(250)
    assert calls[0] == 0

    # A commit may reorder the queue, but it stores the ends its trial
    # priced the candidate with: horizon() never packs.
    q._chunks = q._chunks[:]
    admit(q, "n", sec(1), q.now, None)
    calls[0] = 0
    assert q.horizon() == sec(1001)
    assert q.horizon() == sec(1001)
    assert calls[0] == 0


def test_trials_pack_once_per_repair_round(monkeypatch):
    # A repair round packs its candidate once and runs its whole eviction
    # walk on that pack, and the final round's ends price the trial against
    # the queued tasks' stored ends: r rounds cost r + 1 packs.  A tail
    # append delays nobody and is priced from the last entry's stored end.
    calls = count_packs(monkeypatch)

    q = VmQueue(0)
    admit(q, "j1", sec(10), 0, sec(12))
    q.advance(sec(2))
    calls[0] = 0
    trial = trial_insert(q, task_us("n", sec(3), arrival=sec(2)), sec(2), None)
    assert trial.repair_iterations == 1
    assert calls[0] == 2

    q = VmQueue(0)
    admit(q, "j0", sec(4), 0, sec(5))
    admit(q, "j1", sec(5), 0, sec(10))
    calls[0] = 0
    trial = trial_insert(q, task_us("n", sec(2)), 0, None)
    assert chunk_ids(trial.candidate_chunks) == (
        ("n", sec(1)), ("j0", sec(4)), ("j1", sec(5)), ("n", sec(1)))
    assert trial.repair_iterations == 2
    assert calls[0] == 3

    assert q.horizon() == sec(9)  # the commits left the tail known
    calls[0] = 0
    trial = trial_insert(q, task_us("m", sec(20)), 0, None)
    assert chunk_ids(trial.candidate_chunks)[-1] == ("m", sec(20))
    assert trial.entry.end == sec(29)
    assert calls[0] == 0

    # A repair that fails after r rounds costs r packs before the append.
    q = VmQueue(0)
    admit(q, "b", sec(6), 0, sec(12))
    assert q.horizon() == sec(6)
    calls[0] = 0
    trial = trial_insert(q, task_us("n", sec(5)), sec(6), None)
    assert chunk_ids(trial.candidate_chunks) == (("b", sec(6)), ("n", sec(5)))
    assert trial.repair_iterations == 1
    assert calls[0] == 1
