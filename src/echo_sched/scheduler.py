"""Per-VM schedule construction with deadline-constrained preemption.

Each VM runs its queue strictly in order.  A new task is inserted ahead of
the first queued task whose remaining work exceeds the newcomer's work
(shortest-remaining-time-first), but only tentatively: if the insertion
pushes any already-admitted task past its completion deadline, the repair
loop pins that task to finish exactly at its deadline by evicting
just-enough of the work scheduled before it (latest-scheduled work first)
and re-inserting the evicted work after it; a whole chunk goes only when
a partial take cannot land the task, and if no amount can, the newcomer
is appended at the tail instead.  The loop repeats down the queue until
no admitted task is late.  Trials are pure; a separate commit step makes
the winning candidate real.

Time is integer microseconds throughout.  A queue's schedule is packed
contiguously from `now`, except that a task's work may never start before
its ready time (its input upload has to finish first), which can leave the
VM idle ahead of an unready head-of-queue.  A queue exposes its pending
chunks in order and each task's ready time and deadline, so any
schedule's ends follow from them by that packing rule.
"""

from __future__ import annotations

import logging
from bisect import bisect_left
from dataclasses import dataclass, field

from .model import Task

logger = logging.getLogger(__name__)

_REPAIR_SLACK = 2  # termination guard headroom over the task count


class SchedulerError(Exception):
    pass


class StaleTrialError(SchedulerError):
    """The queue changed between trial_insert and commit."""


class LateTrialError(SchedulerError):
    """The trial's newcomer would end past its own deadline."""


class TaskEntry:
    """Mutable bookkeeping for one task on a VM queue; its chunks hold it.

    advance() lowers `remaining`, the chunks' total work, and sets
    `completion` when it reaches 0.
    """

    __slots__ = ("id", "ready", "deadline", "remaining", "first_start",
                 "completion")

    def __init__(self, id: str, ready: int, deadline: int | None,
                 remaining: int):
        self.id = id
        self.ready = ready
        self.deadline = deadline          # latest allowed execution end; None = best effort
        self.remaining = remaining
        self.first_start: int | None = None
        self.completion: int | None = None  # execution end, set once the last chunk runs


class VmQueue:
    """One VM's ordered schedule of pending work chunks.

    `_chunks` holds only future work as (entry, work) pairs in queue
    order, the entry being the TaskEntry that `_entries` maps the task id
    to; advance() drops the elapsed part of a preempted or running task,
    which can never be displaced.  Running values spare load() and
    horizon() a walk over the queue: `_pending` is the chunks' total work,
    `_tail` the packed end of the last chunk, and `_gap_end` an instant by
    which every idle gap of the packed schedule has ended (gaps only open
    ahead of an unready chunk, so they end at ready times).  advance()
    keeps `_tail` valid because it executes the packing rule itself (on an
    emptied queue it is at most `now`), append_fifo() extends it in O(1),
    and commit() takes it from the trial, which has priced the new
    schedule anyway.  append_fifo() opens a gap only when its task is
    ready after the horizon, and then moves `_gap_end` to that ready time;
    commit() moves it to the new tail, a safe bound.  Past `_gap_end` the
    VM is busy without a break up to `_tail`, so load() reads the pending
    work off the tail without advancing.  The same tail prices
    trial_insert()'s tail append, so a trial that preempts nobody packs
    nothing.
    """

    __slots__ = ("vm_index", "now", "version", "_chunks", "_entries",
                 "_pending", "_tail", "_gap_end")

    def __init__(self, vm_index: int, now: int = 0):
        self.vm_index = vm_index
        self.now = now
        self.version = 0
        self._chunks: list[tuple[TaskEntry, int]] = []
        self._entries: dict[str, TaskEntry] = {}
        self._pending = 0
        self._tail = self._gap_end = now

    # ------------------------------------------------------------- queries

    def load(self, at: int) -> int:
        """Pending work once the schedule has run to `at` (at >= now).

        Used by best-effort least-loaded placement.  Advances the queue to
        `at` only when an idle gap may still lie ahead of it.
        """
        if at < self._gap_end or at < self.now:
            self.advance(at)
            return self._pending
        return self._tail - at if self._tail > at else 0

    @property
    def future_chunks(self) -> tuple[tuple[str, int], ...]:
        """The pending chunks as (task_id, work) pairs, in queue order."""
        return tuple([(entry.id, w) for entry, w in self._chunks])

    def entry(self, task_id: str) -> TaskEntry:
        """A placed task's bookkeeping; callers only read it."""
        return self._entries[task_id]

    def horizon(self) -> int:
        """Time by which all currently queued work will have executed."""
        return self._tail if self._tail > self.now else self.now

    # ----------------------------------------------------------- mutations

    def advance(self, to: int) -> None:
        """Execute the schedule up to `to`."""
        if to < self.now:
            raise SchedulerError(f"cannot advance vm {self.vm_index} backwards "
                                 f"({self.now} -> {to})")
        if to == self.now:
            return
        chunks = self._chunks
        cursor = self.now
        consumed = executed = 0
        for entry, w in chunks:
            start = entry.ready if entry.ready > cursor else cursor
            if start >= to:
                break
            if entry.first_start is None:
                entry.first_start = start
            cursor = start + w
            if cursor <= to:
                entry.remaining -= w
                executed += w
                consumed += 1
                if not entry.remaining:
                    entry.completion = cursor
            else:
                run = to - start
                entry.remaining -= run
                executed += run
                chunks[consumed] = (entry, w - run)
                break
        if consumed:
            del chunks[:consumed]
        self._pending -= executed
        self.now = to
        self.version += 1

    def append_fifo(self, task: Task, ready: int) -> int:
        """Best-effort tail append (no deadline, no preemption).

        Returns the execution end time under the current schedule.
        """
        if task.id in self._entries:
            # Task ids are unique per trace, so a repeat is a caller bug.
            raise SchedulerError(f"task {task.id!r} already on vm {self.vm_index}")
        work = task.profile.r_edge
        horizon = self.horizon()
        entry = TaskEntry(task.id, ready, None, work)
        self._entries[task.id] = entry
        self._chunks.append((entry, work))
        self._pending += work
        if ready > horizon:
            self._gap_end = horizon = ready
        self._tail = horizon + work
        self.version += 1
        return self._tail


def _pack(chunks: list[tuple[TaskEntry, int]], now: int
          ) -> tuple[list[int], dict[TaskEntry, int]]:
    """Pack chunks contiguously from `now`, honouring per-task ready times.

    A chunk starts at its entry's ready time or at the previous chunk's
    end, whichever is later.  Returns the end of every chunk (its start is
    its end minus its work) and every entry's execution end, the end of
    its last chunk.
    """
    chunk_ends: list[int] = []
    task_ends: dict[TaskEntry, int] = {}
    cursor = now
    for entry, w in chunks:
        ready = entry.ready
        cursor = (ready if ready > cursor else cursor) + w
        chunk_ends.append(cursor)
        task_ends[entry] = cursor
    return chunk_ends, task_ends


def _merge_adjacent(chunks: list[tuple[TaskEntry, int]]
                    ) -> list[tuple[TaskEntry, int]]:
    merged: list[tuple[TaskEntry, int]] = []
    for entry, w in chunks:
        if merged and merged[-1][0] is entry:
            merged[-1] = (entry, merged[-1][1] + w)
        else:
            merged.append((entry, w))
    return merged


@dataclass
class TrialInsertion:
    """Outcome of tentatively inserting one task into one VM's queue.

    delta_t is the completion-time growth: the newcomer's response time
    plus every delay inflicted on already-queued tasks; tail is the packed
    end of the candidate's last chunk; entry is the newcomer's TaskEntry,
    which commit() installs.  The trial never mutates the source queue.
    """

    vm_index: int
    delta_t: int
    candidate_completion: int
    tail: int
    repair_iterations: int
    candidate_chunks: tuple[tuple[TaskEntry, int], ...]
    entry: TaskEntry
    _source: VmQueue = field(repr=False)
    _source_version: int = field(repr=False)


def trial_insert(queue: VmQueue, task: Task, ready: int,
                 deadline: int | None) -> TrialInsertion:
    """Tentatively insert `task` (work = its edge run time) into the queue.

    ready is the earliest instant the task's work may execute; deadline is
    the latest allowed execution end for the *queue's* admission guarantee
    (None disables the guarantee for this task).  The insertion scan,
    deadline repair, and eviction follow the preemption-constrained SRTF
    rules described in the module docstring.  If the queue is so saturated
    that even the newcomer's own work lands past its deadline, the late
    placement is returned as-is for pricing, and commit() refuses it.
    """
    now = queue.now
    if ready < now:
        raise SchedulerError(f"ready {ready} before queue time {now}")
    entries = queue._entries
    if task.id in entries:
        raise SchedulerError(f"task {task.id!r} already on vm {queue.vm_index}")
    work = task.profile.r_edge
    new = TaskEntry(task.id, ready, deadline, work)
    original = queue._chunks

    # SRTF scan: first queued task with more remaining work than the newcomer.
    insert_at: int | None = None
    for idx, (entry, _) in enumerate(original):
        if entry.remaining > work:
            insert_at = idx
            break

    repair_iterations = 0
    candidate = new_ends = None
    if insert_at is not None:
        candidate, new_ends, tail, repair_iterations = _repair(
            original, now, new, insert_at, len(entries), queue.vm_index)
    delay = 0
    if candidate is None:
        # Nothing to preempt, or preempting here cannot be repaired: a tail
        # append delays nobody and is therefore always admissible.
        candidate_chunks = (*original, (new, work))
        horizon = queue.horizon()
        completion = tail = (ready if ready > horizon else horizon) + work
    else:
        # Every chunk has positive work, so merging adjacent chunks of one
        # task moves no end: the repair's task ends price the merged list.
        candidate_chunks = tuple(_merge_adjacent(candidate))
        _, old_ends = _pack(original, now)
        for entry, end in old_ends.items():
            inflicted = new_ends[entry] - end
            if inflicted < 0:
                # The newcomer only adds work ahead of queued tasks, and repair
                # pins a violator at its deadline, at or after its old end.
                raise SchedulerError(
                    f"insertion of {task.id!r} pulled {entry.id!r} earlier on "
                    f"vm {queue.vm_index}; schedule corrupted")
            delay += inflicted
        completion = new_ends[new]
    delta_t = (completion - task.arrival) + delay

    return TrialInsertion(
        vm_index=queue.vm_index,
        delta_t=delta_t,
        candidate_completion=completion,
        tail=tail,
        repair_iterations=repair_iterations,
        candidate_chunks=candidate_chunks,
        entry=new,
        _source=queue,
        _source_version=queue.version,
    )


def _repair(original: list[tuple[TaskEntry, int]],
            now: int,
            new: TaskEntry,
            insert_at: int,
            admitted: int,
            vm_index: int
            ) -> tuple[list[tuple[TaskEntry, int]] | None,
                       dict[TaskEntry, int] | None, int, int]:
    """Insert the newcomer's entry at insert_at and repair deadline violations.

    Each round packs the candidate once, finds the first admitted task past
    its deadline (in queue order), the violator, and walks back over the
    movable chunks before its last chunk: those at or above the floor that
    are not its own.  For a source chunk of work w, `take` is the source's
    end plus the violator's work after it, minus its deadline.  If take < w,
    evicting `take` from the source lands the violator on its deadline.
    Else the whole chunk goes if the violator then ends at or after its
    deadline (the walk goes on while it is late), and else no amount lands
    it there: the round fails.  The evicted work, in queue order, is the
    next round's insertion right after the violator, at the new floor.
    Returns (candidate, task ends, tail, rounds) from the final round's
    pack, tail being its last chunk's end, or (None, None, 0, rounds) when a
    round fails; the caller falls back to a tail append then.

    A round's violator ends on its deadline with every chunk of it below
    the new floor.  Later rounds insert and evict only at or above the
    floor, and the packing below it depends only on the chunks there, so
    that task is never late again: each round has a distinct one of the
    `admitted` tasks as its violator, and the loop terminates.

    Invariant: every committed task's pre-trial end is at or before its
    deadline.  commit() refuses a late newcomer, repair pins each violator
    at its deadline, and tail appends and advance() move no end.  So the
    violator's chain, its chunks after the walk's source, never waits for
    its ready time: then no chunk of it could sit before the source, and
    it would end at its ready time plus its remaining work, by its
    pre-trial end, and be on time.  The chain starts at the source's end,
    so evicting take > 0 pulls the violator in by take; the walk asserts it.
    """
    candidate = list(original)
    pending = [(new, new.remaining)]
    position = insert_at
    # Chunks below the floor are frozen: moving one could make an earlier
    # round's violator late again, or pull a task ahead of its old end.
    floor = 0
    rounds = 0
    guard = admitted + _REPAIR_SLACK
    while True:
        candidate[position:position] = pending
        chunk_ends, ends = _pack(candidate, now)
        # The newcomer is exempt: its own lateness is an admission matter
        # for the caller, not a repair matter.  Every admitted task is
        # re-checked each round: an insertion can delay a task whose last
        # chunk lies far past the round's violator, and an earlier round's
        # break must not hide it.
        for violator, _ in candidate:
            if violator is new:
                continue
            limit = violator.deadline
            if limit is not None and ends[violator] > limit:
                break
        else:
            return candidate, ends, chunk_ends[-1], rounds
        rounds += 1
        if rounds > guard:
            # Each round has a distinct admitted violator, so the rounds
            # are bounded by the task count; more means the floor broke.
            raise SchedulerError(
                f"repair loop exceeded {guard} rounds on vm {vm_index}")
        ready_v = violator.ready
        # Every chunk has positive work, so chunk ends strictly increase and
        # the violator's last chunk is the one that ends at its task end.
        last = bisect_left(chunk_ends, ends[violator])
        # The walk evicts only at or after its source, which only moves
        # backwards, so the round's chunk ends stay exact below the source.
        # `tail` is the violator's work from the source's successor to
        # `last`: everything in between is the violator's, since the walk
        # picks the latest movable chunk.
        tail = candidate[last][1]
        evicted: list[tuple[TaskEntry, int]] = []
        source = last - 1
        while True:
            while source >= floor and candidate[source][0] is violator:
                tail += candidate[source][1]
                source -= 1
            if source < floor:
                return None, None, 0, rounds
            entry, w = candidate[source]
            assert ready_v < chunk_ends[source], (
                f"{violator.id!r} gated at its ready time on vm {vm_index}: "
                f"it was already late")
            take = chunk_ends[source] + tail - limit
            if take < w:
                candidate[source] = (entry, w - take)
                evicted.append((entry, take))
                break
            before = chunk_ends[source - 1] if source > 0 else now
            full_end = max(before, ready_v) + tail
            if full_end < limit:
                return None, None, 0, rounds
            del candidate[source]
            evicted.append((entry, w))
            last -= 1
            source -= 1
            if full_end == limit:
                break
        pending = _merge_adjacent(evicted[::-1])
        floor = position = last + 1


def best_vm(queues: list[VmQueue], task: Task, ready: int,
            deadline: int | None) -> TrialInsertion:
    """Least completion-time growth over the VMs (ties: lowest index).

    VMs advance to the arrival just before their trials and are tried in
    index order until one reaches the least growth any trial can have: the
    newcomer cannot end before ready + r_edge, nor a queued task earlier.
    """
    if not queues:
        raise SchedulerError("no VMs configured")
    least = ready + task.profile.r_edge - task.arrival
    best: TrialInsertion | None = None
    for queue in queues:
        queue.advance(task.arrival)
        trial = trial_insert(queue, task, ready, deadline)
        if best is None or trial.delta_t < best.delta_t:
            best = trial
            if trial.delta_t <= least:
                break
    return best


def commit(trial: TrialInsertion) -> None:
    """Make a trial real on the queue it was computed against.

    Refuses trials computed against a stale queue, and trials whose
    newcomer would end past its own deadline: repair pins every admitted
    task at its deadline, so a late one would corrupt later trials.
    """
    queue = trial._source
    if trial._source_version != queue.version:
        raise StaleTrialError(
            f"vm {queue.vm_index} changed since the trial (version "
            f"{trial._source_version} -> {queue.version})")
    entry = trial.entry
    if entry.deadline is not None and trial.candidate_completion > entry.deadline:
        raise LateTrialError(
            f"{entry.id!r} would end at {trial.candidate_completion}, "
            f"past its deadline {entry.deadline} on vm {queue.vm_index}")
    queue._chunks = list(trial.candidate_chunks)
    queue._entries[entry.id] = entry
    queue._pending += entry.remaining
    queue._tail = queue._gap_end = trial.tail
    queue.version += 1
    logger.debug("vm %d: committed %s (completion %d, growth %d)",
                 queue.vm_index, entry.id, trial.candidate_completion,
                 trial.delta_t)
