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
VM idle ahead of an unready head-of-queue.  Any schedule's ends follow
from its chunk order and ready times by that packing rule; each queued
task stores its end under the committed schedule.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import NamedTuple

from .model import Task

_REPAIR_SLACK = 2  # termination guard headroom over the chunk count


class SchedulerError(Exception):
    pass


class StaleTrialError(SchedulerError):
    """The queue changed between trial_insert and commit."""


class LateTrialError(SchedulerError):
    """The trial's newcomer would end past its own deadline."""


class TaskEntry:
    """Mutable bookkeeping for one task on a VM queue; its chunks hold it.

    `end` is the task's execution end under the queue's committed
    schedule.  The append or trial that places the task sets it, commit()
    stores a repair's new ends, and advance() moves none; once it has
    lowered `remaining`, the chunks' total work, to 0, the task is done.
    """

    __slots__ = ("id", "ready", "deadline", "remaining", "first_start", "end")

    def __init__(self, id: str, ready: int, deadline: int | None,
                 remaining: int):
        self.id = id
        self.ready = ready
        self.deadline = deadline          # latest allowed execution end; None = best effort
        self.remaining = remaining
        self.first_start: int | None = None
        self.end: int  # set by the append or trial that places the task


class VmQueue:
    """One VM's ordered schedule of pending work chunks.

    `_chunks` holds only future work as (entry, work) pairs in queue
    order, the entry being the TaskEntry that `_entries` maps the task id
    to; advance() drops the elapsed part of a preempted or running task,
    which can never be displaced.  `_pending` is the chunks' total work.
    The tail, the end of the last chunk, is its entry's stored `end`, so
    horizon(), load() and trial_insert()'s tail append read it without a
    walk over the queue, and a trial that preempts nobody packs nothing.
    """

    __slots__ = ("vm_index", "now", "version", "_chunks", "_entries",
                 "_pending")

    def __init__(self, vm_index: int, now: int = 0):
        self.vm_index = vm_index
        self.now = now
        self.version = 0
        self._chunks: list[tuple[TaskEntry, int]] = []
        self._entries: dict[str, TaskEntry] = {}
        self._pending = 0

    # ------------------------------------------------------------- queries

    def load(self, at: int) -> int:
        """Pending work once the schedule has run to `at` (at >= now).

        Used by best-effort least-loaded placement.  From `now` to the
        tail the VM is busy for `_pending` of the time, so when the two
        are equal the schedule has no idle gap and the load is what is
        left of it at `at`.  Otherwise the queue advances to `at`.
        """
        chunks = self._chunks
        now = self.now
        # horizon() inline: this is mcloud's per-VM path on every arrival.
        tail = chunks[-1][0].end if chunks else now
        if at < now or tail - now != self._pending:
            self.advance(at)
            return self._pending
        return tail - at if tail > at else 0

    def entry(self, task_id: str) -> TaskEntry:
        """A placed task's bookkeeping; callers only read it."""
        return self._entries[task_id]

    def horizon(self) -> int:
        """Time by which all currently queued work will have executed."""
        chunks = self._chunks
        return chunks[-1][0].end if chunks else self.now

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
        entry.end = (ready if ready > horizon else horizon) + work
        self._entries[task.id] = entry
        self._chunks.append((entry, work))
        self._pending += work
        self.version += 1
        return entry.end


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


class TrialInsertion(NamedTuple):
    """Outcome of tentatively inserting one task into one VM's queue.

    queue is the queue the trial was computed against, at its `version`.
    entry is the newcomer's TaskEntry, its `end` (the newcomer's execution
    end under the candidate) already set, which commit() installs.
    delta_t is the completion-time growth: the newcomer's response time
    plus every delay inflicted on already-queued tasks.  ends maps every
    entry of a repaired candidate to its end under it, for commit() to
    store; a tail append moves no queued end, so its ends are empty.  The
    trial never mutates the queue.
    """

    queue: VmQueue
    version: int
    entry: TaskEntry
    delta_t: int
    ends: dict[TaskEntry, int]
    candidate_chunks: tuple[tuple[TaskEntry, int], ...]
    repair_iterations: int

    @property
    def vm_index(self) -> int:
        return self.queue.vm_index


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
    if task.id in queue._entries:
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
    candidate = None
    if insert_at is not None:
        candidate, ends, repair_iterations = _repair(queue, new, insert_at)
    delay = 0
    if candidate is None:
        # Nothing to preempt, or preempting here cannot be repaired: a tail
        # append delays nobody and is therefore always admissible.
        candidate_chunks = (*original, (new, work))
        horizon = queue.horizon()
        new.end = (ready if ready > horizon else horizon) + work
        ends = {}
    else:
        # Every chunk has positive work, so merging adjacent chunks of one
        # task moves no end: the repair's task ends price the merged list.
        candidate_chunks = tuple(_merge_adjacent(candidate))
        # A delay is a new end minus the stored one; the newcomer's is 0.
        new.end = ends[new]
        for entry, end in ends.items():
            inflicted = end - entry.end
            if inflicted < 0:
                # The newcomer only adds work ahead of queued tasks, and repair
                # pins a violator at its deadline, at or after its old end.
                raise SchedulerError(
                    f"insertion of {task.id!r} pulled {entry.id!r} earlier on "
                    f"vm {queue.vm_index}; schedule corrupted")
            delay += inflicted
    delta_t = (new.end - task.arrival) + delay
    return TrialInsertion(queue, queue.version, new, delta_t, ends,
                          candidate_chunks, repair_iterations)


def _repair(queue: VmQueue, new: TaskEntry, insert_at: int
            ) -> tuple[list[tuple[TaskEntry, int]] | None,
                       dict[TaskEntry, int] | None, int]:
    """Insert the newcomer's entry at insert_at and repair deadline violations.

    Each round packs the candidate once, finds the first queued task other
    than the newcomer past its deadline (in queue order), the violator, and
    walks back over the movable chunks before its last chunk: those at or
    above the floor that are not its own.  For a source chunk of work w,
    `take` is the source's end plus the violator's work after it, minus its
    deadline.  If take < w, evicting `take` from the source lands the
    violator on its deadline.  Else the whole chunk goes if the violator
    then ends at or after its deadline (the walk goes on while it is late),
    and else no amount lands it there: the round fails.  The evicted work,
    in queue order, is the next round's insertion right after the violator,
    at the new floor.  Returns (candidate, task ends, rounds), the ends
    from the final round's pack, or (None, None, rounds) when a round
    fails; the caller falls back to a tail append then.

    A round's violator ends on its deadline with every chunk of it below
    the new floor.  Later rounds insert and evict only at or above the
    floor, and the packing below it depends only on the chunks there, so
    that task is never late again: each round's violator is a distinct
    task that was already queued, and each such task holds at least one
    of the queue's chunks, so their count bounds the rounds.

    Invariant: every queued entry's stored `end` is at or before its
    deadline.  commit() refuses a late newcomer and stores a repair's
    ends, each violator pinned at its deadline, and tail appends and
    advance() move no end.  So the violator's chain, its chunks after the
    walk's source, never waits for its ready time: then no chunk of it
    could sit before the source, and it would end at its ready time plus
    its remaining work, by its stored end, and be on time.  The chain
    starts at the source's end, so evicting take > 0 pulls the violator
    in by take; the walk asserts it.
    """
    now = queue.now
    candidate = list(queue._chunks)
    pending = [(new, new.remaining)]
    position = insert_at
    # Chunks below the floor are frozen: moving one could make an earlier
    # round's violator late again, or pull a task ahead of its old end.
    floor = 0
    rounds = 0
    guard = len(queue._chunks) + _REPAIR_SLACK
    while True:
        candidate[position:position] = pending
        chunk_ends, ends = _pack(candidate, now)
        # The newcomer is exempt: its own lateness is an admission matter
        # for the caller, not a repair matter.  Every queued task is
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
            return candidate, ends, rounds
        rounds += 1
        if rounds > guard:
            # Each round has a distinct queued violator, so the rounds
            # are bounded by the chunk count; more means the floor broke.
            raise SchedulerError(
                f"repair loop exceeded {guard} rounds on vm {queue.vm_index}")
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
                return None, None, rounds
            entry, w = candidate[source]
            assert ready_v < chunk_ends[source], (
                f"{violator.id!r} gated at its ready time on vm "
                f"{queue.vm_index}: it was already late")
            take = chunk_ends[source] + tail - limit
            if take < w:
                candidate[source] = (entry, w - take)
                evicted.append((entry, take))
                break
            before = chunk_ends[source - 1] if source > 0 else now
            full_end = max(before, ready_v) + tail
            if full_end < limit:
                return None, None, rounds
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
    """Make a trial real on the queue it was computed against, storing
    its ends on the entries.

    Refuses trials computed against a stale queue, and trials whose
    newcomer would end past its own deadline: repair pins every admitted
    task at its deadline, so a late one would corrupt later trials.
    """
    queue = trial.queue
    if trial.version != queue.version:
        raise StaleTrialError(
            f"vm {queue.vm_index} changed since the trial (version "
            f"{trial.version} -> {queue.version})")
    entry = trial.entry
    if entry.deadline is not None and entry.end > entry.deadline:
        raise LateTrialError(
            f"{entry.id!r} would end at {entry.end}, "
            f"past its deadline {entry.deadline} on vm {queue.vm_index}")
    queue._chunks = list(trial.candidate_chunks)
    queue._entries[entry.id] = entry
    queue._pending += entry.remaining
    for queued, end in trial.ends.items():
        queued.end = end
    queue.version += 1
