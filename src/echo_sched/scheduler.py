"""Per-VM schedule construction with deadline-constrained preemption.

Each VM runs its queue strictly in order.  A new task is inserted ahead of
the first queued task whose remaining work exceeds the newcomer's work
(shortest-remaining-time-first), but only tentatively: if the insertion
pushes any already-admitted task past its completion deadline, the repair
loop pins that task to finish exactly at its deadline by evicting
just-enough of the work scheduled before it (latest-scheduled work first)
and re-inserting the evicted work after it.  The loop repeats down the
queue until no admitted task is late.  Trials are pure; a separate commit
step makes the winning candidate real.

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


class _TaskEntry:
    """Mutable bookkeeping for one task admitted to a VM queue."""

    __slots__ = ("ready", "deadline", "total", "executed", "first_start",
                 "completion")

    def __init__(self, ready: int, deadline: int | None, total: int):
        self.ready = ready
        self.deadline = deadline          # latest allowed execution end; None = best effort
        self.total = total
        self.executed = 0
        self.first_start: int | None = None
        self.completion: int | None = None  # execution end, set once the last chunk runs


class VmQueue:
    """One VM's ordered schedule of pending work chunks.

    `_chunks` holds only future work as (task_id, work) pairs in queue
    order; advance() drops the elapsed part of a preempted or running task,
    which can never be displaced.  Two running totals spare load() and
    horizon() a walk over the queue: `_pending` is the chunks' total work,
    and `_tail` the packed end of the last chunk.  advance() keeps `_tail`
    valid because it executes the packing rule itself (on an emptied queue
    it is at most `now`), append_fifo() extends it in O(1), and commit()
    takes it from the trial, which has priced the new schedule anyway.
    The same tail prices trial_insert()'s tail append, so a trial that
    preempts nobody packs nothing.
    """

    __slots__ = ("vm_index", "now", "version", "_chunks", "_entries",
                 "_pending", "_tail")

    def __init__(self, vm_index: int, now: int = 0):
        self.vm_index = vm_index
        self.now = now
        self.version = 0
        self._chunks: list[tuple[str, int]] = []
        self._entries: dict[str, _TaskEntry] = {}
        self._pending = 0
        self._tail = now

    # ------------------------------------------------------------- queries

    def remaining_work(self, task_id: str) -> int:
        """Unexecuted work of a task at time `now` (0 once completed)."""
        try:
            entry = self._entries[task_id]
        except KeyError:
            # Callers ask only about tasks they placed on this VM.
            raise SchedulerError(f"unknown task {task_id!r} on vm {self.vm_index}") from None
        return entry.total - entry.executed

    def load(self) -> int:
        """Total pending work (used by best-effort least-loaded placement)."""
        return self._pending

    @property
    def future_chunks(self) -> tuple[tuple[str, int], ...]:
        return tuple(self._chunks)

    def ready_of(self, task_id: str) -> int:
        return self._entries[task_id].ready

    def deadline_of(self, task_id: str) -> int | None:
        return self._entries[task_id].deadline

    def first_start_of(self, task_id: str) -> int | None:
        return self._entries[task_id].first_start

    def completion_of(self, task_id: str) -> int | None:
        """Execution end time, known once the task has fully run."""
        return self._entries[task_id].completion

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
        consumed = 0
        executed = 0
        for i, (tid, w) in enumerate(chunks):
            entry = self._entries[tid]
            start = entry.ready if entry.ready > cursor else cursor
            if start >= to:
                break
            run = w if start + w <= to else to - start
            if entry.first_start is None:
                entry.first_start = start
            entry.executed += run
            executed += run
            cursor = start + run
            if run == w:
                consumed = i + 1
                if entry.executed == entry.total:
                    entry.completion = cursor
            else:
                chunks[i] = (tid, w - run)
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
        self._entries[task.id] = _TaskEntry(ready, None, work)
        self._chunks.append((task.id, work))
        self._pending += work
        self._tail = (ready if ready > horizon else horizon) + work
        self.version += 1
        return self._tail


def _pack(chunks: list[tuple[str, int]],
          entries: dict[str, _TaskEntry],
          now: int,
          new_id: str | None = None,
          new_ready: int = 0
          ) -> tuple[list[int], dict[str, int]]:
    """Pack chunks contiguously from `now`, honouring per-task ready times.

    A chunk starts at its task's ready time or at the previous chunk's
    end, whichever is later; chunks of `new_id`, a task not yet in
    `entries`, are ready at `new_ready`.  Returns the end of every chunk
    (its start is its end minus its work) and every task's execution end,
    the end of its last chunk.
    """
    chunk_ends: list[int] = []
    task_ends: dict[str, int] = {}
    cursor = now
    for tid, w in chunks:
        ready = new_ready if tid == new_id else entries[tid].ready
        cursor = (ready if ready > cursor else cursor) + w
        chunk_ends.append(cursor)
        task_ends[tid] = cursor
    return chunk_ends, task_ends


def _merge_adjacent(chunks: list[tuple[str, int]]) -> list[tuple[str, int]]:
    merged: list[tuple[str, int]] = []
    for tid, w in chunks:
        if merged and merged[-1][0] == tid:
            merged[-1] = (tid, merged[-1][1] + w)
        else:
            merged.append((tid, w))
    return merged


@dataclass
class TrialInsertion:
    """Outcome of tentatively inserting one task into one VM's queue.

    delta_t is the completion-time growth: the newcomer's response time
    plus every delay inflicted on already-queued tasks; tail is the packed
    end of the candidate's last chunk.  The trial never mutates the source
    queue; commit() applies it.
    """

    vm_index: int
    delta_t: int
    candidate_completion: int
    tail: int
    repair_iterations: int
    candidate_chunks: tuple[tuple[str, int], ...]
    task_id: str
    ready: int
    deadline: int | None
    work: int
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
    if task.id in queue._entries:
        raise SchedulerError(f"task {task.id!r} already on vm {queue.vm_index}")
    work = task.profile.r_edge
    entries = queue._entries
    original = queue._chunks

    # SRTF scan: first queued task with more remaining work than the newcomer.
    insert_at: int | None = None
    for idx, (tid, _) in enumerate(original):
        entry = entries[tid]
        if entry.total - entry.executed > work:
            insert_at = idx
            break

    repair_iterations = 0
    candidate = new_ends = None
    if insert_at is not None:
        candidate, new_ends, tail, repair_iterations = _repair(
            original, entries, now, task.id, ready, work, insert_at,
            queue.vm_index)
    delay = 0
    if candidate is None:
        # Nothing to preempt, or preempting here cannot be repaired: a tail
        # append delays nobody and is therefore always admissible.
        candidate_chunks = (*original, (task.id, work))
        horizon = queue.horizon()
        completion = tail = (ready if ready > horizon else horizon) + work
    else:
        # Every chunk has positive work, so merging adjacent chunks of one
        # task moves no end: the repair's task ends price the merged list.
        candidate_chunks = tuple(_merge_adjacent(candidate))
        _, old_ends = _pack(original, entries, now)
        for tid, end in old_ends.items():
            inflicted = new_ends[tid] - end
            if inflicted < 0:
                # The newcomer only adds work ahead of queued tasks, and repair
                # pins a violator at its deadline, at or after its old end.
                raise SchedulerError(
                    f"insertion of {task.id!r} pulled {tid!r} earlier on vm "
                    f"{queue.vm_index}; schedule corrupted")
            delay += inflicted
        completion = new_ends[task.id]
    delta_t = (completion - task.arrival) + delay

    return TrialInsertion(
        vm_index=queue.vm_index,
        delta_t=delta_t,
        candidate_completion=completion,
        tail=tail,
        repair_iterations=repair_iterations,
        candidate_chunks=candidate_chunks,
        task_id=task.id,
        ready=ready,
        deadline=deadline,
        work=work,
        _source=queue,
        _source_version=queue.version,
    )


def _repair(original: list[tuple[str, int]],
            entries: dict[str, _TaskEntry],
            now: int,
            new_id: str,
            new_ready: int,
            work: int,
            insert_at: int,
            vm_index: int
            ) -> tuple[list[tuple[str, int]] | None, dict[str, int] | None,
                       int, int]:
    """Insert the newcomer at insert_at and repair deadline violations.

    Each round packs the candidate once, finds the first admitted task
    past its deadline (in queue order), pins it to finish exactly at its
    deadline by evicting just-enough of the latest-scheduled movable work
    before its final chunk, and carries the evicted work forward as the
    next round's insertion.  Pinned tasks and the violator's own chunks
    are never evicted, so a pinned task can only ever finish earlier, and
    every round pins a distinct task: the loop terminates.  Returns
    (candidate, task ends, tail, rounds) from the final round's pack, tail
    being its last chunk's end, or (None, None, 0, rounds) when a round has
    nothing movable left to evict or no eviction amount lands the violator
    exactly on its deadline; the caller falls back to a tail append then.

    Invariant: every committed task's pre-trial end is at or before its
    deadline.  commit() refuses a late newcomer, repair pins each violator
    at its deadline, and tail appends and advance() move no end.  So the
    violator's chain, its chunks after the walk's source, never waits for
    its ready time: then no chunk of it could sit before the source, and
    it would end at its ready time plus its remaining work, by its
    pre-trial end, and be on time.  The chain starts at the source's end,
    so a partial eviction takes more than nothing; the walk asserts it.
    """
    candidate = list(original)
    pending = [(new_id, work)]
    position = insert_at
    # Work at chunk indexes below the floor is frozen: it belongs to tasks
    # already pinned at their deadlines (or scheduled before them), and
    # moving any of it would push a pinned task past its deadline or pull
    # other tasks ahead of their pre-insertion completions.
    floor = 0
    pinned: set[str] = set()
    rounds = 0
    guard = len(entries) + _REPAIR_SLACK
    while True:
        candidate[position:position] = pending
        chunk_ends, ends = _pack(candidate, entries, now, new_id, new_ready)
        # The newcomer is exempt: its own lateness is an admission matter
        # for the caller, not a repair matter.  Every admitted task is
        # re-checked each round: an insertion can delay a task whose last
        # chunk lies far past the round's violator, and an earlier round's
        # break must not hide it.
        for violator, _ in candidate:
            if violator == new_id or violator in pinned:
                continue
            limit = entries[violator].deadline
            if limit is not None and ends[violator] > limit:
                break
        else:
            return candidate, ends, chunk_ends[-1], rounds
        rounds += 1
        if rounds > guard:
            # Each round pins a distinct admitted task, so the rounds are
            # bounded by the task count; more means the pinning broke.
            raise SchedulerError(
                f"repair loop exceeded {guard} rounds on vm {vm_index}")
        ready_v = entries[violator].ready
        end = ends[violator]
        # Every chunk has positive work, so chunk ends strictly increase and
        # the violator's last chunk is the one that ends at its task end.
        last = bisect_left(chunk_ends, end)
        # The walk evicts only at or after its source, which only moves
        # backwards, so the round's chunk ends stay exact below the source.
        # `tail` is the violator's work from the source's successor to
        # `last`: everything in between is the violator's, since the walk
        # picks the latest movable chunk.
        tail = candidate[last][1]
        evicted: list[tuple[str, int]] = []
        source = last - 1
        while end > limit:
            while source >= floor and candidate[source][0] == violator:
                tail += candidate[source][1]
                source -= 1
            if source < floor:
                return None, None, 0, rounds
            tid, w = candidate[source]
            # Shrinking the source by `take` moves the violator's end
            # earlier by exactly min(take, source_end - ready_v): the
            # violator's ready time caps how far its chain can slide.
            before = chunk_ends[source - 1] if source > 0 else now
            full_end = max(before, ready_v) + tail
            assert full_end < end, (f"{violator!r} gated at its ready time "
                                    f"on vm {vm_index}: it was already late")
            if full_end >= limit:
                del candidate[source]
                evicted.append((tid, w))
                last -= 1
                source -= 1
                end = full_end
                continue
            # A partial eviction lands the violator exactly on its
            # deadline; removing the whole chunk would also collapse the
            # idle gap in front of it and overshoot the correction.
            take = chunk_ends[source] - (limit - tail)
            if take >= w:
                return None, None, 0, rounds
            candidate[source] = (tid, w - take)
            evicted.append((tid, take))
            break
        pinned.add(violator)
        evicted.reverse()
        pending = _merge_adjacent(evicted)
        floor = position = last + 1


def best_vm(queues: list[VmQueue], task: Task, ready: int,
            deadline: int | None) -> TrialInsertion:
    """Trial on every VM; pick minimum completion-time growth (ties: lowest index)."""
    if not queues:
        raise SchedulerError("no VMs configured")
    return min((trial_insert(queue, task, ready, deadline) for queue in queues),
               key=lambda trial: trial.delta_t)


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
    if trial.deadline is not None and trial.candidate_completion > trial.deadline:
        raise LateTrialError(
            f"{trial.task_id!r} would end at {trial.candidate_completion}, "
            f"past its deadline {trial.deadline} on vm {queue.vm_index}")
    queue._chunks = list(trial.candidate_chunks)
    queue._entries[trial.task_id] = _TaskEntry(trial.ready, trial.deadline,
                                               trial.work)
    queue._pending += trial.work
    queue._tail = trial.tail
    queue.version += 1
    logger.debug("vm %d: committed %s (completion %d, growth %d)",
                 queue.vm_index, trial.task_id, trial.candidate_completion,
                 trial.delta_t)
