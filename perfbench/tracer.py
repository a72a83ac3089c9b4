"""Per-layer spans for a traced benchmark run, recorded from outside src/.

The tracer wraps public functions of echo_sched at their lookup sites
(module attributes and class methods) for the duration of a `with
tracer.installed():` block, and restores the originals afterwards.  Each
call is one span: its duration, and its self time (duration minus the
time of the spans it caused) are folded into per-name totals as the span
closes, so memory stays flat however many calls a run makes.  Decision
spans also keep their individual durations for latency percentiles.

The simulator is single-threaded, so spans nest strictly and one stack
is enough.
"""

from __future__ import annotations

import os
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

import echo_sched.cli
import echo_sched.engine
import echo_sched.objectsync
import echo_sched.policies
import echo_sched.scheduler
import echo_sched.sim
import echo_sched.traceio

_SAMPLED = {"policies.decide"}


class Tracer:
    """Span totals, decision latencies and counts since the last reset()."""

    # units of the per-layer metrics that are not busy times in seconds
    UNITS = {
        "policies.decide_p50_us": "us",
        "policies.decide_p99_us": "us",
        "objectsync.encode_mb_s": "MB/s",
        "objectsync.apply_mb_s": "MB/s",
        "scheduler.trial_insert_calls": "count",
        "scheduler.trials_per_decision": "ratio",
        "scheduler.commit_ratio": "ratio",
        "scheduler.repair_rounds": "count",
        "scheduler.advance_calls": "count",
        "policies.decide_calls": "count",
        "objectsync.delta_ratio": "ratio",
        "sim.report_bytes": "B",
    }

    def __init__(self) -> None:
        self.reset()

    def reset(self) -> None:
        self._stack: list[list[float]] = []
        self.total: defaultdict[str, float] = defaultdict(float)
        self.self_time: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.samples: defaultdict[str, list[float]] = defaultdict(list)
        self.counts: Counter[str] = Counter()

    def snapshot(self) -> tuple[dict[str, float], dict[str, float]]:
        """(busy times, exact counts) of everything traced since reset()."""
        return _layer_times(self), _layer_counts(self)

    def _wrap(self, name: str, fn, on_result=None):
        sampled = name in _SAMPLED

        def wrapper(*args, **kwargs):
            frame = [0.0]
            spans = self._stack
            spans.append(frame)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = perf_counter() - start
                spans.pop()
                if spans:
                    spans[-1][0] += duration
                self.total[name] += duration
                self.self_time[name] += duration - frame[0]
                self.calls[name] += 1
                if sampled:
                    self.samples[name].append(duration)
            if on_result is not None:
                on_result(self, args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    @contextmanager
    def installed(self):
        """Wrap every traced function; always restores the originals."""
        saved = []
        try:
            for owner, attr, name, hook in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, hook))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def _count_repairs(tracer: Tracer, args, trial) -> None:
    tracer.counts["repair_rounds"] += trial.repair_iterations


def _count_encode(tracer: Tracer, args, delta) -> None:
    tracer.counts["encode_new_bytes"] += len(args[1])
    tracer.counts["delta_bytes"] += len(delta)


def _count_apply(tracer: Tracer, args, new) -> None:
    tracer.counts["apply_new_bytes"] += len(new)


def _count_report(tracer: Tracer, args, _result) -> None:
    tracer.counts["report_bytes"] += os.path.getsize(args[1])


def _targets():
    """(owner, attribute, span name, result hook) for every traced call.

    Functions are patched where callers look them up: engine imports
    best_vm and commit by name, traceio imports validate_trace by name,
    and cli reaches sim and traceio through their modules.
    """
    scheduler = echo_sched.scheduler
    engine = echo_sched.engine
    objectsync = echo_sched.objectsync
    sim = echo_sched.sim
    traceio = echo_sched.traceio
    policies = echo_sched.policies
    queue = scheduler.VmQueue
    targets = [
        (echo_sched.cli, "main", "cli.main", None),
        (traceio, "generate", "traceio.generate", None),
        (traceio, "save", "traceio.save", None),
        (traceio, "load", "traceio.load", None),
        (traceio, "validate_trace", "model.validate_trace", None),
        (sim, "run", "sim.run", None),
        (sim.SimReport, "write_json", "sim.write_json", _count_report),
        (sim.SimReport, "write_csv", "sim.write_csv", _count_report),
        (engine, "decide", "engine.decide", None),
        (engine, "best_vm", "scheduler.best_vm", None),
        (engine, "commit", "scheduler.commit", None),
        (scheduler, "trial_insert", "scheduler.trial_insert", _count_repairs),
        (queue, "advance", "scheduler.advance", None),
        (queue, "load", "scheduler.load", None),
        (queue, "append_fifo", "scheduler.append_fifo", None),
        (queue, "horizon", "scheduler.horizon", None),
        (objectsync.TransferAccountant, "preview", "objectsync.accountant", None),
        (objectsync.TransferAccountant, "commit", "objectsync.accountant", None),
        (objectsync, "diff_encode", "objectsync.encode", _count_encode),
        (objectsync, "diff_apply", "objectsync.apply", _count_apply),
    ]
    for cls in (policies.LocalOnlyPolicy, policies.CloudAlwaysPolicy,
                policies.QueueBlindCloudPolicy, policies.BestEffortEdgePolicy,
                policies.DeadlineAwareEdgePolicy):
        targets.append((cls, "decide", "policies.decide", None))
    return targets


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = -(-q * len(ordered) // 100)
    return ordered[max(int(rank), 1) - 1]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _layer_times(tracer: Tracer) -> dict[str, float]:
    """Per-layer busy times (seconds) and latencies of one traced iteration."""
    t, s = tracer.total, tracer.self_time
    decide = tracer.samples["policies.decide"]
    return {
        "scheduler.trial_insert_s": t["scheduler.trial_insert"],
        "scheduler.best_vm_s": t["scheduler.best_vm"],
        "scheduler.load_s": t["scheduler.load"],
        "scheduler.append_fifo_s": t["scheduler.append_fifo"],
        "scheduler.horizon_s": t["scheduler.horizon"],
        "scheduler.advance_s": t["scheduler.advance"],
        "policies.decide_s": t["policies.decide"],
        "policies.decide_p50_us": 1e6 * _percentile(decide, 50),
        "policies.decide_p99_us": 1e6 * _percentile(decide, 99),
        "engine.self_s": s["engine.decide"],
        "objectsync.accountant_s": t["objectsync.accountant"],
        "objectsync.encode_s": t["objectsync.encode"],
        "objectsync.apply_s": t["objectsync.apply"],
        "objectsync.encode_mb_s": _ratio(tracer.counts["encode_new_bytes"] / 1e6,
                                         t["objectsync.encode"]),
        "objectsync.apply_mb_s": _ratio(tracer.counts["apply_new_bytes"] / 1e6,
                                        t["objectsync.apply"]),
        "traceio.generate_s": t["traceio.generate"],
        "traceio.save_s": t["traceio.save"],
        "traceio.load_s": t["traceio.load"],
        "model.validate_trace_s": t["model.validate_trace"],
        "sim.write_json_s": t["sim.write_json"],
        "sim.write_csv_s": t["sim.write_csv"],
        "sim.run_s": t["sim.run"],
        "sim.self_s": s["sim.run"],
        "cli.self_s": s["cli.main"],
    }


def _layer_counts(tracer: Tracer) -> dict[str, float]:
    """Per-layer counts and exact ratios of one traced iteration.

    These repeat exactly between iterations and runs of the same seed.
    """
    calls, counts = tracer.calls, tracer.counts
    trials = calls["scheduler.trial_insert"]
    return {
        "scheduler.trial_insert_calls": trials,
        "scheduler.trials_per_decision": _ratio(trials, calls["policies.decide"]),
        "scheduler.commit_ratio": _ratio(calls["scheduler.commit"], trials),
        "scheduler.repair_rounds": counts["repair_rounds"],
        "scheduler.advance_calls": calls["scheduler.advance"],
        "policies.decide_calls": calls["policies.decide"],
        "objectsync.delta_ratio": _ratio(counts["delta_bytes"],
                                         counts["encode_new_bytes"]),
        "sim.report_bytes": counts["report_bytes"],
    }
