"""Trace-driven simulator, energy model, and reports.

run() replays a trace through one policy.  Decisions happen only at
arrivals: the policy places the task, advancing a VM's clock to the
arrival only when it reads that VM's queue.  The transfer model prices
an offloadable task once, before the decision (its upload leg sets when
the task's work may start on a VM), and commits the price only if the
task leaves the device.  Device and cloud tasks complete at their
closed-form times; edge tasks complete when their scheduled work finishes
plus the result download leg.  Everything is integer-microsecond
arithmetic, so a run is deterministic and reports are byte-identical
across repeats.
"""

from __future__ import annotations

import dataclasses
import json
import re
import statistics
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii
from operator import attrgetter
from pathlib import Path

from .model import (US_PER_SECOND, Decision, Platform, Task, check_int,
                    check_real, to_seconds, validate_trace)
from .objectsync import SyncParams, TransferCost
from .policies import build_policy
from .scheduler import VmQueue
from .traceio import TraceFile


class SimError(ValueError):
    pass


@dataclass(frozen=True)
class EnergyParams:
    """Linear device-energy model: CPU power while computing locally, radio
    power while bytes are in flight, idle draw while waiting on a result."""

    p_cpu_mobile: float = 0.8
    p_net_mobile: float = 0.7
    p_idle: float = 0.02

    def __post_init__(self) -> None:
        for name in ("p_cpu_mobile", "p_net_mobile", "p_idle"):
            value = getattr(self, name)
            check_real(name, value)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")


@dataclass(frozen=True)
class SimConfig:
    num_vms: int
    lam: float | None = None          # arrival rate label, echoed into reports
    energy: EnergyParams = field(default_factory=EnergyParams)
    seed: int = 0
    provision_delay: int = 0
    sync: SyncParams = field(default_factory=SyncParams)
    estimate_noise: float = 0.0

    def __post_init__(self) -> None:
        check_int("num_vms", self.num_vms)
        check_int("seed", self.seed)
        if not 0 <= self.num_vms <= 1024:
            raise ValueError(f"num_vms must be in [0, 1024], got {self.num_vms}")
        if self.lam is not None:
            check_real("lambda", self.lam)
            if self.lam <= 0:
                raise ValueError(f"lambda must be positive, got {self.lam}")
        for name, check in (("provision_delay", check_int),
                            ("estimate_noise", check_real)):
            value = getattr(self, name)
            check(name, value)
            if value < 0:
                raise ValueError(f"{name} must be >= 0, got {value}")
        if self.estimate_noise > 1:
            # 1 + noise * (2u - 1) must stay a non-negative factor.
            raise ValueError(f"estimate_noise must be in [0, 1], "
                             f"got {self.estimate_noise}")
        for name, kind in (("energy", EnergyParams), ("sync", SyncParams)):
            value = getattr(self, name)
            if not isinstance(value, kind):
                raise ValueError(f"{name} must be a {kind.__name__}, "
                                 f"got {value!r}")


@dataclass
class TaskRecord:
    task_id: str
    user_id: str
    app: str
    arrival: int
    platform: str                 # "mobile", "cloud", or "edge:<vm>"
    vm_index: int | None
    predicted_completion: int
    ready: int
    start: int
    completion: int
    waiting: int
    deadline: int | None
    deadline_met: bool | None
    bytes_up: int
    bytes_down: int
    energy_j: float


@dataclass
class SimReport:
    policy: str
    config: dict
    records: list[TaskRecord]
    aggregates: dict

    def to_dict(self) -> dict:
        return {
            "policy": self.policy,
            "config": self.config,
            "aggregates": self.aggregates,
            "tasks": [vars(r).copy() for r in self.records],
        }

    def write_json(self, path: str | Path) -> None:
        """Write to_dict() as sorted-key, 2-space-indented JSON.

        The head (aggregates, config, policy) goes through json.dumps;
        each record is streamed through one template of the same layout,
        so the bytes equal json.dumps(self.to_dict(), sort_keys=True,
        indent=2).  A record whose fields are not exactly their annotated
        types raises TypeError before anything is written for it.
        """
        head = json.dumps({"aggregates": self.aggregates,
                           "config": self.config,
                           "policy": self.policy}, sort_keys=True, indent=2)
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(head[:-2] + ',\n  "tasks": [')  # reopen the closing "\n}"
            records = map(_record_json, self.records)
            first = next(records, None)
            if first is None:
                fh.write("]\n}\n")
                return
            fh.write(first[1:])  # no comma before the first record
            fh.writelines(records)
            fh.write("\n  ]\n}\n")

    def write_csv(self, path: str | Path) -> None:
        """Write one row per record, as csv.writer's default dialect would.

        Rows end in \\r\\n, and a text field is quoted, with its quotes
        doubled, exactly when it holds a comma, a quote, \\r or \\n
        (QUOTE_MINIMAL).  Unlike csv.writer on Python 3.10, a NUL is
        written as it is.  The file is UTF-8 whatever the locale; a lone
        surrogate, which UTF-8 cannot hold, is written as its escape
        (\\ud800), as the report JSON writes it.  Records are checked as
        in write_json.
        """
        with open(path, "w", newline="", encoding="utf-8",
                  errors="backslashreplace") as fh:
            fh.write(",".join(CSV_COLUMNS) + "\r\n")
            fh.writelines(map(_record_csv, self.records))

    def summary_text(self) -> str:
        a = self.aggregates
        lines = [f"policy={self.policy} tasks={a['tasks']}"]
        counts = a["platform_counts"]
        lines.append("placements: " + ", ".join(
            f"{name}={counts[name]}" for name in ("mobile", "edge", "cloud")))
        if a["tasks"]:
            lines.append(
                f"completion s: mean={a['mean_completion_s']:.4f} "
                f"median={a['median_completion_s']:.4f} p95={a['p95_completion_s']:.4f}")
        if a["deadline_tasks"]:
            lines.append(
                f"deadline compliance: {100.0 * a['deadline_compliance']:.1f}% "
                f"of {a['deadline_tasks']} guaranteed tasks")
        lines.append(
            f"bytes: up={a['bytes_up']} down={a['bytes_down']} "
            f"backhaul={a['backhaul_bytes']}")
        lines.append(f"energy: {a['energy_j']:.4f} J")
        return "\n".join(lines)


CSV_COLUMNS = [
    "task_id", "user_id", "app", "arrival_us", "platform", "vm_index",
    "predicted_completion_us", "ready_us", "start_us", "completion_us",
    "waiting_us", "deadline_us", "deadline_met", "bytes_up", "bytes_down",
    "energy_j",
]

# --------------------------------------------------------------------------
# report rows: one template per record.  For the exact types TaskRecord
# declares, %s writes what json.dumps and csv.writer write (str(int) and
# str(float) are their reprs); _check_types refuses any other type.

_DECLARED = {"str": (str,), "int": (int,), "float": (float,),
             "int | None": (int, type(None)), "bool | None": (bool, type(None))}
_RECORD_TYPES = [(f.name, _DECLARED[f.type])
                 for f in dataclasses.fields(TaskRecord)]


def _check_types(r: TaskRecord) -> None:
    if (type(r.task_id) is type(r.user_id) is type(r.app) is type(r.platform)
            is str
            and type(r.arrival) is type(r.predicted_completion) is type(r.ready)
            is type(r.start) is type(r.completion) is type(r.waiting)
            is type(r.bytes_up) is type(r.bytes_down) is int
            and type(r.energy_j) is float
            and (r.vm_index is None or type(r.vm_index) is int)
            and (r.deadline is None or type(r.deadline) is int)
            and (r.deadline_met is None or type(r.deadline_met) is bool)):
        return
    for name, types in _RECORD_TYPES:
        value = getattr(r, name)
        if type(value) not in types:
            raise TypeError(f"record {r.task_id!r}: {name} holds {value!r}, "
                            f"not {' or '.join(t.__name__ for t in types)}")


# a record at depth 2 of indent=2, keys sorted, led by its separator
_RECORD_JSON = (",\n    {\n" + ",\n".join(
    f'      "{name}": %s' for name in sorted(f.name for f in
                                            dataclasses.fields(TaskRecord)))
    + "\n    }")


def _record_json(r: TaskRecord, text=encode_basestring_ascii) -> str:
    _check_types(r)
    met, energy = r.deadline_met, r.energy_j
    if energy - energy != 0.0:  # json's names for the non-finite floats
        energy = ("NaN" if energy != energy
                  else "Infinity" if energy > 0 else "-Infinity")
    return _RECORD_JSON % (  # in sorted-key order
        text(r.app), r.arrival, r.bytes_down, r.bytes_up, r.completion,
        "null" if r.deadline is None else r.deadline,
        "null" if met is None else "true" if met else "false",
        energy, text(r.platform), r.predicted_completion, r.ready, r.start,
        text(r.task_id), text(r.user_id),
        "null" if r.vm_index is None else r.vm_index, r.waiting)


_CSV_ROW = ",".join(["%s"] * len(CSV_COLUMNS)) + "\r\n"
_csv_needs_quotes = re.compile('[,"\r\n]').search


def _csv_text(s: str) -> str:
    """s as csv.QUOTE_MINIMAL writes it in the default dialect."""
    if _csv_needs_quotes(s) is None:
        return s
    return '"' + s.replace('"', '""') + '"'


def _record_csv(r: TaskRecord) -> str:
    _check_types(r)
    met = r.deadline_met
    return _CSV_ROW % (
        _csv_text(r.task_id), _csv_text(r.user_id), _csv_text(r.app),
        r.arrival, _csv_text(r.platform),
        "" if r.vm_index is None else r.vm_index,
        r.predicted_completion, r.ready, r.start, r.completion, r.waiting,
        "" if r.deadline is None else r.deadline,
        "" if met is None else "1" if met else "0",
        r.bytes_up, r.bytes_down, r.energy_j)


# --------------------------------------------------------------------------
# energy


def energy_of(task: Task, decision: Decision, bytes_up: int, bytes_down: int,
              params: EnergyParams, completion: int) -> float:
    """Device-side energy of one realized task, in joules.

    Local execution burns CPU power for the run time.  An offloaded task
    burns radio power while bytes move (transfer legs scaled by the bytes
    actually sent relative to the profiled payload) and idle power for the
    rest of the wait until the realized completion.
    """
    profile = task.profile
    if decision.platform is Platform.MOBILE:
        return params.p_cpu_mobile * (profile.r_mobile / US_PER_SECOND)
    if decision.platform is Platform.EDGE:
        up_leg, down_leg = profile.up_edge, profile.down_edge
    else:
        up_leg, down_leg = profile.up_cloud, profile.down_cloud
    up, down = up_leg / US_PER_SECOND, down_leg / US_PER_SECOND
    if profile.upload_bytes > 0:
        up *= bytes_up / profile.upload_bytes
    if profile.download_bytes > 0:
        down *= bytes_down / profile.download_bytes
    transfer = up + down
    idle = (completion - task.arrival) / US_PER_SECOND - transfer
    if idle < 0.0:
        idle = 0.0
    return params.p_net_mobile * transfer + params.p_idle * idle


# --------------------------------------------------------------------------
# the simulator

_NO_TRANSFER = TransferCost(0, 0, 0, 0)


def run(trace: TraceFile | list[Task], policy, config: SimConfig) -> SimReport:
    """Replay a trace through a policy; deterministic for fixed inputs."""
    tasks = trace.tasks if isinstance(trace, TraceFile) else trace
    # A duplicate id would collide in a VM queue's bookkeeping, so reject
    # the trace as the CLI loader does.
    validate_trace(tasks)
    if isinstance(policy, str):
        policy = build_policy(policy)
    transfer = policy.transfer_model(config.sync)

    queues = [VmQueue(i) for i in range(config.num_vms)]

    placed: list[tuple[Task, Decision, TransferCost]] = []
    for task in sorted(tasks, key=attrgetter("arrival")):
        cost = transfer.preview(task) if task.offloadable else _NO_TRANSFER
        ready = task.arrival + config.provision_delay + cost.up_us
        decision = policy.decide(task, queues, ready, config)
        if decision.platform is Platform.MOBILE:
            cost = _NO_TRANSFER
        else:
            transfer.commit(task)
        placed.append((task, decision, cost))

    for queue in queues:
        queue.advance(queue.horizon())

    records = [_realize(task, decision, cost, queues, config)
               for task, decision, cost in placed]
    backhaul = sum(cost.backhaul_bytes for _, _, cost in placed)
    return SimReport(policy=policy.name,
                     config=_config_dict(policy.name, config, len(records)),
                     records=records,
                     aggregates=_aggregate(records, backhaul))


def _realize(task: Task, decision: Decision, cost: TransferCost,
             queues: list[VmQueue], config: SimConfig) -> TaskRecord:
    p = task.profile
    arrival = task.arrival
    vm_index = decision.vm_index
    if decision.platform is Platform.MOBILE:
        ready = start = arrival
        completion = arrival + p.r_mobile
        waiting = 0
    elif decision.platform is Platform.CLOUD:
        ready = arrival
        start = arrival + p.up_cloud
        completion = start + p.r_cloud + p.down_cloud
        waiting = 0
    else:
        assert vm_index is not None
        entry = queues[vm_index].entry(task.id)
        ready = entry.ready
        start = entry.first_start
        if start is None or entry.remaining:
            # run() drains every queue to its horizon before realizing.
            raise SimError(f"edge task {task.id!r} never finished executing")
        exec_end = entry.end
        completion = exec_end + p.down_edge
        waiting = exec_end - ready - p.r_edge
    deadline = decision.deadline
    met = (completion <= deadline) if deadline is not None else None
    energy = energy_of(task, decision, cost.up_bytes, cost.down_bytes,
                       config.energy, completion=completion)
    # positional, in field order
    return TaskRecord(
        task.id, task.user_id, task.app, arrival, decision.platform_label(),
        vm_index, decision.predicted_completion, ready, start, completion,
        waiting, deadline, met, cost.up_bytes, cost.down_bytes, energy)


def _aggregate(records: list[TaskRecord], backhaul: int) -> dict:
    counts = {"mobile": 0, "edge": 0, "cloud": 0}
    responses: list[int] = []
    waits: list[int] = []
    deadline_tasks = 0
    deadline_met = 0
    bytes_up = bytes_down = 0
    energy = 0.0
    for r in records:
        if r.vm_index is None:
            counts[r.platform] += 1
        else:
            counts["edge"] += 1
            waits.append(r.waiting)
        responses.append(r.completion - r.arrival)
        if r.deadline is not None:
            deadline_tasks += 1
            deadline_met += bool(r.deadline_met)
        bytes_up += r.bytes_up
        bytes_down += r.bytes_down
        energy += r.energy_j
    aggregates = {
        "tasks": len(records),
        "platform_counts": counts,
        "mean_completion_s": None,
        "median_completion_s": None,
        "p95_completion_s": None,
        "mean_waiting_s": None,
        "deadline_tasks": deadline_tasks,
        "deadline_compliance": (deadline_met / deadline_tasks
                                if deadline_tasks else None),
        "bytes_up": bytes_up,
        "bytes_down": bytes_down,
        "backhaul_bytes": backhaul,
        "energy_j": energy,
    }
    if responses:
        ordered = sorted(responses)
        n = len(ordered)
        mid = n // 2
        # statistics.median's arithmetic, on the list already sorted
        median = ordered[mid] if n % 2 else (ordered[mid - 1] + ordered[mid]) / 2
        rank = -(-95 * n // 100)  # ceil(0.95 n)
        aggregates["mean_completion_s"] = statistics.fmean(responses) / 1e6
        aggregates["median_completion_s"] = float(median) / 1e6
        aggregates["p95_completion_s"] = to_seconds(ordered[rank - 1])
    if waits:
        aggregates["mean_waiting_s"] = statistics.fmean(waits) / 1e6
    return aggregates


def _config_dict(policy_name: str, config: SimConfig, task_count: int) -> dict:
    """SimConfig field by field (lam as "lambda"), plus policy and tasks."""
    echo = dataclasses.asdict(config)
    echo["lambda"] = echo.pop("lam")
    return {**echo, "policy": policy_name, "tasks": task_count}
