"""Trace-driven simulator, energy model, and reports.

run() replays a trace through one policy.  Decisions happen only at
arrivals: each arrival first advances every VM's clock to the arrival
instant, then the policy places the task.  The transfer model prices an
offloadable task once, before the decision (its upload leg sets when the
task's work may start on a VM), and commits the price only if the task
leaves the device.  Device and cloud tasks complete at their closed-form
times; edge tasks complete when their scheduled work finishes plus the
result download leg.  Everything is integer-microsecond arithmetic, so a
run is deterministic and reports are byte-identical across repeats.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import statistics
from dataclasses import dataclass, field
from pathlib import Path

from .model import (Decision, Platform, Task, check_int, check_real,
                    to_seconds, validate_trace)
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

    def response_time(self) -> int:
        return self.completion - self.arrival


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

        The records are streamed one at a time through json's C encoder
        (indent=2 forces the slower pure-Python one), framed so that the
        bytes equal json.dumps(self.to_dict(), sort_keys=True, indent=2).
        """
        head = json.dumps({"aggregates": self.aggregates,
                           "config": self.config,
                           "policy": self.policy}, sort_keys=True, indent=2)
        with open(path, "w") as fh:
            fh.write(head[:-2] + ',\n  "tasks": [')  # reopen the closing "\n}"
            sep = "\n"
            for r in self.records:
                fh.write(sep + "    {\n      " + _encode_record(vars(r))[1:-1]
                         + "\n    }")
                sep = ",\n"
            fh.write("\n  ]\n}\n" if self.records else "]\n}\n")

    def write_csv(self, path: str | Path) -> None:
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for r in self.records:
                writer.writerow([
                    r.task_id, r.user_id, r.app, r.arrival, r.platform,
                    "" if r.vm_index is None else r.vm_index,
                    r.predicted_completion, r.ready, r.start, r.completion,
                    r.waiting,
                    "" if r.deadline is None else r.deadline,
                    "" if r.deadline_met is None else int(r.deadline_met),
                    r.bytes_up, r.bytes_down, repr(r.energy_j),
                ])

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


# A TaskRecord is a flat dict of scalars, so this item separator lays its
# fields out exactly as indent=2 does at depth 2.
_encode_record = json.JSONEncoder(sort_keys=True,
                                  separators=(",\n      ", ": ")).encode

CSV_COLUMNS = [
    "task_id", "user_id", "app", "arrival_us", "platform", "vm_index",
    "predicted_completion_us", "ready_us", "start_us", "completion_us",
    "waiting_us", "deadline_us", "deadline_met", "bytes_up", "bytes_down",
    "energy_j",
]


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
        return params.p_cpu_mobile * to_seconds(profile.r_mobile)
    if decision.platform is Platform.EDGE:
        up_leg, down_leg = profile.up_edge, profile.down_edge
    else:
        up_leg, down_leg = profile.up_cloud, profile.down_cloud
    transfer = (_scale_leg(up_leg, bytes_up, profile.upload_bytes)
                + _scale_leg(down_leg, bytes_down, profile.download_bytes))
    idle = to_seconds(completion - task.arrival) - transfer
    if idle < 0.0:
        idle = 0.0
    return params.p_net_mobile * transfer + params.p_idle * idle


def _scale_leg(duration_us: int, actual_bytes: int, profiled_bytes: int) -> float:
    seconds = to_seconds(duration_us)
    if profiled_bytes > 0:
        return seconds * (actual_bytes / profiled_bytes)
    return seconds


# --------------------------------------------------------------------------
# the simulator

_NO_TRANSFER = TransferCost(0, 0, 0, 0)


def run(trace: TraceFile | list[Task], policy, config: SimConfig) -> SimReport:
    """Replay a trace through a policy; deterministic for fixed inputs."""
    tasks = trace.tasks if isinstance(trace, TraceFile) else trace
    # Decisions are keyed by task id: a duplicate would silently overwrite
    # the first task's outcome, so reject the trace as the CLI loader does.
    validate_trace(tasks)
    if isinstance(policy, str):
        policy = build_policy(policy)
    transfer = policy.transfer_model(config.sync)

    queues = [VmQueue(i) for i in range(config.num_vms)]
    ordered = sorted(tasks, key=lambda t: t.arrival)

    decisions: dict[str, Decision] = {}
    costs: dict[str, TransferCost] = {}
    for task in ordered:
        for queue in queues:
            queue.advance(task.arrival)
        cost = transfer.preview(task) if task.offloadable else _NO_TRANSFER
        ready = task.arrival + config.provision_delay + cost.up_us
        decision = policy.decide(task, queues, ready, config)
        if decision.platform is Platform.MOBILE:
            cost = _NO_TRANSFER
        else:
            transfer.commit(task)
        costs[task.id] = cost
        decisions[task.id] = decision

    for queue in queues:
        queue.advance(queue.horizon())

    records = [_realize(task, decisions[task.id], costs[task.id], queues,
                        config)
               for task in ordered]
    backhaul = sum(cost.backhaul_bytes for cost in costs.values())
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
        queue = queues[vm_index]
        ready = queue.ready_of(task.id)
        start = queue.first_start_of(task.id)
        exec_end = queue.completion_of(task.id)
        if start is None or exec_end is None:
            # run() drains every queue to its horizon before realizing.
            raise SimError(f"edge task {task.id!r} never finished executing")
        completion = exec_end + p.down_edge
        waiting = exec_end - ready - p.r_edge
    deadline = decision.deadline
    met = (completion <= deadline) if deadline is not None else None
    energy = energy_of(task, decision, cost.up_bytes, cost.down_bytes,
                       config.energy, completion=completion)
    return TaskRecord(
        task_id=task.id, user_id=task.user_id, app=task.app, arrival=arrival,
        platform=decision.platform_label(), vm_index=vm_index,
        predicted_completion=decision.predicted_completion,
        ready=ready, start=start, completion=completion, waiting=waiting,
        deadline=deadline, deadline_met=met,
        bytes_up=cost.up_bytes, bytes_down=cost.down_bytes, energy_j=energy,
    )


def _aggregate(records: list[TaskRecord], backhaul: int) -> dict:
    counts = {"mobile": 0, "edge": 0, "cloud": 0}
    responses: list[int] = []
    waits: list[int] = []
    deadline_tasks = 0
    deadline_met = 0
    bytes_up = bytes_down = 0
    energy = 0.0
    for r in records:
        counts[r.platform.split(":")[0]] += 1
        responses.append(r.response_time())
        if r.platform.startswith("edge"):
            waits.append(r.waiting)
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
        rank = -(-95 * len(ordered) // 100)  # ceil(0.95 n)
        aggregates["mean_completion_s"] = statistics.fmean(responses) / 1e6
        aggregates["median_completion_s"] = float(statistics.median(responses)) / 1e6
        aggregates["p95_completion_s"] = to_seconds(ordered[rank - 1])
    if waits:
        aggregates["mean_waiting_s"] = statistics.fmean(waits) / 1e6
    return aggregates


def _config_dict(policy_name: str, config: SimConfig, task_count: int) -> dict:
    """SimConfig field by field (lam as "lambda"), plus policy and tasks."""
    echo = dataclasses.asdict(config)
    echo["lambda"] = echo.pop("lam")
    return {**echo, "policy": policy_name, "tasks": task_count}
