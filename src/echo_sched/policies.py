"""Placement policies sharing one decide() interface.

A policy holds no settings: sim.run calls decide(task, queues, ready,
config) at each arrival, with `ready` the earliest instant the task's
work may start on a VM and `config` the run's SimConfig.  Every policy
reads its device and cloud estimates from engine.estimate(task, config),
noisy under `estimate_noise`; edge legs are always exact.  Only the two
edge-aware policies read the queues, and they change a schedule only when
they place the task on a VM.  echo advances each VM it tries to the
arrival before its trial; mcloud reads each VM's load off its queue tail
and advances only the VM it picks.  Each policy also declares its
transfer model, the class the simulator prices its offloads with: lazy
plus delta transmission for echo, profiled bytes as-is for the four
baselines.

    end-only      run everything on the device
    cloud-always  offload everything offloadable to the cloud
    thinkair      cloud iff its estimate strictly beats the device
    mcloud        the edge if its queue-blind estimate is no slower than
                  both others (FIFO on the least-loaded VM), else no_edge
    echo          deadline-guaranteeing edge scheduler (the engine)
"""

from __future__ import annotations

from . import engine
from .model import Decision, Platform, Task
from .objectsync import EagerTransfer, TransferAccountant
from .scheduler import VmQueue


class LocalOnlyPolicy:
    """Baseline: never offload."""

    name = "end-only"
    transfer_model = EagerTransfer

    def decide(self, task: Task, queues: list[VmQueue], ready: int,
               config) -> Decision:
        t_mobile, _ = engine.estimate(task, config)
        return Decision(Platform.MOBILE, task.arrival + t_mobile)


class CloudAlwaysPolicy:
    """Baseline: every offloadable task goes to the cloud, regardless of cost."""

    name = "cloud-always"
    transfer_model = EagerTransfer

    def decide(self, task: Task, queues: list[VmQueue], ready: int,
               config) -> Decision:
        t_mobile, t_cloud = engine.estimate(task, config)
        if task.offloadable:
            return Decision(Platform.CLOUD, task.arrival + t_cloud)
        return Decision(Platform.MOBILE, task.arrival + t_mobile)


class QueueBlindCloudPolicy:
    """Offload to the cloud only when that strictly beats running locally."""

    name = "thinkair"
    transfer_model = EagerTransfer

    def decide(self, task: Task, queues: list[VmQueue], ready: int,
               config) -> Decision:
        t_mobile, t_cloud = engine.estimate(task, config)
        if task.offloadable and t_cloud < t_mobile:
            return Decision(Platform.CLOUD, task.arrival + t_cloud)
        return Decision(Platform.MOBILE, task.arrival + t_mobile)


class BestEffortEdgePolicy:
    """Three-way argmin with an edge estimate that ignores queueing.

    The edge estimate assumes a free VM (transfer legs plus execution
    only), so under load the policy keeps piling tasks onto the least
    loaded VM's FIFO tail.  Loads are read at the arrival from each
    queue's tail (VmQueue.load), and only the chosen VM is advanced, just
    before the append.  Placements carry no deadline and are never
    revisited; actual completions can run far past the estimate.
    """

    name = "mcloud"
    transfer_model = EagerTransfer

    def decide(self, task: Task, queues: list[VmQueue], ready: int,
               config) -> Decision:
        now = task.arrival
        t_mobile, t_cloud = engine.estimate(task, config)
        p = task.profile
        t_edge = p.up_edge + p.r_edge + p.down_edge  # assumes no waiting
        if (task.offloadable and queues
                and t_edge <= t_mobile and t_edge <= t_cloud):  # ties to edge
            least = None
            for queue in queues:  # lowest index among equal loads
                load = queue.load(now)
                if least is None or load < least:
                    least, chosen_queue = load, queue
            chosen_queue.advance(now)
            chosen_queue.append_fifo(task, ready)
            return Decision(Platform.EDGE, now + t_edge,
                            vm_index=chosen_queue.vm_index)
        return engine.no_edge(task, t_mobile, t_cloud)


class DeadlineAwareEdgePolicy:
    """The decision engine: edge admission with a completion guarantee."""

    name = "echo"
    transfer_model = TransferAccountant

    def decide(self, task: Task, queues: list[VmQueue], ready: int,
               config) -> Decision:
        return engine.decide(task, queues, ready, config)


_POLICIES = {cls.name: cls for cls in (
    LocalOnlyPolicy, CloudAlwaysPolicy, QueueBlindCloudPolicy,
    BestEffortEdgePolicy, DeadlineAwareEdgePolicy)}

POLICY_NAMES = tuple(_POLICIES)


def build_policy(name: str):
    """Instantiate a policy by its CLI name."""
    if name not in _POLICIES:
        raise ValueError(f"unknown policy {name!r}; "
                         f"expected one of {', '.join(POLICY_NAMES)}")
    return _POLICIES[name]()
