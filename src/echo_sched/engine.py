"""Offload decision engine: place each task where it finishes soonest.

For every arriving task the engine estimates completion on the device and
on the cloud.  The sooner of the two, from arrival, is the task's promise:
on the edge it must finish no later than it would without one.  The edge
wins exactly when the best VM's schedule trial, plus the download leg,
ends by the promise; otherwise no_edge picks the faster of the other two.

Pricing the edge advances each tried VM's clock, which changes no
schedule; choosing the device or the cloud leaves every schedule as it
was.  Choosing edge commits the trial, and the promise becomes the task's
deadline; minus the download leg, the queue enforces it from then on, so
later arrivals can only preempt the task if it still finishes in time.
Under estimate noise the promise is shrunk to a lower bound on the true
no-edge time (see _distort), so it holds against the truth too.
"""

from __future__ import annotations

import logging
import math
from zlib import crc32

from .model import Decision, Platform, Task
from .scheduler import VmQueue, best_vm, commit

logger = logging.getLogger(__name__)


def estimate(task: Task, config) -> tuple[int, int]:
    """Device and cloud completion estimates for a task, for every policy.

    The device runs the task locally; the cloud pays both transfer legs
    around its execution.  Neither platform queues in this model: the
    device is the user's own and the cloud scales out per task.  Under
    `estimate_noise` both are distorted per task id and `seed` (_distort);
    edge legs are never distorted.
    """
    p = task.profile
    t_mobile = p.r_mobile
    t_cloud = p.up_cloud + p.r_cloud + p.down_cloud
    noise = config.estimate_noise
    if noise:
        t_mobile = _distort(t_mobile, task.id, config.seed, noise)
        t_cloud = _distort(t_cloud, task.id + "/c", config.seed, noise)
    return t_mobile, t_cloud


def decide(task: Task, queues: list[VmQueue], ready: int, config) -> Decision:
    """Place a task whose VM work may start at `ready`; commit if edge wins.

    Of the run's SimConfig, only `estimate_noise` and `seed` are read.
    """
    now = task.arrival
    t_mobile, t_cloud = estimate(task, config)
    p = task.profile
    # The promise: once admitted, the task ends by its no-edge alternative;
    # under noise, by a bound that no true duration undercuts (_distort).
    bound = min(t_mobile, t_cloud)
    noise = config.estimate_noise
    if noise:
        bound = math.floor((bound - 1) / (1 + noise))
    horizon = now + bound
    # No trial ends before ready + r_edge: past the promise, skip the trials.
    if (task.offloadable and queues
            and ready + p.r_edge + p.down_edge <= horizon):
        trial = best_vm(queues, task, ready, horizon - p.down_edge)
        done = trial.entry.end + p.down_edge
        if done <= horizon:  # ties go to the edge
            commit(trial)
            logger.debug("task %s -> edge vm %d (t_m=%d t_c=%d t_e=%d, "
                         "growth %d)", task.id, trial.vm_index, t_mobile,
                         t_cloud, done - now, trial.delta_t)
            return Decision(Platform.EDGE, done, vm_index=trial.vm_index,
                            deadline=horizon)
    return no_edge(task, t_mobile, t_cloud)


def no_edge(task: Task, t_mobile: int, t_cloud: int) -> Decision:
    """Place a task without the edge: the cloud if it is offloadable and
    no slower than the device (ties to the cloud), else the device."""
    if task.offloadable and t_cloud <= t_mobile:
        return Decision(Platform.CLOUD, task.arrival + t_cloud)
    return Decision(Platform.MOBILE, task.arrival + t_mobile)


def _distort(duration: int, key: str, seed: int, magnitude: float) -> int:
    """Deterministically mis-estimate a duration by up to +/- magnitude m.
    est = max(1, round(true * f)) with f in [1 - m, 1 + m), so unless clamped
    true > (est - 0.5) / (1 + m); either way true >= floor((est-1) / (1+m))."""
    h = crc32(key.encode(errors="surrogatepass"))  # lone surrogates too
    h ^= seed * 0x9E3779B1 & 0xFFFFFFFF
    unit = (h % 10_000) / 10_000.0            # [0, 1)
    factor = 1.0 + magnitude * (2.0 * unit - 1.0)
    distorted = round(duration * factor)
    return distorted if distorted > 0 else 1
