"""Offload decision engine: place each task where it finishes soonest.

For every arriving task the engine estimates completion on the device, on
the cloud, and on the best edge VM (via a pure schedule trial), then picks
the platform with the smallest estimate.  Ties prefer edge, then cloud:
when times are equal the nearer or cheaper-for-the-operator option wins.

Pricing the edge advances each tried VM's clock, which changes no
schedule; choosing the device or the cloud leaves every schedule as it
was.  Choosing edge commits the trialed insertion and attaches a
completion deadline: the task must finish no later than the best it could
have done without the edge (device vs cloud, whichever is sooner).  That
deadline, minus the result download leg, is what the queue enforces for
the task from then on, so later arrivals can only preempt it if it still
finishes in time.
"""

from __future__ import annotations

import logging

from .model import Decision, Platform, Task
from .scheduler import TrialInsertion, VmQueue, best_vm, commit

logger = logging.getLogger(__name__)


def estimate(task: Task) -> tuple[int, int]:
    """Device and cloud completion durations for a task.

    The device runs the task locally; the cloud pays both transfer legs
    around its execution.  Neither platform queues in this model: the
    device is the user's own and the cloud scales out per task.
    """
    p = task.profile
    t_mobile = p.r_mobile
    t_cloud = p.up_cloud + p.r_cloud + p.down_cloud
    return t_mobile, t_cloud


def decide(task: Task, queues: list[VmQueue], ready: int, *,
           estimate_noise: float = 0.0, noise_seed: int = 0) -> Decision:
    """Place a task whose VM work may start at `ready`; commit if edge wins."""
    now = task.arrival
    t_mobile, t_cloud = estimate(task)
    if estimate_noise:
        t_mobile = _distort(t_mobile, task.id, noise_seed, estimate_noise)
        t_cloud = _distort(t_cloud, task.id + "/c", noise_seed, estimate_noise)
    if not task.offloadable:
        return Decision(Platform.MOBILE, now + t_mobile)

    p = task.profile
    # The task may only finish later than its no-edge alternative if it
    # was never admitted; once admitted this bound is its deadline.
    horizon = now + min(t_mobile, t_cloud)
    t_edge: int | None = None
    trial: TrialInsertion | None = None
    # No trial can end before ready + r_edge, so past this bound t_edge
    # would exceed min(t_mobile, t_cloud) and fastest() would not pick
    # the edge: skip the trials, which would only have advanced clocks.
    if queues and ready + p.r_edge + p.down_edge <= horizon:
        trial = best_vm(queues, task, ready, horizon - p.down_edge)
        t_edge = (trial.entry.end - now) + p.down_edge

    chosen = fastest(t_mobile, t_cloud, t_edge)
    if chosen is Platform.MOBILE:
        return Decision(Platform.MOBILE, now + t_mobile)
    if chosen is Platform.CLOUD:
        return Decision(Platform.CLOUD, now + t_cloud)
    assert trial is not None and t_edge is not None
    commit(trial)
    logger.debug("task %s -> edge vm %d (t_m=%d t_c=%d t_e=%d)",
                 task.id, trial.vm_index, t_mobile, t_cloud, t_edge)
    return Decision(Platform.EDGE, now + t_edge, vm_index=trial.vm_index,
                    deadline=horizon)


def fastest(t_mobile: int, t_cloud: int, t_edge: int | None) -> Platform:
    """Argmin of the estimates, ties to edge, then cloud, then the device;
    t_edge None means no edge."""
    if t_edge is not None and t_edge <= t_cloud and t_edge <= t_mobile:
        return Platform.EDGE
    return Platform.CLOUD if t_cloud <= t_mobile else Platform.MOBILE


def _distort(duration: int, key: str, seed: int, magnitude: float) -> int:
    """Deterministically mis-estimate a duration by up to +/- magnitude."""
    from zlib import crc32
    h = crc32(key.encode(errors="surrogatepass"))  # lone surrogates too
    h ^= seed * 0x9E3779B1 & 0xFFFFFFFF
    unit = (h % 10_000) / 10_000.0            # [0, 1)
    factor = 1.0 + magnitude * (2.0 * unit - 1.0)
    distorted = round(duration * factor)
    return distorted if distorted > 0 else 1
