"""The paper's headline claims over a fixed grid of traces.

Echo "significantly outperforms existing code offloading systems at both
execution time and energy consumption" (PAPER.md).  On mix-1/2/3 x
lambda in {1, 4, 16} x {1, 4, 16} VMs x seeds {0, 1}, 600 tasks each and
no estimate noise, every cell runs all five policies:

- echo's mean and p95 response are at or below every baseline's;
- echo's device energy is at or below that of the three policies without
  an edge (end-only, cloud-always, thinkair);
- where echo spends more energy than mcloud, mcloud pays for its saving
  in time: its mean response is a larger multiple of echo's than echo's
  energy is of mcloud's.  mcloud parks work on busy VMs, where the device
  idles at low power while the task waits; echo keeps such tasks on the
  device or sends them to the cloud, which is faster but costs energy.
"""

import itertools

import pytest

from echo_sched.policies import POLICY_NAMES
from echo_sched.sim import SimConfig, run
from echo_sched.traceio import MixSpec, generate

MIXES = ("mix-1", "mix-2", "mix-3")
LAMBDAS = (1.0, 4.0, 16.0)
VMS = (1, 4, 16)
SEEDS = (0, 1)
TASKS = 600
NO_EDGE = ("end-only", "cloud-always", "thinkair")


@pytest.fixture(scope="module")
def grid():
    cells = {}
    for mix, lam, vms, seed in itertools.product(MIXES, LAMBDAS, VMS, SEEDS):
        trace = generate(TASKS, lam, MixSpec.preset(mix), seed)
        config = SimConfig(num_vms=vms, lam=lam, seed=seed)
        cells[mix, lam, vms, seed] = {
            policy: run(trace, policy, config).aggregates
            for policy in POLICY_NAMES}
    return cells


def test_echo_responds_no_slower_than_any_baseline(grid):
    for cell, a in grid.items():
        for policy in POLICY_NAMES:
            for key in ("mean_completion_s", "p95_completion_s"):
                assert a["echo"][key] <= a[policy][key], (cell, policy, key)


def test_echo_spends_no_more_energy_than_the_no_edge_baselines(grid):
    for cell, a in grid.items():
        for policy in NO_EDGE:
            assert a["echo"]["energy_j"] <= a[policy]["energy_j"], (cell,
                                                                    policy)


def test_echo_buys_back_any_energy_over_mcloud_in_response_time(grid):
    for cell, a in grid.items():
        echo, mcloud = a["echo"], a["mcloud"]
        if echo["energy_j"] <= mcloud["energy_j"]:
            continue
        energy_ratio = echo["energy_j"] / mcloud["energy_j"]
        response_ratio = (mcloud["mean_completion_s"]
                          / echo["mean_completion_s"])
        assert response_ratio > energy_ratio, (cell, energy_ratio,
                                               response_ratio)
