"""The benchmark's workloads: inputs from a seed, one timed iteration, checks.

Every workload is a batch job over inputs built from the workload seed.
`build` runs in set-up; `iterate` is the timed region and returns the
number of work units it completed (simulated tasks, or payload pairs on
the codec); `check` runs after the timer stops and returns the checks and
the digests and aggregates of the behaviour fingerprint.
"""

from __future__ import annotations

import configparser
import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from importlib import resources
from pathlib import Path

import echo_sched.cli
import echo_sched.objectsync
import echo_sched.sim
import echo_sched.traceio
from echo_sched.objectsync import DEFAULT_BLOCK, DELTA_HEADER_BUDGET, SyncParams


@dataclass
class Outcome:
    """What one iteration produced, for checks and the fingerprint."""

    digest: dict[str, str]
    aggregates: dict
    checks: dict[str, bool]


def _sha256_file(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _no_edge_bound_holds(tasks, records) -> bool:
    """Every offloadable task finishes no later than without an edge.

    The bound is priced with the task's true profile:
    min(r_mobile, up_cloud + r_cloud + down_cloud) after its arrival.
    """
    by_id = {task.id: task for task in tasks}
    for record in records:
        task = by_id[record["task_id"]]
        if not task.offloadable:
            continue
        p = task.profile
        bound = min(p.r_mobile, p.up_cloud + p.r_cloud + p.down_cloud)
        if record["completion"] - record["arrival"] > bound:
            return False
    return True


class SimulateWorkload:
    """sim.run over a trace generated in set-up."""

    def __init__(self, policy: str, n: int, tiny_n: int, lam: float, mix: str,
                 vms: int):
        self.policy = policy
        self.n, self.tiny_n, self.lam, self.mix, self.vms = n, tiny_n, lam, mix, vms

    def build(self, seed: int, tiny: bool):
        n = self.tiny_n if tiny else self.n
        return echo_sched.traceio.generate(
            n, self.lam, echo_sched.traceio.MixSpec.preset(self.mix), seed)

    def input_digest(self, trace) -> str:
        return hashlib.sha256(repr(trace.tasks).encode()).hexdigest()

    def iterate(self, trace, workdir: Path):
        config = echo_sched.sim.SimConfig(num_vms=self.vms, lam=self.lam)
        report = echo_sched.sim.run(trace, self.policy, config)
        return len(trace.tasks), report

    def check(self, trace, report, workdir: Path) -> Outcome:
        json_path, csv_path = workdir / "report.json", workdir / "report.csv"
        report.write_json(json_path)
        report.write_csv(csv_path)
        aggregates = report.aggregates
        checks = {"every_task_reported": aggregates["tasks"] == len(trace.tasks)}
        if self.policy == "echo":
            checks["deadline_compliance"] = aggregates["deadline_compliance"] == 1.0
            checks["no_edge_bound"] = _no_edge_bound_holds(
                trace.tasks, (vars(r) for r in report.records))
        return Outcome({"report.json": _sha256_file(json_path),
                        "report.csv": _sha256_file(csv_path)},
                       aggregates, checks)


class PipelineWorkload:
    """The README's command-line flow, in-process through cli.main."""

    n, tiny_n, lam, mix, vms = 20_000, 400, 2.0, "mix-2", 4

    def build(self, seed: int, tiny: bool):
        n = self.tiny_n if tiny else self.n
        gen = ["gen-traces", "--n", str(n), "--lambda", str(self.lam),
               "--mix", self.mix, "--seed", str(seed), "--out", "{trace}"]
        simulate = ["simulate", "--trace", "{trace}", "--policy", "echo",
                    "--vms", str(self.vms), "--lambda-label", str(self.lam),
                    "--out", "{prefix}"]
        return {"n": n, "commands": [gen, simulate]}

    def input_digest(self, inputs) -> str:
        return hashlib.sha256(json.dumps(inputs).encode()).hexdigest()

    def _paths(self, workdir: Path) -> dict[str, Path]:
        return {"trace": workdir / "trace.jsonl",
                "json": workdir / "report.json",
                "csv": workdir / "report.csv"}

    def iterate(self, inputs, workdir: Path):
        values = {"trace": str(workdir / "trace.jsonl"),
                  "prefix": str(workdir / "report")}
        with contextlib.redirect_stdout(io.StringIO()):
            for command in inputs["commands"]:
                argv = [arg.format(**values) for arg in command]
                code = echo_sched.cli.main(argv)
                if code != 0:
                    raise RuntimeError(f"echo-sched {argv[0]} exited {code}")
        return inputs["n"], None

    def check(self, inputs, _result, workdir: Path) -> Outcome:
        paths = self._paths(workdir)
        trace = echo_sched.traceio.load(paths["trace"])
        report = json.loads(paths["json"].read_text())
        aggregates = report["aggregates"]
        checks = {
            "every_task_reported": aggregates["tasks"] == inputs["n"]
            and len(trace.tasks) == inputs["n"],
            "deadline_compliance": aggregates["deadline_compliance"] == 1.0,
            "no_edge_bound": _no_edge_bound_holds(trace.tasks, report["tasks"]),
        }
        digest = {"trace.jsonl": _sha256_file(paths["trace"]),
                  "report.json": _sha256_file(paths["json"]),
                  "report.csv": _sha256_file(paths["csv"])}
        # the next iteration writes its files afresh, as a first run would
        for path in paths.values():
            path.unlink()
        return Outcome(digest, aggregates, checks)


def archetype_slice_sizes() -> dict[str, int]:
    """Referred-state bytes of each built-in app archetype.

    This is the slice TransferAccountant charges on a first offload and
    deltas on repeat offloads, derived from the archetype's central
    upload size and the default SyncParams.
    """
    parser = configparser.ConfigParser()
    parser.read_string(resources.files("echo_sched")
                       .joinpath("app_profiles.ini").read_text())
    params = SyncParams()
    sizes = {}
    for section in parser.sections():
        if section.startswith("app."):
            upload = round(parser.getfloat(section, "upload_kb") * 1024)
            resource = upload - int(upload * params.args_share)
            sizes[section[len("app."):]] = int(resource * params.referred_share)
    return dict(sorted(sizes.items(), key=lambda item: item[1]))


EDIT_KINDS = ("identical", "blocks", "insert", "delete", "prepend", "append",
              "rotate")


def _edit(rng: random.Random, old: bytes, kind: str, fraction: float) -> bytes:
    """Apply one edit kind that changes about `fraction` of the payload."""
    n = len(old)
    span = max(1, int(n * fraction))
    if kind == "identical":
        return old
    if kind == "blocks":
        new = bytearray(old)
        blocks = max(1, n // DEFAULT_BLOCK)
        for b in rng.sample(range(blocks), max(1, round(blocks * fraction))):
            lo = b * DEFAULT_BLOCK
            hi = min(lo + DEFAULT_BLOCK, n)
            new[lo:hi] = rng.randbytes(hi - lo)
        return bytes(new)
    if kind == "insert":
        cut = rng.randrange(n + 1)
        return old[:cut] + rng.randbytes(span) + old[cut:]
    if kind == "delete":
        lo = rng.randrange(n - span + 1)
        return old[:lo] + old[lo + span:]
    if kind == "prepend":
        return rng.randbytes(span) + old
    if kind == "append":
        return old + rng.randbytes(span)
    if kind == "rotate":
        return old[span:] + old[:span]
    raise ValueError(f"unknown edit kind {kind!r}")


class CodecWorkload:
    """diff_encode then diff_apply over seeded payload pairs."""

    large = 1 << 20

    def build(self, seed: int, tiny: bool):
        sizes = list(archetype_slice_sizes().values())
        sizes = sizes[:3] if tiny else sizes + [self.large]
        fraction = SyncParams().change_fraction
        rng = random.Random(seed)
        pairs = []
        for size in sizes:
            old = rng.randbytes(size)
            for kind in EDIT_KINDS:
                pairs.append((old, _edit(rng, old, kind, fraction)))
        return pairs

    def input_digest(self, pairs) -> str:
        h = hashlib.sha256()
        for old, new in pairs:
            h.update(hashlib.sha256(old).digest() + hashlib.sha256(new).digest())
        return h.hexdigest()

    def iterate(self, pairs, workdir: Path):
        objectsync = echo_sched.objectsync
        deltas = [objectsync.diff_encode(old, new) for old, new in pairs]
        rebuilt = [objectsync.diff_apply(old, delta)
                   for (old, _), delta in zip(pairs, deltas)]
        return len(pairs), (deltas, rebuilt)

    def check(self, pairs, result, workdir: Path) -> Outcome:
        deltas, rebuilt = result
        h = hashlib.sha256()
        for delta in deltas:
            h.update(delta)
        new_bytes = sum(len(new) for _, new in pairs)
        delta_bytes = sum(len(delta) for delta in deltas)
        checks = {
            "round_trip": all(got == new for got, (_, new) in zip(rebuilt, pairs)),
            "delta_size_bound": all(
                len(delta) <= len(new) + DELTA_HEADER_BUDGET
                for delta, (_, new) in zip(deltas, pairs)),
        }
        aggregates = {"pairs": len(pairs), "new_bytes": new_bytes,
                      "delta_bytes": delta_bytes}
        return Outcome({"deltas": h.hexdigest()}, aggregates, checks)


# Why each workload was chosen is recorded beside its name in BENCHMARK.json.
WORKLOADS = {
    "echo-saturated": SimulateWorkload(
        policy="echo", n=10_000, tiny_n=300, lam=20.0, mix="mix-1", vms=16),
    "mcloud-saturated": SimulateWorkload(
        policy="mcloud", n=10_000, tiny_n=300, lam=8.0, mix="mix-1", vms=4),
    "pipeline": PipelineWorkload(),
    "codec": CodecWorkload(),
}
