"""Trace schema, JSON-Lines serialization, and synthetic trace generation.

A trace file is one JSON header line (schema tag plus an echo of the
generator's configuration) followed by one JSON object per task, field
names exactly as in model.Task.  All times are integer microseconds, so
save/load round-trips are exact.

The generator draws exponential inter-arrivals, assigns each task an app
archetype from a two-class mix (interactive vs compute-heavy), and draws
its cost profile from per-app ranges in a plain INI config shipped with
the package (clearly labeled as non-authoritative estimates).
"""

from __future__ import annotations

import configparser
import json
import logging
import os
import random
from bisect import bisect
from dataclasses import dataclass, field
from importlib import resources
from itertools import accumulate
from json.encoder import encode_basestring_ascii
from pathlib import Path

from .model import (CostProfile, Task, TraceError, check_int, check_real,
                    from_seconds, validate_trace)

logger = logging.getLogger(__name__)

SCHEMA = "echo-sched-trace/1"

_PROFILE_JITTER = 0.25          # +/- fraction applied to each drawn quantity
_REMOTE_SPEED_RANGE = (0.8, 1.0)  # cloud execution as a fraction of edge
_USER_POOL = 100


@dataclass(frozen=True)
class MixSpec:
    """Workload mix: class split plus per-app weights within each class."""

    interactive_fraction: float
    interactive_weights: dict[str, float] = field(
        default_factory=lambda: {"ocr": 1.0, "filter": 1.0})
    compute_weights: dict[str, float] = field(
        default_factory=lambda: {"chess": 1.0, "sudoku": 1.0, "nqueens": 1.0})

    def __post_init__(self) -> None:
        check_real("interactive_fraction", self.interactive_fraction)
        if not 0.0 <= self.interactive_fraction <= 1.0:
            raise ValueError(
                f"interactive_fraction must be in [0, 1], got {self.interactive_fraction}")
        for label, weights in (("interactive", self.interactive_weights),
                               ("compute", self.compute_weights)):
            if not weights:
                raise ValueError(f"{label} app weights must not be empty")
            # generate() draws from the running sums of these weights
            # without random.choices' checks, so every weight and the
            # total must be finite and the total positive.
            for app, w in weights.items():
                check_real(f"{label} weight of {app!r}", w)
                if w <= 0:
                    raise ValueError(f"{label} app weights must all be positive, "
                                     f"got {w!r} for {app!r}")
            check_real(f"{label} weight total",
                       sum(weights[app] for app in sorted(weights)))

    @classmethod
    def preset(cls, name: str) -> "MixSpec":
        """Named class splits: mix-1 is interactive-heavy, mix-3 compute-heavy."""
        fractions = {"mix-1": 0.8, "mix-2": 0.5, "mix-3": 0.2}
        if name not in fractions:
            raise ValueError(f"unknown mix preset {name!r}; "
                             f"expected one of {', '.join(sorted(fractions))}")
        return cls(interactive_fraction=fractions[name])


@dataclass
class TraceFile:
    header: dict
    tasks: list[Task]


# --------------------------------------------------------------------------
# serialization


_encode_line = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# A task line as _encode_line writes dataclasses.asdict(task): keys sorted,
# no spaces.  Strings take json's own C escaper, ints %d.
_TASK_LINE = (
    '{"app":%s,"arrival":%d,"id":%s,"offloadable":%s,"profile":{'
    '"down_cloud":%d,"down_edge":%d,"download_bytes":%d,'
    '"r_cloud":%d,"r_edge":%d,"r_mobile":%d,'
    '"up_cloud":%d,"up_edge":%d,"upload_bytes":%d},"user_id":%s}\n')


def _task_line(task: Task, text=encode_basestring_ascii) -> str:
    p = task.profile
    return _TASK_LINE % (
        text(task.app), task.arrival, text(task.id),
        "true" if task.offloadable else "false",
        p.down_cloud, p.down_edge, p.download_bytes, p.r_cloud, p.r_edge,
        p.r_mobile, p.up_cloud, p.up_edge, p.upload_bytes, text(task.user_id))


def save(trace: TraceFile, path: str | Path) -> None:
    """Write the header line, then one line per task, streamed.

    The header goes through json's encoder, each task line through one
    template; the bytes equal json.dumps(row, sort_keys=True,
    separators=(",", ":")) of the header and of dataclasses.asdict(task)
    (the constructors' checks make every field a str, int or bool).
    Lines go to a sibling temporary file that replaces `path` only once
    every task has been encoded, so a task that cannot be encoded leaves
    no truncated trace behind (load() would take it for a shorter one).
    """
    path = Path(path)
    header = dict(trace.header)
    header.setdefault("schema", SCHEMA)
    head = _encode_line(header)
    tmp = path.with_name(path.name + ".tmp")
    try:
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(head + "\n")
            fh.writelines(map(_task_line, trace.tasks))
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def load(path: str | Path) -> TraceFile:
    path = Path(path)
    text = path.read_text(encoding="utf-8")
    if not text.strip():
        return TraceFile(header={"schema": SCHEMA}, tasks=[])
    lines = text.splitlines()
    try:
        header = json.loads(lines[0])
    except json.JSONDecodeError as exc:
        raise TraceError(f"{path}: line 1: malformed header: {exc}") from None
    if not isinstance(header, dict) or header.get("schema") != SCHEMA:
        raise TraceError(f"{path}: line 1: missing or unsupported schema tag "
                         f"(expected {SCHEMA!r})")
    tasks: list[Task] = []
    for lineno, line in enumerate(lines[1:], start=2):
        if not line.strip():
            continue
        try:
            row = json.loads(line)
            tasks.append(_task_from_dict(row))
        except (json.JSONDecodeError, KeyError, TypeError, ValueError) as exc:
            raise TraceError(f"{path}: line {lineno}: {exc}") from None
    for warning in validate_trace(tasks):
        logger.warning("%s: %s", path, warning)
    return TraceFile(header=header, tasks=tasks)


def _task_from_dict(row: dict) -> Task:
    if not isinstance(row, dict):
        raise ValueError(f"expected a task object, got {type(row).__name__}")
    return Task(**{**row, "profile": CostProfile(**row["profile"])})


# --------------------------------------------------------------------------
# generation


@dataclass(frozen=True)
class _AppArchetype:
    name: str
    interactive: bool
    r_mobile_s: float
    r_edge_s: float
    upload_kb: float
    download_kb: float


@dataclass(frozen=True)
class _LinkParams:
    edge_rate_kb_per_s: float
    edge_latency_ms: float
    cloud_rate_kb_per_s: float
    cloud_latency_ms: float


def _load_profiles(path: str | Path | None) -> tuple[dict[str, _AppArchetype], _LinkParams]:
    parser = configparser.ConfigParser()
    if path is None:
        ini = resources.files("echo_sched").joinpath("app_profiles.ini")
        parser.read_string(ini.read_text(encoding="utf-8"))
    else:
        read = parser.read(str(path), encoding="utf-8")
        if not read:
            raise TraceError(f"profile config not found: {path}")
    try:
        links = _LinkParams(
            edge_rate_kb_per_s=parser.getfloat("links", "edge_rate_kb_per_s"),
            edge_latency_ms=parser.getfloat("links", "edge_latency_ms"),
            cloud_rate_kb_per_s=parser.getfloat("links", "cloud_rate_kb_per_s"),
            cloud_latency_ms=parser.getfloat("links", "cloud_latency_ms"),
        )
        apps: dict[str, _AppArchetype] = {}
        for section in parser.sections():
            if not section.startswith("app."):
                continue
            name = section[len("app."):]
            apps[name] = _AppArchetype(
                name=name,
                interactive=parser.get(section, "class") == "interactive",
                r_mobile_s=parser.getfloat(section, "r_mobile_s"),
                r_edge_s=parser.getfloat(section, "r_edge_s"),
                upload_kb=parser.getfloat(section, "upload_kb"),
                download_kb=parser.getfloat(section, "download_kb"),
            )
    except (configparser.Error, ValueError) as exc:
        raise TraceError(f"bad profile config: {exc}") from None
    if not apps:
        raise TraceError("profile config defines no [app.*] sections")
    return apps, links


def generate(n: int, lam: float, mix: MixSpec, seed: int,
             profile_config: str | Path | None = None) -> TraceFile:
    """Synthesize a trace of n tasks with Exponential(lam) inter-arrivals."""
    check_int("n", n)
    check_real("lambda", lam)
    check_int("seed", seed)
    if n <= 0:
        raise ValueError(f"n must be positive, got {n}")
    if lam <= 0:
        raise ValueError(f"lambda must be positive, got {lam}")
    apps, links = _load_profiles(profile_config)
    for name in list(mix.interactive_weights) + list(mix.compute_weights):
        if name not in apps:
            raise ValueError(f"mix references unknown app {name!r}")

    # random.choices(names, cum_weights=cw)[0] and random.uniform(a, b)
    # written out: the same draws from rng.random(), in the same order.
    interactive = _class_draw(mix.interactive_weights)
    compute = _class_draw(mix.compute_weights)
    rng = random.Random(seed)
    random_ = rng.random
    tasks: list[Task] = []
    arrival = 0
    for i in range(n):
        arrival += from_seconds(rng.expovariate(lam))
        names, cw, total, hi = (interactive
                                if random_() < mix.interactive_fraction
                                else compute)
        app = names[bisect(cw, random_() * total, 0, hi)]
        # positional, in field order: id, user_id, app, arrival, profile
        tasks.append(Task(f"t{i:05d}", f"u{rng.randrange(_USER_POOL):02d}",
                          app, arrival, _draw_profile(random_, apps[app], links)))
    header = {
        "schema": SCHEMA,
        "generator": {
            "n": n,
            "lambda": lam,
            "seed": seed,
            "mix": {
                "interactive_fraction": mix.interactive_fraction,
                "interactive_weights": mix.interactive_weights,
                "compute_weights": mix.compute_weights,
            },
            "profiles": "builtin" if profile_config is None else str(profile_config),
        },
    }
    return TraceFile(header=header, tasks=tasks)


def _class_draw(weights: dict[str, float]):
    """What random.choices draws one of `weights`' apps from: the sorted
    names, their running sums, the total as a float, and the last index.
    MixSpec checked that the total is finite and positive, as choices
    would."""
    names = sorted(weights)
    cw = list(accumulate(weights[a] for a in names))
    return names, cw, cw[-1] + 0.0, len(cw) - 1


def _draw_profile(random_, app: _AppArchetype,
                  links: _LinkParams) -> CostProfile:
    """Jitter each archetype quantity by +/- _PROFILE_JITTER; a transfer
    leg is its link's latency plus the jittered size over its rate.
    uniform(a, b) is a + (b - a) * random_(), as random.uniform draws it."""
    lo, hi = 1.0 - _PROFILE_JITTER, 1.0 + _PROFILE_JITTER
    width = hi - lo
    speed_lo, speed_hi = _REMOTE_SPEED_RANGE
    r_mobile = from_seconds(app.r_mobile_s * (lo + width * random_()))
    r_edge = from_seconds(app.r_edge_s * (lo + width * random_()))
    r_cloud = round(r_edge * (speed_lo + (speed_hi - speed_lo) * random_()))
    up_kb = app.upload_kb * (lo + width * random_())
    down_kb = app.download_kb * (lo + width * random_())
    edge_s = links.edge_latency_ms / 1000.0
    cloud_s = links.cloud_latency_ms / 1000.0
    edge_rate, cloud_rate = links.edge_rate_kb_per_s, links.cloud_rate_kb_per_s
    # positional, in field order
    return CostProfile(
        r_mobile, r_edge, r_cloud,
        from_seconds(edge_s + up_kb / edge_rate),
        from_seconds(edge_s + down_kb / edge_rate),
        from_seconds(cloud_s + up_kb / cloud_rate),
        from_seconds(cloud_s + down_kb / cloud_rate),
        round(up_kb * 1024), round(down_kb * 1024))
