"""Trace schema, JSON-Lines serialization, and synthetic trace generation.

A trace file is one JSON header line (schema tag plus an echo of the
generator's configuration) followed by one JSON object per task, field
names exactly as in model.Task.  All times are integer microseconds, so
save/load round-trips are exact.

The generator draws exponential inter-arrivals, assigns each task an app
from a two-class MixSpec (interactive vs compute-heavy), and draws its
cost profile from that app's ranges in a plain INI config shipped with
the package (clearly labeled as non-authoritative estimates).
"""

from __future__ import annotations

import configparser
import json
import logging
import os
import random
from bisect import bisect
from dataclasses import dataclass, field, fields
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
    """Workload mix: class split plus per-app weights within each class.

    The mix alone decides which apps are interactive.  Its default weights
    name the built-in profile's apps: a custom profile must define them."""

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
    """Read a trace line by line; a file of blanks is an empty trace.  Lines
    end only at line ends, so U+0085, U+2028 and U+2029 may stand raw in
    JSON strings."""
    path = Path(path)
    tasks: list[Task] = []
    with open(path, encoding="utf-8") as fh:
        head = fh.readline().rstrip("\n")
        if not head.strip() and not fh.read().strip():
            return TraceFile(header={"schema": SCHEMA}, tasks=[])
        try:
            header = json.loads(head)
        except json.JSONDecodeError as exc:
            raise TraceError(f"{path}: line 1: malformed header: {exc}") from None
        if not isinstance(header, dict) or header.get("schema") != SCHEMA:
            raise TraceError(f"{path}: line 1: missing or unsupported schema "
                             f"tag (expected {SCHEMA!r})")
        for lineno, line in enumerate(fh, start=2):
            if not line.strip():
                continue
            try:
                tasks.append(_task_from_dict(json.loads(line.rstrip("\n"))))
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


# _draw_profile divides by the link rates and would draw a zero r_edge,
# which CostProfile rejects; every other profile value must be >= 0.
_POSITIVE_KEYS = {"edge_rate_kb_per_s", "cloud_rate_kb_per_s", "r_edge_s"}


def _load_profiles(path: str | Path | None) -> tuple[dict[str, _AppArchetype], _LinkParams]:
    """The [app.*] archetypes and [links] of a profile INI, each key read
    as the field of the same name and checked where it is read."""
    parser = configparser.ConfigParser()
    if path is None:
        ini = resources.files("echo_sched").joinpath("app_profiles.ini")
        parser.read_string(ini.read_text(encoding="utf-8"))
    else:
        read = parser.read(str(path), encoding="utf-8")
        if not read:
            raise TraceError(f"profile config not found: {path}")

    def section(cls, name):
        values = {}
        for key in (f.name for f in fields(cls)):
            value = values[key] = parser.getfloat(name, key)
            positive = key in _POSITIVE_KEYS
            if not (value > 0 if positive else value >= 0):  # NaN fails both
                raise ValueError(f"[{name}] {key} must be "
                                 f"{'>' if positive else '>='} 0, got {value!r}")
        return cls(**values)

    try:
        links = section(_LinkParams, "links")
        apps = {name[len("app."):]: section(_AppArchetype, name)
                for name in parser.sections() if name.startswith("app.")}
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
