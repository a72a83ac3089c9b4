"""Command-line surface tying the package together.

Four subcommands, no prompts, everything reproducible from flags:

    gen-traces  synthesize a workload trace (JSONL)
    simulate    replay one trace through one policy, write JSON+CSV report
    compare     run several policies on one trace, write a side-by-side CSV
    report      print the summary of an existing report JSON

Exit codes: 0 success, 2 usage error (bad flag, missing file, malformed
input), 1 internal error.  Set ECHO_SCHED_LOG=debug|info|warning to see
engine logging on stderr.
"""

from __future__ import annotations

import argparse
import csv
import json
import logging
import os
import sys
import traceback
from pathlib import Path

from . import sim, traceio
from .model import TraceError, from_seconds
from .policies import POLICY_NAMES
from .sim import SimConfig, SimReport


def main(argv: list[str] | None = None) -> int:
    _setup_logging()
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (TraceError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception:  # pragma: no cover - defensive
        traceback.print_exc()
        return 1


def _setup_logging() -> None:
    level_name = os.environ.get("ECHO_SCHED_LOG", "").strip()
    if not level_name:
        return
    level = getattr(logging, level_name.upper(), None)
    if not isinstance(level, int):
        print(f"warning: unknown ECHO_SCHED_LOG level {level_name!r}",
              file=sys.stderr)
        level = logging.INFO
    logging.basicConfig(level=level, stream=sys.stderr,
                        format="%(levelname)s %(name)s: %(message)s")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="echo-sched",
        description="Edge offloading simulator with a deadline-guaranteeing "
                    "preemptive scheduler.")
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("gen-traces", help="synthesize a workload trace")
    gen.add_argument("--n", type=int, required=True, help="number of tasks")
    gen.add_argument("--lambda", dest="lam", type=float, required=True,
                     help="arrival rate, tasks per second")
    gen.add_argument("--mix", default="mix-1",
                     help="mix preset (mix-1|mix-2|mix-3) or an interactive "
                          "fraction in [0,1] (default: mix-1)")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--out", required=True, help="output trace path (JSONL)")
    gen.add_argument("--profiles", default=None,
                     help="alternative app profile INI (default: built-in)")
    gen.set_defaults(handler=_cmd_gen_traces)

    # run settings shared by simulate and compare
    settings = argparse.ArgumentParser(add_help=False)
    settings.add_argument("--vms", type=int, required=True,
                          help="edge VM count (0 disables the edge)")
    settings.add_argument("--lambda-label", dest="lam", type=float,
                          help="arrival rate echoed into the report")
    settings.add_argument("--seed", type=int, default=0)
    settings.add_argument("--provision-delay", type=float, default=0.0,
                          help="seconds between admission and VM readiness")
    settings.add_argument("--estimate-noise", type=float, default=0.0,
                          help="multiplicative error in [0, 1] on every "
                               "policy's device/cloud estimates; edge legs "
                               "stay exact and echo's promise still holds")

    simulate = sub.add_parser("simulate", parents=[settings],
                              help="replay a trace through a policy")
    simulate.add_argument("--trace", required=True)
    simulate.add_argument("--policy", required=True, choices=POLICY_NAMES)
    simulate.add_argument("--out", default=None,
                          help="report path prefix (default: derived from "
                               "trace, policy, and VM count)")
    simulate.set_defaults(handler=_cmd_simulate)

    compare = sub.add_parser("compare", parents=[settings],
                             help="run several policies on one trace")
    compare.add_argument("--trace", required=True)
    compare.add_argument("--policies", default=",".join(POLICY_NAMES),
                         help="comma-separated policy names (default: all)")
    compare.add_argument("--out", required=True, help="output directory")
    compare.set_defaults(handler=_cmd_compare)

    report = sub.add_parser("report", help="summarize an existing report JSON")
    report.add_argument("--in", dest="path", required=True,
                        help="report JSON produced by simulate/compare")
    report.set_defaults(handler=_cmd_report)
    return parser


def _cmd_gen_traces(args: argparse.Namespace) -> int:
    mix = _parse_mix(args.mix)
    trace = traceio.generate(args.n, args.lam, mix, args.seed,
                             profile_config=args.profiles)
    traceio.save(trace, args.out)
    print(f"wrote {len(trace.tasks)} tasks to {args.out}")
    return 0


def _parse_mix(text: str) -> traceio.MixSpec:
    try:
        fraction = float(text)
    except ValueError:
        return traceio.MixSpec.preset(text)
    return traceio.MixSpec(interactive_fraction=fraction)


def _make_config(args: argparse.Namespace) -> SimConfig:
    return SimConfig(
        num_vms=args.vms,
        lam=args.lam,
        seed=args.seed,
        provision_delay=from_seconds(args.provision_delay),
        estimate_noise=args.estimate_noise,
    )


def _cmd_simulate(args: argparse.Namespace) -> int:
    trace = traceio.load(args.trace)
    config = _make_config(args)
    report = sim.run(trace, args.policy, config)
    prefix = args.out
    if prefix is None:
        prefix = f"{Path(args.trace).stem}.{args.policy}.{args.vms}vms"
    json_path, csv_path = Path(f"{prefix}.json"), Path(f"{prefix}.csv")
    report.write_json(json_path)
    report.write_csv(csv_path)
    print(report.summary_text())
    print(f"report: {json_path} {csv_path}")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    names = [p.strip() for p in args.policies.split(",") if p.strip()]
    for name in names:
        if name not in POLICY_NAMES:
            raise ValueError(f"unknown policy {name!r}; "
                             f"expected one of {', '.join(POLICY_NAMES)}")
        if names.count(name) > 1:
            raise ValueError(f"policy {name!r} given more than once")
    if not names:
        raise ValueError("no policies given")
    trace = traceio.load(args.trace)
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    config = _make_config(args)
    rows = []
    for name in names:
        report = sim.run(trace, name, config)
        report.write_json(out_dir / f"{name}.json")
        report.write_csv(out_dir / f"{name}.csv")
        a = report.aggregates
        rows.append([
            name,
            _fmt(a["mean_completion_s"]),
            _fmt(a["p95_completion_s"]),
            _fmt(a["deadline_compliance"]),
            a["bytes_up"],
            a["bytes_down"],
            repr(a["energy_j"]),
        ])
        print(f"{name}: mean={_fmt(a['mean_completion_s'])}s "
              f"p95={_fmt(a['p95_completion_s'])}s "
              f"compliance={_fmt(a['deadline_compliance'])}")
    with open(out_dir / "comparison.csv", "w", newline="",
              encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "mean_completion_s", "p95_completion_s",
                         "deadline_compliance", "bytes_up", "bytes_down",
                         "energy_j"])
        writer.writerows(rows)
    print(f"comparison: {out_dir / 'comparison.csv'}")
    return 0


def _fmt(value) -> str:
    return "" if value is None else f"{value:.6f}"


def _cmd_report(args: argparse.Namespace) -> int:
    try:
        payload = json.loads(Path(args.path).read_text(encoding="utf-8"))
        report = SimReport(policy=payload["policy"], config=payload["config"],
                           records=[], aggregates=payload["aggregates"])
        summary = report.summary_text()
    except (KeyError, TypeError, ValueError) as exc:
        raise ValueError(f"not a report file: {args.path}: {exc}") from None
    print(summary)
    return 0


if __name__ == "__main__":
    sys.exit(main())
