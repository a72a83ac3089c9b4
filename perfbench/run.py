"""Host-time benchmark of echo-sched.

    python3 perfbench/run.py --workload <name> [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload all [--seed N] [--seconds S] [--trace 0|1]

One run builds one workload's inputs from the seed, times iterations of it
for about --seconds, checks every iteration's output, and prints as its
last line one JSON object: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run (see tracer.py).  The line before
it is the behaviour fingerprint.  `--workload all` runs every workload in
its own process and prints a table.  See README.md in this directory.
"""

from __future__ import annotations

import time

_START = time.perf_counter()  # set-up time counts from here, before any import

import argparse
import gc
import json
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
DEFAULT_SEED = 1
SETUP_PROBES = 7


def _import_program():
    """Import echo_sched from this checkout's src/, whatever the cwd."""
    sys.path.insert(0, str(SRC))
    import echo_sched
    if not Path(echo_sched.__file__).resolve().is_relative_to(SRC):
        raise ImportError(f"echo_sched imported from {echo_sched.__file__}, "
                          f"not from {SRC}")
    import tracer
    import workloads
    return workloads, tracer


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--scale", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input for the self-test")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = _parse(argv)
    try:
        workloads, tracer = _import_program()
    except ImportError as exc:
        print(f"perfbench: cannot import echo_sched: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args, list(workloads.WORKLOADS))
    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; expected one of "
              f"{', '.join(workloads.WORKLOADS)} or all", file=sys.stderr)
        return 2
    workload = workloads.WORKLOADS[args.workload]
    tiny = args.scale == "tiny"

    if args.setup_probe:
        inputs = workload.build(args.seed, tiny)
        setup_s = time.perf_counter() - _START
        print(json.dumps({"setup_s": setup_s,
                          "input_digest": workload.input_digest(inputs)}))
        return 0

    # Set-up probes run before and after the timed iterations, so that
    # their median samples the host over the whole run.
    probes = [_setup_probe(args) for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    inputs = workload.build(args.seed, tiny)
    checks = _Checks()
    workdir = OUT / f"work-{args.workload}-{args.seed}-{args.trace}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.trace:
            metrics, fingerprint = _traced(workload, inputs, workdir, args,
                                           checks, tracer.Tracer())
        else:
            metrics, fingerprint = _untraced(workload, inputs, workdir, args,
                                             checks)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    probes += [_setup_probe(args) for _ in range(SETUP_PROBES // 2)]
    digest = workload.input_digest(inputs)
    checks.add("same_inputs_from_seed",
               all(p["input_digest"] == digest for p in probes))
    if not args.trace:
        metrics["setup_s"] = (statistics.median(p["setup_s"] for p in probes), "s")
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        metrics["peak_rss_mb"] = (peak_kb * 1024 / 1e6, "MB")

    fingerprint.update(workload=args.workload, seed=args.seed,
                       scale=args.scale, src_lines=_src_lines())
    print("fingerprint " + json.dumps(fingerprint, sort_keys=True))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


class _Checks:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.first_digest: dict[str, str] | None = None

    def add(self, name: str, ok: bool) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {name}", file=sys.stderr)


def _setup_probe(args) -> dict:
    """Set up in a fresh interpreter: import plus building the inputs."""
    command = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--scale", args.scale, "--setup-probe"]
    done = subprocess.run(command, capture_output=True, text=True, timeout=120,
                          check=True)
    return json.loads(done.stdout.splitlines()[-1])


def _iterations(workload, inputs, workdir, budget, minimum, checks,
                tracer=None):
    """Time iterations until the next one would overrun `budget` seconds.

    Returns one (units per second, outcome, tracer snapshot) per iteration.
    The tracer, if given, is installed around the timed region only, never
    around the checks.  Each iteration's output is checked, and its digest
    must equal the first iteration's.
    """
    steps = []
    begin = time.perf_counter()
    while True:
        gc.collect()
        if tracer is not None:
            tracer.reset()
        with tracer.installed() if tracer is not None else nullcontext():
            start = time.perf_counter()
            units, result = workload.iterate(inputs, workdir)
            elapsed = time.perf_counter() - start
        layers = None
        if tracer is not None:
            layers = tracer.snapshot()
        outcome = workload.check(inputs, result, workdir)
        del result
        for name, ok in outcome.checks.items():
            checks.add(name, ok)
        if checks.first_digest is None:
            checks.first_digest = outcome.digest
        checks.add("same_digest_as_first_iteration",
                   outcome.digest == checks.first_digest)
        steps.append((units / elapsed, outcome, layers))
        spent = time.perf_counter() - begin
        if len(steps) >= minimum and spent + elapsed > budget:
            return steps


def _fingerprint(outcome) -> dict:
    return {"sha256": outcome.digest, "aggregates": outcome.aggregates}


def _median_rate(steps, label: str) -> float:
    """Median rate over iterations; every iteration's rate goes to stderr."""
    rates = [s[0] for s in steps]
    print(f"perfbench: {label} iteration rates: "
          + " ".join(f"{r:.6g}" for r in rates), file=sys.stderr)
    return statistics.median(rates)


def _untraced(workload, inputs, workdir, args, checks):
    steps = _iterations(workload, inputs, workdir, args.seconds, 1, checks)
    metrics = {"tasks_per_s": (_median_rate(steps, "untraced"), "1/s")}
    fingerprint = _fingerprint(steps[-1][1])
    fingerprint["iterations"] = len(steps)
    return metrics, fingerprint


def _traced(workload, inputs, workdir, args, checks, tracer):
    """Untraced iterations for a third of the time, traced for the rest."""
    plain = _iterations(workload, inputs, workdir, args.seconds / 3, 1, checks)
    traced = _iterations(workload, inputs, workdir, 2 * args.seconds / 3, 2,
                         checks, tracer=tracer)
    times = [s[2][0] for s in traced]
    counts = [s[2][1] for s in traced]
    checks.add("counts_repeat_between_iterations",
               all(c == counts[0] for c in counts))

    units = tracer.UNITS
    metrics = {name: (statistics.median(t[name] for t in times),
                      units.get(name, "s"))
               for name in times[0]}
    metrics.update((name, (value, units[name]))
                   for name, value in counts[0].items())
    metrics["trace.overhead_ratio"] = (
        _median_rate(traced, "traced") / _median_rate(plain, "untraced"), "ratio")
    fingerprint = _fingerprint(traced[-1][1])
    fingerprint["counts"] = counts[0]
    fingerprint["iterations"] = {"untraced": len(plain), "traced": len(traced)}
    return metrics, fingerprint


def _src_lines() -> int:
    return sum(len(path.read_text().splitlines())
               for path in sorted((SRC / "echo_sched").glob("*.py")))


def _run_all(args, names) -> int:
    """Every workload in its own process; one table."""
    summary, status = {}, 0
    for name in names:
        command = [sys.executable, str(HERE / "run.py"), "--workload", name,
                   "--seed", str(args.seed), "--seconds", str(args.seconds),
                   "--trace", str(args.trace), "--scale", args.scale]
        done = subprocess.run(command, capture_output=True, text=True,
                              timeout=600)
        if done.returncode != 0:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            status = 1
            continue
        lines = done.stdout.splitlines()
        result = json.loads(lines[-1])
        fingerprint = json.loads(lines[-2].removeprefix("fingerprint "))
        summary[name] = {"result": result, "fingerprint": fingerprint}
        print(f"{name}: failed_share {result['failed'] / result['attempted']:g} "
              f"({result['failed']} of {result['attempted']} checks failed)")
        for metric, value in result["metrics"].items():
            print(f"  {metric:32s} {value['value']:14.6g} {value['unit']}")
    OUT.mkdir(exist_ok=True)
    path = OUT / f"summary-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    print(f"summary: {path}")
    return status


if __name__ == "__main__":
    sys.exit(main())
