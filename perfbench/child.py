"""The measured process of one benchmark run.

Usage: child.py SPEC --result PATH [--seconds S] [--trace 0|1] [--setup-only]

Set-up imports schedlab, loads the configs and runs the workload's warm-up
commands, then prints ``ready`` and the host speed sampled so far;
``run.py`` times the process up to that line. The child then repeats passes of
the workload's command sequence through ``schedlab.cli.main`` for
``--seconds`` seconds, checks every command's outputs, and writes its
samples to the result file. With ``--trace 1`` the first half of that time
runs untraced and the second half traced, so the difference is the tracing
overhead.
"""

from __future__ import annotations

import time

import speed  # imports numpy, which the probe uses

PROCESS_START = time.perf_counter()
START_USAGE = speed.usage()
SAMPLER = speed.Sampler()
if __name__ == "__main__":
    SAMPLER.start()  # before schedlab and scipy are imported, so set-up is sampled

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import contextmanager, nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402
import scipy  # noqa: E402

import schedlab  # noqa: E402
from schedlab import cli, simulator  # noqa: E402
from schedlab.model import config_from_json  # noqa: E402

import checks  # noqa: E402
import tracing  # noqa: E402


@contextmanager
def capture_replications():
    """Collect each run's replication outputs, for the balance and slot-count
    checks (the CLI's outputs omit initial and final queues). They are taken
    where ``run_simulation`` aggregates them, in the calling process, so that
    replications run in worker processes are collected too."""
    original = simulator.aggregate_counters
    captured: list = []

    def capturing(outputs):
        captured.extend(outputs)
        return original(outputs)

    simulator.aggregate_counters = capturing
    try:
        yield captured
    finally:
        simulator.aggregate_counters = original


def _check(cmd: dict, captured: list) -> list[str]:
    check, out = cmd["check"], Path(cmd["out"])
    if check["kind"] == "simulation":
        return checks.check_simulation(out, check, captured)
    if check["kind"] == "iopt":
        return checks.check_iopt(out, check)
    return checks.check_regions(out, check)


# the highest summed high-water RSS of live descendants seen after a command
_live_peak_mb = 0.0


def run_command(cmd: dict, captured: list, tracer: tracing.Tracer | None):
    """Run one CLI command; return its wall time, that time at reference
    speed, its CPU time (user and system, descendants included), whether it
    ran on one CPU (else the reference time is the wall time), and the
    problems found."""
    global _live_peak_mb
    out = Path(cmd["out"])
    shutil.rmtree(out, ignore_errors=True)
    captured.clear()
    if tracer is not None:
        tracer.run += 1
    rc = None
    before = speed.usage()
    with tracer.span("cli.main") if tracer is not None else nullcontext():
        start = time.perf_counter()
        try:
            rc = cli.main(list(cmd["argv"]))
        except Exception:  # a crash counts as a failed operation; keep measuring
            traceback.print_exc()
        end = time.perf_counter()
    after = speed.usage()
    if after.live:
        _live_peak_mb = max(_live_peak_mb, speed.descendants_rss_mb(after.live))
    elapsed = end - start
    ref_s = elapsed * SAMPLER.factor(start, end, before, after)
    cpu_s = sum(after[:3]) - sum(before[:3])
    one_cpu = speed.on_one_cpu(elapsed, before, after)
    if rc != 0:
        return elapsed, ref_s, cpu_s, one_cpu, [f"{cmd['label']}: exit code {rc}"]
    with tracer.paused() if tracer is not None else nullcontext():
        try:
            problems = _check(cmd, captured)
        except Exception as exc:  # unreadable or malformed output
            problems = [f"output check raised {exc!r}"]
    if tracer is not None:
        tracer.counts["cli.bytes_written"] += sum(f.stat().st_size for f in out.iterdir())
    return elapsed, ref_s, cpu_s, one_cpu, [f"{cmd['label']}: {p}" for p in problems]


# untraced runs repeat each command of a pass until its runs add up to this
MIN_COMMAND_S = 2.0


def measure(spec: dict, seconds: float, captured: list, tracer=None,
            min_command_s: float = 0.0) -> list[dict]:
    """Repeat passes of the command sequence until ``seconds`` have elapsed
    (at least one pass). Within a pass each command runs back to back until
    its runs add up to ``min_command_s`` (at least once), so that a short
    command gives more than one sample per pass."""
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        p = {"times": {}, "ref_times": {}, "cpu_times": {}, "attempted": 0, "failed": 0,
             "multi_cpu": 0, "problems": []}
        for cmd in spec["commands"]:
            times = p["times"][cmd["label"]] = []
            ref_times = p["ref_times"][cmd["label"]] = []
            cpu_times = p["cpu_times"][cmd["label"]] = []
            while not times or sum(times) < min_command_s:
                elapsed, ref_s, cpu_s, one_cpu, found = run_command(cmd, captured, tracer)
                times.append(elapsed)
                ref_times.append(ref_s)
                cpu_times.append(cpu_s)
                p["attempted"] += 1
                p["multi_cpu"] += not one_cpu
                p["failed"] += bool(found)
                p["problems"] += found
        p["wall"] = time.perf_counter() - t0
        passes.append(p)
    return passes


def _command_s(passes: list[dict]) -> float:
    return statistics.median(sum(map(sum, p["ref_times"].values())) for p in passes)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("spec")
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    spec = json.loads(Path(args.spec).read_text())

    for cmd in spec["commands"] + spec["warmup"]:
        config_from_json(Path(cmd["argv"][cmd["argv"].index("--config") + 1]))
    for cmd in spec["warmup"]:
        with capture_replications() as captured:
            *_, problems = run_command(cmd, captured, None)
        if problems:
            print(f"perfbench: warm-up failed: {problems}", file=sys.stderr)
            return 2
    # run.py times set-up up to this line and rescales it by this factor
    factor = SAMPLER.factor(PROCESS_START, time.perf_counter(), START_USAGE, speed.usage())
    print(f"ready {factor!r}", flush=True)
    if args.setup_only:
        return 0

    result = {"versions": {"python": sys.version.split()[0], "numpy": np.__version__,
                           "scipy": scipy.__version__, "schedlab": schedlab.__file__}}
    with capture_replications() as captured:
        if args.trace:
            result["untraced"] = measure(spec, args.seconds / 2, captured)
            tracer = tracing.Tracer()
            tracing.install_layers(tracer)
            try:
                result["passes"] = measure(spec, args.seconds / 2, captured, tracer)
            finally:
                tracer.uninstall()
            traced = result["passes"]
            result["layers"] = tracing.layer_metrics(
                tracer, len(traced), sum(p["wall"] for p in traced),
                _command_s(traced) - _command_s(result["untraced"]))
            result["spans"] = tracer.spans
            result["missing_layers"] = tracer.missing
        else:
            result["passes"] = measure(spec, args.seconds, captured, min_command_s=MIN_COMMAND_S)
    # own high-water RSS plus that of its descendants: the live ones summed,
    # or the largest reaped one (getrusage keeps no sum)
    reaped_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    result["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                             + max(reaped_mb, _live_peak_mb))
    Path(args.result).write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    try:
        code = main()
    finally:
        SAMPLER.stop()  # a timer signal during interpreter shutdown would kill the process
    sys.exit(code)
