"""schedlab's benchmark: the entry point of every run.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload campaign|single_stream|analysis \
        --seed N --seconds S --trace 0|1

Generates the workload's inputs from the seed, times set-up in fresh
processes, runs the measured child for S seconds and prints one JSON object
as the last line of standard output. With ``--trace 0`` its metrics are the
end-to-end metrics of BENCHMARK.json, with ``--trace 1`` the per-layer ones.
Lines before it, each starting with ``#``, give the environment and the
per-command figures. The full record, spans included, goes to
``.bench_build/perfbench/reports/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import workloads
from tracing import LAYER_METRICS

ROOT = Path(__file__).resolve().parent.parent
BUILD = ROOT / ".bench_build" / "perfbench"
REQUIRED = (Path("src") / "schedlab" / "__init__.py", workloads.REFERENCE_CONFIG)

SETUP_ONLY_CHILDREN = 4  # the measured child gives one more set-up sample
DEADLINE_S = 170.0  # the whole run must end within 180 s

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# glibc raises its mmap threshold the first time a large mmapped block is
# freed, after which large arrays reuse heap memory instead of faulting in
# fresh pages. Left dynamic, a command's time depends on what ran before it
# in the process (iopt on the reference config: 0.6 s before the 5-user iopt,
# 0.2 s after it). Fixing the thresholds at the values that first large free
# sets gives every command the same allocator from the start.
MALLOC_VARS = {"MALLOC_MMAP_THRESHOLD_": str(32 << 20), "MALLOC_TRIM_THRESHOLD_": str(64 << 20)}


def child_env(workdir: Path) -> dict:
    """One single-threaded process per run: SCHEDLAB_THREADS unset (its
    thread pool slows runs down), one BLAS/OpenMP thread and fixed malloc
    thresholds."""
    env = dict(os.environ)
    env.pop("SCHEDLAB_THREADS", None)
    env.update({var: "1" for var in THREAD_VARS})
    env.update(MALLOC_VARS)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env["PYTHONHASHSEED"] = "0"
    env["TMPDIR"] = str(workdir)
    return env


def git_sha() -> str:
    """The checkout's commit, or "unknown" when it is not a git work tree."""
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or "unknown"


class ChildFailed(RuntimeError):
    pass


def spawn(argv: list[str], env: dict, deadline: float) -> tuple[float, float]:
    """Run a child to completion; return the seconds from spawn to its
    ``ready`` line, raw and at reference speed (see speed.py)."""
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(ROOT / "perfbench" / "child.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    watchdog.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - start
        proc.communicate()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    word, _, factor = line.partition(" ")
    if word != "ready" or proc.returncode != 0:
        raise ChildFailed(f"child process failed with exit code {proc.returncode}")
    return ready_s, ready_s * float(factor)


def command_medians(passes: list[dict], key: str) -> dict:
    """Each command's median time over all its runs in all passes."""
    return {label: statistics.median(t for p in passes for t in p[key][label])
            for label in passes[0][key]}


def end_to_end(passes: list[dict], setups: list[float], peak_rss_mb: float) -> dict:
    """The end-to-end metrics; times are at reference speed (see speed.py)."""
    medians = command_medians(passes, "ref_times").values()
    values = {
        "setup_s": (statistics.median(setups), "s"),
        "wall_s": (sum(medians), "s"),
        "cmd_geomean_s": (math.exp(statistics.fmean(math.log(t) for t in medians)), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in values.items()}


def command_figures(spec: dict, passes: list[dict]) -> dict:
    """Per command: its median raw wall time, its median time at reference
    speed, its median CPU time and its sample count; the number of command
    runs timed raw because they used more than one CPU; replication-slots per
    raw wall second over the simulation commands."""
    raw, ref = command_medians(passes, "times"), command_medians(passes, "ref_times")
    cpu = command_medians(passes, "cpu_times")
    figures = {}
    for label in raw:
        figures[f"{label}_s"] = raw[label]
        figures[f"{label}_ref_s"] = ref[label]
        figures[f"{label}_cpu_s"] = cpu[label]
        figures[f"{label}_n"] = sum(len(p["times"][label]) for p in passes)
    figures["multi_cpu_n"] = sum(p["multi_cpu"] for p in passes)
    sims = [c for c in spec["commands"] if c["check"]["kind"] == "simulation"]
    if sims:
        slots = sum(c["check"]["horizon"] * c["check"]["replications"] * c["check"]["runs"]
                    for c in sims)
        figures["rep_slots_per_s"] = slots / sum(raw[c["label"]] for c in sims)
    return figures


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    missing = [str(p) for p in REQUIRED if not (ROOT / p).is_file()]
    if missing:
        print(f"perfbench: not a schedlab checkout, missing {', '.join(missing)}", file=sys.stderr)
        return 2

    BUILD.mkdir(parents=True, exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=BUILD))
    try:
        spec = workloads.build(args.workload, args.seed, ROOT, workdir)
        spec_path = workdir / "spec.json"
        spec_path.write_text(json.dumps(spec))
        result_path = workdir / "result.json"
        env = child_env(workdir)
        common = [str(spec_path), "--result", str(result_path)]
        setups = [spawn(common + ["--setup-only"], env, deadline) for _ in range(SETUP_ONLY_CHILDREN)]
        setups.append(spawn(common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                            env, deadline))
        result = json.loads(result_path.read_text())
    except ChildFailed as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = result["passes"]
    measured = result.get("untraced", passes)
    every = passes + result.get("untraced", [])
    attempted = sum(p["attempted"] for p in every)
    failed = sum(p["failed"] for p in every)
    problems = [msg for p in every for msg in p["problems"]]
    if args.trace:
        metrics = {k: {"value": v, "unit": LAYER_METRICS[k][0]} for k, v in result["layers"].items()}
    else:
        metrics = end_to_end(passes, [ref for _, ref in setups], result["peak_rss_mb"])
    figures = command_figures(spec, measured)
    figures["failed_frac"] = failed / attempted
    env = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
           "SCHEDLAB_THREADS": None, **{var: env[var] for var in (*THREAD_VARS, *MALLOC_VARS)},
           "git_sha": git_sha(), **result["versions"]}

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "env": env, "setup_samples": setups, "figures": figures,
              "metrics": metrics, "problems": problems, **result}
    reports = BUILD / "reports"
    reports.mkdir(exist_ok=True)
    (reports / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(json.dumps(report))

    print(f"# workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(measured)} untraced passes, {attempted} commands, {failed} failed")
    print("# env " + json.dumps(env, sort_keys=True))
    print("# commands " + " ".join(f"{k}={v:.6g}" for k, v in figures.items()))
    for p in problems[:20]:
        print(f"# problem: {p}")
    if result.get("missing_layers"):
        print("# not traced, no such function (their metrics read 0): "
              + ", ".join(result["missing_layers"]))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
