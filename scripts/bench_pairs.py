#!/usr/bin/env python3
"""Write BENCH_<parent>.json from the perfbench reports of a parent and a change.

Usage, from the root of a checkout:

    python3 scripts/bench_pairs.py PARENT_REPORTS CHANGE_REPORTS [--out DIR]

Each argument is the .bench_build/perfbench/reports/ directory of one
checkout, filled by `python3 perfbench/run.py --workload W --seed S
--seconds X --trace T` runs, one report per workload, seed and trace
setting. A pair is the two reports of one workload, seed and setting, one
from each side. The side whose report was written first (the older file)
ran first. The parent's commit comes from its reports, which therefore must
come from a git checkout.

For each --trace 0 pair the file keeps both sides' end-to-end metrics,
correctness, failed fraction, multi_cpu_n (the command runs perfbench timed
raw because they used more than one CPU) and every command's raw median
seconds. Each workload's summary gives both sides' quartiles of every metric
and raw command time, and the number of pairs in which the change read
lower. --trace 1 pairs go under "traced" with their per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

SIDES = ("parent", "change")
HOST_KEYS = ("nproc", "affinity", "python", "numpy", "scipy")


def load_reports(directory: Path) -> dict:
    """Every report in directory by (workload, seed, trace), each with the
    time its file was written."""
    reports = {}
    for path in sorted(directory.glob("*.json")):
        report = json.loads(path.read_text())
        report["written_ns"] = path.stat().st_mtime_ns
        reports[report["workload"], report["seed"], report["trace"]] = report
    if not reports:
        raise SystemExit(f"bench_pairs: no perfbench reports in {directory}")
    return reports


def raw_seconds(figures: dict) -> dict:
    """Each command's raw median seconds, named as perfbench's `# commands`
    line names them: <label>_s for every command <label> with a count."""
    labels = [key[:-2] for key in figures if key.endswith("_n") and key != "multi_cpu_n"]
    return {f"{label}_s": figures[f"{label}_s"] for label in labels}


def side_record(report: dict) -> dict:
    figures = report["figures"]
    return {
        "correct": figures["failed_frac"] == 0.0,
        "metrics": {name: m["value"] for name, m in report["metrics"].items()},
        "failed_frac": figures["failed_frac"],
        "multi_cpu_n": figures["multi_cpu_n"],
        "raw_s": raw_seconds(figures),
    }


def quartiles(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(pairs: list[dict]) -> dict:
    """Per metric and raw command time: each side's quartiles and the number
    of pairs in which the change read lower."""
    summary = {}
    for group in ("metrics", "raw_s"):
        for name in pairs[0]["parent"][group]:
            values = {side: [p[side][group][name] for p in pairs] for side in SIDES}
            summary[name] = {
                **{side: quartiles(values[side]) for side in SIDES},
                "change_lower_in": sum(c < p for p, c in zip(values["parent"], values["change"])),
                "pairs": len(pairs),
            }
    return summary


def bench_file(parent: dict, change: dict) -> dict:
    """The BENCH_<parent>.json object of two sides' reports."""
    reports = [*parent.values(), *change.values()]
    hosts = {json.dumps({k: r["env"][k] for k in HOST_KEYS}) for r in reports}
    if len(hosts) > 1:
        raise SystemExit(f"bench_pairs: the reports come from different hosts: {sorted(hosts)}")
    shas = {r["env"]["git_sha"] for r in parent.values()}
    if len(shas) > 1 or "unknown" in shas:
        raise SystemExit(f"bench_pairs: the parent reports need one git commit, got {sorted(shas)}")
    sha = shas.pop()[:7]
    unpaired = sorted(set(parent) ^ set(change))
    if unpaired:
        print(f"bench_pairs: skipping reports without a pair: {unpaired}", file=sys.stderr)

    workloads, traced = {}, {}
    for key in sorted(set(parent) & set(change)):
        workload, seed, trace = key
        sides = {"parent": parent[key], "change": change[key]}
        pair = {"seed": seed, "first": min(SIDES, key=lambda side: sides[side]["written_ns"])}
        if trace:
            for side in SIDES:
                pair[side] = {name: m["value"] for name, m in sides[side]["metrics"].items()}
                pair[f"{side}_missing_layers"] = sides[side].get("missing_layers", [])
            traced.setdefault(workload, []).append(pair)
        else:
            pair.update({side: side_record(sides[side]) for side in SIDES})
            workloads.setdefault(workload, {"pairs": []})["pairs"].append(pair)
    for entry in workloads.values():
        entry["summary"] = summarize(entry["pairs"])
    seconds = sorted({r["seconds"] for r in reports})
    return {
        "about": (
            f"End-to-end metrics of perfbench (python3 perfbench/run.py --workload W --seed S "
            f"--seconds {'/'.join(f'{s:g}' for s in seconds)} --trace 0) for the change committed "
            f"on top of parent {sha} (the commit that adds this file) against that parent. A pair "
            "runs one seed on both sides, one after the other, each from its own copy of the "
            "source tree; 'first' names the side that ran first. Times are at perfbench's "
            "reference speed, except that perfbench times a command run that used more than one "
            "CPU raw (multi_cpu_n counts them); raw_s holds each command's raw median seconds. "
            "peak_rss_mb is the measured child's high-water mark. 'summary' gives each side's "
            "quartiles and the number of pairs in which the change read lower. 'traced' holds "
            "the per-layer metrics of --trace 1 pairs."
        ),
        "parent": sha,
        "change": "the commit that adds this file",
        "host": {k: next(iter(parent.values()))["env"][k] for k in HOST_KEYS},
        "workloads": workloads,
        "traced": {"about": "per-layer metrics of --trace 1 runs (raw seconds per traced pass)",
                   **traced},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_reports", type=Path)
    parser.add_argument("change_reports", type=Path)
    parser.add_argument("--out", type=Path, default=Path("."))
    args = parser.parse_args(argv)
    bench = bench_file(load_reports(args.parent_reports), load_reports(args.change_reports))
    path = args.out / f"BENCH_{bench['parent']}.json"
    path.write_text(json.dumps(bench, indent=1) + "\n")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
