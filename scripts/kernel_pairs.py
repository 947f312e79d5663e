#!/usr/bin/env python3
"""Time two source trees' slot kernels under layout-only compile flags.

Usage:

    python3 scripts/kernel_pairs.py PARENT_TREE CHANGE_TREE [--repeats N]

Each tree is the root of a schedlab checkout. The script imports each
tree's own package and builds its src/schedlab/_slots.c once with that
tree's simulator._CFLAGS plus each of VARIANTS' extra flags, which move code
in memory and change no result. It then times the builds in PROCESSES fresh
processes, one after another. Each loads every build with its tree's
simulator._load_kernel and times in-process run_replications calls of each
of SHAPES through each tree's own simulator, interleaved: every repeat runs
each shape once per build, the builds in an order that alternates from one
repeat to the next. Each build first runs every shape once untimed. Every
build's outputs must be bitwise equal to those of the other builds of its
side, since the variants move code and not results, or the script exits 1. A
shape whose outputs differ between the two sides, a change that moves its
draws or decisions, is marked "outputs moved" and timed all the same.

A build's time is the median over the processes of its median in each:
within one process all builds of a side move together, by up to ~19%, so
one process cannot carry a verdict and one outlying process must not move
one. It prints, per shape, each build's pooled milliseconds, each variant's
change/parent ratio, each side's median over variants and their ratio, the
variants in which the change was faster and slower, the verdict, and each
process's own change/parent ratio of medians over variants with their
interquartile range. The verdict is "faster" (or "slower") when the change
is faster (slower) in the median over variants and in all but at most one
variant, and that median's ratio differs from 1 by more than the
interquartile range of the per-process ratios; else "neither". Code layout
alone moves a kernel's time by up to ~24%, so one build of each side cannot
show a smaller change, and whole processes move by several percent, so a
difference inside their spread is none.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import hashlib
import importlib
import importlib.util
import multiprocessing
import statistics
import sys
import tempfile
import time
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np

VARIANTS = {
    "none": (),
    "align-functions=64": ("-falign-functions=64",),
    "align-loops=64": ("-falign-loops=64",),
    "align-all=64": ("-falign-functions=64", "-falign-loops=64", "-falign-jumps=64"),
    "align-functions=32,loops=16": ("-falign-functions=32", "-falign-loops=16"),
    "O3": ("-O3",),
}

# name: (policies as (rule, parameter), tie-break, replications, horizon, fluid arrivals)
SHAPES = {
    "campaign": ((("het", 2.0), ("exp", 0.25), ("mw", 7.0)), "lowest_index", 8, 50_000, False),
    "het_alone": ((("het", 2.0),), "lowest_index", 4, 500_000, False),
    "mw_alone": ((("mw", 7.0),), "lowest_index", 8, 200_000, False),
    "het_uniform": ((("het", 2.0),), "uniform_random", 8, 200_000, False),
    "single_stream": ((("het", 10.0),), "uniform_random", 1, 80_000, True),
    # three lanes picking among tied users by their tie uniforms
    "campaign_uniform": ((("het", 2.0), ("exp", 0.25), ("mw", 7.0)), "uniform_random", 8, 50_000, False),
}
SIDES = ("parent", "change")
# fresh processes the builds are timed in, one after another
PROCESSES = 5


def load_tree(root: Path, name: str):
    """The schedlab package of the checkout at root, imported as name."""
    init = root / "src" / "schedlab" / "__init__.py"
    spec = importlib.util.spec_from_file_location(name, init, submodule_search_locations=[str(init.parent)])
    if spec is None:
        raise SystemExit(f"kernel_pairs: no schedlab package under {root}")
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    return package


def build(simulator, extra: tuple[str, ...], path: Path) -> None:
    """The tree's kernel built with its own flags plus extra, to path."""
    simulator._build([simulator._CC, *simulator._CFLAGS, *extra, f"-I{simulator._NPY_INCLUDE}"],
                     simulator._NPYRANDOM, path)


def run_args(package, root: Path, shape):
    """The run_replications arguments of one shape in the tree's own types."""
    rules, tie_break, reps, horizon, fluid = shape
    variants = {"het": lambda x: package.Heterogeneous(q_th=x), "exp": lambda x: package.Exp(eta=x),
                "mw": lambda x: package.MaxWeight(alpha=x)}
    cfg = package.config_from_json(root / "configs" / "reference4x3.json")
    if fluid:
        cfg = replace(cfg, arrival_model="fluid")
    policies = [package.Policy(variants[rule](x), tie_break=tie_break) for rule, x in rules]
    return cfg, policies, package.SimSpec(horizon=horizon, replications=reps, master_seed=1), list(range(reps))


def digest(outputs) -> str:
    """sha256 of every statistic of every policy's every row."""
    h = hashlib.sha256()
    for per_policy in outputs:
        for o in per_policy:
            for f in fields(o.counters):
                h.update(np.ascontiguousarray(getattr(o.counters, f.name)).tobytes())
            h.update(o.overflow_slot_counts.tobytes())
            h.update(o.mean_queues.tobytes())
    return h.hexdigest()


def run(simulator, kernel, args) -> tuple[float, list]:
    """One run_replications call through kernel: its seconds and outputs."""
    simulator._slot_kernel = lambda cc, library: kernel
    start = time.perf_counter()
    outputs = simulator.run_replications(*args)
    return time.perf_counter() - start, outputs


def compare_outputs(digests: dict) -> tuple[list[str], list[str]]:
    """From one process's output digests, keyed by (side, variant, shape):
    the shapes whose builds of one side disagree, a layout fault, and of the
    others the shapes whose two sides disagree, whose outputs moved."""
    faults, moved = [], []
    for name in SHAPES:
        sides = [{d for (side, _, shape), d in digests.items() if (side, shape) == (s, name)} for s in SIDES]
        if any(len(seen) != 1 for seen in sides):
            faults.append(name)
        elif sides[0] != sides[1]:
            moved.append(name)
    return faults, moved


def time_builds(trees: dict, paths: dict, repeats: int) -> tuple[dict, dict]:
    """In this process: each build's outputs' digest per shape, from one
    untimed run, and its seconds per shape over repeats interleaved runs,
    both keyed by (side, variant, shape)."""
    packages = {side: load_tree(root, f"schedlab_{side}") for side, root in trees.items()}
    simulators = {side: importlib.import_module(f"schedlab_{side}.simulator") for side in SIDES}
    kernels = {key: simulators[key[0]]._load_kernel(path) for key, path in paths.items()}
    calls = {(side, name): run_args(packages[side], trees[side], shape)
             for side in SIDES for name, shape in SHAPES.items()}
    builds = list(paths)
    digests = {(*key, name): digest(run(simulators[key[0]], kernels[key], calls[key[0], name])[1])
               for name in SHAPES for key in builds}
    seconds = {(*key, name): [] for key in builds for name in SHAPES}
    for repeat in range(repeats):
        order = builds if repeat % 2 == 0 else builds[::-1]
        for name in SHAPES:
            for key in order:
                elapsed, _ = run(simulators[key[0]], kernels[key], calls[key[0], name])
                seconds[(*key, name)].append(elapsed)
    return digests, seconds


class Pooled(NamedTuple):
    """One shape's times over every process, in ms: each variant's pooled
    time per side, each side's median over variants, per process the
    change/parent ratio of its own medians over variants, and those ratios'
    quartiles (q1, q3)."""

    parent: list[float]
    change: list[float]
    over: tuple[float, float]
    faster: int
    slower: int
    verdict: str
    per_process: list[float]
    quartiles: tuple[float, float]


def pool(runs: list[dict], shape: str) -> Pooled:
    """Pool one shape's seconds from runs, one time_builds seconds dict per
    process: a build's time is the median over processes of its
    per-process median, and the verdict is ROADMAP item 10's rule applied
    to those per-variant times, gated by the spread of the per-process
    ratios (quartiles by statistics.quantiles' inclusive method)."""
    def per_process(run_seconds, side):
        return [1e3 * statistics.median(run_seconds[side, variant, shape]) for variant in VARIANTS]

    medians = {side: [per_process(r, side) for r in runs] for side in SIDES}
    times = {side: [statistics.median(col) for col in zip(*medians[side])] for side in SIDES}
    over = tuple(statistics.median(times[side]) for side in SIDES)
    faster = sum(c < p for p, c in zip(times["parent"], times["change"]))
    slower = sum(c > p for p, c in zip(times["parent"], times["change"]))
    ratios = [statistics.median(c) / statistics.median(p)
              for p, c in zip(medians["parent"], medians["change"])]
    q1, _, q3 = statistics.quantiles(ratios, n=4, method="inclusive")
    beyond_spread = abs(over[1] / over[0] - 1) > q3 - q1
    verdict = "neither"
    if beyond_spread and over[1] < over[0] and faster >= len(VARIANTS) - 1:
        verdict = "faster"
    elif beyond_spread and over[1] > over[0] and slower >= len(VARIANTS) - 1:
        verdict = "slower"
    return Pooled(times["parent"], times["change"], over, faster, slower, verdict, ratios, (q1, q3))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--repeats", type=int, default=7,
                        help="timed runs of each shape per build in each process")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    trees = dict(zip(SIDES, (args.parent_tree.resolve(), args.change_tree.resolve())))
    for side, root in trees.items():
        load_tree(root, f"schedlab_{side}")
    simulators = {side: importlib.import_module(f"schedlab_{side}.simulator") for side in SIDES}
    runs, moved = [], set()
    with tempfile.TemporaryDirectory(prefix="kernel_pairs-") as tmp:
        paths = {}
        for variant, extra in VARIANTS.items():
            for side in SIDES:
                paths[side, variant] = Path(tmp) / f"kernel-{len(paths)}.so"
                build(simulators[side], extra, paths[side, variant])
        spawn = multiprocessing.get_context("spawn")
        for process in range(PROCESSES):
            with concurrent.futures.ProcessPoolExecutor(1, mp_context=spawn) as fresh:
                digests, seconds = fresh.submit(time_builds, trees, paths, args.repeats).result()
            faults, moved_here = compare_outputs(digests)
            for name in faults:
                seen = {key: value for key, value in digests.items() if key[2] == name}
                print(f"kernel_pairs: {name}: outputs differ between builds of one side in process "
                      f"{process}: {seen}", file=sys.stderr)
            if faults:
                return 1
            moved.update(moved_here)
            runs.append(seconds)

    print(f"# ms per build: median over {PROCESSES} processes of its median of {args.repeats} "
          f"interleaved runs in each; parent {trees['parent']}, change {trees['change']}; every "
          f"build's outputs bitwise equal to its own side's in every process, and to the other "
          f"side's unless marked \"outputs moved\"")
    for name, shape in SHAPES.items():
        rules, tie_break, reps, horizon, fluid = shape
        policies = "/".join(f"{rule} {x:g}" for rule, x in rules)
        pooled = pool(runs, name)
        print(f"\n{name}: {policies}, {tie_break}, {reps} x {horizon}{', fluid' if fluid else ''}"
              f"{': outputs moved' if name in moved else ''}")
        print(f"  {'variant':<28} {'parent':>9} {'change':>9} {'ratio':>7}")
        for variant, parent, change in zip(VARIANTS, pooled.parent, pooled.change):
            print(f"  {variant:<28} {parent:9.2f} {change:9.2f} {change / parent:7.3f}")
        parent, change = pooled.over
        print(f"  {'median over variants':<28} {parent:9.2f} {change:9.2f} {change / parent:7.3f}")
        print(f"  parent's spread over variants {min(pooled.parent):.2f}-{max(pooled.parent):.2f} ms; "
              f"change faster in {pooled.faster} and slower in {pooled.slower} of {len(VARIANTS)} "
              f"variants: {pooled.verdict}")
        print(f"  per process, change/parent of medians over variants: "
              f"{' '.join(f'{ratio:.3f}' for ratio in pooled.per_process)} "
              f"(quartiles {pooled.quartiles[0]:.3f}-{pooled.quartiles[1]:.3f})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
