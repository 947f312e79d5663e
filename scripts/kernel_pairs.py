#!/usr/bin/env python3
"""Time two source trees' slot kernels under layout-only compile flags.

Usage:

    python3 scripts/kernel_pairs.py PARENT_TREE CHANGE_TREE [--repeats N]

Each tree is the root of a schedlab checkout. The script imports each
tree's own package, builds its src/schedlab/_slots.c with that tree's
simulator._CFLAGS plus each of VARIANTS' extra flags, which move code in
memory and change no result, and loads each build with the tree's
simulator._load_kernel. It then times in-process run_replications calls of
each of SHAPES through each tree's own simulator, interleaved: every repeat
runs each shape once per build, the builds in an order that alternates from
one repeat to the next. Each build first runs every shape once untimed, and
every build's outputs must be bitwise equal to the others', or the script
exits 1.

It prints, per shape, each build's median milliseconds, each variant's
change/parent ratio, each side's median over variants and their ratio, and
the number of variants in which the change was faster. A kernel change is
faster when it is faster in the median over variants and in all but at most
one variant: code layout alone moves a kernel's time by up to ~24%, so one
build of each side cannot show a smaller change.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import importlib.util
import statistics
import sys
import tempfile
import time
from dataclasses import fields, replace
from pathlib import Path

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
    # the largest scratch: four whole chunks of draws per slice
    "campaign_uniform": ((("het", 2.0), ("exp", 0.25), ("mw", 7.0)), "uniform_random", 8, 50_000, False),
}
SIDES = ("parent", "change")


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


def build(simulator, extra: tuple[str, ...], path: Path):
    """The tree's kernel built with its own flags plus extra, loaded."""
    simulator._build([simulator._CC, *simulator._CFLAGS, *extra, f"-I{simulator._NPY_INCLUDE}"],
                     simulator._NPYRANDOM, path)
    return simulator._load_kernel(path)


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


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent_tree", type=Path)
    parser.add_argument("change_tree", type=Path)
    parser.add_argument("--repeats", type=int, default=7, help="timed runs of each shape per build")
    args = parser.parse_args(argv)
    if args.repeats < 1:
        parser.error("--repeats must be >= 1")

    trees = dict(zip(SIDES, (args.parent_tree.resolve(), args.change_tree.resolve())))
    packages = {side: load_tree(root, f"schedlab_{side}") for side, root in trees.items()}
    simulators = {side: importlib.import_module(f"schedlab_{side}.simulator") for side in SIDES}
    builds = [(side, variant) for variant in VARIANTS for side in SIDES]
    with tempfile.TemporaryDirectory(prefix="kernel_pairs-") as tmp:
        kernels = {}
        for k, (side, variant) in enumerate(builds):
            kernels[side, variant] = build(simulators[side], VARIANTS[variant], Path(tmp) / f"kernel-{k}.so")
        calls = {(side, name): run_args(packages[side], trees[side], shape)
                 for side in SIDES for name, shape in SHAPES.items()}

        bad = False
        for name in SHAPES:
            digests = {key: digest(run(simulators[key[0]], kernels[key], calls[key[0], name])[1])
                       for key in builds}
            if len(set(digests.values())) != 1:
                print(f"kernel_pairs: {name}: outputs differ between builds: {digests}", file=sys.stderr)
                bad = True
        if bad:
            return 1

        seconds = {(key, name): [] for key in builds for name in SHAPES}
        for repeat in range(args.repeats):
            order = builds if repeat % 2 == 0 else builds[::-1]
            for name in SHAPES:
                for key in order:
                    elapsed, _ = run(simulators[key[0]], kernels[key], calls[key[0], name])
                    seconds[key, name].append(elapsed)

    print(f"# median ms of {args.repeats} interleaved runs per build; parent {trees['parent']}, "
          f"change {trees['change']}; every build's outputs bitwise equal")
    for name, shape in SHAPES.items():
        rules, tie_break, reps, horizon, fluid = shape
        policies = "/".join(f"{rule} {x:g}" for rule, x in rules)
        print(f"\n{name}: {policies}, {tie_break}, {reps} x {horizon}{', fluid' if fluid else ''}")
        print(f"  {'variant':<28} {'parent':>9} {'change':>9} {'ratio':>7}")
        medians = {side: [] for side in SIDES}
        faster = 0
        for variant in VARIANTS:
            parent, change = (1e3 * statistics.median(seconds[(side, variant), name]) for side in SIDES)
            medians["parent"].append(parent)
            medians["change"].append(change)
            faster += change < parent
            print(f"  {variant:<28} {parent:9.2f} {change:9.2f} {change / parent:7.3f}")
        over = {side: statistics.median(medians[side]) for side in SIDES}
        print(f"  {'median over variants':<28} {over['parent']:9.2f} {over['change']:9.2f} "
              f"{over['change'] / over['parent']:7.3f}")
        print(f"  parent's spread over variants {min(medians['parent']):.2f}-{max(medians['parent']):.2f} ms; "
              f"change faster in {faster} of {len(VARIANTS)} variants")
    return 0


if __name__ == "__main__":
    sys.exit(main())
