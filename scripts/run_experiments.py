#!/usr/bin/env python3
"""Run the full reference experiment suite on the bundled 4-user/3-state system.

Produces, under --out (default results/):
  iopt/          optimal decay rate and allocation
  compare/       het vs exp vs mw under one seed (decay, mean queues, phi-hat)
  sweep_qth/     heterogeneous-rule decay across q_th with the optimal reference
  regions_qth2/  decision-region map for q_th = 2 (users 0 and 2)
  regions_qth10/ decision-region map for q_th = 10

--quick shrinks horizons/replications for a fast smoke pass.
"""

import argparse
import sys
from pathlib import Path

from schedlab.cli import main as cli_main

CONFIG = str(Path(__file__).resolve().parent.parent / "configs" / "reference4x3.json")


def run(argv):
    print("+ schedlab " + " ".join(argv), flush=True)
    rc = cli_main(argv)
    if rc != 0:
        sys.exit(rc)


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", default="results")
    ap.add_argument("--seed", type=int, default=20250)
    ap.add_argument("--quick", action="store_true", help="small horizons for a smoke pass")
    args = ap.parse_args()

    horizon = "100000" if args.quick else "2000000"
    reps = "4" if args.quick else "16"
    out = Path(args.out)

    run(["iopt", "--config", CONFIG, "--out", str(out / "iopt")])

    run([
        "compare", "--config", CONFIG,
        "--q-th", "2", "--eta", "0.25", "--alpha", "7",
        "--horizon", horizon, "--replications", reps, "--seed", str(args.seed),
        "--out", str(out / "compare"), "--svg",
    ])

    run([
        "sweep", "--config", CONFIG, "--policy", '{"type": "het", "q_th": 2}',
        "--values", "1,2,10",
        "--horizon", horizon, "--replications", reps, "--seed", str(args.seed),
        "--out", str(out / "sweep_qth"),
    ])

    for q_th in ("2", "10"):
        run([
            "regions", "--config", CONFIG,
            "--policy", f'{{"type": "het", "q_th": {q_th}}}',
            "--axes", "0,2", "--grid-max", "40", "--grid-step", "0.5",
            "--out", str(out / f"regions_qth{q_th}"),
        ])

    print(f"\nall outputs under {out}/")


if __name__ == "__main__":
    main()
