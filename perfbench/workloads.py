"""The benchmark's workloads: inputs generated from a seed, and the command
sequence one pass of a workload runs through ``schedlab.cli.main``.

This module runs in run.py's process, which imports neither numpy nor
schedlab, so that spawning the measured child is all that process does.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

WORKLOADS = ("campaign", "single_stream", "analysis")

# The bundled reference system; the benchmark copies it into its work
# directory so the program only ever reads generated files.
REFERENCE_CONFIG = Path("configs") / "reference4x3.json"

# compute_iopt's value on the reference system at this commit; a later
# version may only match or lower it (the search returns an upper bound).
REFERENCE_IOPT = 0.295635377585

# The fixed 5-user x 3-state system: 201 dual vertices, so vertex
# enumeration dominates its iopt. Every lambda in [0.85, 0.95] is
# stabilizable.
FIVE_USER_RATES = [[0, 0, 0, 0, 0], [3, 9, 9, 9, 9], [5, 0, 1, 1, 2]]
FIVE_USER_PROBS = [0.3, 0.6, 0.1]
FIVE_USER_LAMBDA = (0.85, 0.95)


@dataclass(frozen=True)
class Sizes:
    """Problem sizes. FULL is what the benchmark measures; TINY keeps the
    same command sequence small enough for a smoke test."""

    campaign_horizon: int
    stream_horizon: int
    regions_step: float


FULL = Sizes(campaign_horizon=50_000, stream_horizon=80_000, regions_step=0.5)
TINY = Sizes(campaign_horizon=1_000, stream_horizon=1_000, regions_step=10.0)

REGIONS_GRID_MAX = 40.0
CAMPAIGN_REPLICATIONS = 8


def _write_json(path: Path, doc: dict) -> str:
    path.write_text(json.dumps(doc, indent=2) + "\n")
    return str(path)


def _simulation(label, argv, out, horizon, replications, runs):
    check = {"kind": "simulation", "horizon": horizon, "burn_in": horizon // 10,
             "replications": replications, "runs": runs}
    return {"label": label, "argv": argv + ["--out", out], "out": out, "check": check}


def _compare(label, config, horizon, seed, out):
    argv = ["compare", "--config", config, "--q-th", "2", "--eta", "0.25", "--alpha", "7",
            "--horizon", str(horizon), "--replications", str(CAMPAIGN_REPLICATIONS),
            "--seed", str(seed), "--estimator", "stationary"]
    return _simulation(label, argv, out, horizon, CAMPAIGN_REPLICATIONS, 3)


def _simulate(label, config, policy, horizon, seed, out):
    argv = ["simulate", "--config", config, "--policy", json.dumps(policy),
            "--horizon", str(horizon), "--replications", "1", "--seed", str(seed)]
    return _simulation(label, argv, out, horizon, 1, 1)


def _iopt(label, config, out, max_value=None):
    check = {"kind": "iopt", "config": config, "max_value": max_value}
    return {"label": label, "argv": ["iopt", "--config", config, "--out", out], "out": out,
            "check": check}


def _regions(label, config, q_th, step, out):
    argv = ["regions", "--config", config, "--policy", json.dumps({"type": "het", "q_th": q_th}),
            "--axes", "0,2", "--grid-step", str(step), "--grid-max", str(REGIONS_GRID_MAX),
            "--out", out]
    side = int(round(REGIONS_GRID_MAX / step)) + 1
    return {"label": label, "argv": argv, "out": out,
            "check": {"kind": "regions", "rows": side * side}}


def build(name: str, seed: int, root: Path, workdir: Path, sizes: Sizes = FULL) -> dict:
    """Write the workload's inputs into workdir and return its spec: the
    commands of one measured pass, and the warm-up commands of set-up.

    The same (name, seed, sizes) always yields the same inputs.
    """
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; choose one of {', '.join(WORKLOADS)}")
    rng = random.Random(f"{name}:{seed}")
    sim_seed = rng.randrange(2**31)
    reference = json.loads((root / REFERENCE_CONFIG).read_text())
    ref = _write_json(workdir / "reference4x3.json", reference)
    out = str(workdir / "out")
    warm = str(workdir / "warm")

    if name == "campaign":
        commands = [_compare("compare", ref, sizes.campaign_horizon, sim_seed, out)]
        warmup = [_compare("warm_compare", ref, 1_000, sim_seed, warm)]
    elif name == "single_stream":
        fluid = _write_json(workdir / "reference4x3_fluid.json",
                            {**reference, "arrival_model": "fluid"})
        policy = {"type": "het", "q_th": 10, "tie_break": "uniform_random"}
        commands = [_simulate("simulate", fluid, policy, sizes.stream_horizon, sim_seed, out)]
        warmup = [_simulate("warm_simulate", fluid, policy, 1_000, sim_seed, warm)]
    else:
        n_users = len(FIVE_USER_RATES[0])
        lam = [round(rng.uniform(*FIVE_USER_LAMBDA), 6) for _ in range(n_users)]
        five = _write_json(workdir / "five3.json", {
            "n_users": n_users, "n_states": 3, "state_probs": FIVE_USER_PROBS,
            "rate_matrix": FIVE_USER_RATES, "arrival_rates": lam, "arrival_model": "poisson",
        })
        commands = [
            _iopt("iopt_ref", ref, out, max_value=REFERENCE_IOPT),
            _iopt("iopt_5u", five, out),
            _regions("regions_q2", ref, 2, sizes.regions_step, out),
            _regions("regions_q10", ref, 10, sizes.regions_step, out),
        ]
        # a 2-user system whose iopt takes milliseconds: warms the iopt path
        tiny = _write_json(workdir / "tiny2x2.json", {
            "n_users": 2, "n_states": 2, "state_probs": [0.5, 0.5],
            "rate_matrix": [[1, 2], [2, 1]], "arrival_rates": [0.5, 0.5],
        })
        warmup = [_iopt("warm_iopt", tiny, warm), _regions("warm_regions", ref, 2, 10.0, warm)]
    return {"workload": name, "seed": seed, "commands": commands, "warmup": warmup}
