"""Output checks, one per command kind. Each returns the list of problems it
found; an empty list means the command's outputs are right."""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

from schedlab.ldp import poisson_rate, relative_entropy, w_growth
from schedlab.model import config_from_json

REGION_LABELS = {"always_a", "always_b", "mixed", "other", "tie"}
ATOL = 1e-6  # packet counts are integers; float sums of them stay exact far below this
IOPT_TOL = 1e-9


def _close(a, b) -> bool:
    return bool(np.allclose(np.asarray(a, dtype=float), np.asarray(b, dtype=float),
                            rtol=1e-9, atol=ATOL))


def check_simulation(out: Path, check: dict, replications: list) -> list[str]:
    """compare.json or result.json against the per-replication outputs of
    each run, in run order, collected while the command ran."""
    name = "compare.json" if (out / "compare.json").exists() else "result.json"
    doc = json.loads((out / name).read_text())
    runs = doc["runs"] if "runs" in doc else [doc]
    R, n_stat = check["replications"], check["horizon"] - check["burn_in"]
    problems = []
    if len(runs) != check["runs"]:
        problems.append(f"{name}: {len(runs)} runs, expected {check['runs']}")
    if len(replications) != check["runs"] * R:
        problems.append(f"collected {len(replications)} replications, expected {check['runs'] * R}")
        return problems
    for k, run in enumerate(runs):
        reps = replications[k * R:(k + 1) * R]
        for rep in reps:
            c = rep.counters
            balance = c.final_queues - c.initial_queues - (c.arrivals - c.departures)
            if np.abs(balance).max() > ATOL:
                problems.append(f"run {k} rep {rep.rep_index}: balance identity off by {np.abs(balance).max()}")
            if int(c.state_slots.sum()) != n_stat:
                problems.append(f"run {k} rep {rep.rep_index}: {int(c.state_slots.sum())} state slots, expected {n_stat}")
        counters = run["counters"]
        if counters["horizon"] != R * n_stat or sum(counters["state_slots"]) != R * n_stat:
            problems.append(f"run {k}: counters cover {counters['horizon']} slots, expected {R * n_stat}")
        if not (_close(counters["arrivals"], sum(r.counters.arrivals for r in reps))
                and _close(counters["departures"], sum(r.counters.departures for r in reps))):
            problems.append(f"run {k}: reported arrivals/departures differ from the engine's")
        probs = [e["probability"] for e in run["overflow"]]
        if any(b > a for a, b in zip(probs, probs[1:])):
            problems.append(f"run {k}: overflow probability increases in B: {probs}")
        for e in run["overflow"]:
            if not e["ci_low"] <= e["probability"] <= e["ci_high"]:
                problems.append(f"run {k}: B={e['threshold']} estimate outside its Wilson interval")
    return problems


def check_iopt(out: Path, check: dict) -> list[str]:
    """The reported value must be attained: cost/growth at the reported
    argument recomputes it, with the growth from the LP, not the search."""
    doc = json.loads((out / "iopt.json").read_text())
    cfg = config_from_json(Path(check["config"]))
    y = np.asarray(doc["arg_y"], dtype=float)
    gamma = np.asarray(doc["arg_gamma"], dtype=float)
    gamma = gamma / gamma.sum()  # the JSON rounds to 12 significant digits
    cost = float(np.sum(poisson_rate(y, cfg.arrival_rates))) + relative_entropy(gamma, cfg.state_probs)
    w, _ = w_growth(y, gamma, cfg)
    problems = []
    if w <= 0:
        problems.append(f"growth at the reported argument is {w}")
    elif abs(cost / w - doc["value"]) > IOPT_TOL:
        problems.append(f"value {doc['value']} is not attained: cost/growth = {cost / w}")
    if check["max_value"] is not None and doc["value"] > check["max_value"] + IOPT_TOL:
        problems.append(f"value {doc['value']} exceeds {check['max_value']}")
    return problems


def check_regions(out: Path, check: dict) -> list[str]:
    with open(out / "regions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    problems = []
    if len(rows) != check["rows"]:
        problems.append(f"regions.csv has {len(rows)} rows, expected {check['rows']}")
    unknown = {r["label"] for r in rows} - REGION_LABELS
    if unknown:
        problems.append(f"regions.csv has unknown labels {sorted(unknown)}")
    return problems
