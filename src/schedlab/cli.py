"""Command-line entry point: simulate, sweep, iopt, regions, compare.

All commands ingest a JSON system config, write JSON/CSV results (and SVG
plots) atomically into --out, and echo the fully resolved parameters in every
JSON document. Exit codes: 0 success, 2 bad input (a ValueError from the
library, or a path that cannot be read or written), 3 computation error
(schedlab.errors.ComputationError) or out of memory (MemoryError).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import tempfile
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import svg
from .errors import ComputationError
from .ldp import compute_iopt
from .model import SystemConfig, config_from_json, config_to_json
from .schedulers import Exp, Heterogeneous, MaxWeight, Policy, policy_from_json, policy_to_json
from .simulator import (
    DEFAULT_THRESHOLDS,
    ESTIMATOR_STATIONARY,
    ESTIMATORS,
    SimResult,
    SimSpec,
    decision_regions,
    resolved_burn_in,
    run_simulation,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_COMPUTE = 3

# ---------------------------------------------------------------------------
# serialization helpers


def _round12(x: float) -> float:
    return float(f"{x:.12g}")


def _jsonify(obj):
    """Recursive JSON-ready conversion; reals carry 12 significant digits."""
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return _jsonify(obj.tolist())
    if isinstance(obj, (np.floating, float)):
        x = float(obj)
        return None if np.isnan(x) else _round12(x)
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    return obj


def _write_text(path: Path, text: str) -> None:
    """Atomic write: temp file in the target directory, then rename."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_json(path: Path, doc: dict) -> None:
    _write_text(path, json.dumps(_jsonify(doc), indent=2, sort_keys=True) + "\n")


def _cells(col) -> list[str]:
    """A column's CSV cells: a float's carry 12 significant digits, NaN as an
    empty cell; any other value (int, str) is written as its str, and a
    column of strings passes through as it is."""
    arr = np.asarray(col)
    if arr.dtype.kind == "f":
        return ["" if v != v else f"{v:.12g}" for v in arr.tolist()]
    cells = arr.tolist()
    if arr.dtype.kind == "U" or (arr.dtype.kind == "O" and set(map(type, cells)) <= {str}):
        return cells
    return [str(v) for v in cells]


def _write_csv(path: Path, columns: dict) -> None:
    """One CSV from header -> column, each column formatted by _cells."""
    cells = [_cells(col) for col in columns.values()]
    _write_text(path, "\n".join([",".join(columns), *map(",".join, zip(*cells))]) + "\n")


def _sim_result_doc(result: SimResult) -> dict:
    return {
        "overflow": [asdict(e) for e in result.overflow],
        "decay_rate": None if result.decay is None else asdict(result.decay),
        "empirical_phi": result.empirical_phi,
        "phi_observed": result.counters.state_slots > 0,
        "mean_queues": result.mean_queues,
        "counters": {
            "arrivals": result.counters.arrivals,
            "departures": result.counters.departures,
            "state_slots": result.counters.state_slots,
            "served_slots": result.counters.served_slots,
            "horizon": result.counters.horizon,
            "max_queue_seen": result.counters.max_queue_seen,
        },
    }


def _phi_columns(phi: np.ndarray) -> dict:
    """A states x users share matrix as state, user and phi columns, row-major."""
    state, user = np.indices(phi.shape)
    return {"state": state.ravel(), "user": user.ravel(), "phi": phi.ravel()}


def _overflow_chart(results: dict[str, SimResult], title: str) -> str:
    """Log-scale overflow probability against threshold, one series per result."""
    series = [
        {"label": label, "x": [e.threshold for e in r.overflow], "y": [e.probability for e in r.overflow]}
        for label, r in results.items()
    ]
    return svg.line_chart(series, title=title, xlabel="threshold B", ylabel="P(max queue >= B)", log_y=True)


# ---------------------------------------------------------------------------
# shared option plumbing


def _add_common(sub: argparse.ArgumentParser, policy: bool = True, campaign: bool = True) -> None:
    """--config, --out and, with policy, --policy; with campaign also the
    simulation options."""
    sub.add_argument("--config", required=True, help="path to the system config JSON")
    if policy:
        sub.add_argument("--policy", required=True, help="policy JSON document or path")
    sub.add_argument("--out", default="out", help="output directory")
    if not campaign:
        return
    sub.add_argument("--seed", type=int, default=0, help="master seed (default 0)")
    sub.add_argument("--horizon", type=int, default=2_000_000, help="slots per replication")
    sub.add_argument("--replications", type=int, default=16)
    sub.add_argument("--burn-in", type=int, default=None, help="slots discarded (default 10%%)")
    sub.add_argument("--thresholds", default=None, help="comma-separated overflow thresholds")
    sub.add_argument(
        "--estimator",
        choices=ESTIMATORS,
        default=ESTIMATOR_STATIONARY,
        help="stationary: fraction of post-burn-in slots whose largest queue is at or above B; "
        "episode: fraction of replications whose largest queue reaches B after the burn-in "
        "(--burn-in 0 covers the whole run from empty)",
    )


def _parse_thresholds(text: str | None) -> tuple[float, ...]:
    if text is None:
        return DEFAULT_THRESHOLDS
    return tuple(float(v) for v in text.split(",") if v.strip())


def _load_inputs(args, policy: bool = True):
    cfg = config_from_json(Path(args.config))
    pol = policy_from_json(args.policy) if policy else None
    spec = SimSpec(
        horizon=args.horizon,
        replications=args.replications,
        burn_in=args.burn_in,
        thresholds=_parse_thresholds(args.thresholds),
        master_seed=args.seed,
        estimator=args.estimator,
    )
    return cfg, pol, spec


def _spec_echo(args, cfg: SystemConfig, spec: SimSpec | None, policy: Policy | None, **extra) -> dict:
    doc = {"command": args.command, "config": config_to_json(cfg), "out": str(args.out)}
    if spec is not None:
        doc.update(
            {
                "seed": spec.master_seed,
                "horizon": spec.horizon,
                "replications": spec.replications,
                "burn_in": resolved_burn_in(spec),
                "thresholds": list(spec.thresholds),
                "estimator": spec.estimator,
            }
        )
    if policy is not None:
        doc["policy"] = policy_to_json(policy)
    doc.update(extra)
    return doc


# ---------------------------------------------------------------------------
# commands


def cmd_simulate(args) -> int:
    cfg, policy, spec = _load_inputs(args)
    (result,) = run_simulation(cfg, [policy], spec)
    out = Path(args.out)
    doc = {"spec_echo": _spec_echo(args, cfg, spec, policy)}
    doc.update(_sim_result_doc(result))
    _write_json(out / "result.json", doc)
    overflow = result.overflow
    _write_csv(out / "overflow.csv", {
        "B": [e.threshold for e in overflow],
        "prob": [e.probability for e in overflow],
        "ci_low": [e.ci_low for e in overflow],
        "ci_high": [e.ci_high for e in overflow],
        "n_events": [e.n_events for e in overflow],
    })
    phi = _phi_columns(result.empirical_phi)
    phi["observed"] = (result.counters.state_slots > 0).astype(int)[phi["state"]]
    _write_csv(out / "phi.csv", phi)
    if args.svg:
        chart = _overflow_chart({"overflow": result}, "Overflow probability vs threshold")
        _write_text(out / "overflow.svg", chart)
    return EXIT_OK


def _policy_with_param(policy: Policy, value: float) -> Policy:
    return replace(policy, variant=replace(policy.variant, **{policy.variant.param: value}))


def cmd_sweep(args) -> int:
    cfg, policy, spec = _load_inputs(args)
    values = [float(v) for v in args.values.split(",") if v.strip()]
    if len(values) < 2:
        raise ValueError("sweep needs at least two parameter values")
    swept = [_policy_with_param(policy, v) for v in values]

    iopt = compute_iopt(cfg)
    results = run_simulation(cfg, swept, spec)
    fits = [r.decay for r in results]
    entries = [{"param": value, "policy": policy_to_json(pol), **_sim_result_doc(result)}
               for value, pol, result in zip(values, swept, results)]
    rates = [np.nan if d is None else d.rate for d in fits]

    out = Path(args.out)
    _write_json(
        out / "sweep.json",
        {
            "spec_echo": _spec_echo(args, cfg, spec, policy, sweep_values=values),
            "iopt_reference": iopt.value,
            "runs": entries,
        },
    )
    _write_csv(out / "decay_vs_param.csv", {
        "param": values,
        "decay_rate": rates,
        "stderr": [np.nan if d is None else d.stderr for d in fits],
        "n_used": [0 if d is None else d.n_used for d in fits],
        "iopt": np.full(len(values), iopt.value),
    })
    param_name = policy.variant.param
    chart = svg.line_chart(
        [{"label": "fitted decay", "x": values, "y": rates}],
        title=f"Decay rate vs {param_name}",
        xlabel=param_name,
        ylabel="decay rate",
        hlines=[("optimal decay", iopt.value)],
    )
    _write_text(out / "fig1-like.svg", chart)
    return EXIT_OK


def cmd_iopt(args) -> int:
    cfg = config_from_json(Path(args.config))
    result = compute_iopt(cfg)
    out = Path(args.out)
    _write_json(
        out / "iopt.json",
        {
            "spec_echo": _spec_echo(args, cfg, None, None),
            "value": result.value,
            "arg_y": result.arg_y,
            "arg_gamma": result.arg_gamma,
            "arg_w": result.arg_w,
            "arg_phi": result.arg_phi,
        },
    )
    _write_csv(out / "phi_opt.csv", _phi_columns(result.arg_phi))
    return EXIT_OK


def cmd_regions(args) -> int:
    cfg = config_from_json(Path(args.config))
    policy = policy_from_json(args.policy)
    axes = tuple(int(v) for v in args.axes.split(","))
    if len(axes) != 2:
        raise ValueError("--axes takes exactly two user indices")
    fixed = None
    if args.fixed_queues is not None:
        fixed = np.array([float(v) for v in args.fixed_queues.split(",")])
    region = decision_regions(
        cfg, policy, axes, fixed_queues=fixed, grid_max=args.grid_max, grid_step=args.grid_step
    )
    out = Path(args.out)
    # format the G grid values once and repeat the strings over the G x G map
    q, G = np.array(_cells(region.q_values)), len(region.q_values)
    _write_csv(out / "regions.csv",
               {"q_a": np.repeat(q, G), "q_b": np.tile(q, G), "label": region.labels.ravel()})
    chart = svg.region_chart(
        region.q_values,
        region.labels,
        region.axis_users,
        title=f"Decision regions ({policy_to_json(policy)['type']})",
    )
    _write_text(out / "regions.svg", chart)
    return EXIT_OK


def cmd_compare(args) -> int:
    cfg, _, spec = _load_inputs(args, policy=False)
    policies = [
        ("het", args.q_th, Policy(Heterogeneous(q_th=args.q_th))),
        ("exp", args.eta, Policy(Exp(eta=args.eta))),
        ("mw", args.alpha, Policy(MaxWeight(alpha=args.alpha))),
    ]

    runs = run_simulation(cfg, [pol for _, _, pol in policies], spec)
    results = {name: result for (name, _, _), result in zip(policies, runs)}
    fits = [r.decay for r in results.values()]
    mean_q = np.array([r.mean_queues for r in results.values()])
    phi = np.array([r.empirical_phi for r in results.values()])
    columns = {
        "policy": list(results),
        "param": [param for _, param, _ in policies],
        "decay_rate": [np.nan if d is None else d.rate for d in fits],
        "decay_stderr": [np.nan if d is None else d.stderr for d in fits],
        **{f"mean_q_u{i}": mean_q[:, i] for i in range(cfg.n_users)},
        **{f"phi_s{m}_u{i}": phi[:, m, i] for m in range(cfg.n_states) for i in range(cfg.n_users)},
    }
    run_docs = [
        {"policy": policy_to_json(pol), **_sim_result_doc(results[name])} for name, _, pol in policies
    ]

    out = Path(args.out)
    _write_json(
        out / "compare.json",
        {"spec_echo": _spec_echo(args, cfg, spec, None), "runs": run_docs},
    )
    _write_csv(out / "compare.csv", columns)
    if args.svg:
        _write_text(out / "compare.svg", _overflow_chart(results, "Overflow probability by scheduler"))
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser and entry point


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use: building it costs
    more than an iopt LP, and parse_args leaves it as it was. Callers parse
    with it and add nothing to it."""
    parser = argparse.ArgumentParser(
        prog="schedlab",
        description="Queue-aware wireless scheduling lab: simulation and decay-rate analysis",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="one (config, policy) simulation campaign")
    _add_common(p_sim)
    p_sim.add_argument("--svg", action="store_true", help="also emit overflow.svg")

    p_sweep = sub.add_parser("sweep", help="simulate over a policy-parameter list")
    _add_common(p_sweep)
    p_sweep.add_argument("--values", required=True, help="comma-separated parameter values")

    p_iopt = sub.add_parser("iopt", help="optimal decay rate of the config")
    _add_common(p_iopt, policy=False, campaign=False)

    p_reg = sub.add_parser("regions", help="decision-region map over two queue axes")
    _add_common(p_reg, campaign=False)
    p_reg.add_argument("--axes", required=True, help="two user indices, e.g. 0,2")
    p_reg.add_argument("--grid-max", type=float, default=40.0)
    p_reg.add_argument("--grid-step", type=float, default=1.0)
    p_reg.add_argument("--fixed-queues", default=None, help="comma list for off-axis users")

    p_cmp = sub.add_parser("compare", help="het vs exp vs mw under a shared seed")
    _add_common(p_cmp, policy=False)
    p_cmp.add_argument("--svg", action="store_true", help="also emit compare.svg")
    p_cmp.add_argument("--q-th", type=float, default=2.0)
    p_cmp.add_argument("--eta", type=float, default=0.25)
    p_cmp.add_argument("--alpha", type=float, default=7.0)

    return parser


_COMMANDS = {
    "simulate": cmd_simulate,
    "sweep": cmd_sweep,
    "iopt": cmd_iopt,
    "regions": cmd_regions,
    "compare": cmd_compare,
}

# bad input: a config, policy or option the library rejects (ValueError, or
# TypeError for a value of the wrong JSON type), or a path that cannot be read
# or written (OSError)
_USAGE_ERRORS = (OSError, TypeError, ValueError)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ComputationError as exc:
        print(f"schedlab: computation error: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except MemoryError as exc:
        print(f"schedlab: out of memory: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except _USAGE_ERRORS as exc:
        print(f"schedlab: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
