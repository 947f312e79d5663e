import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import schedlab.cli as cli
from schedlab import SystemConfig, compute_iopt, config_from_json, relative_entropy
from conftest import REFERENCE_CONFIG

ROOT = Path(__file__).resolve().parent.parent
SCIPY_SOLVERS = ("scipy.optimize", "scipy.special")


def run_fresh(argv, cwd=None) -> str:
    """Run argv in a fresh interpreter that imports schedlab from src/;
    returns its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, *argv], cwd=cwd, env=env, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_run_experiments_quick(tmp_path):
    run_fresh([str(ROOT / "scripts" / "run_experiments.py"), "--quick", "--out", str(tmp_path)])
    outputs = {"iopt", "compare", "sweep_qth", "regions_qth2", "regions_qth10"}
    assert {p.name for p in tmp_path.iterdir() if p.is_dir()} == outputs
    assert all(any((tmp_path / name).iterdir()) for name in outputs)


def readme_examples() -> list[list[str]]:
    """The argv of each `schedlab ...` line in README's Examples block."""
    block = (ROOT / "README.md").read_text().split("Examples:\n\n```\n", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines() if line.startswith("schedlab ")]


def test_readme_examples_run_as_written(tmp_path, monkeypatch):
    """Every README example parses and its config, policy and campaign
    options build; iopt and regions run in full with --out under tmp_path.
    The 2M-slot campaigns of simulate, sweep and compare are not run."""
    examples = readme_examples()
    assert [argv[0] for argv in examples] == ["simulate", "sweep", "iopt", "regions", "compare"]
    monkeypatch.chdir(ROOT)  # the examples' config paths are relative to the checkout
    parser = cli.build_parser()
    for argv in examples:
        args = parser.parse_args(argv)
        if args.command in ("iopt", "regions"):
            out = tmp_path / args.out
            argv[argv.index("--out") + 1] = str(out)
            assert cli.main(argv) == 0, argv
            assert any(out.iterdir()), argv
        else:
            cli._load_inputs(args, policy=args.command != "compare")


STARTUP = """
import json, sys
import schedlab
import schedlab.cli as cli

config, solvers = sys.argv[1], sys.argv[2].split(",")
het = '{"type": "het", "q_th": 2}'
small = ["--horizon", "2000", "--replications", "2"]
loaded = {"import": [m for m in solvers if m in sys.modules]}
for argv in (
    ["simulate", "--config", config, "--policy", het, *small, "--out", "simulate"],
    ["compare", "--config", config, *small, "--out", "compare"],
    ["regions", "--config", config, "--policy", het, "--axes", "0,1", "--grid-max", "4", "--out", "regions"],
):
    assert cli.main(argv) == 0, argv
    loaded[argv[0]] = [m for m in solvers if m in sys.modules]
print(json.dumps(loaded))
"""


def test_simulate_compare_and_regions_start_without_scipy(tmp_path):
    """Only the LP and root solves of ldp need scipy, and they import it
    where they are called: importing schedlab and running simulate, compare
    and regions in a fresh interpreter leaves scipy.optimize and
    scipy.special unloaded."""
    stdout = run_fresh(["-c", STARTUP, str(REFERENCE_CONFIG), ",".join(SCIPY_SOLVERS)], cwd=tmp_path)
    assert json.loads(stdout) == {"import": [], "simulate": [], "compare": [], "regions": []}
    assert all(any((tmp_path / name).iterdir()) for name in ("simulate", "compare", "regions"))


def deferred_import_calls() -> dict:
    """Every ldp function that imports scipy when called, in cold-start order:
    compute_iopt on an overloaded config first (its early return reaches only
    w_growth's LP), then iopt on the reference config into ./iopt, then
    relative_entropy. Returns their values."""
    overloaded = SystemConfig(n_users=1, n_states=1, state_probs=np.array([1.0]),
                              rate_matrix=np.array([[1.0]]), arrival_rates=np.array([2.0]))
    early = compute_iopt(overloaded)
    assert cli.main(["iopt", "--config", str(REFERENCE_CONFIG), "--out", "iopt"]) == 0
    ref_cfg = config_from_json(REFERENCE_CONFIG)
    return {
        "early": [early.value, early.arg_w, early.arg_y.tolist(), early.arg_phi.tolist()],
        "relative_entropy": relative_entropy([0.5, 0.3, 0.2], ref_cfg.state_probs),
    }


def test_deferred_scipy_imports_resolve_from_a_cold_start(tmp_path, monkeypatch):
    """The same calls give the same values, and iopt the same iopt.json and
    phi_opt.csv bytes, in a fresh interpreter that has loaded no scipy
    solver as in this one, so every deferred import site resolves."""
    cold, warm = tmp_path / "cold", tmp_path / "warm"
    cold.mkdir()
    warm.mkdir()
    code = (
        f"import json, sys; sys.path.insert(0, {str(Path(__file__).parent)!r}); import test_scripts; "
        f"assert not [m for m in {SCIPY_SOLVERS!r} if m in sys.modules]; "
        "print(json.dumps(test_scripts.deferred_import_calls()))"
    )
    cold_values = json.loads(run_fresh(["-c", code], cwd=cold))
    monkeypatch.chdir(warm)
    warm_values = json.loads(json.dumps(deferred_import_calls()))
    assert cold_values == warm_values
    assert cold_values["early"][:2] == [0.0, 1.0]  # the early return: w = 2 - 1 at zero cost
    for name in ("iopt.json", "phi_opt.csv"):
        assert (cold / "iopt" / name).read_bytes() == (warm / "iopt" / name).read_bytes(), name


def perfbench_report(workload, seed, trace, sha, wall_s, raw_s, written_ns, directory):
    """A perfbench report as perfbench/run.py writes it, with one command,
    `compare`, written into directory at time written_ns."""
    env = {"nproc": 2, "affinity": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1",
           "git_sha": sha, "OMP_NUM_THREADS": "1"}
    if trace:
        metrics = {"simulator.engine_s": {"value": wall_s, "unit": "s"}}
    else:
        metrics = {name: {"value": value, "unit": "s"}
                   for name, value in (("setup_s", 0.1), ("wall_s", wall_s), ("cmd_geomean_s", wall_s))}
    figures = {"compare_s": raw_s, "compare_ref_s": wall_s, "compare_cpu_s": 2 * raw_s, "compare_n": 200,
               "multi_cpu_n": 200 * (raw_s != wall_s), "rep_slots_per_s": 1e7, "failed_frac": 0.0}
    report = {"workload": workload, "seed": seed, "seconds": 20.0, "trace": trace, "env": env,
              "figures": figures, "metrics": metrics, "missing_layers": ["schedlab.ldp.minimize"]}
    path = directory / f"{workload}-seed{seed}-trace{trace}.json"
    path.write_text(json.dumps(report))
    os.utime(path, ns=(written_ns, written_ns))


def test_bench_pairs_writes_a_bench_file(tmp_path):
    """bench_pairs.py pairs the reports of two directories by workload, seed
    and trace setting. Each pair names the side whose report is older as
    first and keeps metrics, multi_cpu_n and raw command seconds; each
    workload's summary holds inclusive quartiles and the change's wins;
    --trace 1 pairs go under "traced"; a report without a pair is left out."""
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    sha = "f6d6d4575be679e9c83f8de29e314029d7fa1d3a"
    walls = {"parent": [0.070, 0.072, 0.074, 0.076, 0.080], "change": [0.030, 0.031, 0.075, 0.033, 0.034]}
    for seed in range(1, 6):
        first, second = (parent, change) if seed % 2 else (change, parent)
        for directory, written in ((first, 1000 * seed), (second, 1000 * seed + 1)):
            side = directory.name
            wall = walls[side][seed - 1]
            raw = wall if side == "parent" else wall * 0.9
            perfbench_report("campaign", seed, 0, sha if side == "parent" else "c0ffee0", wall, raw, written,
                             directory)
    perfbench_report("campaign", 1, 1, sha, 0.2, 0.2, 10, parent)
    perfbench_report("campaign", 1, 1, "c0ffee0", 0.1, 0.1, 11, change)
    perfbench_report("analysis", 1, 0, sha, 0.05, 0.05, 12, parent)  # no pair
    out = run_fresh([str(ROOT / "scripts" / "bench_pairs.py"), str(parent), str(change), "--out", str(tmp_path)])
    assert out.strip() == str(tmp_path / "BENCH_f6d6d45.json")
    bench = json.loads((tmp_path / "BENCH_f6d6d45.json").read_text())
    assert bench["parent"] == "f6d6d45"
    assert bench["host"] == {"nproc": 2, "affinity": 2, "python": "3.11.7", "numpy": "2.4.6", "scipy": "1.17.1"}
    assert list(bench["workloads"]) == ["campaign"]
    pairs = bench["workloads"]["campaign"]["pairs"]
    assert [(p["seed"], p["first"]) for p in pairs] == [
        (1, "parent"), (2, "change"), (3, "parent"), (4, "change"), (5, "parent")]
    assert pairs[1]["change"] == {
        "correct": True, "metrics": {"setup_s": 0.1, "wall_s": 0.031, "cmd_geomean_s": 0.031},
        "failed_frac": 0.0, "multi_cpu_n": 200, "raw_s": {"compare_s": 0.031 * 0.9}}
    assert pairs[1]["parent"]["multi_cpu_n"] == 0
    summary = bench["workloads"]["campaign"]["summary"]
    assert list(summary) == ["setup_s", "wall_s", "cmd_geomean_s", "compare_s"]
    assert summary["wall_s"]["parent"] == pytest.approx({"q1": 0.072, "median": 0.074, "q3": 0.076})
    assert summary["wall_s"]["change"] == pytest.approx({"q1": 0.031, "median": 0.033, "q3": 0.034})
    assert (summary["wall_s"]["change_lower_in"], summary["wall_s"]["pairs"]) == (4, 5)
    assert summary["setup_s"]["change_lower_in"] == 0  # ties count for neither side
    assert summary["compare_s"]["change"]["median"] == pytest.approx(0.033 * 0.9)
    (traced,) = bench["traced"]["campaign"]
    assert traced == {"seed": 1, "first": "parent", "parent": {"simulator.engine_s": 0.2},
                      "parent_missing_layers": ["schedlab.ldp.minimize"],
                      "change": {"simulator.engine_s": 0.1},
                      "change_missing_layers": ["schedlab.ldp.minimize"]}
