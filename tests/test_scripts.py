import json
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np

import schedlab.cli as cli
from schedlab import PathSample, SystemConfig, compute_iopt, config_from_json, path_cost, relative_entropy
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
    relative_entropy and path_cost. Returns their values."""
    overloaded = SystemConfig(n_users=1, n_states=1, state_probs=np.array([1.0]),
                              rate_matrix=np.array([[1.0]]), arrival_rates=np.array([2.0]))
    early = compute_iopt(overloaded)
    assert cli.main(["iopt", "--config", str(REFERENCE_CONFIG), "--out", "iopt"]) == 0
    ref_cfg = config_from_json(REFERENCE_CONFIG)
    path = PathSample(
        times=np.array([0.0, 1.0, 3.0]),
        f_values=np.array([[0.0] * 4, [1.5, 1.0, 0.5, 1.0], [3.0, 2.0, 2.5, 1.5]]),
        g_values=np.array([[0.0] * 3, [0.2, 0.7, 0.1], [0.4, 1.8, 0.8]]),
    )
    return {
        "early": [early.value, early.arg_w, early.arg_y.tolist(), early.arg_phi.tolist()],
        "relative_entropy": relative_entropy([0.5, 0.3, 0.2], ref_cfg.state_probs),
        "path_cost": path_cost(path, ref_cfg),
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
