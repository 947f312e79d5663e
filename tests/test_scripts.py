import os
import shlex
import subprocess
import sys
from pathlib import Path

import schedlab.cli as cli

ROOT = Path(__file__).resolve().parent.parent


def test_run_experiments_quick(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_experiments.py"), "--quick", "--out", str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
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
