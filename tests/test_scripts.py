import os
import subprocess
import sys
from pathlib import Path

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
