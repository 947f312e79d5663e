"""Golden analysis outputs: SHA-256 digests of the `iopt` and `regions`
reference outputs, so a change that moves any output byte fails here.

A change that moves these outputs on purpose must declare it as a
correctness fix, record the before/after in CHANGES.md, and re-pin the
digests."""

import hashlib
import json
from pathlib import Path

import schedlab.cli as cli

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference4x3.json"

GOLDEN = {
    # iopt.json re-serialised as the CLI writes it, without the echoed out path
    "iopt.json": "38184284e4fd48029b0e94d38f17bb00f88f6d962238729ed8b8e9396cb7457d",
    "phi_opt.csv": "d6b716e8d4dbec3b42462a646ec7c4f6d87571fe995109a016cb4efd7507a224",
    # het q_th = 2, axes 0,2, grid step 2 up to the default 40
    "regions.csv": "bb7f2ea10fd295b782772a95149cf7448ed6eb8835f37a75543cc99cb02f801a",
    "regions.svg": "241978b8693940fe5a18ca66041f3d646c47318e2ec87eaf11b293513140d9a0",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def test_iopt_outputs_are_golden(tmp_path):
    out = tmp_path / "iopt"
    assert cli.main(["iopt", "--config", str(REFERENCE_CONFIG), "--out", str(out)]) == 0
    doc = json.loads((out / "iopt.json").read_text())
    assert doc["spec_echo"].pop("out") == str(out)
    assert _sha((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()) == GOLDEN["iopt.json"]
    assert _sha((out / "phi_opt.csv").read_bytes()) == GOLDEN["phi_opt.csv"]


def test_regions_outputs_are_golden(tmp_path):
    out = tmp_path / "reg"
    rc = cli.main([
        "regions", "--config", str(REFERENCE_CONFIG), "--policy", '{"type": "het", "q_th": 2}',
        "--axes", "0,2", "--grid-step", "2", "--out", str(out),
    ])
    assert rc == 0
    assert _sha((out / "regions.csv").read_bytes()) == GOLDEN["regions.csv"]
    assert _sha((out / "regions.svg").read_bytes()) == GOLDEN["regions.svg"]
