"""Golden analysis outputs: SHA-256 digests of the `iopt` and `regions`
outputs, so a change that moves any output byte fails here.

A change that moves these outputs on purpose must declare it as a
correctness fix, record the before/after in CHANGES.md, and re-pin the
digests."""

import hashlib
import json
from pathlib import Path

import pytest

import schedlab.cli as cli
from schedlab import reference_config
from schedlab.model import config_to_json

REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference4x3.json"

IOPT_CONFIGS = {
    "reference": json.loads(REFERENCE_CONFIG.read_text()),
    "fluid": config_to_json(reference_config("fluid")),
    # the benchmark's 5-user x 3-state system with the lambda its analysis
    # workload draws at seed 1
    "five_user": {
        "n_users": 5, "n_states": 3, "state_probs": [0.3, 0.6, 0.1],
        "rate_matrix": [[0, 0, 0, 0, 0], [3, 9, 9, 9, 9], [5, 0, 1, 1, 2]],
        "arrival_rates": [0.909488, 0.860139, 0.85862, 0.879055, 0.908597],
        "arrival_model": "poisson",
    },
}

# (iopt.json re-serialised as the CLI writes it without the echoed out path,
# phi_opt.csv)
GOLDEN_IOPT = {
    "reference": (
        "38184284e4fd48029b0e94d38f17bb00f88f6d962238729ed8b8e9396cb7457d",
        "d6b716e8d4dbec3b42462a646ec7c4f6d87571fe995109a016cb4efd7507a224",
    ),
    "fluid": (
        "38435fd455f8778ec7715b7078fd93ffe566e3c654026680d54179fcf5a1702c",
        "d0e8f16e020a565e913417084f1053abcd45c8886f1ae419d5313d7351e40445",
    ),
    "five_user": (
        "19759b52815e7e3c50c3e3cffe4fa4fa1295a08b2c158d8d0e64ee47c87f7cc9",
        "49e5fa40a3a9ab0f61f9f18ef1e0e1d0b880f317fe94826da522e33a561e416a",
    ),
}

GOLDEN = {
    # het q_th = 2, axes 0,2, grid step 2 up to the default 40
    "regions.csv": "bb7f2ea10fd295b782772a95149cf7448ed6eb8835f37a75543cc99cb02f801a",
    "regions.svg": "241978b8693940fe5a18ca66041f3d646c47318e2ec87eaf11b293513140d9a0",
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("name", sorted(IOPT_CONFIGS))
def test_iopt_outputs_are_golden(tmp_path, name):
    config, out = tmp_path / "config.json", tmp_path / "iopt"
    config.write_text(json.dumps(IOPT_CONFIGS[name]))
    assert cli.main(["iopt", "--config", str(config), "--out", str(out)]) == 0
    doc = json.loads((out / "iopt.json").read_text())
    assert doc["spec_echo"].pop("out") == str(out)
    digests = (
        _sha((json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()),
        _sha((out / "phi_opt.csv").read_bytes()),
    )
    assert digests == GOLDEN_IOPT[name]


def test_regions_outputs_are_golden(tmp_path):
    out = tmp_path / "reg"
    rc = cli.main([
        "regions", "--config", str(REFERENCE_CONFIG), "--policy", '{"type": "het", "q_th": 2}',
        "--axes", "0,2", "--grid-step", "2", "--out", str(out),
    ])
    assert rc == 0
    assert _sha((out / "regions.csv").read_bytes()) == GOLDEN["regions.csv"]
    assert _sha((out / "regions.svg").read_bytes()) == GOLDEN["regions.svg"]
