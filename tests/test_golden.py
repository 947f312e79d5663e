"""Golden outputs: SHA-256 digests of the `iopt` and `regions` outputs, of
short `compare`, `simulate` and `sweep` campaigns, and of `compute_iopt`'s
exact floats on seeded random configs, so a change that moves any output
byte, or any bit of the `I_opt` search, fails here.

A change that moves these outputs on purpose must declare it as a
correctness fix, record the before/after in CHANGES.md, and re-pin the
digests."""

import hashlib
import json

import numpy as np
import pytest

import schedlab.cli as cli
from conftest import REFERENCE_CONFIG
from schedlab import SystemConfig, compute_iopt
from schedlab.errors import ComputationError

IOPT_CONFIGS = {
    "reference": json.loads(REFERENCE_CONFIG.read_text()),
    "fluid": {**json.loads(REFERENCE_CONFIG.read_text()), "arrival_model": "fluid"},
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
    "regions.svg": "cc3842d76f87fc5ee0fca37b27d37e9302df075a730378e968e9f8eafb6a963a",
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


def iopt_digest_configs():
    """64 seeded configs: 2-5 users, 2-4 states, integer rates 0-9 (every
    sixth with an all-zero state), a third of them fluid, arrivals at 0.3-1.2
    times a random allocation's service, so some are not stabilizable and two
    fluid ones have no growing channel deviation."""
    rng = np.random.default_rng(2026)
    for k in range(64):
        N, M = 2 + k % 4, 2 + (k // 4) % 3
        rates = rng.integers(0, 10, size=(M, N)).astype(float)
        if k % 6 == 0:
            rates[rng.integers(M)] = 0.0
        probs = rng.dirichlet(np.ones(M))
        served = probs @ (rng.dirichlet(np.ones(N), size=M) * rates)
        lam = np.maximum(served * rng.uniform(0.3, 1.2, N), 0.05)
        yield SystemConfig(N, M, probs, rates, lam, "fluid" if k % 3 == 1 else "poisson")


# SHA-256 over every config's compute_iopt result (or error) as float.hex: a
# change to the LP, the dual-vertex enumeration or the root solve that moves
# one bit of any config fails here
GOLDEN_IOPT_FLOATS = "6d7e05387c1a4e2b8007a0268658d8545feae0e9c4c7ae80ec40e029cb567069"


def test_compute_iopt_floats_are_golden():
    digest = hashlib.sha256()
    for cfg in iopt_digest_configs():
        try:
            res = compute_iopt(cfg)
        except ComputationError as exc:
            digest.update(f"error: {exc}\n".encode())
            continue
        fields = (res.value, res.arg_y, res.arg_gamma, res.arg_phi, res.arg_w)
        line = "|".join(",".join(float(v).hex() for v in np.ravel(f)) for f in fields)
        digest.update(f"{line}\n".encode())
    assert digest.hexdigest() == GOLDEN_IOPT_FLOATS


def test_regions_outputs_are_golden(tmp_path):
    out = tmp_path / "reg"
    rc = cli.main([
        "regions", "--config", str(REFERENCE_CONFIG), "--policy", '{"type": "het", "q_th": 2}',
        "--axes", "0,2", "--grid-step", "2", "--out", str(out),
    ])
    assert rc == 0
    assert _sha((out / "regions.csv").read_bytes()) == GOLDEN["regions.csv"]
    assert _sha((out / "regions.svg").read_bytes()) == GOLDEN["regions.svg"]


_SIM_COMMON = ["--horizon", "70000", "--replications", "2", "--seed", "4"]

SIM_CONFIGS = {
    **IOPT_CONFIGS,
    # the reference system with its third channel state never drawn, so
    # phi.csv has unobserved rows: an empty phi and observed 0
    "zero_state": {**IOPT_CONFIGS["reference"], "state_probs": [0.4, 0.6, 0.0]},
}

# name -> (config, argv after the command's --config/--out); 70 000 slots are
# three kernel chunks of 32 768
SIM_RUNS = {
    # default burn-in 7 000: inside the first chunk
    "compare": ("reference", ["compare", *_SIM_COMMON, "--svg"]),
    # the burn-in ends inside the second chunk
    "simulate_uniform": ("fluid", [
        "simulate", "--policy", '{"type": "het", "q_th": 10, "tie_break": "uniform_random"}',
        *_SIM_COMMON, "--burn-in", "40000", "--svg",
    ]),
    # Poisson arrivals with uniform ties: each chunk's tie uniforms are drawn
    # before its arrivals
    "simulate_uniform_poisson": ("reference", [
        "simulate", "--policy", '{"type": "het", "q_th": 2, "tie_break": "uniform_random"}',
        *_SIM_COMMON,
    ]),
    "simulate_episode": ("reference", [
        "simulate", "--policy", '{"type": "exp", "eta": 0.75}', *_SIM_COMMON,
        "--estimator", "episode", "--burn-in", "0",
    ]),
    "sweep": ("reference", [
        "sweep", "--policy", '{"type": "mw", "alpha": 7}', "--values", "1,3", *_SIM_COMMON,
    ]),
    "simulate_zero_state": ("zero_state", [
        "simulate", "--policy", '{"type": "het", "q_th": 2}', *_SIM_COMMON,
    ]),
    # no queue reaches these thresholds, so there is no decay fit: empty
    # decay cells, and n_used 0 in decay_vs_param.csv
    "sweep_no_fit": ("reference", [
        "sweep", "--policy", '{"type": "mw", "alpha": 7}', "--values", "1,3", *_SIM_COMMON,
        "--thresholds", "1000,2000",
    ]),
    "compare_no_fit": ("reference", ["compare", *_SIM_COMMON, "--thresholds", "1000,2000"]),
}

# output file -> digest; JSON documents re-serialised without the echoed out path
GOLDEN_SIM = {
    "compare": {
        "compare.csv": "476fce73b9e4001d1374a6068500fa69628ea9f141d426c37d5fa8943981f971",
        "compare.json": "1a5c12e0ccb98d2e284109881b36e9638ee3aeefd820fdbaefbd4ab5e00e5190",
        "compare.svg": "11f91921c60286963d90bd18c961b08f4099a64cb43122f7ec589c01426e5c8b",
    },
    "simulate_uniform": {
        "overflow.csv": "331648748f0bf30359970ba8ae0209e3fd05faff89fe54b90028b0919d55615e",
        "overflow.svg": "ca2a1abf61a333cd1c3798c9da948a7641507f3fb293ed01659ac0edd6c75b06",
        "phi.csv": "872624f6ae90c41a54e17aef41f7abbaf1c1c341a1297b2946d836b9c94a9dcc",
        "result.json": "0c8642869d462829f31d0b17450b37a6249c575c1e2bbeb6ecbf4370a3983b58",
    },
    "simulate_uniform_poisson": {
        "overflow.csv": "7402b7dfa443fc56eccd0b98de348965e2f81cdbf4b0d4fe271eea5a4c886a29",
        "phi.csv": "12a6107bea394c21163b51d93a6c74a51b913e9f6830b76a7192dc51c9175bac",
        "result.json": "5e622722a86fc4172d674fe5d44a2b3ec2e63e56c8aed9b5cc676f06cb72ccd8",
    },
    "simulate_episode": {
        "overflow.csv": "d21068549ae3cf6971591d3d82a65784a9905cd437004d4b62f7481207901e20",
        "phi.csv": "dd2669f0c1bdab6ed9310cafc971b9a5e29adae737274174459b1bf50d29a001",
        "result.json": "a22c3beb3610f574366ffd4eae06b56a1ff5a1776d43ccdbde392de85cf9ba7c",
    },
    "sweep": {
        "decay_vs_param.csv": "6d1751f46fcb13dca8b092ed067bc7cc3eab778477695cc66e02c61b1e39c618",
        "fig1-like.svg": "8f5954fa16ac9c1f73215879b3c4a9b7855879b004275ea541f1e3fcce0cb67c",
        "sweep.json": "53f1b06d99d23d7d8216897ae5a0152b8bd8d32e0e26d382386c6a3a80cc3473",
    },
    "simulate_zero_state": {
        "overflow.csv": "62a28770bf278dd221cd1b62014b28634909ca550eb4983fd16fb4169dafb737",
        "phi.csv": "dfa1bf204db75afb62fc93d8e74236b02ac00070e8763977cb859f23c83e592b",
        "result.json": "b994cb008b3c597363b27477eca0108aa638ceea3cf1efbe7ff975236bf71d51",
    },
    "sweep_no_fit": {
        "decay_vs_param.csv": "b53954ce248ebe5b01114a9d17e0f511d2cbcf017e9747e268dec0d846d9a8c4",
        "fig1-like.svg": "0fc058e572a6b19003b7eca8950ddfd76aee6f103a936c97b62be3b8b05e21af",
        "sweep.json": "00acb0509610e7609e604b62b7ae54bb92f866f31f35f9ea6b74c809063cbb49",
    },
    "compare_no_fit": {
        "compare.csv": "64cf3b2fd62612994cdb51d2b9b136b4e1c81167186cab2f1b50e04398fa657e",
        "compare.json": "960a85e8d500b2de616633a04875f16fe63f9b1418cca89acb875620138a2939",
    },
}


def simulation_digests(tmp_path, name):
    config_name, argv = SIM_RUNS[name]
    config, out = tmp_path / "config.json", tmp_path / name
    config.write_text(json.dumps(SIM_CONFIGS[config_name]))
    assert cli.main([*argv, "--config", str(config), "--out", str(out)]) == 0
    digests = {}
    for path in sorted(out.iterdir()):
        data = path.read_bytes()
        if path.suffix == ".json":
            doc = json.loads(data)
            assert doc["spec_echo"].pop("out") == str(out)
            data = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        digests[path.name] = _sha(data)
    return digests


@pytest.mark.parametrize("name", sorted(SIM_RUNS))
def test_simulation_outputs_are_golden(tmp_path, name):
    assert simulation_digests(tmp_path, name) == GOLDEN_SIM[name]
