from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from schedlab import SystemConfig, config_from_json, run_replications

# the 4-user / 3-state reference system: the one file that writes out its numbers
REFERENCE_CONFIG = Path(__file__).resolve().parents[1] / "configs" / "reference4x3.json"


@pytest.fixture(scope="session")
def ref_cfg():
    return config_from_json(REFERENCE_CONFIG)


@pytest.fixture(scope="session")
def ref_cfg_fluid(ref_cfg):
    return replace(ref_cfg, arrival_model="fluid")


@pytest.fixture(scope="session")
def ref_cfg_path():
    return REFERENCE_CONFIG


def run_replication(cfg, policy, spec, rep_index):
    """One replication of one policy, deterministic given (master_seed, rep_index)."""
    return run_replications(cfg, [policy], spec, [rep_index])[0][0]


def make_config(rates, probs, lam, arrival_model="poisson"):
    rates = np.asarray(rates, dtype=float)
    return SystemConfig(
        n_users=rates.shape[1],
        n_states=rates.shape[0],
        state_probs=np.asarray(probs, dtype=float),
        rate_matrix=rates,
        arrival_rates=np.asarray(lam, dtype=float),
        arrival_model=arrival_model,
    )


@pytest.fixture(scope="session")
def single_user_cfg():
    return make_config([[5.0]], [1.0], [1.0])
