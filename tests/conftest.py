import numpy as np
import pytest

from schedlab import SystemConfig, reference_config


@pytest.fixture(scope="session")
def ref_cfg():
    return reference_config()


@pytest.fixture(scope="session")
def ref_cfg_fluid():
    return reference_config(arrival_model="fluid")


@pytest.fixture(scope="session")
def ref_cfg_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("cfg") / "ref_cfg.json"
    path.write_text(
        """{
  "n_users": 4, "n_states": 3,
  "state_probs": [0.3, 0.6, 0.1],
  "rate_matrix": [[0, 0, 0, 0], [3, 9, 9, 9], [5, 0, 1, 1]],
  "arrival_rates": [1, 1, 1, 1],
  "arrival_model": "poisson"
}"""
    )
    return path


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
