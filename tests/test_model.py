import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedlab import (
    RandomSource,
    SystemConfig,
    TraceCounters,
    config_from_json,
    sample_arrivals,
    sample_channel,
    step_queues,
)
from conftest import make_config


class TestValidateConfig:
    def test_reference_config_accepted(self, ref_cfg):
        assert ref_cfg.n_users == 4
        assert np.isclose(ref_cfg.state_probs.sum(), 1.0)

    def test_prob_sum_out_of_tolerance(self):
        with pytest.raises(ValueError, match="state_probs sum to"):
            make_config([[1.0] * 4] * 3, [0.5, 0.5, 0.1], [1.0] * 4)

    def test_negative_rate_entry(self):
        with pytest.raises(ValueError, match="rate_matrix entries must be >= 0"):
            make_config([[0, 0], [3, -1]], [0.5, 0.5], [1.0, 1.0])

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="rate_matrix has shape"):
            SystemConfig(
                n_users=2,
                n_states=2,
                state_probs=np.array([0.5, 0.5]),
                rate_matrix=np.array([[1.0, 2.0]]),
                arrival_rates=np.array([1.0, 1.0]),
            )

    def test_near_one_probs_renormalized(self):
        cfg = make_config([[1.0, 1.0]], [1.0 + 5e-10], [1.0, 1.0])
        assert cfg.state_probs.sum() == 1.0

    def test_json_round_trip(self, ref_cfg_path):
        cfg = config_from_json(ref_cfg_path)
        assert cfg.rate_matrix[2, 0] == 5.0
        assert cfg.arrival_model == "poisson"

    @pytest.mark.parametrize(
        "rates, probs, lam, field",
        [
            ([[1.0, 1.0], [2.0, 1.0]], [np.nan, 1.0], [1.0, 1.0], "state_probs"),
            ([[1.0, np.nan], [2.0, 1.0]], [0.5, 0.5], [1.0, 1.0], "rate_matrix"),
            ([[1.0, np.inf], [2.0, 1.0]], [0.5, 0.5], [1.0, 1.0], "rate_matrix"),
            ([[1.0, 1.0], [2.0, 1.0]], [0.5, 0.5], [1.0, np.inf], "arrival_rates"),
        ],
    )
    def test_non_finite_entry_rejected(self, rates, probs, lam, field):
        with pytest.raises(ValueError, match=field):
            make_config(rates, probs, lam)

    @pytest.mark.parametrize("field, index, value", [
        ("arrival_rates", 2, -1.0), ("rate_matrix", (1, 1), np.nan), ("state_probs", 0, 2.0),
    ])
    def test_arrays_are_read_only(self, ref_cfg, field, index, value):
        """A write after construction would skip its checks: a negative
        arrival rate or a NaN rate would run to nonsense counters."""
        with pytest.raises(ValueError, match="read-only"):
            getattr(ref_cfg, field)[index] = value
        assert np.all(np.isfinite(getattr(ref_cfg, field)))
        assert np.all(getattr(ref_cfg, field) >= 0)

    def test_arrays_are_copies_and_replace_still_works(self, ref_cfg):
        lam = np.array([0.5, 0.25, 0.25, 0.25])
        cfg = replace(ref_cfg, arrival_rates=lam)
        lam[0] = -1.0
        assert cfg.arrival_rates.tolist() == [0.5, 0.25, 0.25, 0.25]
        assert lam.flags.writeable and not cfg.arrival_rates.flags.writeable
        assert np.array_equal(cfg.rate_matrix, ref_cfg.rate_matrix)

    @pytest.mark.parametrize(
        "n_users, n_states, field", [(0, 3, "n_users"), (2, 0, "n_states")]
    )
    def test_empty_dimension_rejected(self, n_users, n_states, field):
        with pytest.raises(ValueError, match=field):
            SystemConfig(
                n_users=n_users,
                n_states=n_states,
                state_probs=np.full(n_states, 1.0 / max(n_states, 1)),
                rate_matrix=np.ones((n_states, n_users)),
                arrival_rates=np.ones(n_users),
            )


class TestSampleChannel:
    def test_degenerate_distribution(self):
        cfg = make_config([[1.0], [1.0], [1.0]], [1.0, 0.0, 0.0], [1.0])
        gen = RandomSource(1).generator()
        draws = sample_channel(gen, cfg, size=1000)
        assert np.all(draws == 0)

    def test_law_of_large_numbers(self, ref_cfg):
        gen = RandomSource(7).generator()
        draws = sample_channel(gen, ref_cfg, size=1_000_000)
        freq = np.bincount(draws, minlength=3) / 1e6
        assert np.all(np.abs(freq - ref_cfg.state_probs) < 0.005)

    def test_fixed_seed_reproducible(self, ref_cfg):
        a = sample_channel(RandomSource(3, 1).generator(), ref_cfg, size=100)
        b = sample_channel(RandomSource(3, 1).generator(), ref_cfg, size=100)
        assert np.array_equal(a, b)
        one = sample_channel(RandomSource(3, 1).generator(), ref_cfg)
        assert one == a[0]


class TestSampleArrivals:
    def test_fluid_exact(self, ref_cfg_fluid):
        gen = RandomSource(0).generator()
        assert np.array_equal(sample_arrivals(gen, ref_cfg_fluid), np.ones(4))
        block = sample_arrivals(gen, ref_cfg_fluid, size=10)
        assert np.array_equal(block, np.ones((10, 4)))

    def test_poisson_moments(self, ref_cfg):
        gen = RandomSource(11).generator()
        draws = sample_arrivals(gen, ref_cfg, size=1_000_000)[:, 0]
        assert abs(draws.mean() - 1.0) < 0.004
        assert abs(draws.var() - 1.0) < 0.01

    def test_poisson_nonnegative_integers(self, ref_cfg):
        gen = RandomSource(5).generator()
        draws = sample_arrivals(gen, ref_cfg, size=10_000)
        assert np.all(draws >= 0)
        assert np.all(draws == np.floor(draws))


class TestStepQueues:
    def test_truncation_at_zero(self, single_user_cfg):
        q, dep = step_queues(np.array([3.0]), np.array([1.0]), 0, 0, single_user_cfg)
        assert q[0] == 0.0
        assert dep == 4.0

    def test_basic_arithmetic(self):
        cfg = make_config([[3.0, 2.0]], [1.0], [1.0, 1.0])
        q, dep = step_queues(np.array([3.0, 2.0]), np.array([1.0, 0.0]), 0, 0, cfg)
        assert np.array_equal(q, [1.0, 2.0])
        assert dep == 3.0

    def test_index_out_of_range(self, single_user_cfg):
        with pytest.raises(ValueError, match="served_user 1 outside"):
            step_queues(np.array([1.0]), np.array([0.0]), 1, 0, single_user_cfg)
        with pytest.raises(ValueError, match="state 5 outside"):
            step_queues(np.array([1.0]), np.array([0.0]), 0, 5, single_user_cfg)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=25, deadline=None)
    def test_multi_step_balance_identity(self, seed):
        """Q(T) = Q(0) + arrivals - departures holds exactly on random runs."""
        cfg = make_config([[0, 0], [4, 2]], [0.4, 0.6], [1.0, 1.0])
        gen = RandomSource(seed).generator()
        q = np.zeros(2)
        total_arr = np.zeros(2)
        total_dep = np.zeros(2)
        for _ in range(200):
            state = sample_channel(gen, cfg)
            arr = sample_arrivals(gen, cfg)
            served = int(gen.integers(2))
            q, dep = step_queues(q, arr, served, state, cfg)
            assert np.all(q >= 0)
            total_arr += arr
            total_dep[served] += dep
        assert np.array_equal(q, total_arr - total_dep)


# a consistent window of 10 one-state slots: 1 queued, 7 in, 5 out, 3 left
COUNTERS = dict(arrivals=[7.0], departures=[5.0], state_slots=[10], served_slots=[[10]],
                horizon=10, max_queue_seen=3.0, initial_queues=[1.0], final_queues=[3.0])
# one broken set per conservation identity, with the message naming it
BROKEN_COUNTERS = [
    ({"served_slots": [[9]]}, "state_slots must equal served_slots summed over users"),
    ({"horizon": 11}, "state slot counts must total the recorded horizon"),
    ({"departures": [9.0], "final_queues": [-1.0]}, "departures may not exceed arrivals plus the initial backlog"),
    ({"final_queues": [4.0]}, "queue balance identity violated"),
]


def trace_counters(**changes) -> TraceCounters:
    fields = {**COUNTERS, **changes}
    return TraceCounters(**{k: np.asarray(v) if isinstance(v, list) else v for k, v in fields.items()})


class TestTraceCountersValidate:
    def test_consistent_set_accepted(self):
        trace_counters().validate()

    @pytest.mark.parametrize("changes,message", BROKEN_COUNTERS, ids=["served", "horizon", "departures", "balance"])
    def test_broken_set_rejected(self, changes, message):
        with pytest.raises(ValueError, match=message):
            trace_counters(**changes).validate()

    def test_checks_survive_optimized_python(self):
        """python -O strips assert statements: validate must still reject
        every broken set there."""
        script = (
            "from test_model import BROKEN_COUNTERS, trace_counters\n"
            "assert False, 'run without -O'\n"
            "for changes, _ in BROKEN_COUNTERS:\n"
            "    try:\n"
            "        trace_counters(**changes).validate()\n"
            "    except ValueError as exc:\n"
            "        print(exc)\n"
        )
        tests = Path(__file__).resolve().parent
        path = [str(tests.parent / "src"), str(tests), os.environ.get("PYTHONPATH")]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)))
        proc = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True,
                              text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines() == [message for _, message in BROKEN_COUNTERS]
