import json
import os
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from schedlab import (
    Heterogeneous,
    Policy,
    SimSpec,
    SystemConfig,
    TraceCounters,
    config_from_json,
)
from conftest import make_config, run_replication
from slot_replay import bitwise_equal, replay_runs


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


    @pytest.mark.parametrize("field, value", [
        ("n_users", 4.0), ("n_users", True), ("n_users", "4"), ("n_states", 3.0), ("n_states", np.float64(3)),
    ])
    def test_counts_must_be_integers(self, ref_cfg, field, value):
        """A float count would run to a numpy TypeError inside the kernel
        call; a bool is no count either."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            replace(ref_cfg, **{field: value})

    def test_numpy_integer_counts_accepted(self, ref_cfg):
        cfg = replace(ref_cfg, n_users=np.int64(4), n_states=np.int32(3))
        assert cfg.n_users == 4 and cfg.n_states == 3

    def test_json_counts_are_not_truncated(self, ref_cfg_path):
        """config_from_json used to turn 4.7 users into 4."""
        doc = json.loads(ref_cfg_path.read_text())
        with pytest.raises(ValueError, match=r"^n_users must be an integer, got 4\.7$"):
            config_from_json({**doc, "n_users": 4.7})
        with pytest.raises(ValueError, match=r"^n_states must be an integer, got 3\.0$"):
            config_from_json({**doc, "n_states": 3.0})


class TestSlotLaw:
    """The channel law and the queue update, seen on runs of the kernel,
    which draws and updates every slot."""

    def test_channel_law_of_large_numbers(self, ref_cfg):
        spec = SimSpec(horizon=1_000_000, burn_in=0, master_seed=7)
        counters = run_replication(ref_cfg, Policy(Heterogeneous(q_th=2.0)), spec, 0).counters
        freq = counters.state_slots / counters.horizon
        assert np.all(np.abs(freq - ref_cfg.state_probs) < 0.005)

    def test_truncation_at_zero(self):
        """The served user departs min(backlog + arrivals, rate): where that
        is under the rate it departs all of it and its queue is exactly 0,
        and no queue goes below 0, on the run replayed from numpy's draws
        and its choices; the kernel's departures and final queues are the
        replay's, bitwise."""
        cfg = make_config([[0.0], [5.0]], [0.25, 0.75], [1.5], arrival_model="fluid")
        policy = Policy(Heterogeneous(q_th=2.0))
        spec = SimSpec(horizon=2000, burn_in=0, master_seed=3, record_trace=True)
        out = run_replication(cfg, policy, spec, 0)
        (rp,) = replay_runs(cfg, [(policy, spec, out)])
        backlog = rp.before[:, 0] + rp.arrivals[:, 0]
        rate = cfg.rate_matrix[rp.state, 0]
        short = backlog < rate
        assert short.sum() > 100 and (~short).sum() > 100
        assert np.array_equal(rp.departure[short], backlog[short])
        assert np.all(rp.after[short, 0] == 0.0)
        assert np.array_equal(rp.departure[~short], rate[~short])
        assert np.all(rp.after >= 0.0)
        assert bitwise_equal(out.counters.departures, np.cumsum(rp.departure)[-1:])
        assert bitwise_equal(out.counters.final_queues, rp.after[-1])


# a consistent window of 10 one-state slots: 1 queued, 7 in, 5 out, 3 left
COUNTERS = dict(arrivals=[7.0], departures=[5.0], served_slots=[[10]], max_queue_seen=3.0,
                initial_queues=[1.0], final_queues=[3.0])
# one broken set per queue balance identity, with the message naming it
BROKEN_COUNTERS = [
    ({"departures": [9.0], "final_queues": [-1.0]}, "departures may not exceed arrivals plus the initial backlog"),
    ({"final_queues": [4.0]}, "queue balance identity violated"),
]


def trace_counters(**changes) -> TraceCounters:
    fields = {**COUNTERS, **changes}
    return TraceCounters(**{k: np.asarray(v) if isinstance(v, list) else v for k, v in fields.items()})


class TestTraceCountersValidate:
    def test_consistent_set_accepted(self):
        trace_counters().validate()

    @pytest.mark.parametrize("changes,message", BROKEN_COUNTERS, ids=["departures", "balance"])
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
