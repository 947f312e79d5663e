import ctypes
import json
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import time
from dataclasses import fields, replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from schedlab import (
    Exp,
    Heterogeneous,
    MaxWeight,
    Policy,
    SimSpec,
    TraceCounters,
    decision_regions,
    empirical_phi,
    estimate_overflow,
    fit_decay_rate,
    run_replications,
    run_simulation,
    select,
)
import schedlab.cli as cli
from schedlab import simulator
from schedlab.model import POISSON_LAM_MAX, RandomSource, SystemConfig, channel_cdf, config_from_json
from schedlab.errors import ComputationError
from schedlab.schedulers import rate_table, stable_scores, tied_mask
from schedlab.simulator import (
    ESTIMATOR_EPISODE,
    OverflowEstimate,
    ReplicationOutput,
    aggregate_counters,
)
from conftest import REFERENCE_CONFIG, make_config, run_replication
from slot_replay import (
    CHUNK,
    KERNEL,
    STREAM_LEN,
    assert_reduces_to,
    assert_replays,
    bitwise_equal,
    exact_in_floats,
    numpys_draws,
    queue_lindley,
    queue_loop,
    rule_choices,
    source_generator,
)

HET2 = Policy(Heterogeneous(q_th=2.0))


def synthetic_output(slot_counts, n_slots, thresholds):
    n = len(thresholds)
    zeros = np.zeros(2)
    counters = TraceCounters(
        arrivals=zeros.copy(),
        departures=zeros.copy(),
        served_slots=np.array([[n_slots, 0]]),
        max_queue_seen=0.0,
        initial_queues=zeros.copy(),
        final_queues=zeros.copy(),
    )
    return ReplicationOutput(
        rep_index=0,
        counters=counters,
        thresholds=np.asarray(thresholds, dtype=float),
        overflow_slot_counts=np.asarray(slot_counts),
        mean_queues=zeros.copy(),
        trace=None,
    )


class TestSimSpec:
    def test_burn_in_default_is_tenth(self):
        spec = SimSpec(horizon=1000)
        from schedlab.simulator import resolved_burn_in

        assert resolved_burn_in(spec) == 100

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            SimSpec(horizon=100, burn_in=100)
        with pytest.raises(ValueError):
            SimSpec(horizon=100, thresholds=(5.0, 5.0))
        with pytest.raises(ValueError):
            SimSpec(horizon=0)
        with pytest.raises(ValueError, match="finite"):
            SimSpec(horizon=100, thresholds=(5.0, np.nan))
        with pytest.raises(ValueError, match="finite"):
            SimSpec(horizon=100, thresholds=(5.0, np.inf))
        with pytest.raises(ValueError, match="empty"):
            SimSpec(horizon=100, thresholds=())

    @pytest.mark.parametrize("field, value", [
        ("horizon", 100.0), ("horizon", True), ("replications", 2.0), ("burn_in", 10.5),
        ("master_seed", 1.5), ("master_seed", False),
    ])
    def test_counts_must_be_integers(self, field, value):
        """A float burn-in used to die in ctypes with an ArgumentError, and a
        float seed was accepted."""
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got "):
            SimSpec(**{"horizon": 100, field: value})

    def test_negative_seed_rejected(self):
        """numpy's SeedSequence takes no negative seed: refused when the spec
        is built, with a message naming the field."""
        with pytest.raises(ValueError, match=r"^master_seed must be >= 0, got -5$"):
            SimSpec(horizon=100, master_seed=-5)
        with pytest.raises(ValueError, match=r"^master_seed must be >= 0, got -1$"):
            replace(SimSpec(horizon=100), master_seed=-1)

    def test_horizon_beyond_the_kernels_slot_counter_rejected(self):
        """The kernel steps an int64 slot counter by CHUNK slots: a horizon of
        2**64 + 1000 used to reach it as 1000 slots and end in a
        ZeroDivisionError, and 10**20 as 7.77e18 slots with a negative burn-in."""
        assert simulator.MAX_HORIZON <= 2**63 - 1 - CHUNK
        assert SimSpec(horizon=simulator.MAX_HORIZON).horizon == 10**18
        for horizon in (10**18 + 1, 2**63 - 1, 2**64 + 1000, 10**20, np.uint64(2**64 - 1)):
            with pytest.raises(ValueError, match=rf"^horizon must be <= 1e\+18 slots, got {horizon}$"):
                SimSpec(horizon=horizon)

    def test_numpy_integer_counts_accepted(self):
        spec = SimSpec(horizon=np.int64(100), replications=np.int32(2), burn_in=np.int64(5),
                       master_seed=np.uint32(7))
        assert simulator.resolved_burn_in(spec) == 5

    def test_thresholds_are_kept_as_checked(self, ref_cfg):
        """The spec keeps the thresholds as a tuple of floats, not the
        sequence it was given: a later write to that list used to reach the
        kernel unchecked (here descending thresholds, which the kernel's
        count of thresholds reached reads as ascending), and the spec could
        not be hashed."""
        th = [5, 10.0, np.float64(20.0)]
        spec = SimSpec(horizon=3000, master_seed=2, thresholds=th)
        th[:] = [20.0, 5.0, 10.0]
        assert spec.thresholds == (5.0, 10.0, 20.0)
        assert all(type(b) is float for b in spec.thresholds)
        checked = SimSpec(horizon=3000, master_seed=2, thresholds=(5.0, 10.0, 20.0))
        assert spec == checked and hash(spec) == hash(checked)
        counts = run_replication(ref_cfg, HET2, spec, 0).overflow_slot_counts
        assert bitwise_equal(counts, run_replication(ref_cfg, HET2, checked, 0).overflow_slot_counts)
        assert counts[0] > counts[2]

    def test_numpy_bool_record_trace_runs(self, ref_cfg):
        """np.True_ and np.False_ are bools to the spec, and the kernel call
        takes them, where np.True_ used to fail there as a ctypes
        ArgumentError."""
        traced = run_replication(ref_cfg, HET2, SimSpec(horizon=100, record_trace=np.True_), 0)
        untraced = run_replication(ref_cfg, HET2, SimSpec(horizon=100, record_trace=np.False_), 0)
        assert traced.trace.shape == (100,) and traced.trace.dtype == np.int64 and untraced.trace is None
        assert bitwise_equal(traced.counters.served_slots, untraced.counters.served_slots)

    def test_misspelt_estimator_fails_before_the_kernel(self, monkeypatch, ref_cfg):
        """A spec with an unknown estimator is refused when built, so no
        campaign starts; run_simulation takes the estimator from the spec."""
        calls = []
        monkeypatch.setattr(simulator, "_slot_kernel", lambda *args: calls.append(args))
        message = r"^estimator must be one of \('stationary', 'episode'\), got 'epsiode'$"
        with pytest.raises(ValueError, match=message):
            run_simulation(ref_cfg, [HET2], SimSpec(horizon=100, estimator="epsiode"))
        with pytest.raises(ValueError, match=message):
            replace(SimSpec(horizon=100), estimator="epsiode")
        assert calls == []
        monkeypatch.undo()
        spec = SimSpec(horizon=2000, replications=3, master_seed=1, estimator=ESTIMATOR_EPISODE)
        (res,) = run_simulation(ref_cfg, [HET2], spec)
        assert [e.n_samples for e in res.overflow] == [3] * len(spec.thresholds)


class TestBuiltObjectsAreChecked:
    """A config, rule, policy or spec checks itself whenever it is built,
    dataclasses.replace included, so no run starts from a bad one: a 2 x 4
    rate_matrix on a 3-state config would have the kernel read state 2's
    rates past the end of the array."""

    @pytest.mark.parametrize("build, message", [
        (lambda cfg: replace(cfg, rate_matrix=np.ones((2, 4))),
         r"^rate_matrix has shape \(2, 4\), expected \(3, 4\)$"),
        (lambda cfg: replace(cfg, state_probs=np.array([0.5, 0.6, -0.1])),
         "^state_probs entries must be >= 0$"),
        (lambda cfg: replace(Heterogeneous(q_th=2.0), q_th=0.0), "^q_th must be > 0, got 0.0$"),
        (lambda cfg: replace(Policy(Heterogeneous(q_th=2.0)), tie_break="coin_flip"),
         r"^tie_break must be one of \('lowest_index', 'uniform_random'\)$"),
        (lambda cfg: replace(SimSpec(horizon=100), burn_in=100), r"^burn_in must lie in \[0, horizon\)$"),
        # a record_trace that is no bool used to reach the kernel call, and
        # fail there as a ctypes ArgumentError, or run as 2 did
        (lambda cfg: replace(SimSpec(horizon=10), record_trace="yes"), "^record_trace must be a bool, got 'yes'$"),
        (lambda cfg: replace(SimSpec(horizon=10), record_trace=None), "^record_trace must be a bool, got None$"),
        (lambda cfg: SimSpec(horizon=10, record_trace=0.5), "^record_trace must be a bool, got 0.5$"),
        (lambda cfg: SimSpec(horizon=10, record_trace=2), "^record_trace must be a bool, got 2$"),
    ], ids=["rate_matrix", "state_probs", "q_th", "tie_break", "burn_in", "record_trace_str", "record_trace_none",
            "record_trace_float", "record_trace_int"])
    def test_replace_is_checked(self, ref_cfg, build, message):
        with pytest.raises(ValueError, match=message):
            build(ref_cfg)

    def test_unknown_variant_is_a_type_error(self):
        with pytest.raises(TypeError, match="^unknown policy variant str$"):
            Policy("het")


class TestRunReplication:
    def test_service_dominates_fluid_arrivals(self):
        cfg = make_config([[5.0]], [1.0], [1.0], arrival_model="fluid")
        spec = SimSpec(horizon=5000, thresholds=(1.0, 2.0), master_seed=1)
        out = run_replication(cfg, HET2, spec, 0)
        assert out.counters.max_queue_seen == 0.0
        assert not out.overflow_slot_counts.any()

    def test_reference_system_stays_stable(self, ref_cfg):
        spec = SimSpec(horizon=100_000, master_seed=3)
        out = run_replication(cfg=ref_cfg, policy=HET2, spec=spec, rep_index=0)
        assert np.all(out.mean_queues < 100.0)
        out.counters.validate()

    def test_deterministic_given_seed_and_index(self, ref_cfg):
        spec = SimSpec(horizon=40_000, master_seed=9)
        a = run_replication(ref_cfg, HET2, spec, 4)
        b = run_replication(ref_cfg, HET2, spec, 4)
        assert np.array_equal(a.counters.arrivals, b.counters.arrivals)
        assert np.array_equal(a.counters.served_slots, b.counters.served_slots)
        assert np.array_equal(a.overflow_slot_counts, b.overflow_slot_counts)
        assert np.array_equal(a.counters.final_queues, b.counters.final_queues)

    @pytest.mark.parametrize("rep_indices, message", [
        ([], r"^run_replications needs at least one replication index$"),
        ([0, -1], r"^rep_indices entries must be >= 0, got -1$"),
        ([1.5], r"^rep_indices entry must be an integer, got 1\.5$"),
    ], ids=["empty", "negative", "non_integer"])
    def test_bad_rep_indices_rejected_before_the_kernel(self, monkeypatch, ref_cfg, rep_indices, message):
        calls = []
        monkeypatch.setattr(simulator, "_slot_kernel", lambda *args: calls.append(args))
        allow_slices(monkeypatch, 3, threads=False)
        with pytest.raises(ValueError, match=message):
            run_replications(ref_cfg, [HET2], SimSpec(horizon=100), rep_indices)
        assert calls == []

    def test_uniform_tie_break_reproducible(self, ref_cfg):
        policy = Policy(Heterogeneous(q_th=2.0), tie_break="uniform_random")
        spec = SimSpec(horizon=20_000, master_seed=5)
        a = run_replication(ref_cfg, policy, spec, 0)
        b = run_replication(ref_cfg, policy, spec, 0)
        assert np.array_equal(a.counters.served_slots, b.counters.served_slots)

    @given(seed=st.integers(0, 10**6))
    @settings(max_examples=10, deadline=None)
    def test_conservation_identities(self, seed, ref_cfg):
        spec = SimSpec(horizon=4096, master_seed=seed)
        for policy in (HET2, Policy(Exp(eta=0.5)), Policy(MaxWeight(alpha=2.0))):
            out = run_replication(ref_cfg, policy, spec, 0)
            c = out.counters
            assert c.horizon == spec.horizon - simulator.resolved_burn_in(spec)
            balance = c.final_queues - c.initial_queues - c.arrivals + c.departures
            assert np.all(balance == 0.0)


class TestEstimateOverflow:
    def test_no_outputs_raises(self):
        with pytest.raises(ValueError, match="no replication outputs"):
            estimate_overflow([])

    def test_every_slot_overflows(self):
        out = synthetic_output([100], 100, [1.0])
        (est,) = estimate_overflow([out])
        assert est.probability == 1.0
        assert est.ci_high == 1.0

    def test_zero_events_upper_bound_positive(self):
        out = synthetic_output([0], 1000, [5.0])
        (est,) = estimate_overflow([out])
        assert est.probability == 0.0
        assert est.ci_low == 0.0
        assert est.ci_high > 0.0

    def test_known_fraction(self):
        out = synthetic_output([2500], 10_000, [3.0])
        (est,) = estimate_overflow([out])
        assert est.probability == 0.25
        assert est.ci_low < 0.25 < est.ci_high
        assert est.ci_high - est.ci_low < 0.04

    def test_episode_mode(self):
        hits = [synthetic_output([1], 100, [2.0]) for _ in range(3)]
        miss = [synthetic_output([0], 100, [2.0]) for _ in range(1)]
        (est,) = estimate_overflow(hits + miss, mode=ESTIMATOR_EPISODE)
        assert est.probability == 0.75
        assert est.n_samples == 4


class TestFitDecayRate:
    def test_exact_exponential(self):
        bs = np.arange(5.0, 41.0, 5.0)
        ests = [
            OverflowEstimate(b, math.exp(-0.5 * b), 0, 1, 1000, 10_000) for b in bs
        ]
        fit = fit_decay_rate(ests)
        assert fit.rate == pytest.approx(0.5, abs=1e-12)
        assert fit.stderr == pytest.approx(0.0, abs=1e-12)

    def test_flat_probability(self):
        ests = [OverflowEstimate(b, 0.3, 0, 1, 100, 1000) for b in (5.0, 10.0, 15.0)]
        assert fit_decay_rate(ests).rate == pytest.approx(0.0, abs=1e-12)

    def test_two_point_slope(self):
        ests = [
            OverflowEstimate(10.0, 1e-2, 0, 1, 100, 10_000),
            OverflowEstimate(20.0, 1e-4, 0, 1, 100, 10_000),
        ]
        fit = fit_decay_rate(ests)
        assert fit.rate == pytest.approx(math.log(100) / 10, rel=1e-12)
        assert fit.n_used == 2

    def test_insufficient_events(self):
        ests = [
            OverflowEstimate(10.0, 1e-2, 0, 1, 4, 10_000),
            OverflowEstimate(20.0, 1e-4, 0, 1, 100, 10_000),
        ]
        assert fit_decay_rate(ests) is None


class TestServiceShares:
    def test_simple_fraction(self):
        counters = TraceCounters(
            arrivals=np.zeros(2),
            departures=np.zeros(2),
            served_slots=np.array([[0, 0], [50, 50]]),
            max_queue_seen=0.0,
            initial_queues=np.zeros(2),
            final_queues=np.zeros(2),
        )
        phi = empirical_phi(counters)
        assert phi[1, 0] == 0.5
        assert np.array_equal(counters.state_slots, [0, 100]) and counters.horizon == 100
        assert np.all(np.isnan(phi[0]))

    def test_observed_rows_stochastic(self, ref_cfg):
        out = run_replication(ref_cfg, HET2, SimSpec(horizon=30_000, master_seed=1), 0)
        phi = empirical_phi(out.counters)
        sums = phi[out.counters.state_slots > 0].sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)


class TestRunSimulation:
    def test_overflow_monotone_in_threshold(self, ref_cfg):
        spec = SimSpec(horizon=60_000, replications=2, master_seed=8)
        (res,) = run_simulation(ref_cfg, [HET2], spec)
        probs = [e.probability for e in res.overflow]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_split_matches_single_pass(self, ref_cfg):
        """Streams are keyed by (seed, rep_index), so splitting the indices
        over several lockstep passes changes no output bit."""
        spec = SimSpec(horizon=20_000, replications=4, master_seed=4)
        (whole,) = run_replications(ref_cfg, [HET2], spec, [0, 1, 2, 3])
        split = {
            o.rep_index: o
            for group in ([0, 3], [1], [2])
            for o in run_replications(ref_cfg, [HET2], spec, group)[0]
        }
        for a in whole:
            b = split[a.rep_index]
            for f in fields(TraceCounters):
                assert np.array_equal(getattr(a.counters, f.name), getattr(b.counters, f.name))
            assert np.array_equal(a.overflow_slot_counts, b.overflow_slot_counts)
            assert np.array_equal(a.mean_queues, b.mean_queues)

    def test_aggregate_counters_order_independent(self, ref_cfg):
        spec = SimSpec(horizon=10_000, replications=3, master_seed=6)
        (outs,) = run_replications(ref_cfg, [HET2], spec, [0, 1, 2])
        a = aggregate_counters(outs)
        b = aggregate_counters(outs[::-1])
        assert np.array_equal(a.served_slots, b.served_slots)
        assert np.array_equal(a.arrivals, b.arrivals)


STAT_BURNS = [0, None, CHUNK - 1, CHUNK, CHUNK + 1]
STAT_POLICIES = [
    Policy(Heterogeneous(q_th=2.0)),
    Policy(Heterogeneous(q_th=3.0), tie_break="uniform_random"),
    Policy(Exp(eta=0.25)),
    Policy(Exp(eta=0.75), tie_break="uniform_random"),
    Policy(MaxWeight(alpha=7.0)),
    Policy(MaxWeight(alpha=1.0), tie_break="uniform_random"),
]


def stat_config(name):
    """TestKernelStatistics' configs: the reference one with Poisson and
    with fluid arrivals, fluid systems of 1 to 9 users at non-integer rates,
    and one overloaded user whose queue only grows."""
    reference = config_from_json(REFERENCE_CONFIG)
    return {
        "reference": lambda: reference,
        "fluid1": lambda: make_config([[5.0], [2.0]], [0.5, 0.5], [3.1], arrival_model="fluid"),
        "fluid2": lambda: seeded_config(2, 3, "fluid"),
        "fluid4": lambda: replace(reference, arrival_model="fluid"),
        "fluid4_mixed": lambda: replace(reference, arrival_model="fluid",
                                        arrival_rates=np.array([0.7, 0.45, 0.9, 0.35])),
        "fluid9": lambda: seeded_config(9, 4, "fluid"),
        "overloaded": lambda: make_config([[0.5]], [1.0], [1.0], arrival_model="fluid"),
    }[name]()


@pytest.fixture(scope="class")
def stat_replays(request):
    """TestKernelStatistics' config (named by the param), base spec and
    replays by (policy, rep_index): one burn-in-0 traced run per tie-break,
    its policies as lanes, replayed once for all of the config's cases,
    since the burn-in changes only the reduction. Its checks (choices,
    statistics, and departures and queues not all zero) run when it is
    built; pytest keeps one config's replays at a time."""
    cfg = stat_config(request.param)
    base = SimSpec(horizon=2 * CHUNK + 1000, replications=2, master_seed=17,  # three chunks
                   thresholds=(0.5, 2.0, 5.0, 10.0, 20.0))
    traced = replace(base, burn_in=0, record_trace=True)
    runs = [(policy, traced, out) for tie in ("lowest_index", "uniform_random")
            for policy, outputs in zip(stat_group(tie), run_replications(cfg, stat_group(tie), traced, [1, 0]))
            for out in outputs]
    replays = dict(zip(((policy, out.rep_index) for policy, _, out in runs), assert_replays(cfg, runs)))
    for rp in replays.values():
        assert rp.departure.any() and rp.after.any()
    return cfg, base, replays


def stat_group(tie_break):
    """STAT_POLICIES of one tie-break, the lanes of one call."""
    return [p for p in STAT_POLICIES if p.tie_break == tie_break]


class TestKernelStatistics:
    """The kernel's post-burn-in statistics, traced or not, are bitwise the
    left-to-right reduction of the replay of numpy's draws and its choices,
    and every choice is the rule's on the replayed queues; fluid arrivals
    make any other summation order show in the last bits. At every burn-in
    a policy run alone, traced and untraced, is checked against its
    config's one replay of a lanes run."""

    @pytest.mark.parametrize("policy", STAT_POLICIES, ids=lambda p: f"{p.variant!r}-{p.tie_break}")
    @pytest.mark.parametrize("stat_replays", ["reference", "fluid1", "fluid2", "fluid4", "fluid4_mixed", "fluid9",
                                              "overloaded"], indirect=True, scope="class")
    def test_statistics_match_numpy_reduction_of_trace(self, stat_replays, policy):
        cfg, base, replays = stat_replays
        for burn in STAT_BURNS:
            spec = replace(base, burn_in=burn)
            burn = simulator.resolved_burn_in(spec)
            (traced,) = run_replications(cfg, [policy], replace(spec, record_trace=True), [1, 0])
            (untraced,) = run_replications(cfg, [policy], spec, [1, 0])
            for out, plain in zip(traced, untraced):
                rp = replays[policy, out.rep_index]
                assert_reduces_to(out, rp, burn, spec.thresholds, cfg.n_states, burn)
                assert bitwise_equal(out.trace, rp.chosen)
                assert_same_outputs(plain, replace(out, trace=None), burn)


def draws_config(n_states, lam, arrival_model="poisson", probs=None):
    """A system whose Poisson rates may be 0, which construction refuses: the
    rates are set on a valid config afterwards, so that the draw tests reach
    the kernel's lam == 0 branch, which mirrors numpy's sampler."""
    probs = np.full(n_states, 1.0 / n_states) if probs is None else np.asarray(probs, dtype=float)
    rates = np.arange(1.0, n_states * len(lam) + 1).reshape(n_states, len(lam)) % 7
    cfg = SystemConfig(n_users=len(lam), n_states=n_states, state_probs=probs, rate_matrix=rates,
                       arrival_rates=np.ones(len(lam)), arrival_model=arrival_model)
    object.__setattr__(cfg, "arrival_rates", np.asarray(lam, dtype=float))
    return cfg


DRAW_CONFIGS = {
    # every branch of numpy's random_poisson, about its switch at lam = 10;
    # states 0 and 2 have probability 0, so no draw may land in them
    "poisson7": draws_config(4, [0.0, 0.05, 1.0, 9.999, 10.0, 37.5, 1000.0],
                             probs=[0.0, 0.25, 0.0, 0.75]),
    "reference": config_from_json(REFERENCE_CONFIG),
    "fluid": replace(config_from_json(REFERENCE_CONFIG), arrival_model="fluid"),
    "poisson1": draws_config(2, [3.1]),
}


def sfc64_generator(seed, rep):
    """source_generator's stream on SFC64, a bit generator without advance."""
    return np.random.Generator(np.random.SFC64(np.random.SeedSequence((seed, rep))))


def record_generators(monkeypatch, make_generator=source_generator) -> list:
    """Have the simulator's RandomSource make each generator with
    make_generator(master_seed, stream_index) and append it to the returned
    list."""
    made = []

    class Recording(RandomSource):
        def generator(self):
            made.append(make_generator(self.master_seed, self.stream_index))
            return made[-1]

    monkeypatch.setattr(simulator, "RandomSource", Recording)
    return made


def run_kernel(cfg, variant, q, bitgens, horizon, lam, fluid):
    """One call of the compiled kernel: one policy, lowest-index ties, no
    burn-in and its choices recorded, so that every per-policy array is the
    R-row one with a policy axis of 1. Row r starts from the queues q[r]
    (R x N) and draws from the bitgen_t at bitgens[r] horizon slots of cfg's
    channel and arrivals at rates lam (fluid nonzero: lam itself). Returns
    each row's choices (R x horizon) and arrival sums (R x N)."""
    kernel = simulator._slot_kernel(simulator._CC, simulator._NPYRANDOM)
    (R, n), M, T = q.shape, cfg.n_states, horizon
    param = float(getattr(variant, variant.param))
    chosen, arr_sum = np.empty((R, T), dtype=np.int64), np.empty((R, n))
    rec = np.zeros((R, 4 * n + 1))
    rec[:, :n] = q
    assert kernel(1, np.array([variant.code]), np.array([param]), rate_table(variant, cfg),
                  0, fluid, R, 0, R, T, 0, n, M, bitgens, channel_cdf(cfg), np.asarray(lam, dtype=float),
                  cfg.rate_matrix, np.empty(0), 0, rec, np.zeros((R, M * n + 1), dtype=np.int64),
                  arr_sum, 1, chosen) == 0
    return chosen, arr_sum


NEXT_DOUBLE = ctypes.CFUNCTYPE(ctypes.c_double, ctypes.c_void_p)


class ScriptedBitGen(ctypes.Structure):
    """numpy's bitgen_t (numpy/random/bitgen.h) whose next_double returns
    the given uniforms in turn and then 0.0; its other entries are null."""

    _fields_ = [("state", ctypes.c_void_p), ("next_uint64", ctypes.c_void_p),
                ("next_uint32", ctypes.c_void_p), ("next_double", NEXT_DOUBLE),
                ("next_raw", ctypes.c_void_p)]

    def __init__(self, uniforms):
        stream = iter(uniforms)
        super().__init__(next_double=NEXT_DOUBLE(lambda _: next(stream, 0.0)))


def poisson_mult(uniforms, enlam):
    """numpy's random_poisson_mult on enlam = exp(-lam), reading from the
    iterator uniforms."""
    x, prod = 0, 1.0
    while True:
        prod *= next(uniforms)
        if prod > enlam:
            x += 1
        else:
            return x


class TestKernelDraws:
    """The kernel draws what numpy's own calls draw on a fresh
    RandomSource, chunk by chunk, bitwise: each traced run, with burn-in 0 so
    that every slot's draws reach its statistics, replays from numpy's
    draws with its choices the rule's and its statistics the replay's,
    bitwise. A numpy upgrade that moved a draw would show here."""

    @pytest.mark.parametrize("tie_break", ["lowest_index", "uniform_random"])
    @pytest.mark.parametrize("cfg_name", list(DRAW_CONFIGS))
    def test_draws_equal_numpys_samplers(self, monkeypatch, cfg_name, tie_break):
        cfg = DRAW_CONFIGS[cfg_name]
        policy = Policy(MaxWeight(alpha=2.0), tie_break=tie_break)
        made = record_generators(monkeypatch)
        runs = []
        for horizon, reps in ((2 * CHUNK + 4465, [0]), (70_001, [4, 1, 2]), (5, [3, 0, 1])):
            made.clear()
            spec = SimSpec(horizon=horizon, burn_in=0, master_seed=21, record_trace=True)
            (outputs,) = run_replications(cfg, [policy], spec, reps)
            assert len(made) == len(reps)
            runs += [(policy, spec, out) for out in outputs]
            if cfg_name == "poisson7":
                assert not any(o.counters.state_slots[[0, 2]].any() for o in outputs)
        assert_replays(cfg, runs)

    def test_any_bit_generator_draws_numpys_values(self, monkeypatch):
        """The kernel reads a replication's generator through its
        next_double alone, so another bit generator draws numpy's values
        too: on SFC64, which has no advance, a traced uniform-tie het
        campaign of two rows replays from what numpy's own calls on a fresh
        SFC64 generator draw, bitwise."""
        made = record_generators(monkeypatch, sfc64_generator)
        cfg = DRAW_CONFIGS["reference"]
        policy = Policy(Heterogeneous(q_th=2.0), tie_break="uniform_random")
        spec = SimSpec(horizon=70_001, burn_in=0, master_seed=21, record_trace=True)
        (outputs,) = run_replications(cfg, [policy], spec, [0, 1])
        assert [type(g.bit_generator) for g in made] == [np.random.SFC64] * 2
        assert_replays(cfg, [(policy, spec, out) for out in outputs], sfc64_generator)

    @pytest.mark.parametrize("tie_break", ["lowest_index", "uniform_random"])
    @pytest.mark.parametrize("cfg_name", ["poisson7", "reference", "fluid"])
    def test_rows_ending_about_the_first_refill_draw_numpys_values(self, monkeypatch, cfg_name, tie_break):
        """Rows that read less than one buffer (horizon 5), and rows whose
        draws end just before, at and just after the buffer's first refill,
        each beside a second row with its own generator, replay from numpy's
        values, and the same run untraced reports the traced run's
        statistics bitwise."""
        cfg = DRAW_CONFIGS[cfg_name]
        policy = Policy(MaxWeight(alpha=2.0), tie_break=tie_break)

        def consumed(rep, horizon):
            """How many uniforms numpy's own calls read for horizon slots."""
            made = []
            numpys_draws(cfg, 21, rep, horizon, tie_break,
                         lambda seed, rep: made.append(source_generator(seed, rep)) or made[-1])
            probe, n = source_generator(21, rep), 0
            while probe.bit_generator.state != made[0].bit_generator.state:
                probe.random()
                n += 1
            return n

        runs = [(5, [3, 0, 1])]
        for rep in (3, 0):
            lo, hi = 1, STREAM_LEN + 1  # consumed(lo) <= STREAM_LEN < consumed(hi)
            while hi - lo > 1:
                mid = (lo + hi) // 2
                lo, hi = (mid, hi) if consumed(rep, mid) <= STREAM_LEN else (lo, mid)
            assert consumed(rep, lo) <= STREAM_LEN < consumed(rep, lo + 1)
            runs += [(horizon, [rep, 1]) for horizon in (lo - 1, lo, lo + 1)]
        replayed = []
        for horizon, reps in runs:
            base = SimSpec(horizon=horizon, burn_in=0, master_seed=21)
            (traced,) = run_replications(cfg, [policy], replace(base, record_trace=True), reps)
            (untraced,) = run_replications(cfg, [policy], base, reps)
            for out, plain in zip(traced, untraced):
                assert_same_outputs(plain, replace(out, trace=None), horizon)
            replayed += [(policy, replace(base, record_trace=True), out) for out in traced]
        assert_replays(cfg, replayed)

    def test_replays_lindley_form_is_its_slot_loop_bitwise(self):
        """The replay's Lindley form, which it takes on integer inputs, gives
        the slot loop's queues and departures bit for bit, signed zeros
        included: numpy's Poisson draws of poisson7 (rates 0 to 1000, states
        of rate 0) and of the reference config, three rows of 20 000 slots
        each, served at random. On fluid arrivals of 0.7, 0.45, 0.9 and 0.35
        the two forms differ, and exact_in_floats refuses the Lindley form."""
        rng = np.random.default_rng(0)
        fluid = replace(DRAW_CONFIGS["fluid"], arrival_rates=np.array([0.7, 0.45, 0.9, 0.35]))
        R, T = 3, 20_000
        for cfg in (DRAW_CONFIGS["poisson7"], DRAW_CONFIGS["reference"], fluid):
            N = cfg.n_users
            draws = [numpys_draws(cfg, 21, rep, T, "lowest_index") for rep in range(R)]
            chosen = rng.integers(0, N, (T, R))
            arrivals = np.stack([d["arrivals"] for d in draws], axis=1).reshape(T, R * N)
            rate = np.stack([cfg.rate_matrix[d["state"], chosen[:, r]] for r, d in enumerate(draws)], axis=1)
            served = chosen + np.arange(R) * N
            (q, dep), (q_lindley, dep_lindley) = (form(arrivals, served, rate) for form in (queue_loop, queue_lindley))
            assert (q[1:] == 0).any() and (dep == 0).any() and (dep > 0).any()
            exact = bitwise_equal(q, q_lindley) and bitwise_equal(dep, dep_lindley)
            assert exact == exact_in_floats(arrivals, rate) == (cfg is not fluid), cfg

    def test_short_poisson_path_counts_as_numpys_loop(self):
        """Below lam = 10 the kernel counts the first four running products
        at once and continues numpy's loop from the fourth. Scripted uniforms
        put a product exactly on exp(-lam), which ends a variate, and just
        above it, at each of the first five products and beyond: each case
        alone, drawn in one slot, is numpy's count, and so is every sum of
        the first H of 1000 such variates, at horizons H whose draws cross
        up to several of the buffer's refills."""
        lam = 3.0
        e = math.exp(-lam)
        cases = [
            ([e], 0),
            ([np.nextafter(e, 1.0), 0.0], 1),
            ([0.5, 2 * e], 1),
            ([0.5, 0.5, 4 * e], 2),
            ([0.5, 0.5, 0.5, 8 * e], 3),
            ([0.5, 0.5, 0.5, 0.5, 16 * e], 4),
            ([0.5, 0.5, 0.5, np.nextafter(8 * e, 1.0), 0.0], 4),
            ([0.99] * 4 + [0.01], 4),
            ([0.9] * 10 + [0.0], 10),
        ]
        cfg = make_config([[1.0]], [1.0], [lam])

        def arrivals(horizon, variates):
            """The kernel's arrival sum over horizon slots whose one channel
            uniform each comes first, then the uniforms of variates."""
            bitgen = ScriptedBitGen([0.5] * horizon + [u for uniforms in variates for u in uniforms])
            bitgens = np.array([ctypes.addressof(bitgen)], dtype=np.uintp)
            _, arr_sum = run_kernel(cfg, Heterogeneous(q_th=2.0), np.zeros((1, 1)), bitgens, horizon,
                                    [lam], 0)
            return arr_sum[0, 0]

        for uniforms, count in cases:
            assert poisson_mult(iter(uniforms), e) == count, uniforms
            assert arrivals(1, [uniforms]) == count, uniforms
        T = 1000
        picks = np.random.default_rng(5).integers(0, len(cases), T)
        stream = iter([u for k in picks for u in cases[k][0]])
        counts = [poisson_mult(stream, e) for _ in range(T)]
        assert counts == [cases[k][1] for k in picks]
        assert T + sum(len(cases[k][0]) for k in picks) > 3 * STREAM_LEN
        for horizon in (2, 3, 250, 499, 500, 998, 999, T):
            assert arrivals(horizon, [cases[k][0] for k in picks[:horizon]]) == sum(counts[:horizon]), horizon

    def test_poisson_rate_beyond_numpys_bound_rejected(self, ref_cfg, ref_cfg_fluid):
        """Above numpy's Poisson bound the config is refused when built, with
        an error naming the user and the bound, so no run reaches the kernel;
        at the bound it runs, and fluid arrivals take any finite rate. A
        negative or NaN rate is refused when the config is built too."""
        rng = np.random.default_rng(0)
        rng.poisson(POISSON_LAM_MAX)
        with pytest.raises(ValueError, match="lam value too large"):
            rng.poisson(np.nextafter(POISSON_LAM_MAX, np.inf))
        spec = SimSpec(horizon=3, burn_in=0)
        lam = ref_cfg.arrival_rates.copy()
        beyond = r"user 2's .*" + re.escape(repr(POISSON_LAM_MAX))
        for bad, message in ((1e19, beyond), (np.nextafter(POISSON_LAM_MAX, np.inf), beyond),
                             (-1.0, "^arrival_rates entries must be > 0$"),
                             (np.nan, r"^arrival_rates entries must be finite, got \[1.0, 1.0, nan, 1.0\]$")):
            lam[2] = bad
            with pytest.raises(ValueError, match=message):
                run_replication(replace(ref_cfg, arrival_rates=lam.copy()), HET2, spec, 0)
        lam[2] = POISSON_LAM_MAX
        out = run_replication(replace(ref_cfg, arrival_rates=lam.copy()), HET2, spec, 0)
        assert out.counters.arrivals[2] > 1e18
        fluid_cfg = replace(ref_cfg_fluid, arrival_rates=np.full(4, 1e19))
        fluid = run_replication(fluid_cfg, HET2, spec, 0)
        assert np.array_equal(fluid.counters.arrivals, np.full(4, 3e19))
        with pytest.raises(ValueError, match=r"^user 0's .*" + re.escape(repr(POISSON_LAM_MAX))):
            replace(fluid_cfg, arrival_model="poisson")


SHARED_POLICIES = (Heterogeneous(q_th=2.0), Exp(eta=0.25), MaxWeight(alpha=7.0))
# twelve lanes of every rule in one call
WIDE_POLICIES = (
    *(Heterogeneous(q_th=q) for q in (0.5, 1.0, 2.0, 5.0, 10.0, 50.0)),
    *(Exp(eta=eta) for eta in (0.1, 0.25, 0.9)),
    *(MaxWeight(alpha=alpha) for alpha in (1.0, 3.0, 7.0)),
)
# 70 users, more than a 64-bit mask holds, at light load: the queues are
# often all empty, which ties all 70 users under mw
SEVENTY_USERS = make_config(np.random.default_rng(70).integers(0, 10, size=(3, 70)), [0.2, 0.5, 0.3],
                            np.full(70, 0.01))


def assert_same_outputs(a, b, where):
    """Two replications' outputs are bitwise equal: counters, overflow
    counts, mean queues and trace (the choices, or None for both)."""
    assert a.rep_index == b.rep_index, where
    for f in fields(TraceCounters):
        assert bitwise_equal(getattr(a.counters, f.name), getattr(b.counters, f.name)), (where, f.name)
    assert bitwise_equal(a.overflow_slot_counts, b.overflow_slot_counts), where
    assert bitwise_equal(a.mean_queues, b.mean_queues), where
    assert (a.trace is None) == (b.trace is None), where
    if a.trace is not None:
        assert bitwise_equal(a.trace, b.trace), where


class TestSharedDraws:
    """One call runs every policy on the same draws: each chunk is drawn once
    and walked slot by slot with the policies as lanes in lockstep, and each
    policy's outputs are bitwise those of running it alone, a lone lane
    picking with the early-exit scan and several lanes with selects."""

    @pytest.mark.parametrize("tie_break", ["lowest_index", "uniform_random"])
    @pytest.mark.parametrize("cfg_name", list(DRAW_CONFIGS))
    def test_each_policy_equals_running_it_alone(self, monkeypatch, cfg_name, tie_break):
        """The first lane's run replays from numpy's draws, bitwise."""
        cfg = DRAW_CONFIGS[cfg_name]
        policies = [Policy(v, tie_break=tie_break) for v in SHARED_POLICIES]
        runs = []
        for horizon, reps in ((2 * CHUNK + 4465, [1, 0]), (5, [3, 0, 1])):
            spec = SimSpec(horizon=horizon, master_seed=21, record_trace=True,
                           thresholds=(0.5, 2.0, 5.0, 10.0, 20.0))
            made = record_generators(monkeypatch)
            shared = run_replications(cfg, policies, spec, reps)
            assert len(made) == len(reps) and len(shared) == len(policies)
            runs += [(policies[0], spec, out) for out in shared[0]]
            monkeypatch.undo()
            for policy, outputs in zip(policies, shared):
                (alone,) = run_replications(cfg, [policy], spec, reps)
                for a, b in zip(outputs, alone):
                    assert_same_outputs(a, b, policy)
        assert_replays(cfg, runs)

    @pytest.mark.parametrize("record_trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("tie_break", ["lowest_index", "uniform_random"])
    @pytest.mark.parametrize("case", ["twelve_policies", "seventy_users"])
    def test_lanes_at_width_equal_each_policy_alone(self, case, tie_break, record_trace):
        """Twelve policies of all three rules in one call, on the reference
        config across a chunk boundary and on 70 users: each policy's
        outputs, traced ones' choices included, are bitwise those of running
        it alone, twelve lanes picking with selects and a lone lane with the
        early-exit scan. The traced 70-user run meets slots on which all 70
        users tie, on mw's queues replayed from numpy's draws."""
        if case == "twelve_policies":
            cfg, horizon = DRAW_CONFIGS["reference"], CHUNK + 4465
        else:
            cfg, horizon = SEVENTY_USERS, 3000
        policies = [Policy(v, tie_break=tie_break) for v in WIDE_POLICIES]
        spec = SimSpec(horizon=horizon, master_seed=21, record_trace=record_trace,
                       thresholds=(0.5, 2.0, 5.0, 10.0, 20.0))
        shared = run_replications(cfg, policies, spec, [1, 0])
        for policy, outputs in zip(policies, shared):
            (alone,) = run_replications(cfg, [policy], spec, [1, 0])
            for a, b in zip(outputs, alone):
                assert_same_outputs(a, b, policy)
        if case == "seventy_users" and record_trace:
            (mw,) = assert_replays(cfg, [(policies[-1], spec, shared[-1][0])])
            assert (mw.before == 0).all(axis=1).sum() > horizon // 10

    def test_mixed_tie_breaks_rejected(self, monkeypatch, ref_cfg):
        """The draws hold tie uniforms only for uniform ties, so the policies
        of one call must share their tie-break. Both refusals come before
        any row slice starts."""
        allow_slices(monkeypatch, 3, threads=False)
        mixed = [HET2, Policy(Exp(eta=0.25), tie_break="uniform_random")]
        spec = SimSpec(horizon=10)
        message = "^policies run on shared draws must share one tie_break, got 'lowest_index' and 'uniform_random'$"
        with pytest.raises(ValueError, match=message):
            run_replications(ref_cfg, mixed, spec, [0, 1, 2])
        with pytest.raises(ValueError, match=message):
            run_simulation(ref_cfg, mixed[::-1], spec)
        with pytest.raises(ValueError, match="^run_replications needs at least one policy$"):
            run_replications(ref_cfg, [], spec, [0, 1, 2])

    @pytest.mark.parametrize("argv", [
        ["compare"],
        ["sweep", "--policy", '{"type": "het", "q_th": 2}', "--values", "1,2"],
    ], ids=["compare", "sweep"])
    def test_compare_and_sweep_make_one_call(self, monkeypatch, ref_cfg_path, tmp_path, argv):
        calls = []
        original = simulator.run_replications

        def counting(cfg, policies, spec, rep_indices):
            calls.append(len(policies))
            return original(cfg, policies, spec, rep_indices)

        monkeypatch.setattr(simulator, "run_replications", counting)
        rc = cli.main([*argv, "--config", str(ref_cfg_path), "--horizon", "2000",
                       "--replications", "2", "--out", str(tmp_path / "out")])
        assert rc == 0
        assert calls == [3 if argv[0] == "compare" else 2]


def refuse_thread(*args, **kwargs):
    raise AssertionError("run_replications started a thread")


def allow_slices(monkeypatch, cpus, threads=True):
    """Have run_replications see cpus usable CPUs; with threads False, any
    thread it starts fails the test."""
    monkeypatch.setattr(simulator, "_usable_cpus", lambda: cpus)
    monkeypatch.setattr(simulator, "threading", threading if threads else SimpleNamespace(Thread=refuse_thread))


def spy_kernel(monkeypatch) -> list:
    """Have each kernel call append its row range (r_lo, r_hi) to the
    returned list."""
    kernel = simulator._slot_kernel(simulator._CC, simulator._NPYRANDOM)
    ranges = []

    def spy(*args):
        ranges.append(args[7:9])
        return kernel(*args)

    monkeypatch.setattr(simulator, "_slot_kernel", lambda cc, npyrandom: spy)
    return ranges


class TestRowSlices:
    """run_replications splits its rows into min(R, usable CPUs) contiguous
    slices, walked concurrently: the outputs and every generator's end state
    are bitwise those of one slice, one slice starts no thread, and a
    slice's exception reaches the caller once every slice has ended."""

    @pytest.mark.parametrize("record_trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("tie_break", ["lowest_index", "uniform_random"])
    @pytest.mark.parametrize("cfg_name", ["reference", "fluid"])
    def test_any_slice_count_equals_one_slice(self, monkeypatch, cfg_name, tie_break, record_trace):
        """Traced runs compare the choices too."""
        cfg = DRAW_CONFIGS[cfg_name]
        policies = [Policy(v, tie_break=tie_break) for v in SHARED_POLICIES]
        spec = SimSpec(horizon=3000, master_seed=21, record_trace=record_trace,
                       thresholds=(0.5, 2.0, 5.0, 10.0, 20.0))
        for reps in ([4, 0, 3, 1, 2], [1, 0], [2]):
            runs = {}
            for cpus in (1, 2, 3):
                S = min(cpus, len(reps))
                allow_slices(monkeypatch, cpus, threads=S > 1)
                ranges = spy_kernel(monkeypatch)
                made = record_generators(monkeypatch)
                runs[cpus] = run_replications(cfg, policies, spec, reps), made
                bounds = [len(reps) * k // S for k in range(S + 1)]
                assert sorted(ranges) == list(zip(bounds, bounds[1:])), (reps, cpus)
            (one, one_gens) = runs[1]
            for cpus in (2, 3):
                sliced, gens = runs[cpus]
                for outputs, alone in zip(sliced, one):
                    for a, b in zip(outputs, alone):
                        assert_same_outputs(a, b, (reps, cpus))
                assert [g.bit_generator.state for g in gens] == [g.bit_generator.state for g in one_gens]
            assert len({tuple(g.random() for g in gens) for _, gens in runs.values()}) == 1

    def test_more_slices_than_cpus_on_a_thrashed_memo(self, monkeypatch, ref_cfg):
        """Four concurrent slices, more than the CPUs of a small host, on
        non-integer queues (fluid arrivals at 0.9, user 0's state-1 rate
        2.5), on which over 40% of exp's and mw's powers miss the pow memo,
        so every slice rewrites its memo all the time: three runs equal one
        slice's, bitwise. Slices that shared one memo could read one slice's
        key beside another's value, which makes these outputs differ."""
        rates = ref_cfg.rate_matrix.copy()
        rates[1, 0] = 2.5
        cfg = replace(ref_cfg, arrival_model="fluid", arrival_rates=np.full(4, 0.9), rate_matrix=rates)
        policies = [Policy(Exp(eta=0.25)), Policy(MaxWeight(alpha=7.0))]
        spec = SimSpec(horizon=200_000, master_seed=3)
        allow_slices(monkeypatch, 1, threads=False)
        one = run_replications(cfg, policies, spec, [0, 1, 2, 3])
        allow_slices(monkeypatch, 4)
        for trial in range(3):
            for outputs, alone in zip(run_replications(cfg, policies, spec, [0, 1, 2, 3]), one):
                for a, b in zip(outputs, alone):
                    assert_same_outputs(a, b, trial)

    @pytest.mark.parametrize("failing", [(1,), (2,), (1, 2), (0, 2)])
    def test_a_failing_slice_raises_once_every_slice_ends(self, monkeypatch, ref_cfg, failing):
        """Three slices of one row each: the failing slices' kernels raise,
        the others end a little later. run_replications raises the first
        failing slice's exception itself, after every slice has ended and
        no thread it started is left."""
        errors = {k: RuntimeError(f"slice {k}") for k in failing}
        ended = []

        def kernel(*args):
            r_lo = args[7]
            if r_lo in errors:
                raise errors[r_lo]
            time.sleep(0.05)
            ended.append(r_lo)

        monkeypatch.setattr(simulator, "_slot_kernel", lambda cc, npyrandom: kernel)
        allow_slices(monkeypatch, 3)
        before = threading.active_count()
        with pytest.raises(RuntimeError) as info:
            run_replications(ref_cfg, [HET2], SimSpec(horizon=100), [0, 1, 2])
        assert info.value is errors[min(failing)]
        assert sorted(ended) == [k for k in range(3) if k not in errors]
        assert threading.active_count() == before


class TestRowGroups:
    """A slice takes its rows in groups of up to GROUP, drawn together, the
    arrivals SUB_BLOCK slots at a time: each row's outputs, choices if traced,
    and generator end state are bitwise those of the row run alone, for every
    group size of one slice and for horizons and burn-ins at, inside and
    across the blocks' and the chunk's edges."""

    @pytest.mark.parametrize("P", [1, 3])
    @pytest.mark.parametrize("record_trace", [False, True], ids=["untraced", "traced"])
    @pytest.mark.parametrize("tie_break", ["lowest_index", "uniform_random"])
    @pytest.mark.parametrize("cfg_name", ["reference", "fluid"])
    def test_each_row_equals_running_it_alone(self, monkeypatch, cfg_name, tie_break, record_trace, P):
        cfg = DRAW_CONFIGS[cfg_name]
        policies = [Policy(v, tie_break=tie_break) for v in SHARED_POLICIES[:P]]
        sub, chunk = KERNEL["SUB_BLOCK"], CHUNK
        assert (sub, chunk) == (1024, 32_768)
        allow_slices(monkeypatch, 1, threads=False)
        made = record_generators(monkeypatch)
        for horizon, burn in ((1, 0), (sub - 1, 0), (sub - 1, 500), (sub + 1, sub), (3001, 1500),
                              (3001, 2 * sub), (chunk + 3, 5000), (chunk + 3, chunk)):
            spec = SimSpec(horizon=horizon, burn_in=burn, master_seed=21, record_trace=record_trace,
                           thresholds=(0.5, 2.0, 5.0, 10.0, 20.0))
            made.clear()
            alone = [run_replications(cfg, policies, spec, [r]) for r in range(9)]
            alone_states = [g.bit_generator.state for g in made]
            for R in range(1, 10):
                made.clear()
                grouped = run_replications(cfg, policies, spec, list(range(R)))
                for p in range(P):
                    for r in range(R):
                        assert_same_outputs(grouped[p][r], alone[r][p][0], (horizon, burn, R, p, r))
                assert [g.bit_generator.state for g in made] == alone_states[:R], (horizon, burn, R)


def random_3user_config():
    rng = np.random.default_rng(2)
    rates = rng.integers(0, 8, size=(3, 3)).astype(float)
    rates[0] = 0.0  # one dead state, which the map must skip
    return make_config(rates, [0.2, 0.5, 0.3], [0.5, 0.5, 0.5])


def region_labels_oracle(cfg, policy, axis_users, fixed_queues, q_values):
    """Per-grid-point reference: the public selector, one call per live state."""
    a, b = axis_users
    live_states = [
        m for m in range(cfg.n_states) if cfg.state_probs[m] > 0 and cfg.rate_matrix[m].max() > 0
    ]
    labels = np.empty((len(q_values), len(q_values)), dtype=object)
    q = np.array(fixed_queues, dtype=float)
    for ia, qa in enumerate(q_values):
        for ib, qb in enumerate(q_values):
            q[a] = qa
            q[b] = qb
            chosen = []
            tie = False
            for m in live_states:
                sel = select(policy, q, m, cfg)
                if len(sel.tied_set) > 1:
                    tie = True
                    break
                chosen.append(sel.chosen)
            if tie:
                labels[ia, ib] = "tie"
            elif all(ch == a for ch in chosen):
                labels[ia, ib] = "always_a"
            elif all(ch == b for ch in chosen):
                labels[ia, ib] = "always_b"
            elif all(ch not in (a, b) for ch in chosen):
                labels[ia, ib] = "other"
            else:
                labels[ia, ib] = "mixed"
    return labels


class TestDecisionRegions:
    def test_dominant_queue_user_wins_everywhere(self, ref_cfg):
        region = decision_regions(ref_cfg, HET2, (0, 2), grid_max=30.0, grid_step=30.0)
        # point (q0=0, q2=30): user 2 wins in both live states (m=2 and m=3)
        assert region.labels[0, 1] == "always_b"

    def test_origin_is_tied(self, ref_cfg):
        region = decision_regions(ref_cfg, HET2, (0, 2), grid_max=10.0, grid_step=5.0)
        assert region.labels[0, 0] == "tie"

    def test_mw_symmetric_boundary_on_diagonal(self):
        cfg = make_config([[2.0, 2.0], [6.0, 6.0]], [0.5, 0.5], [1.0, 1.0])
        region = decision_regions(
            cfg, Policy(MaxWeight(alpha=1.0)), (0, 1), grid_max=10.0, grid_step=1.0
        )
        n = len(region.q_values)
        for ia in range(n):
            for ib in range(n):
                if ia == ib:
                    assert region.labels[ia, ib] == "tie"
                elif ia > ib:
                    assert region.labels[ia, ib] == "always_a"
                else:
                    assert region.labels[ia, ib] == "always_b"

    @pytest.mark.parametrize(
        "fixed", [[0.0, 1.0], [0.0] * 5, [0.0, math.nan, 0.0, 0.0], [0.0, -1.0, 0.0, 0.0]]
    )
    def test_rejects_bad_fixed_queues(self, ref_cfg, fixed):
        with pytest.raises(ValueError, match="fixed_queues"):
            decision_regions(ref_cfg, HET2, (0, 2), fixed_queues=np.array(fixed))

    @pytest.mark.parametrize("cfg_name", ["reference", "random3"])
    @pytest.mark.parametrize("nonzero_fixed", [False, True])
    @pytest.mark.parametrize(
        "variant",
        [
            Heterogeneous(q_th=1.0),
            Heterogeneous(q_th=2.0),
            Heterogeneous(q_th=3.0),
            Heterogeneous(q_th=10.0),
            Exp(eta=0.25),
            MaxWeight(alpha=1.0),
            MaxWeight(alpha=7.0),
        ],
    )
    def test_labels_match_per_point_selector_loop(self, ref_cfg, cfg_name, nonzero_fixed, variant):
        cfg = ref_cfg if cfg_name == "reference" else random_3user_config()
        fixed = np.zeros(cfg.n_users)
        if nonzero_fixed:
            fixed[1] = 3.0
            fixed[-1] += 1.5
        policy = Policy(variant)
        region = decision_regions(
            cfg, policy, (0, 2), fixed_queues=fixed, grid_max=12.0, grid_step=0.5
        )
        expected = region_labels_oracle(cfg, policy, (0, 2), fixed, region.q_values)
        assert region.labels.dtype == object
        assert region.labels.tolist() == expected.tolist()

    def test_rejects_bad_arguments(self, ref_cfg):
        with pytest.raises(ValueError):
            decision_regions(ref_cfg, HET2, (1, 1))
        with pytest.raises(ValueError):
            decision_regions(ref_cfg, HET2, (0, 1), grid_step=0.0)
        with pytest.raises(ValueError):
            decision_regions(ref_cfg, HET2, (0, 1), grid_max=5.0, grid_step=10.0)


def seeded_config(n_users, seed, arrival_model):
    """A random n-user system with integer rates, one dead state and about
    60% of the mean best rate offered as load."""
    rng = np.random.default_rng(seed)
    rates = rng.integers(0, 10, size=(4, n_users)).astype(float)
    rates[0] = 0.0
    probs = np.array([0.1, 0.3, 0.4, 0.2])
    lam = rng.uniform(0.8, 1.2, n_users) * 0.6 * float(probs @ rates.max(axis=1)) / n_users
    return make_config(rates, probs, lam.round(3), arrival_model=arrival_model)


def replay(cfg, policies, seeds, horizon):
    """One traced replication (rep 0, burn-in 0) of each policy under each
    master seed, each slot checked by assert_replays: it serves the user
    the specified rule picks on the queues replayed from numpy's draws.
    Returns the replays, policy by policy."""
    runs = []
    for policy in policies:
        for seed in seeds:
            spec = SimSpec(horizon=horizon, burn_in=0, master_seed=seed, record_trace=True)
            runs.append((policy, spec, run_replication(cfg, policy, spec, 0)))
    return assert_replays(cfg, runs)


def kernel_picks(cfg, variant, rows):
    """The user the compiled kernel serves from each queue row of rows (R x N)
    in one slot of a one-state cfg, with fluid arrivals at rate 0 and
    lowest-index ties, so that no draw matters."""
    # every row draws from its own generator, referenced until the call returns
    gens = [np.random.default_rng(r) for r in range(len(rows))]
    bitgens = np.array([g.bit_generator.ctypes.bit_generator.value for g in gens], dtype=np.uintp)
    chosen, _ = run_kernel(cfg, variant, rows, bitgens, 1, np.zeros(cfg.n_users), 1)
    return chosen[:, 0]


REPLAY_VARIANTS = [
    Heterogeneous(q_th=1.0),
    Heterogeneous(q_th=2.0),
    Heterogeneous(q_th=3.0),
    Heterogeneous(q_th=10.0),
    Exp(eta=0.25),
    Exp(eta=0.75),
    MaxWeight(alpha=1.0),
    MaxWeight(alpha=7.0),
]

# the rules whose scores take a power, which the kernel memoizes per call
POW_VARIANTS = [Exp(eta=0.25), Exp(eta=0.75), MaxWeight(alpha=1.0), MaxWeight(alpha=2.5),
                MaxWeight(alpha=7.0)]

class TestEngineMatchesSpec:
    """The engine serves, slot by slot, the user the specified rule picks on
    queues the tests replay from numpy's draws."""

    @pytest.mark.parametrize("variant", REPLAY_VARIANTS, ids=repr)
    @pytest.mark.parametrize("arrival_model", ["poisson", "fluid"])
    @pytest.mark.parametrize("cfg_name", ["reference", "users9", "users13"])
    def test_replay(self, ref_cfg, ref_cfg_fluid, cfg_name, arrival_model, variant):
        if cfg_name == "reference":
            cfg = ref_cfg if arrival_model == "poisson" else ref_cfg_fluid
        else:
            cfg = seeded_config(int(cfg_name[5:]), 11, arrival_model)
        replay(cfg, [Policy(variant), Policy(variant, tie_break="uniform_random")], (0, 1, 2), 10_000)

    def test_replay_across_chunks(self, ref_cfg_fluid):
        """A two-chunk run: its choices, on the queues carried into the
        second chunk, are the rule's."""
        policy = Policy(Heterogeneous(q_th=3.0), tie_break="uniform_random")
        (rp,) = replay(ref_cfg_fluid, [policy], [0], 33_000)
        assert len(rp.chosen) == 33_000 > CHUNK
        _, tied = rule_choices(ref_cfg_fluid, rp)
        assert (tied[CHUNK:].sum(axis=1) > 1).any()

    @pytest.mark.parametrize("variant", POW_VARIANTS, ids=repr)
    def test_pow_memo_edges(self, variant):
        """The kernel keeps each pow it takes for the rest of the call, keyed
        by the argument's bits. One call's rows, its second half the first
        half reversed so that every argument comes back: repeated integer
        rows, zeros and all-empty rows, non-integer queues, and queues of 1e6
        and 1e15. Each is served as stable_scores and tied_mask pick."""
        cfg = make_config([[3.0, 9.0, 1.0, 5.0]], [1.0], [1.0] * 4)
        rng = np.random.default_rng(7)
        small = rng.integers(0, 6, (300, 4)).astype(float)
        rows = np.concatenate([
            small,
            np.zeros((3, 4)),
            [[0.0, 0.0, 0.0, 1.0], [0.0, 2.0, 0.0, 0.0], [5.0, 0.0, 5.0, 0.0]],
            rng.uniform(0.0, 9.0, (300, 4)),
            small + 0.5,
            small * 1e6,
            small * 1e15,
            [[1e15, 1.0, 0.0, 3.0], [1e6, 1e15, 0.5, 0.0], [1e15, 1e15, 1e6, 1e6]],
        ])
        rows = np.concatenate([rows, rows[::-1]])
        spec_pick = tied_mask(stable_scores(variant, cfg, rows, np.zeros(len(rows), int))).argmax(1)
        assert len(set(spec_pick.tolist())) > 1
        assert np.array_equal(kernel_picks(cfg, variant, rows), spec_pick)

    @pytest.mark.parametrize("variant", POW_VARIANTS, ids=repr)
    def test_replay_past_the_pow_memo(self, ref_cfg, variant):
        """Fluid arrivals at 0.9 and one rate of 2.5 make non-integer queues
        whose pow arguments outnumber the memo's entries within 10 000
        slots, so entries are overwritten and looked up again: every slot
        still serves the user the rule picks."""
        rates = ref_cfg.rate_matrix.copy()
        rates[1, 0] = 2.5
        cfg = replace(ref_cfg, arrival_model="fluid", arrival_rates=np.full(4, 0.9), rate_matrix=rates)
        lowest, _ = replay(cfg, [Policy(variant), Policy(variant, tie_break="uniform_random")], [0], 10_000)
        q = lowest.before
        if isinstance(variant, Exp):
            args = np.cumsum(q, axis=1)[:, -1] / q.shape[1]
        else:
            busy = q[q.max(axis=1) > 0]
            args = busy / busy.max(axis=1, keepdims=True)
        assert len(np.unique(args)) > KERNEL["POW_MEMO"]

    def test_replay_sees_ties(self, ref_cfg_fluid):
        """The gate is not vacuous: fluid het q_th=3 meets multi-user tied sets
        and a uniform draw serves a tied user other than the lowest one."""
        policy = Policy(Heterogeneous(q_th=3.0), tie_break="uniform_random")
        (rp,) = replay(ref_cfg_fluid, [policy], [0], 10_000)
        _, tied = rule_choices(ref_cfg_fluid, rp)
        multi = tied.sum(axis=1) > 1
        assert multi.sum() > 100
        assert (rp.chosen[multi] != tied[multi].argmax(axis=1)).any()

    def test_exp_mean_sums_left_to_right(self):
        """exp's denominator sums the row left to right: on 801 9-user rows
        about a tie, one of whose tie tests flips under numpy's pairwise
        row.mean(), the kernel decides as stable_scores does."""
        n, eta = 9, 0.5
        cfg = make_config([[1.0] * n], [1.0], [1.0] * n)
        rng = np.random.default_rng(3)
        for _ in range(1000):
            q = rng.uniform(0.0, 9.0, n)
            q[1] = q[0] + 1e-12 * (1.0 + q.mean() ** eta)  # user 1 leads by about TIE_TOL
            rows = np.tile(q, (801, 1))
            rows[:, 1] += np.spacing(q[1]) * np.arange(-400, 401)
            spec_pick = tied_mask(stable_scores(Exp(eta), cfg, rows, np.zeros(len(rows), int))).argmax(1)
            pairwise_pick = [tied_mask(row / (1.0 + row.mean() ** eta)).argmax() for row in rows]
            if (spec_pick != pairwise_pick).any():
                break
        else:
            pytest.fail("no row in 1000 draws whose pick depends on the summation order")
        assert np.array_equal(kernel_picks(cfg, Exp(eta), rows), spec_pick)

    def test_mw_power_is_libms(self):
        """mw raises its ratios with libm's pow, as the kernel does. At
        x = 0.6357258022650507 numpy's vectorized x ** 7 can fall one ulp
        below pow(x, 7), and with F = (1, 0.04196515869683302) that ulp
        decides whether user 0 is tied at Q = (x, 1): it is, and user 0 is
        served."""
        x = 0.6357258022650507
        cfg = make_config([[1.0, 0.04196515869683302]], [1.0], [1.0, 1.0])
        policy = Policy(MaxWeight(alpha=7.0))
        rows = np.array([[x, 1.0]])
        assert kernel_picks(cfg, policy.variant, rows).tolist() == [0]
        assert tied_mask(stable_scores(policy.variant, cfg, rows, np.zeros(1, int)))[0].tolist() == [True, True]
        assert select(policy, rows[0], 0, cfg).chosen == 0


def assert_simulation_commands_fail(cfg_path, tmp_path, capsys, needle):
    """simulate, compare and sweep exit 3 with one line naming needle and
    write nothing; iopt and regions, which never load the kernel, still run."""
    small = ["--horizon", "1000", "--replications", "1"]
    policy = ["--policy", '{"type": "het", "q_th": 2}']
    commands = {
        "simulate": ["simulate", *policy, *small],
        "compare": ["compare", *small],
        "sweep": ["sweep", *policy, "--values", "1,2", *small],
    }
    for name, argv in commands.items():
        out = tmp_path / name
        rc = cli.main([*argv, "--config", str(cfg_path), "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_COMPUTE, name
        assert not out.exists(), name
        assert err.startswith("schedlab: ") and err.count("\n") == 1, err
        assert needle in err and "Traceback" not in err
    assert cli.main(["iopt", "--config", str(cfg_path), "--out", str(tmp_path / "iopt")]) == 0
    rc = cli.main(["regions", "--config", str(cfg_path), *policy, "--axes", "0,2",
                   "--grid-step", "10", "--out", str(tmp_path / "regions")])
    assert rc == 0


def with_extra_member(archive: bytes) -> bytes:
    """The ar archive with one more member, a text file no link reads: a
    library with other bytes that still links."""
    data = b"a numpy upgrade\n"
    header = f"{'note.txt/':<16}{0:<12}{0:<6}{0:<6}{644:<8}{len(data):<10}`\n".encode()
    assert len(archive) % 2 == 0 and len(header) == 60
    return archive + header + data


class TestSlotKernelBuild:
    def test_argtypes_match_the_c_signature(self):
        """ctypes passes each argument as the kernel's argtypes say, never
        checked against _slots.c, so a drift between the two corrupts memory:
        run_slots' 24 parameters need one argtype each, its own scalar type
        for a scalar and an ndpointer of the element's dtype for a pointer,
        and its int64_t result needs restype c_int64."""
        source = simulator._SLOTS_SOURCE.read_text()
        params = re.search(r"int64_t run_slots\(([^)]*)\)", source).group(1)
        params = [p.replace("const", "").split() for p in params.split(",")]
        assert (len(params), sum("*" in p[-1] for p in params)) == (24, 12)
        kernel = simulator._slot_kernel(simulator._CC, simulator._NPYRANDOM)
        assert kernel.restype is ctypes.c_int64
        argtypes = kernel.argtypes
        assert len(argtypes) == len(params)
        scalars = {"int": ctypes.c_int, "int64_t": ctypes.c_int64}
        elements = {"double": np.float64, "int64_t": np.int64, "bitgen_t": np.uintp}
        for (ctype, *_, name), argtype in zip(params, argtypes):
            if "*" in name:
                assert getattr(argtype, "_dtype_", None) == np.dtype(elements[ctype]), name
            else:
                assert argtype is scalars[ctype], name

    def test_kernel_compiles_without_warnings(self):
        """_slots.c compiles clean under -Wall -Wextra -Wshadow with the
        build's own flags and include directory."""
        argv = [simulator._CC, *simulator._CFLAGS, f"-I{simulator._NPY_INCLUDE}", "-Wall", "-Wextra",
                "-Wshadow", "-Werror", "-fsyntax-only", str(simulator._SLOTS_SOURCE)]
        proc = subprocess.run(argv, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr

    def test_kernel_runs_clean_under_sanitizers(self, tmp_path):
        """A kernel built with AddressSanitizer and UndefinedBehaviorSanitizer,
        in a fresh process, runs a traced poisson7 campaign of het and mw,
        two rows of 70 001 slots, through every refill of the rows' draw
        buffers, and then the path every command takes: an untraced
        reference campaign of all three rules with uniform ties, three rows
        of 70 001 slots. These rows run in two slices, so two kernels run at
        once on disjoint rows of the shared arrays. Then, in one slice, two
        untraced campaigns of six rows of 3 001 slots, one per tie-break: a
        group of four rows and a group of two, in draw buffers of
        min(horizon, CHUNK) slots per row and, under either tie-break, a
        short last block of arrivals. All run without a read or write
        outside a buffer and without undefined behaviour, and record what
        the plain build records: every policy's choices in the first, every
        statistic of the others."""
        runtime = subprocess.run([simulator._CC, "-print-file-name=libasan.so"], capture_output=True,
                                 text=True).stdout.strip()
        if not os.path.isfile(runtime):
            pytest.skip(f"{simulator._CC} has no AddressSanitizer runtime")
        library = tmp_path / "_slots-sanitized.so"
        simulator._build([simulator._CC, *simulator._CFLAGS, "-fsanitize=address,undefined",
                          "-fno-sanitize-recover=all", f"-I{simulator._NPY_INCLUDE}"],
                         simulator._NPYRANDOM, library)
        campaigns = [
            (DRAW_CONFIGS["poisson7"], [HET2, Policy(MaxWeight(alpha=7.0))],
             SimSpec(horizon=70_001, master_seed=3, record_trace=True), [0, 1]),
            (DRAW_CONFIGS["reference"], [Policy(v, tie_break="uniform_random") for v in SHARED_POLICIES],
             SimSpec(horizon=70_001, master_seed=5), [0, 1, 2]),
            *((DRAW_CONFIGS["reference"], [Policy(v, tie_break=tie_break) for v in SHARED_POLICIES],
               SimSpec(horizon=3001, master_seed=7), [0, 1, 2, 3, 4, 5])
              for tie_break in ("lowest_index", "uniform_random")),
        ]
        slices = [2, 2, 1, 1]
        (tmp_path / "campaigns.pkl").write_bytes(pickle.dumps(list(zip(slices, campaigns))))
        script = (
            "import pickle, sys, numpy as np\n"
            "from dataclasses import fields\n"
            "from schedlab import simulator\n"
            "library, campaigns, record = sys.argv[1:]\n"
            "simulator._slot_kernel = lambda cc, npyrandom: simulator._load_kernel(library)\n"
            "def recorded(o):\n"
            "    if o.trace is not None:\n"
            "        return [o.trace]\n"
            "    counters = [np.asarray(getattr(o.counters, f.name)) for f in fields(o.counters)]\n"
            "    return [*counters, o.overflow_slot_counts, o.mean_queues]\n"
            "runs = []\n"
            "with open(campaigns, 'rb') as f:\n"
            "    for cpus, campaign in pickle.load(f):\n"
            "        simulator._usable_cpus = lambda: cpus\n"
            "        runs.append(simulator.run_replications(*campaign))\n"
            "arrays = [a for outputs in runs for outs in outputs for o in outs for a in recorded(o)]\n"
            "np.savez(record, *arrays)\n"
        )
        src = Path(simulator.__file__).resolve().parents[1]
        env = dict(os.environ, LD_PRELOAD=runtime, ASAN_OPTIONS="detect_leaks=0",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-c", script, str(library), str(tmp_path / "campaigns.pkl"),
                               str(tmp_path / "record.npz")], env=env, capture_output=True, text=True,
                              timeout=300)
        assert proc.returncode == 0, proc.stderr[-4000:]
        with np.load(tmp_path / "record.npz") as record:
            sanitized = [record[f"arr_{i}"] for i in range(len(record.files))]
        traced, *untraced = (run_replications(*campaign) for campaign in campaigns)
        plain = [o.trace for outs in traced for o in outs]
        plain += [a for run in untraced for outs in run for o in outs
                  for a in [*(np.asarray(getattr(o.counters, f.name)) for f in fields(TraceCounters)),
                            o.overflow_slot_counts, o.mean_queues]]
        assert len(sanitized) == len(plain) == 2 * 2 * 1 + 3 * 3 * 8 + 2 * 3 * 6 * 8
        assert all(bitwise_equal(a, b) for a, b in zip(sanitized, plain))

    def test_missing_compiler_fails_cleanly(self, monkeypatch, ref_cfg, ref_cfg_path, tmp_path, capsys):
        monkeypatch.setattr(simulator, "_CC", str(tmp_path / "no-such-cc"))
        with pytest.raises(ComputationError, match="no-such-cc"):
            run_replication(ref_cfg, HET2, SimSpec(horizon=100), 0)
        assert_simulation_commands_fail(ref_cfg_path, tmp_path, capsys, "no-such-cc")

    def test_missing_numpy_library_fails_cleanly(self, monkeypatch, ref_cfg, ref_cfg_path, tmp_path, capsys):
        missing = tmp_path / "lib" / "libnpyrandom.a"
        monkeypatch.setattr(simulator, "_NPYRANDOM", missing)
        with pytest.raises(ComputationError, match=re.escape(str(missing))):
            run_replication(ref_cfg, HET2, SimSpec(horizon=100), 0)
        assert_simulation_commands_fail(ref_cfg_path, tmp_path, capsys, str(missing))

    def test_changed_numpy_library_is_rebuilt(self, monkeypatch, tmp_path):
        """The kernel's name hashes libnpyrandom.a: a copy with other bytes,
        as a numpy upgrade in place leaves, builds and loads a new library."""
        package = tmp_path / "package"
        (package / "__pycache__").mkdir(parents=True)
        monkeypatch.setattr(simulator, "__file__", str(package / "simulator.py"))
        build = simulator._slot_kernel.__wrapped__
        assert callable(build(simulator._CC, simulator._NPYRANDOM))
        before = list((package / "__pycache__").glob("_slots-*.so"))
        upgraded = tmp_path / "libnpyrandom.a"
        upgraded.write_bytes(with_extra_member(simulator._NPYRANDOM.read_bytes()))
        assert callable(build(simulator._CC, upgraded))
        after = list((package / "__pycache__").glob("_slots-*.so"))
        assert len(before) == len(after) == 1 and before != after

    def test_no_usable_directory_fails_cleanly(self, monkeypatch, tmp_path):
        """With neither the package's __pycache__ nor a per-user temp
        directory usable, the build stops with ComputationError, not OSError."""
        blocker = tmp_path / "blocker"
        blocker.write_text("")  # a file: no directory can be made under it
        monkeypatch.setattr(simulator, "__file__", str(blocker / "simulator.py"))
        monkeypatch.setattr(simulator.tempfile, "tempdir", str(blocker))
        with pytest.raises(ComputationError, match="cannot build the slot kernel: .*Not a directory"):
            simulator._slot_kernel.__wrapped__(simulator._CC, simulator._NPYRANDOM)

    def test_unwritable_package_dir_builds_per_user(self, monkeypatch, tmp_path):
        """When the package's __pycache__ cannot be made, the kernel is built
        in a private per-user temp directory, never in someone else's."""
        blocker = tmp_path / "package"
        blocker.write_text("")  # a file, so package/__pycache__ cannot be created
        monkeypatch.setattr(simulator, "__file__", str(blocker / "simulator.py"))
        monkeypatch.setattr(simulator.tempfile, "tempdir", str(tmp_path))
        build = simulator._slot_kernel.__wrapped__  # bypass the in-process cache
        assert callable(build(simulator._CC, simulator._NPYRANDOM))
        user_dir = tmp_path / f"schedlab-{os.getuid()}"
        assert len(list(user_dir.glob("_slots-*.so"))) == 1
        assert user_dir.stat().st_mode & 0o077 == 0
        if os.getuid() == 0:  # only root can hand the directory to another user
            os.chown(user_dir, 65534, 65534)
            with pytest.raises(ComputationError, match="another user"):
                build(simulator._CC, simulator._NPYRANDOM)

    def test_build_removes_stale_libraries(self, monkeypatch, tmp_path):
        package = tmp_path / "package"
        (package / "__pycache__").mkdir(parents=True)
        stale = package / "__pycache__" / "_slots-0123456789abcdef.so"
        stale.write_bytes(b"")
        monkeypatch.setattr(simulator, "__file__", str(package / "simulator.py"))
        assert callable(simulator._slot_kernel.__wrapped__(simulator._CC, simulator._NPYRANDOM))
        libraries = list((package / "__pycache__").glob("_slots-*.so"))
        assert len(libraries) == 1 and libraries[0] != stale

    def test_deleted_library_is_rebuilt(self, ref_cfg):
        """A fresh process rebuilds a deleted kernel and reproduces the
        outputs of the one loaded here bit for bit."""
        script = (
            "import hashlib, numpy as np\n"
            "from schedlab import Exp, Policy, SimSpec, config_from_json, run_replications\n"
            f"(outs,) = run_replications(config_from_json({str(REFERENCE_CONFIG)!r}),\n"
            "                           [Policy(Exp(eta=0.25), 'uniform_random')],\n"
            "                           SimSpec(horizon=5000, master_seed=7), [0, 1])\n"
            "h = hashlib.sha256()\n"
            "for o in outs:\n"
            "    for a in (o.counters.served_slots, o.counters.departures, o.counters.final_queues,\n"
            "              o.overflow_slot_counts, o.mean_queues):\n"
            "        h.update(np.ascontiguousarray(a).tobytes())\n"
            "print(h.hexdigest())\n"
        )
        src = Path(simulator.__file__).resolve().parents[1]
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))

        def digest():
            proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                                  text=True, timeout=120)
            assert proc.returncode == 0, proc.stderr
            return proc.stdout.strip()

        before = digest()
        cache = Path(simulator.__file__).with_name("__pycache__")
        libraries = sorted(cache.glob("_slots-*.so"))
        assert libraries
        for lib in libraries:
            lib.unlink()
        assert digest() == before
        rebuilt = list(cache.glob("_slots-*.so"))
        assert len(rebuilt) == 1 and rebuilt[0] in libraries


def run_python(script, *args, timeout=300):
    """script run by a fresh interpreter that imports this checkout's schedlab."""
    src = Path(simulator.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")])))
    return subprocess.run([sys.executable, "-c", script, *map(str, args)], env=env, capture_output=True,
                          text=True, timeout=timeout)


# headroom in which a child process may grow its address space
HEADROOM = 150 * 2**20


def simulate_within_headroom(tmp_path, n_users, out):
    """A one-row, 40 000-slot simulate of het q_th 2 with uniform ties on
    n_users users with Poisson arrivals, run by a fresh interpreter whose
    address space may grow by HEADROOM only: the limit is set inside the
    child, after its kernel is loaded."""
    if not os.path.isfile("/proc/self/status"):
        pytest.skip("no /proc/self/status to read the address space from")
    cfg = {"n_users": n_users, "n_states": 2, "state_probs": [0.5, 0.5],
           "rate_matrix": [[1.0] * n_users, [2.0] * n_users], "arrival_rates": [0.001] * n_users,
           "arrival_model": "poisson"}
    (tmp_path / "wide.json").write_text(json.dumps(cfg))
    script = (
        "import resource, sys\n"
        "from schedlab import cli, simulator\n"
        "simulator._slot_kernel(simulator._CC, simulator._NPYRANDOM)\n"
        "with open('/proc/self/status') as f:\n"
        "    size = next(int(line.split()[1]) for line in f if line.startswith('VmSize:'))\n"
        f"limit = size * 1024 + {HEADROOM}\n"
        "resource.setrlimit(resource.RLIMIT_AS, (limit, limit))\n"
        "sys.exit(cli.main(sys.argv[1:]))\n"
    )
    return run_python(script, "simulate", "--config", tmp_path / "wide.json", "--policy",
                      '{"type": "het", "q_th": 2, "tie_break": "uniform_random"}', "--horizon", 40_000,
                      "--replications", 1, "--out", out)


class TestKernelScratch:
    """Each kernel call allocates its own scratch and frees it again."""

    def test_scratch_beyond_the_address_space_exits_3(self, tmp_path):
        """A simulate whose one block of arrivals (SUB_BLOCK slots x N
        doubles) alone takes 160 MB, about 20 000 users, beyond the child's
        150 MB headroom: the kernel refuses before any slot runs, and
        simulate exits 3 with one line naming the bytes the scratch needs,
        without a traceback and without its output directory."""
        n = 160 * 2**20 // (8 * KERNEL["SUB_BLOCK"])
        out = tmp_path / "out"
        proc = simulate_within_headroom(tmp_path, n, out)
        assert proc.returncode == cli.EXIT_COMPUTE, proc.stderr[-4000:]
        assert proc.stderr.startswith("schedlab: out of memory: ") and proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        requested = int(re.search(r"allocate its (\d+)-byte scratch", proc.stderr).group(1))
        assert requested > HEADROOM
        assert not out.exists()

    def test_uniform_ties_stream_their_arrivals_within_the_headroom(self, tmp_path):
        """Under uniform ties a row's arrivals stream a block at a time, as
        under lowest-index ties: a 1000-user simulate, whose scratch is
        about 9 MB (a whole chunk of arrivals would take 262 MB), runs in
        the child's 150 MB headroom and writes its outputs."""
        out = tmp_path / "out"
        proc = simulate_within_headroom(tmp_path, 1000, out)
        assert proc.returncode == cli.EXIT_OK, proc.stderr[-4000:]
        assert proc.stderr == ""
        assert sorted(path.name for path in out.iterdir()) == ["overflow.csv", "phi.csv", "result.json"]
        result = json.loads((out / "result.json").read_text())
        assert result["spec_echo"]["horizon"] == 40_000

    def test_calls_leave_no_scratch_behind(self):
        """After two warm-up calls, 20 more uniform-tie campaigns of het, exp
        and mw over four rows in one slice, each call's scratch about 2.4 MB,
        leave glibc's in-use heap (mallinfo2's uordblks + hblkhd, mapped
        blocks included) less than 1 MB above where it was."""
        if not hasattr(ctypes.CDLL(None), "mallinfo2"):
            pytest.skip("the C library has no mallinfo2")
        script = (
            "import ctypes, sys\n"
            "from schedlab import Exp, Heterogeneous, MaxWeight, Policy, SimSpec, config_from_json, simulator\n"
            "class Mallinfo2(ctypes.Structure):\n"
            "    _fields_ = [(name, ctypes.c_size_t) for name in ('arena', 'ordblks', 'smblks', 'hblks',\n"
            "                'hblkhd', 'usmblks', 'fsmblks', 'uordblks', 'fordblks', 'keepcost')]\n"
            "mallinfo2 = ctypes.CDLL(None).mallinfo2\n"
            "mallinfo2.restype = Mallinfo2\n"
            "def in_use():\n"
            "    info = mallinfo2()\n"
            "    return info.uordblks + info.hblkhd\n"
            "simulator._usable_cpus = lambda: 1\n"
            "cfg = config_from_json(sys.argv[1])\n"
            "policies = [Policy(v, 'uniform_random') for v in (Heterogeneous(2.0), Exp(0.25), MaxWeight(7.0))]\n"
            "spec = SimSpec(horizon=40_000, master_seed=3)\n"
            "def run():\n"
            "    simulator.run_replications(cfg, policies, spec, [0, 1, 2, 3])\n"
            "run()\n"
            "run()\n"
            "before = in_use()\n"
            "for _ in range(20):\n"
            "    run()\n"
            "print(in_use() - before)\n"
        )
        proc = run_python(script, REFERENCE_CONFIG)
        assert proc.returncode == 0, proc.stderr[-4000:]
        assert int(proc.stdout) < 2**20

    def test_arrivals_are_one_read_only_row_per_replication(self, ref_cfg):
        """The kernel sums a replication's arrivals once for every policy:
        each policy's counters.arrivals views the same row, read-only. Every
        output shares one read-only thresholds array too."""
        spec = SimSpec(horizon=2000, master_seed=4)
        outputs = run_replications(ref_cfg, [Policy(v) for v in SHARED_POLICIES], spec, [0, 1])
        thresholds = [o.thresholds for per_policy in outputs for o in per_policy]
        assert all(t is thresholds[0] for t in thresholds)
        assert thresholds[0].tolist() == list(spec.thresholds)
        with pytest.raises(ValueError, match="read-only"):
            thresholds[0][0] = 50.0
        for i in range(2):
            rows = [per_policy[i].counters.arrivals for per_policy in outputs]
            assert not any(row.flags.writeable for row in rows)
            assert all(np.shares_memory(row, rows[0]) for row in rows)
        assert not np.shares_memory(outputs[0][0].counters.arrivals, outputs[0][1].counters.arrivals)
