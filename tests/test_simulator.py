import math
from dataclasses import fields

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
    exp_select,
    estimate_overflow,
    fit_decay_rate,
    het_select,
    mw_select,
    run_replication,
    run_replications,
    run_simulation,
    scaled_trace,
)
from schedlab.errors import (
    InsufficientEventsError,
    NoSamplesError,
    TraceUnavailableError,
)
from schedlab.simulator import (
    ESTIMATOR_EPISODE,
    OverflowEstimate,
    ReplicationOutput,
    aggregate_counters,
    validate_sim_spec,
)
from conftest import make_config

HET2 = Policy(Heterogeneous(q_th=2.0))


def synthetic_output(slot_counts, n_slots, thresholds):
    n = len(thresholds)
    zeros = np.zeros(2)
    counters = TraceCounters(
        arrivals=zeros.copy(),
        departures=zeros.copy(),
        state_slots=np.array([n_slots]),
        served_slots=np.array([[n_slots, 0]]),
        horizon=n_slots,
        max_queue_seen=0.0,
        initial_queues=zeros.copy(),
        final_queues=zeros.copy(),
    )
    return ReplicationOutput(
        rep_index=0,
        counters=counters,
        thresholds=np.asarray(thresholds, dtype=float),
        overflow_slot_counts=np.asarray(slot_counts),
        ever_reached=np.asarray(slot_counts) > 0,
        n_stat_slots=n_slots,
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
            validate_sim_spec(SimSpec(horizon=100, burn_in=100))
        with pytest.raises(ValueError):
            validate_sim_spec(SimSpec(horizon=100, thresholds=(5.0, 5.0)))
        with pytest.raises(ValueError):
            validate_sim_spec(SimSpec(horizon=0))


class TestRunReplication:
    def test_service_dominates_fluid_arrivals(self):
        cfg = make_config([[5.0]], [1.0], [1.0], arrival_model="fluid")
        spec = SimSpec(horizon=5000, thresholds=(1.0, 2.0), master_seed=1)
        out = run_replication(cfg, HET2, spec, 0)
        assert out.counters.max_queue_seen == 0.0
        assert not out.ever_reached.any()

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

    def test_batch_equals_single(self, ref_cfg):
        spec = SimSpec(horizon=40_000, master_seed=2, replications=3)
        batch = run_replications(ref_cfg, HET2, spec, [0, 1, 2])
        solo = run_replication(ref_cfg, HET2, spec, 1)
        assert np.array_equal(batch[1].counters.arrivals, solo.counters.arrivals)
        assert np.array_equal(batch[1].counters.final_queues, solo.counters.final_queues)

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
            assert np.array_equal(c.state_slots, c.served_slots.sum(axis=1))
            assert c.state_slots.sum() == c.horizon
            balance = c.final_queues - c.initial_queues - c.arrivals + c.departures
            assert np.all(balance == 0.0)


class TestEstimateOverflow:
    def test_no_outputs_raises(self):
        with pytest.raises(NoSamplesError):
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
        with pytest.raises(InsufficientEventsError):
            fit_decay_rate(ests)


class TestEmpiricalPhi:
    def test_simple_fraction(self):
        counters = TraceCounters(
            arrivals=np.zeros(2),
            departures=np.zeros(2),
            state_slots=np.array([0, 100]),
            served_slots=np.array([[0, 0], [50, 50]]),
            horizon=100,
            max_queue_seen=0.0,
            initial_queues=np.zeros(2),
            final_queues=np.zeros(2),
        )
        phi = empirical_phi(counters)
        assert phi.phi[1, 0] == 0.5
        assert not phi.observed[0]
        assert np.isnan(phi.phi[0, 0])

    def test_observed_rows_stochastic(self, ref_cfg):
        out = run_replication(ref_cfg, HET2, SimSpec(horizon=30_000, master_seed=1), 0)
        phi = empirical_phi(out.counters)
        sums = phi.phi[phi.observed].sum(axis=1)
        assert np.allclose(sums, 1.0, atol=1e-9)


class TestRunSimulation:
    def test_overflow_monotone_in_threshold(self, ref_cfg):
        spec = SimSpec(horizon=60_000, replications=2, master_seed=8)
        res = run_simulation(ref_cfg, HET2, spec)
        probs = [e.probability for e in res.overflow]
        assert all(a >= b for a, b in zip(probs, probs[1:]))

    def test_split_matches_single_pass(self, ref_cfg):
        """Streams are keyed by (seed, rep_index), so splitting the indices
        over several lockstep passes changes no output bit."""
        spec = SimSpec(horizon=20_000, replications=4, master_seed=4)
        whole = run_replications(ref_cfg, HET2, spec, [0, 1, 2, 3])
        split = {
            o.rep_index: o
            for group in ([0, 3], [1], [2])
            for o in run_replications(ref_cfg, HET2, spec, group)
        }
        for a in whole:
            b = split[a.rep_index]
            for f in fields(TraceCounters):
                assert np.array_equal(getattr(a.counters, f.name), getattr(b.counters, f.name))
            assert np.array_equal(a.overflow_slot_counts, b.overflow_slot_counts)
            assert np.array_equal(a.ever_reached, b.ever_reached)
            assert a.n_stat_slots == b.n_stat_slots
            assert np.array_equal(a.mean_queues, b.mean_queues)

    def test_aggregate_counters_order_independent(self, ref_cfg):
        spec = SimSpec(horizon=10_000, replications=3, master_seed=6)
        outs = run_replications(ref_cfg, HET2, spec, [0, 1, 2])
        a = aggregate_counters(outs)
        b = aggregate_counters(outs[::-1])
        assert np.array_equal(a.served_slots, b.served_slots)
        assert np.array_equal(a.arrivals, b.arrivals)


class TestScaledTrace:
    def test_unit_scale_is_identity(self, ref_cfg):
        spec = SimSpec(horizon=500, burn_in=0, master_seed=3, record_trace=True)
        out = run_replication(ref_cfg, HET2, spec, 0)
        st1 = scaled_trace(out, 1.0)
        assert np.array_equal(st1.f, out.trace["f"])
        assert np.array_equal(st1.q, out.trace["q"])

    def test_scaled_balance_identity(self, ref_cfg):
        spec = SimSpec(horizon=512, burn_in=0, master_seed=5, record_trace=True)
        out = run_replication(ref_cfg, HET2, spec, 0)
        for scale in (2.0, 8.0):
            tr = scaled_trace(out, scale)
            assert np.allclose(tr.q, tr.f - tr.fhat, atol=1e-12)

    def test_fluid_single_user_linear(self):
        cfg = make_config([[0.5]], [1.0], [1.0], arrival_model="fluid")
        spec = SimSpec(horizon=100, burn_in=0, master_seed=0, record_trace=True)
        out = run_replication(cfg, HET2, spec, 0)
        for scale in (1.0, 5.0):
            tr = scaled_trace(out, scale)
            assert np.allclose(tr.f[:, 0], tr.times * 1.0, atol=1e-12)

    def test_unrecorded_trace_raises(self, ref_cfg):
        out = run_replication(ref_cfg, HET2, SimSpec(horizon=100, master_seed=0), 0)
        with pytest.raises(TraceUnavailableError):
            scaled_trace(out, 2.0)


def random_3user_config():
    rng = np.random.default_rng(2)
    rates = rng.integers(0, 8, size=(3, 3)).astype(float)
    rates[0] = 0.0  # one dead state, which the map must skip
    return make_config(rates, [0.2, 0.5, 0.3], [0.5, 0.5, 0.5])


def region_labels_oracle(cfg, policy, axis_users, fixed_queues, q_values):
    """Per-grid-point reference: the public selectors, one call per live state."""
    selectors = {Heterogeneous: het_select, Exp: exp_select, MaxWeight: mw_select}
    selector = selectors[type(policy.variant)]
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
                sel = selector(q, m, cfg, policy.variant)
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
