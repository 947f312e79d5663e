import json
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from schedlab import (
    Exp,
    Heterogeneous,
    MaxWeight,
    Policy,
    RandomSource,
    policy_from_json,
    policy_to_json,
    select,
)
from conftest import make_config

HET = Heterogeneous(q_th=2.0)


class TestHetSelect:
    def test_zero_queues_picks_best_rate(self, ref_cfg):
        sel = select(Policy(HET), np.zeros(4), 2, ref_cfg)  # state m=3: rates [5,0,1,1]
        assert sel.chosen == 0
        assert sel.tied_set == {0}

    def test_equal_rates_picks_larger_queue(self):
        cfg = make_config([[5.0, 5.0]], [1.0], [1.0, 1.0])
        sel = select(Policy(HET), np.array([0.0, 10.0]), 0, cfg)
        assert sel.chosen == 1

    def test_direct_score_evaluation(self, ref_cfg):
        # state m=2 rates [3,9,9,9]; equivalent scores F/9 + q/2 = [2.333, 1, 2, 2]
        q = np.array([4.0, 0.0, 2.0, 2.0])
        sel = select(Policy(HET), q, 1, ref_cfg)
        assert sel.chosen == 0
        expected = 1.0 - np.exp(-(ref_cfg.rate_matrix[1] / 9.0 + q / 2.0))
        assert np.allclose(sel.score, expected, atol=1e-15)

    def test_all_zero_rate_state_falls_back_to_queues(self, ref_cfg):
        sel = select(Policy(HET), np.array([1.0, 5.0, 2.0, 0.0]), 0, ref_cfg)  # m=1: rates 0
        assert sel.chosen == 1


class TestExpSelect:
    def test_zero_queues_reduce_to_max_rate(self, ref_cfg):
        sel = select(Policy(Exp(eta=0.5)), np.zeros(4), 1, ref_cfg)
        assert sel.tied_set == {1, 2, 3}
        assert sel.chosen == 1

    def test_equal_queues_pick_larger_rate(self):
        cfg = make_config([[3.0, 9.0]], [1.0], [1.0, 1.0])
        sel = select(Policy(Exp(eta=0.5)), np.array([2.0, 2.0]), 0, cfg)
        assert sel.chosen == 1

    def test_numeric_scores(self):
        cfg = make_config([[3.0, 9.0]], [1.0], [1.0, 1.0])
        q = np.array([9.0, 1.0])
        sel = select(Policy(Exp(eta=0.5)), q, 0, cfg)
        denom = 1.0 + np.sqrt(5.0)
        expected = np.exp(q / denom) * np.array([3.0, 9.0])
        assert np.allclose(sel.score, expected)
        assert expected[0] == pytest.approx(48.4, abs=0.1)
        assert expected[1] == pytest.approx(12.3, abs=0.1)
        assert sel.chosen == 0


class TestMwSelect:
    def test_direct_evaluation(self):
        cfg = make_config([[5.0, 1.0]], [1.0], [1.0, 1.0])
        sel = select(Policy(MaxWeight(alpha=1.0)), np.array([2.0, 3.0]), 0, cfg)
        assert np.array_equal(sel.score, [10.0, 3.0])
        assert sel.chosen == 0

    def test_equal_queues_pick_max_rate(self, ref_cfg):
        sel = select(Policy(MaxWeight(alpha=2.0)), np.full(4, 3.0), 2, ref_cfg)
        assert sel.chosen == 0

    def test_scale_invariance_example(self):
        cfg = make_config([[5.0, 4.0]], [1.0], [1.0, 1.0])
        q = np.array([2.0, 3.0])
        a = select(Policy(MaxWeight(alpha=1.5)), q, 0, cfg)
        b = select(Policy(MaxWeight(alpha=1.5)), 17.0 * q, 0, cfg)
        assert a.chosen == b.chosen
        assert a.tied_set == b.tied_set


class TestSelectDispatch:
    def test_het_tie_lowest_index(self, ref_cfg):
        # m=2 rates [3,9,9,9], zero queues: tie among users 1,2,3
        sel = select(Policy(HET), np.zeros(4), 1, ref_cfg)
        assert sel.tied_set == {1, 2, 3}
        policy = Policy(HET)
        assert select(policy, np.zeros(4), 1, ref_cfg).chosen == 1

    def test_mw_all_tie_lowest(self):
        cfg = make_config([[5.0, 4.0]], [1.0], [1.0, 1.0])
        assert select(Policy(MaxWeight(alpha=1.0)), np.zeros(2), 0, cfg).chosen == 0

    def test_uniform_tie_break_reproducible(self, ref_cfg):
        policy = Policy(HET, tie_break="uniform_random")
        picks_a = [
            select(policy, np.zeros(4), 1, ref_cfg, RandomSource(9).generator()).chosen
            for _ in range(5)
        ]
        picks_b = [
            select(policy, np.zeros(4), 1, ref_cfg, RandomSource(9).generator()).chosen
            for _ in range(5)
        ]
        assert picks_a == picks_b
        assert set(picks_a) <= {1, 2, 3}


class TestPolicyJson:
    def test_round_trip(self):
        for doc in (
            {"type": "het", "q_th": 2.0, "rho1": 0.0, "rho2": 0.5},
            {"type": "exp", "eta": 0.25},
            {"type": "mw", "alpha": 7.0, "tie_break": "uniform_random"},
        ):
            policy = policy_from_json(doc)
            assert policy_from_json(policy_to_json(policy)) == policy
        assert policy_to_json(policy_from_json({"type": "het", "q_th": 2})) == {
            "type": "het", "q_th": 2.0, "rho1": 0.0, "rho2": 0.0, "tie_break": "lowest_index",
        }
        with pytest.raises(ValueError, match="'fifo'"):
            policy_from_json({"type": "fifo", "q_th": 2})

    def test_unknown_key_rejected(self):
        """A misspelt parameter is an error, not a silent default."""
        with pytest.raises(ValueError, match=r"\['alpha', 'rho_1'\].*\['q_th', 'rho1', 'rho2'\]"):
            policy_from_json({"type": "het", "q_th": 2, "rho_1": 0.5, "alpha": 3})
        with pytest.raises(ValueError, match=r"\['q_th'\].*\['eta'\]"):
            policy_from_json({"type": "exp", "eta": 0.5, "q_th": 2})

    def test_missing_field_named(self):
        """A document without its type or a parameter that has no default
        names what is missing, not a bare KeyError."""
        with pytest.raises(ValueError, match="^het policy needs 'q_th'$"):
            policy_from_json({"type": "het", "rho1": 0.5})
        with pytest.raises(ValueError, match="^mw policy needs 'alpha'$"):
            policy_from_json('{"type": "mw", "tie_break": "uniform_random"}')
        with pytest.raises(ValueError, match=r"^policy document needs 'type', one of \['exp', 'het', 'mw'\]$"):
            policy_from_json({"eta": 0.5})

    @pytest.mark.parametrize("doc, name", [
        ({"type": "het", "q_th": True}, "q_th"),
        ({"type": "het", "q_th": "2"}, "q_th"),
        ({"type": "het", "q_th": 2, "rho2": False}, "rho2"),
        ({"type": "exp", "eta": "0.25"}, "eta"),
        ({"type": "mw", "alpha": None}, "alpha"),
        ({"type": "mw", "alpha": [7]}, "alpha"),
    ])
    def test_parameters_must_be_numbers(self, doc, name):
        """A parameter is a JSON number: true used to run as 1.0 and "2" as
        2.0, as no bool count passes config_from_json."""
        value = doc[name]
        with pytest.raises(ValueError, match=rf"^{doc['type']} policy parameter '{name}' must be a "
                                             rf"number, got {re.escape(repr(value))}$"):
            policy_from_json(doc)
        with pytest.raises(ValueError, match=f"'{name}' must be a number"):
            policy_from_json(json.dumps(doc))

    def test_numeric_parameters_of_any_real_type_pass(self):
        assert policy_from_json({"type": "het", "q_th": np.int64(2)}) == policy_from_json({"type": "het", "q_th": 2.0})
        assert policy_from_json('{"type": "mw", "alpha": 7}').variant.alpha == 7.0

    @pytest.mark.parametrize("doc, message", [
        ('{"type": "het", "q_th": 1e999}', "^q_th must be finite, got inf$"),
        ('{"type": "mw", "alpha": 1e999}', "^alpha must be finite, got inf$"),
        ({"type": "mw", "alpha": np.inf}, "^alpha must be finite, got inf$"),
    ], ids=["het_q_th_json", "mw_alpha_json", "mw_alpha_dict"])
    def test_parameters_must_be_finite(self, doc, message):
        """1e999 parses to inf: it used to pass q_th > 0 and alpha >= 1, run,
        and be echoed into result.json as Infinity, which is not JSON."""
        with pytest.raises(ValueError, match=message):
            policy_from_json(doc)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            policy_from_json({"type": "exp", "eta": 0.0})
        with pytest.raises(ValueError):
            policy_from_json({"type": "mw", "alpha": 0.5})
        with pytest.raises(ValueError):
            policy_from_json({"type": "het", "q_th": -1.0})
        with pytest.raises(ValueError):
            Policy(HET, tie_break="coin_flip")


queues = st.lists(st.floats(0, 50), min_size=4, max_size=4).map(np.array)
rates_row = st.lists(st.floats(0, 10), min_size=4, max_size=4)

# quarter-integer grids: exact ties occur, sub-tolerance near-ties do not
grid_q = st.lists(st.integers(0, 200).map(lambda k: k * 0.25), min_size=4, max_size=4).map(np.array)
grid_rates = st.lists(st.integers(0, 40).map(lambda k: k * 0.25), min_size=4, max_size=4)


@st.composite
def het_instances(draw):
    q = draw(queues)
    row = draw(rates_row)
    cfg = make_config([row], [1.0], [1.0] * 4)
    q_th = draw(st.floats(0.1, 20))
    return q, cfg, q_th


@st.composite
def grid_instances(draw):
    q = draw(grid_q)
    row = draw(grid_rates)
    cfg = make_config([row], [1.0], [1.0] * 4)
    return q, cfg


class TestInvariances:
    @given(het_instances())
    @settings(max_examples=150, deadline=None)
    def test_monotone_transform_equivalence(self, inst):
        """het's tied set equals the argmax set of F/maxF + Q/q_th."""
        q, cfg, q_th = inst
        sel = select(Policy(Heterogeneous(q_th=q_th)), q, 0, cfg)
        row = cfg.rate_matrix[0]
        mx = row.max()
        g = (row / mx if mx > 0 else np.zeros_like(row)) + q / q_th
        expected = set(np.flatnonzero(g >= g.max() - 1e-12))
        assert sel.tied_set == expected

    @given(het_instances(), st.floats(0, 1), st.floats(0, 1))
    @settings(max_examples=150, deadline=None)
    def test_rho_invariance(self, inst, rho1, rho2):
        q, cfg, q_th = inst
        base = select(Policy(Heterogeneous(q_th=q_th)), q, 0, cfg)
        shifted = select(Policy(Heterogeneous(q_th=q_th, rho1=rho1, rho2=rho2)), q, 0, cfg)
        assert base.chosen == shifted.chosen
        assert base.tied_set == shifted.tied_set

    @given(grid_instances(), st.floats(0.001, 1000))
    @example(  # an exact tie at magnitude ~8e3 that raw scores lost after scaling
        inst=(np.array([0.0, 0.0, 44.25, 29.5]), make_config([[0.0, 0.0, 4.0, 9.0]], [1.0], [1.0] * 4)),
        scale=2.0199,
    )
    @settings(max_examples=150, deadline=None)
    def test_mw_scale_invariance(self, inst, scale):
        q, cfg = inst
        params = MaxWeight(alpha=2.0)
        a = select(Policy(params), q, 0, cfg)
        b = select(Policy(params), scale * q, 0, cfg)
        assert a.tied_set == b.tied_set
        assert a.chosen == b.chosen

    @given(grid_instances())
    @settings(max_examples=100, deadline=None)
    def test_exp_zero_queue_reduction(self, inst):
        _, cfg = inst
        sel = select(Policy(Exp(eta=0.5)), np.zeros(4), 0, cfg)
        row = cfg.rate_matrix[0]
        assert sel.tied_set == set(np.flatnonzero(row >= row.max() - 1e-12))

    @given(het_instances())
    @settings(max_examples=50, deadline=None)
    def test_selectors_are_pure(self, inst):
        q, cfg, q_th = inst
        a = select(Policy(Heterogeneous(q_th=q_th)), q, 0, cfg)
        b = select(Policy(Heterogeneous(q_th=q_th)), q, 0, cfg)
        assert a.chosen == b.chosen
        assert np.array_equal(a.score, b.score)
