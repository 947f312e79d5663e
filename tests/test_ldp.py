import bisect
import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.optimize import brentq, linprog
from scipy.special import logsumexp

from schedlab import (
    aux_growth,
    compute_iopt,
    poisson_rate,
    relative_entropy,
    w_growth,
)
from schedlab.errors import ComputationError
from schedlab import ldp
from schedlab.ldp import _allocation_lp, _dual_candidates, _unique_rows, solve_standard_form
from schedlab.model import PROB_SUM_TOL
from conftest import make_config


def refined_legendre(xi: float, lam: float) -> float:
    """Independent supremum of theta*xi - lam*(e^theta - 1) on a refined grid."""
    theta = np.linspace(-60.0, 60.0, 200_001)
    with np.errstate(over="ignore"):
        vals = theta * xi - lam * (np.exp(theta) - 1.0)
    k = int(np.nanargmax(vals))
    lo, hi = theta[max(0, k - 2)], theta[min(len(theta) - 1, k + 2)]
    theta = np.linspace(lo, hi, 200_001)
    with np.errstate(over="ignore"):
        vals = theta * xi - lam * (np.exp(theta) - 1.0)
    return float(np.nanmax(vals))


class TestPoissonRate:
    def test_zero_at_mean(self):
        assert poisson_rate(1.0, 1.0) == 0.0
        assert poisson_rate(3.5, 3.5) == 0.0

    def test_value_at_two(self):
        assert poisson_rate(2.0, 1.0) == pytest.approx(2 * math.log(2) - 1, abs=1e-12)
        assert poisson_rate(2.0, 1.0) == pytest.approx(refined_legendre(2.0, 1.0), abs=1e-7)

    def test_zero_argument_limit(self):
        assert poisson_rate(0.0, 1.0) == 1.0
        assert poisson_rate(0.0, 2.5) == 2.5

    def test_negative_arguments_rejected(self):
        with pytest.raises(ValueError, match="xi must be >= 0"):
            poisson_rate(-0.1, 1.0)
        with pytest.raises(ValueError, match="lam must be > 0"):
            poisson_rate(1.0, 0.0)

    def test_vectorized(self):
        out = poisson_rate(np.array([0.0, 1.0, 2.0]), 1.0)
        assert out.shape == (3,)
        assert out[1] == 0.0

    @given(
        lam=st.floats(0.1, 8.0),
        xi=st.floats(0.0, 20.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_matches_legendre_supremum(self, lam, xi):
        assert poisson_rate(xi, lam) == pytest.approx(refined_legendre(xi, lam), abs=1e-6)

    @given(
        lam=st.floats(0.1, 5.0),
        a=st.floats(0.0, 15.0),
        b=st.floats(0.0, 15.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_midpoint_convexity(self, lam, a, b):
        mid = poisson_rate((a + b) / 2, lam)
        assert mid <= (poisson_rate(a, lam) + poisson_rate(b, lam)) / 2 + 1e-12


class TestRelativeEntropy:
    def test_identity_case(self):
        p = np.array([0.3, 0.6, 0.1])
        assert relative_entropy(p, p) == 0.0

    def test_single_term(self):
        val = relative_entropy([1.0, 0.0, 0.0], [0.3, 0.6, 0.1])
        assert val == pytest.approx(math.log(1 / 0.3), abs=1e-12)

    def test_absolute_continuity_failure(self):
        assert relative_entropy([0.5, 0.5], [1.0, 0.0]) == math.inf

    def test_rejects_non_probability_vectors(self):
        with pytest.raises(ValueError, match="gamma sums to"):
            relative_entropy([0.5, 0.6], [0.5, 0.5])
        with pytest.raises(ValueError, match="gamma has negative entries"):
            relative_entropy([1.5, -0.5], [0.5, 0.5])

    @given(st.lists(st.floats(0.01, 1.0), min_size=3, max_size=3))
    @settings(max_examples=150, deadline=None)
    def test_nonnegative_and_zero_only_at_p(self, raw):
        gamma = np.array(raw) / np.sum(raw)
        p = np.array([0.3, 0.6, 0.1])
        h = relative_entropy(gamma, p)
        assert h >= 0.0
        if h < 1e-12:
            assert np.allclose(gamma, p, atol=1e-5)


def allocation_lattice(n, parts):
    cells = []
    for cut in itertools.combinations(range(parts + n - 1), n - 1):
        prev, row = -1, []
        for c in cut:
            row.append(c - prev - 1)
            prev = c
        row.append(parts + n - 2 - prev)
        cells.append(row)
    return np.array(cells, dtype=float) / parts


def pareto_front(points):
    """Rows of a (K, 3) array that no other row dominates (>= in every
    coordinate); of equal rows the first in sort order stays. Sort by
    decreasing first coordinate, then keep a staircase of the kept rows' other
    two coordinates (second ascending, third descending) to test dominance."""
    order = np.lexsort((-points[:, 2], -points[:, 1], -points[:, 0]))
    stair_y, stair_z, keep = [], [], []
    for idx, (_, y, z) in zip(order.tolist(), points[order].tolist()):
        j = bisect.bisect_left(stair_y, y)
        if j < len(stair_y) and stair_z[j] >= z:
            continue  # an earlier row is >= in all three coordinates
        lo = j  # drop the entries this row dominates; z stays strictly decreasing
        while lo > 0 and stair_z[lo - 1] <= z:
            lo -= 1
        stair_y[lo:j] = [y]
        stair_z[lo:j] = [z]
        keep.append(idx)
    return points[np.sort(keep)]


def state0_bounds(y, rows0, pair):
    """Lower bound on each state-0 row's least shortfall over the pair sums:
    the shortfall against the pair sums' coordinatewise maximum, added in the
    order the real rows use. Float addition is monotone, so no row's
    shortfall lies below its bound."""
    return np.maximum(y - (rows0 + pair.max(axis=0)), 0.0).max(axis=1)


def w_bruteforce(y, gamma, cfg, parts=20, prune=True):
    """Min over a per-state allocation lattice (step 1/parts) of the max shortfall.

    With three states, prune=True first drops the state-1+2 service sums that
    another sum dominates, then visits the state-0 rows in ascending order of
    state0_bounds and stops at the first bound that cannot beat the best. The
    shortfall max_i (y_i - v_i)^+ is monotone in each v_i, and so is float
    addition, so neither step changes the minimum by a bit.
    """
    M, N = cfg.n_states, cfg.n_users
    rows = allocation_lattice(N, parts)
    contribs = [gamma[m] * cfg.rate_matrix[m] * rows for m in range(M)]  # each (K, N)
    if M == 1:
        v = contribs[0]
        return float(np.maximum(y[None, :] - v, 0.0).max(axis=1).min())
    if M == 2:
        v = contribs[0][:, None, :] + contribs[1][None, :, :]
        return float(np.maximum(y - v, 0.0).max(axis=2).min())
    assert (M, N) == (3, 3), "brute-force oracle implemented for one or two states, or 3 states x 3 users"
    best = np.inf
    pair = (contribs[1][:, None, :] + contribs[2][None, :, :]).reshape(-1, N)
    bounds = np.full(len(contribs[0]), -np.inf)  # unpruned: every row, in order
    if prune:
        pair = pareto_front(pair)
        bounds = state0_bounds(y, contribs[0], pair)
    for k in np.argsort(bounds, kind="stable"):
        if bounds[k] >= best:
            break
        short = np.maximum(y - (pair + contribs[0][k]), 0.0).max(axis=1)
        best = min(best, float(short.min()))
    return best


def w_highs(y, gamma, cfg):
    """Growth LP min w s.t. w >= y_i - sum_m gamma_m phi[m][i] F[m][i], solved by HiGHS."""
    M, N = cfg.n_states, cfg.n_users
    nv = 1 + M * N
    c = np.zeros(nv)
    c[0] = 1.0
    A_ub = np.zeros((N, nv))
    for i in range(N):
        A_ub[i, 0] = -1.0
        for m in range(M):
            A_ub[i, 1 + m * N + i] = -gamma[m] * cfg.rate_matrix[m, i]
    A_eq = np.zeros((M, nv))
    for m in range(M):
        A_eq[m, 1 + m * N : 1 + (m + 1) * N] = 1.0
    res = linprog(
        c, A_ub=A_ub, b_ub=-np.asarray(y, dtype=float), A_eq=A_eq, b_eq=np.ones(M),
        bounds=[(0, None)] * nv, method="highs",
    )
    assert res.success
    return float(res.x[0])


# Certificate for I_opt by convex duality. The growth LP's dual is
# w(y, gamma) = max over u >= 0, sum(u) <= 1 of u.y - sum_m gamma_m c_m(u), with
# c_m(u) = max_i u_i F[m][i], so I_opt = min_u theta_u where theta_u is the
# positive root of A_u(theta) + log sum_m p_m e^{-theta c_m(u)}, with the arrival
# term A_u(theta) = sum_i lam_i (e^{theta u_i} - 1) for Poisson arrivals and
# theta lam.u for fluid ones (which cannot deviate). On each cell where every c_m
# is linear that function is convex in u, so the minimum sits at a cell vertex;
# the minimizing (y, gamma) is the exponential tilt.


@dataclass(frozen=True)
class IoptCertificate:
    theta: float  # the infimum I_opt
    u: np.ndarray  # minimizing dual vertex
    y: np.ndarray  # tilted arrival rates lam_i e^{theta u_i} (lam for fluid arrivals)
    gamma: np.ndarray  # tilted channel law, proportional to p_m e^{-theta c_m(u)}
    w: float  # growth at the tilt, u.y - gamma.c(u)


def dual_vertices(rate_matrix):
    """Points of {u >= 0, sum(u) = 1} where N-1 of the hyperplanes u_i = 0 and
    u_i F[m][i] = u_j F[m][j] (both rates positive) meet: a superset of the
    vertices of the cells on which every c_m(u) is linear. Every plane is
    kept, duplicates included, and each subset is solved on its own."""
    N = rate_matrix.shape[1]
    planes = list(np.eye(N))
    for rates in rate_matrix:
        for i, j in itertools.combinations(range(N), 2):
            if rates[i] > 0 and rates[j] > 0:
                row = np.zeros(N)
                row[i], row[j] = rates[i], -rates[j]
                planes.append(row)
    rhs = np.zeros(N)
    rhs[-1] = 1.0
    points = []
    for rows in itertools.combinations(planes, N - 1):
        A = np.vstack([*rows, np.ones(N)])
        if abs(np.linalg.det(A)) < 1e-12:
            continue
        u = np.linalg.solve(A, rhs)
        if u.min() >= -1e-12:
            points.append(np.clip(u, 0.0, None))
    return np.unique(np.round(points, 12), axis=0)


def kink_vertices(rate_matrix, points):
    """The rows u of points at which (u, c(u)) is a vertex of the lifted
    polytope {(u, t): u >= 0, sum(u) = 1, t_m >= u_i F[m][i]}: its active
    constraints, the face included, have rank N + M."""
    M, N = rate_matrix.shape
    lifted = np.zeros((M, N, N + M))  # the row of t_m >= u_i F[m][i] as F[m][i] u_i - t_m
    lifted[:, :, :N] = rate_matrix[:, :, None] * np.eye(N)
    lifted[np.arange(M), :, N + np.arange(M)] = -1.0
    face = np.concatenate([np.ones(N), np.zeros(M)])
    keep = []
    for u in points:
        c = (u * rate_matrix).max(axis=1)
        rows = [face, *np.eye(N, N + M)[u == 0], *lifted[c[:, None] - u * rate_matrix <= 1e-9]]
        keep.append(np.linalg.matrix_rank(np.array(rows)) == N + M)
    return points[np.array(keep, dtype=bool)]


def root_function(theta, u, cfg):
    """A_u(theta) + log sum_m p_m e^{-theta c_m(u)}, per row of u."""
    c = (u[..., None, :] * cfg.rate_matrix).max(axis=-1)
    if cfg.arrival_model == "fluid":
        arrivals = theta * (u @ cfg.arrival_rates)
    else:
        arrivals = np.sum(cfg.arrival_rates * np.expm1(theta * u), axis=-1)
    return arrivals + logsumexp(-theta * c, b=cfg.state_probs, axis=-1)


def vertex_theta(u, cfg):
    """Positive root theta_u (0 when the mean point already grows along u,
    inf when the root function never turns positive)."""
    c = (u * cfg.rate_matrix).max(axis=1)
    slope0 = cfg.arrival_rates @ u - cfg.state_probs @ c
    if slope0 >= 0:
        return 0.0
    # fluid: the secant tends to lam.u - min over possible states of c_m(u)
    if cfg.arrival_model == "fluid" and cfg.arrival_rates @ u <= c[cfg.state_probs > 0].min():
        return math.inf

    def secant(t):  # the root function over t: increasing, since it is convex and 0 at 0
        return slope0 if t == 0.0 else root_function(t, u, cfg) / t

    hi = 1.0
    while secant(hi) <= 0:
        hi *= 2.0
    return brentq(secant, 0.0, hi, xtol=1e-15, rtol=1e-15)


def iopt_certificate(cfg):
    vertices = dual_vertices(cfg.rate_matrix)
    thetas = [vertex_theta(u, cfg) for u in vertices]
    k = int(np.argmin(thetas))
    u, theta = vertices[k], thetas[k]
    c = (u * cfg.rate_matrix).max(axis=1)
    y = cfg.arrival_rates * np.exp(theta * u) if cfg.arrival_model == "poisson" else cfg.arrival_rates
    gamma = cfg.state_probs * np.exp(-theta * c)
    gamma /= gamma.sum()
    return IoptCertificate(theta=theta, u=u, y=y, gamma=gamma, w=float(u @ y - gamma @ c))


def deviation_cost(y, gamma, cfg):
    """Poisson Cramer cost plus relative entropy, written out independently."""
    lam, p = cfg.arrival_rates, cfg.state_probs
    arrivals = np.sum(y * np.log(y / lam) - y + lam)
    return float(arrivals + np.sum(gamma * np.log(gamma / p)))


class TestWGrowth:
    def test_single_user_forced(self, single_user_cfg):
        w, phi = w_growth(np.array([2.0]), np.array([1.0]), single_user_cfg)
        assert w == pytest.approx(0.0, abs=1e-9)
        w, phi = w_growth(np.array([7.0]), np.array([1.0]), single_user_cfg)
        assert w == pytest.approx(2.0, abs=1e-9)
        assert phi[0, 0] == pytest.approx(1.0)

    def test_reference_mean_point_is_stable(self, ref_cfg):
        w, _ = w_growth(ref_cfg.arrival_rates, ref_cfg.state_probs, ref_cfg)
        assert w == pytest.approx(0.0, abs=1e-9)

    def test_matches_scipy_linprog(self, ref_cfg):
        rng = np.random.default_rng(3)
        M, N = ref_cfg.n_states, ref_cfg.n_users
        for _ in range(30):
            y = rng.uniform(0, 8, N)
            gamma = rng.dirichlet(np.ones(M))
            w, _ = w_growth(y, gamma, ref_cfg)
            assert w == pytest.approx(w_highs(y, gamma, ref_cfg), abs=1e-8)

    def test_monotone_in_each_arrival(self, ref_cfg):
        rng = np.random.default_rng(5)
        gamma = np.array([0.2, 0.5, 0.3])
        for _ in range(20):
            y = rng.uniform(0, 6, 4)
            w0, _ = w_growth(y, gamma, ref_cfg)
            i = int(rng.integers(4))
            y2 = y.copy()
            y2[i] += rng.uniform(0, 3)
            w1, _ = w_growth(y2, gamma, ref_cfg)
            assert w1 >= w0 - 1e-9

    def test_zero_iff_dominated(self, ref_cfg):
        rng = np.random.default_rng(6)
        for _ in range(20):
            gamma = rng.dirichlet(np.ones(3))
            y = rng.uniform(0, 5, 4)
            w, phi = w_growth(y, gamma, ref_cfg)
            v = (gamma[:, None] * ref_cfg.rate_matrix * phi).sum(axis=0)
            if w <= 1e-9:
                assert np.all(y <= v + 1e-7)
            else:
                assert np.any(y > v + 1e-9) or w <= 1e-9

    def test_dual_evaluator_matches_lp(self, ref_cfg):
        # strong duality: w is the max over the dual vertices of u.y - gamma.c(u)
        cands = _dual_candidates(ref_cfg.rate_matrix)
        costs = (cands[:, None, :] * ref_cfg.rate_matrix).max(axis=2)
        rng = np.random.default_rng(7)
        for _ in range(100):
            y = rng.uniform(0, 10, 4)
            gamma = rng.dirichlet(np.ones(3))
            dual = float((cands @ y - costs @ gamma).max())
            assert dual == pytest.approx(w_growth(y, gamma, ref_cfg)[0], abs=1e-8)

    def test_pareto_front_is_the_maximal_set(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            pts = rng.integers(0, 6, size=(60, 3)).astype(float)  # many ties and repeats
            front = pareto_front(pts)
            dominated = [
                any(np.all(q >= p) and (np.any(q > p) or j < i) for j, q in enumerate(pts))
                for i, p in enumerate(pts)
            ]
            expected = np.unique(pts[~np.array(dominated)], axis=0)
            assert np.array_equal(np.unique(front, axis=0), expected)
            assert len(front) == len(expected)

    def test_pruned_bruteforce_equals_full_loop_bitwise(self):
        skipped = []

        def check(y, gamma, cfg):
            best = w_bruteforce(y, gamma, cfg)
            assert best == w_bruteforce(y, gamma, cfg, prune=False)
            lattice = allocation_lattice(3, 20)
            rows = [gamma[m] * cfg.rate_matrix[m] * lattice for m in range(3)]
            pair = (rows[1][:, None, :] + rows[2][None, :, :]).reshape(-1, 3)
            skipped.append(int((state0_bounds(y, rows[0], pair) >= best).sum()))

        rng = np.random.default_rng(11)  # the first cases of c07b
        for _ in range(4):
            rates = rng.uniform(0, 2, size=(3, 3))
            cfg = make_config(rates, rng.dirichlet(np.ones(3)), rng.uniform(0.2, 2, 3))
            y = rng.uniform(0, 4, 3)
            gamma = rng.dirichlet(np.ones(3))
            check(y, gamma, cfg)
        rates = np.array([[1.0, 0.0, 2.0], [0.0, 0.0, 1.5], [3.0, 1.0, 0.0]])  # zero rates tie sums
        cfg = make_config(rates, [0.2, 0.3, 0.5], [1.0, 1.0, 1.0])
        check(np.array([0.9, 0.4, 1.1]), np.array([0.3, 0.3, 0.4]), cfg)
        # the state-0 skip ends some loops after one row, some part-way, and
        # some never
        assert 231 in skipped and 0 in skipped and any(0 < n < 231 for n in skipped)


# the benchmark's 5-user x 3-state system (57 vertices of the lifted polytope)
FIVE_USER_RATES = np.array([[0, 0, 0, 0, 0], [3, 9, 9, 9, 9], [5, 0, 1, 1, 2]], dtype=float)


def degenerate_rates(seed, shape):
    """A states x users rate matrix with entries from {0, 1, 2, 3, 9}: many
    hyperplane subsets meet at one vertex, and some hyperplanes coincide."""
    return np.random.default_rng(seed).choice([0, 1, 2, 3, 9], size=shape).astype(float)


def enumeration_cases():
    rng = np.random.default_rng(31)
    cases = [np.array([[0, 0, 0, 0], [3, 9, 9, 9], [5, 0, 1, 1]], dtype=float), FIVE_USER_RATES]
    for shape in ((2, 2), (3, 3), (2, 4), (3, 4)):
        cases.append(rng.integers(0, 7, size=shape).astype(float))
        cases.append(rng.uniform(0.5, 9.0, size=shape))
    # degenerate: 3 users x 2 states (seed 126), 5 x 2 (seed 136), a 5 x 4
    # system with 118 vertices of the lifted polytope, and smaller shapes
    cases += [degenerate_rates(126, (2, 3)), degenerate_rates(136, (2, 5)), degenerate_rates(142, (4, 5))]
    cases += [degenerate_rates(150 + k, shape) for k, shape in enumerate(((2, 2), (3, 3), (3, 4), (4, 3)))]
    return cases


class TestDualEnumeration:
    @pytest.mark.parametrize("rates", enumeration_cases())
    def test_stacked_equals_per_subset_loop(self, rates):
        assert np.array_equal(_dual_candidates(rates), kink_vertices(rates, dual_vertices(rates)))

    def test_proportional_states_count_once(self):
        """Proportional rates give a state the same kinks, so 60 states from
        four rows have the four rows' vertices; counted apart, they are far
        above the cap."""
        base = degenerate_rates(142, (4, 5))
        rates = base[np.arange(60) % 4] * (np.arange(60) // 4 + 1)[:, None]
        assert np.array_equal(_dual_candidates(rates), _dual_candidates(base))

    def test_unique_rows_equals_np_unique(self):
        # duplicate rows, -0.0 beside 0.0 in one column, and no rows at all
        rng = np.random.default_rng(43)
        for n in (0, 1, 2, 7, 40, 300):
            for width in (1, 3, 5):
                a = rng.choice([-0.0, 0.0, 1 / 3, 0.5, 1.0], size=(n, width))
                a = a[rng.integers(0, max(n, 1), size=n)]
                assert np.array_equal(_unique_rows(a), np.unique(a, axis=0))


def lp_oracle_configs():
    """200 seeded configs: 2-4 users, 2-3 states, integer rates 0-9 (every
    fifth with an all-zero state), a quarter fluid, arrivals at 0.4-1.4 times
    a random allocation's service, so some means are not stabilizable."""
    rng = np.random.default_rng(41)
    for k in range(200):
        M, N = 2 + k % 2, 2 + (k // 2) % 3
        rates = rng.integers(0, 10, size=(M, N)).astype(float)
        if k % 5 == 0:
            rates[rng.integers(M)] = 0.0
        probs = rng.dirichlet(np.ones(M))
        served = probs @ (rng.dirichlet(np.ones(N), size=M) * rates)
        lam = np.maximum(served * rng.uniform(0.4, 1.4, N), 0.05)
        yield make_config(rates, probs, lam, "fluid" if k % 4 == 3 else "poisson")


class TestSolveStandardForm:
    def test_allocation_lps_are_bitwise_linprog(self, monkeypatch):
        """Every LP compute_iopt builds (the growth LP at the means and at the
        tilt, and the canonical-phi LP at y - w - 1e-9) gets from
        solve_standard_form the x and objective linprog's HiGHS gives, bit
        for bit."""
        lps = []

        def recording(c, A, b):
            lps.append((c, A, b))
            return solve_standard_form(c, A, b)

        monkeypatch.setattr(ldp, "solve_standard_form", recording)
        unstable = 0
        for cfg in lp_oracle_configs():
            before = len(lps)
            try:
                compute_iopt(cfg)
            except ComputationError:
                continue  # a fluid config no channel deviation overloads
            unstable += len(lps) == before + 1  # the early return: one LP at the means
        growth = sum(c[0] == 1.0 for c, _, _ in lps)  # only the growth LP's w costs 1
        assert unstable >= 20 and growth >= 300 and len(lps) - growth >= 150
        for c, A, b in lps:
            x, value = solve_standard_form(c, A, b)
            res = linprog(c, A_eq=A, b_eq=b, method="highs")
            assert res.success
            assert x.tobytes() == res.x.tobytes()
            assert value.hex() == float(res.fun).hex()

    def test_simple_instance(self):
        # min -x1 - 2x2 s.t. x1 + x2 + s = 4, x1 + 3x2 + t = 6
        c = np.array([-1.0, -2.0, 0.0, 0.0])
        A = np.array([[1.0, 1.0, 1.0, 0.0], [1.0, 3.0, 0.0, 1.0]])
        b = np.array([4.0, 6.0])
        x, val = solve_standard_form(c, A, b)
        assert val == pytest.approx(-5.0, abs=1e-9)
        assert x[0] == pytest.approx(3.0, abs=1e-9)
        assert x[1] == pytest.approx(1.0, abs=1e-9)

    def test_infeasible_raises(self):
        # x1 = -1 with x1 >= 0
        with pytest.raises(ComputationError, match="LP failed"):
            solve_standard_form(np.array([1.0]), np.array([[1.0]]), np.array([-1.0]))

    def test_unbounded_raises(self):
        # min -x1 s.t. x1 - x2 = 0 (both free upward)
        with pytest.raises(ComputationError, match="LP failed"):
            solve_standard_form(np.array([-1.0, 0.0]), np.array([[1.0, -1.0]]), np.array([0.0]))

    def test_redundant_constraints_handled(self):
        A = np.array([[1.0, 1.0], [2.0, 2.0]])
        b = np.array([1.0, 2.0])
        x, val = solve_standard_form(np.array([1.0, 0.0]), A, b)
        assert val == pytest.approx(0.0, abs=1e-9)
        assert x[1] == pytest.approx(1.0, abs=1e-9)


class TestStabilizable:
    # compute_iopt's early return is the one stability test: w_growth at the
    # means (lam, p) is 0 exactly when some allocation serves every lam_i
    def test_reference_system_stable(self, ref_cfg):
        w, witness = w_growth(ref_cfg.arrival_rates, ref_cfg.state_probs, ref_cfg)
        assert w <= 1e-9
        v = (ref_cfg.state_probs[:, None] * ref_cfg.rate_matrix * witness).sum(axis=0)
        assert np.all(v >= ref_cfg.arrival_rates - 1e-7)

    def test_overloaded_single_user(self):
        cfg = make_config([[5.0]], [1.0], [6.0])
        w, _ = w_growth(cfg.arrival_rates, cfg.state_probs, cfg)
        assert w > 1e-9

    def test_vanishing_load(self):
        cfg = make_config([[0.0, 1.0], [2.0, 0.0]], [0.5, 0.5], [1e-9, 1e-9])
        w, _ = w_growth(cfg.arrival_rates, cfg.state_probs, cfg)
        assert w <= 1e-9


def _allocation_configs():
    rng = np.random.default_rng(17)
    for _ in range(12):
        M, N = int(rng.integers(1, 4)), int(rng.integers(1, 5))
        rates = rng.uniform(0, 3, (M, N)) * (rng.random((M, N)) > 0.3)
        yield make_config(rates, rng.dirichlet(np.ones(M)), rng.uniform(0.05, 0.6, N))
    yield make_config([[0.0, 0.0, 0.0], [2.0, 1.0, 3.0], [1.0, 4.0, 0.0]], [0.2, 0.5, 0.3], [0.3, 0.3, 0.3])


class TestAllocations:
    @staticmethod
    def assert_row_stochastic(phi, cfg):
        assert isinstance(phi, np.ndarray) and phi.shape == (cfg.n_states, cfg.n_users)
        assert np.all((phi >= 0.0) & (phi <= 1.0))
        assert np.all(np.abs(phi.sum(axis=1) - 1.0) <= PROB_SUM_TOL)

    @pytest.mark.parametrize("cfg", list(_allocation_configs()), ids=lambda cfg: f"{cfg.n_states}x{cfg.n_users}")
    def test_allocations_are_row_stochastic_arrays(self, cfg):
        rng = np.random.default_rng(cfg.n_states * 10 + cfg.n_users)
        for _ in range(3):
            y = rng.uniform(0, 3, cfg.n_users)
            _, phi = w_growth(y, rng.dirichlet(np.ones(cfg.n_states)), cfg)
            self.assert_row_stochastic(phi, cfg)
        self.assert_row_stochastic(compute_iopt(cfg).arg_phi, cfg)

    def test_infeasible_demand_raises(self, ref_cfg):
        # no allocation serves 100 packets a slot to user 0: its best is 5
        demand = np.array([100.0, 0.0, 0.0, 0.0])
        R = ref_cfg.rate_matrix
        with pytest.raises(ComputationError, match="LP failed"):
            _allocation_lp(R, demand, np.zeros(R.size), grow=False)


class TestComputeIopt:
    def test_unstable_config_returns_zero(self):
        cfg = make_config([[5.0]], [1.0], [6.0])
        res = compute_iopt(cfg)
        assert res.value == 0.0
        assert res.arg_w > 0

    def test_single_user_against_bruteforce(self, single_user_cfg):
        res = compute_iopt(single_user_cfg)
        y = np.linspace(5.0 + 1e-6, 16.0, 2_000_001)
        oracle = float(np.min((y * np.log(y) - y + 1.0) / (y - 5.0)))
        assert res.value == pytest.approx(oracle, abs=1e-4)
        assert res.value <= oracle + 1e-12  # the grid minimum lies above the infimum

    def test_critical_load_returns_zero_at_the_means(self):
        # lam = F: the mean point grows at rate 0 along u = 1
        cfg = make_config([[5.0]], [1.0], [5.0])
        res = compute_iopt(cfg)
        assert res.value == 0.0
        assert np.array_equal(res.arg_y, [5.0])
        assert np.array_equal(res.arg_gamma, [1.0])
        assert res.arg_w == pytest.approx(0.0, abs=1e-9)

    def test_value_invariant(self, ref_cfg):
        res = compute_iopt(ref_cfg)
        cost = poisson_rate(res.arg_y, ref_cfg.arrival_rates).sum() + relative_entropy(
            res.arg_gamma, ref_cfg.state_probs
        )
        assert res.value * res.arg_w == pytest.approx(cost, abs=1e-9)
        assert res.arg_w >= 1e-6
        rows = res.arg_phi.sum(axis=1)
        assert np.allclose(rows, 1.0, atol=1e-9)


class TestIoptCertificate:
    def test_single_user_closed_form(self, single_user_cfg):
        cert = iopt_certificate(single_user_cfg)
        assert cert.theta > 1.0
        assert math.exp(cert.theta) - 1.0 - 5.0 * cert.theta == pytest.approx(0.0, abs=1e-12)
        assert cert.u.tolist() == [1.0]
        assert cert.y[0] == pytest.approx(math.exp(cert.theta), rel=1e-12)
        assert cert.gamma.tolist() == [1.0]

    def test_reference_random_duals_never_lower(self, ref_cfg):
        # theta_u >= theta* exactly when the root function of u is <= 0 at theta*
        theta = iopt_certificate(ref_cfg).theta
        U = np.random.default_rng(17).dirichlet(np.ones(ref_cfg.n_users), size=50_000)
        assert root_function(theta, U, ref_cfg).max() <= 1e-12

    def test_compute_iopt_never_below_random_2x2(self):
        rng = np.random.default_rng(19)
        for _ in range(4):
            cfg = make_config(
                rng.uniform(0.5, 5, size=(2, 2)), rng.dirichlet(np.ones(2)), rng.uniform(0.1, 0.6, 2)
            )
            theta = iopt_certificate(cfg).theta
            assert abs(compute_iopt(cfg).value - theta) <= 1e-9

    def test_compute_iopt_matches_reference_both_arrival_models(self, ref_cfg, ref_cfg_fluid):
        for cfg, theta_star in ((ref_cfg, 0.295635377585), (ref_cfg_fluid, 0.446616)):
            cert = iopt_certificate(cfg)
            assert cert.theta == pytest.approx(theta_star, abs=1e-6)
            assert w_highs(cert.y, cert.gamma, cfg) == pytest.approx(cert.w, abs=1e-8)
            assert deviation_cost(cert.y, cert.gamma, cfg) / cert.w == pytest.approx(cert.theta, abs=1e-8)
            res = compute_iopt(cfg)
            assert abs(res.value - cert.theta) <= 1e-9
            assert np.allclose(res.arg_y, cert.y, atol=1e-9)
            assert np.allclose(res.arg_gamma, cert.gamma, atol=1e-9)
            assert res.arg_w == pytest.approx(cert.w, abs=1e-9)

    @pytest.mark.parametrize("n_users", [5, 6])
    def test_generic_tilt_attains_the_value(self, n_users):
        # 280 and 832 vertices of the lifted polytope; theta* is not known in
        # closed form, so the tilt and random duals certify it
        rates = np.random.default_rng(0).uniform(1.0, 9.0, size=(4, n_users))
        cfg = make_config(rates, [0.25] * 4, [0.1] * n_users)
        res = compute_iopt(cfg)
        assert res.value > 0
        w = w_highs(res.arg_y, res.arg_gamma, cfg)
        assert w == pytest.approx(res.arg_w, abs=1e-8)
        assert deviation_cost(res.arg_y, res.arg_gamma, cfg) / w == pytest.approx(res.value, abs=1e-8)
        U = np.random.default_rng(23).dirichlet(np.ones(cfg.n_users), size=50_000)
        assert root_function(res.value, U, cfg).max() <= 1e-12


def aux_grid_oracle(cfg, gamma, rho1=0.0, rho2=0.0, n=100):
    """10^4-point allocation grid for 2-user/2-state instances."""
    share = np.linspace(0.0, 1.0, n)
    r = gamma[:, None] * cfg.rate_matrix
    best = np.inf
    for a in share:
        phi0 = np.array([a, 1 - a])
        v0 = r[0] * phi0
        v1_all = r[1][None, :] * np.stack([share, 1 - share], axis=1)
        v = v0[None, :] + v1_all
        vmax = v.max(axis=1)
        t = np.where(vmax[:, None] > 0, v / np.where(vmax[:, None] > 0, vmax[:, None], 1.0), 0.0)
        obj = (cfg.arrival_rates[None, :] - np.exp(-t + rho1 + rho2)).max(axis=1)
        best = min(best, float(obj.min()))
    return best


def aux_value(cfg, v, rho1=0.0, rho2=0.0):
    """The auxiliary objective at mean service vector v (t = 0 when v = 0)."""
    vmax = v.max()
    t = v / vmax if vmax > 0 else np.zeros_like(v)
    return float(np.max(cfg.arrival_rates - np.exp(-t + rho1 + rho2)))


def aux_random_systems():
    rng = np.random.default_rng(17)
    for _ in range(12):
        N, M = int(rng.integers(3, 6)), int(rng.integers(1, 4))
        rates = rng.uniform(0.0, 6.0, size=(M, N))
        rates[rng.random((M, N)) < 0.15] = 0.0
        cfg = make_config(rates, rng.dirichlet(np.ones(M)), rng.uniform(0.3, 2.0, N))
        yield cfg, rng.dirichlet(np.ones(M)), *rng.uniform(-1.0, 1.0, 2), rng


def assert_achievable(cfg, gamma, v):
    """Some row-stochastic allocation phi gives sum_m gamma_m phi[m][i] F[m][i] = v_i."""
    M, N = cfg.n_states, cfg.n_users
    A_eq = np.zeros((N + M, M * N))
    for m in range(M):
        for i in range(N):
            A_eq[i, m * N + i] = gamma[m] * cfg.rate_matrix[m, i]
        A_eq[N + m, m * N : (m + 1) * N] = 1.0
    res = linprog(np.zeros(M * N), A_eq=A_eq, b_eq=np.concatenate([v, np.ones(M)]),
                  bounds=[(0, None)] * (M * N), method="highs")
    assert res.status == 0, res.message


class TestAuxGrowth:
    def test_single_user_closed_form(self, single_user_cfg):
        omega, v = aux_growth(single_user_cfg, np.array([1.0]))
        assert omega == pytest.approx(1.0 - math.exp(-1.0), abs=1e-9)
        assert v[0] == pytest.approx(5.0)

    def test_symmetric_users_canonical_argument(self):
        """Serving either user alone and the even split all reach 1 - e^-1;
        the documented argument serves the lowest index alone."""
        cfg = make_config([[2.0, 2.0], [6.0, 6.0]], [0.5, 0.5], [1.0, 1.0])
        omega, v = aux_growth(cfg, np.array([0.5, 0.5]))
        assert omega == pytest.approx(1.0 - math.exp(-1.0), abs=1e-15)
        assert aux_value(cfg, np.array([4.0, 4.0])) == pytest.approx(omega, abs=1e-15)
        assert np.array_equal(v, [4.0, 0.0])

    def test_random_2x2_against_grid_oracle(self):
        rng = np.random.default_rng(13)  # the 20 cases of acceptance check c07c
        for _ in range(20):
            rates = rng.uniform(0.5, 8, size=(2, 2))
            cfg = make_config(rates, rng.dirichlet(np.ones(2)), rng.uniform(0.5, 2, 2))
            gamma = rng.dirichlet(np.ones(2))
            omega, _ = aux_growth(cfg, gamma)
            assert abs(omega - aux_grid_oracle(cfg, gamma)) <= 1e-12

    def test_no_allocation_beats_it_with_rho(self):
        for cfg, gamma, rho1, rho2, rng in aux_random_systems():
            M, N = cfg.n_states, cfg.n_users
            omega, _ = aux_growth(cfg, gamma, rho1, rho2)
            R = gamma[:, None] * cfg.rate_matrix
            pure = [np.eye(N)[list(users)] for users in itertools.product(range(N), repeat=M)]
            mixed = [rng.dirichlet(np.full(N, a), size=M) for a in (0.3, 1.0) for _ in range(250)]
            for phi in pure + mixed:
                assert aux_value(cfg, (R * phi).sum(axis=0), rho1, rho2) >= omega

    def test_argument_is_achievable_and_attains_the_value(self):
        for cfg, gamma, rho1, rho2, _ in aux_random_systems():
            omega, v = aux_growth(cfg, gamma, rho1, rho2)
            assert_achievable(cfg, gamma, v)
            assert aux_value(cfg, v, rho1, rho2) == omega
            assert np.count_nonzero(v) <= 1

    def test_zero_rate_user_in_every_live_state(self):
        """v = 0 is achievable, so nobody reaches t = 1."""
        cfg = make_config([[0.0, 3.0, 1.0], [4.0, 2.0, 0.0]], [0.5, 0.5], [1.0, 2.0, 1.5])
        omega, v = aux_growth(cfg, np.array([0.4, 0.6]), 0.3, -0.1)
        assert omega == pytest.approx(2.0 - math.exp(0.2), abs=1e-15)
        assert np.array_equal(v, np.zeros(3))

    def test_states_with_zero_gamma_do_not_count(self):
        # the only state where every rate is positive is not visited: v = 0 is
        # achievable and gives 1 - e^0 = 0, below 1 - e^-1 from serving one user
        cfg = make_config([[3.0, 4.0], [0.0, 5.0]], [0.5, 0.5], [1.0, 1.0])
        omega, v = aux_growth(cfg, np.array([0.0, 1.0]))
        assert omega == pytest.approx(0.0, abs=1e-15)
        assert np.array_equal(v, [0.0, 0.0])
        # the only live state serves everyone: serving user 0 alone keeps the
        # larger lambda at t = 0, so max(1 - e^-1, 2 - e^0) beats max(1 - e^0, 2 - e^-1)
        cfg = make_config([[0.0, 0.0], [2.0, 5.0]], [0.5, 0.5], [1.0, 2.0])
        omega, v = aux_growth(cfg, np.array([0.0, 1.0]))
        assert omega == pytest.approx(1.0, abs=1e-15)
        assert np.array_equal(v, [2.0, 0.0])

    def test_all_zero_rates_convention(self):
        cfg = make_config([[0.0, 0.0]], [1.0], [1.0, 2.0])
        omega, v = aux_growth(cfg, np.array([1.0]))
        assert omega == pytest.approx(2.0 - 1.0)  # max lambda - e^0
        assert np.array_equal(v, [0.0, 0.0])
