"""Large-deviations machinery: rate functions, the growth LP, and decay-rate optimization.

The central objects:

* ``poisson_rate`` / ``relative_entropy`` -- per-slot deviation costs of the
  arrival and channel-state empirical processes.
* ``w_growth`` -- the min-max LP giving the smallest achievable growth rate of
  the largest queue when arrivals run at ``y`` and channel states follow ``gamma``.
* ``compute_iopt`` -- the best possible overflow decay rate: the infimum of
  (arrival cost + channel cost) / growth over all overflow-driving deviations.
* ``aux_growth`` -- the auxiliary min-max problem tying the scheduler's
  normalized-rate exponent to the growth rate of the largest queue, solved
  in closed form: serving one user alone is optimal.

Every result is exact up to floating point and root tolerance: the LPs go
to HiGHS, ``compute_iopt`` solves one scalar root of the largest secant over
the vertices of a lifted dual polytope, which scipy's Qhull intersects from
its halfspaces, and no grid or local search is left. HiGHS is reached
through scipy's ``milp`` rather than ``linprog``: the same solve with the
same bits out, for a third less time per LP.

scipy is imported inside the functions that call it, not here: loading
scipy.optimize costs more start-up time than a simulation campaign, and
``simulate``, ``compare`` and ``regions`` never reach it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ComputationError
from .model import ARRIVAL_FLUID, PROB_SUM_TOL, SystemConfig


# ---------------------------------------------------------------------------
# rate functions


def poisson_rate(xi, lam):
    """Cramer rate of a Poisson(lam) increment: xi*ln(xi/lam) - xi + lam.

    Accepts scalars or arrays (broadcast). Zero exactly at xi = lam, the
    xi = 0 limit equals lam, and growth is superlinear in xi.
    """
    xi_arr = np.asarray(xi, dtype=float)
    lam_arr = np.asarray(lam, dtype=float)
    if np.any(xi_arr < 0):
        raise ValueError("xi must be >= 0")
    if np.any(lam_arr <= 0):
        raise ValueError("lam must be > 0")
    with np.errstate(divide="ignore", invalid="ignore"):
        # log(xi) - log(lam) rather than log(xi/lam): the quotient can
        # underflow to 0 for subnormal xi while the logs stay finite
        val = xi_arr * (np.log(xi_arr) - np.log(lam_arr)) - xi_arr + lam_arr
    out = np.where(xi_arr > 0, val, np.broadcast_to(lam_arr, val.shape))
    if np.isscalar(xi) and np.isscalar(lam):
        return float(out)
    return out


def _check_prob_vector(v: np.ndarray, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if v.ndim != 1:
        raise ValueError(f"{name} must be 1-D")
    if np.any(v < 0):
        raise ValueError(f"{name} has negative entries")
    if abs(v.sum() - 1.0) > PROB_SUM_TOL:
        raise ValueError(f"{name} sums to {v.sum()}, not 1 within {PROB_SUM_TOL}")
    return v


def relative_entropy(gamma, p) -> float:
    """H(gamma || p) with 0*ln(0/p) = 0; +inf when gamma puts mass where p has none."""
    from scipy.special import rel_entr

    gamma = _check_prob_vector(gamma, "gamma")
    p = _check_prob_vector(p, "p")
    if gamma.shape != p.shape:
        raise ValueError("gamma and p must have equal length")
    return float(rel_entr(gamma, p).sum())


# ---------------------------------------------------------------------------
# the allocation LP


def _clean_rows(phi: np.ndarray) -> np.ndarray:
    phi = np.clip(phi, 0.0, None)
    return phi / phi.sum(axis=1, keepdims=True)


def solve_standard_form(c, A, b) -> tuple[np.ndarray, float]:
    """Minimize c.x s.t. A x = b, x >= 0 with HiGHS; returns (x, objective).

    The LP goes to HiGHS through scipy's ``milp`` with no integer variables
    and its default bounds x >= 0: the same solve, with the same x and
    objective bit for bit, as ``linprog(method="highs")``, without
    linprog's input checks and conversions, which cost a third of the time
    on these small LPs (0.71 against 1.06 ms on the reference config's).
    Raises ComputationError on any non-success status (infeasible,
    unbounded, iteration limit, numerical trouble).
    """
    from scipy.optimize import LinearConstraint, milp

    res = milp(c, constraints=LinearConstraint(A, b, b))
    if not res.success:
        raise ComputationError(f"LP failed: {res.message}")
    return res.x, float(res.fun)


def _allocation_lp(R: np.ndarray, demand: np.ndarray, phi_cost: np.ndarray, grow: bool):
    """Minimize [w +] phi_cost . phi over [w,] phi (M*N, row-major) and one
    surplus s_i per constrained user: with grow every user gets the row
    w + sum_m R[m,i] phi[m,i] - s_i = demand_i, without it (and without w)
    only users with demand_i > 0 do; every state gets sum_i phi[m,i] = 1.
    Returns the optimum and the (M, N) phi as HiGHS left it."""
    M, N = R.shape
    users = np.arange(N) if grow else np.flatnonzero(demand > 0)
    k, lead = len(users), int(grow)
    A = np.zeros((k + M, lead + M * N + k))
    A[:k, :lead] = 1.0
    for r, i in enumerate(users):
        A[r, lead + i : lead + M * N : N] = R[:, i]
        A[r, lead + M * N + r] = -1.0
    for m in range(M):
        A[k + m, lead + m * N : lead + (m + 1) * N] = 1.0
    b = np.concatenate([demand[users], np.ones(M)])
    c = np.concatenate([np.ones(lead), np.ravel(phi_cost), np.zeros(k)])
    x, value = solve_standard_form(c, A, b)
    return value, x[lead : lead + M * N].reshape(M, N)


def w_growth(y, gamma, cfg: SystemConfig) -> tuple[float, np.ndarray]:
    """Minimum achievable growth rate of the largest queue.

    Solves min w s.t. w >= y_i - sum_m gamma_m phi[m][i] F[m][i] for all i,
    rows of phi stochastic, everything nonnegative. Returns the optimum and a
    minimizing allocation, an (M, N) array with rows summing to 1.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise ValueError("y entries must be >= 0")
    gamma = _check_prob_vector(gamma, "gamma")
    M, N = cfg.n_states, cfg.n_users
    if y.shape != (N,) or gamma.shape != (M,):
        raise ValueError("y/gamma dimensions disagree with the config")
    value, phi = _allocation_lp(gamma[:, None] * cfg.rate_matrix, y, np.zeros(M * N), grow=True)
    return max(0.0, value), _clean_rows(phi)


# ---------------------------------------------------------------------------
# the decay-rate optimization by convex duality
#
# The LP dual is w(y, gamma) = max_{u >= 0, sum u <= 1} [u.y - sum_m gamma_m c_m(u)]
# with c_m(u) = max_i u_i F[m][i]. For a fixed u, cost / (u.y - gamma.c(u)) is least
# at the exponential tilt of (lam, p) along u, so I_opt = min over u of theta_u, the
# positive root of A_u(theta) + log sum_m p_m e^{-theta c_m(u)} = 0, where A_u is the
# arrivals' log moment generating function along u (Glynn & Whitt 1994). Each root
# function over theta (its secant from 0) is nondecreasing, so I_opt is the first
# zero of the largest secant, and theta_{su} = theta_u / s puts it on the face
# sum u = 1. With t_m in place of c_m(u), the root function at a fixed theta is
# jointly convex in (u, t) and decreasing in t, so its largest secant over the
# lifted polytope P = {(u, t): u >= 0, sum u = 1, t_m >= u_i F[m][i]} lies at a
# vertex of P, where t = c(u): one halfspace intersection by scipy's Qhull.

_INCIDENCE_CAP = 500_000


def _vertex_count(n_states: int, n_users: int) -> int:
    """P's vertex count for generic rates: those serving s users are the
    C(M + s - 2, s - 1) vertices of the tropical complex of M points in s - 1
    dimensions (Develin & Sturmfels 2004); with no state, the N corners."""
    return sum(math.comb(n_users, s) * math.comb(max(n_states + s - 2, 0), s - 1) for s in range(1, n_users + 1))


def _dual_candidates(rate_matrix: np.ndarray) -> np.ndarray:
    """The u of P's vertices, rounded to 12 digits, one row each. Qhull works in
    z = (u_1..u_{N-1}, t), where P is full-dimensional, under one bound sum_m t_m
    <= sum_m max F[m] + 1. A vertex on the bound has the u of a vertex of P with
    one state left out, itself a vertex of P, so every u is kept. Qhull's time
    grows with the vertices it builds times their dimension, counted for generic
    rates before any work: above _INCIDENCE_CAP, or if Qhull fails, this raises
    ComputationError."""
    from scipy.spatial import HalfspaceIntersection, QhullError

    N = rate_matrix.shape[1]
    if N == 1:
        return np.ones((1, 1))  # Qhull needs two dimensions
    # states with proportional rates have the same kinks: the first of each stays
    top = rate_matrix.max(axis=1, keepdims=True)
    keys = np.round(rate_matrix / np.where(top > 0, top, 1.0), 12)
    F = rate_matrix[np.sort(np.unique(keys, axis=0, return_index=True)[1])]
    M, D = len(F), N + len(F) - 1
    n_vertices = _vertex_count(M, N)
    n_built = n_vertices + M * _vertex_count(M - 1, N)  # the bound cuts each unbounded edge
    if n_built * D > _INCIDENCE_CAP:
        raise ComputationError(f"the dual polytope of {N} users x {M} distinct states has up to {n_vertices} "
                               f"vertices, {n_built} with its bound's, in {D} dimensions: {n_built * D} "
                               f"vertex-facet incidences, above the cap of {_INCIDENCE_CAP}")
    bound = F.max(axis=1).sum() + 1.0
    rows = np.zeros((N + M * N + 1, N + M + 1))  # [a_u, a_t, b] for a.(u, t) + b <= 0
    rows[:N, :N] = -np.eye(N)  # u_i >= 0
    rows[N:-1, :N] = (F[:, :, None] * np.eye(N)).reshape(M * N, N)  # t_m >= u_i F[m, i]
    rows[N:-1, N:-1] = np.repeat(-np.eye(M), N, axis=0)
    rows[-1, N:] = np.append(np.ones(M), -bound)
    last = rows[:, [N - 1]]  # u_N = 1 - sum of the others; zero rates repeat t_m >= 0
    halfspaces = _unique_rows(np.hstack([rows[:, : N - 1] - last, rows[:, N:-1], rows[:, -1:] + last]))
    c = F.max(axis=1) / N  # c(u) at u = 1/N
    interior = np.concatenate([np.full(N - 1, 1.0 / N), c + (bound - c.sum()) / (2 * M)])
    try:
        z = HalfspaceIntersection(halfspaces, interior).intersections
    except QhullError as exc:
        raise ComputationError(f"Qhull failed on the dual polytope: {str(exc).splitlines()[0]}") from None
    u = np.column_stack([z[:, : N - 1], 1.0 - z[:, : N - 1].sum(axis=1)])
    return _unique_rows(np.round(np.clip(u, 0.0, None), 12))


def _unique_rows(a: np.ndarray) -> np.ndarray:
    """np.unique(a, axis=0) for a 2-D float array, without the sort over a
    structured view that costs np.unique most of its time: one lexsort with
    column 0 as the primary key, then each row equal to the row before it
    goes (== makes -0.0 equal 0.0, as it is in np.unique)."""
    a = a[np.lexsort(a.T[::-1])]
    keep = np.ones(len(a), dtype=bool)
    keep[1:] = np.any(a[1:] != a[:-1], axis=1)
    return a[keep]


@dataclass(frozen=True)
class IoptResult:
    value: float
    arg_y: np.ndarray
    arg_gamma: np.ndarray
    arg_phi: np.ndarray
    arg_w: float


def _canonical_phi(y: np.ndarray, gamma: np.ndarray, w: float, cfg: SystemConfig) -> np.ndarray:
    """Deterministic representative of the optimal-allocation face.

    Among allocations achieving the optimal w, picks a vertex maximizing the
    squared-rate weight sum (time concentrates on high-rate user/state pairs);
    states with all-zero rates get a uniform row since any split is optimal.
    Where users share a rate in some state that vertex is not unique, and
    HiGHS's pivot path picks among them: the pick is repeatable, not canonical.
    """
    _, phi = _allocation_lp(gamma[:, None] * cfg.rate_matrix, y - w - 1e-9, -(cfg.rate_matrix**2), grow=False)
    phi[cfg.rate_matrix.max(axis=1) <= 0] = 1.0 / cfg.n_users
    return _clean_rows(phi)


def compute_iopt(cfg: SystemConfig) -> IoptResult:
    """Optimal overflow decay rate over all scheduling algorithms.

    The infimum of (arrival cost + relative_entropy(gamma, p)) / w_growth(y,
    gamma), computed exactly as min over the dual vertices u of theta_u: the
    first zero of the largest vertex secant, found by one root solve. The
    arrival cost is sum_i poisson_rate(y_i) for Poisson arrivals; fluid
    arrivals cannot deviate, so y stays at the means. The infimum is attained
    at the exponential tilt y_i = lam_i e^{theta u_i} (y = lam for fluid
    arrivals), gamma_m proportional to p_m e^{-theta c_m(u)}.
    """
    lam = cfg.arrival_rates
    p = cfg.state_probs

    w0, phi0 = w_growth(lam, p, cfg)
    if w0 > 1e-9:
        # not stabilizable: the mean path itself overflows at zero deviation cost
        return IoptResult(0.0, lam.copy(), p.copy(), phi0, w0)

    from scipy.optimize import brentq
    from scipy.special import logsumexp

    U = _dual_candidates(cfg.rate_matrix)
    C = np.max(U[:, None, :] * cfg.rate_matrix[None, :, :], axis=2)
    slope0 = U @ lam - C @ p
    fluid = cfg.arrival_model == ARRIVAL_FLUID
    if fluid:
        # a fluid secant rises only to lam.u - min live c_m(u): drop the vertices
        # whose secant never turns positive
        keep = (slope0 >= 0) | (U @ lam > C[:, p > 0].min(axis=1))
        if not keep.any():
            raise ComputationError("no channel deviation makes the largest queue grow")
        U, C, slope0 = U[keep], C[keep], slope0[keep]

    def secants(t: float) -> np.ndarray:
        # each vertex's root function over t: nondecreasing, since it is convex and 0 at 0
        if t == 0.0:
            return slope0
        arrivals = t * (U @ lam) if fluid else np.expm1(t * U) @ lam
        return (arrivals + logsumexp(-t * C, b=p, axis=1)) / t

    theta = 0.0  # when the mean point already grows along some vertex
    if slope0.max() < 0:
        hi = 1.0
        while secants(hi).max() <= 0:
            hi *= 2.0
        theta = brentq(lambda t: secants(t).max(), 0.0, hi, xtol=1e-15, rtol=1e-15)
    k = int(np.argmax(secants(theta)))
    y = lam.copy() if fluid else lam * np.exp(theta * U[k])
    gamma = p * np.exp(-theta * C[k])
    gamma /= gamma.sum()
    w, _ = w_growth(y, gamma, cfg)
    return IoptResult(theta, y, gamma, _canonical_phi(y, gamma, w, cfg), w)


# ---------------------------------------------------------------------------
# the auxiliary growth problem


def aux_growth(
    cfg: SystemConfig, gamma, rho1: float = 0.0, rho2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Smallest achievable max_i [lambda_i - exp(-v_i / max_j v_j + rho1 + rho2)]
    over mean service vectors v achievable under channel distribution gamma.

    Solved in closed form. With t_i = v_i / max_j v_j (t = 0 when v = 0), each
    term g_i(t_i) = lambda_i - e^{rho1 + rho2 - t_i} increases in t_i, and every
    v != 0 gives some user k the value t_k = 1. Serving k alone in every state
    leaves every other user at t = 0, so the minimum over v != 0 is
    min_k max(g_k(1), max_{i != k} g_i(0)). When v = 0 is achievable (every
    state with gamma_m > 0 has a zero-rate user, which includes the case where
    no user can be served) the minimum is max_i g_i(0) and the returned v is
    all zeros. Otherwise some live state serves every user, and the returned v
    is that of serving the lowest-index minimizing k alone: v_k = (gamma F)_k,
    zeros elsewhere. The problem does not involve q_th.
    """
    gamma = _check_prob_vector(gamma, "gamma")
    N = cfg.n_users
    R = gamma[:, None] * cfg.rate_matrix
    # rows 0..N-1: serve user k alone (t = e_k); row N: v = 0 (t = 0)
    t = np.vstack([np.eye(N), np.zeros(N)])
    obj = (cfg.arrival_rates - np.exp(-t + rho1 + rho2)).max(axis=1)
    if np.all(R.min(axis=1) == 0):
        return float(obj[N]), np.zeros(N)
    k = int(np.argmin(obj[:N]))
    return float(obj[k]), np.where(np.arange(N) == k, R.sum(axis=0), 0.0)
