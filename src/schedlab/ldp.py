"""Large-deviations machinery: rate functions, path costs, and decay-rate optimization.

The central objects:

* ``poisson_rate`` / ``relative_entropy`` -- per-slot deviation costs of the
  arrival and channel-state empirical processes.
* ``w_growth`` -- the min-max LP giving the smallest achievable growth rate of
  the largest queue when arrivals run at ``y`` and channel states follow ``gamma``.
* ``compute_iopt`` -- the best possible overflow decay rate: the infimum of
  (arrival cost + channel cost) / growth over all overflow-driving deviations.
* ``aux_growth`` -- the auxiliary min-max problem tying the scheduler's
  normalized-rate exponent to the growth rate of the largest queue.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import brentq, linprog, minimize

from .errors import (
    MalformedPathError,
    NegativeArgumentError,
    NotAProbabilityVectorError,
    SolverFailureError,
)
from .model import ARRIVAL_FLUID, SystemConfig

PROB_TOL = 1e-9


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
        raise NegativeArgumentError("xi must be >= 0")
    if np.any(lam_arr <= 0):
        raise NegativeArgumentError("lam must be > 0")
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
        raise NotAProbabilityVectorError(f"{name} must be 1-D")
    if np.any(v < 0):
        raise NotAProbabilityVectorError(f"{name} has negative entries")
    if abs(v.sum() - 1.0) > PROB_TOL:
        raise NotAProbabilityVectorError(f"{name} sums to {v.sum()}, not 1 within {PROB_TOL}")
    return v


def _kl(gamma: np.ndarray, p: np.ndarray) -> float:
    """KL divergence kernel; assumes inputs are (near-)probability vectors."""
    total = 0.0
    for g, pm in zip(gamma, p):
        if g > 0:
            if pm <= 0:
                return math.inf
            total += g * math.log(g / pm)
    return total


def relative_entropy(gamma, p) -> float:
    """H(gamma || p) with 0*ln(0/p) = 0; +inf when gamma puts mass where p has none."""
    gamma = _check_prob_vector(gamma, "gamma")
    p = _check_prob_vector(p, "p")
    if gamma.shape != p.shape:
        raise NotAProbabilityVectorError("gamma and p must have equal length")
    return _kl(gamma, p)


# ---------------------------------------------------------------------------
# piecewise-linear path costs


@dataclass(frozen=True)
class PathSample:
    """Piecewise-linear cumulative paths on a shared time grid.

    times is ascending starting at the path origin; f_values (len(times), N)
    and g_values (len(times), M) are the cumulative arrival and channel-state
    counts, both nondecreasing componentwise.
    """

    times: np.ndarray
    f_values: np.ndarray
    g_values: np.ndarray


def path_cost(path: PathSample, cfg: SystemConfig) -> float:
    """Integrated deviation cost of a path; +inf when a step's channel
    increment is not a probability distribution over the step length."""
    t = np.asarray(path.times, dtype=float)
    f = np.asarray(path.f_values, dtype=float)
    g = np.asarray(path.g_values, dtype=float)
    if t.ndim != 1 or len(t) < 2:
        raise MalformedPathError("times must be a 1-D grid with at least two points")
    if f.shape != (len(t), cfg.n_users) or g.shape != (len(t), cfg.n_states):
        raise MalformedPathError("f_values/g_values shapes disagree with the time grid")
    dt = np.diff(t)
    if np.any(dt <= 0):
        raise MalformedPathError("times must be strictly ascending")
    df = np.diff(f, axis=0)
    dg = np.diff(g, axis=0)
    if np.any(df < -1e-12) or np.any(dg < -1e-12):
        raise MalformedPathError("paths must be nondecreasing componentwise")

    fdot = np.clip(df, 0.0, None) / dt[:, None]
    gdot = np.clip(dg, 0.0, None) / dt[:, None]
    total = 0.0
    for k in range(len(dt)):
        if abs(gdot[k].sum() - 1.0) > PROB_TOL * max(1.0, 1.0 / dt[k]):
            return math.inf
        h = _kl(gdot[k], cfg.state_probs)
        if math.isinf(h):
            return math.inf
        total += dt[k] * (float(np.sum(poisson_rate(fdot[k], cfg.arrival_rates))) + h)
    return total


# ---------------------------------------------------------------------------
# allocation matrices and the growth-rate LP


@dataclass(frozen=True)
class AllocationMatrix:
    """Row-stochastic per-state time shares: phi[m][i] = fraction of state-m
    slots in which user i is served."""

    phi: np.ndarray

    def __post_init__(self):
        phi = np.asarray(self.phi, dtype=float)
        object.__setattr__(self, "phi", phi)
        if phi.ndim != 2:
            raise ValueError("phi must be a 2-D matrix")
        if np.any(phi < -1e-12) or np.any(phi > 1.0 + 1e-12):
            raise ValueError("phi entries must lie in [0, 1]")
        sums = phi.sum(axis=1)
        if np.any(np.abs(sums - 1.0) > PROB_TOL):
            raise ValueError(f"phi rows must sum to 1 within {PROB_TOL}, got {sums}")


def _clean_rows(phi: np.ndarray) -> np.ndarray:
    phi = np.clip(phi, 0.0, None)
    return phi / phi.sum(axis=1, keepdims=True)


def solve_standard_form(c, A, b) -> tuple[np.ndarray, float]:
    """Minimize c.x s.t. A x = b, x >= 0 with HiGHS; returns (x, objective).

    Raises SolverFailureError on any non-success status (infeasible,
    unbounded, iteration limit, numerical trouble).
    """
    res = linprog(c, A_eq=A, b_eq=b, method="highs")
    if not res.success:
        raise SolverFailureError(f"LP failed: {res.message}")
    return res.x, float(res.fun)


def w_growth(y, gamma, cfg: SystemConfig) -> tuple[float, AllocationMatrix]:
    """Minimum achievable growth rate of the largest queue.

    Solves min w s.t. w >= y_i - sum_m gamma_m phi[m][i] F[m][i] for all i,
    rows of phi stochastic, everything nonnegative. Returns the optimum and a
    minimizing allocation.
    """
    y = np.asarray(y, dtype=float)
    if np.any(y < 0):
        raise NegativeArgumentError("y entries must be >= 0")
    gamma = _check_prob_vector(gamma, "gamma")
    M, N = cfg.n_states, cfg.n_users
    if y.shape != (N,) or gamma.shape != (M,):
        raise SolverFailureError("y/gamma dimensions disagree with the config")

    R = gamma[:, None] * cfg.rate_matrix  # (M, N) effective service rates
    # variables: [w, phi (M*N), surplus (N)]
    nv = 1 + M * N + N
    A = np.zeros((N + M, nv))
    b = np.zeros(N + M)
    for i in range(N):
        A[i, 0] = 1.0
        A[i, 1 + i::N][:M] = R[:, i]
        A[i, 1 + M * N + i] = -1.0
        b[i] = y[i]
    for m in range(M):
        A[N + m, 1 + m * N : 1 + (m + 1) * N] = 1.0
        b[N + m] = 1.0
    c = np.zeros(nv)
    c[0] = 1.0
    x, value = solve_standard_form(c, A, b)
    phi = _clean_rows(x[1 : 1 + M * N].reshape(M, N))
    return max(0.0, value), AllocationMatrix(phi)


def is_stabilizable(cfg: SystemConfig, epsilon: float = 0.0) -> tuple[bool, AllocationMatrix | None]:
    """True iff some allocation serves every user at >= lambda_i (1 + epsilon)
    under the true state distribution; returns the witness allocation."""
    w, phi = w_growth(cfg.arrival_rates * (1.0 + epsilon), cfg.state_probs, cfg)
    if w <= 1e-9:
        return True, phi
    return False, None


# ---------------------------------------------------------------------------
# the decay-rate optimization by convex duality
#
# The LP dual is w(y, gamma) = max_{u >= 0, sum u <= 1} [u.y - sum_m gamma_m c_m(u)]
# with c_m(u) = max_i u_i F[m][i], a concave piecewise-linear maximization whose
# optimum sits on a vertex of the arrangement cut by the hyperplanes
# u_i F[m][i] = u_j F[m][j]. For a fixed u, cost / (u.y - gamma.c(u)) is least at
# the exponential tilt of (lam, p) along u, so I_opt = min over vertices u of
# theta_u, the positive root of A_u(theta) + log sum_m p_m e^{-theta c_m(u)} = 0,
# where A_u is the arrivals' log moment generating function along u (Glynn &
# Whitt 1994).

_CANDIDATE_CAP = 400_000
_SUBSET_BLOCK = 2048  # hyperplane subsets per stacked det/solve; bounds memory


def _dual_candidates(rate_matrix: np.ndarray) -> np.ndarray:
    """Vertices of the dual arrangement inside {u >= 0, sum u <= 1}.

    Raises SolverFailureError when the number of hyperplane subsets to try
    exceeds _CANDIDATE_CAP, instead of running for hours.
    """
    M, N = rate_matrix.shape
    rows = [np.eye(N)[i] for i in range(N)]
    rhs = [0.0] * N
    rows.append(np.ones(N))
    rhs.append(1.0)
    seen = {tuple(np.round(r, 12)) for r in rows}
    for m in range(M):
        for i in range(N):
            for j in range(i + 1, N):
                a = np.zeros(N)
                a[i] = rate_matrix[m, i]
                a[j] = -rate_matrix[m, j]
                norm = np.max(np.abs(a))
                if norm == 0:
                    continue
                key = tuple(np.round(a / norm, 12))
                key_neg = tuple(np.round(-a / norm, 12))
                if key in seen or key_neg in seen:
                    continue
                seen.add(key)
                rows.append(a)
                rhs.append(0.0)
    n_subsets = math.comb(len(rows), N)
    if n_subsets > _CANDIDATE_CAP:
        raise SolverFailureError(
            f"dual-vertex enumeration needs {n_subsets} candidate subsets of {len(rows)} "
            f"hyperplanes, above the cap of {_CANDIDATE_CAP}"
        )
    A = np.array(rows)
    b = np.array(rhs)
    subsets = itertools.combinations(range(len(rows)), N)
    cands = []
    for start in range(0, n_subsets, _SUBSET_BLOCK):
        count = min(_SUBSET_BLOCK, n_subsets - start)
        idx = np.fromiter(
            itertools.chain.from_iterable(itertools.islice(subsets, count)),
            dtype=np.intp,
            count=count * N,
        ).reshape(count, N)
        idx = idx[~(np.abs(np.linalg.det(A[idx])) < 1e-12)]
        u = np.linalg.solve(A[idx], b[idx][:, :, None])[:, :, 0]
        u = u[np.all(u >= -1e-9, axis=1) & (u.sum(axis=1) <= 1.0 + 1e-9)]
        cands.append(np.clip(u, 0.0, None))
    return np.unique(np.round(np.concatenate(cands), 12), axis=0)


@dataclass(frozen=True)
class IoptResult:
    value: float
    arg_y: np.ndarray
    arg_gamma: np.ndarray
    arg_phi: AllocationMatrix
    arg_w: float


def _canonical_phi(y: np.ndarray, gamma: np.ndarray, w: float, cfg: SystemConfig) -> np.ndarray:
    """Deterministic representative of the optimal-allocation face.

    Among allocations achieving the optimal w, picks the vertex maximizing the
    squared-rate weight sum (time concentrates on high-rate user/state pairs);
    states with all-zero rates get a uniform row since any split is optimal.
    """
    M, N = cfg.n_states, cfg.n_users
    R = gamma[:, None] * cfg.rate_matrix
    req = y - w - 1e-9
    keep = [i for i in range(N) if req[i] > 0]
    nk = len(keep)
    nv = M * N + nk
    A = np.zeros((nk + M, nv))
    b = np.zeros(nk + M)
    for r, i in enumerate(keep):
        A[r, i::N][:M] = R[:, i]
        A[r, M * N + r] = -1.0
        b[r] = req[i]
    for m in range(M):
        A[nk + m, m * N : (m + 1) * N] = 1.0
        b[nk + m] = 1.0
    c = np.zeros(nv)
    c[: M * N] = -(cfg.rate_matrix**2).ravel()
    x, _ = solve_standard_form(c, A, b)
    phi = x[: M * N].reshape(M, N)
    dead = cfg.rate_matrix.max(axis=1) <= 0
    phi[dead] = 1.0 / N
    return _clean_rows(phi)


def _logsumexp(z: np.ndarray, p: np.ndarray) -> float:
    """log sum_m p_m e^{z_m} for weights p >= 0 with some p_m > 0, in the
    operation order of scipy.special.logsumexp(z, b=p), so roots match it
    bitwise: zero weights drop out, the max terms are split out of the sum."""
    z = np.where(p == 0, -np.inf, z)
    z_max = z.max()
    at_max = z == z_max
    m = np.sum(p * at_max)
    s = np.sum(p * np.exp(np.where(at_max, -np.inf, z) - z_max))
    return np.log1p(s if s == 0 else s / m) + np.log(m) + z_max


def _vertex_theta(u: np.ndarray, c: np.ndarray, cfg: SystemConfig) -> float:
    """Positive root theta_u along dual vertex u with state costs c = c(u):
    0 when the mean point already grows along u, +inf when the root function
    never turns positive."""
    lam, p = cfg.arrival_rates, cfg.state_probs
    fluid = cfg.arrival_model == ARRIVAL_FLUID
    slope0 = lam @ u - p @ c
    if slope0 >= 0:
        return 0.0
    if fluid and lam @ u <= c[p > 0].min():
        return math.inf  # the secant below rises only to lam.u - min c <= 0

    def secant(t: float) -> float:
        # root function over t: nondecreasing, since it is convex and 0 at 0
        if t == 0.0:
            return slope0
        arrivals = t * (lam @ u) if fluid else lam @ np.expm1(t * u)
        return (arrivals + _logsumexp(-t * c, p)) / t

    hi = 1.0
    while secant(hi) <= 0:
        hi *= 2.0
    return brentq(secant, 0.0, hi, xtol=1e-15, rtol=1e-15)


def compute_iopt(cfg: SystemConfig) -> IoptResult:
    """Optimal overflow decay rate over all scheduling algorithms.

    The infimum of (arrival cost + relative_entropy(gamma, p)) / w_growth(y,
    gamma), computed exactly as min over the dual vertices u of theta_u. The
    arrival cost is sum_i poisson_rate(y_i) for Poisson arrivals; fluid
    arrivals cannot deviate, so y stays at the means. The minimizer is the
    exponential tilt y_i = lam_i e^{theta u_i} (y = lam for fluid arrivals),
    gamma_m proportional to p_m e^{-theta c_m(u)}.
    """
    lam = cfg.arrival_rates
    p = cfg.state_probs

    w0, phi0 = w_growth(lam, p, cfg)
    if w0 > 1e-9:
        # the mean path itself overflows at zero deviation cost
        return IoptResult(0.0, lam.copy(), p.copy(), phi0, w0)

    cands = _dual_candidates(cfg.rate_matrix)
    cands = cands[cands.sum(axis=1) > 0]
    costs = np.max(cands[:, None, :] * cfg.rate_matrix[None, :, :], axis=2)
    thetas = [_vertex_theta(u, c, cfg) for u, c in zip(cands, costs)]
    k = int(np.argmin(thetas))
    theta = thetas[k]
    if math.isinf(theta):
        raise SolverFailureError("no channel deviation makes the largest queue grow")

    y = lam.copy() if cfg.arrival_model == ARRIVAL_FLUID else lam * np.exp(theta * cands[k])
    gamma = p * np.exp(-theta * costs[k])
    gamma /= gamma.sum()
    w, _ = w_growth(y, gamma, cfg)
    phi = AllocationMatrix(_canonical_phi(y, gamma, w, cfg))
    return IoptResult(theta, y, gamma, phi, w)


# ---------------------------------------------------------------------------
# the auxiliary growth problem


def _gamma_from_beta(beta: np.ndarray, m: int) -> np.ndarray:
    """Stick-breaking map from [0,1]^(m-1) onto the m-simplex."""
    g = np.empty(m)
    rest = 1.0
    for j in range(m - 1):
        g[j] = rest * beta[j]
        rest *= 1.0 - beta[j]
    g[m - 1] = rest
    return g


def _beta_from_gamma(gamma: np.ndarray) -> np.ndarray:
    m = len(gamma)
    beta = np.empty(m - 1)
    rest = 1.0
    for j in range(m - 1):
        beta[j] = min(max(gamma[j] / rest, 0.0), 1.0) if rest > 1e-300 else 0.0
        rest -= gamma[j]
    return beta


def _row_lattice(n: int, parts: int) -> np.ndarray:
    """All compositions of `parts` into n nonnegative cells, scaled to the simplex."""
    combos = itertools.combinations(range(parts + n - 1), n - 1)
    out = []
    for cut in combos:
        prev = -1
        row = []
        for c in cut:
            row.append(c - prev - 1)
            prev = c
        row.append(parts + n - 2 - prev)
        out.append(row)
    return np.array(out, dtype=float) / parts


def aux_growth(
    cfg: SystemConfig, gamma, rho1: float = 0.0, rho2: float = 0.0
) -> tuple[float, np.ndarray]:
    """Smallest achievable max_i [lambda_i - exp(-v_i / max_j v_j + rho1 + rho2)]
    over mean service vectors v achievable under channel distribution gamma.

    Nonconvex in the allocation (exponential of a ratio), so this seeds a
    per-state simplex lattice and polishes with Nelder-Mead; the returned
    value never exceeds any lattice point. When every achievable v is zero
    the normalized-rate term is defined as 0, mirroring the selector rule.
    """
    gamma = _check_prob_vector(gamma, "gamma")
    lam = cfg.arrival_rates
    M, N = cfg.n_states, cfg.n_users
    R = gamma[:, None] * cfg.rate_matrix

    def value_of(phi: np.ndarray) -> tuple[float, np.ndarray]:
        v = (R * phi).sum(axis=0)
        vmax = v.max()
        t = v / vmax if vmax > 0 else np.zeros(N)
        return float(np.max(lam - np.exp(-t + rho1 + rho2))), v

    uniform = np.full((M, N), 1.0 / N)
    if R.max() <= 0:
        return value_of(uniform)[0], np.zeros(N)

    if N == 1:
        return value_of(np.ones((M, 1)))

    # lattice granularity chosen so the candidate count stays desk-sized
    parts = 1
    while True:
        per_row = math.comb(parts + 1 + N - 1, N - 1)
        if per_row**M > 25_000 or parts >= 16:
            break
        parts += 1
    lattice = _row_lattice(N, parts)
    combos = np.array(list(itertools.product(range(len(lattice)), repeat=M)))
    cand = lattice[combos]  # (B, M, N)
    cand = np.concatenate([uniform[None], cand], axis=0)

    v_all = np.einsum("bmn,mn->bn", cand, R)
    vmax = v_all.max(axis=1)
    t = np.where(vmax[:, None] > 0, v_all / np.where(vmax[:, None] > 0, vmax[:, None], 1.0), 0.0)
    obj = (lam[None, :] - np.exp(-t + rho1 + rho2)).max(axis=1)

    order = np.argsort(obj, kind="stable")
    best_phi = cand[order[0]]
    best_val = float(obj[order[0]])

    def objective(x: np.ndarray) -> float:
        beta = np.clip(x, 0.0, 1.0).reshape(M, N - 1)
        phi = np.array([_gamma_from_beta(beta[m], N) for m in range(M)])
        return value_of(phi)[0]

    for idx in order[:3]:
        phi0 = _clean_rows(cand[idx] + 1e-9)
        x0 = np.concatenate([_beta_from_gamma(phi0[m]) for m in range(M)])
        res = minimize(
            objective,
            x0,
            method="Nelder-Mead",
            options={"fatol": 1e-10, "xatol": 1e-10, "maxiter": 20_000, "maxfev": 20_000},
        )
        if res.fun < best_val - 1e-15:
            best_val = float(res.fun)
            beta = np.clip(res.x, 0.0, 1.0).reshape(M, N - 1)
            best_phi = np.array([_gamma_from_beta(beta[m], N) for m in range(M)])

    val, v = value_of(best_phi)
    return val, v
