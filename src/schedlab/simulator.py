"""Replicated finite-horizon simulation and overflow statistics.

Replications run in lockstep as rows of numpy arrays, but every replication
draws from its own seeded stream (master_seed, rep_index) in fixed chunk-sized
blocks, so a batch run is bitwise identical to running each replication alone.
Post-burn-in statistics: per-threshold overflow slot counts (stationary mode),
ever-reached flags (episode mode), time-average queues, and the cumulative
service counters.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    IndexOutOfRangeError,
    InsufficientEventsError,
    NoSamplesError,
    TraceUnavailableError,
)
from .model import RandomSource, SystemConfig, TraceCounters, sample_arrivals, sample_channel
from .schedulers import (
    TIE_UNIFORM,
    Exp,
    Heterogeneous,
    MaxWeight,
    Policy,
    normalized_rates,
    stable_scores,
    tied_mask,
    validate_policy,
)
# kept importable from here: perfbench traces selector calls under these names
from .schedulers import exp_select, het_select, mw_select  # noqa: F401

_CHUNK = 32_768  # fixed block size; part of the reproducibility contract

ESTIMATOR_STATIONARY = "stationary"
ESTIMATOR_EPISODE = "episode"

_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile


@dataclass(frozen=True)
class SimSpec:
    """One simulation campaign: horizon slots per replication, thresholds to
    monitor, and the master seed splitting into per-replication streams."""

    horizon: int
    replications: int = 1
    burn_in: int | None = None  # None -> horizon // 10
    thresholds: tuple[float, ...] = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
    master_seed: int = 0
    record_trace: bool = False


def resolved_burn_in(spec: SimSpec) -> int:
    return spec.horizon // 10 if spec.burn_in is None else spec.burn_in


def validate_sim_spec(spec: SimSpec) -> SimSpec:
    if spec.horizon < 1:
        raise ValueError("horizon must be >= 1")
    if spec.replications < 1:
        raise ValueError("replications must be >= 1")
    burn = resolved_burn_in(spec)
    if not 0 <= burn < spec.horizon:
        raise ValueError("burn_in must lie in [0, horizon)")
    th = np.asarray(spec.thresholds, dtype=float)
    if len(th) and (np.any(th <= 0) or np.any(np.diff(th) <= 0)):
        raise ValueError("thresholds must be positive and strictly ascending")
    return spec


@dataclass(frozen=True)
class OverflowEstimate:
    threshold: float
    probability: float
    ci_low: float
    ci_high: float
    n_events: int
    n_samples: int


@dataclass(frozen=True)
class DecayFit:
    rate: float
    stderr: float
    intercept: float
    n_used: int


@dataclass(frozen=True)
class EmpiricalPhi:
    """Conditional service shares per state; rows of unobserved states are NaN."""

    phi: np.ndarray
    observed: np.ndarray


@dataclass
class ReplicationOutput:
    rep_index: int
    counters: TraceCounters
    thresholds: np.ndarray
    overflow_slot_counts: np.ndarray
    ever_reached: np.ndarray
    n_stat_slots: int
    mean_queues: np.ndarray
    trace: dict | None = None


@dataclass
class SimResult:
    overflow: list[OverflowEstimate]
    decay: DecayFit | None
    empirical_phi: EmpiricalPhi
    mean_queues: np.ndarray
    counters: TraceCounters


# ---------------------------------------------------------------------------
# the lockstep engine


def _score_fn(policy: Policy, cfg: SystemConfig):
    """Batched per-slot score table (R x N); argmax-equivalent to the public
    selectors (monotone transforms keep exact ties and ordering)."""
    v = policy.variant
    rates = cfg.rate_matrix
    if isinstance(v, Heterogeneous):
        fnorm = normalized_rates(cfg)
        inv_qth = 1.0 / v.q_th

        def score(Q, m):
            return fnorm[m] + Q * inv_qth

    elif isinstance(v, Exp):
        with np.errstate(divide="ignore"):
            log_rates = np.where(rates > 0, np.log(np.where(rates > 0, rates, 1.0)), -np.inf)
        eta = v.eta

        def score(Q, m):
            denom = 1.0 + Q.mean(axis=1) ** eta
            return Q / denom[:, None] + log_rates[m]

    elif isinstance(v, MaxWeight):
        alpha = v.alpha

        def score(Q, m):
            return (Q * rates[m]) if alpha == 1.0 else (Q**alpha * rates[m])

    else:  # pragma: no cover - validate_policy rejects unknown variants
        raise TypeError(f"unknown policy variant {type(v).__name__}")
    return score


def _tie_pick(scores: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Uniform pick among per-row score ties, driven by one uniform per row."""
    tied = tied_mask(scores)
    counts = tied.sum(axis=1)
    target = np.floor(u * counts).astype(np.int64) + 1
    return (tied.cumsum(axis=1) < target[:, None]).sum(axis=1)


def run_replications(
    cfg: SystemConfig, policy: Policy, spec: SimSpec, rep_indices: list[int]
) -> list[ReplicationOutput]:
    """Run the given replications in lockstep; output order follows rep_indices."""
    validate_policy(policy)
    validate_sim_spec(spec)
    R = len(rep_indices)
    N, M = cfg.n_users, cfg.n_states
    T = spec.horizon
    burn = resolved_burn_in(spec)
    thresholds = np.asarray(spec.thresholds, dtype=float)
    uniform_ties = policy.tie_break == TIE_UNIFORM
    score = _score_fn(policy, cfg)
    gens = [RandomSource(spec.master_seed, r).generator() for r in rep_indices]
    rows = np.arange(R)
    rates = cfg.rate_matrix

    Q = np.zeros((R, N))
    arr_sum = np.zeros((R, N))
    dep_sum = np.zeros((R, N))
    state_slots = np.zeros((R, M), dtype=np.int64)
    served_slots = np.zeros((R, M, N), dtype=np.int64)
    over_counts = np.zeros((R, len(thresholds)), dtype=np.int64)
    ever = np.zeros((R, len(thresholds)), dtype=bool)
    max_seen = np.zeros(R)
    q_sum = np.zeros((R, N))
    initial_q = np.zeros((R, N))

    trace = None
    if spec.record_trace:
        trace = {
            "f": np.zeros((R, T + 1, N)),
            "fhat": np.zeros((R, T + 1, N)),
            "g": np.zeros((R, T + 1, M)),
            "ghat": np.zeros((R, T + 1, M, N)),
            "q": np.zeros((R, T + 1, N)),
        }

    done = 0
    while done < T:
        c = min(_CHUNK, T - done)
        states = np.empty((R, c), dtype=np.int64)
        arr = np.empty((R, c, N))
        u_chunk = np.empty((R, c)) if uniform_ties else None
        for r in range(R):
            states[r] = sample_channel(gens[r], cfg, size=c)
            arr[r] = sample_arrivals(gens[r], cfg, size=c)
            if uniform_ties:
                u_chunk[r] = gens[r].random(c)

        chosen_buf = np.empty((R, c), dtype=np.int64)
        dep_buf = np.empty((R, c))
        qtraj = np.empty((R, c, N))
        for k in range(c):
            m = states[:, k]
            s = score(Q, m)
            if uniform_ties:
                chosen = _tie_pick(s, u_chunk[:, k])
            else:
                chosen = s.argmax(axis=1)
            Q += arr[:, k, :]
            avail = Q[rows, chosen]
            d = np.minimum(avail, rates[m, chosen])
            Q[rows, chosen] = avail - d
            chosen_buf[:, k] = chosen
            dep_buf[:, k] = d
            qtraj[:, k, :] = Q

        if trace is not None:
            sl = slice(done + 1, done + c + 1)
            trace["f"][:, sl, :] = trace["f"][:, done, None, :] + arr.cumsum(axis=1)
            dep_full = np.zeros((R, c, N))
            dep_full[rows[:, None], np.arange(c)[None, :], chosen_buf] = dep_buf
            trace["fhat"][:, sl, :] = trace["fhat"][:, done, None, :] + dep_full.cumsum(axis=1)
            g_full = np.zeros((R, c, M))
            g_full[rows[:, None], np.arange(c)[None, :], states] = 1.0
            trace["g"][:, sl, :] = trace["g"][:, done, None, :] + g_full.cumsum(axis=1)
            gh_full = np.zeros((R, c, M, N))
            gh_full[rows[:, None], np.arange(c)[None, :], states, chosen_buf] = 1.0
            trace["ghat"][:, sl] = trace["ghat"][:, done, None] + gh_full.cumsum(axis=1)
            trace["q"][:, sl, :] = qtraj

        if burn - done > 0 and burn - done <= c:
            initial_q[:] = qtraj[:, burn - done - 1, :] if burn - done >= 1 else 0.0
        lo = max(burn - done, 0)
        if lo < c:
            sl = slice(lo, c)
            arr_sum += arr[:, sl, :].sum(axis=1)
            flat_dep = rows.repeat(c - lo) * N + chosen_buf[:, sl].ravel()
            dep_sum += np.bincount(flat_dep, weights=dep_buf[:, sl].ravel(), minlength=R * N).reshape(R, N)
            flat_mi = (
                rows.repeat(c - lo) * (M * N)
                + states[:, sl].ravel() * N
                + chosen_buf[:, sl].ravel()
            )
            bc = np.bincount(flat_mi, minlength=R * M * N).reshape(R, M, N)
            served_slots += bc
            state_slots += bc.sum(axis=2)
            maxq = qtraj[:, sl, :].max(axis=2)
            if len(thresholds):
                hit = maxq[:, :, None] >= thresholds[None, None, :]
                over_counts += hit.sum(axis=1)
                ever |= hit.any(axis=1)
            max_seen = np.maximum(max_seen, maxq.max(axis=1))
            q_sum += qtraj[:, sl, :].sum(axis=1)
        done += c

    n_stat = T - burn
    outputs = []
    for idx, r in enumerate(rep_indices):
        counters = TraceCounters(
            arrivals=arr_sum[idx].copy(),
            departures=dep_sum[idx].copy(),
            state_slots=state_slots[idx].copy(),
            served_slots=served_slots[idx].copy(),
            horizon=n_stat,
            max_queue_seen=float(max_seen[idx]),
            initial_queues=initial_q[idx].copy(),
            final_queues=Q[idx].copy(),
        )
        rep_trace = None
        if trace is not None:
            rep_trace = {key: val[idx].copy() for key, val in trace.items()}
        outputs.append(
            ReplicationOutput(
                rep_index=r,
                counters=counters,
                thresholds=thresholds.copy(),
                overflow_slot_counts=over_counts[idx].copy(),
                ever_reached=ever[idx].copy(),
                n_stat_slots=n_stat,
                mean_queues=q_sum[idx] / n_stat,
                trace=rep_trace,
            )
        )
    return outputs


def run_replication(
    cfg: SystemConfig, policy: Policy, spec: SimSpec, rep_index: int
) -> ReplicationOutput:
    """One replication, deterministic given (master_seed, rep_index)."""
    return run_replications(cfg, policy, spec, [rep_index])[0]


# ---------------------------------------------------------------------------
# estimators


def _wilson(k: int, n: int) -> tuple[float, float]:
    z2 = _WILSON_Z**2
    phat = k / n
    denom = 1.0 + z2 / n
    center = (phat + z2 / (2 * n)) / denom
    half = _WILSON_Z * np.sqrt(phat * (1 - phat) / n + z2 / (4 * n * n)) / denom
    lo = 0.0 if k == 0 else max(0.0, center - half)
    hi = 1.0 if k == n else min(1.0, center + half)
    return float(lo), float(hi)


def estimate_overflow(
    outputs: list[ReplicationOutput],
    thresholds=None,
    mode: str = ESTIMATOR_STATIONARY,
) -> list[OverflowEstimate]:
    """Per-threshold overflow probability with a Wilson 95% interval.

    Stationary mode: fraction of post-burn-in slots whose largest queue is at
    or above the threshold. Episode mode: fraction of replications that ever
    reach the threshold within the horizon.
    """
    if not outputs:
        raise NoSamplesError("no replication outputs")
    base = outputs[0].thresholds
    if thresholds is None:
        thresholds = base
    thresholds = np.asarray(thresholds, dtype=float)
    idx = []
    for b in thresholds:
        hits = np.flatnonzero(np.isclose(base, b))
        if len(hits) != 1:
            raise ValueError(f"threshold {b} was not monitored by the replications")
        idx.append(hits[0])

    estimates = []
    for b, j in zip(thresholds, idx):
        if mode == ESTIMATOR_STATIONARY:
            k = int(sum(o.overflow_slot_counts[j] for o in outputs))
            n = int(sum(o.n_stat_slots for o in outputs))
        elif mode == ESTIMATOR_EPISODE:
            k = int(sum(bool(o.ever_reached[j]) for o in outputs))
            n = len(outputs)
        else:
            raise ValueError(f"unknown estimator mode {mode!r}")
        lo, hi = _wilson(k, n)
        estimates.append(OverflowEstimate(float(b), k / n, lo, hi, k, n))
    return estimates


def fit_decay_rate(estimates: list[OverflowEstimate], min_events: int = 5) -> DecayFit:
    """Least-squares slope of -log(probability) against the threshold.

    Thresholds with fewer than min_events events are excluded (log of a
    zero-event estimate is undefined); at least two usable points required.
    """
    usable = [e for e in estimates if e.n_events >= min_events]
    if len(usable) < 2:
        raise InsufficientEventsError(
            f"need >= 2 thresholds with >= {min_events} events, have {len(usable)}"
        )
    x = np.array([e.threshold for e in usable])
    y = -np.log(np.array([e.probability for e in usable]))
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    slope, intercept = float(coef[0]), float(coef[1])
    n = len(x)
    if n > 2:
        rss = float(((A @ coef - y) ** 2).sum())
        sxx = float(((x - x.mean()) ** 2).sum())
        se = float(np.sqrt(rss / (n - 2) / sxx))
    else:
        se = 0.0
    return DecayFit(rate=slope, stderr=se, intercept=intercept, n_used=n)


def empirical_phi(counters: TraceCounters) -> EmpiricalPhi:
    """Conditional service-share matrix served_slots[m][i] / state_slots[m]."""
    observed = counters.state_slots > 0
    denom = np.where(observed, counters.state_slots, 1)[:, None]
    phi = counters.served_slots / denom
    phi = np.where(observed[:, None], phi, np.nan)
    return EmpiricalPhi(phi=phi, observed=observed)


def aggregate_counters(outputs: list[ReplicationOutput]) -> TraceCounters:
    """Commutative sum of per-replication counters (order-independent)."""
    return TraceCounters(
        arrivals=sum(o.counters.arrivals for o in outputs),
        departures=sum(o.counters.departures for o in outputs),
        state_slots=sum(o.counters.state_slots for o in outputs),
        served_slots=sum(o.counters.served_slots for o in outputs),
        horizon=sum(o.counters.horizon for o in outputs),
        max_queue_seen=max(o.counters.max_queue_seen for o in outputs),
        initial_queues=sum(o.counters.initial_queues for o in outputs),
        final_queues=sum(o.counters.final_queues for o in outputs),
    )


def run_simulation(
    cfg: SystemConfig,
    policy: Policy,
    spec: SimSpec,
    mode: str = ESTIMATOR_STATIONARY,
) -> SimResult:
    """Full campaign: all replications in one lockstep pass, overflow
    estimates, decay fit, and the empirical allocation matrix."""
    validate_sim_spec(spec)
    outputs = run_replications(cfg, policy, spec, list(range(spec.replications)))

    overflow = estimate_overflow(outputs, mode=mode) if len(spec.thresholds) else []
    try:
        decay = fit_decay_rate(overflow) if overflow else None
    except InsufficientEventsError:
        decay = None
    agg = aggregate_counters(outputs)
    mean_q = np.mean([o.mean_queues for o in outputs], axis=0)
    return SimResult(
        overflow=overflow,
        decay=decay,
        empirical_phi=empirical_phi(agg),
        mean_queues=mean_q,
        counters=agg,
    )


# ---------------------------------------------------------------------------
# scaled processes and decision regions


@dataclass(frozen=True)
class ScaledTrace:
    """Cumulative processes sampled at integer scaled times t: value(B*t)/B."""

    scale: float
    times: np.ndarray
    f: np.ndarray
    fhat: np.ndarray
    g: np.ndarray
    ghat: np.ndarray
    q: np.ndarray


def scaled_trace(output: ReplicationOutput, scale: float) -> ScaledTrace:
    """Rescale a recorded trace by B: emits (F, Fhat, G, Ghat, Q)(B t)/B at
    integer scaled times; cumulative counts are step functions, so non-integer
    B*t floors to the enclosing slot."""
    if output.trace is None:
        raise TraceUnavailableError("replication was run without record_trace")
    if scale <= 0:
        raise ValueError("scale must be > 0")
    T = output.trace["f"].shape[0] - 1
    t_max = int(np.floor(T / scale))
    times = np.arange(t_max + 1)
    idx = np.floor(times * scale).astype(np.int64)
    tr = output.trace
    return ScaledTrace(
        scale=scale,
        times=times,
        f=tr["f"][idx] / scale,
        fhat=tr["fhat"][idx] / scale,
        g=tr["g"][idx] / scale,
        ghat=tr["ghat"][idx] / scale,
        q=tr["q"][idx] / scale,
    )


REGION_ALWAYS_A = "always_a"
REGION_ALWAYS_B = "always_b"
REGION_MIXED = "mixed"
REGION_OTHER = "other"
REGION_TIE = "tie"


@dataclass(frozen=True)
class RegionMap:
    """Grid of scheduling-decision labels over two queue axes.

    labels[ia, ib] describes point (q_values[ia], q_values[ib]): which axis
    user wins in every positive-probability, positive-rate channel state, or
    "mixed" when it varies by state, "other" when a fixed off-axis user wins
    everywhere, "tie" when some state leaves a non-singleton tied set.
    """

    axis_users: tuple[int, int]
    grid_step: float
    grid_max: float
    fixed_queues: np.ndarray
    q_values: np.ndarray
    labels: np.ndarray


def decision_regions(
    cfg: SystemConfig,
    policy: Policy,
    axis_users: tuple[int, int],
    fixed_queues: np.ndarray | None = None,
    grid_max: float = 40.0,
    grid_step: float = 1.0,
) -> RegionMap:
    a, b = axis_users
    if a == b:
        raise ValueError("axis users must be distinct")
    for user in (a, b):
        if not 0 <= user < cfg.n_users:
            raise IndexOutOfRangeError(f"axis user {user} outside [0, {cfg.n_users})")
    if grid_step <= 0:
        raise ValueError("grid_step must be > 0")
    if grid_step > grid_max:
        raise ValueError("grid_step may not exceed grid_max")
    validate_policy(policy)
    if fixed_queues is None:
        fixed_queues = np.zeros(cfg.n_users)
    fixed_queues = np.asarray(fixed_queues, dtype=float)
    if fixed_queues.shape != (cfg.n_users,):
        raise ValueError(
            f"fixed_queues needs one entry per user ({cfg.n_users}), got shape {fixed_queues.shape}"
        )
    if not np.all(np.isfinite(fixed_queues)):
        raise ValueError(f"fixed_queues must be finite, got {fixed_queues.tolist()}")
    if np.any(fixed_queues < 0):
        raise ValueError(f"fixed_queues must be >= 0, got {fixed_queues.tolist()}")

    live_states = [
        m
        for m in range(cfg.n_states)
        if cfg.state_probs[m] > 0 and cfg.rate_matrix[m].max() > 0
    ]
    q_values = np.arange(0.0, grid_max + grid_step / 2, grid_step)
    G = len(q_values)

    # one row per grid point, in (ia, ib) order
    grid = np.tile(fixed_queues, (G * G, 1))
    grid[:, a] = np.repeat(q_values, G)
    grid[:, b] = np.tile(q_values, G)
    tie = np.zeros(G * G, dtype=bool)
    chosen = np.empty((len(live_states), G * G), dtype=np.int64)
    for k, m in enumerate(live_states):
        tied = tied_mask(stable_scores(policy.variant, cfg, grid, np.full(G * G, m)))
        tie |= tied.sum(axis=1) > 1
        chosen[k] = tied.argmax(axis=1)  # lowest tied index

    conditions = [
        tie,
        (chosen == a).all(axis=0),
        (chosen == b).all(axis=0),
        ((chosen != a) & (chosen != b)).all(axis=0),
    ]
    names = np.array(
        [REGION_TIE, REGION_ALWAYS_A, REGION_ALWAYS_B, REGION_OTHER, REGION_MIXED], dtype=object
    )
    labels = names[np.select(conditions, [0, 1, 2, 3], 4)].reshape(G, G)
    return RegionMap(
        axis_users=(a, b),
        grid_step=grid_step,
        grid_max=grid_max,
        fixed_queues=fixed_queues,
        q_values=q_values,
        labels=labels,
    )
