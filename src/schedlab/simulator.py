"""Replicated finite-horizon simulation and overflow statistics.

Every replication draws from its own seeded stream (master_seed, rep_index)
in fixed chunk-sized blocks of channel states, tie uniforms for uniform ties,
and arrivals, bitwise what numpy's own calls on its Generator draw.
One call of a small C kernel (_slots.c, compiled with the system's `cc`
against numpy's static random library libnpyrandom.a on first use and cached
by the hash of its source, that library and the flags) runs a whole campaign
of one or more policies on the same draws (common random numbers), each
deciding exactly as `select` does; _slots.c says how it draws and walks them
and what scratch it keeps. The same walk adds each post-burn-in slot into
each policy-row's record of queues and float sums and its counts (service,
and how many thresholds the largest queue reaches), which the lanes walk as
laid out here. With record_trace it also keeps the user served in each slot,
which the tests replay against numpy's draws; the draws never leave the kernel.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import subprocess
import sys
import tempfile
import threading
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import ComputationError
from .model import (
    ARRIVAL_FLUID,
    RandomSource,
    SystemConfig,
    TraceCounters,
    channel_cdf,
    require_integer,
)
from .schedulers import TIE_UNIFORM, Policy, rate_table, stable_scores, tied_mask

ESTIMATOR_STATIONARY = "stationary"
ESTIMATOR_EPISODE = "episode"
ESTIMATORS = (ESTIMATOR_STATIONARY, ESTIMATOR_EPISODE)

_WILSON_Z = 1.959963984540054  # 95% two-sided normal quantile

DEFAULT_THRESHOLDS = (5.0, 10.0, 15.0, 20.0, 25.0, 30.0, 35.0, 40.0)
# fewest overflow events a threshold needs to enter the decay fit
MIN_FIT_EVENTS = 5
# longest horizon: the kernel's int64 slot counter steps by chunks of 32 768
# slots and must not pass 2**63 - 1
MAX_HORIZON = 10**18


@dataclass(frozen=True)
class SimSpec:
    """One simulation campaign: horizon slots per replication, thresholds to
    monitor, the overflow estimator (see estimate_overflow) and the master
    seed splitting into per-replication streams. Checked whenever one is
    built, dataclasses.replace included; the thresholds are kept as a tuple
    of floats, so no later write to the sequence given skips the checks."""

    horizon: int
    replications: int = 1
    # None -> horizon // 10, resolved when read, so a replaced horizon moves it
    burn_in: int | None = None
    thresholds: tuple[float, ...] = DEFAULT_THRESHOLDS
    master_seed: int = 0
    record_trace: bool = False
    estimator: str = ESTIMATOR_STATIONARY

    def __post_init__(self):
        for name in ("horizon", "replications", "master_seed"):
            require_integer(name, getattr(self, name))
        if self.burn_in is not None:
            require_integer("burn_in", self.burn_in)
        if not isinstance(self.record_trace, (bool, np.bool_)):
            raise ValueError(f"record_trace must be a bool, got {self.record_trace!r}")
        if self.estimator not in ESTIMATORS:
            raise ValueError(f"estimator must be one of {ESTIMATORS}, got {self.estimator!r}")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")
        if self.horizon > MAX_HORIZON:
            raise ValueError(f"horizon must be <= {MAX_HORIZON:.0e} slots, got {self.horizon}")
        if self.replications < 1:
            raise ValueError("replications must be >= 1")
        if self.replications > sys.maxsize:  # the largest count a range or an array can hold
            raise ValueError(f"replications must be <= {sys.maxsize}, got {self.replications}")
        if self.master_seed < 0:
            raise ValueError(f"master_seed must be >= 0, got {self.master_seed}")
        if not 0 <= resolved_burn_in(self) < self.horizon:
            raise ValueError("burn_in must lie in [0, horizon)")
        object.__setattr__(self, "thresholds", tuple(float(b) for b in self.thresholds))
        th = np.array(self.thresholds)
        if th.size == 0:
            raise ValueError("thresholds may not be empty: give at least one overflow threshold")
        if not np.all(np.isfinite(th)):
            raise ValueError(f"thresholds must be finite, got {th.tolist()}")
        if np.any(th <= 0) or np.any(np.diff(th) <= 0):
            raise ValueError("thresholds must be positive and strictly ascending")


def resolved_burn_in(spec: SimSpec) -> int:
    return spec.horizon // 10 if spec.burn_in is None else spec.burn_in


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


@dataclass
class ReplicationOutput:
    """Post-burn-in statistics over counters.horizon slots and, with
    record_trace, the trace: the (T,) int64 array of the user served in
    each slot, burn-in included; None otherwise."""

    rep_index: int
    counters: TraceCounters
    thresholds: np.ndarray
    overflow_slot_counts: np.ndarray
    mean_queues: np.ndarray
    trace: np.ndarray | None = None


@dataclass
class SimResult:
    overflow: list[OverflowEstimate]
    decay: DecayFit | None
    empirical_phi: np.ndarray
    mean_queues: np.ndarray
    counters: TraceCounters


# ---------------------------------------------------------------------------
# the slot recursion


_SLOTS_SOURCE = Path(__file__).with_name("_slots.c")
_CC = "cc"
_CFLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
# numpy's headers (numpy/random/bitgen.h: the bit generator interface) and
# its static random library, whose Poisson sampler the kernel links
_NPY_INCLUDE = np.get_include()
_NPYRANDOM = Path(np.__file__).with_name("random") / "lib" / "libnpyrandom.a"


def _build(command: list[str], library: Path, path: Path) -> None:
    """Compile _slots.c, linked with numpy's random library, to path through
    a temp file in path's directory, so a concurrent first call never loads
    a partial library, then remove the libraries of other hashes there: they
    belong to an older source, numpy library or compile command."""
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    os.close(fd)
    argv = [*command, "-o", tmp, str(_SLOTS_SOURCE), str(library), "-lm"]
    failure = f"cannot build the slot kernel: {' '.join(argv)}"
    try:
        try:
            proc = subprocess.run(argv, capture_output=True, text=True)
        except OSError as exc:
            raise ComputationError(f"{failure}: {exc}") from exc
        if proc.returncode != 0:
            raise ComputationError(f"{failure} exited {proc.returncode}: {proc.stderr.strip()}")
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    for stale in path.parent.glob("_slots-*.so"):
        if stale != path:
            stale.unlink(missing_ok=True)


@functools.cache
def _slot_kernel(cc: str, library: Path):
    """The compiled slot recursion, linked with numpy's random library, built
    on first use and cached on disk under the sha256 of its source, that
    library and the compile command, so a numpy upgrade in place rebuilds it."""
    command = [cc, *_CFLAGS, f"-I{_NPY_INCLUDE}"]
    try:
        library_bytes = library.read_bytes()
    except OSError as exc:
        raise ComputationError(f"cannot build the slot kernel: numpy's random library "
                               f"{library} cannot be read: {exc.strerror}") from exc
    digest = hashlib.sha256(_SLOTS_SOURCE.read_bytes() + library_bytes + "\0".join(command).encode())
    name = f"_slots-{digest.hexdigest()[:16]}.so"
    path = Path(__file__).with_name("__pycache__") / name
    try:
        path.parent.mkdir(exist_ok=True)
        if not path.is_file():
            _build(command, library, path)
    except OSError:  # a read-only install: keep the library per user instead
        user_dir = Path(tempfile.gettempdir()) / f"schedlab-{os.getuid()}"
        try:
            user_dir.mkdir(mode=0o700, exist_ok=True)
            if user_dir.stat().st_uid != os.getuid():
                raise ComputationError(f"cannot build the slot kernel: {user_dir} belongs to another user")
            path = user_dir / name
            if not path.is_file():
                _build(command, library, path)
        except OSError as exc:
            raise ComputationError(f"cannot build the slot kernel: {exc}") from exc
    return _load_kernel(path)


def _load_kernel(path: Path):
    """run_slots from the built library at path, with its argument types."""
    fn = ctypes.CDLL(str(path)).run_slots
    f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    ptrs = np.ctypeslib.ndpointer(np.uintp, flags="C_CONTIGUOUS")
    c_int, c_i64 = ctypes.c_int, ctypes.c_int64
    fn.argtypes = [c_i64, i64, f64, f64, c_int, c_int, c_i64, c_i64, c_i64, c_i64, c_i64, c_i64,
                   c_i64, ptrs, f64, f64, f64, f64, c_i64, f64, i64, f64, c_int, i64]
    fn.restype = c_i64
    return fn


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def run_replications(
    cfg: SystemConfig, policies: list[Policy], spec: SimSpec, rep_indices: list[int]
) -> list[list[ReplicationOutput]]:
    """Run the given replications under every policy: one output list per
    policy, in policy order, each in rep_indices order. rep_indices must be
    non-empty, of integers >= 0; a ValueError names the bad entry otherwise.

    Each replication draws, per chunk of c slots (_slots.c's CHUNK), what
    numpy's own calls on its generator draw: searchsorted(channel_cdf(cfg),
    gen.random(c), side="right"), then gen.random(c) for uniform ties, then
    gen.poisson(arrival_rates, size=(c, N)) or the rates themselves for
    fluid arrivals. Every policy walks the same draws with the score and tie
    rule of schedulers.stable_scores and tied_mask, so the policies must
    share one tie_break, and each policy's outputs for each replication are
    bitwise those of running it alone. The float statistics sum left to
    right. counters.arrivals depends on the draws alone: every policy's
    output holds a read-only view of one row.

    The rows run in min(R, usable CPUs) contiguous slices, one kernel call
    each, concurrently: the caller's thread walks the first and one thread
    each the others. A row's results depend on its own generator alone, so
    the outputs are bitwise those of one call over every row. One slice
    starts no thread. A slice's exception is raised here once every slice
    has ended; of several, the lowest slice's. A kernel call that cannot
    allocate its scratch raises MemoryError, naming the bytes it needs.
    """
    if not policies:
        raise ValueError("run_replications needs at least one policy")
    if not rep_indices:
        raise ValueError("run_replications needs at least one replication index")
    for r in rep_indices:
        require_integer("rep_indices entry", r)
        if r < 0:
            raise ValueError(f"rep_indices entries must be >= 0, got {r}")
    tie_breaks = sorted({p.tie_break for p in policies})
    if len(tie_breaks) > 1:
        raise ValueError(f"policies run on shared draws must share one tie_break, got "
                         f"{' and '.join(map(repr, tie_breaks))}")
    fluid = cfg.arrival_model == ARRIVAL_FLUID
    kernel = _slot_kernel(_CC, _NPYRANDOM)
    P, R = len(policies), len(rep_indices)
    N, M = cfg.n_users, cfg.n_states
    T = spec.horizon
    burn = resolved_burn_in(spec)
    thresholds = np.array(spec.thresholds)
    uniform_ties = tie_breaks[0] == TIE_UNIFORM
    rules = np.array([p.variant.code for p in policies], dtype=np.int64)
    params = np.array([getattr(p.variant, p.variant.param) for p in policies], dtype=float)
    tables = np.ascontiguousarray([rate_table(p.variant, cfg) for p in policies], dtype=float)
    rates = np.ascontiguousarray(cfg.rate_matrix, dtype=float)
    lam = np.ascontiguousarray(cfg.arrival_rates, dtype=float)
    cum = channel_cdf(cfg)
    # the generators own the bit generators the kernel draws from: keep them
    # referenced until it returns
    gens = [RandomSource(spec.master_seed, r).generator() for r in rep_indices]
    bitgens = np.array([g.bit_generator.ctypes.bit_generator.value for g in gens], dtype=np.uintp)

    K = len(thresholds)
    # each policy-row's two records in _slots.c's lane layout (see output), carried
    # through its slice's kernel call; the arrivals are the draws', one row for every policy
    rec = np.zeros((P, R, 4 * N + 1))
    cnt = np.zeros((P, R, M * N + K + 1), dtype=np.int64)
    arr_sum = np.empty((R, N))
    # with record_trace, each policy's choices
    chosen = np.empty((P, R, T) if spec.record_trace else (0, 0, 0), dtype=np.int64)

    def walk(r_lo: int, r_hi: int) -> None:
        """Rows r_lo <= r < r_hi in one kernel call."""
        needed = kernel(P, rules, params, tables, uniform_ties, fluid, R, r_lo, r_hi, T, burn, N,
                        M, bitgens, cum, lam, rates, thresholds, K, rec, cnt, arr_sum,
                        bool(spec.record_trace), chosen)
        if needed:
            raise MemoryError(f"the slot kernel cannot allocate its {needed}-byte scratch")

    S = min(R, _usable_cpus())
    bounds = [R * k // S for k in range(S + 1)]
    errors: list[BaseException | None] = [None] * S

    def walk_slice(k: int) -> None:
        try:
            walk(bounds[k], bounds[k + 1])
        except BaseException as exc:  # raised in the caller's thread, below
            errors[k] = exc

    started = []
    try:
        for k in range(1, S):
            thread = threading.Thread(target=walk_slice, args=(k,), name=f"schedlab-rows-{k}")
            thread.start()
            started.append(thread)
        walk(bounds[0], bounds[1])
    finally:
        for thread in started:
            thread.join()
    for exc in errors:
        if exc is not None:
            raise exc

    arr_sum.flags.writeable = thresholds.flags.writeable = False
    n_stat = T - burn

    def output(p: int, i: int, rep: int) -> ReplicationOutput:
        queues, initial, departures, queue_sums = rec[p, i, :4 * N].reshape(4, N)
        served, reached = cnt[p, i, :M * N].reshape(M, N), cnt[p, i, M * N:]
        return ReplicationOutput(
            rep_index=rep,
            counters=TraceCounters(
                arrivals=arr_sum[i], departures=departures, served_slots=served,
                max_queue_seen=float(rec[p, i, 4 * N]), initial_queues=initial, final_queues=queues,
            ),
            thresholds=thresholds,
            # slots reaching thresholds[j]: those reaching more than j of them
            overflow_slot_counts=np.cumsum(reached[:0:-1])[::-1],
            mean_queues=queue_sums / n_stat,
            trace=chosen[p, i] if spec.record_trace else None,
        )

    return [[output(p, i, rep) for i, rep in enumerate(rep_indices)] for p in range(P)]


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
    outputs: list[ReplicationOutput], mode: str = ESTIMATOR_STATIONARY
) -> list[OverflowEstimate]:
    """Per-threshold overflow probability with a Wilson 95% interval.

    Stationary mode: fraction of post-burn-in slots whose largest queue is at
    or above the threshold. Episode mode: fraction of replications whose
    largest queue reaches the threshold after the burn-in (burn-in 0 covers
    the whole run from empty).
    """
    if not outputs:
        raise ValueError("no replication outputs")
    counts = np.array([o.overflow_slot_counts for o in outputs])
    if mode == ESTIMATOR_STATIONARY:
        events, n = counts.sum(axis=0), sum(o.counters.horizon for o in outputs)
    elif mode == ESTIMATOR_EPISODE:
        events, n = (counts > 0).sum(axis=0), len(outputs)
    else:
        raise ValueError(f"unknown estimator mode {mode!r}")
    return [
        OverflowEstimate(float(b), int(k) / n, *_wilson(int(k), n), int(k), n)
        for b, k in zip(outputs[0].thresholds, events)
    ]


def fit_decay_rate(estimates: list[OverflowEstimate]) -> DecayFit | None:
    """Least-squares slope of -log(probability) against the threshold.

    Thresholds with fewer than MIN_FIT_EVENTS events are excluded (log of a
    zero-event estimate is undefined); None when fewer than two remain.
    """
    usable = [e for e in estimates if e.n_events >= MIN_FIT_EVENTS]
    if len(usable) < 2:
        return None
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


def empirical_phi(counters: TraceCounters) -> np.ndarray:
    """The conditional service-share matrix (M x N) served_slots[m][i] /
    state_slots[m], NaN in the rows of states never observed
    (counters.state_slots == 0)."""
    state_slots = counters.state_slots[:, None]
    return np.where(state_slots > 0, counters.served_slots / np.maximum(state_slots, 1), np.nan)


def aggregate_counters(outputs: list[ReplicationOutput]) -> TraceCounters:
    """Sum of per-replication counters in the order given, and the largest
    max_queue_seen. The counts are exact in any order; the float sums
    (arrivals, departures and queues, fractional under fluid arrivals) add
    left to right in replication order, so another order may move their
    last bits."""
    return TraceCounters(
        arrivals=sum(o.counters.arrivals for o in outputs),
        departures=sum(o.counters.departures for o in outputs),
        served_slots=sum(o.counters.served_slots for o in outputs),
        max_queue_seen=max(o.counters.max_queue_seen for o in outputs),
        initial_queues=sum(o.counters.initial_queues for o in outputs),
        final_queues=sum(o.counters.final_queues for o in outputs),
    )


def run_simulation(cfg: SystemConfig, policies: list[Policy], spec: SimSpec) -> list[SimResult]:
    """Full campaign of every policy on the same replications, in one
    run_replications call: one SimResult per policy, in policy order, each
    with its overflow estimates (by spec.estimator), decay fit and empirical
    allocation matrix."""
    results = []
    for outputs in run_replications(cfg, policies, spec, list(range(spec.replications))):
        overflow = estimate_overflow(outputs, spec.estimator)
        agg = aggregate_counters(outputs)
        results.append(SimResult(
            overflow=overflow,
            decay=fit_decay_rate(overflow),
            empirical_phi=empirical_phi(agg),
            mean_queues=np.mean([o.mean_queues for o in outputs], axis=0),
            counters=agg,
        ))
    return results


# ---------------------------------------------------------------------------
# decision regions


# most grid points x users a region map scores per channel state; a
# 1001 x 1001 grid over 4 users (4e6 scores) peaks at 0.2 GB (ru_maxrss) in
# decision_regions and 0.35 GB in `regions`, which also writes its CSV and SVG
_REGION_SCORE_CAP = 2**24


@dataclass(frozen=True)
class RegionMap:
    """Grid of scheduling-decision labels over two queue axes.

    labels[ia, ib] describes point (q_values[ia], q_values[ib]), the other
    users' queues held at the fixed queues the map was made with: "always_a"
    or "always_b" when that axis user wins in every positive-probability,
    positive-rate channel state, "mixed" when the winner varies by state,
    "other" when a fixed off-axis user wins everywhere, "tie" when some state
    leaves a non-singleton tied set.
    """

    axis_users: tuple[int, int]
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
            raise ValueError(f"axis user {user} outside [0, {cfg.n_users})")
    if not np.isfinite(grid_max):
        raise ValueError(f"grid_max must be finite, got {grid_max}")
    if not grid_step > 0:
        raise ValueError("grid_step must be > 0")
    if grid_step > grid_max:
        raise ValueError("grid_step may not exceed grid_max")
    n_grid = float(np.ceil((grid_max + grid_step / 2) / grid_step))  # len(q_values) below
    n_scores = n_grid * n_grid * cfg.n_users
    if n_scores > _REGION_SCORE_CAP:
        raise ComputationError(
            f"a {n_grid:.15g} x {n_grid:.15g} grid over {cfg.n_users} users needs {n_scores:.15g} "
            f"scores per channel state, above the cap of {_REGION_SCORE_CAP}"
        )
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
    names = np.array(["tie", "always_a", "always_b", "other", "mixed"], dtype=object)
    labels = names[np.select(conditions, [0, 1, 2, 3], 4)].reshape(G, G)
    return RegionMap(axis_users=(a, b), q_values=q_values, labels=labels)
