"""The tests' slot replay: numpy's own draws for a replication, and what a
traced run's choices make of them.

A traced run reports only the user it served in each slot; its draws never
leave the kernel. The tests rebuild the run from numpy's own calls on a fresh
generator and those choices, with the one replay of the queue update below,
so that they check the choices against the specified rule on queues the
kernel did not write, and the kernel's statistics against a reduction of
those queues, bit for bit.
"""

import re
from dataclasses import dataclass, fields
from functools import cached_property

import numpy as np

from schedlab import simulator
from schedlab.model import RandomSource, TraceCounters, channel_cdf
from schedlab.schedulers import TIE_UNIFORM, stable_scores, tied_mask


def kernel_defines():
    """_slots.c's integer #defines by name, CHUNK, STREAM_LEN, GROUP,
    SUB_BLOCK and POW_MEMO among them: the sizes the kernel alone keeps."""
    source = simulator._SLOTS_SOURCE.read_text()
    return {name: int(value) for name, value in re.findall(r"^#define (\w+) (\d+)$", source, re.MULTILINE)}


KERNEL = kernel_defines()
# slots per chunk of draws, and doubles in each row's draw buffer
CHUNK, STREAM_LEN = KERNEL["CHUNK"], KERNEL["STREAM_LEN"]


def bitwise_equal(a, b):
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def source_generator(seed, rep):
    """The generator run_replications draws replication rep from."""
    return RandomSource(seed, rep).generator()


def numpys_draws(cfg, seed, rep, horizon, tie_break, make_generator=source_generator):
    """The draws numpy's own calls make on a fresh make_generator(seed, rep)
    for horizon slots, chunk by chunk: state, tie_uniform (empty for
    lowest-index ties) and arrivals (horizon x N)."""
    ref = make_generator(seed, rep)
    draws = {"state": [], "arrivals": [], "tie_uniform": []}
    for done in range(0, horizon, CHUNK):
        c = min(CHUNK, horizon - done)
        draws["state"].append(np.searchsorted(channel_cdf(cfg), ref.random(c), side="right"))
        if tie_break == TIE_UNIFORM:
            draws["tie_uniform"].append(ref.random(c))
        if cfg.arrival_model == "fluid":
            draws["arrivals"].append(np.tile(cfg.arrival_rates, (c, 1)))
        else:
            draws["arrivals"].append(ref.poisson(cfg.arrival_rates, size=(c, cfg.n_users)).astype(float))
    return {key: np.concatenate(parts) if parts else np.empty(0) for key, parts in draws.items()}


@dataclass
class Replay:
    """One traced run rebuilt, per slot: numpy's draws (state, tie_uniform,
    arrivals), the run's choices, and the queues before and after the slot
    and the departure that the queue update makes of them."""

    policy: object
    state: np.ndarray
    tie_uniform: np.ndarray
    arrivals: np.ndarray
    chosen: np.ndarray
    before: np.ndarray
    departure: np.ndarray
    after: np.ndarray

    @cached_property
    def largest(self):
        """The largest queue after each slot."""
        return np.maximum.reduce(self.after, axis=1)


def queue_loop(arrivals, served, rate):
    """The queues after each slot, (T + 1) x K behind empty queues, and the
    departures (T x R) of K flat queues fed arrivals (T x K), one slot at a
    time: each slot adds its arrivals to every queue, then drains d = q[k]
    if q[k] < rate else rate from each served queue k (served and rate, T x
    R): walk_chunk's order and comparison, so every float is the kernel's,
    bit for bit."""
    T, K = arrivals.shape
    q, departure = np.zeros((T + 1, K)), np.empty(rate.shape)
    for t in range(T):
        now = q[t + 1]
        np.add(q[t], arrivals[t], out=now)
        k = served[t]
        backlog = now[k]
        d = np.where(backlog < rate[t], backlog, rate[t])
        now[k] = backlog - d
        departure[t] = d
    return q, departure


def queue_lindley(arrivals, served, rate):
    """queue_loop's queues and departures in Lindley's form, q(t) = S(t) -
    min(0, S(1), ..., S(t)) with S the running sum of arrivals less each
    slot's drain, all slots at once. It is queue_loop's bit for bit when
    every arrival and rate is an integer and every running sum of their
    magnitudes stays below 2^53, as then no sum rounds. It is there for
    tier-1's time: with the slot loop alone the suite took about 6 s
    longer on a 2-core host."""
    T = len(arrivals)
    slots = np.arange(T)[:, None]
    net = arrivals.copy()
    net[slots, served] -= rate
    running = np.cumsum(net, axis=0)
    q = np.zeros((T + 1, arrivals.shape[1]))
    q[1:] = running - np.minimum(np.minimum.accumulate(running, axis=0), 0.0)
    return q, (q[:-1] + arrivals - q[1:])[slots, served]


def exact_in_floats(arrivals, rate):
    """queue_lindley's condition: every arrival and rate an integer, and the
    sum of all their magnitudes, which bounds every running sum, below 2^53."""
    return (np.array_equal(arrivals, np.trunc(arrivals)) and np.array_equal(rate, np.trunc(rate))
            and np.abs(arrivals).sum() + np.abs(rate).sum() < 2.0**53)


def replay_runs(cfg, runs, make_generator=source_generator):
    """Each traced run of cfg, given as (policy, spec, output), rebuilt from
    numpy's draws on a fresh make_generator(spec.master_seed,
    output.rep_index) and the output's choices, from empty queues, every
    row in one queue_loop (queue_lindley where that is exact)."""
    draws, rows = {}, []
    for policy, spec, out in runs:
        key = (spec.master_seed, out.rep_index, len(out.trace), policy.tie_break)
        if key not in draws:
            draws[key] = numpys_draws(cfg, *key, make_generator)
        rows.append((policy, draws[key], out.trace))
    T, R, N = max(len(chosen) for *_, chosen in rows), len(rows), cfg.n_users
    # the rows time-major, shorter ones padded with slots that add nothing
    # and serve their row's user 0 at rate 0; served flattens (row, user)
    arrivals, rate = np.zeros((T, R, N)), np.zeros((T, R))
    served = np.tile(np.arange(R) * N, (T, 1))
    for r, (_, d, chosen) in enumerate(rows):
        arrivals[:len(chosen), r] = d["arrivals"]
        rate[:len(chosen), r] = cfg.rate_matrix[d["state"], chosen]
        served[:len(chosen), r] += chosen
    arrivals = arrivals.reshape(T, R * N)
    queues = queue_lindley if exact_in_floats(arrivals, rate) else queue_loop
    q, departure = queues(arrivals, served, rate)
    q = q.reshape(T + 1, R, N)
    replays = []
    for r, (policy, d, chosen) in enumerate(rows):
        path = np.ascontiguousarray(q[:len(chosen) + 1, r])
        replays.append(Replay(policy, d["state"], d["tie_uniform"], d["arrivals"], chosen, path[:-1],
                              np.ascontiguousarray(departure[:len(chosen), r]), path[1:]))
    return replays


def uniform_pick(tied, u):
    """The selectors' uniform rule per row: the floor(u * count)-th tied user."""
    return (tied.cumsum(axis=1) > np.floor(u * tied.sum(axis=1))[:, None]).argmax(axis=1)


def rule_choices(cfg, rp):
    """The users the replay's policy serves in each slot by the specified
    rule, stable_scores and tied_mask on the queues before the slot's
    arrivals (its tie uniform picks among the tied users under uniform
    ties), and the tied sets."""
    tied = tied_mask(stable_scores(rp.policy.variant, cfg, rp.before, rp.state))
    if rp.policy.tie_break == TIE_UNIFORM:
        return uniform_pick(tied, rp.tie_uniform), tied
    return tied.argmax(axis=1), tied


def reduce_replay(rp, burn, thresholds, n_states):
    """The replayed run's statistics from slot burn on as a left-to-right
    reduction: cumulative sums along the slot axis, np.add.at in slot order,
    and threshold counts. Returns (counters, overflow slot counts, mean
    queues)."""
    states, arr, chosen = rp.state[burn:], rp.arrivals[burn:], rp.chosen[burn:]
    dep, after = rp.departure[burn:], rp.after[burn:]
    N = arr.shape[1]
    dep_sum = np.zeros(N)
    np.add.at(dep_sum, chosen, dep)
    served_slots = np.zeros((n_states, N), dtype=np.int64)
    np.add.at(served_slots, (states, chosen), 1)
    maxq = rp.largest[burn:]
    counters = TraceCounters(
        arrivals=np.cumsum(arr, axis=0)[-1], departures=dep_sum, served_slots=served_slots,
        max_queue_seen=float(maxq.max()),
        initial_queues=rp.after[burn - 1] if burn > 0 else np.zeros(N), final_queues=rp.after[-1],
    )
    over = (maxq[:, None] >= np.asarray(thresholds, dtype=float)).sum(axis=0)
    return counters, over, np.cumsum(after, axis=0)[-1] / len(after)


def assert_reduces_to(out, rp, burn, thresholds, n_states, where):
    """out's statistics are bitwise the reduction of the replay rp from slot
    burn on."""
    counters, over, mean_q = reduce_replay(rp, burn, thresholds, n_states)
    for f in fields(TraceCounters):
        assert bitwise_equal(getattr(out.counters, f.name), getattr(counters, f.name)), (where, f.name)
    assert bitwise_equal(out.overflow_slot_counts, over), where
    assert bitwise_equal(out.mean_queues, mean_q), where


def assert_replays(cfg, runs, make_generator=source_generator):
    """Each traced run (policy, spec, output) of cfg, replayed from numpy's
    draws: every slot serves the user the policy's rule picks on the
    replayed queues, and the statistics are bitwise the replay's reduction
    at spec's burn-in. Returns the replays."""
    replays = replay_runs(cfg, runs, make_generator)
    for (policy, spec, out), rp in zip(runs, replays):
        where = (policy, spec.horizon, out.rep_index)
        assert np.array_equal(out.trace, rule_choices(cfg, rp)[0]), where
        assert_reduces_to(out, rp, simulator.resolved_burn_in(spec), spec.thresholds, cfg.n_states, where)
    return replays
