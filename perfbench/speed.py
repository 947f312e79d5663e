"""Host-speed sampling, and the time a measurement would have taken at a
fixed reference speed.

On a host whose virtual CPUs are shared, the same work can take twice as
long from one second to the next, so raw wall times of separate runs are
not comparable within a useful bound. While the measured process runs, a
timer signal interrupts it every ``INTERVAL_S`` seconds of wall time to run
two short probes outside the program:

- a user-time probe, small-array numpy operations interleaved with
  pure-Python arithmetic, the kind of work that dominates schedlab's slot
  loop, region maps and I_opt search (either kind alone tracked the
  program's own speed changes less well);
- a system-time probe, page faults on a fresh anonymous mapping, the kind of
  work that takes nearly half of the 5-user I_opt, whose large temporary
  arrays are faulted in anew on every call.

A probe's reference time divided by the time it took just now is the
host's speed for that kind of work at that moment. A timed interval's wall
time, times the mean speeds sampled inside it weighted by the interval's own
user/system CPU split, is the time the interval would have taken at the
reference speed.

The probes measure the speed of one CPU as the program's single thread sees
it. An interval in which the program ran on more than one CPU (its own
CPU time exceeds the interval's wall time, or any process it started used
CPU time) is reported at its raw wall time instead: there the probes compete
with the program's other threads or workers and would read their load as a
slower host.
"""

from __future__ import annotations

import bisect
import mmap
import os
import resource
import signal
import statistics
import time
from typing import NamedTuple

import numpy as np

# The probes' times at the reference speed: about the fastest this 2-vCPU
# Xeon host ran them. They only set the unit; changing them rescales every
# reported time.
USER_REF_S = 0.0009
SYSTEM_REF_S = 0.0005
INTERVAL_S = 0.05

_ROUNDS = 300
_Q = np.zeros(8)
_ROWS = np.arange(2)
_FAULT_PAGES = 256
_TOUCH = b"\x01" * _FAULT_PAGES


def probe() -> tuple[float, float]:
    """Seconds the user-time probe and the system-time probe took just now."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(_ROUNDS):
        q = _Q + 1.0
        q[_ROWS] -= 0.5
        acc += int(q.argmax())
        for j in range(20):
            acc = (acc + i * j) % 1_000_003
    t1 = time.perf_counter()
    with mmap.mmap(-1, _FAULT_PAGES * mmap.PAGESIZE) as m:
        m[::mmap.PAGESIZE] = _TOUCH
    return t1 - t0, time.perf_counter() - t1


_TICK_S = 1.0 / os.sysconf("SC_CLK_TCK")
# own CPU time above this share of the wall time means more than one thread ran
_ONE_CPU = 1.02


class Usage(NamedTuple):
    """CPU seconds used so far by this process, all its threads together,
    and by its descendants: reaped ones from getrusage, live ones from /proc;
    and the pids of the live descendants."""
    user: float
    system: float
    children: float
    live: tuple


def _live_descendants() -> dict[int, float]:
    """CPU seconds used so far by each live descendant of this process, from
    /proc (empty where there is none)."""
    kids: dict[int, list[int]] = {}
    cpu: dict[int, float] = {}
    try:
        entries = list(os.scandir("/proc"))
    except OSError:
        return {}
    for entry in entries:
        if not entry.name.isdigit():
            continue
        try:
            with open(f"/proc/{entry.name}/stat", "rb") as f:
                stat = f.read()
        except OSError:  # exited meanwhile
            continue
        fields = stat[stat.rindex(b")") + 2:].split()  # state, ppid, ... utime, stime
        pid = int(entry.name)
        kids.setdefault(int(fields[1]), []).append(pid)
        cpu[pid] = (int(fields[11]) + int(fields[12])) * _TICK_S
    found, todo = {}, [os.getpid()]
    while todo:
        for pid in kids.get(todo.pop(), ()):
            found[pid] = cpu[pid]
            todo.append(pid)
    return found


def usage() -> Usage:
    me = resource.getrusage(resource.RUSAGE_SELF)
    reaped = resource.getrusage(resource.RUSAGE_CHILDREN)
    live = _live_descendants()
    return Usage(me.ru_utime, me.ru_stime,
                 reaped.ru_utime + reaped.ru_stime + sum(live.values()), tuple(live))


def on_one_cpu(wall_s: float, before: Usage, after: Usage) -> bool:
    """Whether the program ran on one CPU at a time between two readings
    ``wall_s`` apart: one thread at a time and no CPU time in other processes."""
    own = (after.user - before.user) + (after.system - before.system)
    return after.children == before.children and own <= _ONE_CPU * wall_s


def descendants_rss_mb(pids) -> float:
    """The summed high-water RSS of the given live processes."""
    kib = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as f:
                kib += next((int(line.split()[1]) for line in f if line.startswith("VmHWM:")), 0)
        except OSError:  # exited meanwhile
            continue
    return kib / 1024.0


class Sampler:
    """Samples the host's speed on SIGALRM; the process has one at most."""

    def __init__(self):
        self.times: list[float] = []  # perf_counter at each sample, increasing
        self.speeds: list[tuple[float, float]] = []  # (user, system) speed at that sample

    def sample(self, *_) -> None:
        user_s, system_s = probe()
        self.times.append(time.perf_counter())
        self.speeds.append((USER_REF_S / user_s, SYSTEM_REF_S / system_s))

    def start(self, interval: float = INTERVAL_S) -> None:
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def speed(self, start: float, end: float, user: float, system: float) -> float:
        """Mean speed sampled in [start, end], each kind weighted by the CPU
        seconds of that kind the interval used. The last sample before end
        stands in for an interval shorter than the sampling period."""
        lo = bisect.bisect_left(self.times, start)
        hi = bisect.bisect_right(self.times, end)
        if hi == 0:
            self.sample()
            window = self.speeds[-1:]
        else:
            window = self.speeds[lo:hi] if hi > lo else self.speeds[hi - 1:hi]
        user_speed = statistics.fmean(s[0] for s in window)
        system_speed = statistics.fmean(s[1] for s in window)
        busy = user + system
        if busy <= 0:
            return user_speed
        return (user * user_speed + system * system_speed) / busy

    def factor(self, start: float, end: float, before: Usage, after: Usage) -> float:
        """The interval's time at reference speed over its wall time: its
        sampled speed, or 1 when the program did not run on one CPU in it."""
        if not on_one_cpu(end - start, before, after):
            return 1.0
        return self.speed(start, end, after.user - before.user, after.system - before.system)
