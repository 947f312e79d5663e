"""Spans around the calls into schedlab's layers, recorded from the
benchmark's own files.

A span is (name, start, end, parent, run): ``parent`` is the index of the
enclosing span or -1, ``run`` the index of the command it belongs to. Spans
stay in memory and are written out when the benchmark ends. Each layer
function is wrapped at the module attribute its caller looks up, so the
program's files are untouched. A function missing from a later version of
the program cannot be wrapped: its metrics read 0, as those of a layer that
is not called do, and its name goes into ``Tracer.missing``, which run.py
prints, so that a lost measurement is not read as a layer made free.
"""

from __future__ import annotations

import time
from collections import Counter, defaultdict
from contextlib import contextmanager

NAME, START, END, PARENT, RUN = range(5)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.run = 0
        self.active = True
        self._stack: list[int] = []
        self._restore: list[tuple] = []
        self.missing: list[str] = []  # module.attr names that could not be wrapped

    def open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.run])
        self._stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self.open(name)
        try:
            yield
        finally:
            self.close(idx)

    @contextmanager
    def paused(self):
        """Calls made inside (the benchmark's own output checks) record nothing."""
        self.active = False
        try:
            yield
        finally:
            self.active = True

    def wrap(self, module, attr: str, name: str, count=None) -> None:
        """Record a span around every call of module.attr; count(counts,
        result, args, kwargs) adds the call's work to the counters."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return

        def traced(*args, **kwargs):
            if not self.active:
                return original(*args, **kwargs)
            idx = self.open(name)
            try:
                result = original(*args, **kwargs)
            finally:
                self.close(idx)
            if count is not None:
                count(self.counts, result, args, kwargs)
            return result

        setattr(module, attr, traced)
        self._restore.append((module, attr, original))

    def uninstall(self) -> None:
        while self._restore:
            module, attr, original = self._restore.pop()
            setattr(module, attr, original)


def self_times(spans: list[list]) -> list[float]:
    """Each span's duration minus the part of its interval its children cover."""
    own = [s[END] - s[START] for s in spans]
    for s in spans:
        p = s[PARENT]
        if p >= 0:
            parent = spans[p]
            own[p] -= max(0.0, min(s[END], parent[END]) - max(s[START], parent[START]))
    return own


# ---------------------------------------------------------------------------
# the layer boundaries


def _arg(args, kwargs, pos: int, key: str):
    return kwargs[key] if key in kwargs else args[pos]


def _count_channel(counts, result, args, kwargs):
    size = kwargs.get("size", args[2] if len(args) > 2 else None)
    counts["model.draws"] += 1 if size is None else size


def _count_arrivals(counts, result, args, kwargs):
    cfg = _arg(args, kwargs, 1, "cfg")
    if cfg.arrival_model == "poisson":
        size = kwargs.get("size", args[2] if len(args) > 2 else None)
        counts["model.draws"] += cfg.n_users * (1 if size is None else size)


def _count_replications(counts, result, args, kwargs):
    spec = _arg(args, kwargs, 2, "spec")
    rows = len(_arg(args, kwargs, 3, "rep_indices"))
    counts["simulator.lockstep_slots"] += spec.horizon
    counts["simulator.rep_slots"] += spec.horizon * rows
    counts["simulator.row_sum"] += rows


def _count_nfev(counts, result, args, kwargs):
    counts["ldp.minimize_nfev"] += int(getattr(result, "nfev", 0))


def install_layers(tracer: Tracer) -> None:
    """Wrap the functions at each layer boundary the workloads cross."""
    from schedlab import cli, ldp, simulator, svg

    w = tracer.wrap
    w(simulator, "sample_channel", "model.sample", _count_channel)
    w(simulator, "sample_arrivals", "model.sample", _count_arrivals)
    w(simulator, "run_replications", "simulator.engine", _count_replications)
    for fn in ("estimate_overflow", "fit_decay_rate", "empirical_phi"):
        w(simulator, fn, "simulator.stats")
    w(cli, "decision_regions", "simulator.regions")
    for fn in ("het_select", "exp_select", "mw_select"):
        w(simulator, fn, "schedulers.select")
    w(cli, "compute_iopt", "ldp.compute_iopt")
    w(ldp, "minimize", "ldp.minimize", _count_nfev)
    w(ldp, "w_growth", "ldp.w_growth")
    w(ldp, "solve_standard_form", "lp.solve")
    w(svg, "line_chart", "svg.render")
    w(svg, "region_chart", "svg.render")


# per-layer metric -> (unit, better); the order is the order of BENCHMARK.json
LAYER_METRICS = {
    "model.sample_s": ("s", "lower"),
    "model.draws": ("count", "lower"),
    "simulator.engine_s": ("s", "lower"),
    "simulator.rep_slots": ("count", "higher"),
    "simulator.us_per_lockstep_slot": ("us", "lower"),
    "simulator.rows": ("count", "higher"),
    "simulator.passes": ("count", "lower"),
    "simulator.stats_s": ("s", "lower"),
    "simulator.regions_s": ("s", "lower"),
    "schedulers.select_calls": ("count", "lower"),
    "schedulers.select_s": ("s", "lower"),
    "ldp.compute_iopt_s": ("s", "lower"),
    "ldp.minimize_nfev": ("count", "lower"),
    "ldp.minimize_s": ("s", "lower"),
    "ldp.w_growth_calls": ("count", "lower"),
    "ldp.w_growth_s": ("s", "lower"),
    "lp.solve_calls": ("count", "lower"),
    "lp.solve_s": ("s", "lower"),
    "svg.render_s": ("s", "lower"),
    "cli.self_s": ("s", "lower"),
    "cli.bytes_written": ("bytes", "lower"),
    "trace.overhead_s": ("s", "lower"),
    "trace.uncovered_s": ("s", "lower"),
}


def layer_metrics(tracer: Tracer, passes: int, pass_wall_s: float, overhead_s: float) -> dict:
    """Per-pass layer metrics from the spans and counters of ``passes`` traced
    passes that took ``pass_wall_s`` in total, checks included."""
    total: dict[str, float] = defaultdict(float)
    own: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    covered = 0.0
    for span, self_s in zip(tracer.spans, self_times(tracer.spans)):
        name = span[NAME]
        total[name] += span[END] - span[START]
        own[name] += self_s
        calls[name] += 1
        if span[PARENT] < 0:
            covered += span[END] - span[START]
    c = tracer.counts
    engine_calls = calls["simulator.engine"]
    lockstep = c["simulator.lockstep_slots"]
    values = {
        "model.sample_s": total["model.sample"],
        "model.draws": c["model.draws"],
        "simulator.engine_s": own["simulator.engine"],
        "simulator.rep_slots": c["simulator.rep_slots"],
        "simulator.us_per_lockstep_slot": 1e6 * own["simulator.engine"] / lockstep if lockstep else 0.0,
        "simulator.rows": c["simulator.row_sum"] / engine_calls if engine_calls else 0.0,
        "simulator.passes": engine_calls,
        "simulator.stats_s": total["simulator.stats"],
        "simulator.regions_s": own["simulator.regions"],
        "schedulers.select_calls": calls["schedulers.select"],
        "schedulers.select_s": total["schedulers.select"],
        "ldp.compute_iopt_s": own["ldp.compute_iopt"],
        "ldp.minimize_nfev": c["ldp.minimize_nfev"],
        "ldp.minimize_s": total["ldp.minimize"],
        "ldp.w_growth_calls": calls["ldp.w_growth"],
        "ldp.w_growth_s": total["ldp.w_growth"],
        "lp.solve_calls": calls["lp.solve"],
        "lp.solve_s": total["lp.solve"],
        "svg.render_s": total["svg.render"],
        "cli.self_s": own["cli.main"],
        "cli.bytes_written": c["cli.bytes_written"],
        "trace.uncovered_s": pass_wall_s - covered,
    }
    # every count and time above is a per-pass figure except the ratios
    per_pass = {k: (v if k in ("simulator.us_per_lockstep_slot", "simulator.rows") else v / passes)
                for k, v in values.items()}
    per_pass["trace.overhead_s"] = overhead_s
    return per_pass
