"""System model: configuration, seeded streams and the channel's cumulative law.

The system is N users sharing a single downlink channel. Time is slotted; each
slot the channel is in one of M i.i.d. states drawn from ``state_probs``. When
user i is selected in state m it drains up to ``rate_matrix[m][i]`` packets.
Arrivals are per-slot Poisson draws at rate ``arrival_rates[i]`` (default) or a
deterministic fluid of exactly ``arrival_rates[i]`` packets per slot. The
simulator's compiled kernel draws and updates every slot itself.
"""

from __future__ import annotations

import json
from dataclasses import MISSING, dataclass, fields
from pathlib import Path

import numpy as np

PROB_SUM_TOL = 1e-9
# packets by which TraceCounters' conservation identities may miss
BALANCE_ATOL = 1e-9

ARRIVAL_POISSON = "poisson"
ARRIVAL_FLUID = "fluid"
ARRIVAL_MODELS = (ARRIVAL_POISSON, ARRIVAL_FLUID)
# the largest Poisson rate numpy's Generator.poisson accepts (numpy.random's
# POISSON_LAM_MAX): the count must fit a C long
POISSON_LAM_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


def require_integer(name: str, value) -> None:
    """A count must be a Python or numpy integer, not a float or a bool: a
    ValueError naming the field otherwise."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")


@dataclass(frozen=True)
class SystemConfig:
    """Ground truth of one experiment.

    rate_matrix is row-major with rows indexed by channel state:
    rate_matrix[m][i] = packets/slot served to user i when the state is m.
    """

    n_users: int
    n_states: int
    state_probs: np.ndarray
    rate_matrix: np.ndarray
    arrival_rates: np.ndarray
    arrival_model: str = ARRIVAL_POISSON

    def __post_init__(self):
        """Check every field on construction, dataclasses.replace included,
        and store the arrays as read-only float copies, state_probs divided by
        its sum, so no write after construction skips these checks. Any bad
        field raises ValueError naming it: a count that is not an integer, a
        wrong shape, a non-finite or negative entry, a sum more than 1e-9 from
        1, no users or no states, or a Poisson rate above POISSON_LAM_MAX.
        """
        for name, n in (("n_users", self.n_users), ("n_states", self.n_states)):
            require_integer(name, n)
            if n < 1:
                raise ValueError(f"{name} must be >= 1, got {n}")
        p = np.array(self.state_probs, dtype=float)
        rates = np.array(self.rate_matrix, dtype=float)
        lam = np.array(self.arrival_rates, dtype=float)

        if p.shape != (self.n_states,):
            raise ValueError(f"state_probs has shape {p.shape}, expected ({self.n_states},)")
        if rates.shape != (self.n_states, self.n_users):
            raise ValueError(f"rate_matrix has shape {rates.shape}, expected ({self.n_states}, {self.n_users})")
        if lam.shape != (self.n_users,):
            raise ValueError(f"arrival_rates has shape {lam.shape}, expected ({self.n_users},)")
        if self.arrival_model not in ARRIVAL_MODELS:
            raise ValueError(f"arrival_model must be one of {ARRIVAL_MODELS}")

        for name, entries in (("state_probs", p), ("rate_matrix", rates), ("arrival_rates", lam)):
            if not np.all(np.isfinite(entries)):
                raise ValueError(f"{name} entries must be finite, got {entries.tolist()}")
        if np.any(p < 0):
            raise ValueError("state_probs entries must be >= 0")
        if np.any(rates < 0):
            raise ValueError("rate_matrix entries must be >= 0")
        if np.any(lam <= 0):
            raise ValueError("arrival_rates entries must be > 0")
        if self.arrival_model == ARRIVAL_POISSON:
            for user, rate in enumerate(lam.tolist()):
                if rate > POISSON_LAM_MAX:
                    raise ValueError(f"user {user}'s Poisson arrival rate {rate!r} lies outside "
                                     f"[0, {POISSON_LAM_MAX!r}], the range numpy's sampler takes")

        total = p.sum()
        if abs(total - 1.0) > PROB_SUM_TOL:
            raise ValueError(f"state_probs sum to {total}, deviation > {PROB_SUM_TOL}")
        for name, entries in (("state_probs", p / total), ("rate_matrix", rates), ("arrival_rates", lam)):
            entries.setflags(write=False)
            object.__setattr__(self, name, entries)


@dataclass(frozen=True)
class RandomSource:
    """Seed spec for one independent sample stream.

    Identical (master_seed, stream_index) pairs yield identical sequences;
    distinct stream_index values give statistically independent streams.
    """

    master_seed: int
    stream_index: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.PCG64(np.random.SeedSequence((self.master_seed, self.stream_index)))
        )


@dataclass
class TraceCounters:
    """Cumulative bookkeeping of one recorded window of a replication.

    arrivals[i] / departures[i] are total packets in/out for user i;
    served_slots[m][i] counts slots in state m in which user i was selected,
    the one stored slot count: state_slots[m] (slots spent in channel state
    m) and horizon (slots in the window) are its sums. The window starts at
    ``initial_queues`` (all-zero unless a burn-in prefix was discarded) and
    ends at ``final_queues``.
    """

    arrivals: np.ndarray
    departures: np.ndarray
    served_slots: np.ndarray
    max_queue_seen: float
    initial_queues: np.ndarray
    final_queues: np.ndarray

    @property
    def state_slots(self) -> np.ndarray:
        return self.served_slots.sum(axis=-1)

    @property
    def horizon(self) -> int:
        return int(self.served_slots.sum())

    def validate(self) -> None:
        """Check the queue balance identities, to BALANCE_ATOL in packets;
        raises ValueError on violation."""
        if not np.all(self.departures <= self.arrivals + self.initial_queues + BALANCE_ATOL):
            raise ValueError("departures may not exceed arrivals plus the initial backlog")
        balance = self.final_queues - self.initial_queues - self.arrivals + self.departures
        if not np.all(np.abs(balance) <= BALANCE_ATOL):
            raise ValueError("queue balance identity violated")


def load_json_object(source: str | Path | dict) -> dict:
    """A dict as is, a Path's file, or a string: a JSON object when its first
    non-blank character is "{", else a path to read. A JSON document is never
    looked up on disk, so its length is not limited by the file system. A
    document that is not a JSON object is a ValueError naming its type."""
    if isinstance(source, dict):
        return source
    if isinstance(source, str) and source.lstrip().startswith("{"):
        doc = json.loads(source)
    else:
        doc = json.loads(Path(source).read_text())
    if not isinstance(doc, dict):
        raise ValueError(f"expected a JSON object, got {type(doc).__name__}")
    return doc


def config_from_json(source: str | Path | dict) -> SystemConfig:
    """Build a SystemConfig from a JSON document, path, or dict.

    Schema: {"n_users", "n_states", "state_probs", "rate_matrix",
    "arrival_rates", "arrival_model"}; rate_matrix is row-major, rows = states.
    arrival_model may be left out (Poisson). A missing key, any other key, or
    an integer entry too large for a float is a ValueError naming it.
    """
    doc = load_json_object(source)
    keys = [f.name for f in fields(SystemConfig)]
    unknown = sorted(set(doc) - set(keys))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}; the schema's keys are {keys}")
    missing = [f.name for f in fields(SystemConfig) if f.default is MISSING and f.name not in doc]
    if missing:
        raise ValueError(f"config needs {', '.join(map(repr, missing))}")
    arrays = {}
    for name in ("state_probs", "rate_matrix", "arrival_rates"):
        try:
            arrays[name] = np.asarray(doc[name], dtype=float)
        except OverflowError:  # a JSON integer beyond the float range
            raise ValueError(f"{name} has an integer entry too large for a float") from None
    return SystemConfig(
        n_users=doc["n_users"],
        n_states=doc["n_states"],
        arrival_model=doc.get("arrival_model", ARRIVAL_POISSON),
        **arrays,
    )


def config_to_json(cfg: SystemConfig) -> dict:
    return {
        "n_users": cfg.n_users,
        "n_states": cfg.n_states,
        "state_probs": cfg.state_probs.tolist(),
        "rate_matrix": cfg.rate_matrix.tolist(),
        "arrival_rates": cfg.arrival_rates.tolist(),
        "arrival_model": cfg.arrival_model,
    }


def channel_cdf(cfg: SystemConfig) -> np.ndarray:
    """Cumulative state probabilities, the last entry set to exactly 1."""
    cum = np.cumsum(cfg.state_probs)
    cum[-1] = 1.0  # guard against cumulative rounding
    return cum
