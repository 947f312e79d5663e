"""Scheduling rules: the queue+rate heterogeneous rule and EXP / MaxWeight baselines.

select(policy, q, state, cfg) -> SelectionScore is the one pure selector for every
rule; ties go to the lowest index (default) or a uniform draw from the tied set.
Each rule class names its policy JSON type (kind), its tuning parameter, the
one a sweep varies and the slot kernel reads (param), and its RULE_* code in
_slots.c (code).
"""

from __future__ import annotations

import math
import numbers
from dataclasses import MISSING, asdict, dataclass, fields
from pathlib import Path
from typing import ClassVar

import numpy as np

from .model import SystemConfig, load_json_object

TIE_LOWEST = "lowest_index"
TIE_UNIFORM = "uniform_random"
TIE_BREAKS = (TIE_LOWEST, TIE_UNIFORM)

# Absolute tolerance for score ties.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class Heterogeneous:
    """Serve argmax_i 1 - exp(rho1 - F/maxF + rho2 - Q/q_th)."""

    kind: ClassVar[str] = "het"
    param: ClassVar[str] = "q_th"
    code: ClassVar[int] = 0
    q_th: float
    rho1: float = 0.0
    rho2: float = 0.0

    def __post_init__(self):
        if not self.q_th > 0:
            raise ValueError(f"q_th must be > 0, got {self.q_th}")
        if not math.isfinite(self.q_th):
            raise ValueError(f"q_th must be finite, got {self.q_th}")
        for name, val in (("rho1", self.rho1), ("rho2", self.rho2)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")


@dataclass(frozen=True)
class Exp:
    """Serve argmax_i exp(Q_i / (1 + meanQ^eta)) * F_i."""

    kind: ClassVar[str] = "exp"
    param: ClassVar[str] = "eta"
    code: ClassVar[int] = 1
    eta: float

    def __post_init__(self):
        if not 0.0 < self.eta < 1.0:
            raise ValueError(f"eta must lie in the open interval (0, 1), got {self.eta}")


@dataclass(frozen=True)
class MaxWeight:
    """Serve argmax_i Q_i^alpha * F_i."""

    kind: ClassVar[str] = "mw"
    param: ClassVar[str] = "alpha"
    code: ClassVar[int] = 2
    alpha: float

    def __post_init__(self):
        if not self.alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1, got {self.alpha}")
        if not math.isfinite(self.alpha):
            raise ValueError(f"alpha must be finite, got {self.alpha}")


Variant = Heterogeneous | Exp | MaxWeight

# the policy JSON "type" of each rule
RULES = {rule.kind: rule for rule in (Heterogeneous, Exp, MaxWeight)}


@dataclass(frozen=True)
class Policy:
    """A rule and its tie-break. Each rule checks its own parameters, and the
    policy its variant's type and tie_break, whenever one is built,
    dataclasses.replace included."""

    variant: Variant
    tie_break: str = TIE_LOWEST

    def __post_init__(self):
        if not isinstance(self.variant, Variant):
            raise TypeError(f"unknown policy variant {type(self.variant).__name__}")
        if self.tie_break not in TIE_BREAKS:
            raise ValueError(f"tie_break must be one of {TIE_BREAKS}")


@dataclass(frozen=True)
class SelectionScore:
    """Per-user scores plus the resolved choice and the tolerance-tied argmax set.

    tied_set is the 1e-12-tolerance argmax computed on a numerically stable
    monotone transform of the score (the rule's exponent for the heterogeneous
    rule, log scores for EXP); the literal score saturates in float arithmetic
    for large queues, which would manufacture ties the rule does not have.
    """

    score: np.ndarray
    chosen: int
    tied_set: frozenset[int]


def policy_from_json(source: str | Path | dict) -> Policy:
    """Parse {"type": "het"|"exp"|"mw", ...params, "tie_break"} from JSON;
    a parameter with a default (rho1, rho2) may be left out. A missing type
    or other parameter, a parameter that is not a number (a bool or a string
    included), or any other key, is a ValueError naming it."""
    doc = load_json_object(source)
    if "type" not in doc:
        raise ValueError(f"policy document needs 'type', one of {sorted(RULES)}")
    kind = doc["type"]
    rule = RULES.get(kind) if isinstance(kind, str) else None
    if rule is None:
        raise ValueError(f"unknown policy type {kind!r}")
    params = [f.name for f in fields(rule)]
    unknown = sorted(set(doc) - {"type", "tie_break", *params})
    if unknown:
        raise ValueError(f"unknown {kind} policy keys {unknown}; its parameters are {params} and tie_break")
    missing = [f.name for f in fields(rule) if f.default is MISSING and f.name not in doc]
    if missing:
        raise ValueError(f"{kind} policy needs {', '.join(map(repr, missing))}")
    values = {name: doc[name] for name in params if name in doc}
    for name, value in values.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"{kind} policy parameter {name!r} must be a number, got {value!r}")
    variant = rule(**{name: float(value) for name, value in values.items()})
    return Policy(variant=variant, tie_break=doc.get("tie_break", TIE_LOWEST))


def policy_to_json(policy: Policy) -> dict:
    return {"type": policy.variant.kind, **asdict(policy.variant), "tie_break": policy.tie_break}


def tied_mask(stable: np.ndarray) -> np.ndarray:
    """Per-row tolerance-tied argmax set: stable >= row max - TIE_TOL."""
    return stable >= stable.max(axis=-1, keepdims=True) - TIE_TOL


def rate_table(variant: Variant, cfg: SystemConfig) -> np.ndarray:
    """The per-state rate term (M x N) of a rule's selection score: F/maxF for
    het (all-zero rows map to zeros), log F with log 0 = -inf for exp, F for mw."""
    rates = cfg.rate_matrix
    if isinstance(variant, Heterogeneous):
        row_max = rates.max(axis=1, keepdims=True)
        return rates / np.where(row_max > 0, row_max, 1.0)
    if isinstance(variant, Exp):
        live = rates > 0
        return np.where(live, np.log(np.where(live, rates, 1.0)), -np.inf)
    if isinstance(variant, MaxWeight):
        return rates
    raise TypeError(f"unknown policy variant {type(variant).__name__}")


def _libm_pow(x: np.ndarray, a: float) -> np.ndarray:
    """x ** a entry by entry with Python's float power, which is libm's pow as
    in the slot kernel: numpy's vectorized power can differ from it in the
    last bit, which would move exact ties."""
    return (x.astype(object) ** a).astype(float)


def stable_scores(variant: Variant, cfg: SystemConfig, Q: np.ndarray, m: np.ndarray) -> np.ndarray:
    """Selection scores (R x N) for queue rows Q (R x N) in channel states m (R,).

    Each row is a monotone transform of the rule's literal score that keeps
    its argmax and exact ties but never saturates in float arithmetic:
    het, the exponent F/maxF + Q/q_th (the rho offsets cancel); exp, the log
    score Q/(1 + meanQ^eta) + log F with log 0 = -inf; mw, the scale-free
    (Q/maxQ)^alpha F, all zeros when every queue is empty. Row by row the
    operations are the ones a single-row call performs, so a batch scores
    bitwise like its rows scored one at a time.
    """
    Q = np.ascontiguousarray(Q, dtype=float)
    table = rate_table(variant, cfg)[m]
    if isinstance(variant, Heterogeneous):
        return table + Q / variant.q_th
    if isinstance(variant, Exp):
        # the mean sums each row left to right, as the slot kernel does
        means = np.cumsum(Q, axis=1)[:, -1] / Q.shape[1]
        return Q / (1.0 + _libm_pow(means, variant.eta))[:, None] + table
    q_max = Q.max(axis=1, keepdims=True)
    busy = q_max > 0
    return np.where(busy, _libm_pow(Q / np.where(busy, q_max, 1.0), variant.alpha) * table, 0.0)


def select(
    policy: Policy,
    q: np.ndarray,
    state: int,
    cfg: SystemConfig,
    rng: np.random.Generator | None = None,
) -> SelectionScore:
    """Serve queue vector q in channel state ``state`` by the policy's rule.

    The score reported per user is the rule's literal one:
      het  1 - exp(rho1 - F/maxF + rho2 - Q_i/q_th), F/maxF = 0 in an all-zero state;
      exp  exp(Q_i / (1 + meanQ^eta)) * F_i;
      mw   Q_i^alpha * F_i.
    The tied set is tied_mask(stable_scores(...)): the same argmax and exact
    ties without float saturation. het's rho offsets cancel there, so its
    choice is rho-invariant. The lowest tied index is served, or for
    uniform_random ties the slot kernel's tied[floor(u * count)], u from rng.
    """
    if not 0 <= state < cfg.n_states:
        raise ValueError(f"state {state} outside [0, {cfg.n_states})")
    v = policy.variant
    q = np.asarray(q, dtype=float)
    stable = stable_scores(v, cfg, q[None, :], np.array([state]))[0]
    tied = np.flatnonzero(tied_mask(stable))
    if policy.tie_break == TIE_UNIFORM and len(tied) > 1:
        if rng is None:
            raise ValueError("uniform_random tie-break requires an rng")
        chosen = int(tied[int(rng.random() * len(tied))])
    else:
        chosen = int(tied[0])
    rates = cfg.rate_matrix[state]
    if isinstance(v, Heterogeneous):
        score = 1.0 - np.exp(v.rho1 + v.rho2 - stable)
    elif isinstance(v, Exp):
        with np.errstate(over="ignore"):
            score = np.exp(q / (1.0 + np.mean(q) ** v.eta)) * rates
    else:
        score = q**v.alpha * rates
    return SelectionScore(score=score, chosen=chosen, tied_set=frozenset(int(i) for i in tied))
