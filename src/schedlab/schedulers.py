"""Scheduling rules: the queue+rate heterogeneous rule and EXP / MaxWeight baselines.

All selectors are pure functions (queue vector, channel state) -> SelectionScore.
Ties are resolved by lowest index (default) or a uniform draw from the tied set.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import IndexOutOfRangeError
from .model import SystemConfig

TIE_LOWEST = "lowest_index"
TIE_UNIFORM = "uniform_random"
TIE_BREAKS = (TIE_LOWEST, TIE_UNIFORM)

# Absolute tolerance for score ties.
TIE_TOL = 1e-12


@dataclass(frozen=True)
class Heterogeneous:
    """Serve argmax_i 1 - exp(rho1 - F/maxF + rho2 - Q/q_th)."""

    q_th: float
    rho1: float = 0.0
    rho2: float = 0.0


@dataclass(frozen=True)
class Exp:
    """Serve argmax_i exp(Q_i / (1 + meanQ^eta)) * F_i."""

    eta: float


@dataclass(frozen=True)
class MaxWeight:
    """Serve argmax_i Q_i^alpha * F_i."""

    alpha: float


Variant = Heterogeneous | Exp | MaxWeight


@dataclass(frozen=True)
class Policy:
    variant: Variant
    tie_break: str = TIE_LOWEST


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


def validate_policy(policy: Policy) -> Policy:
    v = policy.variant
    if isinstance(v, Heterogeneous):
        if not v.q_th > 0:
            raise ValueError(f"q_th must be > 0, got {v.q_th}")
        for name, val in (("rho1", v.rho1), ("rho2", v.rho2)):
            if not 0.0 <= val <= 1.0:
                raise ValueError(f"{name} must lie in [0, 1], got {val}")
    elif isinstance(v, Exp):
        if not 0.0 < v.eta < 1.0:
            raise ValueError(f"eta must lie in the open interval (0, 1), got {v.eta}")
    elif isinstance(v, MaxWeight):
        if not v.alpha >= 1.0:
            raise ValueError(f"alpha must be >= 1, got {v.alpha}")
    else:
        raise TypeError(f"unknown policy variant {type(v).__name__}")
    if policy.tie_break not in TIE_BREAKS:
        raise ValueError(f"tie_break must be one of {TIE_BREAKS}")
    return policy


def policy_from_json(source: str | Path | dict) -> Policy:
    """Parse {"type": "het"|"exp"|"mw", ...params, "tie_break"} from JSON."""
    if isinstance(source, dict):
        doc = source
    else:
        if isinstance(source, Path):
            text = source.read_text()
        else:
            text = Path(source).read_text() if Path(str(source)).exists() else str(source)
        doc = json.loads(text)
    kind = doc["type"]
    if kind == "het":
        variant: Variant = Heterogeneous(
            q_th=float(doc["q_th"]),
            rho1=float(doc.get("rho1", 0.0)),
            rho2=float(doc.get("rho2", 0.0)),
        )
    elif kind == "exp":
        variant = Exp(eta=float(doc["eta"]))
    elif kind == "mw":
        variant = MaxWeight(alpha=float(doc["alpha"]))
    else:
        raise ValueError(f"unknown policy type {kind!r}")
    return validate_policy(Policy(variant=variant, tie_break=doc.get("tie_break", TIE_LOWEST)))


def policy_to_json(policy: Policy) -> dict:
    v = policy.variant
    if isinstance(v, Heterogeneous):
        doc = {"type": "het", "q_th": v.q_th, "rho1": v.rho1, "rho2": v.rho2}
    elif isinstance(v, Exp):
        doc = {"type": "exp", "eta": v.eta}
    else:
        doc = {"type": "mw", "alpha": v.alpha}
    doc["tie_break"] = policy.tie_break
    return doc


def tied_mask(stable: np.ndarray) -> np.ndarray:
    """Per-row tolerance-tied argmax set: stable >= row max - TIE_TOL."""
    return stable >= stable.max(axis=-1, keepdims=True) - TIE_TOL


def _resolve(
    score: np.ndarray,
    stable: np.ndarray,
    tie_break: str,
    rng: np.random.Generator | None,
) -> SelectionScore:
    tied = np.flatnonzero(tied_mask(stable))
    if tie_break == TIE_UNIFORM and len(tied) > 1:
        if rng is None:
            raise ValueError("uniform_random tie-break requires an rng")
        chosen = int(tied[rng.integers(len(tied))])
    else:
        chosen = int(tied[0])
    return SelectionScore(score=score, chosen=chosen, tied_set=frozenset(int(i) for i in tied))


def _check_state(state: int, cfg: SystemConfig) -> None:
    if not 0 <= state < cfg.n_states:
        raise IndexOutOfRangeError(f"state {state} outside [0, {cfg.n_states})")


def normalized_rates(cfg: SystemConfig) -> np.ndarray:
    """Per-state rate rows divided by the row maximum; all-zero rows map to zeros."""
    rates = cfg.rate_matrix
    row_max = rates.max(axis=1, keepdims=True)
    safe = np.where(row_max > 0, row_max, 1.0)
    return rates / safe


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
    if isinstance(variant, Heterogeneous):
        return normalized_rates(cfg)[m] + Q / variant.q_th
    rates = cfg.rate_matrix[m]
    if isinstance(variant, Exp):
        # numpy scalar powers: the vectorized power can differ from them in
        # the last bit, which would move exact ties
        denom = 1.0 + np.array([mean**variant.eta for mean in Q.mean(axis=1)])
        live = rates > 0
        return np.where(live, Q / denom[:, None] + np.log(np.where(live, rates, 1.0)), -np.inf)
    if isinstance(variant, MaxWeight):
        q_max = Q.max(axis=1, keepdims=True)
        busy = q_max > 0
        return np.where(busy, (Q / np.where(busy, q_max, 1.0)) ** variant.alpha * rates, 0.0)
    raise TypeError(f"unknown policy variant {type(variant).__name__}")


def _row_scores(
    variant: Variant, q, state: int, cfg: SystemConfig
) -> tuple[np.ndarray, np.ndarray]:
    """One queue vector as a float array and its stable score row."""
    _check_state(state, cfg)
    q = np.asarray(q, dtype=float)
    return q, stable_scores(variant, cfg, q[None, :], np.array([state]))[0]


def het_select(
    q: np.ndarray,
    state: int,
    cfg: SystemConfig,
    params: Heterogeneous,
    tie_break: str = TIE_LOWEST,
    rng: np.random.Generator | None = None,
) -> SelectionScore:
    """Heterogeneous rule: score_i = 1 - exp(rho1 - F/maxF + rho2 - Q_i/q_th).

    When every rate in the state is zero the normalized-rate term is defined
    as 0 for all users, so the choice falls back to queue lengths alone.
    Selection runs on the equivalent exponent F/maxF + Q/q_th, which shares
    the score's argmax (and its exact ties) without float saturation; the rho
    offsets cancel there, so the choice is rho-invariant by construction.
    """
    _, exponent = _row_scores(params, q, state, cfg)
    score = 1.0 - np.exp(params.rho1 + params.rho2 - exponent)
    return _resolve(score, exponent, tie_break, rng)


def exp_select(
    q: np.ndarray,
    state: int,
    cfg: SystemConfig,
    params: Exp,
    tie_break: str = TIE_LOWEST,
    rng: np.random.Generator | None = None,
) -> SelectionScore:
    """EXP rule: score_i = exp(Q_i / (1 + meanQ^eta)) * F_i.

    Selection runs on log scores Q/denom + log F (with log 0 = -inf), which
    never overflow; the reported score is the literal product.
    """
    q, log_score = _row_scores(params, q, state, cfg)
    denom = 1.0 + np.mean(q) ** params.eta
    with np.errstate(over="ignore"):
        score = np.exp(q / denom) * cfg.rate_matrix[state]
    return _resolve(score, log_score, tie_break, rng)


def mw_select(
    q: np.ndarray,
    state: int,
    cfg: SystemConfig,
    params: MaxWeight,
    tie_break: str = TIE_LOWEST,
    rng: np.random.Generator | None = None,
) -> SelectionScore:
    """MaxWeight rule: score_i = Q_i^alpha * F_i, with 0^alpha = 0.

    Selection runs on the scale-free equivalent (Q/maxQ)^alpha * F (all zeros
    when every queue is empty), which shares the score's argmax but keeps its
    magnitude at the rates', so the absolute tie tolerance means the same at
    every queue scale.
    """
    q, stable = _row_scores(params, q, state, cfg)
    score = q**params.alpha * cfg.rate_matrix[state]
    return _resolve(score, stable, tie_break, rng)


def select(
    policy: Policy,
    q: np.ndarray,
    state: int,
    cfg: SystemConfig,
    rng: np.random.Generator | None = None,
) -> int:
    """Dispatch to the policy's selector; rng is consumed only on a uniform tie-break."""
    v = policy.variant
    if isinstance(v, Heterogeneous):
        sel = het_select(q, state, cfg, v, policy.tie_break, rng)
    elif isinstance(v, Exp):
        sel = exp_select(q, state, cfg, v, policy.tie_break, rng)
    elif isinstance(v, MaxWeight):
        sel = mw_select(q, state, cfg, v, policy.tie_break, rng)
    else:
        raise TypeError(f"unknown policy variant {type(v).__name__}")
    return sel.chosen
