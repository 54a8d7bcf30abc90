"""Bayesian trust model: finite type space, trust scoring, posterior updates,
prior composition from weighted sources, and exponential attenuation toward a
baseline.

All types are immutable values and all operations are pure functions; nothing
here holds shared mutable state. The arithmetic lives in three row primitives
over numpy arrays, which the labeled functions apply to one state and the
simulation kernel to every lane at once. Probabilities that PROB_TOL admits
just outside [0, 1] are stored clamped into it, so every mass these
primitives derive is non-negative and normalized by construction.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NoPriorSources, ValidationError, ZeroProbabilityObservation, reject_bool

PROB_TOL = 1e-9


def _check_prob(p, key):
    if not (isinstance(p, (int, float)) and math.isfinite(p)):
        raise ValidationError(f"must be a finite number, got {p!r}", key)
    if p < -PROB_TOL or p > 1 + PROB_TOL:
        raise ValidationError(f"must lie in [0, 1], got {p}", key)


def _clamp(p):
    return min(1.0, max(0.0, float(p)))


def _doc_prob(p, key):
    """A probability taken from a document, as a float clamped into [0, 1]."""
    _check_prob(reject_bool(p, key), key)
    return _clamp(p)


@dataclass(frozen=True)
class TypeSpace:
    """Finite set of entity types with a designated trusted (non-adversarial) subset."""

    types: tuple
    trusted: frozenset

    def __post_init__(self):
        object.__setattr__(self, "types", tuple(self.types))
        object.__setattr__(self, "trusted", frozenset(self.trusted))
        if not self.types:
            raise ValidationError("must be non-empty", "types")
        if len(set(self.types)) != len(self.types):
            raise ValidationError("identifiers must be unique", "types")
        extra = self.trusted - set(self.types)
        if extra:
            raise ValidationError(f"unknown types {sorted(extra)}", "trusted")


@dataclass(frozen=True)
class TrustState:
    """Probability mass over a TypeSpace's types for one entity, plus the tick
    at which it was last updated. Entries are stored clamped into [0, 1]."""

    mass: dict
    timestamp: int = 0

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValidationError("timestamp must be non-negative")
        mass, total = {}, 0.0
        for t, p in dict(self.mass).items():
            # The passing case of _check_prob, tested without building the key.
            if not (isinstance(p, (int, float)) and -PROB_TOL <= p <= 1 + PROB_TOL):
                _check_prob(p, f"mass[{t!r}]")  # raises, naming the entry
            mass[t] = _clamp(p)
            total += mass[t]
        object.__setattr__(self, "mass", mass)
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"trust mass must sum to 1, got {total}")


def _check_rows(likelihood, columns, name, what):
    """Check a likelihood table keyed by (*row, column): every key names a
    declared column, and every row is a probability distribution over all the
    columns, summed in declared order. Returns the table with float values."""
    if not columns or len(set(columns)) != len(columns):
        raise ValidationError(f"{what}s must be non-empty and unique", name)
    table, rows = {}, {}
    for k, p in likelihood.items():
        row, col = k[:-1], k[-1]
        key = ".".join(map(str, (name, *row)))
        if col not in columns:
            raise ValidationError(f"unknown {what} {col!r}", key)
        table[k] = _doc_prob(p, f"{key}.{col}")
        rows[row] = key
    for row, key in rows.items():
        total = 0.0
        for c in columns:
            if (*row, c) not in table:
                raise ValidationError(f"missing {what} {c!r}", key)
            total += table[(*row, c)]
        if abs(total - 1.0) > PROB_TOL:
            raise ValidationError(f"row sums to {total}, expected 1", key)
    return table


@dataclass(frozen=True)
class BehaviorModel:
    """Action likelihoods per type: likelihood[(type, action)] = P(action | type)."""

    actions: tuple
    likelihood: dict

    def __post_init__(self):
        object.__setattr__(self, "actions", tuple(self.actions))
        object.__setattr__(
            self, "likelihood", _check_rows(self.likelihood, self.actions, "behavior", "action")
        )

    def types(self):
        return tuple(dict.fromkeys(t for t, _ in self.likelihood))

    def prob(self, action, theta):
        return self.likelihood[(theta, action)]


@dataclass(frozen=True)
class EvidenceModel:
    """Side-evidence likelihoods: likelihood[(action, type, evidence)] =
    P(evidence | action, type)."""

    evidence_values: tuple
    likelihood: dict

    def __post_init__(self):
        object.__setattr__(self, "evidence_values", tuple(self.evidence_values))
        object.__setattr__(
            self,
            "likelihood",
            _check_rows(self.likelihood, self.evidence_values, "evidence", "evidence value"),
        )

    def prob(self, evidence, action, theta):
        return self.likelihood[(action, theta, evidence)]


@dataclass(frozen=True)
class Observation:
    """One observed (action, side evidence) pair at a given tick."""

    action: object
    evidence: object
    tick: int = 0

    def __post_init__(self):
        if self.tick < 0:
            raise ValidationError("observation tick must be non-negative")


def _attenuate_rows(mass, baseline, k):
    """Each row of `mass` moved toward `baseline` by the factor k, then
    divided by its sum."""
    raw = baseline + (mass - baseline) * k
    return raw / raw.sum(axis=-1, keepdims=True)


def _posterior_rows(mass, lh):
    """Bayes' rule per row: the joint lh * mass divided by its sum z, and z.
    A row with z = 0 comes back as its joint, all zeros."""
    joint = lh * mass
    z = joint.sum(axis=-1, keepdims=True)
    return joint / np.where(z > 0.0, z, 1.0), z[..., 0]


def _score_rows(mass, n_trusted):
    """Trust score per row of `mass`, whose first n_trusted columns are the
    trusted types: their sum, or int 0 (the sum of nothing) when none is."""
    if not n_trusted:
        return np.zeros(mass.shape[:-1], dtype=np.int64)
    return mass[..., :n_trusted].sum(axis=-1)


def trust_score(state: TrustState, space: TypeSpace) -> float:
    """Probability mass on the trusted subset: the entity's trust score."""
    if set(state.mass) != set(space.types):
        raise ValidationError(
            f"state types {sorted(map(repr, state.mass))} do not match "
            f"space types {sorted(map(repr, space.types))}"
        )
    trusted = np.array([state.mass[t] for t in space.types if t in space.trusted])
    return _score_rows(trusted, len(trusted)).item()


def bayes_update(
    state: TrustState,
    obs: Observation,
    behavior: BehaviorModel,
    evidence: EvidenceModel,
) -> TrustState:
    """Posterior over types after one observation.

    mass'(theta) = h(e|a,theta) * sigma(a|theta) * mass(theta), normalized.
    Raises ZeroProbabilityObservation when the normalizer is zero.
    """
    if obs.action not in behavior.actions:
        raise ValidationError(f"unknown action {obs.action!r}")
    if obs.evidence not in evidence.evidence_values:
        raise ValidationError(f"unknown evidence value {obs.evidence!r}")
    lh = [
        evidence.prob(obs.evidence, obs.action, t) * behavior.prob(obs.action, t)
        for t in state.mass
    ]
    post, z = _posterior_rows(np.array(list(state.mass.values())), np.array(lh))
    if z <= 0.0:
        raise ZeroProbabilityObservation(obs.action, obs.evidence, tick=obs.tick)
    return TrustState(mass=dict(zip(state.mass, post.tolist())), timestamp=obs.tick)


def sequence_update(state, obs_list, behavior, evidence) -> TrustState:
    """Left-fold of bayes_update over an ordered list of observations."""
    prev = -1
    for i, obs in enumerate(obs_list):
        if obs.tick < prev:
            raise ValidationError(f"observation ticks must be non-decreasing (index {i})")
        prev = obs.tick
    out = state
    for i, obs in enumerate(obs_list):
        try:
            out = bayes_update(out, obs, behavior, evidence)
        except ZeroProbabilityObservation as exc:
            raise ZeroProbabilityObservation(
                exc.action, exc.evidence, tick=exc.tick, index=i
            ) from exc
    return out


def compose_prior(sources) -> float:
    """Weight-normalized mean of (score, weight) sources from policy checks,
    reputation, recommendations, etc."""
    sources = list(sources)
    if not sources:
        raise NoPriorSources("no sources given", "prior")
    total_w = 0.0
    total = 0.0
    for j, (score, weight) in enumerate(sources):
        score = _doc_prob(score, f"prior[{j}].score")
        weight = float(reject_bool(weight, f"prior[{j}].weight"))
        if weight < 0:
            raise ValidationError(f"must be non-negative, got {weight}", f"prior[{j}].weight")
        total += score * weight
        total_w += weight
    if total_w <= 0:
        raise NoPriorSources("all source weights are zero", "prior")
    return _clamp(total / total_w)


def attenuate(state: TrustState, elapsed, rate, baseline: TrustState) -> TrustState:
    """Exponential decay of the mass toward a baseline state.

    mass'(theta) = baseline(theta) + (mass(theta) - baseline(theta)) * exp(-rate*elapsed).
    Renormalization only corrects float drift.
    """
    if elapsed < 0:
        raise ValidationError(f"elapsed must be non-negative, got {elapsed}")
    if rate < 0:
        raise ValidationError(f"decay rate must be non-negative, got {rate}")
    if set(state.mass) != set(baseline.mass):
        raise ValidationError("state and baseline must share a type space")
    k = math.exp(-rate * elapsed)
    if k == 1.0:
        return state
    base = np.array([baseline.mass[t] for t in state.mass])
    mass = _attenuate_rows(np.array(list(state.mass.values())), base, k)
    return TrustState(mass=dict(zip(state.mass, mass.tolist())), timestamp=state.timestamp)


def uniform_state(space: TypeSpace, timestamp: int = 0) -> TrustState:
    n = len(space.types)
    return TrustState(mass={t: 1.0 / n for t in space.types}, timestamp=timestamp)


def state_from_score(score, space: TypeSpace, timestamp: int = 0) -> TrustState:
    """Spread a scalar trust score uniformly over the trusted types and the
    remainder over the untrusted ones."""
    _check_prob(score, "trust score")
    trusted = [t for t in space.types if t in space.trusted]
    untrusted = [t for t in space.types if t not in space.trusted]
    if not trusted and score > PROB_TOL:
        raise ValidationError("positive trust score but no trusted types")
    if not untrusted and score < 1 - PROB_TOL:
        raise ValidationError("trust score below 1 but no untrusted types")
    mass = {}
    for t in trusted:
        mass[t] = score / len(trusted)
    for t in untrusted:
        mass[t] = (1.0 - score) / len(untrusted)
    return TrustState(mass=mass, timestamp=timestamp)
