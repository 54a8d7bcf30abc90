"""Bayesian trust model: finite type space, trust scoring, posterior updates,
prior composition from weighted sources, and exponential attenuation toward a
baseline.

All types are immutable values and all operations are pure functions; nothing
here holds shared mutable state.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

from .errors import NoPriorSources, ValidationError, ZeroProbabilityObservation, reject_bool

PROB_TOL = 1e-9


def _check_prob(p, key):
    if not (isinstance(p, (int, float)) and math.isfinite(p)):
        raise ValidationError(f"must be a finite number, got {p!r}", key)
    if p < -PROB_TOL or p > 1 + PROB_TOL:
        raise ValidationError(f"must lie in [0, 1], got {p}", key)


def _doc_prob(p, key):
    """A probability taken from a document, as a float. Kept apart from
    _check_prob, which TrustState runs on every update."""
    _check_prob(reject_bool(p, key), key)
    return float(p)


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
    at which it was last updated."""

    mass: dict
    timestamp: int = 0

    def __post_init__(self):
        object.__setattr__(self, "mass", dict(self.mass))
        if self.timestamp < 0:
            raise ValidationError("timestamp must be non-negative")
        total = 0.0
        for t, p in self.mass.items():
            _check_prob(p, f"mass[{t!r}]")
            total += p
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


def trust_score(state: TrustState, space: TypeSpace) -> float:
    """Probability mass on the trusted subset: the entity's trust score."""
    if set(state.mass) != set(space.types):
        raise ValidationError(
            f"state types {sorted(map(repr, state.mass))} do not match "
            f"space types {sorted(map(repr, space.types))}"
        )
    return sum(state.mass[t] for t in space.types if t in space.trusted)


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
    joint = {
        t: evidence.prob(obs.evidence, obs.action, t) * behavior.prob(obs.action, t) * p
        for t, p in state.mass.items()
    }
    z = sum(joint.values())
    if z <= 0.0:
        raise ZeroProbabilityObservation(obs.action, obs.evidence, tick=obs.tick)
    return TrustState(mass={t: v / z for t, v in joint.items()}, timestamp=obs.tick)


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
    return min(1.0, max(0.0, total / total_w))


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
    raw = {t: baseline.mass[t] + (state.mass[t] - baseline.mass[t]) * k for t in state.mass}
    z = sum(raw.values())
    return TrustState(mass={t: v / z for t, v in raw.items()}, timestamp=state.timestamp)


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
