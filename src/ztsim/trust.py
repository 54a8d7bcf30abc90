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
import sys
from dataclasses import dataclass

import numpy as np

from .errors import PROB_TOL, NoPriorSources, ValidationError, ZeroProbabilityObservation
from .errors import distribution, labels, probability, real, table


@dataclass(frozen=True)
class TypeSpace:
    """Finite set of entity types with a designated trusted (non-adversarial) subset."""

    types: tuple
    trusted: tuple  # in declared type order, whatever order it was given in

    def __post_init__(self):
        object.__setattr__(self, "types", labels(self.types, "types"))
        # A space may trust no type, though `labels` rejects an empty list.
        trusted = set(self.trusted and labels(self.trusted, "trusted"))
        extra = trusted - set(self.types)
        if extra:
            raise ValidationError(f"unknown types {sorted(extra)}", "trusted")
        object.__setattr__(self, "trusted", tuple(t for t in self.types if t in trusted))


@dataclass(frozen=True)
class TrustState:
    """Probability mass over a TypeSpace's types for one entity, plus the tick
    at which it was last updated. Entries are stored clamped into [0, 1]."""

    mass: dict
    timestamp: int = 0

    def __post_init__(self):
        if self.timestamp < 0:
            raise ValidationError("timestamp must be non-negative")
        object.__setattr__(self, "mass", distribution(dict(self.mass), "mass"))


def _check_rows(likelihood, columns, name):
    """Check a likelihood table keyed by (*row, column): every row is a
    `distribution` over exactly the declared columns, summed in declared
    order. Returns the table with float values."""
    rows = {}
    for k, p in likelihood.items():
        rows.setdefault(k[:-1], {})[k[-1]] = p
    out = {}
    for row, entries in rows.items():
        key = ".".join(map(str, (name, *row)))
        for col, p in distribution(table(entries, (columns,), key), key).items():
            out[(*row, col)] = p
    return out


@dataclass(frozen=True)
class BehaviorModel:
    """Action likelihoods per type: likelihood[(type, action)] = P(action | type)."""

    actions: tuple
    likelihood: dict

    def __post_init__(self):
        object.__setattr__(self, "actions", labels(self.actions, "actions"))
        object.__setattr__(
            self, "likelihood", _check_rows(self.likelihood, self.actions, "behavior")
        )

    def prob(self, action, theta):
        return self.likelihood[(theta, action)]


@dataclass(frozen=True)
class EvidenceModel:
    """Side-evidence likelihoods: likelihood[(action, type, evidence)] =
    P(evidence | action, type)."""

    evidence_values: tuple
    likelihood: dict

    def __post_init__(self):
        object.__setattr__(
            self, "evidence_values", labels(self.evidence_values, "evidence_values")
        )
        object.__setattr__(
            self,
            "likelihood",
            _check_rows(self.likelihood, self.evidence_values, "evidence"),
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
    trusted = np.array([state.mass[t] for t in space.trusted])
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
    reputation, recommendations, etc. A subnormal weight (its product with a
    score keeps too few bits) and an overflowing weight total are rejected."""
    sources = list(sources)
    if not sources:
        raise NoPriorSources("no sources given", "prior")
    total_w = 0.0
    total = 0.0
    for j, (score, weight) in enumerate(sources):
        score = probability(score, f"prior[{j}].score")
        weight = real(weight, f"prior[{j}].weight")
        if weight < 0:
            raise ValidationError(f"must be non-negative, got {weight}", f"prior[{j}].weight")
        if 0 < weight < sys.float_info.min:
            raise ValidationError(f"must be 0 or a normal float, got {weight}", f"prior[{j}].weight")
        total += score * weight
        total_w += weight
    if total_w <= 0:
        raise NoPriorSources("all source weights are zero", "prior")
    if not math.isfinite(total_w):
        raise ValidationError("source weights sum past the largest float", "prior")
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
    base = np.array([baseline.mass[t] for t in state.mass])
    mass = _attenuate_rows(np.array(list(state.mass.values())), base, k)
    return TrustState(mass=dict(zip(state.mass, mass.tolist())), timestamp=state.timestamp)


def uniform_state(space: TypeSpace) -> TrustState:
    n = len(space.types)
    return TrustState(mass={t: 1.0 / n for t in space.types})


def check_score(score, space: TypeSpace):
    """Reject a score in [0, 1] that `space` cannot spread: a positive one
    with no trusted type, or one below 1 with no untrusted type."""
    if not space.trusted and score > PROB_TOL:
        raise ValidationError("positive trust score but no trusted types")
    if len(space.trusted) == len(space.types) and score < 1 - PROB_TOL:
        raise ValidationError("trust score below 1 but no untrusted types")


def state_from_score(score, space: TypeSpace) -> TrustState:
    """Spread a scalar trust score uniformly over the trusted types and the
    remainder over the untrusted ones."""
    score = probability(score, "trust score")
    check_score(score, space)
    untrusted = [t for t in space.types if t not in space.trusted]
    mass = {}
    for t in space.trusted:
        mass[t] = score / len(space.trusted)
    for t in untrusted:
        mass[t] = (1.0 - score) / len(untrusted)
    return TrustState(mass=mass)
