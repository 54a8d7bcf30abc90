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
from .errors import distribution, integer, label, labels, nonnegative, probability, table


@dataclass(frozen=True)
class TypeSpace:
    """Finite set of entity types with a designated trusted (non-adversarial) subset."""

    types: tuple
    trusted: tuple  # in declared type order, whatever order it was given in

    def __post_init__(self):
        object.__setattr__(self, "types", labels(self.types, "types"))
        # A space may trust no type, though `labels` rejects an empty list.
        trusted = self.trusted and labels(self.trusted, "trusted")
        for t in trusted:
            label(t, self.types, "trusted")
        object.__setattr__(self, "trusted", tuple(t for t in self.types if t in trusted))


@dataclass(frozen=True)
class TrustState:
    """Probability mass over a TypeSpace's types for one entity, plus the tick
    at which it was last updated. Entries are stored clamped into [0, 1]."""

    mass: dict
    timestamp: int = 0

    def __post_init__(self):
        integer(self.timestamp, "timestamp")
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
        integer(self.tick, "tick")


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
    table(state.mass, (space.types,), "state")
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
    label(obs.action, behavior.actions, "obs.action")
    label(obs.evidence, evidence.evidence_values, "obs.evidence")
    lh = [
        evidence.prob(obs.evidence, obs.action, t) * behavior.prob(obs.action, t)
        for t in state.mass
    ]
    post, z = _posterior_rows(np.array(list(state.mass.values())), np.array(lh))
    if z <= 0.0:
        raise ZeroProbabilityObservation(obs.action, obs.evidence, tick=obs.tick)
    return TrustState(mass=dict(zip(state.mass, post.tolist())), timestamp=obs.tick)


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
        weight = nonnegative(weight, f"prior[{j}].weight")
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
    elapsed = nonnegative(elapsed, "elapsed")
    k = math.exp(-nonnegative(rate, "rate") * elapsed)
    base = table(baseline.mass, (tuple(state.mass),), "baseline")
    if k == 1.0:
        return state
    base = np.array(list(base.values()))
    mass = _attenuate_rows(np.array(list(state.mass.values())), base, k)
    return TrustState(mass=dict(zip(state.mass, mass.tolist())), timestamp=state.timestamp)


def uniform_state(space: TypeSpace) -> TrustState:
    n = len(space.types)
    return TrustState(mass={t: 1.0 / n for t in space.types})


def check_score(score, space: TypeSpace, key):
    """Reject a score in [0, 1] that `space` cannot spread: a positive one
    with no trusted type, or one below 1 with no untrusted type."""
    if not space.trusted and score > PROB_TOL:
        raise ValidationError("positive trust score but no trusted types", key)
    if len(space.trusted) == len(space.types) and score < 1 - PROB_TOL:
        raise ValidationError("trust score below 1 but no untrusted types", key)


def state_from_score(score, space: TypeSpace) -> TrustState:
    """Spread a scalar trust score uniformly over the trusted types and the
    remainder over the untrusted ones."""
    score = probability(score, "trust score")
    check_score(score, space, "trust score")
    untrusted = [t for t in space.types if t not in space.trusted]
    mass = {}
    for t in space.trusted:
        mass[t] = score / len(space.trusted)
    for t in untrusted:
        mass[t] = (1.0 - score) / len(untrusted)
    return TrustState(mass=mass)
