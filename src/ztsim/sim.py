"""Discrete-time zero-trust simulation loop.

Each tick, every entity's trust is first attenuated, the policy engine decides
grant/challenge/deny from the current score, non-denied entities act according
to their hidden true type and emit side evidence, and the defender's belief is
updated by Bayes' rule. All randomness flows from the scenario seed through
per-entity PCG64 streams, so runs are bit-reproducible and entity order cannot
perturb draws.
"""
from __future__ import annotations

import hashlib
import numbers
from dataclasses import dataclass, field

import numpy as np

from . import trust
from .errors import ValidationError, ZeroProbabilityObservation, reject_bool
from .trust import (
    BehaviorModel,
    EvidenceModel,
    Observation,
    TrustState,
    TypeSpace,
)

GRANT = "grant"
CHALLENGE = "challenge"
DENY = "deny"


@dataclass(frozen=True)
class PolicyConfig:
    grant_threshold: float
    deny_threshold: float
    decay_rate: float = 0.0
    baseline: TrustState = None  # None means uniform over the type space
    observe_while_denied: bool = False

    def __post_init__(self):
        for name in ("grant_threshold", "deny_threshold", "decay_rate"):
            object.__setattr__(self, name, float(reject_bool(getattr(self, name), name)))
        if not isinstance(self.observe_while_denied, bool):
            raise ValidationError("must be true or false", "observe_while_denied")
        if not (0.0 <= self.deny_threshold <= self.grant_threshold <= 1.0):
            raise ValidationError(
                f"thresholds must satisfy 0 <= deny ({self.deny_threshold}) "
                f"<= grant ({self.grant_threshold}) <= 1",
                "deny_threshold",
            )
        if not self.decay_rate >= 0:  # NaN fails too
            raise ValidationError(f"must be non-negative, got {self.decay_rate}", "decay_rate")


@dataclass(frozen=True)
class Profile:
    behavior: BehaviorModel
    evidence: EvidenceModel


@dataclass(frozen=True)
class EntitySpec:
    id: str
    true_type: object
    profile: str
    prior_sources: tuple  # ((score, weight), ...)

    def __post_init__(self):
        if isinstance(self.id, bool) or not isinstance(self.id, (str, int, float)):
            raise ValidationError(f"must be a string or a number, got {self.id!r}", "id")
        object.__setattr__(self, "id", str(self.id))
        trust.compose_prior(self.prior_sources)
        object.__setattr__(
            self, "prior_sources", tuple((float(s), float(w)) for s, w in self.prior_sources)
        )


@dataclass(frozen=True)
class Scenario:
    space: TypeSpace
    profiles: dict  # name -> Profile
    entities: tuple
    policy: PolicyConfig
    horizon: int
    seed: int

    def __post_init__(self):
        """Error keys are document paths, e.g. `run.horizon`, `entities[0].profile`."""
        object.__setattr__(self, "profiles", dict(self.profiles))
        object.__setattr__(self, "entities", tuple(self.entities))
        for key, value, low in (("run.horizon", self.horizon, 1), ("run.seed", self.seed, 0)):
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < low:
                raise ValidationError(f"must be an integer >= {low}, got {value!r}", key)
        ids = set()
        for i, e in enumerate(self.entities):
            if e.id in ids:
                raise ValidationError(f"duplicate id {e.id!r}", f"entities[{i}].id")
            ids.add(e.id)
            if e.true_type not in self.space.types:
                raise ValidationError(f"unknown type {e.true_type!r}", f"entities[{i}].true_type")
            if e.profile not in self.profiles:
                raise ValidationError(f"unknown profile {e.profile!r}", f"entities[{i}].profile")
            try:  # the prior score must be expressible over this type space
                trust.state_from_score(trust.compose_prior(e.prior_sources), self.space)
            except ValidationError as exc:
                raise ValidationError(exc.reason, f"entities[{i}].prior") from exc


@dataclass(frozen=True)
class StepRecord:
    tick: int
    entity_id: str
    decision: str
    action: object  # None when denied
    evidence: object  # None when denied
    score_before: float
    score_after: float


@dataclass(frozen=True)
class SimState:
    tick: int
    trust: dict  # entity id -> TrustState


@dataclass(frozen=True)
class SimTrace:
    scenario: Scenario
    records: tuple
    final: SimState


@dataclass(frozen=True)
class EntityMetrics:
    time_to_detection: int  # None if never below the deny threshold
    false_lockout: bool
    final_score: float
    trajectory: tuple  # after-scores per tick


@dataclass(frozen=True)
class Metrics:
    per_entity: dict  # entity id -> EntityMetrics


def policy_decide(score, policy: PolicyConfig) -> str:
    """grant at or above grant_threshold, deny strictly below deny_threshold,
    challenge in between (deny boundary inclusive for challenge)."""
    if score >= policy.grant_threshold:
        return GRANT
    if score < policy.deny_threshold:
        return DENY
    return CHALLENGE


def _draw(rng, values, probs):
    u = rng.random()
    acc = 0.0
    for v, p in zip(values, probs):
        acc += p
        if u < acc:
            return v
    return values[-1]  # guard against float drift in the cumulative sum


def sample_action(rng, behavior: BehaviorModel, etype):
    """Draw one action from the type's behavior distribution."""
    probs = [behavior.prob(a, etype) for a in behavior.actions]
    return _draw(rng, behavior.actions, probs)


def generate_evidence(rng, evidence: EvidenceModel, action, etype):
    """Draw one side-evidence value for the (action, type) pair."""
    probs = [evidence.prob(e, action, etype) for e in evidence.evidence_values]
    return _draw(rng, evidence.evidence_values, probs)


def _baseline(scenario):
    if scenario.policy.baseline is not None:
        return scenario.policy.baseline
    return trust.uniform_state(scenario.space)


def step(scenario: Scenario, state: SimState, rngs) -> tuple:
    """Advance one tick; returns (new state, records for this tick)."""
    if state.tick >= scenario.horizon:
        raise ValidationError(f"tick {state.tick} is already at the horizon")
    tick = state.tick + 1
    baseline = _baseline(scenario)
    new_trust = {}
    records = []
    for entity in scenario.entities:
        ts = state.trust[entity.id]
        elapsed = tick - ts.timestamp
        decayed = trust.attenuate(ts, elapsed, scenario.policy.decay_rate, baseline)
        before = trust.trust_score(decayed, scenario.space)
        decision = policy_decide(before, scenario.policy)
        profile = scenario.profiles[entity.profile]
        if decision != DENY or scenario.policy.observe_while_denied:
            rng = rngs[entity.id]
            action = sample_action(rng, profile.behavior, entity.true_type)
            evidence = generate_evidence(rng, profile.evidence, action, entity.true_type)
            obs = Observation(action=action, evidence=evidence, tick=tick)
            try:
                updated = trust.bayes_update(decayed, obs, profile.behavior, profile.evidence)
            except ZeroProbabilityObservation as exc:
                raise ZeroProbabilityObservation(
                    exc.action, exc.evidence, tick=tick, entity_id=entity.id
                ) from exc
        else:
            action = evidence = None
            updated = TrustState(mass=decayed.mass, timestamp=tick)
        after = trust.trust_score(updated, scenario.space)
        new_trust[entity.id] = updated
        records.append(
            StepRecord(
                tick=tick,
                entity_id=entity.id,
                decision=decision,
                action=action,
                evidence=evidence,
                score_before=before,
                score_after=after,
            )
        )
    return SimState(tick=tick, trust=new_trust), records


def _entity_stream_key(entity_id):
    digest = hashlib.sha256(str(entity_id).encode("utf-8")).digest()
    return [int.from_bytes(digest[i : i + 4], "big") for i in range(0, 16, 4)]


def entity_rngs(scenario: Scenario, seed=None):
    """One independent PCG64 generator per entity, keyed by (seed, sha256(id))
    so streams do not depend on entity order."""
    seed = scenario.seed if seed is None else seed
    return {
        e.id: np.random.Generator(
            np.random.PCG64(np.random.SeedSequence([int(seed)] + _entity_stream_key(e.id)))
        )
        for e in scenario.entities
    }


def initial_state(scenario: Scenario) -> SimState:
    states = {}
    for e in scenario.entities:
        score = trust.compose_prior(e.prior_sources)
        states[e.id] = trust.state_from_score(score, scenario.space, timestamp=0)
    return SimState(tick=0, trust=states)


def run(scenario: Scenario, seed=None) -> SimTrace:
    """Fold `step` over the horizon from the seeded initial state."""
    rngs = entity_rngs(scenario, seed)
    state = initial_state(scenario)
    records = []
    while state.tick < scenario.horizon:
        state, recs = step(scenario, state, rngs)
        records.extend(recs)
    return SimTrace(scenario=scenario, records=tuple(records), final=state)


def compute_metrics(trace: SimTrace, policy: PolicyConfig = None) -> Metrics:
    """Per-entity detection time, false-lockout flag, final score, and the
    full after-score trajectory."""
    if not trace.records:
        raise ValidationError("trace is empty")
    policy = policy or trace.scenario.policy
    trusted = trace.scenario.space.trusted
    by_entity = {e.id: e for e in trace.scenario.entities}
    out = {}
    for eid, entity in by_entity.items():
        recs = [r for r in trace.records if r.entity_id == eid]
        trajectory = tuple(r.score_after for r in recs)
        ttd = next(
            (r.tick for r in recs if r.score_after < policy.deny_threshold), None
        )
        lockout = entity.true_type in trusted and any(r.decision == DENY for r in recs)
        out[eid] = EntityMetrics(
            time_to_detection=ttd,
            false_lockout=lockout,
            final_score=trajectory[-1],
            trajectory=trajectory,
        )
    return Metrics(per_entity=out)
