"""Discrete-time zero-trust simulation loop.

Each tick, every entity's trust is first attenuated toward the uniform belief,
the policy engine decides grant/challenge/deny from the current score,
non-denied entities act according to their hidden true type and emit side
evidence, and the defender's belief is updated by Bayes' rule. All randomness
flows from the scenario seed through per-entity PCG64 streams, so runs are
bit-reproducible and entity order cannot perturb draws.

`run` and `run_seeds` execute a Scenario compiled once into dense arrays,
every (seed, entity) lane advancing together one numpy operation per step.
The trust arithmetic is `trust.py`'s row primitives, the same ones the labeled
`attenuate`, `bayes_update` and `trust_score` apply to one state; `step` and
`entity_rngs` are the reference fold the kernel reproduces bit for bit, draws
and decisions included.
"""
from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from . import trust
from .errors import ValidationError, ZeroProbabilityObservation
from .errors import integer, label, nonnegative, real, table
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
DECISIONS = (GRANT, CHALLENGE, DENY)  # the kernel's decision codes 0, 1, 2
_DENY_CODE = 2
# Pre-drawn doubles per batch of seeds: the kernel runs
# max(1, _CHUNK_DRAWS // (2 * horizon * entities)) seeds at a time, and a
# batch's score text lives as long as the batch.
_CHUNK_DRAWS = 1 << 17


@dataclass(frozen=True)
class PolicyConfig:
    grant_threshold: float
    deny_threshold: float
    decay_rate: float = 0.0
    observe_while_denied: bool = False

    def __post_init__(self):
        for name in ("grant_threshold", "deny_threshold"):
            object.__setattr__(self, name, real(getattr(self, name), name))
        object.__setattr__(self, "decay_rate", nonnegative(self.decay_rate, "decay_rate"))
        if not isinstance(self.observe_while_denied, bool):
            raise ValidationError("must be true or false", "observe_while_denied")
        if not (0.0 <= self.deny_threshold <= self.grant_threshold <= 1.0):
            raise ValidationError(
                f"thresholds must satisfy 0 <= deny ({self.deny_threshold}) "
                f"<= grant ({self.grant_threshold}) <= 1",
                "deny_threshold",
            )


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
    prior: float = field(init=False, repr=False, compare=False)  # the composed score

    def __post_init__(self):
        if isinstance(self.id, bool) or not isinstance(self.id, (str, int, float)):
            raise ValidationError(f"must be a string or a number, got {self.id!r}", "id")
        object.__setattr__(self, "id", str(self.id))
        object.__setattr__(self, "prior", trust.compose_prior(self.prior_sources))
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
        """Error keys are document paths, e.g. `run.horizon`, `entities[0].profile`.
        The model holds what a scenario document can state, and no more."""
        object.__setattr__(self, "profiles", dict(self.profiles))
        object.__setattr__(self, "entities", tuple(self.entities))
        if not self.entities:  # a run needs someone to observe
            raise ValidationError("must be non-empty", "entities")
        integer(self.horizon, "run.horizon", low=1)
        integer(self.seed, "run.seed")
        ids = set()
        for i, e in enumerate(self.entities):
            if e.id in ids:
                raise ValidationError(f"duplicate id {e.id!r}", f"entities[{i}].id")
            ids.add(e.id)
            label(e.true_type, self.space.types, f"entities[{i}].true_type")
            label(e.profile, self.profiles, f"entities[{i}].profile")
            trust.check_score(e.prior, self.space, f"entities[{i}].prior")
        types = self.space.types
        for name, profile in self.profiles.items():  # each table over exactly these types
            actions = profile.behavior.actions
            table(profile.behavior.likelihood, (types, actions), f"profiles.{name}.behavior")
            table(
                profile.evidence.likelihood,
                (actions, types, profile.evidence.evidence_values),
                f"profiles.{name}.evidence",
            )


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


@dataclass(frozen=True, eq=False)
class SimTrace:
    """One seed's run as arrays over [tick, entity]: decision codes into
    DECISIONS, action and evidence indices into the entity's profile (-1 where
    nothing was observed), scores before and after the update (int 0 when no
    type is trusted, as `trust_score` returns), and the final mass in
    `compiled.types` order. `records` and `final` build the labeled view.
    Traces compare by that view: scenario, records and final state.

    The kernel also fills in, once per batch of seeds: the repr of each
    score, [tick][entity], which is the text json.dumps writes for it (the
    trace lines and the metrics trajectories share it); and per entity the
    first tick whose after-score is below the deny threshold (None if none)
    and whether any tick denied it."""

    scenario: Scenario
    compiled: "CompiledScenario"
    decision: np.ndarray
    action: np.ndarray
    evidence: np.ndarray
    before: np.ndarray
    after: np.ndarray
    mass: np.ndarray
    before_text: list
    after_text: list
    detection: list
    denied: list

    @cached_property
    def records(self) -> tuple:
        c = self.compiled
        cls, out = c.cls.tolist(), []
        rows = zip(self.decision.tolist(), self.action.tolist(), self.evidence.tolist(),
                   self.before.tolist(), self.after.tolist())
        for tick, row in enumerate(rows, start=1):
            for n, (d, a, e, b, f) in enumerate(zip(*row)):
                observed = a >= 0
                out.append(StepRecord(
                    tick=tick,
                    entity_id=c.ids[n],
                    decision=DECISIONS[d],
                    action=c.actions[cls[n]][a] if observed else None,
                    evidence=c.evidence_values[cls[n]][e] if observed else None,
                    score_before=b,
                    score_after=f,
                ))
        return tuple(out)

    @cached_property
    def final(self) -> SimState:
        h = self.scenario.horizon
        return SimState(tick=h, trust={
            eid: TrustState(mass=dict(zip(self.compiled.types, row)), timestamp=h)
            for eid, row in zip(self.compiled.ids, self.mass.tolist())
        })

    def __eq__(self, other):
        if not isinstance(other, SimTrace):
            return NotImplemented
        return (self.scenario, self.records, self.final) == (other.scenario, other.records, other.final)


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


def step(scenario: Scenario, state: SimState, rngs) -> tuple:
    """Advance one tick; returns (new state, records for this tick)."""
    if state.tick >= scenario.horizon:
        raise ValidationError(f"must be below the horizon {scenario.horizon}, got {state.tick}",
                              "state.tick")
    tick = state.tick + 1
    baseline = trust.uniform_state(scenario.space)
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


def entity_rngs(scenario: Scenario, seed=None, keys=None):
    """One independent PCG64 generator per entity, keyed by (seed, sha256(id))
    so streams do not depend on entity order. `keys`, the entities' stream
    keys in order, spares hashing the ids again."""
    seed = scenario.seed if seed is None else seed
    keys = keys or [_entity_stream_key(e.id) for e in scenario.entities]
    return {
        e.id: np.random.Generator(np.random.PCG64(np.random.SeedSequence([int(seed)] + key)))
        for e, key in zip(scenario.entities, keys)
    }


def _score_text(scores):
    """The repr of each score, as an object array of `scores`' shape.
    Scores are told apart by their bits, so 0.0 and -0.0 keep their own
    text, and `repr` runs once per distinct value."""
    distinct, inverse = np.unique(scores.view(np.int64), return_inverse=True)
    text = np.array(list(map(repr, distinct.view(scores.dtype).tolist())), dtype=object)
    return text[inverse.reshape(scores.shape)]


def initial_state(scenario: Scenario) -> SimState:
    states = {e.id: trust.state_from_score(e.prior, scenario.space) for e in scenario.entities}
    return SimState(tick=0, trust=states)


class CompiledScenario:
    """A Scenario as dense arrays, built once per run or sweep.

    Types are held in the order `state_from_score` builds a TrustState's mass,
    trusted types first, so the fold of `step` and the kernel hand the `trust`
    row primitives the same rows. Entities that share a (profile, true type)
    share a class, `cls[n]`. Per class: its profile's action and evidence
    labels; the cumulative action distribution of its true type and the
    cumulative evidence distribution per action, each summed left to right in
    declared order as `_draw` does, with +inf from the last category on (so
    sampling picks the first index where u < cum, else the last); and
    lh[c, a, e, t] = h(e|a,t) * sigma(a|t), multiplied as `bayes_update` does.
    Each entity's prior row spreads its composed prior score over the trusted
    columns and the rest over the others, divided as `state_from_score` does.
    """

    def __init__(self, scenario: Scenario):
        space, policy = scenario.space, scenario.policy
        self.scenario = scenario
        self.types = space.trusted + tuple(t for t in space.types if t not in space.trusted)
        self.n_trusted = len(space.trusted)
        self.baseline = np.full(len(self.types), 1.0 / len(self.types))  # uniform_state's mass
        # Every state is stamped with the tick it was last touched, so a tick
        # always attenuates by exactly one elapsed step.
        self.k = math.exp(-policy.decay_rate * 1)
        entities = scenario.entities
        self.ids = tuple(e.id for e in entities)
        self.stream_keys = [_entity_stream_key(eid) for eid in self.ids]
        classes = {}  # (profile name, true type) -> class index
        self.cls = np.array(
            [classes.setdefault((e.profile, e.true_type), len(classes)) for e in entities], dtype=np.intp
        )
        profiles = [scenario.profiles[name] for name, _ in classes]
        self.actions = tuple(p.behavior.actions for p in profiles)
        self.evidence_values = tuple(p.evidence.evidence_values for p in profiles)
        n_a = max(map(len, self.actions))
        n_e = max(map(len, self.evidence_values))
        self.cum_action = np.full((len(classes), n_a), np.inf)
        self.cum_evidence = np.full((len(classes), n_a, n_e), np.inf)
        self.lh = np.zeros((len(classes), n_a, n_e, len(self.types)))
        for c, ((_, etype), p) in enumerate(zip(classes, profiles)):
            acts, evs = p.behavior.actions, p.evidence.evidence_values
            self.cum_action[c, : len(acts) - 1] = np.cumsum(
                [p.behavior.prob(a, etype) for a in acts[:-1]]
            )
            for j, a in enumerate(acts):
                self.cum_evidence[c, j, : len(evs) - 1] = np.cumsum(
                    [p.evidence.prob(v, a, etype) for v in evs[:-1]]
                )
                for m, v in enumerate(evs):
                    self.lh[c, j, m] = [
                        p.evidence.prob(v, a, t) * p.behavior.prob(a, t) for t in self.types
                    ]
        score = np.array([e.prior for e in entities]).reshape(-1, 1)
        trusted = np.arange(len(self.types)) < self.n_trusted
        count = np.where(trusted, self.n_trusted, len(self.types) - self.n_trusted)
        self.prior = np.where(trusted, score, 1.0 - score) / count

    def run(self, seeds):
        """Run `seeds` as one batch of lanes, lane = seed index * entities +
        entity index. Yields the traces of the seeds before the first seed
        that raised, one at a time so each can be freed once used, then
        raises that seed's exception. Score text and metric reductions are
        made once for those seeds' lanes."""
        sc, policy = self.scenario, self.scenario.policy
        s_count, n, h = len(seeds), len(self.ids), sc.horizon
        lanes = np.arange(s_count * n)
        cls = np.tile(self.cls, s_count)
        draws = np.empty((len(lanes), 2 * h))
        for s, seed in enumerate(seeds):
            rngs = entity_rngs(sc, seed, self.stream_keys)
            for i, eid in enumerate(self.ids):
                rngs[eid].random(out=draws[s * n + i])
        cursor = np.zeros(len(lanes), dtype=np.int64)
        cum_action = self.cum_action[cls]
        mass = np.tile(self.prior, (s_count, 1))
        shape = (h, len(lanes))
        decision = np.empty(shape, dtype=np.int64)
        action = np.empty(shape, dtype=np.int64)
        evidence = np.empty(shape, dtype=np.int64)
        score_dtype = np.float64 if self.n_trusted else np.int64
        before, after = np.empty(shape, dtype=score_dtype), np.empty(shape, dtype=score_dtype)
        errors = {}  # seed index -> the first exception its run raised
        for tick in range(1, h + 1):
            if self.k != 1.0:
                mass = trust._attenuate_rows(mass, self.baseline, self.k)
            b = trust._score_rows(mass, self.n_trusted)
            d = np.where(b >= policy.grant_threshold, 0, np.where(b < policy.deny_threshold, 2, 1))
            act = np.ones(len(lanes), dtype=bool) if policy.observe_while_denied else d != _DENY_CODE
            u = draws[lanes, cursor]
            a = (u[:, None] < cum_action).argmax(axis=1)
            v = draws[lanes, cursor + 1]
            e = (v[:, None] < self.cum_evidence[cls, a]).argmax(axis=1)
            post, z = trust._posterior_rows(mass, self.lh[cls, a, e])
            zero = act & (z <= 0.0)
            for lane in np.flatnonzero(zero).tolist():
                s, i = divmod(lane, n)
                errors.setdefault(s, ZeroProbabilityObservation(
                    self.actions[cls[lane]][a[lane]], self.evidence_values[cls[lane]][e[lane]],
                    tick=tick, entity_id=self.ids[i],
                ))
            mass = np.where(act[:, None], post, mass)
            cursor += 2 * act
            decision[tick - 1] = d
            action[tick - 1] = np.where(act, a, -1)
            evidence[tick - 1] = np.where(act, e, -1)
            before[tick - 1] = b
            after[tick - 1] = trust._score_rows(mass, self.n_trusted)
        del draws  # else the suspended generator holds them while its traces are read
        done = min(errors, default=s_count)
        m = done * n  # the lanes of the seeds that completed
        text = _score_text(np.stack((before[:, :m], after[:, :m]))).reshape(2, h, done, n)
        detected = after[:, :m] < policy.deny_threshold
        first, ever = (detected.argmax(axis=0) + 1).tolist(), detected.any(axis=0).tolist()
        detection = [t if hit else None for t, hit in zip(first, ever)]
        denied = (decision[:, :m] == _DENY_CODE).any(axis=0).tolist()
        for s in range(done):
            lo, hi = s * n, (s + 1) * n
            columns = (x[:, lo:hi] for x in (decision, action, evidence, before, after))
            yield SimTrace(sc, self, *columns, mass[lo:hi], *text[:, :, s].tolist(), detection[lo:hi], denied[lo:hi])
        if done < s_count:
            raise errors[done]


def run_seeds(scenario: Scenario, seeds):
    """Yield one SimTrace per seed, in order. Seeds run in batches through one
    CompiledScenario; when a seed raises, the traces of every earlier seed
    have been yielded first, as running the seeds one by one would."""
    compiled = CompiledScenario(scenario)
    seeds = list(seeds)
    chunk = max(1, _CHUNK_DRAWS // (2 * scenario.horizon * len(scenario.entities)))
    for lo in range(0, len(seeds), chunk):
        yield from compiled.run(seeds[lo : lo + chunk])


def run(scenario: Scenario, seed=None) -> SimTrace:
    """The run `step` folded over the horizon from the seeded initial state
    would give, computed by the compiled kernel."""
    return next(run_seeds(scenario, [scenario.seed if seed is None else seed]))


def compute_metrics(trace: SimTrace) -> Metrics:
    """Per-entity detection time, false-lockout flag, final score, and the
    full after-score trajectory, read from the trace's after-scores and the
    detection and denial its batch reduced once for every seed."""
    trusted = trace.scenario.space.trusted
    rows = zip(trace.scenario.entities, trace.after.T.tolist(), trace.detection, trace.denied)
    out = {}
    for entity, trajectory, detection, denied in rows:
        out[entity.id] = EntityMetrics(
            time_to_detection=detection,
            false_lockout=entity.true_type in trusted and denied,
            final_score=trajectory[-1],
            trajectory=tuple(trajectory),
        )
    return Metrics(per_entity=out)
