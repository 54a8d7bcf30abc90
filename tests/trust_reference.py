"""The trust arithmetic on mass dicts, as `trust.py` computed it before its
row primitives, kept as a test oracle: every sum is Python's `sum()` over a
dict, left to right from 0, and shares no code with the numpy rows."""
import math

from ztsim.errors import ZeroProbabilityObservation
from ztsim.trust import TrustState


def trust_score(state, space):
    return sum(state.mass[t] for t in space.types if t in space.trusted)


def bayes_update(state, obs, behavior, evidence):
    joint = {
        t: evidence.prob(obs.evidence, obs.action, t) * behavior.prob(obs.action, t) * p
        for t, p in state.mass.items()
    }
    z = sum(joint.values())
    if z <= 0.0:
        raise ZeroProbabilityObservation(obs.action, obs.evidence, tick=obs.tick)
    return TrustState(mass={t: v / z for t, v in joint.items()}, timestamp=obs.tick)


def attenuate(state, elapsed, rate, baseline):
    k = math.exp(-rate * elapsed)
    if k == 1.0:
        return state
    raw = {t: baseline.mass[t] + (state.mass[t] - baseline.mass[t]) * k for t in state.mass}
    z = sum(raw.values())
    return TrustState(mass={t: v / z for t, v in raw.items()}, timestamp=state.timestamp)
