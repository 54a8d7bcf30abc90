"""The trust arithmetic on mass dicts, as `trust.py` computed it before its
row primitives, kept as a test oracle: every sum is Python's `sum()` over a
dict, left to right from 0, and shares no code with the numpy rows. Also
`sequence_update`, the fold of the package's `bayes_update` over a list of
observations, which the fold tests use and no model needs."""
import math

from ztsim import trust
from ztsim.errors import ValidationError, ZeroProbabilityObservation
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


def sequence_update(state, obs_list, behavior, evidence):
    """Left fold of `trust.bayes_update` over observations whose ticks do not
    decrease. A ZeroProbabilityObservation gets the observation's position in
    the list as `index`."""
    for i in range(1, len(obs_list)):
        if obs_list[i].tick < obs_list[i - 1].tick:
            raise ValidationError("must not be below the previous tick", f"obs_list[{i}].tick")
    for i, obs in enumerate(obs_list):
        try:
            state = trust.bayes_update(state, obs, behavior, evidence)
        except ZeroProbabilityObservation as exc:
            exc.index = i
            raise
    return state
