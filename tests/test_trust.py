import math

import pytest
import trust_reference
from hypothesis import given, settings
from hypothesis import strategies as st

from ztsim.errors import NoPriorSources, ValidationError, ZeroProbabilityObservation
from ztsim.trust import (
    BehaviorModel,
    EvidenceModel,
    Observation,
    TrustState,
    TypeSpace,
    attenuate,
    bayes_update,
    compose_prior,
    sequence_update,
    trust_score,
    uniform_state,
)


def test_trust_score_single_trusted_type():
    space = TypeSpace(("T", "M"), {"T"})
    assert trust_score(TrustState({"T": 0.8, "M": 0.2}), space) == pytest.approx(0.8)


def test_trust_score_sums_over_trusted_subset():
    space = TypeSpace(("T1", "T2", "M"), {"T1", "T2"})
    state = TrustState({"T1": 0.5, "T2": 0.3, "M": 0.2})
    assert trust_score(state, space) == pytest.approx(0.8)


def test_trust_score_empty_trusted_set_is_zero():
    space = TypeSpace(("A", "B"), frozenset())
    assert trust_score(TrustState({"A": 0.6, "B": 0.4}), space) == 0.0


def test_trust_score_key_mismatch_raises():
    space = TypeSpace(("T", "M"), {"T"})
    with pytest.raises(ValidationError):
        trust_score(TrustState({"T": 0.5, "X": 0.5}), space)


def test_bayes_update_benign_no_alarm(space, prior_state, behavior, evidence):
    # joint: T = 0.95*0.9*0.8 = 0.684, M = 0.4*0.3*0.2 = 0.024
    post = bayes_update(prior_state, Observation("benign", "no_alarm", tick=1), behavior, evidence)
    assert trust_score(post, space) == pytest.approx(0.684 / 0.708, abs=1e-4)
    assert post.timestamp == 1
    assert prior_state.mass == {"T": 0.8, "M": 0.2}  # input unchanged


def test_bayes_update_attack_alarm(space, prior_state, behavior, evidence):
    # joint: T = 0.7*0.1*0.8 = 0.056, M = 0.9*0.7*0.2 = 0.126
    post = bayes_update(prior_state, Observation("attack", "alarm", tick=1), behavior, evidence)
    assert trust_score(post, space) == pytest.approx(0.056 / 0.182, abs=1e-4)


def test_bayes_update_equal_likelihoods_is_identity(space, prior_state):
    behavior = BehaviorModel(("a",), {("T", "a"): 1.0, ("M", "a"): 1.0})
    evidence = EvidenceModel(
        ("e0", "e1"),
        {
            ("a", "T", "e0"): 0.3,
            ("a", "T", "e1"): 0.7,
            ("a", "M", "e0"): 0.3,
            ("a", "M", "e1"): 0.7,
        },
    )
    post = bayes_update(prior_state, Observation("a", "e1"), behavior, evidence)
    for t in space.types:
        assert abs(post.mass[t] - prior_state.mass[t]) <= 1e-12


def test_bayes_update_degenerate_prior_absorbs(behavior, evidence):
    state = TrustState({"T": 1.0, "M": 0.0})
    post = bayes_update(state, Observation("benign", "no_alarm"), behavior, evidence)
    assert post.mass == {"T": 1.0, "M": 0.0}


def test_bayes_update_zero_probability_observation():
    behavior = BehaviorModel(("a", "b"), {("T", "a"): 1.0, ("T", "b"): 0.0,
                                          ("M", "a"): 1.0, ("M", "b"): 0.0})
    evidence = EvidenceModel(("e",), {("a", "T", "e"): 1.0, ("a", "M", "e"): 1.0,
                                      ("b", "T", "e"): 1.0, ("b", "M", "e"): 1.0})
    state = TrustState({"T": 0.5, "M": 0.5})
    with pytest.raises(ZeroProbabilityObservation) as info:
        bayes_update(state, Observation("b", "e"), behavior, evidence)
    assert info.value.action == "b"
    assert info.value.evidence == "e"


def test_sequence_update_empty_is_identity(prior_state, behavior, evidence):
    assert sequence_update(prior_state, [], behavior, evidence) == prior_state


def test_sequence_update_singleton_matches_bayes_update(prior_state, behavior, evidence):
    obs = Observation("attack", "alarm", tick=3)
    assert sequence_update(prior_state, [obs], behavior, evidence) == bayes_update(
        prior_state, obs, behavior, evidence
    )


def test_sequence_update_two_observations_compose(space, prior_state, behavior, evidence):
    # After (benign, no_alarm): T = 0.684/0.708, M = 0.024/0.708.
    # Then (attack, alarm): T = 0.7*0.1*(0.684/0.708), M = 0.9*0.7*(0.024/0.708).
    t1, m1 = 0.684 / 0.708, 0.024 / 0.708
    t2, m2 = 0.7 * 0.1 * t1, 0.9 * 0.7 * m1
    expected = t2 / (t2 + m2)
    obs = [Observation("benign", "no_alarm", 1), Observation("attack", "alarm", 2)]
    out = sequence_update(prior_state, obs, behavior, evidence)
    assert trust_score(out, space) == pytest.approx(expected, abs=1e-12)
    assert out.timestamp == 2


def test_sequence_update_rejects_decreasing_ticks(prior_state, behavior, evidence):
    obs = [Observation("benign", "no_alarm", 5), Observation("benign", "no_alarm", 2)]
    with pytest.raises(ValidationError):
        sequence_update(prior_state, obs, behavior, evidence)


def test_sequence_update_error_carries_index(prior_state):
    behavior = BehaviorModel(("a", "b"), {("T", "a"): 1.0, ("T", "b"): 0.0,
                                          ("M", "a"): 1.0, ("M", "b"): 0.0})
    evidence = EvidenceModel(("e",), {("a", "T", "e"): 1.0, ("a", "M", "e"): 1.0,
                                      ("b", "T", "e"): 1.0, ("b", "M", "e"): 1.0})
    obs = [Observation("a", "e", 1), Observation("b", "e", 2)]
    with pytest.raises(ZeroProbabilityObservation) as info:
        sequence_update(prior_state, obs, behavior, evidence)
    assert info.value.index == 1


def test_compose_prior_examples():
    assert compose_prior([(0.7, 1.0)]) == pytest.approx(0.7)
    assert compose_prior([(0.6, 0.5), (0.8, 0.5)]) == pytest.approx(0.7)
    assert compose_prior([(0.9, 3.0), (0.1, 1.0)]) == pytest.approx(0.7)


def test_compose_prior_errors():
    with pytest.raises(NoPriorSources):
        compose_prior([])
    with pytest.raises(NoPriorSources):
        compose_prior([(0.5, 0.0), (0.9, 0.0)])
    with pytest.raises(ValidationError):
        compose_prior([(1.5, 1.0)])


def test_attenuate_rate_zero_is_identity():
    state = TrustState({"T": 0.9, "M": 0.1})
    base = TrustState({"T": 0.5, "M": 0.5})
    out = attenuate(state, 100, 0.0, base)
    assert out.mass == state.mass


def test_attenuate_limits_to_baseline():
    state = TrustState({"T": 0.9, "M": 0.1})
    base = TrustState({"T": 0.5, "M": 0.5})
    out = attenuate(state, 10_000, 1.0, base)
    for t in state.mass:
        assert out.mass[t] == pytest.approx(base.mass[t], abs=1e-12)


def test_attenuate_half_life():
    state = TrustState({"T": 0.9, "M": 0.1})
    base = TrustState({"T": 0.5, "M": 0.5})
    out = attenuate(state, 1, math.log(2), base)
    assert out.mass["T"] == pytest.approx(0.7, abs=1e-12)
    assert out.mass["M"] == pytest.approx(0.3, abs=1e-12)


def test_attenuate_rejects_negative_inputs():
    state = TrustState({"T": 0.9, "M": 0.1})
    base = TrustState({"T": 0.5, "M": 0.5})
    with pytest.raises(ValidationError):
        attenuate(state, -1, 0.5, base)
    with pytest.raises(ValidationError):
        attenuate(state, 1, -0.5, base)


def test_model_construction_rejects_bad_rows():
    with pytest.raises(ValidationError):
        BehaviorModel(("a", "b"), {("T", "a"): 0.5, ("T", "b"): 0.4})
    with pytest.raises(ValidationError):
        EvidenceModel(("e0", "e1"), {("a", "T", "e0"): 0.5, ("a", "T", "e1"): 0.6})
    with pytest.raises(ValidationError):
        TrustState({"T": 0.5, "M": 0.6})


# --- randomized model machinery -------------------------------------------

TYPE_POOL = ("t0", "t1", "t2", "t3")
ACTION_POOL = ("a0", "a1", "a2")
EVIDENCE_POOL = ("e0", "e1")

probs = st.floats(min_value=0.01, max_value=1.0, allow_nan=False)


def _normalize(values):
    total = sum(values)
    return [v / total for v in values]


@st.composite
def trust_setups(draw):
    n_types = draw(st.integers(1, 4))
    n_actions = draw(st.integers(1, 3))
    n_evidence = draw(st.integers(1, 2))
    types = TYPE_POOL[:n_types]
    actions = ACTION_POOL[:n_actions]
    evid = EVIDENCE_POOL[:n_evidence]
    n_trusted = draw(st.integers(0, n_types))
    space = TypeSpace(types, frozenset(types[:n_trusted]))
    mass = _normalize(draw(st.lists(probs, min_size=n_types, max_size=n_types)))
    state = TrustState(dict(zip(types, mass)))
    b_like = {}
    for t in types:
        row = _normalize(draw(st.lists(probs, min_size=n_actions, max_size=n_actions)))
        for a, p in zip(actions, row):
            b_like[(t, a)] = p
    behavior = BehaviorModel(actions, b_like)
    e_like = {}
    for a in actions:
        for t in types:
            row = _normalize(draw(st.lists(probs, min_size=n_evidence, max_size=n_evidence)))
            for e, p in zip(evid, row):
                e_like[(a, t, e)] = p
    evidence = EvidenceModel(evid, e_like)
    return space, state, behavior, evidence


def enumerate_conservation(space, state, behavior, evidence):
    """Law of total expectation over the finite observation space."""
    expected = 0.0
    for a in behavior.actions:
        for e in evidence.evidence_values:
            p_obs = sum(
                evidence.prob(e, a, t) * behavior.prob(a, t) * state.mass[t]
                for t in space.types
            )
            if p_obs <= 0.0:
                continue
            post = bayes_update(state, Observation(a, e), behavior, evidence)
            expected += p_obs * trust_score(post, space)
    return expected


@settings(max_examples=100, deadline=None)
@given(trust_setups())
def test_conservation_of_expected_trust(setup):
    space, state, behavior, evidence = setup
    assert enumerate_conservation(space, state, behavior, evidence) == pytest.approx(
        trust_score(state, space), abs=1e-9
    )


@settings(max_examples=100, deadline=None)
@given(trust_setups())
def test_updates_preserve_normalization(setup):
    space, state, behavior, evidence = setup
    for a in behavior.actions:
        for e in evidence.evidence_values:
            post = bayes_update(state, Observation(a, e), behavior, evidence)
            assert abs(sum(post.mass.values()) - 1.0) <= 1e-9
            assert all(-1e-12 <= p <= 1 + 1e-12 for p in post.mass.values())


@settings(max_examples=50, deadline=None)
@given(trust_setups(), st.data())
def test_fold_equivalence(setup, data):
    space, state, behavior, evidence = setup
    obs_pairs = data.draw(
        st.lists(
            st.tuples(
                st.sampled_from(behavior.actions),
                st.sampled_from(evidence.evidence_values),
            ),
            min_size=0,
            max_size=6,
        )
    )
    obs = [Observation(a, e, tick=i) for i, (a, e) in enumerate(obs_pairs)]
    split = data.draw(st.integers(0, len(obs)))
    whole = sequence_update(state, obs, behavior, evidence)
    parts = sequence_update(
        sequence_update(state, obs[:split], behavior, evidence),
        obs[split:],
        behavior,
        evidence,
    )
    for t in space.types:
        assert whole.mass[t] == pytest.approx(parts.mass[t], abs=1e-12)


@settings(max_examples=100, deadline=None)
@given(st.floats(min_value=0.05, max_value=0.95))
def test_likelihood_ratio_monotonicity(prior_trusted):
    space = TypeSpace(("T", "M"), {"T"})
    state = TrustState({"T": prior_trusted, "M": 1.0 - prior_trusted})
    behavior = BehaviorModel(
        ("good", "bad"),
        {("T", "good"): 0.9, ("T", "bad"): 0.1, ("M", "good"): 0.4, ("M", "bad"): 0.6},
    )
    evidence = EvidenceModel(
        ("quiet", "alarm"),
        {
            ("good", "T", "quiet"): 0.95,
            ("good", "T", "alarm"): 0.05,
            ("good", "M", "quiet"): 0.5,
            ("good", "M", "alarm"): 0.5,
            ("bad", "T", "quiet"): 0.6,
            ("bad", "T", "alarm"): 0.4,
            ("bad", "M", "quiet"): 0.2,
            ("bad", "M", "alarm"): 0.8,
        },
    )
    # joint likelihood of (good, quiet): T = 0.855 > M = 0.2
    post = bayes_update(state, Observation("good", "quiet"), behavior, evidence)
    assert trust_score(post, space) > trust_score(state, space)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=5.0),
    st.floats(min_value=0.0, max_value=3.0),
)
def test_attenuation_contracts_toward_baseline(e1, delta, rate):
    e2 = e1 + delta
    state = TrustState({"T": 0.9, "M": 0.1})
    base = TrustState({"T": 0.4, "M": 0.6})
    out1 = attenuate(state, e1, rate, base)
    out2 = attenuate(state, e2, rate, base)
    for t in state.mass:
        assert abs(out2.mass[t] - base.mass[t]) <= abs(out1.mass[t] - base.mass[t]) + 1e-12


def test_uniform_state():
    space = TypeSpace(("a", "b", "c"), {"a"})
    u = uniform_state(space)
    assert u.mass == {"a": pytest.approx(1 / 3), "b": pytest.approx(1 / 3), "c": pytest.approx(1 / 3)}


@pytest.mark.parametrize("mass, message", [
    ({"T": 1.5, "M": -0.5}, "mass['T']: must lie in [0, 1], got 1.5"),
    ({"T": 0.5, "M": -2e-9}, "mass['M']: must lie in [0, 1], got -2e-09"),
    ({"T": math.nan, "M": 0.5}, "mass['T']: must be a finite number, got nan"),
    ({"T": math.inf, "M": 0.5}, "mass['T']: must be a finite number, got inf"),
    ({"T": "0.5", "M": 0.5}, "mass['T']: must be a finite number, got '0.5'"),
    ({"T": 0.5, "M": 0.4}, "trust mass must sum to 1, got 0.9"),
])
def test_trust_state_rejects_mass_naming_the_entry(mass, message):
    with pytest.raises(ValidationError) as info:
        TrustState(mass)
    assert str(info.value) == message


def test_trust_state_accepts_mass_within_tolerance():
    assert TrustState({"T": 1 + 1e-9, "M": -1e-9}).mass == {"T": 1.0, "M": 0.0}


def test_model_construction_stores_in_tolerance_likelihood_clamped():
    behavior = BehaviorModel(("a", "b"), {("T", "a"): -1e-10, ("T", "b"): 1 + 1e-10})
    assert behavior.likelihood == {("T", "a"): 0.0, ("T", "b"): 1.0}
    assert repr(behavior.prob("a", "T")) == "0.0"


# --- the array-backed arithmetic against the dict reference ---------------

SCALARS = st.one_of(
    st.sampled_from((0.0, 1.0, 0.5, 1e-300)), st.floats(min_value=0.0, max_value=1.0)
)


@st.composite
def arithmetic_inputs(draw):
    """Up to 7 types (numpy sums rows of that width left to right), a mass
    and a baseline keyed in any order with zeros allowed, a trusted subset,
    two-valued likelihood rows, one observation, elapsed time and a rate."""
    n = draw(st.integers(1, 7))
    types = tuple(f"t{i}" for i in range(n))

    def state():
        weights = draw(st.lists(SCALARS, min_size=n, max_size=n))
        if not any(weights):
            weights[0] = 1.0
        total = sum(weights)
        return TrustState(dict(zip(draw(st.permutations(types)), (w / total for w in weights))))

    def row(key):
        p = draw(SCALARS)
        return {(*key, 0): p, (*key, 1): 1.0 - p}

    behavior, evidence = {}, {}
    for t in types:
        behavior.update(row((t,)))
        for a in (0, 1):
            evidence.update(row((a, t)))
    return (
        TypeSpace(types, draw(st.sets(st.sampled_from(types)))),
        state(),
        state(),
        BehaviorModel((0, 1), behavior),
        EvidenceModel((0, 1), evidence),
        Observation(draw(st.sampled_from((0, 1))), draw(st.sampled_from((0, 1))), tick=1),
        draw(st.sampled_from((0, 1, 2.5))),
        draw(st.sampled_from((0.0, 1e-17, 0.01, 0.3, 50.0))),
    )


def _exact(state):
    return state.timestamp, [(t, repr(p)) for t, p in state.mass.items()]


def _bayes_outcome(update, *args):
    try:
        return _exact(update(*args))
    except ZeroProbabilityObservation as exc:
        return "zero", exc.action, exc.evidence, exc.tick


@settings(max_examples=300, deadline=None)
@given(arithmetic_inputs())
def test_array_backed_arithmetic_equals_dict_reference(inputs):
    space, state, baseline, behavior, evidence, obs, elapsed, rate = inputs
    assert repr(trust_score(state, space)) == repr(trust_reference.trust_score(state, space))
    assert _exact(attenuate(state, elapsed, rate, baseline)) == _exact(
        trust_reference.attenuate(state, elapsed, rate, baseline)
    )
    assert _bayes_outcome(bayes_update, state, obs, behavior, evidence) == _bayes_outcome(
        trust_reference.bayes_update, state, obs, behavior, evidence
    )
